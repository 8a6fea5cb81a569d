"""Outputs of the benchmark workloads against their committed digests.

Every str() of a result and certificate must stay identical across changes
that do not mean to change outputs.  For each workload of perfbench/, the
first 25 inputs of seed 1 are run; the digest of each input's outputs must
match perfbench/reference.json, and each output must pass the workload's
re-checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import gvcalc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT = 25


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_inputs_match_reference_digests(name):
    workload = WORKLOADS[name]
    reference = run.load_reference(name, 1)
    assert len(reference) >= COUNT
    pool = run.make_pool(workload, gvcalc, 1, COUNT)
    tally = run.measure(workload, gvcalc, pool, reference=reference, count=COUNT)
    assert tally.attempted == COUNT
    assert tally.failed == 0, tally.first_failure
