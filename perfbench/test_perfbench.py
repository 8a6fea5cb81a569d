"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gvcalc  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    first = run.make_pool(workload, gvcalc, 7, 6)
    again = run.make_pool(workload, gvcalc, 7, 6)
    other = run.make_pool(workload, gvcalc, 8, 6)
    assert [str(x) for x in first] == [str(x) for x in again]
    assert [str(x) for x in first] != [str(x) for x in other]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_pass_their_checks(name):
    workload = WORKLOADS[name]
    pool = run.make_pool(workload, gvcalc, 3, 4)
    tally = run.measure(workload, gvcalc, pool, count=len(pool))
    assert tally.failed == 0, tally.first_failure
    assert tally.correct


def test_altered_output_is_caught_by_the_digest():
    workload = WORKLOADS["charp_factors"]
    pool = run.make_pool(workload, gvcalc, 3, 4)
    reference = [run.digest(workload.run(gvcalc, inp)[0]) for inp in pool]

    def altered(gv, inp):
        outputs, labels = workload.run(gv, inp)
        if inp is pool[2]:
            outputs = [str(outputs[0]) + " "]
        return outputs, labels

    tally = run.measure(workload, gvcalc, pool, reference, count=4)
    assert tally.failed == 0
    bad = dataclasses.replace(workload, run=altered)
    tally = run.measure(bad, gvcalc, pool, reference, count=4)
    assert tally.failures == {"digest": 1}
    assert not tally.correct


def test_forced_inconclusive_counts_as_failed():
    workload = WORKLOADS["finite_gv"]
    pool = run.make_pool(workload, gvcalc, 3, 2)

    def inconclusive(gv, inp):
        outputs, labels = workload.run(gv, inp)
        return [outputs[0], gv.Inconclusive("forced", "test")], ["gv.outcome.Inconclusive"]

    tally = run.measure(dataclasses.replace(workload, run=inconclusive), gvcalc, pool, count=2)
    assert tally.attempted == 2
    assert tally.failures == {"check": 2}
    assert tally.labels["gv.outcome.Inconclusive"] == 2


def test_timeout_counts_as_failed():
    workload = WORKLOADS["charp_factors"]
    pool = run.make_pool(workload, gvcalc, 3, 2)

    def hang(gv, inp):
        time.sleep(5)

    tally = run.measure(
        dataclasses.replace(workload, run=hang), gvcalc, pool, count=3, limit=0.05
    )
    assert tally.attempted == 3
    assert tally.failures == {"timeout": 3}
    assert all(t < 1 for t in tally.best)
    assert tally.correct


def originals(tracer):
    return [(owner, attr, original) for _, owner, attr, original, _ in tracer.targets(gvcalc)]


def test_tracing_off_leaves_every_attribute_original():
    tracer = Tracer()
    before = originals(tracer)
    assert len(before) > 60
    workload = WORKLOADS["charp_sieve"]
    pool = run.make_pool(workload, gvcalc, 3, 2)
    run.measure(workload, gvcalc, pool, count=2)
    assert all(getattr(owner, attr) is original for owner, attr, original in before)

    tracer.install(gvcalc)
    assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    tally = run.measure(workload, gvcalc, pool, count=2, tracer=tracer)
    tracer.uninstall()
    assert tally.failed == 0
    assert tracer.stats["charp.integrating_factor"].calls == 2
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_spans():
    clock = ManualClock()
    tracer = Tracer(clock)

    def at(t):
        clock.now = t

    # a [0, 10] holds b [1, 5] (which holds c [2, 4]) and d [6, 9]
    a = tracer.open("a")
    at(1)
    b = tracer.open("b")
    at(2)
    c = tracer.open("c")
    at(4)
    tracer.close(c)
    at(5)
    tracer.close(b)
    at(6)
    d = tracer.open("d")
    at(9)
    tracer.close(d)
    at(10)
    tracer.close(a)
    self_s = {name: s.self_s for name, s in tracer.stats.items()}
    assert self_s == {"a": 3.0, "b": 2.0, "c": 2.0, "d": 3.0}
    parents = {span[0]: tracer.spans[span[3]][0] if span[3] >= 0 else None for span in tracer.spans}
    assert parents == {"a": None, "b": "a", "c": "b", "d": "a"}
    assert [span[5] for span in tracer.spans] == [3.0, 2.0, 2.0, 3.0]


def test_aggregated_calls_and_recursion_in_self_time():
    clock = ManualClock()
    tracer = Tracer(clock)
    tracer.enabled = True

    def arithmetic():
        clock.now += 2

    def layer(depth):
        clock.now += 1
        if depth:
            traced_layer(depth - 1)
        traced_arithmetic()
        clock.now += 1

    traced_arithmetic = tracer.wrap_aggregate("field.RatFn", arithmetic)
    traced_layer = tracer.wrap_span("gv.gv_shift", layer)
    traced_layer(1)  # outer [0, 8] holds inner [1, 5]; each holds 2 s of arithmetic
    gcd, arith = tracer.stats["gv.gv_shift"], tracer.stats["field.RatFn"]
    assert (gcd.calls, gcd.self_s, gcd.time_s) == (2, 4.0, 8.0)
    assert (arith.calls, arith.self_s) == (2, 4.0)
    assert len(tracer.spans) == 2


def test_times_are_scaled_to_the_reference_speed():
    workload = WORKLOADS["series_moves"]
    pool = run.make_pool(workload, gvcalc, 3, 2)
    tally = run.measure(workload, gvcalc, pool, count=2, passes=2, scale=lambda: 2.0)
    assert tally.attempted == 4
    assert tally.best == [2.0 * t for t in tally.raw_best]
    assert tally.scaled_busy_s == pytest.approx(2.0 * tally.busy_s)
