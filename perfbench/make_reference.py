"""Write perfbench/reference.json: output digests of the committed seeds.

For each workload and each seed in SEEDS, the first PREFIX inputs of the
seed's pool are run once, each output is re-checked, and the digest of the
str() of its outputs is stored in pool order.  A later benchmark run on one
of these seeds fails any instance whose digest differs.

    python3 perfbench/make_reference.py [workload ...]

Regenerate only when outputs are meant to change; the library's outputs are
otherwise required to stay identical.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = tuple(range(1, 11))
PREFIX = 200


def main(names) -> int:
    src = run.ROOT / "src"
    sys.path.insert(0, str(src))
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        gv = run.load_gvcalc()
        entry = {}
        for seed in SEEDS:
            pool = run.make_pool(workload, gv, seed, PREFIX)
            tally = run.measure(workload, gv, pool, count=len(pool))
            if tally.failed:
                print(f"{name} seed {seed}: {tally.first_failure}", file=sys.stderr)
                return 1
            entry[str(seed)] = [tally.digests[i] for i in range(len(pool))]
            print(f"{name} seed {seed}: {len(pool)} digests", flush=True)
        data[name] = entry
    run.REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
