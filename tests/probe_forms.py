"""Run `integrating_factor` on the 28 probe forms of ROADMAP item 2.

Usage, from the repository root:

    PYTHONPATH=src python tests/probe_forms.py [i ...]

Each form i (all of 0..27 by default) runs under a 10 s `signal.alarm`.  One
JSON line per form gives its index, prime, outcome ("factor", "p-closed",
"timeout" or the exception's type name), the seconds taken, the sha256 of
`str()` of the factor, and on a timeout the gvcalc functions that were
running, outermost first.  pytest does not collect this file.
"""

import hashlib
import json
import signal
import sys
import time
import traceback

from gvcalc import PClosedCase, integrating_factor
from test_charp import _probe_form

LIMIT_S = 10


class _Stalled(Exception):
    pass


def _alarm(signum, frame):
    raise _Stalled


def probe(i: int) -> dict:
    w = _probe_form(i)
    out = {"form": i, "p": w.chart.characteristic}
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_S)
    start = time.perf_counter()
    try:
        factor = integrating_factor(w)
    except _Stalled as err:
        frames = traceback.extract_tb(err.__traceback__)
        out["outcome"] = "timeout"
        out["stalled_in"] = [f.name for f in frames if "gvcalc" in f.filename]
    except PClosedCase:
        out["outcome"] = "p-closed"
    except Exception as err:  # reported, not raised: the probe goes on
        out["outcome"] = type(err).__name__
    else:
        out["outcome"] = "factor"
        out["sha256"] = hashlib.sha256(str(factor).encode()).hexdigest()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out["seconds"] = round(time.perf_counter() - start, 3)
    return out


def main(argv: list[str]) -> None:
    for i in map(int, argv) if argv else range(28):
        print(json.dumps(probe(i)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
