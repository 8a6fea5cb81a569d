"""Run `integrating_factor` on the 28 probe forms of ROADMAP item 2, and
`invariant_hypersurface_candidates` on each factor found.

Usage, from the repository root:

    PYTHONPATH=src python tests/probe_forms.py [i ...]

Each form i (all of 0..27 by default) runs under a 10 s `signal.alarm`, and
so does the sieve of its factor.  One JSON line per form gives its index,
prime, outcome ("factor", "p-closed", "timeout" or the exception's type
name), the seconds taken, the sha256 of `str()` of the factor, and on a
timeout the gvcalc functions that were running, outermost first.  When a
factor was found, the keys `sieve`, `sieve_seconds`, `sieve_sha256` and
`sieve_stalled_in` say the same of the sieve, whose sha256 is that of
`str()` of the candidate list; the sieve's outcome is "candidates" when it
returns.  pytest does not collect this file.
"""

import hashlib
import json
import signal
import sys
import time
import traceback

from gvcalc import PClosedCase, integrating_factor, invariant_hypersurface_candidates
from test_charp import _probe_form

LIMIT_S = 10


class _Stalled(Exception):
    pass


def _alarm(signum, frame):
    raise _Stalled


def _timed(call, done: str) -> tuple[object, dict]:
    """call() under the time limit: its value (None unless it returned) and
    the fields outcome (`done` when it returned), stalled_in, sha256, seconds."""
    fields = {}
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_S)
    start = time.perf_counter()
    value = None
    try:
        value = call()
    except _Stalled as err:
        frames = traceback.extract_tb(err.__traceback__)
        fields["outcome"] = "timeout"
        fields["stalled_in"] = [f.name for f in frames if "gvcalc" in f.filename]
    except PClosedCase:
        fields["outcome"] = "p-closed"
    except Exception as err:  # reported, not raised: the probe goes on
        fields["outcome"] = type(err).__name__
    else:
        fields["outcome"] = done
        fields["sha256"] = hashlib.sha256(str(value).encode()).hexdigest()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    fields["seconds"] = round(time.perf_counter() - start, 3)
    return value, fields


def probe(i: int) -> dict:
    w = _probe_form(i)
    out = {"form": i, "p": w.chart.characteristic}
    factor, fields = _timed(lambda: integrating_factor(w), "factor")
    out.update(fields)
    if factor is not None:
        _, fields = _timed(lambda: invariant_hypersurface_candidates(factor, w), "candidates")
        out.update(("sieve" if k == "outcome" else "sieve_" + k, v) for k, v in fields.items())
    return out


def main(argv: list[str]) -> None:
    for i in map(int, argv) if argv else range(28):
        print(json.dumps(probe(i)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
