"""Benchmark of the gvcalc library: one process, one caller, a closed loop.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload finite_gv --seed 1 --seconds 25 --trace 0

Set-up imports gvcalc from the checkout's src/ and generates the seed's input
pool; it is done SETUP_REPEATS times and `setup_s` is the median.  The timed
phase runs inputs one after the other, in PASSES passes over the same inputs,
for --seconds of busy time in all; an input's latency is its least time over
the passes, and each execution has a time limit.  After each execution,
outside the timed section, the str() of its outputs is digested and compared
with perfbench/reference.json when the seed is committed there, and its
certificates are re-checked once per input.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
`trace_instances` inputs of the pool untraced and then traced, and prints the
per-layer metrics and `trace_overhead_ratio`.  Both print one line per metric,
then one JSON object as the last line.  The exit code is 1 when an output was
wrong (digest mismatch, failed re-check or undocumented exception) and 2 on
bad usage or a checkout without src/gvcalc.  perfbench/NOTES.md has the rest.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 5
TIME_LIMIT_S = 10.0
PASSES = 2


# Reference speed.  A host shared with other tenants can drift in speed by
# 1.6x over minutes, as the baseline host did, which no repetition inside a
# run removes.  So each time is scaled by REFERENCE_KERNEL_S / kernel_s.
# kernel_s is the median of the last KERNEL_WINDOW calibrations, taken at most
# RECALIBRATE_S apart, each the least of three timings of a fixed pure-Python
# kernel that does not use gvcalc: a product of two sparse polynomials over
# Fractions.  The median keeps the kernel's own jitter out of the factor.
# REFERENCE_KERNEL_S is a round figure of the kernel's time on the host of the
# recorded baseline.
REFERENCE_KERNEL_S = 1.5e-3
RECALIBRATE_S = 0.1
KERNEL_WINDOW = 5
_KERNEL_POLY = {
    (i, j): Fraction((7 * i + 3 * j) % 11 + 1, 1 + (i + j) % 3)
    for i in range(6)
    for j in range(6 - i)
}


def _kernel() -> None:
    out: dict = {}
    for (a, b), c in _KERNEL_POLY.items():
        for (d, e), f in _KERNEL_POLY.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f


def kernel_time() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedScale:
    """Factor from measured time to time at the reference speed."""

    def __init__(self):
        self.recent: list[float] = []
        self.taken = None

    def calibrate(self) -> float:
        self.recent = self.recent[1 - KERNEL_WINDOW :] + [kernel_time()]
        self.taken = time.perf_counter()
        return self.factor

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.recent)

    def __call__(self) -> float:
        if self.taken is None or time.perf_counter() - self.taken >= RECALIBRATE_S:
            return self.calibrate()
        return self.factor


class InstanceTimeout(Exception):
    """An instance ran past the per-instance time limit."""


@contextmanager
def time_limit(seconds: float):
    """Raise InstanceTimeout in this thread once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise InstanceTimeout(f"instance ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def digest(outputs) -> str:
    text = "\n".join(str(o) for o in outputs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_gvcalc():
    """Import gvcalc afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "gvcalc" or m.startswith("gvcalc.")]:
        del sys.modules[name]
    return importlib.import_module("gvcalc")


def make_pool(workload, gv, seed: int, size: int | None = None) -> list:
    """The seed's inputs; a prefix of the pool does not depend on `size`."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [workload.generate(gv, rng, i) for i in range(size or workload.pool_size)]


def set_up(workload, seed: int, repeats: int = SETUP_REPEATS):
    """Import and generate `repeats` times.

    Returns the last module and pool, and each set-up's time at the reference
    speed and as measured.  The first set-up counts from process start, so it
    includes interpreter start-up after `time` was imported and the
    benchmark's own imports.
    """
    scaled, measured = [], []
    scale = SpeedScale()
    start = PROCESS_START
    for _ in range(repeats):
        gv = load_gvcalc()
        pool = make_pool(workload, gv, seed)
        measured.append(time.perf_counter() - start)
        scaled.append(measured[-1] * scale.calibrate())
        start = time.perf_counter()
    return gv, pool, scaled, measured


@dataclass
class Tally:
    best: list = field(default_factory=list)  # least scaled time of each input
    raw_best: list = field(default_factory=list)  # least measured time of each input
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    labels: Counter = field(default_factory=Counter)
    digests: dict = field(default_factory=dict)
    first_failure: str = ""

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No wrong output: timeouts are failures, but not wrong outputs."""
        return not (self.failures.keys() & {"error", "digest", "check"})

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        if not self.first_failure:
            self.first_failure = f"instance {self.attempted - 1}: {kind}: {detail}"


def measure(
    workload,
    gv,
    pool,
    reference=None,
    seconds=None,
    count=None,
    passes=1,
    limit=TIME_LIMIT_S,
    tracer=None,
    scale=None,
) -> Tally:
    """Run instances in a closed loop, one after the other.

    The first pass runs the pool's inputs in order until they have been busy
    for `seconds / passes`, or for `count` inputs; every further pass runs the
    same inputs again.  `best` holds each input's least time at the reference
    speed (`scale`, a SpeedScale by default) and `raw_best` its least measured
    time.  An execution fails when it raises, runs past `limit`, returns
    outputs whose digest differs from `reference` (per pool index) or from an
    earlier execution of the same input, or fails its re-check.
    """
    tally = Tally()
    reference = reference or []
    scale = scale or SpeedScale()
    times: list[list[tuple[float, float]]] = []  # (scaled, measured) per execution

    def run_one(j: int) -> None:
        index = j % len(pool)
        inp = pool[index]
        tally.attempted += 1
        outputs = None
        factor = scale()
        if tracer is not None:
            tracer.instance = j
            tracer.enabled = True
        start = time.perf_counter()
        try:
            with time_limit(limit):
                start = time.perf_counter()
                outputs, labels = workload.run(gv, inp)
                elapsed = time.perf_counter() - start
        except InstanceTimeout as err:
            elapsed = time.perf_counter() - start
            tally.fail("timeout", str(err))
        except Exception as err:  # an undocumented exception is a counted failure
            elapsed = time.perf_counter() - start
            tally.fail("error", "".join(traceback.format_exception_only(err)).strip())
        finally:
            if tracer is not None:
                tracer.enabled = False
        times[j].append((elapsed * factor, elapsed))
        tally.busy_s += elapsed
        tally.scaled_busy_s += elapsed * factor
        if outputs is None:
            return
        if len(times[j]) == 1:
            tally.labels.update(labels)
        d = digest(outputs)
        expected = tally.digests.get(index)
        if expected is None and index < len(reference):
            expected = reference[index]
        if expected is not None and d != expected:
            tally.fail("digest", f"pool index {index}: {d} != {expected}")
            return
        if index in tally.digests:
            return  # the same input again: its outputs were re-checked already
        tally.digests[index] = d
        try:
            workload.check(gv, inp, outputs)
        except Exception as err:  # CheckFailed, or the re-check itself broke
            tally.fail("check", "".join(traceback.format_exception_only(err)).strip())

    while (tally.busy_s < seconds / passes) if count is None else (len(times) < count):
        times.append([])
        run_one(len(times) - 1)
    for _ in range(passes - 1):
        for j in range(len(times)):
            run_one(j)
    tally.best = [min(t)[0] for t in times]
    tally.raw_best = [min(m for _, m in t) for t in times]
    return tally


def load_reference(name: str, seed: int) -> list:
    if not REFERENCE.is_file():
        return []
    data = json.loads(REFERENCE.read_text())
    return data.get(name, {}).get(str(seed), [])


def emit(metrics: dict, units: dict, tally: Tally, extra_lines=()) -> None:
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"attempted {tally.attempted} failed {tally.failed} "
          f"fail_ratio {tally.failed / max(tally.attempted, 1):.6g}")
    for kind, n in sorted(tally.failures.items()):
        print(f"failures.{kind} {n}")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}")
    for line in extra_lines:
        print(line)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def timings(best, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
    }


def end_to_end(workload, gv, pool, reference, seconds, setup) -> Tally:
    scaled_setup, measured_setup = setup
    tally = measure(workload, gv, pool, reference, seconds=seconds, passes=PASSES)
    metrics = timings(tally.best, scaled_setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {
        "setup_s": "s",
        "instances_per_s": "1/s",
        "latency_p50_ms": "ms",
        "latency_p90_ms": "ms",
        "peak_rss_mb": "MiB",
    }
    measured = timings(tally.raw_best, measured_setup)
    lines = [f"inputs {len(tally.best)} passes {PASSES}"]
    lines += [f"measured.{name} {value:.6g} {units[name]}" for name, value in measured.items()]
    lines += [f"{label} {n}" for label, n in sorted(tally.labels.items())]
    emit(metrics, units, tally, lines)
    return tally


def traced(workload, gv, pool, reference, seed: int) -> Tally:
    count = workload.trace_instances
    plain = measure(workload, gv, pool, reference, count=count)
    tracer = Tracer()
    tracer.install(gv)
    try:
        tally = measure(workload, gv, pool, reference, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    for label in LABELS:
        metrics[label] = tally.labels[label]
    metrics["trace.instances"] = count
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.busy_s"] = tally.busy_s
    metrics["trace_overhead_ratio"] = tally.scaled_busy_s / plain.scaled_busy_s - 1
    units = {name: metric_unit(name) for name in metrics}
    tally.failures.update(plain.failures)
    tally.attempted += plain.attempted
    tally.first_failure = tally.first_failure or plain.first_failure
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    write_spans(tracer.spans, path)
    emit(metrics, units, tally, [f"spans written to {path.relative_to(ROOT)}"])
    return tally


def write_spans(spans, path: Path) -> None:
    """One JSON object per span, times in seconds from the first span's start."""
    path.parent.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with path.open("w") as out:
        for name, start, end, parent, instance, self_s in spans:
            record = {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "instance": instance,
                "self_s": self_s,
            }
            out.write(json.dumps(record) + "\n")


LABELS = sorted({label for wl in WORKLOADS.values() for label in wl.labels})


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("terms_max"):
        return "terms"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "gvcalc" / "__init__.py").is_file():
        print(f"perfbench: no gvcalc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    gv, pool, *setup = set_up(workload, args.seed)
    reference = load_reference(workload.name, args.seed)
    if args.trace:
        tally = traced(workload, gv, pool, reference, args.seed)
    else:
        tally = end_to_end(workload, gv, pool, reference, args.seconds, setup)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
