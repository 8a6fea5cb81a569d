"""Per-layer tracing of the gvcalc package, installed from outside it.

`Tracer.install(gv)` replaces the public functions of each gvcalc module, and
the arithmetic methods of `MultiPoly` and `RatFn`, by wrappers; `uninstall()`
puts every original object back.  A function is replaced under every module
attribute bound to it, so calls between modules are seen too.

Every wrapped call opens a frame on one stack (the benchmark is one thread).
When a frame closes, its duration is added to its parent's covered time, so a
frame's self time is its duration minus the time its child calls cover.
Calls of the library layers are kept as spans (name, start, end, parent span,
instance id); `MultiPoly` and `RatFn` arithmetic is only aggregated (count
and self time), which bounds memory.  Wrappers pass straight through while
`enabled` is false, so the re-checks between instances are not counted.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

MODULES = ("field", "exterior", "zseries", "gv", "transverse", "charp")

# layer functions traced as spans, by module
SPAN_FUNCTIONS = {
    "field": ("poly_gcd", "exact_div", "squarefree_decomposition", "rf_normalize"),
    "exterior": ("wedge", "ext_d", "pullback", "interior", "form_apply"),
    "zseries": ("substitute_series", "structure_defect", "structure_defects"),
    "gv": (
        "finite_gv_verify",
        "finite_gv_classify",
        "finite_gv_pullback",
        "gv_verify",
        "gv_shift",
        "gv_rescale",
        "form_ratio",
    ),
    "transverse": ("riccati_triple", "triple_gauge", "suspension_form", "triple_verify"),
    "charp": (
        "dual_frame",
        "vf_pth_power",
        "integrating_factor",
        "invariant_hypersurface_candidates",
    ),
}

# arithmetic methods aggregated under one name per class
ARITHMETIC = {
    "MultiPoly": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "diff", "substitute",
    ),
    "RatFn": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv", "diff",
        "substitute",
    ),
}


@dataclass
class Stat:
    calls: int = 0
    time_s: float = 0.0  # inclusive, outermost calls of the name only
    self_s: float = 0.0
    raised: int = 0
    useful: int = 0  # poly_gcd results that are not constant
    terms_max: int = 0  # largest MultiPoly result


class Frame:
    __slots__ = ("name", "start", "covered", "span", "nearest")

    def __init__(self, name, start, span, nearest):
        self.name = name
        self.start = start
        self.covered = 0.0
        self.span = span  # own span index; None for aggregated arithmetic
        self.nearest = nearest  # own span, else the innermost enclosing one


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.instance = -1
        self.stack: list[Frame] = []
        self.depth: dict[str, int] = {}
        self.stats: dict[str, Stat] = {}
        # [name, start, end, parent span index or -1, instance, self time]
        self.spans: list[list] = []
        self.patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> Frame:
        """Open a span for a call of the layer function `name`."""
        span_id = len(self.spans)
        parent = self.stack[-1].nearest if self.stack else -1
        frame = Frame(name, self.clock(), span_id, span_id)
        self.spans.append([name, frame.start, None, parent, self.instance, None])
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        return frame

    def close(self, frame: Frame, raised: bool = False) -> Stat:
        end = self.clock()
        top = self.stack.pop()
        assert top is frame, "spans must close in stack order"
        duration = end - frame.start
        if self.stack:
            self.stack[-1].covered += duration
        stat = self.stat(frame.name)
        stat.calls += 1
        stat.self_s += duration - frame.covered
        stat.raised += raised
        self.depth[frame.name] -= 1
        if self.depth[frame.name] == 0:
            stat.time_s += duration
        span = self.spans[frame.span]
        span[2] = end
        span[5] = duration - frame.covered
        return stat

    # -- wrappers --------------------------------------------------------------

    def wrap_span(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame, raised=True)
                raise
            stat = tracer.close(frame)
            if observe is not None:
                observe(stat, result)
            return result

        return traced

    def wrap_aggregate(self, name: str, fn):
        """Like wrap_span, without a span record: count and self time only."""
        tracer = self
        stack = self.stack
        clock = self.clock
        stat = self.stat(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = Frame(name, clock(), None, stack[-1].nearest if stack else -1)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame.start
                stack.pop()
                if stack:
                    stack[-1].covered += duration
                stat.calls += 1
                stat.self_s += duration - frame.covered
            if observe is not None:
                observe(stat, result)
            return result

        return traced

    def targets(self, gv):
        """(layer name, owner, attribute, original, is_span) for every wrapped object."""
        modules = [gv] + [getattr(gv, m) for m in MODULES]
        out = []
        for mod_name, names in SPAN_FUNCTIONS.items():
            home = getattr(gv, mod_name)
            for fname in names:
                original = getattr(home, fname)
                layer = f"{mod_name}.{fname}"
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        out.append((layer, mod, fname, original, True))
        for cls_name, methods in ARITHMETIC.items():
            cls = getattr(gv.field, cls_name)
            for meth in methods:
                out.append((f"field.{cls_name}", cls, meth, cls.__dict__[meth], False))
        return out

    def install(self, gv) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, owner, attr, original, span in self.targets(gv):
            if id(original) not in wrappers:
                wrap = self.wrap_span if span else self.wrap_aggregate
                wrappers[id(original)] = wrap(layer, original)
            self.patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _observe_gcd(stat: Stat, result) -> None:
    if not result.is_constant():
        stat.useful += 1


def _observe_poly(stat: Stat, result) -> None:
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > stat.terms_max:
        stat.terms_max = len(terms)


OBSERVERS = {"field.poly_gcd": _observe_gcd, "field.MultiPoly": _observe_poly}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values by name, from the stats a traced run gathered."""
    stats = tracer.stats

    def get(name):
        return stats.get(name, Stat())

    out: dict[str, float] = {}
    mp, rf = get("field.MultiPoly"), get("field.RatFn")
    out["field.MultiPoly.ops"] = mp.calls
    out["field.MultiPoly.self_s"] = mp.self_s
    out["field.MultiPoly.terms_max"] = mp.terms_max
    gcd = get("field.poly_gcd")
    out["field.poly_gcd.self_s"] = gcd.self_s
    out["field.poly_gcd.useful_ratio"] = gcd.useful / gcd.calls if gcd.calls else 0.0
    div = get("field.exact_div")
    out["field.exact_div.fail_ratio"] = div.raised / div.calls if div.calls else 0.0
    out["field.RatFn.ops"] = rf.calls
    out["field.RatFn.self_s"] = rf.self_s
    for mod_name, names in SPAN_FUNCTIONS.items():
        for fname in names:
            stat = get(f"{mod_name}.{fname}")
            out[f"{mod_name}.{fname}.calls"] = stat.calls
            out[f"{mod_name}.{fname}.time_s"] = stat.time_s
    return out
