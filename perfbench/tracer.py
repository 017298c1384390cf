"""Outside-in tracing of branegauge, for the benchmark's traced runs.

The program has no tracing of its own, so this module wraps its functions
from outside.  Every public function of each `branegauge.<layer>` module, a
few methods named in METHODS, and each task handler become spans.  A span
records calls, inclusive time and self time (its duration minus the time its
child spans cover); a layer's self time is the sum over its spans.

A wrapper must replace the function at every binding site: `from .groebner
import module_groebner` copies the name into `modules` and others, so
patching `groebner.module_groebner` alone would miss most calls.  `install`
therefore replaces every attribute of every loaded `branegauge.*` module that
`is` an original function.

Small helpers that run millions of times (monomial arithmetic, the sparse
axpy loops) are left unwrapped: a span around them would cost more than the
work it measures.  Their time counts as self time of the span that calls
them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "polynomials", "polymatrix", "groebner", "linalg", "modules", "homspace",
    "complexes", "projective", "cech", "gauge", "manifest", "reports",
)

# hot helpers that stay unwrapped (see the module docstring)
UNWRAPPED = {
    "polynomials": {"monomial_mul", "monomial_divides", "monomial_div",
                    "monomial_lcm", "monomial_degree", "all_items"},
    "groebner": {"mvec_axpy", "mvec_scale", "mvec_from_polys",
                 "mvec_to_polys"},
    "linalg": {"vec_axpy"},
}

# (layer, class, method, span name)
METHODS = (
    ("polynomials", "Polynomial", "__mul__", "polynomials.mul"),
    ("polynomials", "Polynomial", "__add__", "polynomials.add"),
    ("polymatrix", "PolyMatrix", "__mul__", "polymatrix.mul"),
    ("linalg", "SpanTracker", "__init__", "linalg.tracker"),
    ("linalg", "SpanTracker", "insert", "linalg.insert"),
    ("linalg", "SpanTracker", "residual", "linalg.residual"),
    ("linalg", "SpanTracker", "coordinates", "linalg.coordinates"),
    ("homspace", "HomBasis", "__init__", "homspace.hom_basis"),
    ("homspace", "HomBasis", "coordinates", "homspace.coordinates"),
)


class Tracer:
    """Span and counter store; `install` wraps the loaded program."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self._stack = [0.0]  # per open span: time covered by its children

    def wrap(self, span: str, fn, observe=None):
        """fn wrapped as a span; observe(args, kwargs, result) adds counters.

        The observer's own time is hidden from every span's self time."""
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                calls[span] += 1
                inclusive[span] += dt
                self_time[span] += dt - stack.pop()
                if returned and observe is not None:
                    observe(args, kwargs, result)
                    dt += perf_counter() - t1
                stack[-1] += dt

        return wrapper

    # -- observers: counters measured where the work happens ----------------

    def _observers(self):
        counts, distinct = self.counts, self.distinct

        def groebner_run(args, kwargs, basis):
            counts["groebner.input_gens"] += len(args[0])
            counts["groebner.basis_elems"] += len(basis)
            distinct["groebner.runs"].add(
                (tuple(tuple(sorted(g.items())) for g in args[0]), args[1:],
                 tuple(sorted(kwargs.items()))))

        def reduction(args, kwargs, remainder):
            counts["groebner.reductions_useful"] += bool(remainder)

        def tracker_insert(args, kwargs, combo):
            counts["linalg.pivots"] += combo is None

        def level(args, kwargs, lv):
            counts["cech.window_spots"] += len(lv.spots)

        def kernel(args, kwargs, result):
            f = args[0]
            distinct["modules.kernel"].add(
                (repr(f.matrix), repr(f.source.relations),
                 repr(f.target.relations)))

        def relation_build(args, kwargs, cols):
            lv = args[0]
            counts["cech.relation_cols"] += len(cols)
            distinct["cech.relation_builds"].add(
                (repr(lv.module.relations), lv.p, lv.bound))

        def saturation(args, kwargs, result):
            distinct["modules.saturate"].add(
                (repr(args[0].relations),) + tuple(args[1:]))

        return {
            "groebner.module_groebner": groebner_run,
            "groebner.reduce_vec": reduction,
            "linalg.insert": tracker_insert,
            "cech.cech_level": level,
            "cech.cech_relation_columns": relation_build,
            "modules.kernel_with_inclusion": kernel,
            "modules.saturate": saturation,
        }

    def install(self) -> None:
        """Wrap the loaded branegauge package in place."""
        import branegauge  # noqa: F401  (loads every layer module)

        observers = self._observers()
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"branegauge.{layer}"]
            skip = UNWRAPPED.get(layer, set())
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self.wrap(span, obj,
                                                  observers.get(span))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"branegauge.{layer}"], cls_name)
            setattr(cls, meth, self.wrap(span, getattr(cls, meth),
                                         observers.get(span)))
        for name, mod in list(sys.modules.items()):
            if name != "branegauge" and not name.startswith("branegauge."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    setattr(mod, attr, w)
        handlers = sys.modules["branegauge.tasks"]._HANDLERS
        for kind, fn in handlers.items():
            handlers[kind] = self.wrap(f"tasks.{kind}", fn)

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for span, t in self.self_time.items()
                   if span.startswith(prefix))

    def summary(self) -> dict:
        """Plain-data record of everything measured, for the parent."""
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "layer_self": {layer: self.layer_self_time(layer)
                           for layer in LAYERS},
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
