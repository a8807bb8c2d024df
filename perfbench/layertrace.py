"""Outside-in layer trace of holocert, installed from the benchmark's files.

While installed, the public functions of each layer are replaced, wherever
a holocert module binds them, by wrappers that record a span (name, start,
end, parent, operation).  Three hot calls are too frequent for a span each
and are aggregated instead: the ODE right-hand side and ``MPoly.__mul__``
(count and time, charged to the enclosing span) and
``GaussianRational.__mul__`` (count only).  Spans stay in memory and are
written out once, by the caller, at the end of the run; every per-layer
figure is derived from them after the run.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> module -> public functions recorded as spans
SPANNED = {
    "cli": ("holocert.cli", ("main", "cmd_certify", "emit_report")),
    "normalform": ("holocert.normalform", ("expand_normal_form", "expand_with_beta", "validate_genericity")),
    "conditions": ("holocert.conditions", ("build_condition_set", "build_P", "build_q", "h_jets")),
    "obstruction": ("holocert.obstruction", ("build_Md", "solve_Rd", "functional_Fd", "apply_Ld")),
    "mpoly": ("holocert.mpoly", ("resultant", "exact_div", "bareiss_det", "sylvester")),
    "elimination": ("holocert.elimination", ("certify", "resultant_chain", "linear_system_solve")),
    "loops": ("holocert.numerics.loops", ("build_loops",)),
    "jets": ("holocert.numerics.jets", ("compose", "invert", "commutator", "jet_distance")),
    "holonomy": ("holocert.numerics.holonomy", ("float_model", "integrate_variations", "integrate_quadratures")),
    "odepath": ("holocert.numerics.odepath", ("integrate_loop", "integrate_fixed_interval")),
    "checks": (
        "holocert.numerics.checks",
        (
            "run_numeric_verification",
            "verify_variation_formulas",
            "verify_integral_lemmas",
            "antiderivative_identity_rows",
            "structural_rows",
            "formula_coefficients",
            "numeric_summary",
        ),
    ),
}
LAYERS = tuple(SPANNED) + ("rhs",)

# span record fields
NAME, START, END, PARENT, OP, HOT = range(6)


class Tracer:
    """Spans and counters of the operations run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, hot_s]
        self.counts: list[Counter] = []  # per operation
        self.hot_s: list[defaultdict] = []  # per operation: hot name -> seconds
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.counts) - 1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def _hot(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.counts[-1][name] += 1
                self.hot_s[-1][name] += dt
                if stack:
                    spans[stack[-1]][HOT] += dt

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _integrator(self, fn):
        """integrate_fixed_interval, with its right-hand side timed per call."""
        span = self._span("odepath.integrate_fixed_interval", fn)
        hot = self._hot

        def wrapper(f, *args, **kwargs):
            return span(hot("odepath.rhs", f), *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self):
        """Start a new operation and put the wrappers in place."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.counts.append(Counter())
        self.hot_s.append(defaultdict(float))
        replace = {}
        for layer, (modname, names) in SPANNED.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                if modname.endswith("odepath") and name == "integrate_fixed_interval":
                    replace[id(fn)] = (fn, self._integrator(fn))
                else:
                    replace[id(fn)] = (fn, self._span(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("holocert") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        from holocert.gaussian import GaussianRational
        from holocert.mpoly import MPoly

        mul = self._hot("mpoly.mul", MPoly.__mul__)
        gmul = self._count("gaussian.mul", GaussianRational.__mul__)
        for cls, attr, new in (
            (MPoly, "__mul__", mul),
            (MPoly, "__rmul__", mul),
            (MPoly, "__pow__", self._span("mpoly.pow", MPoly.__pow__)),
            (GaussianRational, "__mul__", gmul),
            (GaussianRational, "__rmul__", gmul),
        ):
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        if self._stack:
            raise RuntimeError(f"unbalanced spans: {self._stack}")

    # -- derived figures -----------------------------------------------------------

    def per_op(self) -> list[dict]:
        """Per operation: inclusive and self seconds per span name, and counters.

        A span's self time is its duration minus its child spans and the hot
        calls charged to it; a layer's self time is the sum over its spans.
        """
        ops = [
            {"incl": defaultdict(float), "calls": Counter(), "self": defaultdict(float),
             "counts": self.counts[k], "hot_s": self.hot_s[k], "spans": []}
            for k in range(len(self.counts))
        ]
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        for idx, rec in enumerate(self.spans):
            op = ops[rec[OP]]
            dur = rec[END] - rec[START]
            op["incl"][rec[NAME]] += dur
            op["calls"][rec[NAME]] += 1
            op["self"][rec[NAME].split(".")[0]] += dur - child[idx] - rec[HOT]
            op["spans"].append(idx)
        for op in ops:
            op["self"]["mpoly"] += op["hot_s"].get("mpoly.mul", 0.0)
            op["self"]["rhs"] += op["hot_s"].get("odepath.rhs", 0.0)
        return ops

    def nested(self, op: dict, outer: str, inner: str) -> float:
        """Seconds of ``inner`` spans that run inside an ``outer`` span of ``op``."""
        total = 0.0
        for idx in op["spans"]:
            rec = self.spans[idx]
            if rec[NAME] != inner:
                continue
            p = rec[PARENT]
            while p >= 0 and self.spans[p][NAME] != outer:
                p = self.spans[p][PARENT]
            if p >= 0:
                total += rec[END] - rec[START]
        return total
