"""Per-layer tracing from outside the library.

The tracer replaces names that library modules bound at import time (for
example ``pqelliptic.means.hyp2f1``) with wrappers that open a span, so the
library itself is not edited.  A span stack gives self time: a span's
duration minus the durations of the spans it directly encloses.  Callables
handed to the quadrature and inversion kernels are wrapped as well, which
counts integrand and ``g`` evaluations.  What cannot be seen from outside,
such as the number of ``hyp2f1`` terms or the route ``auto`` chose inside
``mean_mp``, is not reported.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) pairs whose binding is replaced
KERNEL_BINDINGS = {
    "numerics.hyp2f1": (("elliptic", "hyp2f1"), ("means", "hyp2f1")),
    "numerics.quad": (
        ("gentrig", "integrate_singular"),
        ("elliptic", "integrate_singular"),
        ("means", "integrate_singular"),
        ("means", "integrate_halfline"),
    ),
    "numerics.invert": (("gentrig", "invert_monotone"),),
    "gentrig.arcsin_pq": (("gentrig", "arcsin_pq"),),
    "elliptic.K_pq": (("means", "K_pq"),),  # the elliptic route of the means
    "means.mean_mp": (("means", "mean_mp"),),  # mean_mp inside ordering
}
# kernels whose first argument is a callable whose evaluations are counted
_COUNTS_EVALS = ("numerics.quad", "numerics.invert")
# public functions and the layer whose top-level span they open
PUBLIC_LAYERS = {
    "K_pq": "elliptic",
    "E_pq": "elliptic",
    "sin_pq": "gentrig",
    "cos_pq": "gentrig",
    "tan_pq": "gentrig",
    "mean_mp": "means",
    "mean_kp": "means",
    "ordering": "means",
}
PUBLIC_SITES = {
    "elliptic": ("K_pq", "E_pq"),
    "gentrig": ("sin_pq", "cos_pq", "tan_pq"),
    "means": ("mean_kp", "ordering"),
}
_NEAR1 = 0.9  # hyp2f1 arguments at or above this take long series


class _Frame:
    __slots__ = ("name", "fn", "child_s", "kids")

    def __init__(self, name: str, fn: str) -> None:
        self.name = name
        self.fn = fn
        self.child_s = 0.0
        self.kids: Counter = Counter()


class Tracer:
    """Span stack and counters; all state lives on the instance."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.evals: Counter = Counter()
        self.near1 = 0
        self.methods: Counter = Counter()
        self.mean_calls = 0  # mean_mp calls that ran some numerics route
        self.mean_series_hits = 0  # ... whose only kernel was hyp2f1
        self.trig_values = 0

    def span(self, name: str, fn, label: str = ""):
        """``fn`` wrapped so that each call is one span called ``name``."""
        stack = self._stack
        counts_evals = name in _COUNTS_EVALS

        def wrapper(*args, **kwargs):
            frame = _Frame(name, label)
            if counts_evals:
                inner = args[0]

                def counted(*a):
                    self.evals[name] += 1
                    return inner(*a)

                args = (counted,) + args[1:]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
                    stack[-1].kids[name] += 1
                self._close(frame, args)
            if name in ("elliptic", "elliptic.K_pq"):
                self.methods[result.method] += 1
            return result

        return wrapper

    def _close(self, frame: _Frame, args: tuple) -> None:
        name = frame.name
        if name == "numerics.hyp2f1" and args[0].arg >= _NEAR1:
            self.near1 += 1
        elif name == "gentrig" and not self._stack:
            self.trig_values += 1  # cos_pq and tan_pq may call a wrapped sin_pq
        if frame.fn == "mean_mp" or name == "means.mean_mp":
            kids = frame.kids
            routes = kids["numerics.hyp2f1"] + kids["numerics.quad"] + kids["elliptic.K_pq"]
            if routes:
                self.mean_calls += 1
                if routes == kids["numerics.hyp2f1"]:
                    self.mean_series_hits += 1

    def public(self, name: str, fn):
        """A public function wrapped as a top-level span of its layer."""
        return self.span(PUBLIC_LAYERS[name], fn, name)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"pqelliptic.{module_name}")
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Replace every binding in KERNEL_BINDINGS; undo with uninstall()."""
        for name, sites in KERNEL_BINDINGS.items():
            for module_name, attr in sites:
                self._replace(module_name, attr, lambda fn, name=name: self.span(name, fn))

    def install_public(self) -> None:
        """Also wrap the public functions in their defining modules.  Done
        before ``pqelliptic.cli`` is imported, this reaches the CLI and the
        suites, which bind these names when they are imported.  ``mean_mp``
        is left to its KERNEL_BINDINGS span."""
        for module_name, attrs in PUBLIC_SITES.items():
            for attr in attrs:
                self._replace(module_name, attr, lambda fn, attr=attr: self.public(attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def snapshot(self) -> dict:
        """Raw counters, to add up across passes or processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "evals": dict(self.evals),
            "near1": self.near1,
            "methods": dict(self.methods),
            "mean_calls": self.mean_calls,
            "mean_series_hits": self.mean_series_hits,
            "trig_values": self.trig_values,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots field by field."""
    out: dict = {}
    for snap in snapshots:
        for key, val in snap.items():
            if isinstance(val, dict):
                acc = out.setdefault(key, Counter())
                acc.update(val)
            else:
                out[key] = out.get(key, 0) + val
    return out


def layer_metrics(snap: dict, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics from a (merged) snapshot, per pass."""
    calls = Counter(snap.get("calls", {}))
    self_s = Counter(snap.get("self_s", {}))
    evals = Counter(snap.get("evals", {}))
    methods = Counter(snap.get("methods", {}))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "numerics.hyp2f1.calls": calls["numerics.hyp2f1"] / passes,
        "numerics.hyp2f1.self_s": self_s["numerics.hyp2f1"] / passes,
        "numerics.hyp2f1.near1_frac": ratio(snap.get("near1", 0), calls["numerics.hyp2f1"]),
        "numerics.quad.calls": calls["numerics.quad"] / passes,
        "numerics.quad.self_s": self_s["numerics.quad"] / passes,
        "numerics.quad.evals_per_call": ratio(evals["numerics.quad"], calls["numerics.quad"]),
        "numerics.invert.calls": calls["numerics.invert"] / passes,
        "numerics.invert.self_s": self_s["numerics.invert"] / passes,
        "numerics.invert.evals_per_call": ratio(evals["numerics.invert"], calls["numerics.invert"]),
        "gentrig.arcsin_pq.calls_per_value": ratio(
            calls["gentrig.arcsin_pq"], snap.get("trig_values", 0)
        ),
        "gentrig.self_s": (self_s["gentrig"] + self_s["gentrig.arcsin_pq"]) / passes,
        "elliptic.calls.series": methods["series"] / passes,
        "elliptic.calls.quadrature": methods["quadrature"] / passes,
        "elliptic.self_s": (self_s["elliptic"] + self_s["elliptic.K_pq"]) / passes,
        "means.series_hit_ratio": ratio(snap.get("mean_series_hits", 0), snap.get("mean_calls", 0)),
        "means.self_s": (self_s["means"] + self_s["means.mean_mp"]) / passes,
        "means.elliptic_calls": calls["elliptic.K_pq"] / passes,
    }
