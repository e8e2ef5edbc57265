"""In-memory spans around calls into the package, and their self times.

A traced pass rebinds the package's public kernel entry points to
wrappers that record one span per call: layer name, start, end, the
index of the enclosing span, and a work count.  Nothing is written
until the pass ends.  A span's self time is its duration minus the part
of its interval covered by its child spans, so nested calls (a model's
``hamiltonian_batch`` calling ``r_vector_batch``, a sweep calling
``first_thermal_uc``) are never counted twice.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    count: int = 0


class Recorder:
    """Stack of open spans plus the list of every span recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # entry points instrument() could not find
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.count = count
        # Pop idx and anything left open above it by an exception.
        del self._open[self._open.index(idx):]

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, kwargs, result) -> int."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, count(args, kwargs, result) if count and result is not None else 0)

        return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, summed duration, span count, and
    work count.  A span's work count is skipped when its parent has the
    same name and counted work of its own, so a nested call (a model's
    hamiltonian_batch calling r_vector_batch) is not counted as fresh
    work, while the integrals a sweep runs are."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0})
        row["self_s"] += own
        row["total_s"] += s.end - s.start
        row["calls"] += 1
        parent = spans[s.parent] if s.parent >= 0 else None
        if parent is None or parent.name != s.name or not parent.count:
            row["count"] += s.count
    return out


# ---------------------------------------------------------------------------
# Instrumenting the package
# ---------------------------------------------------------------------------


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _eigh_matrices(args, kwargs, result):
    w = result[0]
    return int(w.size // w.shape[-1])


def _grid_points(args, kwargs, result):
    """Points of the GridSpec argument: the points an integral covers."""
    return int(next(a.n_points for a in (*args, *kwargs.values()) if hasattr(a, "n_points")))


# (module, function, span name, work counter or None)
FUNCTIONS = [
    ("linalg", "eigh_batch", "linalg.eigh", _eigh_matrices),
    ("linalg", "hermiticity_defect", "linalg.hermcheck", None),
    ("geometry", "spectral_data_grid", "geometry.tangent", None),
    ("geometry", "thermal_trace_grid", "geometry.trace", None),
    ("geometry", "connection_grid", "geometry.connection", None),
    ("geometry", "uhlmann_curvature_grid", "geometry.stencil", None),
    ("geometry", "ground_block_curvature_grid", "geometry.ground", None),
    ("chern", "first_thermal_uc", "chern.engine", _grid_points),
    ("chern", "second_thermal_uc", "chern.engine", _grid_points),
    ("chern", "second_chern_pure", "chern.engine", _grid_points),
    ("chern", "temperature_sweep", "chern.engine", None),
    ("chern", "pure_chern_fhs", "chern.fhs", _grid_points),
    ("cli", "main", "cli.main", None),
]

# Model methods are wrapped on every model class that defines them.
METHODS = [
    ("hamiltonian_batch", "models.h"),
    ("r_vector_batch", "models.h"),
    ("gradient_batch", "models.dh"),
    ("r_gradient_batch", "models.dh"),
]


def _package_modules(package: str):
    return [m for name, m in sys.modules.items()
            if m is not None and (name == package or name.startswith(package + "."))]


def instrument(recorder: Recorder, package: str = "uhlmann_chern", kernels: bool = True):
    """Rebind the package's entry points to span-recording wrappers.

    Functions are imported by name into several modules, so every
    module attribute bound to the original function is replaced, not
    only the defining one.  With kernels=False only process pools are
    counted.  An entry point the package no longer has is listed in
    recorder.missing and its layer reads 0.  Returns a callable that
    restores every original binding.
    """
    modules = _package_modules(package)
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    undo = []

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    if kernels:
        for mod_name, fn_name, span, counter in FUNCTIONS:
            fn = getattr(by_name[mod_name], fn_name, None)
            if fn is None:
                recorder.missing.append(f"{mod_name}.{fn_name}")
                continue
            rebind(fn, recorder.wrap(span, fn, counter))
        for cls in {v for v in vars(by_name["models"]).values() if isinstance(v, type)}:
            if cls.__module__ != by_name["models"].__name__:
                continue
            for method, span in METHODS:
                if method in vars(cls):
                    undo.append((cls, method, vars(cls)[method]))
                    setattr(cls, method, recorder.wrap(span, vars(cls)[method], _rows))

    base = by_name["chern"].ProcessPoolExecutor

    class CountedPool(base):
        """Process pool whose parent-side lifetime is one chern.pool span."""

        def __init__(self, *args, **kwargs):
            self._span = recorder.begin("chern.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    recorder.end(self._span, 1)
                    self._span = None

    rebind(base, CountedPool)

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore
