"""Span tracer that times calls into qpspec's public functions from outside.

Each traced function is replaced by a timing wrapper wherever callers look it
up: in its defining module and in every qpspec module that imported the name
(``qpspec.cli.build_series`` is bound separately from
``qpspec.series.build_series``).  Leaving the ``with`` block puts every
original object back.  Spans are kept in memory and written out by the caller
when the run ends.

The parent of a span is the innermost traced call open when it started.  That
is right as long as traced functions are only entered from one thread, which
holds for qpspec: its worker threads run untraced helpers only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "qpspec"
LAYERS = ("cli", "symbols", "grids", "operators", "series", "spectra")


# (layer, function, counters): counters map a count name to a function of the
# call's bound arguments and its result, evaluated after the span has closed;
# a layer sums each counter over its spans, or takes the maximum for ``max_*``
TARGETS = (
    ("cli", "main", {}),
    ("symbols", "cluster_set", {}),
    ("symbols", "closure_image", {}),
    ("grids", "bochner_matrix", {}),
    ("operators", "toeplitz_halfplane", {}),
    ("operators", "toeplitz_separable", {}),
    ("operators", "dilation", {}),
    ("series", "plan_for_map", {}),
    ("series", "build_series", {"max_dim": lambda b, r: r.entries.shape[0]}),
    ("series", "series_direct_residual", {}),
    ("series", "direct_composition_apply", {}),
    ("spectra", "pseudospectrum",
     {"lambda_points": lambda b, r: int(b["resolution"][0]) * int(b["resolution"][1])}),
    ("spectra", "essential_spectrum_surrogate",
     {"surrogate_points": lambda b, r: int(r.points.points.size)}),
    ("spectra", "predicted_set", {}),
    ("spectra", "containment_verdict", {}),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def package_modules() -> list:
    """(name, module) for every loaded qpspec module."""
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that wraps the TARGETS while it is open."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for _, m in package_modules()]
        try:
            for layer, fname, counters in TARGETS:
                orig = getattr(sys.modules[f"{PACKAGE}.{layer}"], fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig, counters)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def _wrap(self, name, fn, counters):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = Span(sid, name, start, end, parent, self.run)
                self.spans.append(span)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = {k: get(bound.arguments, result) for k, get in counters.items()}
            return result

        wrapper.__bench_original__ = fn
        return wrapper


def wrapped_sites() -> list[str]:
    """Names under which a tracer wrapper is still reachable in qpspec."""
    return [f"{n}.{attr}" for n, mod in package_modules()
            for attr, val in vars(mod).items() if hasattr(val, "__bench_original__")]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function inclusive time and call count, per-layer self time and
    aggregated counters, named ``<layer>.<function>_s`` / ``_calls``,
    ``<layer>.self_s`` and ``<layer>.<counter>``.

    Inclusive time counts only the outermost span of a function, so a
    function nested in itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}

    def nested_in_same(s):
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return True
            p = by_id[p].parent
        return False

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, fname, counters in TARGETS:
        m[f"{layer}.{fname}_s"] = 0.0
        m[f"{layer}.{fname}_calls"] = 0
        for k in counters:
            m[f"{layer}.{k}"] = 0
    selfs = self_times(spans)
    for s in spans:
        m[f"{s.layer}.self_s"] += selfs[s.id]
        m[f"{s.name}_calls"] += 1
        if not nested_in_same(s):
            m[f"{s.name}_s"] += s.end - s.start
        for k, v in s.counts.items():
            key = f"{s.layer}.{k}"
            m[key] = max(m[key], v) if k.startswith("max_") else m[key] + v
    points = m["spectra.lambda_points"]
    m["spectra.ms_per_lambda"] = 1e3 * m["spectra.pseudospectrum_s"] / points if points else 0.0
    return m
