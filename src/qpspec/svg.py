"""Static SVG emission for spiral sets and pseudospectrum overlays.

Hand-rolled writer: figures are a unit-disc viewport with polyline paths
for parameter sweeps and square/circle glyphs for point clouds.  No
dependency on a plotting stack; output is diff-able text.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

VIEW = 480
PAD = 1.25  # complex plane half-width mapped onto the viewport

PATH_COLORS = ("#1f6fb2", "#b2421f", "#3a8f3a", "#7a3ab2", "#b28f1f")

# glyphs formatted per write of a streamed figure
GLYPH_CHUNK = 8192


def _xy(z: complex) -> tuple[float, float]:
    return (
        (z.real + PAD) / (2 * PAD) * VIEW,
        (PAD - z.imag) / (2 * PAD) * VIEW,
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def polyline(points: np.ndarray, color: str, width: float = 1.0) -> str:
    coords = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (_xy(z) for z in points)
    )
    return (
        f'<polyline fill="none" stroke="{color}" '
        f'stroke-width="{width}" points="{coords}"/>'
    )


def scatter(points: np.ndarray, color: str, r: float = 1.6, shape: str = "circle") -> Iterator[str]:
    """One circle or square glyph per point, in order."""
    for z in points.tolist():
        x, y = _xy(z)
        if shape == "circle":
            yield f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>'
        else:
            h = r
            yield (
                f'<rect x="{_fmt(x - h)}" y="{_fmt(y - h)}" width="{_fmt(2 * h)}" '
                f'height="{_fmt(2 * h)}" fill="{color}"/>'
            )


def unit_circle_guide() -> str:
    x, y = _xy(0j)
    r = VIEW / (2 * PAD)
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="none" '
        'stroke="#999999" stroke-width="0.8" stroke-dasharray="4 3" '
        'class="unit-circle-guide"/>'
    )


def _head(title: str) -> str:
    head = f"<title>{title}</title>\n" if title else ""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
        f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">\n{head}'
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>\n'
    )


_TAIL = "\n</svg>\n"


def document(elements: list[str], title: str = "") -> str:
    return _head(title) + "\n".join(elements) + _TAIL


def spiral_figure(paths: list[np.ndarray], title: str = "predicted spiral set") -> str:
    """Unit-circle guide plus one polyline path per cluster pair."""
    els = [unit_circle_guide()]
    for k, p in enumerate(paths):
        els.append(polyline(p, PATH_COLORS[k % len(PATH_COLORS)], 1.0))
    return document(els, title)


def _write_glyphs(f: TextIO, glyphs: Iterator[str]) -> None:
    while chunk := "".join(islice(glyphs, GLYPH_CHUNK)):
        f.write(chunk)


def overlay_figure(
    path: Path,
    level_sets: list[tuple[float, np.ndarray]],
    predicted: np.ndarray,
    title: str = "predicted set over pseudospectrum levels",
) -> None:
    """Write the pseudospectrum level points as squares under the predicted
    cloud to ``path``, GLYPH_CHUNK glyphs at a time, so the document is
    never held whole as text."""
    shades = ("#c9dcef", "#9fc2e3", "#6ea3d4")
    with open(path, "w") as f:
        f.write(_head(title) + unit_circle_guide())
        for k, (eps, pts) in enumerate(level_sets):
            f.write(f"\n<!-- level eps={eps:g}: {pts.size} points -->\n")
            _write_glyphs(f, scatter(pts, shades[k % len(shades)], 2.2, "rect"))
        f.write("\n")
        _write_glyphs(f, scatter(predicted, "#b2421f", 1.2, "circle"))
        f.write(_TAIL)
