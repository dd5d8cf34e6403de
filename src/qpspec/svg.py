"""Static SVG emission for spiral sets and pseudospectrum overlays.

Hand-rolled writer: figures are a unit-disc viewport with polyline paths
for parameter sweeps and square/circle glyphs for point clouds.  No
dependency on a plotting stack; output is diff-able text.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

VIEW = 480
PAD = 1.25  # complex plane half-width mapped onto the viewport

# points formatted per write of a figure
GLYPH_CHUNK = 8192


def _xy(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Viewport coordinates of the complex points ``z``."""
    return (
        (z.real + PAD) / (2 * PAD) * VIEW,
        (PAD - z.imag) / (2 * PAD) * VIEW,
    )


def _chunks(points: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Viewport coordinates of ``points``, GLYPH_CHUNK points at a time."""
    points = np.asarray(points).reshape(-1)
    for lo in range(0, points.size, GLYPH_CHUNK):
        yield _xy(points[lo:lo + GLYPH_CHUNK])


def polyline(points: np.ndarray, color: str) -> Iterator[bytes]:
    """A polyline through ``points``, in pieces of GLYPH_CHUNK points."""
    yield f'<polyline fill="none" stroke="{color}" stroke-width="1.0" points="'.encode()
    for k, (x, y) in enumerate(_chunks(points)):
        coords = " ".join([f"{a:.2f},{b:.2f}" for a, b in zip(x.tolist(), y.tolist())])
        yield (coords if k == 0 else " " + coords).encode()
    yield b'"/>'


def scatter(points: np.ndarray, color: str, r: float, shape: str) -> Iterator[bytes]:
    """One circle or square glyph per point, in order, in pieces of
    GLYPH_CHUNK glyphs."""
    for x, y in _chunks(points):
        if shape == "circle":
            yield "".join([
                f'<circle cx="{a:.2f}" cy="{b:.2f}" r="{r}" fill="{color}"/>'
                for a, b in zip(x.tolist(), y.tolist())
            ]).encode()
        else:
            size = f'width="{2 * r:.2f}" height="{2 * r:.2f}" fill="{color}"/>'
            yield "".join([
                f'<rect x="{a:.2f}" y="{b:.2f}" {size}'
                for a, b in zip((x - r).tolist(), (y - r).tolist())
            ]).encode()


def unit_circle_guide() -> str:
    x, y = _xy(0j)
    r = VIEW / (2 * PAD)
    return (
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="none" '
        'stroke="#999999" stroke-width="0.8" stroke-dasharray="4 3" '
        'class="unit-circle-guide"/>'
    )


def _head(title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
        f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">\n<title>{title}</title>\n'
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>\n'
    )


_TAIL = "\n</svg>\n"


def spiral_figure(path: Path, sweep: np.ndarray) -> None:
    """Write the unit-circle guide plus the polyline of the spiral sweep to
    ``path``, GLYPH_CHUNK points at a time, so the document is never held
    whole as text."""
    with open(path, "wb") as f:
        f.write((_head("predicted spiral set") + unit_circle_guide() + "\n").encode())
        f.writelines(polyline(sweep, "#1f6fb2"))
        f.write(_TAIL.encode())


def overlay_figure(path: Path, eps: float, level: np.ndarray, predicted: np.ndarray) -> None:
    """Write the pseudospectrum level points at ``eps`` as squares under
    the predicted cloud to ``path``, GLYPH_CHUNK glyphs at a time, so the
    document is never held whole as text."""
    with open(path, "wb") as f:
        f.write((_head("predicted set over pseudospectrum levels")
                 + unit_circle_guide()).encode())
        f.write(f"\n<!-- level eps={eps:g}: {level.size} points -->\n".encode())
        f.writelines(scatter(level, "#c9dcef", 2.2, "rect"))
        f.write(b"\n")
        f.writelines(scatter(predicted, "#b2421f", 1.2, "circle"))
        f.write(_TAIL.encode())
