"""Discretized Hardy spaces of the upper half-plane and its square.

Quadrature grids for the boundary line and the frequency half-line, the
Cayley transform behind the symbol language's ``cay``, and the frequency
(Paley-Wiener) transform matrix.

Conventions fixed here and used everywhere else:

* boundary pairing is the plain Lebesgue one, ``<f,g> = int f conj(g) dx``;
* the reproducing kernel of the half-plane is
  ``k_w(z) = 1 / (2*pi*1j * (conj(w) - z))`` so that ``<f, k_w> = f(w)``
  holds exactly (two-variable kernels are products of one-variable
  factors); its quadrature form, the pairing with k_w on a boundary grid,
  is the row ``weights / (2*pi*1j * (nodes - w))``;
* the frequency transform is the unitary ``(Ff)(t) = (2*pi)**-0.5 *
  int f(x) exp(-i x t) dx``, which sends the Hardy class onto functions
  supported on ``t >= 0``;
* two-dimensional vectors are stored row-major over the tensor grid,
  ``index = k1 * M2 + k2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

SQRT2PI = np.sqrt(2.0 * np.pi)

# height used when sampling analytic functions "on" the boundary
BOUNDARY_HEIGHT = 1e-8

# largest block of streamed tensor-product work (phase blocks, cross-check
# images, block inverses, distances): a freed block of this
# size sets glibc's mmap and trim thresholds, and cli.CSV_CHUNK keeps a
# chunk's temporaries below them (README, "Sizes measured")
BLOCK_BYTES = 1 << 20


class GridError(ValueError):
    """Invalid grid construction or grid/vector mismatch."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def cayley(z):
    """Map the upper half-plane onto the unit disc, z -> (z-i)/(z+i)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z + 1j) == 0.0):
        raise DomainError("cayley has a pole at z = -i")
    return (z - 1j) / (z + 1j)


@dataclass(frozen=True)
class BoundaryGrid:
    """Quadrature rule for the real line truncated to [-extent, extent]."""

    nodes: np.ndarray
    weights: np.ndarray
    extent: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridError("boundary grid needs at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise GridError("boundary nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise GridError("boundary weights must be positive")
        if not np.allclose(nodes, -nodes[::-1], atol=1e-9 * (1 + self.extent)):
            raise GridError("boundary grid must be symmetric about 0")

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, extent: float, n: int) -> "BoundaryGrid":
        """Uniform trapezoid rule on [-extent, extent] with n nodes."""
        x = np.linspace(-extent, extent, n)
        dx = x[1] - x[0]
        w = np.full(n, dx)
        w[0] = w[-1] = dx / 2.0
        return cls(x, w, float(extent))

    @classmethod
    def rational(cls, n: int, scale: float = 1.0) -> "BoundaryGrid":
        """Tan-substituted midpoint rule covering essentially all of R.

        x = scale*tan(theta) with theta at midpoints of a uniform partition of
        (-pi/2, pi/2).  For rational integrands decaying like 1/x^2 the rule
        converges spectrally; used where plain truncated trapezoid cannot
        reach the tight kernel/pairing tolerances.
        """
        theta = -np.pi / 2 + (np.arange(n) + 0.5) * np.pi / n
        x = scale * np.tan(theta)
        w = scale * (np.pi / n) / np.cos(theta) ** 2
        return cls(x, w, float(np.max(np.abs(x))))


@dataclass(frozen=True)
class FrequencyGrid:
    """Quadrature rule for the dual cone [0, extent]."""

    nodes: np.ndarray
    weights: np.ndarray
    extent: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if np.any(nodes < 0):
            raise GridError("frequency nodes must be nonnegative")
        # compared, not differenced: ONE_NODE is made at import, and a float
        # subtraction there moved the heap layout of every later build
        # (build_catalog passes took 0.15 s and 0.5 MB of peak RSS more)
        if np.any(nodes[1:] <= nodes[:-1]):
            raise GridError("frequency nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise GridError("frequency weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, extent: float, n: int) -> "FrequencyGrid":
        t = np.linspace(0.0, extent, n)
        dt = t[1] - t[0]
        w = np.full(n, dt)
        w[0] = w[-1] = dt / 2.0
        return cls(t, w, float(extent))


# the frequency grid of one node with weight 1: a one-variable operator M on
# a grid g is the Kronecker pair ([[1]], M) on (ONE_NODE, g)
ONE_NODE = FrequencyGrid(np.zeros(1), np.ones(1), 0.0)

Grid = Union[BoundaryGrid, FrequencyGrid]
GridLike = Union[Grid, tuple]


def grid_weights(grid: GridLike) -> np.ndarray:
    """Quadrature weights, kron-combined row-major for a pair of grids."""
    if isinstance(grid, tuple):
        return np.kron(*(g.weights for g in grid))
    return np.asarray(grid.weights, dtype=float)


def bochner_matrix(bgrid: BoundaryGrid, fgrid: FrequencyGrid) -> np.ndarray:
    """Forward frequency-transform matrix, shape (K, M)."""
    t = fgrid.nodes[:, None]
    x = bgrid.nodes[None, :]
    return np.exp(-1j * x * t) * (bgrid.weights[None, :] / SQRT2PI)
