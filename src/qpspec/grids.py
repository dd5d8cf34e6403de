"""Discretized Hardy spaces of the half-plane and disc.

Quadrature grids for the boundary line and the frequency half-line, the
Cayley transform between half-plane and disc, the weighted isometry between
the two Hardy spaces, reproducing kernels, and the frequency (Paley-Wiener)
representation.

Conventions fixed here and used everywhere else:

* boundary pairing is the plain Lebesgue one, ``<f,g> = int f conj(g) dx``;
* the reproducing kernel of the half-plane is
  ``k_w(z) = 1 / (2*pi*1j * (conj(w) - z))`` so that ``<f, k_w> = f(w)``
  holds exactly (two-variable kernels are products of one-variable factors);
* the frequency transform is the unitary ``(Ff)(t) = (2*pi)**-0.5 *
  int f(x) exp(-i x t) dx``, which sends the Hardy class onto functions
  supported on ``t >= 0``;
* two-dimensional vectors are stored row-major over the tensor grid,
  ``index = k1 * M2 + k2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

SQRT2PI = np.sqrt(2.0 * np.pi)

# height used when sampling analytic functions "on" the boundary
BOUNDARY_HEIGHT = 1e-8


class GridError(ValueError):
    """Invalid grid construction or grid/vector mismatch."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the requested function."""


def cayley(z):
    """Map the upper half-plane onto the unit disc, z -> (z-i)/(z+i)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z + 1j) == 0.0):
        raise DomainError("cayley has a pole at z = -i")
    return (z - 1j) / (z + 1j)


def cayley_inv(w):
    """Inverse Cayley transform, w -> i(1+w)/(1-w)."""
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w - 1.0) == 0.0):
        raise DomainError("cayley_inv has a pole at w = 1")
    return 1j * (1.0 + w) / (1.0 - w)


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
        if np.any(np.diff(nodes) <= 0):
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


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid on the unit circle, theta_j = 2 pi j / n."""

    n: int

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 2.0 * np.pi / self.n)

    @property
    def size(self) -> int:
        return self.n


Grid = Union[BoundaryGrid, FrequencyGrid, CircleGrid]
GridLike = Union[Grid, tuple]


def grid_size(grid: GridLike) -> int:
    if isinstance(grid, tuple):
        out = 1
        for g in grid:
            out *= grid_size(g)
        return out
    return grid.size


def grid_weights(grid: GridLike) -> np.ndarray:
    """Quadrature weights, kron-combined row-major for tensor grids."""
    if isinstance(grid, tuple):
        w = np.array([1.0])
        for g in grid:
            w = np.kron(w, grid_weights(g))
        return w
    return np.asarray(grid.weights, dtype=float)


def tensor_nodes(grids: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs (t1, t2) of a two-axis grid, flattened row-major."""
    g1, g2 = grids
    return np.repeat(g1.nodes, g2.size), np.tile(g2.nodes, g1.size)


@dataclass
class HardyVector:
    """Sampled element of a discretized Hardy space.

    rep is one of 'boundary', 'frequency', 'disc-taylor'; for tensor grids the
    values are stored flattened row-major (index = k1 * M2 + k2).
    """

    values: np.ndarray
    rep: str
    grid: GridLike

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.rep not in ("boundary", "frequency", "disc-taylor", "disc-boundary"):
            raise GridError(f"unknown representation {self.rep!r}")
        if self.values.size != grid_size(self.grid):
            raise GridError("value length does not match grid size")
        _check_rep_grid(self.rep, self.grid)

    def copy(self) -> "HardyVector":
        return HardyVector(self.values.copy(), self.rep, self.grid)


def _check_rep_grid(rep: str, grid: GridLike) -> None:
    if isinstance(grid, tuple):
        for g in grid:
            _check_rep_grid(rep, g)
        return
    ok = {
        "boundary": BoundaryGrid,
        "frequency": FrequencyGrid,
        "disc-boundary": CircleGrid,
        "disc-taylor": TaylorBasis,
    }
    if not isinstance(grid, ok[rep]):
        raise GridError(f"rep {rep!r} inconsistent with grid type {type(grid).__name__}")


@dataclass(frozen=True)
class TaylorBasis:
    """Monomial basis z^0 .. z^(degree) for one disc factor."""

    degree: int

    @property
    def size(self) -> int:
        return self.degree + 1

    @property
    def weights(self) -> np.ndarray:
        # the monomials are orthogonal on the circle, each of norm^2 2*pi
        return np.full(self.size, 2.0 * np.pi)


def inner_product(f: HardyVector, g: HardyVector) -> complex:
    """Pairing <f, g>, conjugate-linear in the second slot.

    Every rep uses its grid weights: the quadrature for boundary and
    frequency grids, the 2*pi-per-axis circle pairing for Taylor
    coefficients (so <z^n, z^n> = 2*pi per factor).
    """
    if f.rep != g.rep or not _same_grid(f.grid, g.grid):
        raise GridError("inner_product requires matching rep and grid")
    w = grid_weights(f.grid)
    return complex(np.sum(w * f.values * np.conj(g.values)))


def norm(f: HardyVector) -> float:
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def _same_grid(a: GridLike, b: GridLike) -> bool:
    if isinstance(a, tuple) != isinstance(b, tuple):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_grid(x, y) for x, y in zip(a, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, CircleGrid):
        return a.n == b.n
    if isinstance(a, TaylorBasis):
        return a.degree == b.degree
    return a.nodes.size == b.nodes.size and np.array_equal(a.nodes, b.nodes)


def reproducing_kernel(w, grid: GridLike) -> HardyVector:
    """Boundary samples of k_w; one- or two-variable per the grid argument.

    k_w(z) = prod_j 1 / (2*pi*1j * (conj(w_j) - z_j)); then <f, k_w> = f(w)
    for Hardy vectors resolved by the grid.
    """
    ws = np.atleast_1d(np.asarray(w, dtype=complex))
    grids = grid if isinstance(grid, tuple) else (grid,)
    if ws.size != len(grids):
        raise GridError("kernel point and grid dimension mismatch")
    if np.any(ws.imag <= 0):
        raise DomainError("reproducing kernel requires Im(w) > 0")
    factors = [
        1.0 / (2.0j * np.pi * (np.conj(wj) - g.nodes)) for wj, g in zip(ws, grids)
    ]
    vals = factors[0]
    for fac in factors[1:]:
        vals = np.kron(vals, fac)
    return HardyVector(vals, "boundary", grid)


def kernel_value(w, z) -> complex:
    """Pointwise k_w(z) for one or two variables."""
    ws = np.atleast_1d(np.asarray(w, dtype=complex))
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = 1.0 + 0.0j
    for wj, zj in zip(ws, zs):
        out *= 1.0 / (2.0j * np.pi * (np.conj(wj) - zj))
    return complex(out)


# The isometry onto the half-plane changes norms by a fixed factor of 1/2 per
# axis (the circle pairing used here carries no 1/(2 pi)); c below is that
# constant for the two-variable map.
PHI_NORM_CONSTANT = 0.25


def phi_isometry(f, grids: tuple, check_resolution: bool = True) -> HardyVector:
    """Transport a bidisc Hardy function to half-plane boundary samples.

    (Phi f)(z1, z2) = f(cayley(z1), cayley(z2)) / ((z1 + i)(z2 + i)).
    ``f`` is a callable on the bidisc or a disc-taylor HardyVector; the result
    satisfies ||Phi f|| = PHI_NORM_CONSTANT * ||f||.
    """
    if isinstance(f, HardyVector):
        if f.rep != "disc-taylor":
            raise GridError("phi_isometry wants a callable or a disc-taylor vector")
        coeffs = f.values.reshape([g.size for g in f.grid]) if isinstance(
            f.grid, tuple
        ) else f.values
        fn = _taylor_evaluator(coeffs)
    else:
        fn = f
    g1, g2 = grids
    z1 = g1.nodes + 1j * BOUNDARY_HEIGHT
    z2 = g2.nodes + 1j * BOUNDARY_HEIGHT
    w1 = cayley(z1)
    w2 = cayley(z2)
    vals = fn(w1[:, None], w2[None, :]) / ((z1[:, None] + 1j) * (z2[None, :] + 1j))
    vals = np.asarray(vals, dtype=complex).reshape(g1.size * g2.size)
    out = HardyVector(vals, "boundary", (g1, g2))
    if check_resolution:
        _resolution_check(vals.reshape(g1.size, g2.size))
    return out


def _taylor_evaluator(coeffs: np.ndarray) -> Callable:
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))

    def fn(w1, w2):
        out = np.zeros(np.broadcast(w1, w2).shape, dtype=complex)
        for a in range(coeffs.shape[0]):
            for b in range(coeffs.shape[1]):
                if coeffs[a, b] != 0:
                    out = out + coeffs[a, b] * w1**a * w2**b
        return out

    return fn


def _resolution_check(vals2d: np.ndarray) -> None:
    peak = np.max(np.abs(vals2d))
    if peak == 0:
        return
    jump = max(
        np.max(np.abs(np.diff(vals2d, axis=0))) if vals2d.shape[0] > 1 else 0.0,
        np.max(np.abs(np.diff(vals2d, axis=1))) if vals2d.shape[1] > 1 else 0.0,
    )
    if jump > 0.5 * peak:
        raise ResolutionError(
            "boundary grid too coarse: adjacent samples jump by "
            f"{jump / peak:.2f} of the peak value"
        )


def bochner_matrix(bgrid: BoundaryGrid, fgrid: FrequencyGrid) -> np.ndarray:
    """Forward frequency-transform matrix, shape (K, M)."""
    t = fgrid.nodes[:, None]
    x = bgrid.nodes[None, :]
    return np.exp(-1j * x * t) * (bgrid.weights[None, :] / SQRT2PI)


def bochner_inverse_matrix(bgrid: BoundaryGrid, fgrid: FrequencyGrid) -> np.ndarray:
    """Inverse transform matrix, shape (M, K)."""
    t = fgrid.nodes[None, :]
    x = bgrid.nodes[:, None]
    return np.exp(1j * x * t) * (fgrid.weights[None, :] / SQRT2PI)


def _axis_grids(grid: GridLike) -> tuple:
    return grid if isinstance(grid, tuple) else (grid,)


def bochner_transform(
    f: HardyVector,
    fgrid: GridLike,
    leakage_tol: float = 1e-3,
) -> HardyVector:
    """Boundary -> frequency representation.

    Warns (does not fail) when the input carries significant
    negative-frequency mass, i.e. when it is not resolvably of Hardy class.
    """
    if f.rep != "boundary":
        raise GridError("bochner_transform expects a boundary-rep vector")
    bgrids = _axis_grids(f.grid)
    fgrids = _axis_grids(fgrid)
    if len(bgrids) != len(fgrids):
        raise GridError("dimension mismatch between boundary and frequency grids")
    vals = f.values.reshape([g.size for g in bgrids])
    for axis, (bg, fg) in enumerate(zip(bgrids, fgrids)):
        F = bochner_matrix(bg, fg)
        vals = np.moveaxis(np.tensordot(F, vals, axes=([1], [axis])), 0, axis)
    out = HardyVector(vals.reshape(-1), "frequency", fgrid)
    _leakage_check(f, fgrids, out, leakage_tol)
    return out


def _leakage_check(f, fgrids, out, tol):
    # probe a mirrored (negative) frequency grid for stray mass
    neg_mass = 0.0
    bgrids = _axis_grids(f.grid)
    vals = f.values.reshape([g.size for g in bgrids])
    for axis, (bg, fg) in enumerate(zip(bgrids, fgrids)):
        neg = FrequencyGrid(fg.nodes[1:], fg.weights[1:], fg.extent)
        Fneg = np.exp(1j * bg.nodes[None, :] * neg.nodes[:, None]) * (
            bg.weights[None, :] / SQRT2PI
        )
        probe = np.moveaxis(np.tensordot(Fneg, vals, axes=([1], [axis])), 0, axis)
        wn = grid_weights(neg)
        sl = [None] * probe.ndim
        sl[axis] = slice(None)
        neg_mass = max(
            neg_mass,
            float(
                np.sqrt(
                    np.sum(
                        wn.reshape([-1 if k == axis else 1 for k in range(probe.ndim)])
                        * np.abs(probe) ** 2
                    )
                )
            ),
        )
    pos_mass = float(np.sqrt(np.sum(grid_weights(out.grid) * np.abs(out.values) ** 2)))
    if pos_mass > 0 and neg_mass > tol * pos_mass:
        warnings.warn(
            f"input has negative-frequency mass {neg_mass / pos_mass:.2e} relative "
            "to its Hardy part; it may not be of Hardy class at this resolution",
            stacklevel=3,
        )
