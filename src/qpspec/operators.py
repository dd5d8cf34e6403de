"""Matrix-backed operators on the discretized Hardy spaces.

Toeplitz operators (disc and half-plane flavours), diagonal Fourier
multipliers, dilations, Kronecker products, and the weight-adjusted operator
norm.  Half-plane Toeplitz operators live in the frequency representation,
where they are Wiener-Hopf matrices ``hhat(t_j - t_k) * weight_k + c *
delta_jk`` for the symbol split ``phi = c + h`` with ``c`` the value at
infinity; two-variable symbols are handled through their separable
sum-of-products decomposition as Kronecker sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .grids import (
    BoundaryGrid,
    FrequencyGrid,
    GridError,
    GridLike,
    grid_size,
    grid_weights,
    tensor_nodes,
)
from .symbols import SepExpr, SymbolError

BOUNDARY_EVAL_HEIGHT = 1e-8

# internal boundary rule backing half-plane Toeplitz quadrature
_TOEPLITZ_EXTENT = 800.0
_TOEPLITZ_NODES = 16384
_INFINITY_PROBE = 1e8


@dataclass
class OperatorMatrix:
    """Dense operator between discretized Hardy spaces."""

    entries: np.ndarray
    domain_grid: GridLike
    codomain_grid: GridLike
    rep: str
    meta: dict = field(default_factory=dict)
    # per-axis factors (F1, F2) on the two axes of tensor grids, with entries
    # equal to kron(F1, F2) up to rounding; None when no such split is known
    factors: Optional[tuple] = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2:
            raise GridError("operator entries must be a matrix")
        if self.entries.shape != (grid_size(self.codomain_grid), grid_size(self.domain_grid)):
            raise GridError(
                f"entry shape {self.entries.shape} does not match grids "
                f"({grid_size(self.codomain_grid)}, {grid_size(self.domain_grid)})"
            )

    @property
    def shape(self):
        return self.entries.shape

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(values, dtype=complex)

    def is_diagonal(self) -> bool:
        if self.entries.shape[0] != self.entries.shape[1]:
            return False
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.max(np.abs(off))) <= 0.0


def identity_like(grid: GridLike, rep: str) -> OperatorMatrix:
    n = grid_size(grid)
    return OperatorMatrix(np.eye(n, dtype=complex), grid, grid, rep)


def weighted_matrix(A: OperatorMatrix) -> np.ndarray:
    """The similarity W_c^(1/2) A W_d^(-1/2), which represents A on the
    quadrature-weighted L^2 spaces of its grids."""
    wd = grid_weights(A.domain_grid)
    wc = grid_weights(A.codomain_grid)
    return (np.sqrt(wc)[:, None] * A.entries) / np.sqrt(wd)[None, :]


def op_norm(A: OperatorMatrix) -> float:
    """Largest singular value of the weighted similarity: the matrix 2-norm
    that approximates the continuum L^2 -> L^2 operator norm."""
    return float(np.linalg.norm(weighted_matrix(A), 2))


def kron(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Kronecker (tensor) product with the row-major flattening convention."""
    if A.rep != B.rep:
        raise GridError("kron requires matching representations")

    def combine(ga, gb):
        ta = ga if isinstance(ga, tuple) else (ga,)
        tb = gb if isinstance(gb, tuple) else (gb,)
        return ta + tb

    return OperatorMatrix(
        np.kron(A.entries, B.entries),
        combine(A.domain_grid, B.domain_grid),
        combine(A.codomain_grid, B.codomain_grid),
        A.rep,
    )


def embed_one_variable(A: OperatorMatrix, axis: int, other_grid: GridLike) -> OperatorMatrix:
    """Lift a one-variable operator to the tensor space: A (x) I or I (x) A."""
    if isinstance(A.domain_grid, tuple):
        raise GridError("embed_one_variable expects a one-variable operator")
    eye = identity_like(other_grid, A.rep)
    if axis == 1:
        return kron(A, eye)
    if axis == 2:
        return kron(eye, A)
    raise GridError("axis must be 1 or 2")


# ---------------------------------------------------------------------------
# Toeplitz operators


def toeplitz_disc(samples: np.ndarray, size: int) -> OperatorMatrix:
    """Finite section of a disc Toeplitz operator from circle samples.

    entries[j][k] = phihat(j - k), Fourier coefficients by FFT of the
    samples; the circle grid must oversample (>= 4 * size nodes).
    """
    samples = np.asarray(samples, dtype=complex)
    L = samples.size
    if L < 4 * size:
        raise GridError(f"need >= {4 * size} circle samples for size {size}, got {L}")
    coeffs = np.fft.fft(samples) / L  # coeffs[m] = phihat(m), m mod L
    idx = np.subtract.outer(np.arange(size), np.arange(size)) % L
    entries = coeffs[idx]
    basis = _TaylorWindow(size)
    return OperatorMatrix(entries, basis, basis, "disc-taylor")


@dataclass(frozen=True)
class _TaylorWindow:
    """Size-N monomial window used as domain tag for disc finite sections."""

    n: int

    @property
    def size(self) -> int:
        return self.n

    @property
    def weights(self) -> np.ndarray:
        # monomials are orthogonal with constant weight 2*pi on the circle
        return np.full(self.n, 2.0 * np.pi)


def _default_boundary_rule() -> BoundaryGrid:
    return BoundaryGrid.uniform(_TOEPLITZ_EXTENT, _TOEPLITZ_NODES)


def symbol_limit_at_infinity(fn: Callable, tol: float = 1e-6) -> complex:
    """Value of a boundary symbol at the point at infinity."""
    up = complex(np.asarray(fn(np.array([_INFINITY_PROBE + 1j * BOUNDARY_EVAL_HEIGHT]))).reshape(-1)[0])
    dn = complex(np.asarray(fn(np.array([-_INFINITY_PROBE + 1j * BOUNDARY_EVAL_HEIGHT]))).reshape(-1)[0])
    if abs(up - dn) > tol * (1.0 + abs(up)):
        raise SymbolError(
            f"symbol has different limits at +/- infinity ({up:.6g} vs {dn:.6g}); "
            "not constant-plus-decaying"
        )
    return (up + dn) / 2.0


def toeplitz_halfplane(
    symbol: Callable,
    fgrid: FrequencyGrid,
    brule: Optional[BoundaryGrid] = None,
) -> OperatorMatrix:
    """One-variable Wiener-Hopf finite section in the frequency picture.

    ``symbol`` is a callable of the complex boundary variable; it must be
    constant-plus-decaying along R.  entries[j][k] = hhat(t_j - t_k) * v_k +
    c * delta_jk with hhat(s) = (2 pi)^-1 int h(x) exp(-i s x) dx.
    """
    brule = brule or _default_boundary_rule()
    c = symbol_limit_at_infinity(symbol)
    x = brule.nodes + 1j * BOUNDARY_EVAL_HEIGHT
    h = np.asarray(symbol(x), dtype=complex) - c
    tail = max(abs(h[0]), abs(h[-1]))
    if tail > 1e-2 * (1.0 + abs(c)):
        raise SymbolError("symbol does not decay to its limit within the rule extent")
    t = fgrid.nodes
    diffs = np.subtract.outer(t, t)
    svals, inv = np.unique(np.round(diffs, 12), return_inverse=True)
    phase = np.exp(-1j * np.outer(svals, brule.nodes))
    hhat = (phase @ (h * brule.weights)) / (2.0 * np.pi)
    entries = hhat[inv].reshape(t.size, t.size) * fgrid.weights[None, :]
    entries += c * np.eye(t.size)
    return OperatorMatrix(entries, fgrid, fgrid, "frequency", {"limit": c})


def toeplitz_separable(
    expr: SepExpr,
    fgrids: tuple,
    brule: Optional[BoundaryGrid] = None,
) -> OperatorMatrix:
    """Two-variable Toeplitz operator from a separable sum-of-products symbol.

    Multiplication by f(x1) g(x2) tensor-factorizes, and so does the Riesz
    projection, so T_{sum f_j g_j} = sum T_{f_j} (x) T_{g_j}.
    """
    g1, g2 = fgrids
    n = g1.size * g2.size
    total = np.zeros((n, n), dtype=complex)
    for term in expr.terms:
        if term.f1 is None:
            A = np.eye(g1.size, dtype=complex)
        else:
            A = toeplitz_halfplane(term.f1, g1, brule).entries
        if term.f2 is None:
            B = np.eye(g2.size, dtype=complex)
        else:
            B = toeplitz_halfplane(term.f2, g2, brule).entries
        total += term.coeff * np.kron(A, B)
    return OperatorMatrix(total, fgrids, fgrids, "frequency")


# ---------------------------------------------------------------------------
# Fourier multipliers and dilations


def fourier_multiplier(fn: Callable, grid: GridLike) -> OperatorMatrix:
    """Diagonal multiplier diag(theta(t_k)) on a frequency grid (1- or 2-D)."""
    if isinstance(grid, tuple):
        diag = np.asarray(fn(*tensor_nodes(grid)), dtype=complex)
    else:
        diag = np.asarray(fn(grid.nodes), dtype=complex)
    if not np.all(np.isfinite(diag)):
        raise SymbolError("multiplier function is unbounded on the grid")
    return OperatorMatrix(np.diag(diag), grid, grid, "frequency")


def dilation_1d(p: float, fgrid: FrequencyGrid, max_stretch: float = 16.0) -> np.ndarray:
    """Frequency-side matrix of (V_p f)(z) = f(p z): g(t) -> g(t / p) / p.

    Follows from the transform convention: f(p.)^hat(t) = f_hat(t/p)/p.
    Samples beyond the grid extent are taken as zero (Hardy frequency
    profiles decay); cubic-spline interpolation in between.
    """
    if p <= 0:
        raise GridError("dilation parameter must be positive")
    if p > max_stretch or 1.0 / p > max_stretch:
        raise GridError(
            f"dilation p = {p} stretches frequencies beyond {max_stretch} times "
            "the grid extent"
        )
    t = fgrid.nodes
    targets = t / p
    # column k interpolates the k-th unit vector
    V = CubicSpline(t, np.eye(t.size), bc_type="not-a-knot")(targets)
    V[targets > fgrid.extent] = 0.0
    return V / p


def dilation(p1: float, p2: float, fgrids) -> OperatorMatrix:
    """Tensor dilation V_{p1,p2} in the frequency representation."""
    if isinstance(fgrids, tuple):
        g1, g2 = fgrids
        if p1 == 1.0:
            V1 = np.eye(g1.size)
        else:
            V1 = dilation_1d(p1, g1)
        if p2 == 1.0:
            V2 = np.eye(g2.size)
        else:
            V2 = dilation_1d(p2, g2)
        return OperatorMatrix(
            np.kron(V1, V2), fgrids, fgrids, "frequency", factors=(V1, V2)
        )
    V = np.eye(fgrids.size) if p1 == 1.0 else dilation_1d(p1, fgrids)
    return OperatorMatrix(V, fgrids, fgrids, "frequency")
