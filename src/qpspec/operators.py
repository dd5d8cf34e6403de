"""Matrix-backed operators on the discretized Hardy spaces.

Half-plane Toeplitz operators, diagonal Fourier multipliers, dilations,
and the weight-adjusted operator norm.  The one-axis builders return plain
n x n matrices; an ``OperatorMatrix`` is a whole operator on a pair of
grids, stored as a short sum of Kronecker pairs sum_k kron(A_k, B_k): one
pair for a per-axis operator, and the pair ([[1]], M) on
(``grids.ONE_NODE``, g) for a one-variable matrix M on a grid g.  Toeplitz
operators live in the frequency representation, where they are
Wiener-Hopf matrices ``hhat(t_j - t_k) * weight_k + c * delta_jk`` for the
symbol split ``phi = c + h`` with ``c`` the value at infinity; two-variable
symbols are handled through their separable sum-of-products decomposition
as Kronecker sums.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .grids import (
    BOUNDARY_HEIGHT,
    BoundaryGrid,
    FrequencyGrid,
    GridError,
    GridLike,
    grid_weights,
)
from .symbols import SepExpr, SymbolError, symbol_limit_at_infinity

# largest stretch p or 1/p that a dilation may apply to the frequency grid
MAX_STRETCH = 16.0

# internal boundary rule backing half-plane Toeplitz quadrature
_TOEPLITZ_EXTENT = 800.0
_TOEPLITZ_NODES = 16384
# frequency differences per block of the quadrature's phase matrix, which
# bounds it to _TOEPLITZ_BLOCK x _TOEPLITZ_NODES entries (grids.BLOCK_BYTES);
# blocks of 2 would be two-row products, rounding unlike the plain quadrature
_TOEPLITZ_BLOCK = 4
# the not-a-knot spline of a dilation needs this many frequency nodes
MIN_DILATION_NODES = 4


class OperatorMatrix:
    """Operator on a pair of discretized Hardy spaces ``grid = (g1, g2)``,
    stored as its Kronecker pairs ``terms = ((A1, B1), ...)``, standing for
    sum_k kron(A_k, B_k): one pair for a per-axis operator, and the pair
    ([[1]], M) on (``grids.ONE_NODE``, g) for a one-variable matrix M on a
    grid g.  ``row_blocks()`` reads it a block of rows at a time.
    ``compression_tail`` bounds the weighted 2-norm distance to the operator
    the terms approximate (0.0 when nothing was cut).  ``shape`` comes from
    the grids.
    """

    def __init__(self, grid: tuple, terms: Sequence, compression_tail: float = 0.0):
        if not (isinstance(grid, tuple) and len(grid) == 2 and terms
                and all(len(pair) == 2 for pair in terms)):
            raise GridError("an operator is one or more Kronecker pairs (A, B) on a pair of grids")
        self.grid = grid
        self.shape = (grid[0].size * grid[1].size,) * 2
        self.compression_tail = compression_tail
        self.terms = tuple(tuple(_checked(np.asarray(F), (g.size,) * 2) for F, g in zip(pair, grid))
                           for pair in terms)

    @property
    def entries(self) -> np.ndarray:
        """The full matrix, formed anew from the row blocks on every read
        (one pair's norm and eigenvalues never read it)."""
        out = np.empty(self.shape, dtype=complex)
        height = self.grid[1].size
        for i, block in enumerate(self.row_blocks()):
            out[i * height:(i + 1) * height] = block
        return out

    def row_blocks(self):
        """Yield the rows of the matrix in consecutive blocks: for each row i
        of the first axis the n2 rows sum_k kron(A_k[i], B_k), for one pair
        np.kron itself (exactly that block of kron(A, B)), for several one
        GEMM over the pairs."""
        if len(self.terms) == 1:
            # a one-term GEMM rounds some products unlike np.kron, which
            # would move the bytes of every per-axis operator.csv
            F1, F2 = self.terms[0]
            for i in range(F1.shape[0]):
                yield np.asarray(np.kron(F1[i:i + 1], F2), dtype=complex)
            return
        A = np.stack([A for A, _ in self.terms])
        B = np.stack([B for _, B in self.terms]).reshape(len(self.terms), -1)
        n1, n2 = (g.size for g in self.grid)
        for i in range(n1):
            # entry (j1, j2, l2) of the product is sum_k A_k[i, j1] B_k[j2, l2]
            yield (A[:, i].T @ B).reshape(n1, n2, n2).transpose(1, 0, 2).reshape(n2, n1 * n2)


def _checked(M: np.ndarray, shape: tuple) -> np.ndarray:
    if M.ndim != 2:
        raise GridError("a Kronecker factor must be a matrix")
    if M.shape != shape:
        raise GridError(f"factor shape {M.shape} does not match the grid's {shape}")
    return M


def is_diagonal(M: np.ndarray) -> bool:
    """True when M is square with no nonzero entry off its diagonal."""
    return M.shape[0] == M.shape[1] and not np.any(M - np.diag(np.diag(M)))


def weigh(M: np.ndarray, grid: GridLike) -> np.ndarray:
    """The similarity W^(1/2) M W^(-1/2), W the grid's quadrature weights,
    which represents the matrix M on the quadrature-weighted L^2 space of
    its grid."""
    w = np.sqrt(grid_weights(grid))
    return (w[:, None] * M) / w[None, :]


def weighted_factors(A: OperatorMatrix) -> tuple:
    """Per-axis weighted factors (W1, W2) with kron(W1, W2) the weighted
    similarity (``weigh``) of A's matrix: the grid weights are tensor
    products, so the factors of a one-pair operator are weighed one axis at
    a time (a one-variable M on (ONE_NODE, g) gives ([[1]], weigh(M, g))).
    A sum of several pairs is the pair ([[1]], weigh(M)) of its matrix M,
    so that a Kronecker solve with it takes blocks of rows of M
    (``spectra._kron_solve``), not one row at a time."""
    if len(A.terms) > 1:
        return np.ones((1, 1), dtype=complex), weigh(A.entries, A.grid)
    return tuple(weigh(F, g) for F, g in zip(A.terms[0], A.grid))


def op_norm(A: OperatorMatrix) -> float:
    """Largest singular value of the weighted similarity: the matrix 2-norm
    that approximates the continuum L^2 -> L^2 operator norm.  The norm of
    kron(W1, W2) is the product of the factor norms."""
    W1, W2 = weighted_factors(A)
    return float(np.linalg.norm(W1, 2) * np.linalg.norm(W2, 2))


# ---------------------------------------------------------------------------
# Toeplitz operators


def toeplitz_halfplane(symbol, fgrid: FrequencyGrid):
    """One-variable Wiener-Hopf finite section in the frequency picture.

    ``symbol`` is a callable of the complex boundary variable; it must be
    constant-plus-decaying along R.  T[j][k] = hhat(t_j - t_k) * v_k +
    c * delta_jk with hhat(s) = (2 pi)^-1 int h(x) exp(-i s x) dx, by the
    trapezoid rule on a fixed uniform boundary grid.

    Returns the n x n matrix.  ``symbol`` may also be a tuple of such
    callables: one quadrature pass then applies each block of its phase
    matrix to every symbol's h w, one GEMV per symbol, and returns a tuple
    of matrices, one per symbol, each bit-identical to the matrix of its
    own call.
    """
    symbols = symbol if isinstance(symbol, tuple) else (symbol,)
    rule = BoundaryGrid.uniform(_TOEPLITZ_EXTENT, _TOEPLITZ_NODES)
    x = rule.nodes + 1j * BOUNDARY_HEIGHT
    consts, hws = [], []
    for f in symbols:
        c = symbol_limit_at_infinity(f)
        h = np.asarray(f(x), dtype=complex) - c
        tail = max(abs(h[0]), abs(h[-1]))
        if tail > 1e-2 * (1.0 + abs(c)):
            raise SymbolError("symbol does not decay to its limit within the rule extent")
        consts.append(c)
        hws.append(h * rule.weights)
    t = fgrid.nodes
    diffs = np.subtract.outer(t, t)
    svals, inv = np.unique(np.round(diffs, 12), return_inverse=True)
    hhat = np.empty((len(symbols), svals.size), dtype=complex)
    # t_j - t_k = -(t_k - t_j) exactly and rounding is odd, so svals[-1 - i]
    # = -svals[i] and the row of exp(-i s x) for -s is the conjugate of the
    # row for s: each block takes the exponential of up to half its rows,
    # those of s >= 0, and conjugates them into the rest
    mid = svals.size // 2
    step = _TOEPLITZ_BLOCK // 2
    for lo in range(mid, svals.size, step):
        s = svals[lo:lo + step]
        k = s.size
        phase = np.empty((2 * k, rule.nodes.size), dtype=complex)
        np.multiply(-1j, np.outer(s, rule.nodes), out=phase[:k])
        np.exp(phase[:k], out=phase[:k])
        np.conjugate(phase[:k], out=phase[k:])
        for hw, row in zip(hws, hhat):
            vals = phase @ hw
            # the mirror of index i is 2 mid - i; s = 0 is its own mirror
            row[2 * mid - lo - k + 1:2 * mid - lo + 1] = vals[k:][::-1]
            row[lo:lo + k] = vals[:k]
    if svals.size % _TOEPLITZ_BLOCK == 1:
        # hhat stays bit-identical to the plain quadrature, which takes all
        # of svals _TOEPLITZ_BLOCK rows at a time in order (the tests compare
        # the two); there the largest s is alone in its block, and numpy
        # multiplies a one-row block as a dot product, which rounds
        # differently from a multi-row GEMV
        for hw, row in zip(hws, hhat):
            row[-1] = phase[k - 1] @ hw
    hhat /= 2.0 * np.pi
    mats = []
    for c, row in zip(consts, hhat):
        T = row[inv].reshape(t.size, t.size) * fgrid.weights[None, :]
        T += c * np.eye(t.size)
        mats.append(T)
    return tuple(mats) if isinstance(symbol, tuple) else mats[0]


def separable_terms(expr, fgrids: tuple):
    """Two-variable Toeplitz operator of a separable sum-of-products symbol
    as its Kronecker terms.

    Multiplication by f(x1) g(x2) tensor-factorizes, and so does the Riesz
    projection, so T_{sum c_j f_j g_j} = sum c_j T_{f_j} (x) T_{g_j}.  Each
    term is (c, A, B) with A the Toeplitz matrix of f on the first grid and
    B that of g on the second, None standing for an identity factor.  The
    constant terms are folded into one leading term (c, None, None).

    ``expr`` may also be a tuple of expressions, which gives a tuple of
    term lists.  Every factor of every expression on one grid object comes
    from one pass of ``toeplitz_halfplane`` (one pass in all when both axes
    are one grid), bit-identical to a pass per factor.
    """
    exprs = expr if isinstance(expr, tuple) else (expr,)
    g1, g2 = fgrids
    factors = {}  # id(grid) -> (grid, {id(f): f})
    for e in exprs:
        for t in e.terms:
            for f, g in ((t.f1, g1), (t.f2, g2)):
                if f is not None:
                    factors.setdefault(id(g), (g, {}))[1][id(f)] = f
    mats = {}
    for g, fs in factors.values():
        for key, T in zip(fs, toeplitz_halfplane(tuple(fs.values()), g)):
            mats[id(g), key] = T
    out = []
    for e in exprs:
        const = [t.coeff for t in e.terms if t.f1 is None and t.f2 is None]
        terms = [(sum(const), None, None)] if const else []
        terms += [(t.coeff, mats.get((id(g1), id(t.f1))), mats.get((id(g2), id(t.f2))))
                  for t in e.terms if t.f1 is not None or t.f2 is not None]
        out.append(terms)
    return tuple(out) if isinstance(expr, tuple) else out[0]


def toeplitz_separable(expr: SepExpr, fgrids: tuple) -> OperatorMatrix:
    """The operator sum c A (x) B of the terms of ``separable_terms``, one
    pair (c A, B) per term, an identity standing for a missing factor."""
    g1, g2 = fgrids
    return OperatorMatrix(fgrids, [(c * (np.eye(g1.size) if A is None else A),
                                    np.eye(g2.size) if B is None else B)
                                   for c, A, B in separable_terms(expr, fgrids)])


# ---------------------------------------------------------------------------
# Fourier multipliers and dilations


def fourier_multiplier(fn: Callable, grid: FrequencyGrid) -> np.ndarray:
    """Diagonal multiplier matrix diag(theta(t_k)) on a one-axis frequency
    grid; a two-axis multiplier is the one-pair ``OperatorMatrix`` of two
    of these."""
    diag = np.asarray(fn(grid.nodes), dtype=complex)
    if not np.all(np.isfinite(diag)):
        raise SymbolError("multiplier function is unbounded on the grid")
    return np.diag(diag)


def _not_a_knot_splines(x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Values at ``targets`` of the not-a-knot cubic splines on the nodes x
    (at least 4) through the unit vectors: column k interpolates e_k.

    Bit-identical to scipy's ``CubicSpline(x, np.eye(n), bc_type="not-a-knot")
    (targets)``, signs of zeros included, because it repeats its arithmetic
    step for step: the banded slope system with both not-a-knot end rows,
    LAPACK ?gtsv (elimination with row interchanges, then back substitution),
    CubicHermiteSpline's coefficients and PPoly's evaluation.
    """
    n = x.size
    y = np.eye(n)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # the slopes s solve a tridiagonal system: sub-diagonal dl, diagonal d,
    # super-diagonal du, right-hand sides b (one column per unit vector)
    d = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.concatenate(([x[2] - x[0]], dx[:-1]))
    dl = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    d[0], d[-1] = dx[1], dx[-2]
    b = np.empty((n, n))
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    h = du[0]
    b[0] = ((dxr[0] + 2 * h) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / h
    h = dl[-1]
    b[-1] = (dxr[-1]**2 * slope[-2] + (2 * h + dxr[-1]) * dxr[-2] * slope[-1]) / h
    # ?gtsv's elimination; after an interchange dl[i] holds the fill-in of
    # the second super-diagonal, otherwise it is 0
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            b[i], b[i + 1] = b[i + 1].copy(), b[i] - fact * b[i + 1]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        # the dl term stays when dl[i] is 0: it decides the sign of zeros
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    s = b  # the solved slopes
    # CubicHermiteSpline's coefficients, highest power first
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = (t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])
    # PPoly's evaluation, extrapolating with the end pieces
    k = np.clip(np.searchsorted(x, targets, side="right") - 1, 0, n - 2)
    u = (targets - x[k])[:, None]
    res = 0.0 + c[3][k]
    res += c[2][k] * u
    res += c[1][k] * (u * u)
    res += c[0][k] * ((u * u) * u)
    return res


def dilation_1d(p: float, fgrid: FrequencyGrid) -> np.ndarray:
    """Frequency-side matrix of (V_p f)(z) = f(p z): g(t) -> g(t / p) / p.

    Follows from the transform convention: f(p.)^hat(t) = f_hat(t/p)/p.
    Samples beyond the grid extent are taken as zero (Hardy frequency
    profiles decay); in between, the not-a-knot cubic spline through the
    samples, bit-identical to scipy's ``CubicSpline`` (needs at least 4
    nodes).
    """
    if p <= 0:
        raise GridError("dilation parameter must be positive")
    if p > MAX_STRETCH or 1.0 / p > MAX_STRETCH:
        raise GridError(
            f"dilation p = {p} stretches frequencies beyond {MAX_STRETCH} times "
            "the grid extent"
        )
    t = fgrid.nodes
    if t.size < MIN_DILATION_NODES:
        raise GridError(
            f"a dilation needs at least {MIN_DILATION_NODES} frequency nodes, got {t.size}"
        )
    targets = t / p
    # column k interpolates the k-th unit vector
    V = _not_a_knot_splines(t, targets)
    V[targets > fgrid.extent] = 0.0
    return V / p


def dilation(p1: float, p2: float, fgrids: tuple) -> tuple:
    """Tensor dilation V_{p1} (x) V_{p2} in the frequency representation,
    as its two factors (V1, V2) (``dilation_1d`` is the one-axis matrix)."""
    return tuple(
        np.eye(g.size) if p == 1.0 else dilation_1d(p, g) for p, g in zip((p1, p2), fgrids)
    )
