"""Quasi-parabolic composition operators on the Hardy space of the upper
half-plane squared, the model on which the bidisc result is computed.

Two independent constructions of C_phi for maps phi(z1,z2) = (p1 z1 + psi1(z),
p2 z2 + psi2(z)) with bounded analytic psi_j of strictly positive imaginary
part:

* the norm-convergent double series
  ``C_phi = V_{p1,p2} * sum_{n,m} T_{tau1^n} T_{tau2^m} D_{th1,n} D_{th2,m}``
  with tau_j = i*alpha - rescaled psi_j and multipliers
  ``th_{j,n}(t) = (-i t_j)^n exp(-alpha t_j) / n!``, with a certified
  geometric remainder, stored as a short sum of Kronecker pairs
  sum_k kron(A_k, B_k): one pair for a per-axis map, and for any other map
  about 50 pairs kept by recompressing the plain factors, with a certified
  weighted-norm bound of what the recompressions cut; and
* the composition itself, u -> u o phi, on rational Hardy test vectors whose
  images are known in closed form, used for cross-validation.

The shift parameter alpha comes from a minimax fit of i*alpha to the sampled
closure of the symbol image (golden-section over log alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import (
    BLOCK_BYTES,
    BOUNDARY_HEIGHT,
    DomainError,
    bochner_matrix,
    grid_weights,
)
from .operators import (
    OperatorMatrix,
    dilation,
    fourier_multiplier,
    separable_terms,
    toeplitz_halfplane,
)
from .symbols import AnalyticSymbol, PointCloud, SepExpr, closure_image

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# safety inflation of the sampled symbol-image cloud before alpha selection
CLOUD_MARGIN = 1e-3

# consecutive non-decreasing series increments that void the certificate
GROWTH_GUARD = 5

# width in log(alpha) at which the golden-section search for alpha stops
ALPHA_TOL = 1e-10

# largest truncation order a plan uses, whatever its tolerance
TRUNCATION_CAP = 60

# rational Hardy test vectors behind the series-vs-composition cross-check
HARDY_TEST_COUNT = 12

# a two-variable series keeps the Kronecker pairs whose singular values are
# above this fraction of the largest (``_recompress``)
KRON_CUT = 1e-14


class SeriesError(ValueError):
    """Series construction cannot be certified."""


@dataclass
class QuasiParabolicMap:
    """phi(z1, z2) = (p1 z1 + psi1(z), p2 z2 + psi2(z))."""

    p1: float
    p2: float
    psi1: AnalyticSymbol
    psi2: AnalyticSymbol

    def __post_init__(self):
        if self.p1 <= 0 or self.p2 <= 0:
            raise DomainError("dilation parameters must be positive")

    @property
    def per_axis(self) -> bool:
        """True when psi1 depends on z1 only and psi2 on z2 only (constants
        included), read from their parsed expressions; C_phi is then the
        Kronecker product of two one-variable operators."""
        return (
            self.psi1.expr.single_variable() in (0, 1)
            and self.psi2.expr.single_variable() in (0, 2)
        )

    def boundary_components(self):
        """Callables for phi_j^* on R^2 (broadcastable in both arguments)."""

        def phi1(x1, x2):
            return self.p1 * x1 + self.psi1(x1, x2)

        def phi2(x1, x2):
            return self.p2 * x2 + self.psi2(x1, x2)

        return phi1, phi2


# ---------------------------------------------------------------------------
# alpha selection


def delta_of_alpha(alpha: float, points: np.ndarray) -> float:
    """sup over the cloud of |i*alpha - z| / alpha."""
    return float(np.max(np.abs(1j * alpha - points)) / alpha)


def choose_alpha(cloud: PointCloud | np.ndarray) -> tuple[float, float]:
    """Pick the series shift alpha for a compact cloud in the half-plane.

    Golden-section over log(alpha) of the minimax objective
    delta(alpha) = sup |i alpha - z| / alpha (each point's contribution is
    quasiconvex in alpha, so the sup is unimodal).
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=complex)
    pts = pts.reshape(-1)
    if pts.size == 0:
        raise DomainError("alpha selection needs a nonempty cloud")
    if np.any(pts.imag <= 0):
        raise DomainError("cloud must lie strictly in the upper half-plane")
    ymin = float(np.min(pts.imag))
    rmax = float(np.max(np.abs(pts)))
    lo = math.log(ymin / 2.0)
    hi = math.log(4.0 * rmax**2 / ymin)
    a = _golden_min(lambda u: delta_of_alpha(math.exp(u), pts), lo, hi)
    alpha = math.exp(a)
    return alpha, delta_of_alpha(alpha, pts)


def _golden_min(f: Callable, a: float, b: float) -> float:
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > ALPHA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# series plan


@dataclass
class SeriesPlan:
    """alpha, delta, truncation orders and the certified remainder data."""

    alpha: float
    delta: float
    n1: int
    n2: int
    norm_estimates: dict
    remainder: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise SeriesError(f"delta = {self.delta} is not in (0, 1)")
        self.remainder = remainder_bound(self)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta": self.delta,
            "n1": self.n1,
            "n2": self.n2,
            "remainder_bound": self.remainder,
            "norm_estimates": self.norm_estimates,
        }


def default_norm_estimates(delta: float, sup: float) -> dict:
    """Geometric a-priori bounds used inside the remainder certificate.

    The one-axis helper maps have single geometric series, the full map a
    double one; both Toeplitz factors are bounded by ``sup``, a bound of
    |tau_1| and |tau_2| on the sampled closure cloud.
    """
    return {
        "T_tau1": sup,
        "T_tau2": sup,
        "C_phi1": 1.0 / (1.0 - delta),
        "C_phi2": 1.0 / (1.0 - delta),
        "C_phi": 1.0 / (1.0 - delta) ** 2,
    }


def remainder_bound(plan: SeriesPlan) -> float:
    """Sum of the three geometric tail bounds for the truncated series."""
    est = plan.norm_estimates
    for key in ("C_phi1", "C_phi2", "T_tau1", "T_tau2", "C_phi"):
        if key not in est:
            raise SeriesError(f"norm estimate {key!r} missing from plan")
    d = plan.delta
    r1 = est["C_phi1"] * d ** (plan.n1 + 1) / (1.0 - d)
    r2 = est["C_phi2"] * d ** (plan.n2 + 1) / (1.0 - d)
    r12 = est["T_tau1"] * est["T_tau2"] * est["C_phi"] * d ** (plan.n1 + plan.n2)
    return r1 + r2 + r12


def truncation_order(delta: float, tol: float) -> int:
    """Smallest N with delta^(N+1)/(1-delta) <= tol, capped at TRUNCATION_CAP."""
    n = math.ceil(math.log(tol * (1.0 - delta)) / math.log(delta))
    return int(min(max(n, 1), TRUNCATION_CAP))


def plan_for_map(
    qmap: QuasiParabolicMap,
    tol: float = 1e-8,
    seed: int = 0,
    alpha: Optional[float] = None,
    n1: Optional[int] = None,
    n2: Optional[int] = None,
) -> SeriesPlan:
    """Build a certified series plan for a quasi-parabolic map.

    The compact set handed to the alpha search is the union of the sampled
    closure clouds of both (rescaled) symbols inflated by a small margin.
    """
    pts = np.concatenate(
        [
            closure_image(qmap.psi1, seed=seed).points,
            closure_image(qmap.psi2, seed=seed + 1).points,
        ]
    )
    # inflate: push points toward the real axis and outward by the margin
    pts = np.concatenate(
        [pts, pts - 1j * CLOUD_MARGIN, pts * (1.0 + CLOUD_MARGIN)]
    )
    pts = pts[pts.imag > 0]
    if alpha is None:
        alpha, delta = choose_alpha(pts)
    else:
        delta = delta_of_alpha(alpha, pts)
    if delta >= 1.0:
        raise SeriesError(f"alpha selection failed: delta = {delta} >= 1")
    est = default_norm_estimates(delta, float(np.max(np.abs(1j * alpha - pts))))
    order = truncation_order(delta, tol)
    plan = SeriesPlan(alpha, delta, n1 if n1 is not None else order,
                      n2 if n2 is not None else order, est)
    return plan


# ---------------------------------------------------------------------------
# multiplier symbols


def vartheta_symbol(n: int, alpha: float) -> Callable:
    """Multiplier t -> (-i t)^n exp(-alpha t) / n!."""
    if n < 0:
        raise DomainError("order must be nonnegative")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    fac = math.factorial(n)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return (-1j * t) ** n * np.exp(-alpha * t) / fac

    return fn


# ---------------------------------------------------------------------------
# series construction


def _tau_expr(psi: AnalyticSymbol, alpha: float, p1: float, p2: float) -> SepExpr:
    """tau = i*alpha - psi(x1/p1, x2/p2) as a separable expression."""
    return SepExpr.constant(1j * alpha) - psi.expr.rescaled(p1, p2)


def build_series(qmap: QuasiParabolicMap, plan: SeriesPlan, fgrids: tuple) -> OperatorMatrix:
    """Truncated operator series for C_phi in the frequency representation,
    as Kronecker pairs sum_k kron(A_k, B_k).

    For a per-axis map (``qmap.per_axis``) it is the one pair of two
    one-variable series (``_power_sum``), whose Toeplitz matrices come from
    one quadrature pass when both axes are one grid; otherwise it is summed
    on recompressed pair lists (``_kron_series``).  Every sum is
    growth-checked, and the dilation's factors (V1, V2) multiply last.
    """
    if plan.delta >= 1.0:
        raise SeriesError("refusing to sum a series with delta >= 1")
    g1, g2 = fgrids
    tau1 = _tau_expr(qmap.psi1, plan.alpha, qmap.p1, qmap.p2)
    tau2 = _tau_expr(qmap.psi2, plan.alpha, qmap.p1, qmap.p2)
    V = None
    if qmap.p1 != 1.0 or qmap.p2 != 1.0:
        V = dilation(qmap.p1, qmap.p2, fgrids)
    if not qmap.per_axis:
        return _kron_series(plan, fgrids, tau1, tau2, V)
    f1, f2 = tau1.as_one_variable(), tau2.as_one_variable()
    if g1 is g2:
        T1, T2 = toeplitz_halfplane((f1, f2), g1)
    else:
        T1, T2 = toeplitz_halfplane(f1, g1), toeplitz_halfplane(f2, g2)
    S1, norms1 = _power_sum(T1, g1.nodes, plan.n1, plan.alpha)
    S2, norms2 = _power_sum(T2, g2.nodes, plan.n2, plan.alpha)
    _growth_check(norms1)
    _growth_check(norms2)
    if V is not None:
        S1, S2 = V[0] @ S1, V[1] @ S2
    return OperatorMatrix(fgrids, [(S1, S2)])


def _kron_series(plan: SeriesPlan, fgrids: tuple, tau1: SepExpr, tau2: SepExpr,
                 V: Optional[tuple]) -> OperatorMatrix:
    """The series of a map that is not per-axis as sum_n T1^n (sum_m T2^m
    D2m) D1n on pair lists (X, Y) of stacked factors, standing for
    sum_k kron(X[k], Y[k]): the inner sum from the identity pair, the outer
    one from it.  T1 and T2 stay the Kronecker terms of their symbols
    (``separable_terms``), and the dilation (None for none) multiplies each
    pair last.  The pair algebra reads no grid weights: its tail bounds the
    plain 2-norm distance from the exact truncated sum, and one factor
    sqrt(max w / min w) of the tensor grid weights w turns that into a bound
    of the weighted 2-norm distance (README, "The recompression tail")."""
    g1, g2 = fgrids
    T1, T2 = separable_terms((tau1, tau2), fgrids)
    identity = tuple(np.eye(g.size, dtype=complex)[None] for g in fgrids)
    inner, tail, norms2 = _kron_power_sum(T2, identity, 0.0, 1, g2.nodes, plan.n2, plan.alpha)
    pairs, tail, norms1 = _kron_power_sum(T1, inner, tail, 0, g1.nodes, plan.n1, plan.alpha)
    _growth_check(norms1)
    _growth_check(norms2)
    if V is not None:
        pairs = tuple(Vk @ F for Vk, F in zip(V, pairs))
        tail *= math.prod(np.linalg.norm(Vk, 2) for Vk in V)
    w = grid_weights(fgrids)
    tail *= math.sqrt(np.max(w) / np.min(w))
    return OperatorMatrix(fgrids, list(zip(*pairs)), compression_tail=float(tail))


def _kron_power_sum(terms: list, start: tuple, error: float, axis: int, t: np.ndarray,
                    n_max: int, alpha: float) -> tuple[tuple, float, list]:
    """sum_{n <= n_max} T^n P D_n, T = sum c kron(A, B) over ``terms``, P
    the pair list ``start`` within plain 2-norm ``error`` of the exact
    one, D_n = vartheta_n at the nodes ``t``, scaling the columns of the
    factors of axis ``axis``; each power and partial sum is recompressed.
    The tail grows by sup|vartheta_n| e + cut per partial sum, where a
    power's error e grows as |T| e + cut, |T| <= sum |c| |A|_2 |B|_2.
    The Frobenius norm of each term comes from Gram matrices."""
    bound = sum(abs(c) * math.prod(1.0 if F is None else np.linalg.norm(F, 2) for F in (A, B))
                for c, A, B in terms)
    P, S, tail, norms = start, None, 0.0, []
    for n in range(n_max + 1):
        theta = vartheta_symbol(n, alpha)(t)
        incr = tuple(F * theta if k == axis else F for k, F in enumerate(P))
        grams = [np.conj(G) @ G.T for G in (F.reshape(len(F), -1) for F in incr)]
        norms.append(math.sqrt(max(float(np.sum(grams[0] * grams[1]).real), 0.0)))
        tail += float(np.max(np.abs(theta))) * error
        if S is None:
            S = incr
        else:
            S, cut = _recompress(tuple(np.concatenate(F) for F in zip(S, incr)))
            tail += cut
        if n < n_max:
            P, cut = _recompress(_kron_times(terms, P))
            error = bound * error + cut
    return S, tail, norms


def _kron_times(terms: list, pairs: tuple) -> tuple:
    """T P as a pair list: (c A X, B Y) for each term (c, A, B) of T, None
    standing for an identity factor, and each pair (X, Y) of P."""
    X, Y = pairs
    return (np.concatenate([c * (X if A is None else A @ X) for c, A, _ in terms]),
            np.concatenate([Y if B is None else B @ Y for _, _, B in terms]))


def _recompress(pairs: tuple) -> tuple[tuple, float]:
    """The pairs of the singular values above KRON_CUT of the largest, and
    the sum of those cut, which bounds the plain 2-norm of the cut:
    sum_k kron(A_k, B_k) rearranges to sum_k vec(A_k) vec(B_k)^T (Van Loan
    and Pitsianis), and each cut term is kron(U, V) with |U|_F = |V|_F = 1.
    One QR of each stacked factor matrix, then the SVD of Ra Rb^T."""
    r = len(pairs[0])
    (Qa, Ra), (Qb, Rb) = (np.linalg.qr(F.reshape(r, -1).T) for F in pairs)
    U, s, Vh = np.linalg.svd(Ra @ Rb.T)
    k = max(1, int(np.count_nonzero(s > KRON_CUT * s[0])))
    return tuple((Q @ C).T.reshape(k, *F.shape[1:])
                 for Q, C, F in zip((Qa, Qb), (U[:, :k] * s[:k], Vh[:k].T), pairs)
                 ), float(np.sum(s[k:]))


def _power_sum(T: np.ndarray, t: np.ndarray, n_max: int, alpha: float) -> tuple:
    """sum_{n <= n_max} T^n diag(vartheta_n(t)), the powers multiplied on
    the right, and the Frobenius norm of each term."""
    S = np.zeros_like(T)
    P, norms = np.eye(T.shape[0], dtype=complex), []
    for n in range(n_max + 1):
        incr = P * vartheta_symbol(n, alpha)(t)
        S += incr
        norms.append(float(np.linalg.norm(incr)))
        if n < n_max:
            P = P @ T
    return S, norms


def _growth_check(norms: Sequence[float]) -> None:
    run = 0
    for a, b in zip(norms[3:], norms[4:]):
        run = run + 1 if b >= a and b > 0 else 0
        if run >= GROWTH_GUARD:
            raise SeriesError(
                "series increments grew for "
                f"{GROWTH_GUARD} consecutive orders; alpha/delta certificate suspect"
            )


def exact_constant_multiplier(a1: complex, a2: complex, fgrids: tuple) -> OperatorMatrix:
    """Closed-form collapse of the series for constant symbols, kept as its
    one pair: kron(diag(exp(i a1 t1)), diag(exp(i a2 t2)))."""
    g1, g2 = fgrids
    D1 = fourier_multiplier(lambda t: np.exp(1j * a1 * t), g1)
    D2 = fourier_multiplier(lambda t: np.exp(1j * a2 * t), g2)
    return OperatorMatrix(fgrids, [(D1, D2)])


# ---------------------------------------------------------------------------
# closed-form images of the rational test vectors


def _boundary_phi_values(qmap: QuasiParabolicMap, bgrids: tuple, per_axis: bool = False,
                         block: Optional[slice] = None):
    """phi_1^*, phi_2^* on the tensor boundary grid, flattened row-major: at
    every point, or at those of the x1-rows in the slice ``block``.  The
    images of the test vectors are evaluated there, and need both strictly
    inside the half-plane (``_require_upper_images``).

    With ``per_axis`` (phi_1 ignores x2 and phi_2 ignores x1) only the first
    column of phi_1 and the first row of phi_2 are evaluated, which hold
    every value either takes on the grid."""
    g1, g2 = bgrids
    rows = slice(None) if block is None else block
    x1 = g1.nodes[rows, None] + 1j * BOUNDARY_HEIGHT
    x2 = g2.nodes[None, :] + 1j * BOUNDARY_HEIGHT
    phi1, phi2 = qmap.boundary_components()

    def values(phi, a, b):
        shape = np.broadcast_shapes(a.shape, b.shape)
        return np.broadcast_to(np.asarray(phi(a, b), dtype=complex), shape).reshape(-1)

    if per_axis:
        return values(phi1, x1, x2[:, :1]), values(phi2, x1[:1], x2)
    return values(phi1, x1, x2), values(phi2, x1, x2)


def _require_upper_images(values) -> None:
    """Raise DomainError, naming the lowest Im, unless every boundary image in
    ``values`` (an iterable of arrays) lies strictly in the upper half-plane."""
    worst = min(float(np.min(v.imag)) for v in values)
    if worst <= 0.0:
        raise DomainError(
            f"boundary image dips to Im = {worst:.3g}; a composition with the "
            "Hardy space requires strictly positive imaginary part"
        )


def _boundary_blocks(bgrids: tuple, points: int):
    """Slices of x1-rows that tile the tensor boundary grid in order: runs
    of whole rows holding at most ``points`` points, or one row when a row
    alone holds more."""
    rows = max(1, points // bgrids[1].size)
    for r in range(0, bgrids[0].size, rows):
        yield slice(r, r + rows)


def _rational_vectors(z: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """1 / (z[i] - poles[k])^2 in row i and column k, squared and inverted
    in place, so that forming it holds one array of that size."""
    d = z[:, None] - poles[None, :]
    np.square(d, out=d)
    return np.divide(1.0, d, out=d)


def _column_kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column k is kron(A[:, k], B[:, k])."""
    return (A[:, None, :] * B[None, :, :]).reshape(A.shape[0] * B.shape[0], A.shape[1])


def direct_composition_apply(
    qmap: QuasiParabolicMap, bgrids: tuple, poles: np.ndarray,
    block: Optional[slice] = None,
) -> np.ndarray:
    """The images C_phi u_k = f_k(phi_1) g_k(phi_2) of the rational test
    vectors u_k = kron(f_k, g_k), f_k = 1/(z - poles[0, k])^2 and
    g_k = 1/(z - poles[1, k])^2, in closed form.

    The result stacks the K images at the boundary points asked for, all
    of them or those of the x1-rows in the slice ``block``, flattened
    row-major.  phi is evaluated at those points only, and a DomainError is
    raised before any image is formed when one of its values has Im <= 0.
    The product is formed in place: one array of the result's size and one
    temporary."""
    v1, v2 = _boundary_phi_values(qmap, bgrids, block=block)
    _require_upper_images((v1, v2))
    out = _rational_vectors(v1, poles[0])
    out *= _rational_vectors(v2, poles[1])
    return out


def hardy_test_family(seed: int = 0) -> np.ndarray:
    """Poles of the decaying rational Hardy test vectors, shape (2, K).

    Vector k is kron(f_k, g_k) with f_k = 1/(x1 - p[0, k])^2 and
    g_k = 1/(x2 - p[1, k])^2; each pole is s - i c, with c drawn from
    [0.5, 2] and s from [-3, 3], so it lies in the lower half-plane."""
    rng = np.random.default_rng(seed)
    poles = np.empty((2, HARDY_TEST_COUNT), dtype=complex)
    for k in range(HARDY_TEST_COUNT):
        c = rng.uniform(0.5, 2.0, size=2)
        s = rng.uniform(-3.0, 3.0, size=2)
        poles[:, k] = s - 1j * c
    return poles


def series_direct_residual(
    series_op: OperatorMatrix,
    qmap: QuasiParabolicMap,
    bgrids: tuple,
    seed: int = 0,
) -> float:
    """Cross-validation metric between the series and the composition itself.

    Max over a family of decaying rational Hardy vectors u of the weighted
    frequency-space residual || S F u - F (C u) || / || F u ||.  Each u is
    sampled on the boundary grid, and its image C u = u o phi is evaluated
    in closed form at phi of the boundary points
    (``direct_composition_apply``), so the residual measures the series and
    the boundary quadrature of F, not an approximation of C.

    Each u = kron(f1, f2) is rank one, so F u = kron(F1 f1, F2 f2), and the
    series operator sum_k kron(A_k, B_k) sends it to
    sum_k kron(A_k F1 f1, B_k F2 f2).  For a per-axis map C u is rank one too,
    kron(f1(phi_1), f2(phi_2)), so F(C u) = kron(F1 f1(phi_1), F2 f2(phi_2))
    needs no image.  Otherwise the images are streamed: after the whole
    grid has been checked, one pass over blocks of at most
    BLOCK_BYTES // (32 K) points (``_boundary_blocks``, runs of whole
    x1-rows, or one row) asks ``direct_composition_apply`` for each block's
    images and applies F2 to them along x2, which gives the block's x1-rows
    of an N1 x n2 x K array; F1 comes last.
    """
    fg1, fg2 = series_op.grid
    bg1, bg2 = bgrids
    F1 = bochner_matrix(bg1, fg1)
    F2 = bochner_matrix(bg2, fg2)
    poles = hardy_test_family(seed)
    G1 = F1 @ _rational_vectors(bg1.nodes, poles[0])
    G2 = F2 @ _rational_vectors(bg2.nodes, poles[1])
    fu = _column_kron(G1, G2)
    if qmap.per_axis:
        v1, v2 = _boundary_phi_values(qmap, bgrids, per_axis=True)
        _require_upper_images((v1, v2))
        fcu = _column_kron(F1 @ _rational_vectors(v1, poles[0]),
                           F2 @ _rational_vectors(v2, poles[1]))
    else:
        # phi1 and phi2 for BLOCK_BYTES // 32 points at a time: 22 ms at 768^2
        # nodes on a 2-core VM, against 204 ms in blocks of 512 points
        _require_upper_images(v for block in _boundary_blocks(bgrids, BLOCK_BYTES // 32)
                              for v in _boundary_phi_values(qmap, bgrids, block=block))
        # a block's images and their temporary, K values of 16 bytes per
        # point each, hold BLOCK_BYTES: 10 x1-rows at 256 nodes, 3 at 768
        count = poles.shape[1]
        half = np.empty((bg1.size, fg2.size, count), dtype=complex)
        for rows in _boundary_blocks(bgrids, BLOCK_BYTES // (32 * count)):
            images = direct_composition_apply(qmap, bgrids, poles, rows)
            half[rows] = F2 @ images.reshape(-1, bg2.size, count)
            del images  # before the next block's images are formed
        fcu = (F1 @ half.reshape(bg1.size, -1)).reshape(fu.shape)
    # kron(A, B) kron(g1, g2) = kron(A g1, B g2), summed over the pairs
    resid = sum((_column_kron(A @ G1, B @ G2) for A, B in series_op.terms), -fcu)
    wf = grid_weights(series_op.grid)[:, None]
    err = np.sqrt(np.sum(wf * np.abs(resid) ** 2, axis=0)) / np.sqrt(
        np.sum(wf * np.abs(fu) ** 2, axis=0))
    return float(np.max(err))
