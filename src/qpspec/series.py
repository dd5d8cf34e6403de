"""Quasi-parabolic composition operators on the Hardy space of the upper
half-plane squared, the model on which the bidisc result is computed.

Two independent constructions of C_phi for maps phi(z1,z2) = (p1 z1 + psi1(z),
p2 z2 + psi2(z)) with bounded analytic psi_j of strictly positive imaginary
part:

* the norm-convergent double series
  ``C_phi = V_{p1,p2} * sum_{n,m} T_{tau1^n} T_{tau2^m} D_{th1,n} D_{th2,m}``
  with tau_j = i*alpha - rescaled psi_j and multipliers
  ``th_{j,n}(t) = (-i t_j)^n exp(-alpha t_j) / n!``, with a certified
  geometric remainder; and
* the composition itself, u -> u o phi, on rational Hardy test vectors whose
  images are known in closed form, used for cross-validation.

The shift parameter alpha comes from a minimax fit of i*alpha to the sampled
closure of the symbol image (golden-section over log alpha).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import (
    BLOCK_BYTES,
    BOUNDARY_HEIGHT,
    DomainError,
    bochner_matrix,
    grid_weights,
    tensor_nodes,
)
from .operators import (
    OperatorMatrix,
    dilation,
    fourier_multiplier,
    kron_apply,
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
    """Truncated operator series for C_phi in the frequency representation.

    Both sums come from ``_power_sum``.  For a per-axis map
    (``qmap.per_axis``) the double series is the tensor product of two
    one-variable series, one per axis, and the result stores only the two
    factors; two axes on one grid take their Toeplitz matrices from one
    quadrature pass (``toeplitz_halfplane``).  Otherwise it is summed on
    the tensor grid by ``_dense_series``.  Every sum is growth-checked, and
    the dilation's factors (V1, V2), formed once, are applied last to
    either branch.
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
        return OperatorMatrix(_dense_series(plan, fgrids, tau1, tau2, V), fgrids)
    f1, f2 = tau1.as_one_variable(), tau2.as_one_variable()
    if g1 is g2:
        T1, T2 = toeplitz_halfplane((f1, f2), g1)
    else:
        T1, T2 = toeplitz_halfplane(f1, g1), toeplitz_halfplane(f2, g2)
    S1, sq1 = _power_sum(lambda P: P @ T1, g1.nodes, plan.n1, plan.alpha,
                         np.eye(g1.size, dtype=complex))
    S2, sq2 = _power_sum(lambda P: P @ T2, g2.nodes, plan.n2, plan.alpha,
                         np.eye(g2.size, dtype=complex))
    _growth_check(np.sqrt(sq1.sum(axis=1)))
    _growth_check(np.sqrt(sq2.sum(axis=1)))
    if V is not None:
        S1, S2 = V[0] @ S1, V[1] @ S2
    return OperatorMatrix(None, fgrids, (S1, S2))


def _dense_series(plan: SeriesPlan, fgrids: tuple, tau1: SepExpr, tau2: SepExpr,
                  V: Optional[tuple]) -> np.ndarray:
    """The double series of a map that is not per-axis, summed on the
    tensor grid through the factorization
    sum_{n,m} T1^n T2^m D1n D2m = sum_n T1^n (sum_m T2^m D2m) D1n: the
    inner sum from the identity, then the outer sum from the inner one.

    T1 and T2 are kept as their Kronecker terms (``separable_terms``, one
    quadrature pass for both) and applied from the left (``kron_apply``),
    so an order costs a few products with n x n factors and no n^2 x n^2
    matrix product.  Column k of the sum depends only on column k of the
    identity and on the multipliers at the k-th node, so the sums run on
    one block of columns at a time, held as a stack of n1 x n2 arrays, one
    per column, whose running sum and power hold BLOCK_BYTES (32 columns at
    n = 32), each block dilated by the factors V (None for no dilation)
    before it is stored.  ``kron_apply`` takes one product per array, so a
    column's value does not depend on the block it is summed in.  When the
    matrix spans more than one block and the process may run on two CPUs,
    a helper thread sums blocks beside the caller, each thread taking the
    next block in order when it is done with one, and the budget is split
    between the two threads (16 columns each at n = 32).  The helper calls
    only ``_power_sum``, ``kron_apply`` and ``vartheta_symbol``.  The
    growth checks see each order's norm over all columns, summed from one
    value per column.
    """
    g1, g2 = fgrids
    terms1, terms2 = separable_terms((tau1, tau2), fgrids)
    t1, t2 = tensor_nodes(fgrids)
    size = t1.size
    S = np.empty((size, size), dtype=complex)
    sq1 = np.empty((plan.n1 + 1, size))
    sq2 = np.empty((plan.n2 + 1, size))
    width = max(1, BLOCK_BYTES // 32 // size)
    threads = 2 if width < size and _usable_cpus() > 1 else 1
    width = max(1, width // threads)
    pending = (slice(lo, min(lo + width, size)) for lo in range(0, size, width))
    lock, errors = threading.Lock(), []

    def sum_blocks() -> None:
        try:
            while not errors:
                with lock:
                    cols = next(pending, None)
                if cols is None:
                    return
                m = cols.stop - cols.start
                inner, sq2[:, cols] = _power_sum(
                    lambda Q: kron_apply(terms2, Q), t2[cols, None, None], plan.n2, plan.alpha,
                    np.eye(m, size, cols.start, dtype=complex).reshape(m, g1.size, g2.size))
                block, sq1[:, cols] = _power_sum(
                    lambda Q: kron_apply(terms1, Q), t1[cols, None, None], plan.n1, plan.alpha,
                    inner)
                del inner
                if V is not None:
                    block = kron_apply([(1.0, *V)], block)
                S[:, cols] = block.reshape(m, size).T
        except BaseException as exc:
            errors.append(exc)

    helper = None
    if threads == 2:
        helper = threading.Thread(target=sum_blocks, name="qpspec-series")
        helper.start()
    sum_blocks()
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]
    _growth_check(np.sqrt(sq1.sum(axis=1)))
    _growth_check(np.sqrt(sq2.sum(axis=1)))
    return S


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _power_sum(
    step: Callable, t: np.ndarray, n_max: int, alpha: float, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n <= n_max} Q_n vartheta_n(t) with Q_0 = ``start`` and
    Q_{n+1} = step(Q_n), ``t`` shaped to broadcast against Q_n, and the
    squared Frobenius norm of each term along its first axis (row n for
    order n): one value per row of a matrix or per array of a stack, each
    a product of that slice with itself alone."""
    S = np.zeros_like(start)
    Q = start
    sq = np.empty((n_max + 1, start.shape[0]))
    for n in range(n_max + 1):
        incr = Q * vartheta_symbol(n, alpha)(t)
        S += incr
        v = incr.view(float).reshape(incr.shape[0], 1, -1)
        sq[n] = np.matmul(v, v.transpose(0, 2, 1)).reshape(-1)
        del incr, v
        if n < n_max:
            Q = step(Q)
    return S, sq


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
    two factors: kron(diag(exp(i a1 t1)), diag(exp(i a2 t2)))."""
    g1, g2 = fgrids
    D1 = fourier_multiplier(lambda t: np.exp(1j * a1 * t), g1)
    D2 = fourier_multiplier(lambda t: np.exp(1j * a2 * t), g2)
    return OperatorMatrix(None, fgrids, (D1, D2))


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

    Each u = kron(f1, f2) is rank one, so F u = kron(F1 f1, F2 f2), and a
    factored series operator kron(S1, S2) sends it to kron(S1 F1 f1,
    S2 F2 f2).  For a per-axis map C u is rank one too,
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
    if series_op.factors is None:
        resid = series_op.entries @ fu - fcu
    else:
        # kron(S1, S2) kron(g1, g2) = kron(S1 g1, S2 g2)
        S1, S2 = series_op.factors
        resid = _column_kron(S1 @ G1, S2 @ G2) - fcu
    wf = grid_weights(series_op.grid)[:, None]
    err = np.sqrt(np.sum(wf * np.abs(resid) ** 2, axis=0)) / np.sqrt(
        np.sum(wf * np.abs(fu) ** 2, axis=0))
    return float(np.max(err))
