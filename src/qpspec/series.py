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
* the direct double Cauchy-integral quadrature, used for cross-validation.

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
    BoundaryGrid,
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

# rational Hardy test vectors behind the series-vs-Cauchy cross-check
HARDY_TEST_COUNT = 12

# columns per slab of a series term's norm, and the granularity of the dense
# series' column blocks: OpenBLAS rounds a column alike in every block whose
# width is a multiple of 16
SLAB = 16


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
    one block of columns at a time, whose running sum and power hold
    BLOCK_BYTES (32 columns at n = 32), each block dilated by the factors
    V (None for no dilation) before it is stored.  When the matrix spans
    more than one block and the process may run on two CPUs, a helper
    thread sums blocks beside the caller, each thread taking the next block
    in order when it is done with one, and the budget is split between the
    two threads (16 columns each at n = 32).  The helper calls only
    ``_power_sum``, ``kron_apply`` and ``vartheta_symbol``.
    The growth checks see each order's norm over all columns, the same
    numbers however the columns are blocked.
    """
    g1, g2 = fgrids
    sizes = (g1.size, g2.size)
    terms1, terms2 = separable_terms((tau1, tau2), fgrids)
    t1, t2 = tensor_nodes(fgrids)
    size = t1.size
    S = np.empty((size, size), dtype=complex)
    slabs = -(-size // SLAB)
    sq1 = np.empty((plan.n1 + 1, slabs))
    sq2 = np.empty((plan.n2 + 1, slabs))
    # a multiple of SLAB columns (at n = 24, blocks of 227 columns differ
    # from one block by 3e-20)
    width = max(SLAB, BLOCK_BYTES // 32 // size // SLAB * SLAB)
    threads = 2 if width < size and _usable_cpus() > 1 else 1
    # two threads split the budget; a column's rounding depends on its
    # block's width mod 16 (and one column is a matrix-vector product), so
    # the last size % width columns stay one block
    whole = size - size % width
    part = max(SLAB, width // threads // SLAB * SLAB)
    blocks = [slice(lo, min(lo + part, whole)) for lo in range(0, whole, part)]
    if whole < size:
        blocks.append(slice(whole, size))
    pending, lock, errors = iter(blocks), threading.Lock(), []

    def sum_blocks() -> None:
        try:
            while not errors:
                with lock:
                    cols = next(pending, None)
                if cols is None:
                    return
                on = slice(cols.start // SLAB, -(-cols.stop // SLAB))
                inner, sq2[:, on] = _power_sum(
                    lambda Q: kron_apply(terms2, Q, sizes), t2[cols], plan.n2, plan.alpha,
                    np.eye(size, cols.stop - cols.start, -cols.start, dtype=complex))
                block, sq1[:, on] = _power_sum(
                    lambda Q: kron_apply(terms1, Q, sizes), t1[cols], plan.n1, plan.alpha,
                    inner)
                del inner
                S[:, cols] = block if V is None else kron_apply([(1.0, *V)], block, sizes)
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
    """sum_{n <= n_max} Q_n diag(vartheta_n(t)) with Q_0 = ``start`` and
    Q_{n+1} = step(Q_n), and the squared Frobenius norm of each term on
    each slab of SLAB consecutive columns (row n for order n): a slab's
    value does not depend on the columns beside it."""
    S = np.zeros_like(start)
    Q = start
    sq = np.empty((n_max + 1, -(-start.shape[1] // SLAB)))
    for n in range(n_max + 1):
        incr = Q * vartheta_symbol(n, alpha)(t)[None, :]
        S += incr
        for j in range(sq.shape[1]):
            slab = np.ascontiguousarray(incr[:, j * SLAB:(j + 1) * SLAB])
            sq[n, j] = np.vdot(slab, slab).real
        del incr, slab
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
# direct Cauchy-integral construction


def _boundary_phi_values(qmap: QuasiParabolicMap, bgrids: tuple, per_axis: bool = False,
                         block: Optional[tuple] = None):
    """phi_1^*, phi_2^* on the tensor boundary grid, flattened row-major: at
    every point, or at those of ``block``, an (x1 rows, x2 columns) pair of
    slices.  The Cauchy construction needs both strictly inside the
    half-plane (``_require_upper_images``).

    With ``per_axis`` (phi_1 ignores x2 and phi_2 ignores x1) only the first
    column of phi_1 and the first row of phi_2 are evaluated, which hold
    every value either takes on the grid."""
    g1, g2 = bgrids
    rows, cols = block or (slice(None), slice(None))
    x1 = g1.nodes[rows, None] + 1j * BOUNDARY_HEIGHT
    x2 = g2.nodes[None, cols] + 1j * BOUNDARY_HEIGHT
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
            f"boundary image dips to Im = {worst:.3g}; Cauchy construction "
            "requires strictly positive imaginary part"
        )


def _boundary_blocks(bgrids: tuple, points: int):
    """Row-major tiling of the tensor boundary grid by (x1 rows, x2 columns)
    pairs of slices of at most ``points`` points: runs of whole x1-rows, or
    pieces of one x1-row when a row alone holds more."""
    n1, n2 = bgrids[0].size, bgrids[1].size
    rows, width = max(1, points // n2), min(n2, points)
    for r in range(0, n1, rows):
        for c in range(0, n2, width):
            yield slice(r, r + rows), slice(c, c + width)


def _cauchy_kernel(g: BoundaryGrid, v: np.ndarray) -> np.ndarray:
    """Row k: the quadrature form of the Cauchy integral at the point v[k],
    divided in place so that building it holds one kernel-sized array."""
    K = g.nodes[None, :] - v[:, None]
    return np.divide(g.weights[None, :] / (2.0j * np.pi), K, out=K)


def _kernel_rows(*grids: BoundaryGrid) -> int:
    """Kernel rows per block: as many as keep the Cauchy kernel on the
    largest of ``grids`` within BLOCK_BYTES, and at least one (256 rows at
    256 boundary nodes, one whole x1-row of the tensor grid; 85 at 768)."""
    return max(1, BLOCK_BYTES // (16 * max(g.size for g in grids)))


def _kernel_apply(g: BoundaryGrid, v: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``_cauchy_kernel(g, v) @ U``, building ``_kernel_rows(g)`` kernel rows
    at a time."""
    out = np.empty((v.size, U.shape[1]), dtype=complex)
    rows = _kernel_rows(g)
    for lo in range(0, v.size, rows):
        out[lo:lo + rows] = _cauchy_kernel(g, v[lo:lo + rows]) @ U
    return out


def _column_kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column k is kron(A[:, k], B[:, k])."""
    return (A[:, None, :] * B[None, :, :]).reshape(A.shape[0] * B.shape[0], A.shape[1])


def direct_composition_apply(
    qmap: QuasiParabolicMap, bgrids: tuple, f1: np.ndarray, f2: np.ndarray,
    block: Optional[tuple] = None,
) -> np.ndarray:
    """Apply the double Cauchy quadrature to the rank-one vectors
    kron(f1[:, k], f2[:, k]) without materializing the full matrix.

    ``f1`` (N1 x K) and ``f2`` (N2 x K) stack the factors on each boundary
    axis; the result stacks the K images at the boundary points asked for,
    all of them or those of ``block`` (an (x1 rows, x2 columns) pair of
    slices), flattened row-major.  At the boundary point a the image is
    (C1[a] f1)(C2[a] f2), with C_j[a] the Cauchy kernel row at phi_j(a).
    phi is evaluated at those points only, and a DomainError is raised
    before any kernel is built when one of its values has Im <= 0.  Output
    rows go in chunks of ``_kernel_rows(g1, g2)``, whose two kernels are
    applied to all K columns at once."""
    g1, g2 = bgrids
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    v1, v2 = _boundary_phi_values(qmap, bgrids, block=block)
    _require_upper_images((v1, v2))
    out = np.empty((v1.size, f1.shape[1]), dtype=complex)
    rows = _kernel_rows(g1, g2)
    for lo in range(0, v1.size, rows):
        hi = min(lo + rows, v1.size)
        np.multiply(_cauchy_kernel(g1, v1[lo:hi]) @ f1, _cauchy_kernel(g2, v2[lo:hi]) @ f2,
                    out=out[lo:hi])
    return out


def hardy_test_family(bgrids: tuple, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The decaying rational Hardy test vectors on the tensor boundary grid.

    Every vector is rank one, kron(U1[:, k], U2[:, k]); the two factor
    stacks U1 (N1 x K) and U2 (N2 x K) are returned."""
    rng = np.random.default_rng(seed)
    g1, g2 = bgrids
    U1 = np.empty((g1.size, HARDY_TEST_COUNT), dtype=complex)
    U2 = np.empty((g2.size, HARDY_TEST_COUNT), dtype=complex)
    for k in range(HARDY_TEST_COUNT):
        c1, c2 = rng.uniform(0.5, 2.0, size=2)
        s1, s2 = rng.uniform(-3.0, 3.0, size=2)
        U1[:, k] = 1.0 / (g1.nodes - s1 + 1j * c1) ** 2
        U2[:, k] = 1.0 / (g2.nodes - s2 + 1j * c2) ** 2
    return U1, U2


def series_direct_residual(
    series_op: OperatorMatrix,
    qmap: QuasiParabolicMap,
    bgrids: tuple,
    seed: int = 0,
) -> float:
    """Cross-validation metric between the series and direct constructions.

    Max over a family of decaying rational Hardy vectors u of the weighted
    frequency-space residual || S F u - F (C u) || / || F u ||.  Restricting
    to decaying vectors keeps the boundary quadrature honest; the Cauchy
    kernel applied to the non-decaying inverse transforms of raw frequency
    basis vectors would be dominated by truncation artifacts.

    Each u = kron(f1, f2) is rank one, so F u = kron(F1 f1, F2 f2), and a
    factored series operator kron(S1, S2) sends it to kron(S1 F1 f1,
    S2 F2 f2).  For a per-axis map C u is rank one too, kron(C1 f1, C2 f2),
    so F(C u) = kron(F1 C1 f1, F2 C2 f2) needs no image, and each kernel
    C_j is applied ``_kernel_rows(bg_j)`` rows at a time.  Otherwise the
    images are streamed: after the whole grid has been checked, one pass
    over blocks of at most ``_kernel_rows(bg1, bg2)`` points
    (``_boundary_blocks``) asks ``direct_composition_apply`` for each
    block's images, applies F2 to them along x2 at once and adds the result
    to the block's x1-rows of an N1 x n2 x K array; F1 comes last.
    """
    fg1, fg2 = series_op.grid
    bg1, bg2 = bgrids
    F1 = bochner_matrix(bg1, fg1)
    F2 = bochner_matrix(bg2, fg2)
    U1, U2 = hardy_test_family(bgrids, seed)
    G1, G2 = F1 @ U1, F2 @ U2
    fu = _column_kron(G1, G2)
    if qmap.per_axis:
        v1, v2 = _boundary_phi_values(qmap, bgrids, per_axis=True)
        _require_upper_images((v1, v2))
        fcu = _column_kron(F1 @ _kernel_apply(bg1, v1, U1), F2 @ _kernel_apply(bg2, v2, U2))
    else:
        # phi1 and phi2 for BLOCK_BYTES // 32 points at a time: 22 ms at 768^2
        # nodes on a 2-core VM, against 204 ms in blocks of 512 points
        _require_upper_images(v for block in _boundary_blocks(bgrids, BLOCK_BYTES // 32)
                              for v in _boundary_phi_values(qmap, bgrids, block=block))
        half = np.zeros((bg1.size, fg2.size, U1.shape[1]), dtype=complex)
        for rows, cols in _boundary_blocks(bgrids, _kernel_rows(bg1, bg2)):
            images = direct_composition_apply(qmap, bgrids, U1, U2, (rows, cols))
            F2b = F2[:, cols]
            half[rows] += F2b @ images.reshape(-1, F2b.shape[1], U1.shape[1])
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
