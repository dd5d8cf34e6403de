"""Spectral diagnostics and the spiral-set containment check.

Eigenvalues and epsilon-pseudospectra of discretized operators (computed on
the weighted similarity so the matrix represents the operator on the
quadrature-weighted space), a multi-size pseudospectrum intersection used as
a computable stand-in for the essential spectrum, and the predicted set
{exp(i(z1 t1 + z2 t2))} u {0} swept at the cluster points z1, z2 of the
two symbols.  The essential spectrum itself is not finitely computable; the
surrogate is this artifact's operational definition and every verdict
reports the sizes and epsilon that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import BLOCK_BYTES, DomainError
from .operators import OperatorMatrix, is_diagonal, weighted_factors
from .symbols import PointCloud


class UsageError(ValueError):
    """Operation called outside its contract."""


@dataclass
class SpectralSet:
    """Finite point cloud with the parameters that produced it."""

    points: PointCloud
    params: dict = field(default_factory=dict)
    # predicted set only: the sweep image, row-major over (t1, t2)
    image: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.points.points)):
            raise UsageError("spectral set contains non-finite points")


def _grid_points(region: tuple, resolution: tuple) -> np.ndarray:
    """The (n_im, n_re) grid of lambda-points over a rectangle."""
    re = np.linspace(region[0], region[1], resolution[0])
    im = np.linspace(region[2], region[3], resolution[1])
    return re[None, :] + 1j * im[:, None]


def _grid_step(region: tuple, resolution: tuple) -> float:
    """The larger of the two spacings of a rectangle's lambda-grid."""
    dre = (region[1] - region[0]) / (resolution[0] - 1)
    dim = (region[3] - region[2]) / (resolution[1] - 1)
    return max(dre, dim)


@dataclass
class PseudospectrumMap:
    """sigma_min(lambda I - A) sampled over a complex rectangle."""

    region: tuple  # (re_min, re_max, im_min, im_max)
    resolution: tuple  # (n_re, n_im)
    values: np.ndarray  # shape (n_im, n_re)
    stats: dict = field(default_factory=dict)  # work counters of the kernel

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.resolution[1], self.resolution[0]):
            raise UsageError("pseudospectrum values do not match resolution")
        if np.any(self.values < 0):
            raise UsageError("singular values cannot be negative")

    def grid(self) -> np.ndarray:
        return _grid_points(self.region, self.resolution)

    def level_set(self, eps: float) -> SpectralSet:
        pts = self.grid()[self.values <= eps]
        return SpectralSet(
            PointCloud(pts.reshape(-1)),
            {"eps": eps, "region": self.region, "resolution": self.resolution},
        )


def eigenvalues(A: OperatorMatrix) -> SpectralSet:
    """Dense eigenvalue set of the weighted similarity kron(W1, W2) of A
    (``weighted_factors``): every product of an eigenvalue of W1 with one
    of W2."""
    d1, d2 = (np.linalg.eigvals(W) for W in weighted_factors(A))
    vals = np.outer(d1, d2).reshape(-1)
    return SpectralSet(PointCloud(vals), {"dim": vals.size})


# inverse-Lanczos stopping rule: the top Ritz value changed by at most this
# relative amount, or the step cap was reached (counted as a cap hit)
LANCZOS_RTOL = 1e-13
LANCZOS_MAX_STEPS = 100
# Lanczos runs in flight: a finished run hands its lane to the next point,
# so a call over any number of points holds only a few (LANCZOS_BATCH x N)
# arrays plus the lanes' block inverses (w N complex numbers per lane, w from
# ``_block_width``, ``_block_inverses``) and no lane idles
LANCZOS_BATCH = 128
# width of the diagonal blocks of each long row system whose inverses a lane
# keeps (``_block_width``): w N complex numbers per lane.  On a 2-core VM
# with one BLAS thread, one B^*-then-B solve pair at n = 64 took 103 / 96 /
# 114 ms with 128 lanes and 21 / 18 / 11 ms with 9 lanes for w = 4 / 8 / 16
# (209 and 32 ms one entry at a time), and verify_small passes took a
# median 1.29 / 0.74 / 0.91 s; w = 16 also doubles the cache, to 128 MiB
# at n = 64
KRON_BLOCK = 8


def _block_width(n2: int) -> int:
    """Width w of the diagonal blocks of a row system of n2 entries: a row
    of at most 2 KRON_BLOCK entries is one block (w = n2), so that a solve
    takes one block step per row; a longer row takes blocks of KRON_BLOCK."""
    return n2 if n2 <= 2 * KRON_BLOCK else KRON_BLOCK


def _block_inverses(lam, U1, U2, out=None, lanes=slice(None)):
    """Inverses of the diagonal blocks of the row systems lam I - U1[i,i] U2
    of (lam I - U1 (x) U2), for upper-triangular U1, U2 and each point of lam.

    The blocks are w x w (``_block_width``); a last block narrower than w is
    padded with the identity.  Each block D = diag(d) - U1[i,i] N, N the
    strictly upper part of its block of U2, is upper triangular, and row j
    of its inverse X is (e_j + U1[i,i] N[j] X) / d_j, which needs only the
    rows below it: one back-substitution, w - 1 batched products over every
    block and lane of a chunk of rows.  The chunks are worked in a
    lanes-last scratch no larger than one n1 x n2 x lanes array or than
    BLOCK_BYTES, whichever is larger, and written
    to ``out[rows][:, :, lanes]`` of an (n1, ceil(n2 / w), lanes, w, w)
    array, which is allocated when ``out`` is None; returns it.
    """
    n1, n2, c = U1.shape[0], U2.shape[0], lam.size
    w = _block_width(n2)
    nb = -(-n2 // w)
    blocks = np.zeros((nb, w, w), dtype=complex)
    for J in range(nb):
        lo, hi = J * w, min(J * w + w, n2)
        blocks[J, : hi - lo, : hi - lo] = U2[lo:hi, lo:hi]
    diag = np.diagonal(blocks, axis1=1, axis2=2)[None, :, :, None]
    N = np.triu(blocks, 1)
    pad = slice(n2 - (nb - 1) * w, w)
    if out is None:
        out = np.empty((n1, nb, c, w, w), dtype=complex)
    # rows per chunk: as many as fit in n1 n2 c numbers, and at least as
    # many as fit in BLOCK_BYTES, so that short rows (one block each) are
    # not taken one at a time
    row_bytes = nb * w * w * c * 16
    rows = min(n1, max(1, n1 * n2 // (nb * w * w), BLOCK_BYTES // row_bytes))
    S = np.zeros((rows, nb, w, w, c), dtype=complex)
    k = np.arange(w)
    for lo in range(0, n1, rows):
        u = np.diag(U1)[lo : lo + rows, None, None, None]
        r = u.shape[0]
        X = S[:r]
        d = lam - u * diag
        d[:, -1, pad] = 1.0
        X[:, :, k, k] = d = 1.0 / d
        ud = u * d
        for j in range(w - 2, -1, -1):
            m = w - 1 - j
            below = X[:, :, j + 1 :, j + 1 :].reshape(r, nb, m, m * c)
            acc = np.matmul(N[:, j : j + 1, j + 1 :], below).reshape(r, nb, m, c)
            np.multiply(acc, ud[:, :, j, None], out=X[:, :, j, j + 1 :])
        out[lo : lo + r][:, :, lanes] = X.transpose(0, 1, 4, 2, 3)
    return out


def _kron_solve(L1, L2, inv, X, adjoint=False):
    """Solve B x = b in place for B = lam I - U1 (x) U2, given the
    upper-triangular factors L1, L2 = U1, U2; with ``adjoint``, solve
    B^* x = b, given their adjoints L1, L2 = U1^*, U2^*.

    X has shape (n1, n2, c) and holds b on entry, one right-hand side per
    lambda-point along the last axis, in the row-major flattening; it holds
    x on return.  ``inv`` holds each point's block inverses
    (``_block_inverses`` of U1, U2, at least c lanes).  Row i of X solves
    (lam I - L1[i,i] L2) x_i = b_i + L2 sum_k L1[i,k] x_k over the rows
    already solved: a back-substitution from the last row, or with the
    adjoints a forward substitution.  Within a row each block of w entries
    (``_block_width``) takes one GEMM over all lanes with the blocks already
    solved and one batched product with its inverse (the inverse's adjoint
    in the forward sweep), so a solve takes n1 ceil(n2 / w) steps instead of
    n1 n2.  The blocks, their inverses' views and the views of L2 that
    couple them to the blocks already solved are planned once per call.
    """
    n1, n2, c = X.shape
    w = inv.shape[-1]
    plan = []
    for lo in range(0, n2, w) if adjoint else range((n2 - 1) // w * w, -1, -w):
        hi = min(lo + w, n2)
        solved = slice(0, lo) if adjoint else slice(hi, n2)
        couple = L2[lo:hi, solved] if solved.start < solved.stop else None
        plan.append((slice(lo, hi), solved, couple, inv[:, lo // w, :c, : hi - lo, : hi - lo]))
    for i in range(n1) if adjoint else range(n1 - 1, -1, -1):
        done = slice(0, i) if adjoint else slice(i + 1, n1)
        x = X[i]
        if done.start < done.stop:
            x += L2 @ (L1[i, done] @ X[done].reshape(-1, n2 * c)).reshape(n2, c)
        for block, solved, couple, D in plan:
            rhs = x[block]
            if couple is not None:
                rhs = rhs + L1[i, i] * (couple @ x[solved])
            if adjoint:
                # D^* y = conj(y^* D)^T
                x[block] = (rhs.T.conj()[:, None, :] @ D[i])[:, 0, :].T.conj()
            else:
                x[block] = (D[i] @ rhs.T[:, :, None])[:, :, 0].T
    return X


def _top_ritz(a: np.ndarray, b: np.ndarray, m: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the leading m[k] x m[k] symmetric tridiagonal
    block T_k with diagonal a[:, k] and off-diagonal b[:, k], for each lane k,
    given prev[k], the top eigenvalue of its leading (m[k] - 1)-row block (0
    for a fresh lane).

    By Cauchy interlacing T_k - prev[k] I has exactly one eigenvalue above
    0, so every lane's shifted block is stacked, with a zero off-diagonal
    between lanes, into one call of LAPACK's bisection (stebz) on (0, inf];
    ``iblock`` and ``isplit`` name the lane of each eigenvalue found, and a
    lane's value is prev[k] plus the largest of its eigenvalues, or prev[k]
    when none was found.  A lane with a non-finite entry gets NaN.
    """
    from scipy.linalg.lapack import dstebz

    top = int(m.max())
    rows = np.arange(top)
    # lane-major (lanes x rows) diagonals, shifted, and off-diagonals, each
    # lane's closed by a 0
    d = a[:top].T - prev[:, None]
    e = np.where(rows < m[:, None] - 1, b[:top].T, 0.0)
    inside = rows < m[:, None]
    finite = np.all(np.isfinite(d) | ~inside, axis=1) & np.all(np.isfinite(e), axis=1)
    theta = np.full(m.size, np.nan)
    if not finite.any():
        return theta
    inside &= finite[:, None]
    d, e = d[inside], e[inside]
    # the wrapper takes n - 1 off-diagonal entries, but at least one
    found, w, iblock, isplit, _ = dstebz(d, e[: max(1, d.size - 1)], 1, 0.0, np.inf, 0, 0,
                                         0.0, "B")
    lane = np.searchsorted(np.cumsum(np.where(finite, m, 0)), isplit[iblock[:found] - 1])
    theta[finite] = prev[finite]
    np.maximum.at(theta, lane, prev[lane] + w[:found])
    return theta


def _sigma_min_lanczos(lam, T1, T2, starts):
    """sigma_min(lam I - T1 (x) T2) at a flat array of lambda-points, by
    Lanczos on (B^* B)^-1 with B = lam I - T1 (x) T2, batched over the
    points.

    T1, T2 are upper triangular (complex Schur forms).  A lane computes its
    point's block inverses (``_block_inverses``) when it takes the point and
    keeps them until the run finishes; both solves, with B^* and with B,
    use them (``_kron_solve``), and the solve with B^* sweeps the factors'
    adjoints, formed once per call.  Each point runs once per start vector in
    ``starts``; two starts are the symmetric and antisymmetric halves of a
    Kronecker square (T1 == T2), whose runs are kept in their half.
    Returns, per point, the value, the largest Lanczos step count, and
    whether a run stopped at the step cap without meeting the tolerance.
    """
    halves = len(starts)
    sig = np.zeros((lam.size, halves))
    steps = np.zeros((lam.size, halves), dtype=int)
    capped = np.zeros((lam.size, halves), dtype=bool)
    # a point on the diagonal of the triangular factor is exactly singular
    live = np.flatnonzero(~np.isin(lam, np.multiply.outer(np.diag(T1), np.diag(T2))))
    queue = [(p, h) for p in live for h in range(halves)]
    width = min(LANCZOS_BATCH, len(queue))
    task = np.array(queue[:width], dtype=int).reshape(-1, 2)
    nxt = width
    starts = np.asarray(starts)
    v = starts[task[:, 1]].transpose(1, 2, 0).copy()
    inv = _block_inverses(lam[task[:, 0]], T1, T2)
    v_prev = np.zeros_like(v)
    a = np.zeros((LANCZOS_MAX_STEPS, width))
    b = np.zeros((LANCZOS_MAX_STEPS, width))
    beta = np.zeros(width)
    theta = np.zeros(width)
    m = np.zeros(width, dtype=int)
    signs = np.array([1.0, -1.0])
    sign = signs[task[:, 1]]
    lane = np.arange(width)
    H1, H2 = T1.conj().T, T2.conj().T
    while task.shape[0]:
        w = _kron_solve(T1, T2, inv, _kron_solve(H1, H2, inv, v.copy(), adjoint=True))
        if halves == 2:
            w += sign * w.transpose(1, 0, 2)
            w *= 0.5
        alpha = np.einsum("ijc,ijc->c", v.real, w.real) + np.einsum(
            "ijc,ijc->c", v.imag, w.imag
        )
        a[m, lane] = alpha
        w -= alpha * v
        w -= beta * v_prev
        m += 1
        new = _top_ritz(a, b, m, theta)
        beta = np.sqrt(
            np.einsum("ijc,ijc->c", w.real, w.real) + np.einsum("ijc,ijc->c", w.imag, w.imag)
        )
        b[m - 1, lane] = beta
        finite = np.isfinite(new) & np.isfinite(beta)
        met = ~finite | (np.abs(new - theta) <= LANCZOS_RTOL * new) | (beta == 0.0)
        done = met | (m == LANCZOS_MAX_STEPS)
        theta = new
        v_prev, v = v, w / np.where(done, 1.0, beta)
        if not np.any(done):
            continue
        p, h = task[done, 0], task[done, 1]
        # non-finite: the inverse overflowed, lam is numerically singular
        sig[p, h] = np.where(finite[done], 1.0 / np.sqrt(theta[done]), 0.0)
        steps[p, h] = m[done]
        capped[p, h] = ~met[done]
        # hand finished lanes to queued runs, then drop the ones left idle
        refill = np.flatnonzero(done)[: len(queue) - nxt]
        if refill.size:
            task[refill] = queue[nxt : nxt + refill.size]
            nxt += refill.size
            v[:, :, refill] = starts[task[refill, 1]].transpose(1, 2, 0)
            v_prev[:, :, refill] = 0.0
            beta[refill] = theta[refill] = m[refill] = 0
            sign[refill] = signs[task[refill, 1]]
            done[refill] = False
            _block_inverses(lam[task[refill, 0]], T1, T2, out=inv, lanes=refill)
        if np.any(done):
            keep = np.flatnonzero(~done)
            task, sign, beta, theta, m = task[keep], sign[keep], beta[keep], theta[keep], m[keep]
            v, v_prev = v[:, :, keep], v_prev[:, :, keep]
            a, b = a[:, keep], b[:, keep]
            lane = np.arange(keep.size)
            # compacted in place, one row at a time, so that no second
            # cache-sized array is ever held
            for row in inv:
                row[:, : keep.size] = row[:, keep]
            inv = inv[:, :, : keep.size]
    sig = sig.min(axis=1)
    return sig, steps.max(axis=1), capped.any(axis=1)


def _lambda_grid(region: tuple, resolution: tuple) -> np.ndarray:
    """The (n_im, n_re) grid of lambda-points over the rectangle."""
    if resolution[0] < 32 or resolution[1] < 32:
        raise UsageError("pseudospectrum resolution must be at least 32x32")
    return _grid_points(region, resolution)


def _sigma_min_kernel(A: OperatorMatrix) -> Callable:
    """run(points) -> (values, steps, capped) for sigma_min(lambda I - A)
    at a flat array of lambda-points.

    Every operator is written as kron(W1, W2) of its weighted per-axis
    factors (``weighted_factors``; a sum of several Kronecker pairs as
    ([[1]], M) of its matrix M).  When both are diagonal,
    with diagonal d, the value is the exact min_k |lambda - d_k|
    (``_nearest_distances``; no Lanczos steps, no cap hits).  Otherwise,
    with complex Schur forms W_k = Q_k T_k Q_k^*, sigma_min(lambda I - A) =
    sigma_min(lambda I - T1 (x) T2), found by inverse Lanczos with Kronecker
    back-substitution solves (``_sigma_min_lanczos``).
    """
    W1, W2 = weighted_factors(A)
    if is_diagonal(W1) and is_diagonal(W2):
        d = np.kron(np.diag(W1), np.diag(W2))

        def run(points):
            vals = _nearest_distances(points, d)
            return vals, np.zeros(points.size, dtype=int), np.zeros(points.size, dtype=bool)

        return run
    # loaded here so that processes which never run Lanczos (build, predict,
    # the spectrum of a diagonal map) never import scipy.linalg
    import scipy.linalg

    T1 = scipy.linalg.schur(W1, output="complex")[0]
    T2 = scipy.linalg.schur(W2, output="complex")[0]
    rng = np.random.default_rng(0)
    start = rng.standard_normal(T1.shape[:1] + T2.shape[:1]) + 0j
    # a Kronecker square commutes with the exchange of its two axes;
    # runs started in one symmetry half stay there, which splits apart
    # near-equal top eigenvalues that would stall a single run
    if T1.shape[0] > 1 and np.array_equal(T1, T2):
        starts = [start + start.T, start - start.T]
    else:
        starts = [start]
    starts = [s / np.linalg.norm(s) for s in starts]

    def run(points):
        return _sigma_min_lanczos(points, T1, T2, starts)

    return run


def pseudospectrum(
    A: OperatorMatrix,
    region: tuple,
    resolution: tuple,
    eps_list: Sequence[float] = (),
) -> tuple[PseudospectrumMap, list[SpectralSet]]:
    """sigma_min(lambda I - A) at every point of a rectangle's grid, plus
    requested level sets.

    The values come from one run of ``_sigma_min_kernel`` over the whole
    grid.  ``stats`` records the largest Lanczos step count and the number
    of points that hit the step cap.
    """
    lam = _lambda_grid(region, resolution)
    vals, steps, capped = _sigma_min_kernel(A)(lam.reshape(-1))
    stats = {
        "lanczos_max_steps": int(steps.max()),
        "lanczos_cap_hits": int(np.sum(capped)),
    }
    pmap = PseudospectrumMap(tuple(region), tuple(resolution), vals.reshape(lam.shape), stats)
    return pmap, [pmap.level_set(e) for e in eps_list]


# relative shortening of each exclusion radius (v - eps): it keeps the rule
# clear of rounding in v and of the 1e-13 relative Lanczos tolerance
EXCLUSION_MARGIN = 1e-9


def _coarsest_stride(resolution: tuple) -> int:
    """The largest power of two s with 4 s <= min(resolution)."""
    s = 1
    while 8 * s <= min(resolution):
        s *= 2
    return s


def pseudospectrum_mask(
    A: OperatorMatrix,
    region: tuple,
    resolution: tuple,
    eps: float,
) -> tuple[np.ndarray, dict]:
    """The level mask sigma_min(lambda I - A) <= eps on a rectangle's grid,
    equal to ``pseudospectrum(A, region, resolution)[0].values <= eps``, found
    coarse to fine without evaluating every point.

    Rounds run at strides s = S, S/2, ..., 1 (S from ``_coarsest_stride``);
    each evaluates the undecided grid points whose two indices are
    multiples of s.  sigma_min(lambda I - A) is 1-Lipschitz in lambda, so an
    evaluated point p with a converged value v > eps decides as outside
    every undecided grid point q with |q - p| < (v - eps)(1 - EXCLUSION_MARGIN).
    A run stopped at the step cap over-estimates sigma_min and excludes
    nothing, nor does a point with v <= eps; their neighbours are evaluated
    in later rounds.  ``stats`` records the number of points evaluated and,
    over those only, the largest Lanczos step count and the cap hits.
    """
    lam = _lambda_grid(region, resolution)
    re, im = lam[0].real, lam[:, 0].imag
    run = _sigma_min_kernel(A)
    mask = np.zeros(lam.shape, dtype=bool)
    undecided = np.ones(lam.shape, dtype=bool)
    evaluated = max_steps = cap_hits = 0
    s = _coarsest_stride(resolution)
    while s >= 1:
        rows, cols = np.nonzero(undecided[::s, ::s])
        rows, cols = rows * s, cols * s
        if rows.size:
            vals, steps, capped = run(lam[rows, cols])
            evaluated += rows.size
            max_steps = max(max_steps, int(steps.max()))
            cap_hits += int(np.sum(capped))
            mask[rows, cols] = vals <= eps
            undecided[rows, cols] = False
            for k in np.flatnonzero(~capped & (vals > eps)):
                r = (vals[k] - eps) * (1.0 - EXCLUSION_MARGIN)
                p = lam[rows[k], cols[k]]
                # the box of grid rows and columns that the disc |q - p| < r reaches
                box = np.ix_(np.flatnonzero(np.abs(im - p.imag) < r),
                             np.flatnonzero(np.abs(re - p.real) < r))
                undecided[box] &= np.abs(lam[box] - p) >= r
        s //= 2
    stats = {
        "lambda_evaluated": evaluated,
        "lanczos_max_steps": max_steps,
        "lanczos_cap_hits": cap_hits,
    }
    return mask, stats


def essential_spectrum_surrogate(
    builder: Callable[[int], OperatorMatrix],
    sizes: Sequence[int],
    eps: float,
    region: tuple,
    resolution: tuple = (64, 64),
) -> SpectralSet:
    """Stability-filtered pseudospectrum intersection across finite sections.

    Keeps the grid points whose sigma_min stays below eps at EVERY listed
    size; each size's level mask comes from ``pseudospectrum_mask`` over the
    whole grid.  Per size, the params record the survivor count, the number
    of lambda-points evaluated, and over those the largest Lanczos step
    count and the number that hit the step cap.  An empty result is
    returned with a diagnostic rather than raised: it is a legitimate (if
    suspicious) outcome.
    """
    sizes = list(sizes)
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("surrogate needs at least 3 strictly increasing sizes")
    mask = None
    per_size_counts = []
    evaluated = []
    max_steps = []
    cap_hits = []
    for n in sizes:
        m, stats = pseudospectrum_mask(builder(n), region, resolution, eps)
        per_size_counts.append(int(np.sum(m)))
        evaluated.append(stats["lambda_evaluated"])
        max_steps.append(stats["lanczos_max_steps"])
        cap_hits.append(stats["lanczos_cap_hits"])
        mask = m if mask is None else (mask & m)
    pts = _lambda_grid(region, resolution)[mask].reshape(-1)
    params = {
        "sizes": sizes,
        "eps": eps,
        "region": tuple(region),
        "resolution": tuple(resolution),
        "grid_step": _grid_step(region, resolution),
        "per_size_counts": per_size_counts,
        "lambda_evaluated": evaluated,
        "lanczos_max_steps": max_steps,
        "lanczos_cap_hits": cap_hits,
    }
    if pts.size == 0:
        params["diagnostic"] = (
            "empty intersection: no grid point stays below eps at all sizes; "
            f"per-size survivor counts {per_size_counts}"
        )
    return SpectralSet(PointCloud(pts), params)


def predicted_set(z1: complex, z2: complex, t_samples: int = 64) -> SpectralSet:
    """{exp(i(z1 t1 + z2 t2))} over a [0,T]^2 grid of t_samples^2 points,
    u {0}, for the cluster points z1 of psi1 and z2 of psi2.

    T = 8 / min Im, so the sweep reaches magnitudes below 3e-4 and the
    adjoined 0 is an honest closure proxy for t -> infinity.  The sweep
    image, row-major over (t1, t2), is kept in ``image``.
    """
    if z1.imag <= 0 or z2.imag <= 0:
        raise DomainError("cluster points must have positive imaginary part")
    T = 8.0 / min(z1.imag, z2.imag)
    t = np.linspace(0.0, T, t_samples)
    img = np.exp(1j * (z1 * t[:, None] + z2 * t[None, :]))
    spacing = 0.0
    if t.size > 1:
        spacing = max(
            float(np.max(np.abs(np.diff(img, axis=0)))),
            float(np.max(np.abs(np.diff(img, axis=1)))),
        )
    image = img.reshape(-1)
    cloud = PointCloud(np.concatenate([np.array([0.0 + 0.0j]), image]))
    if np.max(np.abs(cloud.points)) > 1.0 + 1e-12:
        raise DomainError("predicted points escaped the closed unit disc")
    return SpectralSet(
        cloud, {"t_max": T, "t_samples": t.size, "image_spacing": spacing}, image
    )


def _nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of a to the nearest point of b, taking a in
    blocks of rows so that no block of complex differences holds more than
    BLOCK_BYTES, or one row when |b| alone exceeds it."""
    rows = max(1, BLOCK_BYTES // (16 * b.size))
    return np.concatenate([
        np.min(np.abs(a[lo : lo + rows, None] - b[None, :]), axis=1)
        for lo in range(0, a.size, rows)
    ])


def directed_hausdorff(A: SpectralSet, B: SpectralSet) -> float:
    """max over a in A of the distance from a to B."""
    a = A.points.points
    b = B.points.points
    if a.size == 0 or b.size == 0:
        raise UsageError("directed Hausdorff distance needs nonempty sets")
    return float(np.max(_nearest_distances(a, b)))


def containment_verdict(predicted: SpectralSet, surrogate: SpectralSet) -> dict:
    """PASS iff every predicted point sits within tol of the surrogate.

    The tolerance combines the two discretization scales: twice the sum of
    the pseudospectrum grid step and the spiral image spacing.
    """
    if predicted.points.points.size == 0:
        raise UsageError("containment verdict needs a nonempty prediction")
    step = surrogate.params.get("grid_step", 0.0)
    spacing = predicted.params.get("image_spacing", 0.0)
    tol = 2.0 * (step + spacing)
    if surrogate.points.points.size == 0:
        return {
            "verdict": "FAIL",
            "distance": float("inf"),
            "tol": tol,
            "worst_point": None,
            "diagnostic": surrogate.params.get("diagnostic", "empty surrogate"),
            "predicted_params": predicted.params,
            "surrogate_params": surrogate.params,
        }
    a = predicted.points.points
    b = surrogate.points.points
    dists = _nearest_distances(a, b)
    worst = int(np.argmax(dists))
    dist = float(dists[worst])
    return {
        "verdict": "PASS" if dist <= tol else "FAIL",
        "distance": dist,
        "tol": tol,
        "worst_point": [float(a[worst].real), float(a[worst].imag)],
        "predicted_params": predicted.params,
        "surrogate_params": surrogate.params,
    }
