"""Spectral diagnostics and the spiral-set containment check.

Eigenvalues and epsilon-pseudospectra of discretized operators (computed on
the weighted similarity so the matrix represents the operator on the
quadrature-weighted space), a multi-size pseudospectrum intersection used as
a computable stand-in for the essential spectrum, and the predicted set
{exp(i(z1 t1 + z2 t2))} u {0} swept over cluster points.  The essential
spectrum itself is not finitely computable; the surrogate is this artifact's
operational definition and every verdict reports the sizes and epsilon that
produced it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .grids import DomainError
from .operators import OperatorMatrix, weighted_matrix
from .symbols import PointCloud, dedup_points


class UsageError(ValueError):
    """Operation called outside its contract."""


@dataclass
class SpectralSet:
    """Finite point cloud tagged with how it was produced."""

    points: PointCloud
    kind: str
    params: dict = field(default_factory=dict)
    # predicted-spiral only: the sweep image of each cluster pair, row-major
    # over (t1, t2), in pair order
    images: list = field(default_factory=list, repr=False)

    KINDS = (
        "eigenvalues",
        "pseudospectrum-level",
        "predicted-spiral",
        "essential-surrogate",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise UsageError(f"unknown spectral-set kind {self.kind!r}")
        if not np.all(np.isfinite(self.points.points)):
            raise UsageError("spectral set contains non-finite points")


@dataclass
class PseudospectrumMap:
    """sigma_min(lambda I - A) sampled over a complex rectangle."""

    region: tuple  # (re_min, re_max, im_min, im_max)
    resolution: tuple  # (n_re, n_im)
    values: np.ndarray  # shape (n_im, n_re)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.resolution[1], self.resolution[0]):
            raise UsageError("pseudospectrum values do not match resolution")
        if np.any(self.values < 0):
            raise UsageError("singular values cannot be negative")

    def grid(self) -> np.ndarray:
        re = np.linspace(self.region[0], self.region[1], self.resolution[0])
        im = np.linspace(self.region[2], self.region[3], self.resolution[1])
        return re[None, :] + 1j * im[:, None]

    @property
    def step(self) -> float:
        dre = (self.region[1] - self.region[0]) / (self.resolution[0] - 1)
        dim = (self.region[3] - self.region[2]) / (self.resolution[1] - 1)
        return max(dre, dim)

    def level_set(self, eps: float) -> SpectralSet:
        pts = self.grid()[self.values <= eps]
        return SpectralSet(
            PointCloud(pts.reshape(-1), "pseudospectrum-level"),
            "pseudospectrum-level",
            {"eps": eps, "region": self.region, "resolution": self.resolution},
        )


def eigenvalues(A: OperatorMatrix) -> SpectralSet:
    """Dense eigenvalue set of the weighted similarity of A."""
    if A.entries.shape[0] != A.entries.shape[1]:
        raise UsageError("eigenvalues need a square matrix")
    M = weighted_matrix(A)
    if A.is_diagonal():
        vals = np.diag(M).copy()
    else:
        vals = np.linalg.eigvals(M)
    return SpectralSet(
        PointCloud(vals, "eigenvalues"), "eigenvalues", {"dim": vals.size}
    )


def _threads() -> int:
    raw = os.environ.get("HARDY_SPEC_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _sigma_min_triangular(T: np.ndarray, lam: complex, iters: int = 30) -> float:
    """Smallest singular value of lam*I - T for triangular T via inverse
    power iteration on the normal equations (two triangular solves per
    step); standard pseudospectra workhorse, O(n^2) per grid point."""
    n = T.shape[0]
    B = lam * np.eye(n) - T
    if abs(np.min(np.abs(np.diag(B)))) < 1e-300:
        return 0.0
    v = np.ones(n, dtype=complex) / math.sqrt(n)
    est = 0.0
    for _ in range(iters):
        try:
            u = scipy.linalg.solve_triangular(B, v, lower=False)
            u = scipy.linalg.solve_triangular(
                B, u, lower=False, trans="C"
            )
        except np.linalg.LinAlgError:
            return 0.0
        nu = np.linalg.norm(u)
        if not np.isfinite(nu) or nu == 0.0:
            return 0.0
        new = 1.0 / math.sqrt(nu)
        v = u / nu
        if est > 0 and abs(new - est) <= 1e-4 * est:
            est = new
            break
        est = new
    return est


def pseudospectrum(
    A: OperatorMatrix,
    region: tuple,
    resolution: tuple,
    eps_list: Sequence[float] = (),
    dense_cutoff: int = 160,
) -> tuple[PseudospectrumMap, list[SpectralSet]]:
    """sigma_min(lambda I - A) on a rectangle, plus requested level sets.

    Diagonal matrices get the exact min |lambda - d_k| formula; small dense
    ones full SVDs; everything else one Schur factorization followed by
    per-point triangular inverse iteration.  Grid points are independent and
    mapped over HARDY_SPEC_THREADS workers with deterministic assembly.
    """
    if resolution[0] < 32 or resolution[1] < 32:
        raise UsageError("pseudospectrum resolution must be at least 32x32")
    re = np.linspace(region[0], region[1], resolution[0])
    im = np.linspace(region[2], region[3], resolution[1])
    lam = re[None, :] + 1j * im[:, None]
    M = weighted_matrix(A)
    if A.is_diagonal():
        d = np.diag(M)
        vals = np.min(
            np.abs(lam.reshape(-1)[:, None] - d[None, :]), axis=1
        ).reshape(lam.shape)
    elif M.shape[0] <= dense_cutoff:
        flat = lam.reshape(-1)

        def sv(l):
            return scipy.linalg.svdvals(l * np.eye(M.shape[0]) - M)[-1]

        with ThreadPoolExecutor(max_workers=_threads()) as ex:
            vals = np.fromiter(ex.map(sv, flat), dtype=float, count=flat.size)
        vals = vals.reshape(lam.shape)
    else:
        T = scipy.linalg.schur(M, output="complex")[0]
        flat = lam.reshape(-1)
        with ThreadPoolExecutor(max_workers=_threads()) as ex:
            vals = np.fromiter(
                ex.map(lambda l: _sigma_min_triangular(T, l), flat),
                dtype=float,
                count=flat.size,
            )
        vals = vals.reshape(lam.shape)
    pmap = PseudospectrumMap(tuple(region), tuple(resolution), vals)
    return pmap, [pmap.level_set(e) for e in eps_list]


def essential_spectrum_surrogate(
    builder: Callable[[int], OperatorMatrix],
    sizes: Sequence[int],
    eps: float,
    region: tuple,
    resolution: tuple = (64, 64),
) -> SpectralSet:
    """Stability-filtered pseudospectrum intersection across finite sections.

    Keeps the grid points whose sigma_min stays below eps at EVERY listed
    size.  An empty result is returned with a diagnostic rather than raised:
    it is a legitimate (if suspicious) outcome.
    """
    sizes = list(sizes)
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("surrogate needs at least 3 strictly increasing sizes")
    mask = None
    pmap = None
    per_size_counts = []
    for n in sizes:
        pmap, _ = pseudospectrum(builder(n), region, resolution)
        m = pmap.values <= eps
        per_size_counts.append(int(np.sum(m)))
        mask = m if mask is None else (mask & m)
    pts = pmap.grid()[mask].reshape(-1)
    params = {
        "sizes": sizes,
        "eps": eps,
        "region": tuple(region),
        "resolution": tuple(resolution),
        "grid_step": pmap.step,
        "per_size_counts": per_size_counts,
    }
    if pts.size == 0:
        params["diagnostic"] = (
            "empty intersection: no grid point stays below eps at all sizes; "
            f"per-size survivor counts {per_size_counts}"
        )
        cloud = PointCloud(np.empty(0, dtype=complex), "essential-surrogate")
    else:
        cloud = PointCloud(pts, "essential-surrogate")
    return SpectralSet(cloud, "essential-surrogate", params)


def predicted_set(
    cluster1: PointCloud,
    cluster2: PointCloud,
    t_grid: Optional[np.ndarray] = None,
    t_samples: int = 64,
    max_pairs: int = 64,
    seed: int = 0,
) -> SpectralSet:
    """{exp(i(z1 t1 + z2 t2))} over cluster pairs and a [0,T]^2 grid, u {0}.

    T defaults to 8 / min Im so the sweep reaches magnitudes below 3e-4 and
    the adjoined 0 is an honest closure proxy for t -> infinity.  Cluster
    pairs beyond max_pairs are subsampled deterministically.  The per-pair
    sweep images are kept in ``images``.
    """
    z1 = cluster1.points
    z2 = cluster2.points
    if z1.size == 0 or z2.size == 0:
        raise UsageError("predicted set needs nonempty clusters")
    if np.any(z1.imag <= 0) or np.any(z2.imag <= 0):
        raise DomainError("cluster points must have positive imaginary part")
    min_im = min(float(np.min(z1.imag)), float(np.min(z2.imag)))
    if t_grid is None:
        T = 8.0 / min_im
        t = np.linspace(0.0, T, t_samples)
    else:
        t = np.asarray(t_grid, dtype=float).reshape(-1)
        T = float(t.max())
    rng = np.random.default_rng(seed)
    if z1.size * z2.size > max_pairs:
        k = max(1, int(math.sqrt(max_pairs)))
        z1 = rng.choice(z1, size=min(k, z1.size), replace=False)
        z2 = rng.choice(z2, size=min(k, z2.size), replace=False)
    t1 = t[:, None]
    t2 = t[None, :]
    images = []
    spacing = 0.0
    for a in z1:
        for b in z2:
            img = np.exp(1j * (a * t1 + b * t2))
            if t.size > 1:
                spacing = max(
                    spacing,
                    float(np.max(np.abs(np.diff(img, axis=0)))),
                    float(np.max(np.abs(np.diff(img, axis=1)))),
                )
            images.append(img.reshape(-1))
    pts = dedup_points(np.concatenate([np.array([0.0 + 0.0j]), *images]))
    if np.max(np.abs(pts)) > 1.0 + 1e-12:
        raise DomainError("predicted points escaped the closed unit disc")
    return SpectralSet(
        PointCloud(pts, "predicted-spiral"),
        "predicted-spiral",
        {
            "t_max": T,
            "t_samples": t.size,
            "pairs": int(z1.size * z2.size),
            "image_spacing": spacing,
        },
        images,
    )


def directed_hausdorff(A: SpectralSet, B: SpectralSet) -> float:
    """max over a in A of the distance from a to B."""
    a = A.points.points
    b = B.points.points
    if a.size == 0 or b.size == 0:
        raise UsageError("directed Hausdorff distance needs nonempty sets")
    worst = 0.0
    for lo in range(0, a.size, 4096):
        blk = a[lo : lo + 4096]
        worst = max(
            worst,
            float(np.max(np.min(np.abs(blk[:, None] - b[None, :]), axis=1))),
        )
    return worst


def containment_verdict(
    predicted: SpectralSet,
    surrogate: SpectralSet,
    tol: Optional[float] = None,
) -> dict:
    """PASS iff every predicted point sits within tol of the surrogate.

    The default tolerance combines the two discretization scales: twice the
    sum of the pseudospectrum grid step and the spiral image spacing.
    """
    if predicted.points.points.size == 0:
        raise UsageError("containment verdict needs a nonempty prediction")
    if tol is None:
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
    dists = np.min(np.abs(a[:, None] - b[None, :]), axis=1)
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
