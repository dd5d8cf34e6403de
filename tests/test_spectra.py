import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import qpspec.spectra
from qpspec.cli import CONFIG_DIR, RunConfig
from qpspec.grids import ONE_NODE, DomainError, FrequencyGrid
from qpspec.operators import OperatorMatrix, op_norm, weigh, weighted_factors
from qpspec.series import QuasiParabolicMap, build_series, plan_for_map
from qpspec.spectra import (
    KRON_BLOCK,
    LANCZOS_BATCH,
    LANCZOS_MAX_STEPS,
    PseudospectrumMap,
    SpectralSet,
    UsageError,
    containment_verdict,
    directed_hausdorff,
    eigenvalues,
    essential_spectrum_surrogate,
    predicted_set,
    pseudospectrum,
    pseudospectrum_mask,
    _block_inverses,
    _coarsest_stride,
    _kron_solve,
    _sigma_min_lanczos,
    _top_ritz,
)
from qpspec.symbols import PointCloud, cluster_set, make_symbol


def _op(entries, grid):
    # a one-variable operator M on a grid g is the pair ([[1]], M) on (ONE_NODE, g)
    return OperatorMatrix((ONE_NODE, grid), [(np.ones((1, 1), dtype=complex),
                                              np.asarray(entries, dtype=complex))])


def _grid(n):
    return FrequencyGrid.uniform(1.0, n)


def _spec_set(pts, **params):
    return SpectralSet(PointCloud(np.asarray(pts, dtype=complex)), params)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_diagonal():
    g = _grid(5)
    d = np.array([1.0, 2.0, -1.0, 0.5j, 3.0 + 1.0j])
    out = eigenvalues(_op(np.diag(d), g))
    assert np.allclose(np.sort_complex(out.points.points), np.sort_complex(d))


def test_eigenvalues_nilpotent_shift():
    g = _grid(8)
    out = eigenvalues(_op(np.diag(np.ones(7), 1), g))
    assert np.max(np.abs(out.points.points)) < 1e-8


def test_eigenvalues_swap_matrix():
    g = _grid(2)
    out = eigenvalues(_op([[0.0, 1.0], [1.0, 0.0]], g))
    assert np.allclose(np.sort(out.points.points.real), [-1.0, 1.0], atol=1e-12)


def _factored_pair(kind):
    """A factored operator on 9 x 12 nodes and the same operator as two half
    pairs, which like any sum of several pairs is solved as ([[1]], M)."""
    rng = np.random.default_rng(7)
    grids = (FrequencyGrid.uniform(4.0, 9), FrequencyGrid.uniform(3.0, 12))
    factors = [
        rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        for g in grids
    ]
    if kind == "diagonal":
        factors = [np.diag(np.diag(F)) for F in factors]
    F1, F2 = factors
    return OperatorMatrix(grids, [factors]), OperatorMatrix(grids, [(F1 / 2, F2), (F1 / 2, F2)])


@pytest.mark.parametrize("kind", ["general", "diagonal"])
def test_factored_norm_and_eigenvalues_match_dense_kron(kind):
    A, dense = _factored_pair(kind)
    assert abs(op_norm(A) - op_norm(dense)) <= 1e-12 * op_norm(dense)
    got = np.sort_complex(eigenvalues(A).points.points)
    want = np.sort_complex(eigenvalues(dense).points.points)
    assert got.size == want.size == 108
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_factored_norm_and_eigenvalues_never_form_entries(monkeypatch):
    dense_entries = OperatorMatrix.entries.fget

    def entries(op):
        if len(op.terms) == 1:
            raise AssertionError("formed the entries of a factored operator")
        return dense_entries(op)

    A, _ = _factored_pair("general")
    monkeypatch.setattr(OperatorMatrix, "entries", property(entries))
    assert op_norm(A) > 0.0
    assert eigenvalues(A).points.points.size == 108


# ---------------------------------------------------------------------------
# pseudospectrum


def test_pseudospectrum_identity_is_distance_to_one():
    g = _grid(6)
    pmap, levels = pseudospectrum(
        _op(np.eye(6), g), (0.0, 2.0, -1.0, 1.0), (33, 33), eps_list=[0.25]
    )
    truth = np.abs(pmap.grid() - 1.0)
    assert np.max(np.abs(pmap.values - truth)) < 1e-12
    lv = levels[0].points.points
    assert np.all(np.abs(lv - 1.0) <= 0.25 + 1e-12)
    assert lv.size > 0


def test_pseudospectrum_diagonal_formula():
    g = _grid(4)
    d = np.array([0.0, 1.0, 1.0j, -0.5])
    pmap, _ = pseudospectrum(_op(np.diag(d), g), (-1.0, 1.5, -1.0, 1.5), (40, 40))
    lam = pmap.grid().reshape(-1)
    truth = np.min(np.abs(lam[:, None] - d[None, :]), axis=1).reshape(pmap.values.shape)
    assert np.max(np.abs(pmap.values - truth)) < 1e-12


def test_pseudospectrum_diagonal_branch_runs_per_chunk():
    # constant symbols give a diagonal operator; with N = 45^2 on a 64 x 64
    # grid the exact formula, evaluated by _nearest_distances in blocks of
    # lambda-points, never holds the whole (lambda-points x N) distance
    # matrix, and its values are unchanged
    qmap = QuasiParabolicMap(
        1.0, 1.0, make_symbol("i", 1.0, 1.0, "constant"), make_symbol("2*i", 2.0, 2.0, "constant")
    )
    g = FrequencyGrid.uniform(10.0, 45)
    A = build_series(qmap, plan_for_map(qmap), (g, g))
    tracemalloc.start()
    try:
        pmap, _ = pseudospectrum(A, (-1.1, 1.1, -1.1, 1.1), (64, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unchunked = 64 * 64 * 45**2 * 16  # bytes of the complex distance matrix
    assert peak < 0.5 * unchunked
    W1, W2 = weighted_factors(A)
    d = np.kron(np.diag(W1), np.diag(W2))
    lam = pmap.grid().reshape(-1)
    truth = np.min(np.abs(lam[:, None] - d[None, :]), axis=1).reshape(pmap.values.shape)
    assert np.array_equal(pmap.values, truth)


def test_pseudospectrum_jordan_block_singular_at_zero():
    g = _grid(9)
    J = np.diag(np.ones(8), 1)
    # odd resolution so lambda = 0 is a grid node
    pmap, _ = pseudospectrum(_op(J, g), (-0.5, 0.5, -0.5, 0.5), (33, 33))
    i0 = 16
    assert pmap.values[i0, i0] < 1e-10


def test_pseudospectrum_is_one_lipschitz():
    rng = np.random.default_rng(3)
    g = _grid(12)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    pmap, _ = pseudospectrum(_op(A, g), (-4.0, 4.0, -4.0, 4.0), (32, 32))
    h_re = 8.0 / 31
    assert np.max(np.abs(np.diff(pmap.values, axis=1))) <= h_re + 1e-9
    assert np.max(np.abs(np.diff(pmap.values, axis=0))) <= h_re + 1e-9


def _svd_sigma_min(A, pmap):
    """Reference: one dense SVD of lambda I - A per grid point."""
    M = weigh(A.entries, A.grid)
    eye = np.eye(M.shape[0])
    lam = pmap.grid().reshape(-1)
    vals = [scipy.linalg.svdvals(z * eye - M)[-1] for z in lam]
    return np.array(vals).reshape(pmap.values.shape)


def _assert_matches_svd(A, region, resolution, eps):
    pmap, levels = pseudospectrum(A, region, resolution, eps_list=[eps])
    ref = _svd_sigma_min(A, pmap)
    assert np.max(np.abs(pmap.values - ref) / ref) <= 1e-9
    assert np.array_equal(pmap.values <= eps, ref <= eps)
    assert levels[0].points.points.size == np.sum(ref <= eps)
    return pmap


def test_pseudospectrum_schur_path_matches_dense():
    rng = np.random.default_rng(11)
    g = _grid(40)
    A = rng.standard_normal((40, 40)) / 8.0
    _assert_matches_svd(_op(A, g), (-1.0, 1.0, -1.0, 1.0), (32, 32), 0.1)


def test_pseudospectrum_jordan_block_matches_svd():
    g = _grid(9)
    J = np.diag(np.ones(8), 1)
    pmap = _assert_matches_svd(_op(J, g), (-0.6, 1.0, -0.6, 1.0), (32, 32), 1e-3)
    assert pmap.stats["lanczos_max_steps"] > 0


def _catalog_series(name, n):
    cfg = RunConfig.load(CONFIG_DIR / f"{name}.json")
    qmap = cfg.qmap()
    op = build_series(qmap, plan_for_map(qmap, tol=cfg.plan_tol), cfg.fgrids(n))
    assert len(op.terms) == 1
    return op


@pytest.mark.parametrize("name, eps, side", [
    pytest.param("cay_quarter", 0.01, 32, id="cay_quarter-0.01"),
    pytest.param("separable_mix", 0.05, 32, id="separable_mix-0.05"),
    # 2,304 points share one lane queue
    pytest.param("cay_quarter", 0.01, 48, id="cay_quarter-0.01-48x48"),
])
def test_pseudospectrum_factored_matches_svd(name, eps, side):
    # cay_quarter's two factors are equal, so its runs are split into the
    # symmetric and antisymmetric halves of the Kronecker square
    op = _catalog_series(name, 8)
    pmap = _assert_matches_svd(op, (-1.1, 1.1, -1.1, 1.1), (side, side), eps)
    assert pmap.stats["lanczos_cap_hits"] == 0


def test_pseudospectrum_long_runs_match_svd():
    # runs of more than 32 Lanczos steps, so that lanes of many sizes share
    # each stacked Ritz call
    op = _catalog_series("separable_mix", 12)
    pmap = _assert_matches_svd(op, (-1.1, 1.1, -1.1, 1.1), (32, 32), 0.05)
    assert pmap.stats["lanczos_max_steps"] > 32


def _tridiagonal_top(a, b):
    return np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))[-1]


def test_top_ritz_matches_eigvalsh():
    # Lanczos-like tridiagonals (positive entries, one scale per lane) of
    # sizes 1 to 100 in one call; each lane passes the top value of its
    # block without the last row, 0 for the fresh lane of size 1
    rng = np.random.default_rng(7)
    m = np.array([1, 2, 3, 5, 17, 32, 33, 64, 99, 100, 100, 50, 20, 40])
    scale = 10.0 ** rng.integers(-3, 7, m.size)
    a = rng.uniform(0.5, 2.0, (LANCZOS_MAX_STEPS, m.size)) * scale
    b = rng.uniform(0.05, 1.0, (LANCZOS_MAX_STEPS, m.size)) * scale
    b[20, 11] = 0.0  # a zero off-diagonal inside a lane
    # a lane whose top value does not move: its last row is decoupled and
    # its diagonal entry lies below the top of the rows before it
    b[18, 12] = 0.0
    a[19, 12] = 0.25 * scale[12]
    a[m[13]:, 13] = np.inf  # entries past a lane's rows are never read
    prev = np.array([0.0 if k == 1 else _tridiagonal_top(a[: k - 1, j], b[: k - 2, j])
                     for j, k in enumerate(m)])
    ref = np.array([_tridiagonal_top(a[:k, j], b[: k - 1, j]) for j, k in enumerate(m)])
    assert abs(ref[12] - prev[12]) <= 1e-14 * ref[12]
    got = _top_ritz(a, b, m, prev)
    assert np.max(np.abs(got - ref) / ref) < 1e-14
    # one fresh lane alone is a 1 x 1 problem
    assert _top_ritz(a[:, :1], b[:, :1], m[:1], prev[:1]) == a[0, 0]
    # a lane with a non-finite entry reads NaN and leaves the others alone
    a[3, 9] = np.nan
    got = _top_ritz(a, b, m, prev)
    assert np.isnan(got[9])
    others = np.arange(m.size) != 9
    assert np.max(np.abs(got[others] - ref[others]) / ref[others]) < 1e-14


def _random_triangular(rng, n):
    """Upper triangular with unit-modulus diagonal and small off-diagonal
    entries, so that its shifted Kronecker systems are well conditioned."""
    U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) / n
    return U + np.diag(np.exp(2j * np.pi * rng.random(n)))


def _assert_block_inverses(inv, lam, U1, U2):
    """Every block of ``inv`` against np.linalg.inv of its padded block of
    lam I - U1[i,i] U2, to 1e-13 relative."""
    n2, w = U2.shape[0], inv.shape[-1]
    assert inv.shape[:3] == (U1.shape[0], -(-n2 // w), lam.size)
    for i in range(U1.shape[0]):
        for J in range(inv.shape[1]):
            lo, hi = J * w, min(J * w + w, n2)
            for k, z in enumerate(lam):
                D = np.eye(w, dtype=complex)
                D[: hi - lo, : hi - lo] = z * np.eye(hi - lo) - U1[i, i] * U2[lo:hi, lo:hi]
                ref = np.linalg.inv(D)
                assert np.linalg.norm(inv[i, J, k] - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "n1, n2", [(3, 6), (2, 12), (2, 16), (2, 17), (3, 24), (2, 33), (1, 12), (1, 33)]
)
def test_block_inverses_match_dense_inverses(n1, n2):
    # a row of at most 2 KRON_BLOCK entries is one block; longer rows take
    # blocks of KRON_BLOCK, the last one padded with the identity at 17 and
    # 33; n1 = 1 is an unfactored operator ([[1]], M)
    rng = np.random.default_rng(n1 * 100 + n2)
    U1 = np.ones((1, 1), dtype=complex) if n1 == 1 else _random_triangular(rng, n1)
    U2 = _random_triangular(rng, n2)
    lam = 1.5 * np.exp(2j * np.pi * rng.random(5))
    inv = _block_inverses(lam, U1, U2)
    assert inv.shape[-1] == (n2 if n2 <= 2 * KRON_BLOCK else KRON_BLOCK)
    _assert_block_inverses(inv, lam, U1, U2)


@pytest.mark.parametrize("n2", [12, 20])
def test_block_inverses_refill_only_the_chosen_lanes(n2):
    rng = np.random.default_rng(n2)
    U1, U2 = _random_triangular(rng, 4), _random_triangular(rng, n2)
    inv = _block_inverses(1.5 * np.exp(2j * np.pi * rng.random(6)), U1, U2)
    before = inv.copy()
    lanes = np.array([4, 1])
    lam = 1.5 * np.exp(2j * np.pi * rng.random(2))
    assert _block_inverses(lam, U1, U2, out=inv, lanes=lanes) is inv
    kept = [0, 2, 3, 5]
    assert np.array_equal(inv[:, :, kept], before[:, :, kept])
    _assert_block_inverses(inv[:, :, lanes], lam, U1, U2)


def test_block_inverses_hold_no_second_cache():
    # the inverses are written into the cache, chunk by chunk of rows, from
    # a scratch no larger than one n^2-by-lanes state array
    n, lanes = 24, LANCZOS_BATCH
    rng = np.random.default_rng(2)
    T1, T2 = _random_triangular(rng, n), _random_triangular(rng, n)
    lam = 1.5 * np.exp(2j * np.pi * rng.random(lanes))
    cache = n * -(-n // KRON_BLOCK) * lanes * KRON_BLOCK**2 * 16
    state = n * n * lanes * 16
    tracemalloc.start()
    try:
        inv = _block_inverses(lam, T1, T2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv.nbytes == cache
    assert peak < cache + 2 * state


@pytest.mark.parametrize("lanes", [1, 5])
@pytest.mark.parametrize(
    "n1, n2", [(1, 6), (6, 1), (5, 7), (12, 12), (17, 9), (5, 20), (3, 33), (1, 20)]
)
def test_kron_solve_matches_dense_solve(n1, n2, lanes):
    # rows of 7, 9 and 12 entries are one block each; rows of 20 and 33
    # entries take blocks of KRON_BLOCK, the last one narrower; (1, 6) and
    # (1, 20) are unfactored operators ([[1]], M), and (6, 1) the same
    # matrix as (M, [[1]])
    rng = np.random.default_rng(n1 * 100 + n2 * 10 + lanes)
    U1, U2 = _random_triangular(rng, n1), _random_triangular(rng, n2)
    lam = 1.5 * np.exp(2j * np.pi * rng.random(lanes))
    B = rng.standard_normal((n1, n2, lanes)) + 1j * rng.standard_normal((n1, n2, lanes))
    inv = _block_inverses(lam, U1, U2)
    K = np.kron(U1, U2)
    for adjoint in (False, True):
        L1, L2 = (U1.conj().T, U2.conj().T) if adjoint else (U1, U2)
        X = _kron_solve(L1, L2, inv, B.copy(), adjoint=adjoint)
        for k in range(lanes):
            M = lam[k] * np.eye(n1 * n2) - K
            ref = np.linalg.solve(M.conj().T if adjoint else M, B[:, :, k].reshape(-1))
            x = X[:, :, k].reshape(-1)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_adjoint_kron_solve_copies_no_factor():
    # the adjoint sweep takes the factors' adjoints as given: one solve of
    # an unfactored operator ([[1]], M) at N = 576 holds far less than the
    # 5.3 MB of one N x N complex array
    rng = np.random.default_rng(3)
    n, lanes = 576, 4
    U1, U2 = np.ones((1, 1), dtype=complex), _random_triangular(rng, n)
    lam = 1.5 * np.exp(2j * np.pi * rng.random(lanes))
    inv = _block_inverses(lam, U1, U2)
    H1, H2 = U1.conj().T, U2.conj().T
    B = rng.standard_normal((1, n, lanes)) + 1j * rng.standard_normal((1, n, lanes))
    tracemalloc.start()
    try:
        _kron_solve(H1, H2, inv, B, adjoint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16


def test_unfactored_operator_is_solved_in_row_blocks():
    # an unfactored operator is the pair ([[1]], M): each Kronecker solve
    # takes ceil(N / KRON_BLOCK) block steps, and sigma_min agrees with the
    # dense SVD and with the one-row-at-a-time order (M, [[1]])
    rng = np.random.default_rng(7)
    n = 20
    A = _op(rng.standard_normal((n, n)) / 6.0 + 1j * rng.standard_normal((n, n)) / 6.0, _grid(n))
    W1, W2 = weighted_factors(A)
    assert W1.shape == (1, 1) and W2.shape == (n, n)
    lam = rng.uniform(-1.1, 1.1, 40) + 1j * rng.uniform(-1.1, 1.1, 40)
    T = scipy.linalg.schur(W2, output="complex")[0]
    one = np.ones((1, 1), dtype=complex)
    assert _block_inverses(lam[:1], one, T).shape[:2] == (1, -(-n // KRON_BLOCK))
    start = rng.standard_normal(n) + 0j
    start /= np.linalg.norm(start)
    blocked = _sigma_min_lanczos(lam, one, T, [start.reshape(1, n)])[0]
    by_rows = _sigma_min_lanczos(lam, T, one, [start.reshape(n, 1)])[0]
    M = weigh(A.entries, A.grid)
    ref = np.array([scipy.linalg.svdvals(z * np.eye(n) - M)[-1] for z in lam])
    assert np.max(np.abs(blocked - ref) / ref) <= 1e-12
    assert np.max(np.abs(blocked - by_rows) / by_rows) <= 1e-12
    assert np.max(np.abs(qpspec.spectra._sigma_min_kernel(A)(lam)[0] - ref) / ref) <= 1e-12


def test_lanczos_holds_one_cache_of_block_inverses():
    # twice LANCZOS_BATCH points, so finished lanes are refilled and then
    # compacted; the cache holds n ceil(n / w) w x w inverses per lane, and
    # the state arrays (the Lanczos vectors, the solve's copy, temporaries)
    # are a few n^2-by-LANCZOS_BATCH arrays.  A second cache, or a
    # compaction that copies the cache, adds about 8 of those
    n = 24
    rng = np.random.default_rng(5)
    T1, T2 = _random_triangular(rng, n), _random_triangular(rng, n)
    lam = rng.uniform(-1.1, 1.1, 2 * LANCZOS_BATCH) + 1j * rng.uniform(-1.1, 1.1, 2 * LANCZOS_BATCH)
    start = rng.standard_normal((n, n)) + 0j
    start /= np.linalg.norm(start)
    w = min(KRON_BLOCK, n)
    cache = n * -(-n // w) * LANCZOS_BATCH * w * w * 16
    state = n * n * LANCZOS_BATCH * 16
    tracemalloc.start()
    try:
        sig, steps, capped = _sigma_min_lanczos(lam, T1, T2, [start])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cache + 8 * state
    assert np.all(sig > 0) and not np.any(capped)


def test_pseudospectrum_resolution_guard():
    g = _grid(3)
    with pytest.raises(UsageError):
        pseudospectrum(_op(np.eye(3), g), (0.0, 1.0, 0.0, 1.0), (16, 40))


def test_pseudospectrum_map_validation():
    with pytest.raises(UsageError):
        PseudospectrumMap((0.0, 1.0, 0.0, 1.0), (4, 4), -np.ones((4, 4)))
    with pytest.raises(UsageError):
        PseudospectrumMap((0.0, 1.0, 0.0, 1.0), (4, 4), np.ones((4, 5)))


# ---------------------------------------------------------------------------
# what the sections converge to, on one axis factor
#
# The frequency grid is [0, T] at every size, so a per-axis factor W_n is a
# discretization of M_{e^{ict}} + K on L^2(0, T), c the axis's cluster point
# and K compact: its essential spectrum is the arc P_T = {e^{ict} : t <= T}.


def _axis_factor(qmap, extent, n):
    """The first axis factor S1 of a per-axis map's series on n nodes over
    [0, extent], as a one-axis operator, and its cluster point c."""
    g = FrequencyGrid.uniform(extent, n)
    S1 = build_series(qmap, plan_for_map(qmap), (g, g)).terms[0][0]
    return _op(S1, g), complex(cluster_set(qmap.psi1).points[0])


def _arc_distance(c, extent, points):
    """Distance from each point to P_T = {e^{ict} : 0 <= t <= extent}, from a
    sampling of the arc at steps of 1e-4 in t (its speed |c e^{ict}| is at
    most |c|, so the error is below 1e-4 |c|)."""
    arc = np.exp(1j * c * np.linspace(0.0, extent, int(extent * 1e4) + 1))
    return np.array([np.min(np.abs(p - arc)) for p in points])


def _envelope_slope(qmap, extent, t_arc, sizes):
    """Log-log slope over ``sizes`` of the largest sigma_min(lambda I - W_n)
    over the points e^{ict} of P at the parameters ``t_arc``."""
    envelope = []
    for n in sizes:
        A, c = _axis_factor(qmap, extent, n)
        vals = qpspec.spectra._sigma_min_kernel(A)(np.exp(1j * c * t_arc))[0]
        envelope.append(vals.max())
    return np.polyfit(np.log(sizes), np.log(envelope), 1)[0]


def test_axis_factor_minus_its_multiplier_has_converged_singular_values():
    # W_n - diag(e^{ict_j}) discretizes the compact K: its five largest
    # singular values (0.129, 0.075, 0.052, 0.039, 0.031) agree at
    # n = 128, 256 and 512 to well within 2 %
    qmap = RunConfig.load(CONFIG_DIR / "cay_quarter.json").qmap()
    top = []
    for n in (128, 256, 512):
        A, c = _axis_factor(qmap, 10.0, n)
        K = weigh(A.entries, A.grid) - np.diag(np.exp(1j * c * A.grid[1].nodes))
        top.append(scipy.linalg.svdvals(K)[:5])
    top = np.array(top)
    assert np.max(top.max(axis=0) / top.min(axis=0)) <= 1.02
    assert top[-1, 0] > 0.1


def test_arc_beyond_the_grid_extent_does_not_resolve():
    # a negative control for the arc witness: psi = 0.25i + 0.1 cay(z) on
    # both axes has c = 0.1 + 0.25i, and its P arc over t in [5, 7] lies
    # beyond T = 4, where sigma_min plateaus (slope about 0, at 0.194); on
    # the grid of extent T = 10 the same arc resolves (slope about -1.9)
    psi1, psi2 = (make_symbol(f"0.25*i + 0.1*cay({z})", 0.15, 0.35, "continuous-on-closure")
                  for z in ("z1", "z2"))
    qmap = QuasiParabolicMap(1.0, 1.0, psi1, psi2)
    t_arc = np.linspace(5.0, 7.0, 64)
    sizes = (64, 128, 256)
    assert _envelope_slope(qmap, 4.0, t_arc, sizes) >= -0.25
    assert _envelope_slope(qmap, 10.0, t_arc, sizes) <= -0.5


def test_sigma_min_off_the_arc_is_the_distance_to_the_arc():
    # on cay_quarter's mirror arc -conj(e^{ict}), t in [0.25, 3], at n = 256
    # sigma_min(lambda I - W_n) is dist(lambda, P_T) to within 2 % (ratios
    # 0.993 to 0.9996), although most of these runs stop at the step cap
    qmap = RunConfig.load(CONFIG_DIR / "cay_quarter.json").qmap()
    A, c = _axis_factor(qmap, 10.0, 256)
    mirror = -np.conj(np.exp(1j * c * np.linspace(0.25, 3.0, 200)))
    vals = qpspec.spectra._sigma_min_kernel(A)(mirror)[0]
    ratio = vals / _arc_distance(c, 10.0, mirror)
    assert np.all(np.abs(ratio - 1.0) <= 0.02)


# ---------------------------------------------------------------------------
# essential-spectrum surrogate


def test_surrogate_identity_builder():
    def builder(n):
        return _op(np.eye(n), _grid(n))

    out = essential_spectrum_surrogate(
        builder, [8, 12, 16], 0.05, (0.5, 1.5, -0.5, 0.5), (33, 33)
    )
    pts = out.points.points
    assert pts.size > 0
    assert np.max(np.abs(pts - 1.0)) <= 0.05 + 1e-12
    assert out.params["per_size_counts"][0] == pts.size


def test_surrogate_decay_multiplier_fills_unit_interval():
    # diag(e^{-t_k}) on refining grids: finite sections sample (e^{-X}, 1]
    # and the stable set hugs the real segment [0, 1]
    def builder(n):
        g = FrequencyGrid.uniform(12.0, n)
        return _op(np.diag(np.exp(-g.nodes)), g)

    out = essential_spectrum_surrogate(
        builder, [48, 64, 96], 0.05, (-0.2, 1.2, -0.2, 0.2), (57, 33)
    )
    pts = out.points.points
    assert pts.size > 0
    assert np.max(np.abs(pts.imag)) <= 0.05 + 1e-12
    assert np.min(pts.real) <= 0.1 and np.max(pts.real) >= 0.9
    mid = np.min(np.abs(pts - 0.5))
    assert mid <= 0.06


def test_surrogate_records_lanczos_work_per_size():
    rng = np.random.default_rng(5)

    def builder(n):
        return _op(rng.standard_normal((n, n)) / n, _grid(n))

    out = essential_spectrum_surrogate(
        builder, [8, 12, 16], 0.05, (-1.0, 1.0, -1.0, 1.0), (32, 32)
    )
    steps = out.params["lanczos_max_steps"]
    assert len(steps) == 3 and all(0 < s <= LANCZOS_MAX_STEPS for s in steps)
    assert out.params["lanczos_cap_hits"] == [0, 0, 0]
    diag = essential_spectrum_surrogate(
        lambda n: _op(np.eye(n), _grid(n)), [8, 12, 16], 0.05, (0.5, 1.5, -0.5, 0.5), (33, 33)
    )
    assert diag.params["lanczos_max_steps"] == [0, 0, 0]


def test_surrogate_size_list_guard():
    def builder(n):
        return _op(np.eye(n), _grid(n))

    with pytest.raises(UsageError):
        essential_spectrum_surrogate(builder, [8, 12], 0.1, (0.0, 2.0, -1.0, 1.0))
    with pytest.raises(UsageError):
        essential_spectrum_surrogate(builder, [8, 12, 12], 0.1, (0.0, 2.0, -1.0, 1.0))


def test_surrogate_empty_is_diagnosed_not_raised():
    def builder(n):
        return _op(np.eye(n), _grid(n))

    # region far from the spectrum {1}: no survivors at any size
    out = essential_spectrum_surrogate(
        builder, [8, 12, 16], 1e-6, (5.0, 6.0, 5.0, 6.0), (33, 33)
    )
    assert out.points.points.size == 0
    assert "diagnostic" in out.params
    assert out.params["per_size_counts"] == [0, 0, 0]


def test_surrogate_antitone_in_eps():
    def builder(n):
        g = FrequencyGrid.uniform(6.0, n)
        return _op(np.diag(np.exp(-g.nodes)), g)

    args = ([16, 24, 32], (-0.2, 1.2, -0.2, 0.2), (41, 33))
    small = essential_spectrum_surrogate(builder, args[0], 0.02, args[1], args[2])
    large = essential_spectrum_surrogate(builder, args[0], 0.1, args[1], args[2])
    a = small.points.points
    b = large.points.points
    assert a.size <= b.size
    if a.size:
        assert np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)) == 0.0


# ---------------------------------------------------------------------------
# coarse-to-fine level masks

CATALOG_REGION = (-1.1, 1.1, -1.1, 1.1)
# the verify_small configs of the benchmark and their eps
VERIFY_SMALL = [("cay_quarter", 1e-2), ("separable_mix", 5e-2)]


def _assert_mask_matches_full_grid(A, region, resolution, eps):
    mask, stats = pseudospectrum_mask(A, region, resolution, eps)
    pmap, _ = pseudospectrum(A, region, resolution)
    assert np.array_equal(mask, pmap.values <= eps)
    assert 0 < stats["lambda_evaluated"] <= resolution[0] * resolution[1]
    assert stats["lanczos_max_steps"] <= pmap.stats["lanczos_max_steps"]
    assert stats["lanczos_cap_hits"] <= pmap.stats["lanczos_cap_hits"]
    return stats


def test_mask_stride_schedule_follows_resolution():
    assert _coarsest_stride((32, 32)) == 8
    assert _coarsest_stride((129, 129)) == 32
    assert _coarsest_stride((40, 33)) == 8
    assert _coarsest_stride((64, 31)) == 4


@pytest.mark.parametrize("resolution", [(32, 32), (64, 64)])
@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("name, eps", VERIFY_SMALL)
def test_mask_matches_full_grid_on_catalog_maps(name, eps, n, resolution):
    _assert_mask_matches_full_grid(_catalog_series(name, n), CATALOG_REGION, resolution, eps)


def test_mask_matches_full_grid_on_diagonal_operator():
    # exact values; a non-square grid over an off-centre rectangle
    rng = np.random.default_rng(2)
    d = rng.uniform(-1.0, 1.0, 30) + 1j * rng.uniform(-1.0, 1.0, 30)
    stats = _assert_mask_matches_full_grid(
        _op(np.diag(d), _grid(30)), (-1.2, 1.0, -0.8, 1.4), (48, 40), 0.05
    )
    assert stats["lanczos_max_steps"] == 0 and stats["lanczos_cap_hits"] == 0
    assert stats["lambda_evaluated"] < 48 * 40


def test_mask_matches_full_grid_with_step_cap_hits(monkeypatch):
    # a run stopped at the cap over-estimates sigma_min, so it must exclude
    # no neighbour; the mask still equals the full grid's at the same cap
    # (at this cap, letting capped runs exclude loses two points in)
    monkeypatch.setattr(qpspec.spectra, "LANCZOS_MAX_STEPS", 4)
    op = _catalog_series("separable_mix", 12)
    stats = _assert_mask_matches_full_grid(op, CATALOG_REGION, (32, 32), 5e-2)
    assert stats["lanczos_cap_hits"] > 0


@pytest.mark.parametrize("name, eps", VERIFY_SMALL)
def test_mask_evaluates_at_most_a_quarter_of_the_grid(name, eps):
    _, stats = pseudospectrum_mask(_catalog_series(name, 8), CATALOG_REGION, (32, 32), eps)
    assert stats["lambda_evaluated"] <= 32 * 32 // 4


def test_surrogate_reports_points_evaluated_per_size():
    def builder(n):
        return _op(np.eye(n), _grid(n))

    args = ([8, 12, 16], 0.05, (0.5, 1.5, -0.5, 0.5), (33, 33))
    out = essential_spectrum_surrogate(builder, *args)
    stats = pseudospectrum_mask(builder(8), args[2], args[3], args[1])[1]
    assert out.params["lambda_evaluated"] == [stats["lambda_evaluated"]] * 3
    assert 0 < stats["lambda_evaluated"] < 33 * 33


# ---------------------------------------------------------------------------
# predicted set


def test_predicted_set_pure_decay_cluster():
    # min Im = 1, so T = 8 and the t-grid is linspace(0, 8, 65)
    out = predicted_set(1.0j, 1.0j, t_samples=65)
    pts = out.points.points
    # t1 = t2 = 1 lands exactly on e^{-2}
    assert np.min(np.abs(pts - np.exp(-2.0))) < 1e-12
    assert np.min(np.abs(pts - 1.0)) < 1e-12  # t = 0
    assert np.min(np.abs(pts)) < 1e-12  # adjoined closure point


def test_predicted_set_spiral_hits_negative_axis():
    # T = 8 and t = (0, 8): at t1 = 8, t2 = 0 the image is exp(i pi - 8)
    z = np.pi / 8.0 + 1.0j
    out = predicted_set(z, z, t_samples=2)
    pts = out.points.points
    assert np.min(np.abs(pts - (-np.exp(-8.0)))) < 1e-12


def test_predicted_set_lives_in_closed_unit_disc():
    out = predicted_set(0.5 + 0.7j, 1.0 + 2.0j, t_samples=48)
    pts = out.points.points
    assert np.max(np.abs(pts)) <= 1.0 + 1e-12
    assert out.params["image_spacing"] > 0.0
    assert out.params["t_max"] == pytest.approx(8.0 / 0.7)
    # the sweep image is kept row-major over (t1, t2), t = 0 first
    assert out.image.shape == (48 * 48,)
    assert out.image[0] == 1.0


def test_predicted_set_rejects_bad_clusters():
    with pytest.raises(DomainError):
        predicted_set(1.0j, 1.0 - 0.1j)
    with pytest.raises(DomainError):
        predicted_set(1.0, 1.0j)


# ---------------------------------------------------------------------------
# distances and verdicts


def test_directed_hausdorff_known_values():
    A = _spec_set([0.0, 3.0])
    B = _spec_set([1.0])
    assert directed_hausdorff(A, B) == pytest.approx(2.0)
    assert directed_hausdorff(B, A) == pytest.approx(1.0)


def test_directed_hausdorff_zero_on_subset():
    A = _spec_set([1.0j, 2.0])
    B = _spec_set([1.0j, 2.0, -5.0])
    assert directed_hausdorff(A, B) == 0.0


def test_directed_hausdorff_rejects_empty():
    with pytest.raises(UsageError):
        directed_hausdorff(_spec_set([]), _spec_set([1.0]))


def test_containment_verdict_pass_and_fail():
    pred = _spec_set([1.0, 0.5], image_spacing=0.01)
    near = _spec_set([1.005, 0.5], grid_step=0.01)
    far = _spec_set([3.0], grid_step=0.01)
    ok = containment_verdict(pred, near)
    assert ok["verdict"] == "PASS"
    assert ok["tol"] == pytest.approx(2.0 * 0.02)
    assert ok["distance"] == pytest.approx(0.005)
    bad = containment_verdict(pred, far)
    assert bad["verdict"] == "FAIL"
    assert bad["worst_point"] == [0.5, 0.0]


def test_containment_verdict_empty_surrogate_fails():
    pred = _spec_set([1.0], image_spacing=0.01)
    empty = _spec_set([], grid_step=0.01, diagnostic="empty intersection")
    out = containment_verdict(pred, empty)
    assert out["verdict"] == "FAIL"
    assert out["distance"] == float("inf")
    with pytest.raises(UsageError):
        containment_verdict(_spec_set([], image_spacing=0.0), empty)


def test_containment_verdict_matches_brute_force_across_blocks():
    # more predicted points than one block of _nearest_distances rows; the
    # largest distance is attained exactly at -0.9+0.3i and 0.9+0.3i, which
    # the (re, im) order puts in different blocks: the first index wins, as
    # in one argmax
    rng = np.random.default_rng(5)
    r = 0.7 * np.sqrt(rng.uniform(size=10000))
    inner = r * np.exp(2j * np.pi * rng.uniform(size=10000))
    pred = _spec_set(np.concatenate([inner, [-0.9 + 0.3j, 0.9 + 0.3j]]))
    c = 0.1 * np.exp(1j * np.pi * rng.uniform(size=20))
    # tol = 2 * grid_step = 1.0
    surr = _spec_set(np.concatenate([c, -c.conj()]), grid_step=0.5)
    a, b = pred.points.points, surr.points.points
    dists = np.min(np.abs(a[:, None] - b[None, :]), axis=1)
    ties = np.flatnonzero(dists == dists.max())
    rows = qpspec.spectra.BLOCK_BYTES // (16 * b.size)
    assert a.size > rows
    assert len({k // rows for k in ties}) == 2
    out = containment_verdict(pred, surr)
    assert out["distance"] == float(dists.max()) == directed_hausdorff(pred, surr)
    assert out["worst_point"] == [-0.9, 0.3]


def test_containment_verdict_explicit_tol():
    # tol = 2 * (grid_step + image_spacing): 0.3 passes distance 0.2, 0.1 fails it
    pred = _spec_set([1.0], image_spacing=0.1)
    surr = _spec_set([1.2], grid_step=0.05)
    assert containment_verdict(pred, surr)["verdict"] == "PASS"
    pred = _spec_set([1.0], image_spacing=0.05)
    surr = _spec_set([1.2], grid_step=0.0)
    assert containment_verdict(pred, surr)["verdict"] == "FAIL"
