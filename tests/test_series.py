import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_laguerre

import qpspec.operators
import qpspec.series
import qpspec.spectra
from qpspec.cli import CONFIG_DIR, RunConfig
from qpspec.grids import (
    BLOCK_BYTES,
    BoundaryGrid,
    DomainError,
    FrequencyGrid,
    bochner_matrix,
    grid_weights,
)
from qpspec.operators import dilation, toeplitz_halfplane, weigh
from qpspec.series import (
    HARDY_TEST_COUNT,
    QuasiParabolicMap,
    SeriesError,
    SeriesPlan,
    build_series,
    choose_alpha,
    default_norm_estimates,
    delta_of_alpha,
    direct_composition_apply,
    exact_constant_multiplier,
    hardy_test_family,
    plan_for_map,
    remainder_bound,
    series_direct_residual,
    truncation_order,
    vartheta_symbol,
    _boundary_phi_values,
    _rational_vectors,
)
from qpspec.symbols import AnalyticSymbol, SepExpr, make_symbol, parse_symbol_expression

CONST_I = make_symbol("i", 0.9, 1.1, "constant")
CONST_2I = make_symbol("2*i", 1.9, 2.1, "constant")


def _const_map():
    return QuasiParabolicMap(1.0, 1.0, CONST_I, CONST_2I)


# ---------------------------------------------------------------------------
# alpha selection


def test_choose_alpha_single_point():
    # K = {1+i}: minimize sqrt(1+(a-1)^2)/a analytically -> a=2, d=sqrt(2)/2
    alpha, delta = choose_alpha(np.array([1.0 + 1.0j]))
    assert abs(alpha - 2.0) < 1e-6
    assert abs(delta - np.sqrt(2.0) / 2.0) < 1e-8


def test_choose_alpha_two_point_minimax():
    # K = {i, 3i}: objective max(|a-1|, |a-3|)/a, minimized at the
    # crossover a = 2 where both branches give 1/2
    alpha, delta = choose_alpha(np.array([1.0j, 3.0j]))
    assert abs(alpha - 2.0) < 1e-5
    assert abs(delta - 0.5) < 1e-8


def test_choose_alpha_matches_brute_scan():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pts = rng.uniform(-3, 3, 12) + 1j * rng.uniform(0.2, 4.0, 12)
        alpha, delta = choose_alpha(pts)
        scan = np.exp(np.linspace(np.log(0.05), np.log(200.0), 20000))
        best = min(delta_of_alpha(a, pts) for a in scan)
        assert delta <= best + 1e-6


def test_choose_alpha_rejects_bad_clouds():
    with pytest.raises(DomainError):
        choose_alpha(np.array([1.0 - 0.5j]))
    with pytest.raises(DomainError):
        choose_alpha(np.array([], dtype=complex))


@given(
    st.lists(
        st.tuples(st.floats(-3, 3), st.floats(0.3, 4.0)), min_size=1, max_size=8
    )
)
@settings(max_examples=40, deadline=None)
def test_choose_alpha_never_beaten_nearby(pairs):
    pts = np.array([x + 1j * y for x, y in pairs])
    alpha, delta = choose_alpha(pts)
    for bump in (0.97, 0.99, 1.01, 1.03):
        assert delta <= delta_of_alpha(alpha * bump, pts) + 1e-9


# ---------------------------------------------------------------------------
# remainder certificate


def _unit_plan(delta, n1, n2):
    est = {
        "T_tau1": 1.0,
        "T_tau2": 1.0,
        "C_phi1": 1.0,
        "C_phi2": 1.0,
        "C_phi": 1.0,
    }
    return SeriesPlan(1.0, delta, n1, n2, est)


def test_remainder_reference_value():
    # delta=1/2, N=10, unit norms: 2 * (1/2)^10 + (1/2)^20
    plan = _unit_plan(0.5, 10, 10)
    assert abs(remainder_bound(plan) - 1.95407867431640625e-3) < 1e-12


def test_remainder_monotone_in_order():
    vals = [remainder_bound(_unit_plan(0.5, n, n)) for n in range(2, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_remainder_vanishes_with_delta():
    assert remainder_bound(_unit_plan(1e-12, 4, 4)) < 1e-40


def test_truncation_order_meets_tolerance():
    for tol in (1e-3, 1e-6, 1e-9):
        n = truncation_order(0.5, tol)
        assert remainder_bound(_unit_plan(0.5, n, n)) <= tol
        assert remainder_bound(_unit_plan(0.5, n - 1, n - 1)) > tol


def test_truncation_order_cap(monkeypatch):
    assert truncation_order(0.999, 1e-12) == qpspec.series.TRUNCATION_CAP
    monkeypatch.setattr(qpspec.series, "TRUNCATION_CAP", 25)
    assert truncation_order(0.999, 1e-12) == 25


def test_plan_json_roundtrip():
    plan = plan_for_map(_const_map(), tol=1e-6)
    again = json.loads(json.dumps(plan.as_dict()))
    assert again["alpha"] == plan.alpha
    assert again["delta"] == plan.delta
    assert (again["n1"], again["n2"]) == (plan.n1, plan.n2)
    assert again["norm_estimates"] == plan.norm_estimates
    assert again["remainder_bound"] == plan.remainder


def test_plan_for_map_certificate_is_usable():
    plan = plan_for_map(_const_map(), tol=1e-8)
    assert 0.0 < plan.delta < 1.0
    assert plan.remainder <= 1e-8 * max(v for v in plan.norm_estimates.values())


# ---------------------------------------------------------------------------
# multiplier families


def test_vartheta_low_orders():
    t = np.linspace(0.0, 5.0, 41)
    f0 = vartheta_symbol(0, 2.0)
    f1 = vartheta_symbol(1, 2.0)
    assert np.allclose(f0(t), np.exp(-2.0 * t))
    assert np.allclose(f1(t), -1j * t * np.exp(-2.0 * t))


def test_vartheta_sup_matches_numeric_max():
    # |vartheta_n| peaks at t = n / alpha with value (n / (e alpha))^n / n!
    t = np.linspace(0.0, 60.0, 400001)
    for n in (0, 1, 3, 7):
        vals = np.abs(vartheta_symbol(n, 1.5)(t))
        sup = (n / (np.e * 1.5)) ** n / math.factorial(n)
        assert abs(sup - vals.max()) < 1e-6


def test_vartheta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        vartheta_symbol(-1, 1.0)
    with pytest.raises(DomainError):
        vartheta_symbol(0, 0.0)


# ---------------------------------------------------------------------------
# series construction


def test_constant_symbols_collapse_to_exact_multiplier():
    qmap = _const_map()
    plan = plan_for_map(qmap, tol=1e-10)
    fg = (FrequencyGrid.uniform(8.0, 24), FrequencyGrid.uniform(8.0, 20))
    op = build_series(qmap, plan, fg)
    exact = exact_constant_multiplier(1.0j, 2.0j, fg)
    assert np.max(np.abs(op.entries - exact.entries)) < 1e-10


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("p1", [1.0, 2.0])
@pytest.mark.parametrize(
    "two_var, per_axis",
    [("i + 0.25*cay(z1) + 0*cay(z2)", "i + 0.25*cay(z1)"), ("i + 0*cay(z2)", "i")],
)
def test_dense_series_matches_per_axis_series(two_var, per_axis, p1, n):
    # a zero term in z2 sends psi1 through the two-variable summation
    # without changing the operator the per-axis summation builds
    psi_dense = make_symbol(two_var, 0.7, 1.3, "continuous-on-closure")
    psi_axis = make_symbol(per_axis, 0.7, 1.3, "continuous-on-closure")
    assert psi_dense.expr.single_variable() not in (0, 1)
    axis = QuasiParabolicMap(p1, 1.0, psi_axis, CONST_2I)
    dense = QuasiParabolicMap(p1, 1.0, psi_dense, CONST_2I)
    plan = plan_for_map(axis)
    fg = (FrequencyGrid.uniform(8.0, n),) * 2
    diff = build_series(dense, plan, fg).entries - build_series(axis, plan, fg).entries
    assert np.max(np.abs(diff)) < 1e-14


@pytest.mark.parametrize(
    "name", ["cay_quarter", "constants_basic", "dilation_case", "separable_mix"]
)
def test_per_axis_series_keeps_kron_factors(name):
    # the per-axis branch keeps the factors of its entries, dilation included
    cfg = RunConfig.load(CONFIG_DIR / f"{name}.json")
    qmap = cfg.qmap()
    op = build_series(qmap, plan_for_map(qmap, tol=cfg.plan_tol), cfg.fgrids())
    assert len(op.terms) == 1 and op.compression_tail == 0.0
    assert np.max(np.abs(np.kron(*op.terms[0]) - op.entries)) <= 1e-12


@pytest.mark.parametrize("name", ["cay_quarter", "dilation_case"])
def test_per_axis_series_forms_no_dense_matrix(name):
    # at n = 48 nodes per axis one n^2 x n^2 complex matrix is 85 MB; the
    # per-axis series stores two n x n factors and forms its entries only
    # when they are read, as exactly kron(F1, F2)
    n = 48
    cfg = RunConfig.load(CONFIG_DIR / f"{name}.json")
    qmap = cfg.qmap()
    plan = plan_for_map(qmap, tol=cfg.plan_tol)
    tracemalloc.start()
    try:
        op = build_series(qmap, plan, cfg.fgrids(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n**4 * 16
    assert op.shape == (n * n, n * n)
    assert np.array_equal(op.entries, np.kron(*op.terms[0]))


def test_per_axis_series_takes_one_toeplitz_pass_per_shared_grid(monkeypatch):
    # the CLI's two axes are one grid object: both Toeplitz matrices come
    # from one quadrature pass, bit-identical to one pass per axis on two
    # equal grid objects
    cfg = RunConfig.load(CONFIG_DIR / "separable_mix.json")
    qmap = cfg.qmap()
    plan = plan_for_map(qmap, tol=cfg.plan_tol)
    calls = []

    def counted(symbol, fgrid):
        calls.append(symbol)
        return toeplitz_halfplane(symbol, fgrid)

    monkeypatch.setattr(qpspec.series, "toeplitz_halfplane", counted)
    shared = cfg.fgrids(12)
    one = build_series(qmap, plan, shared)
    assert len(calls) == 1 and len(calls[0]) == 2
    apart = (shared[0], FrequencyGrid.uniform(cfg.frequency_extent, 12))
    two = build_series(qmap, plan, apart)
    assert len(calls) == 3
    for F, G in zip(one.terms[0], two.terms[0]):
        assert F.tobytes() == G.tobytes()


def test_dilated_series_factors_are_dilation_times_undilated_factors():
    # p1 = 2 multiplies each factor S_k of the same map's series at p1 = 1
    # by the dilation's factor V_k, the identity V_2 included, bit for bit
    cfg = RunConfig.load(CONFIG_DIR / "dilation_case.json")
    qmap = cfg.qmap()
    plan = plan_for_map(qmap, tol=cfg.plan_tol)
    fg = cfg.fgrids(12)
    undilated = QuasiParabolicMap(1.0, qmap.p2, qmap.psi1, qmap.psi2)
    S = build_series(undilated, plan, fg).terms[0]
    V = dilation(qmap.p1, qmap.p2, fg)
    assert qmap.p1 == 2.0 and np.array_equal(V[1], np.eye(12))
    for F, Vk, Sk in zip(build_series(qmap, plan, fg).terms[0], V, S):
        assert np.array_equal(F, Vk @ Sk)


def test_series_refuses_uncontracted_plan():
    with pytest.raises(SeriesError):
        SeriesPlan(1.0, 1.2, 3, 3, default_norm_estimates(0.5, 1.0))


@pytest.mark.parametrize(
    "psi1, psi2",
    [
        (("20*i", 19.0, 21.0, "constant"), ("20*i", 19.0, 21.0, "constant")),
        # summed on Kronecker pairs; only the inner (second-axis) sum grows
        (
            ("i + 0.25*cay(z1) + 0*cay(z2)", 0.7, 1.3, "continuous-on-closure"),
            ("20*i + 0*cay(z1)", 19.0, 21.0, "continuous-on-closure"),
        ),
    ],
    ids=["per_axis", "two_variable"],
)
def test_growth_guard_fires_on_bogus_certificate(psi1, psi2):
    qbad = QuasiParabolicMap(1.0, 1.0, make_symbol(*psi1), make_symbol(*psi2))
    # alpha = 1 puts the tau cloud of psi2 far outside the contraction disc
    # even though the (forged) certificate claims delta = 0.9
    plan_bad = SeriesPlan(1.0, 0.9, 12, 12, default_norm_estimates(0.9, 19.0))
    with pytest.raises(SeriesError):
        build_series(qbad, plan_bad, (FrequencyGrid.uniform(8.0, 16),) * 2)


def test_two_variable_series_forms_no_dense_matrix():
    # at n = 48 one N x N complex matrix is 85 MB; the two-variable series
    # holds about 50 Kronecker pairs of n x n factors and the temporaries of
    # one recompression
    n = 48
    plan = plan_for_map(TWOVAR_MAP)
    fg = (FrequencyGrid.uniform(8.0, n),) * 2
    tracemalloc.start()
    try:
        op = build_series(TWOVAR_MAP, plan, fg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.shape == (n * n, n * n)
    assert peak < 0.5 * n**4 * 16


def test_two_variable_series_starts_no_thread(monkeypatch):
    # the sums run on the calling thread alone
    before = threading.active_count()
    counts = []
    times = qpspec.series._kron_times

    def counted(*args):
        counts.append(threading.active_count())
        return times(*args)

    monkeypatch.setattr(qpspec.series, "_kron_times", counted)
    build_series(TWOVAR_MAP, plan_for_map(TWOVAR_MAP), (FrequencyGrid.uniform(8.0, 17),) * 2)
    assert counts and set(counts) == {before}
    assert threading.active_count() == before


def test_dilation_path_matches_closed_form():
    # p1 = 2, psi = (i, i): acting on the transforms of 1/(x+i) (x) 1/(x+2i)
    # the image is 1/(2x+2i) (x) 1/(x+3i), i.e. profiles e^{-t}/2 and e^{-3t}
    psi = make_symbol("i", 0.9, 1.1, "constant")
    qmap = QuasiParabolicMap(2.0, 1.0, psi, psi)
    plan = plan_for_map(qmap, tol=1e-8)
    fg = (FrequencyGrid.uniform(10.0, 64),) * 2
    op = build_series(qmap, plan, fg)
    t1 = fg[0].nodes
    t2 = fg[1].nodes
    f = np.kron(np.exp(-t1), np.exp(-2.0 * t2))
    truth = np.kron(0.5 * np.exp(-t1 / 2.0) * np.exp(-t1 / 2.0), np.exp(-3.0 * t2))
    assert np.max(np.abs(op.entries @ f - truth)) < 1e-3


def _dense_series_reference(qmap, plan, fgrids):
    """The two-variable summation as it was before T1 and T2 were kept as
    Kronecker terms: each T a dense n^2 x n^2 matrix with one np.kron per
    symbol term, the powers multiplied on the right, the inner sum entering
    the outer one as a right factor, and the dilation a dense product."""
    g1, g2 = fgrids

    def dense_toeplitz(expr):
        total = np.zeros((g1.size * g2.size,) * 2, dtype=complex)
        for term in expr.terms:
            A = np.eye(g1.size) if term.f1 is None else toeplitz_halfplane(term.f1, g1)
            B = np.eye(g2.size) if term.f2 is None else toeplitz_halfplane(term.f2, g2)
            total += term.coeff * np.kron(A, B)
        return total

    def power_sum(T, t, n_max, right=None):
        S = np.zeros_like(T)
        P = np.eye(T.shape[0], dtype=complex)
        norms = []
        for n in range(n_max + 1):
            theta = vartheta_symbol(n, plan.alpha)(t)[None, :]
            incr = P * theta if right is None else P @ (right * theta)
            S += incr
            norms.append(float(np.linalg.norm(incr)))
            if n < n_max:
                P = P @ T
        return S, norms

    T1, T2 = (
        dense_toeplitz(SepExpr.constant(1j * plan.alpha) - psi.expr.rescaled(qmap.p1, qmap.p2))
        for psi in (qmap.psi1, qmap.psi2)
    )
    t1, t2 = np.repeat(g1.nodes, g2.size), np.tile(g2.nodes, g1.size)
    inner, _ = power_sum(T2, t2, plan.n2)
    S, norms = power_sum(T1, t1, plan.n1, inner)
    return np.kron(*dilation(qmap.p1, qmap.p2, fgrids)) @ S, norms


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("p1", [1.0, 2.0])
def test_two_variable_series_matches_dense_recursion(p1, n, monkeypatch):
    qmap = QuasiParabolicMap(p1, 1.0, TWOVAR_MAP.psi1, TWOVAR_MAP.psi2)
    plan = plan_for_map(qmap)
    fg = (FrequencyGrid.uniform(8.0, n),) * 2
    # the term norms are the ones build_series growth-checks, first axis first
    checked = []
    check = qpspec.series._growth_check

    def spy(norms):
        checked.append(norms)
        check(norms)

    monkeypatch.setattr(qpspec.series, "_growth_check", spy)
    op = build_series(qmap, plan, fg)
    ref, norms = _dense_series_reference(qmap, plan, fg)
    assert np.max(np.abs(op.entries - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(checked[0], norms, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("p1", [1.0, 2.0])
def test_compression_tail_bounds_the_distance_to_the_dense_sum(p1, n):
    # compression_tail bounds the weighted 2-norm distance between the
    # stored pairs and the exact truncated sum, up to the rounding of the
    # dense reference itself
    qmap = QuasiParabolicMap(p1, 1.0, TWOVAR_MAP.psi1, TWOVAR_MAP.psi2)
    plan = plan_for_map(qmap)
    fg = (FrequencyGrid.uniform(8.0, n),) * 2
    op = build_series(qmap, plan, fg)
    ref, _ = _dense_series_reference(qmap, plan, fg)
    dist = np.linalg.norm(weigh(op.entries - ref, fg), 2)
    assert len(op.terms) > 1 and op.compression_tail > 0.0
    assert dist <= op.compression_tail + 1e-13 * np.linalg.norm(weigh(ref, fg), 2)


def _squared_grid(extent: float, n: int) -> FrequencyGrid:
    """Trapezoid rule on the nodes extent (k / (n - 1))^2: its weights span
    a factor 4 (n - 2), 40 at n = 12, against 2 on a uniform grid."""
    t = extent * (np.arange(n) / (n - 1)) ** 2
    w = np.zeros(n)
    w[:-1] += np.diff(t) / 2
    w[1:] += np.diff(t) / 2
    return FrequencyGrid(t, w, extent)


@pytest.mark.parametrize("p1, squared", [(1.0, False), (2.0, False), (1.0, True)],
                         ids=["1.0", "2.0", "1.0-squared"])
def test_compression_tail_bounds_a_coarse_cut(p1, squared, monkeypatch):
    # with singular values cut at 1e-6 of the largest the stored pairs are
    # far from the dense sum, and the tail still bounds that distance, on a
    # uniform grid and on one whose weights span a factor 40
    monkeypatch.setattr(qpspec.series, "KRON_CUT", 1e-6)
    qmap = QuasiParabolicMap(p1, 1.0, TWOVAR_MAP.psi1, TWOVAR_MAP.psi2)
    plan = plan_for_map(qmap)
    fg = ((_squared_grid if squared else FrequencyGrid.uniform)(8.0, 12),) * 2
    op = build_series(qmap, plan, fg)
    ref, _ = _dense_series_reference(qmap, plan, fg)
    dist = np.linalg.norm(weigh(op.entries - ref, fg), 2)
    assert 1e-9 < dist <= op.compression_tail


def test_recompression_cut_bounds_the_plain_distance(monkeypatch):
    # _recompress reads no grid: the 2-norm of what it drops from a sum of
    # Kronecker pairs is at most the cut it returns
    monkeypatch.setattr(qpspec.series, "KRON_CUT", 1e-3)
    rng = np.random.default_rng(5)
    A, B = (rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
            for n in (5, 6))
    A *= 10.0 ** -np.arange(12)[:, None, None]  # pair k scaled by 10^-k
    (X, Y), cut = qpspec.series._recompress((A, B))
    dist = np.linalg.norm(sum(map(np.kron, X, Y)) - sum(map(np.kron, A, B)), 2)
    assert len(X) == len(Y) < 12
    assert dist <= cut


def test_two_variable_series_keeps_toeplitz_as_kronecker_terms(monkeypatch):
    # no dense n^2 x n^2 Toeplitz matrix: each power past the first is one
    # product of the Kronecker terms of T with a pair list, and the p1 = 2
    # dilation multiplies the pairs without one
    def forbidden(*args, **kwargs):
        raise AssertionError("formed a dense two-variable Toeplitz matrix")

    calls = []
    times = qpspec.series._kron_times

    def counted(*args):
        calls.append(1)
        return times(*args)

    for module in (qpspec.operators, qpspec.series):
        # raising=False: series does not import toeplitz_separable, and the
        # forbidden stub still catches a later import of it there
        monkeypatch.setattr(module, "toeplitz_separable", forbidden, raising=False)
    monkeypatch.setattr(qpspec.series, "_kron_times", counted)
    qmap = QuasiParabolicMap(2.0, 1.0, TWOVAR_MAP.psi1, TWOVAR_MAP.psi2)
    plan = plan_for_map(qmap)
    op = build_series(qmap, plan, (FrequencyGrid.uniform(8.0, 8),) * 2)
    assert len(op.terms) > 1 and op.shape == (64, 64)
    assert len(calls) == plan.n1 + plan.n2


def test_dense_series_takes_one_toeplitz_pass_per_shared_grid(monkeypatch):
    # the Toeplitz factors of tau1 and tau2 on the CLI's one grid object
    # come from one quadrature pass (one per grid object on two), each
    # bit-identical to the factor's own pass
    calls = []

    def counted(symbol, fgrid):
        calls.append(symbol)
        return toeplitz_halfplane(symbol, fgrid)

    monkeypatch.setattr(qpspec.operators, "toeplitz_halfplane", counted)
    plan = plan_for_map(TWOVAR_MAP)
    shared = (FrequencyGrid.uniform(8.0, 8),) * 2
    one = build_series(TWOVAR_MAP, plan, shared).entries
    assert len(calls) == 1 and len(calls[0]) == 4
    apart = (shared[0], FrequencyGrid.uniform(8.0, 8))
    assert np.array_equal(build_series(TWOVAR_MAP, plan, apart).entries, one)
    assert len(calls) == 3 and len(calls[1]) == len(calls[2]) == 2

    taus = tuple(qpspec.series._tau_expr(psi, plan.alpha, 1.0, 1.0)
                 for psi in (TWOVAR_MAP.psi1, TWOVAR_MAP.psi2))
    for expr, terms in zip(taus, qpspec.operators.separable_terms(taus, shared)):
        products = [t for t in expr.terms if t.f1 is not None or t.f2 is not None]
        assert len(products) == len(terms) - 1 == 1 and terms[0][1:] == (None, None)
        for t, (c, A, B) in zip(products, terms[1:]):
            assert c == t.coeff
            assert np.array_equal(A, toeplitz_halfplane(t.f1, shared[0]))
            assert np.array_equal(B, toeplitz_halfplane(t.f2, shared[1]))


# ---------------------------------------------------------------------------
# direct composition: closed-form images of the rational test vectors


def _cauchy_row(g, w):
    """Row k: the quadrature form on g of the Cauchy integral at the point
    w[k], the pairing with the reproducing kernel k_w (see grids)."""
    return (g.weights[None, :] / (2.0j * np.pi)) / (g.nodes[None, :] - w[:, None])


def test_reproducing_identity_rational_function():
    # the Cauchy quadrature row at v is the pairing with the reproducing
    # kernel k_v; on the tensor grid the two-variable row is the kron of the
    # axis rows, and it reproduces a rational Hardy function at w
    w = (0.3 + 1.2j, -0.7 + 0.8j)
    g1, g2 = (BoundaryGrid.rational(1200, 8.0),) * 2
    row = np.kron(_cauchy_row(g1, np.array([w[0]])), _cauchy_row(g2, np.array([w[1]])))
    vals = np.kron(1.0 / (g1.nodes + 1j), 1.0 / (g2.nodes + 1j))
    target = 1.0 / ((w[0] + 1j) * (w[1] + 1j))
    assert abs((row @ vals)[0] - target) < 1e-6


def test_direct_apply_translates_hardy_functions():
    # u = kron(1/(x + 1.5i)^2, 1/(x - 1 + i)^2), translated by (i, 2i)
    qmap = _const_map()
    bg = (BoundaryGrid.rational(400, 8.0), BoundaryGrid.rational(400, 8.0))
    g1, g2 = bg
    poles = np.array([[-1.5j], [1.0 - 1.0j]])
    cu = direct_composition_apply(qmap, bg, poles)[:, 0]
    truth = np.kron(
        1.0 / (g1.nodes + 2.5j) ** 2, 1.0 / (g2.nodes - 1.0 + 3.0j) ** 2
    )
    assert np.max(np.abs(cu - truth)) / np.max(np.abs(truth)) < 2e-3


def test_direct_apply_rejects_lower_halfplane_image():
    # built directly: make_symbol would reject the claimed Im bound
    below = AnalyticSymbol(SepExpr.constant(-0.5j), 0.5)
    qmap = QuasiParabolicMap(1.0, 1.0, below, CONST_I)
    bg = (BoundaryGrid.rational(30, 6.0), BoundaryGrid.rational(30, 6.0))
    with pytest.raises(DomainError):
        direct_composition_apply(qmap, bg, hardy_test_family(0))


CAY_QUARTER_MAP = QuasiParabolicMap(
    1.0, 1.0,
    make_symbol("i + 0.25*cay(z1)", 0.7, 1.3, "continuous-on-closure"),
    make_symbol("i + 0.25*cay(z2)", 0.7, 1.3, "continuous-on-closure"),
)
TWOVAR_MAP = QuasiParabolicMap(
    1.0, 1.0,
    make_symbol("i + 0.1*cay(z1)*cay(z2)", 0.85, 1.15, "continuous-on-closure"),
    make_symbol("2*i - 0.2*cay(z1)*cay(z2)", 1.75, 2.25, "continuous-on-closure"),
)


@pytest.mark.parametrize("qmap", [_const_map(), CAY_QUARTER_MAP, TWOVAR_MAP],
                         ids=["constant", "cay_quarter", "two-variable"])
def test_closed_form_images_match_cauchy_quadrature(qmap):
    # the brute-force path: at every point a of a small rational grid the
    # image of kron(f, g) is the product of the Cauchy quadratures of f and
    # g at phi_1(a) and phi_2(a), both sampled on a fine rational grid
    # (about 2e-5 off here; 1e-2 when sampled on the small grid itself,
    # whose outer nodes lie closer to phi than its spacing)
    bg = (BoundaryGrid.rational(24, 2.0), BoundaryGrid.rational(28, 2.0))
    fine = BoundaryGrid.rational(400, 8.0)
    poles = hardy_test_family(0)
    images = direct_composition_apply(qmap, bg, poles)
    v1, v2 = _boundary_phi_values(qmap, bg)
    ref = (_cauchy_row(fine, v1) @ _rational_vectors(fine.nodes, poles[0])) * (
        _cauchy_row(fine, v2) @ _rational_vectors(fine.nodes, poles[1]))
    assert images.shape == (24 * 28, HARDY_TEST_COUNT)
    assert np.max(np.abs(images - ref)) / np.max(np.abs(ref)) < 2e-3


@pytest.mark.parametrize("seed", [0, 5])
def test_hardy_test_family_boundary_vectors_are_bit_identical(seed):
    # the poles s - ic give the boundary vectors 1/(x - s + ic)^2 bit for
    # bit, from the same draws in the same order, so F u does not change
    rng = np.random.default_rng(seed)
    poles = hardy_test_family(seed)
    g = BoundaryGrid.uniform(60.0, 256)
    for k in range(HARDY_TEST_COUNT):
        c1, c2 = rng.uniform(0.5, 2.0, size=2)
        s1, s2 = rng.uniform(-3.0, 3.0, size=2)
        for j, (c, s) in enumerate(((c1, s1), (c2, s2))):
            u = 1.0 / (g.nodes - s + 1j * c) ** 2
            assert _rational_vectors(g.nodes, poles[j])[:, k].tobytes() == u.tobytes()


def test_per_axis_boundary_values_are_one_column_and_one_row():
    # the per-axis values are exactly those the full grid holds, so the
    # Im > 0 check sees the same numbers
    bg = (BoundaryGrid.uniform(20.0, 24), BoundaryGrid.uniform(20.0, 30))
    w1, w2 = (v.reshape(24, 30) for v in _boundary_phi_values(CAY_QUARTER_MAP, bg))
    v1, v2 = _boundary_phi_values(CAY_QUARTER_MAP, bg, per_axis=True)
    assert np.array_equal(w1, np.broadcast_to(v1[:, None], w1.shape))
    assert np.array_equal(w2, np.broadcast_to(v2[None, :], w2.shape))


def _residual_per_vector(series_op, qmap, bg, seed=0):
    """The cross-check one dense test vector at a time, with its image in
    closed form on the whole grid: the reference for the factored, batched
    computation."""
    rng = np.random.default_rng(seed)
    (fg1, fg2), (bg1, bg2) = series_op.grid, bg
    F1, F2 = bochner_matrix(bg1, fg1), bochner_matrix(bg2, fg2)
    v1, v2 = _boundary_phi_values(qmap, bg)
    S = series_op.entries
    wf = grid_weights(series_op.grid)
    worst = 0.0
    for _ in range(HARDY_TEST_COUNT):
        c1, c2 = rng.uniform(0.5, 2.0, size=2)
        s1, s2 = rng.uniform(-3.0, 3.0, size=2)
        u = np.kron(1.0 / (bg1.nodes - s1 + 1j * c1) ** 2, 1.0 / (bg2.nodes - s2 + 1j * c2) ** 2)
        cu = 1.0 / (v1 - s1 + 1j * c1) ** 2 / (v2 - s2 + 1j * c2) ** 2
        fu = (F1 @ u.reshape(bg1.size, bg2.size) @ F2.T).reshape(-1)
        fcu = (F1 @ cu.reshape(bg1.size, bg2.size) @ F2.T).reshape(-1)
        resid = S @ fu - fcu
        err = np.sqrt(np.sum(wf * np.abs(resid) ** 2)) / np.sqrt(np.sum(wf * np.abs(fu) ** 2))
        worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("qmap", [_const_map(), TWOVAR_MAP], ids=["constant", "two-variable"])
def test_series_direct_residual_matches_per_vector_formula(qmap):
    fg = (FrequencyGrid.uniform(8.0, 10),) * 2
    op = build_series(qmap, plan_for_map(qmap, tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 30), BoundaryGrid.uniform(12.0, 34))
    for seed in (0, 5):
        ref = _residual_per_vector(op, qmap, bg, seed)
        assert abs(series_direct_residual(op, qmap, bg, seed) - ref) <= 1e-12 * ref


def test_per_axis_cross_check_forms_no_image(monkeypatch):
    # F(C u) = kron(F1 f1(phi_1), F2 f2(phi_2)) for a per-axis map, so the
    # cross-check never asks for the images C u
    fg = (FrequencyGrid.uniform(8.0, 10),) * 2
    op = build_series(CAY_QUARTER_MAP, plan_for_map(CAY_QUARTER_MAP, tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 30), BoundaryGrid.uniform(12.0, 34))
    ref = _residual_per_vector(op, CAY_QUARTER_MAP, bg)

    def forbidden(*args, **kwargs):
        raise AssertionError("formed direct images of a per-axis map")

    monkeypatch.setattr(qpspec.series, "direct_composition_apply", forbidden)
    assert abs(series_direct_residual(op, CAY_QUARTER_MAP, bg) - ref) <= 1e-12 * ref


def test_two_variable_residual_does_not_depend_on_its_blocks(monkeypatch):
    # every image is evaluated point by point and F2 takes one product per
    # x1-row, so blocks of 1 row, 3 rows or the whole 40 x 36 grid give the
    # same residual, bit for bit
    fg = (FrequencyGrid.uniform(8.0, 10),) * 2
    op = build_series(TWOVAR_MAP, plan_for_map(TWOVAR_MAP, tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 40), BoundaryGrid.uniform(12.0, 36))
    resids = []
    for rows in (1, 3, 40):
        monkeypatch.setattr(qpspec.series, "BLOCK_BYTES", 32 * HARDY_TEST_COUNT * 36 * rows)
        resids.append(series_direct_residual(op, TWOVAR_MAP, bg))
    assert resids[0] == resids[1] == resids[2]


def test_image_pass_visits_every_boundary_point_once(monkeypatch):
    # blocks of 2 whole x1-rows of 34 points (the budget holds 80 points):
    # the image requests tile the 30 x 34 grid in order
    monkeypatch.setattr(qpspec.series, "BLOCK_BYTES", 32 * HARDY_TEST_COUNT * 80)
    fg = (FrequencyGrid.uniform(8.0, 10),) * 2
    op = build_series(TWOVAR_MAP, plan_for_map(TWOVAR_MAP, tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 30), BoundaryGrid.uniform(12.0, 34))
    seen = []
    apply = qpspec.series.direct_composition_apply

    def recorded(qmap, bgrids, poles, block):
        seen.extend(range(30)[block])
        return apply(qmap, bgrids, poles, block)

    monkeypatch.setattr(qpspec.series, "direct_composition_apply", recorded)
    assert np.isfinite(series_direct_residual(op, TWOVAR_MAP, bg))
    assert seen == list(range(30))


def test_cross_check_memory_stays_below_three_images():
    # per-axis map at 768 boundary nodes: one image is 768^2 complex values,
    # and the cross-check holds none
    fg = (FrequencyGrid.uniform(8.0, 8),) * 2
    op = build_series(CAY_QUARTER_MAP, plan_for_map(CAY_QUARTER_MAP, tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(60.0, 768),) * 2
    tracemalloc.start()
    try:
        resid = series_direct_residual(op, CAY_QUARTER_MAP, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(resid)
    assert peak < 3 * 768**2 * 16


def test_per_axis_cross_check_holds_one_bounded_kernel():
    # cay_quarter at its shipped sizes (n = 32, 768 boundary nodes): each
    # axis's images are one 768 x 12 array (147 KB), and the peak is
    # 1.61 MiB; with each axis's Cauchy kernel built 85 rows (1 MiB) at a
    # time it was 2.64 MiB, and in blocks of 512 rows (6.3 MB) 7.65 MiB
    fg = (FrequencyGrid.uniform(10.0, 32),) * 2
    op = build_series(CAY_QUARTER_MAP, plan_for_map(CAY_QUARTER_MAP), fg)
    bg = (BoundaryGrid.uniform(60.0, 768),) * 2
    tracemalloc.start()
    try:
        resid = series_direct_residual(op, CAY_QUARTER_MAP, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(resid)
    assert peak <= 3 * 2**20


def _two_variable_cross_check_peak(nodes):
    """tracemalloc peak of the two-variable map's cross-check at n = 16."""
    fg = (FrequencyGrid.uniform(10.0, 16),) * 2
    op = build_series(TWOVAR_MAP, plan_for_map(TWOVAR_MAP), fg)
    bg = (BoundaryGrid.uniform(60.0, nodes),) * 2
    tracemalloc.start()
    try:
        resid = series_direct_residual(op, TWOVAR_MAP, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(resid)
    return peak


def test_two_variable_cross_check_memory():
    # the benchmark's two-variable map at 256 boundary nodes: the images are
    # streamed 10 x1-rows (2560 points) at a time, each block's images and
    # their temporary 0.49 MB each, beside the 256 x 16 x 12 frequency-side
    # sum (0.8 MB); the twelve images alone are 12.6 MB. The peak is
    # 2.82 MiB, against 2.92 MiB with one 256 x 256 Cauchy kernel (1 MiB)
    # per x1-row; blocks of 512 points, each with a 2 MB kernel, peaked at
    # 3.57 MiB
    peak = _two_variable_cross_check_peak(256)
    assert peak < 6e6
    assert peak < 3.57 * 2**20


def test_two_variable_cross_check_memory_at_768_nodes():
    # blocks of 3 x1-rows (2304 points, 0.44 MB of images and as much
    # temporary) and a 768 x 16 x 12 sum (2.4 MB), where one 768^2 image is
    # 9.4 MB and phi's values on the grid twice that. The peak is 3.85 MiB;
    # with 85 x 768 Cauchy kernels (1 MiB) it was 4.51 MiB, and in blocks of
    # 512 points, each with a 6.3 MB kernel, 9.45 MiB
    peak = _two_variable_cross_check_peak(768)
    assert peak < 14e6
    assert peak < 9.45 * 2**20


def test_two_variable_cross_check_rejects_lower_halfplane_image_first(monkeypatch):
    # Im phi_1 = 0.5 + Im(0.8 cay(z1) cay(z2)) dips below 0 on part of the
    # grid only: the error comes before any image is formed and names the
    # lowest value over the whole grid, not over one of the 12 blocks that
    # the check takes
    monkeypatch.setattr(qpspec.series, "BLOCK_BYTES", 50 * 32)
    dips = AnalyticSymbol(parse_symbol_expression("0.5*i + 0.8*cay(z1)*cay(z2)"), 0.5)
    qmap = QuasiParabolicMap(1.0, 1.0, dips, CONST_I)
    assert not qmap.per_axis
    fg = (FrequencyGrid.uniform(8.0, 8),) * 2
    op = build_series(_const_map(), plan_for_map(_const_map(), tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 24), BoundaryGrid.uniform(12.0, 20))
    worst = float(np.min(_boundary_phi_values(qmap, bg)[0].imag))
    assert worst < 0.0

    def forbidden(*args, **kwargs):
        raise AssertionError("formed an image before the domain check")

    monkeypatch.setattr(qpspec.series, "direct_composition_apply", forbidden)
    with pytest.raises(DomainError, match=f"Im = {worst:.3g};"):
        series_direct_residual(op, qmap, bg)


def test_block_budget_default_sizes(monkeypatch):
    # every streamed block at its default size, each derived from the one
    # 1 MiB budget grids.BLOCK_BYTES
    ops = qpspec.operators
    assert ops._TOEPLITZ_BLOCK * 16 * ops._TOEPLITZ_NODES == BLOCK_BYTES == 1 << 20

    # the two-variable cross-check: the Im > 0 pass, then the image blocks
    points = []
    blocks = qpspec.series._boundary_blocks

    def recorded(bgrids, n):
        points.append(n)
        return blocks(bgrids, n)

    monkeypatch.setattr(qpspec.series, "_boundary_blocks", recorded)
    fg = (FrequencyGrid.uniform(8.0, 8),) * 2
    op = build_series(_const_map(), plan_for_map(_const_map(), tol=1e-6), fg)
    bg = (BoundaryGrid.uniform(12.0, 16),) * 2
    series_direct_residual(op, TWOVAR_MAP, bg)
    assert points == [1 << 15, 2730]

    # the row blocks of _nearest_distances: 2^16 // |b| rows of a
    rows = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            rows.append(key[0])
            return np.asarray(self)[key]

    a = np.zeros(200, dtype=complex).view(Recorded)
    qpspec.spectra._nearest_distances(a, 1j * np.arange(1000.0))
    assert rows == [slice(lo, lo + 65) for lo in range(0, 200, 65)]


def test_series_and_direct_constructions_agree():
    qmap = _const_map()
    plan = plan_for_map(qmap, tol=1e-8)
    fg = (FrequencyGrid.uniform(12.0, 48),) * 2
    op = build_series(qmap, plan, fg)
    bg = (BoundaryGrid.uniform(12.0, 48),) * 2
    assert series_direct_residual(op, qmap, bg) < 1e-2


# ---------------------------------------------------------------------------
# disc intertwining


def _axis_profiles(fgrid, n_max=60):
    # frequency profile of w^a under the half-plane embedding: the image of
    # the a-th disc monomial has profile -i sqrt(2 pi) L_a(2t) e^{-t}
    t = fgrid.nodes
    return np.stack(
        [-1j * np.sqrt(2.0 * np.pi) * eval_laguerre(k, 2.0 * t) * np.exp(-t)
         for k in range(n_max)]
    )


def test_disc_intertwining_one_variable_monomials():
    # One-variable slice of the intertwining identity: the frequency-side
    # operator applied to the profile of w^a must reproduce the profile of
    # phi^a.  Truth side via Fourier coefficients of phi on the circle.
    fg = FrequencyGrid.uniform(10.0, 512)
    profiles = _axis_profiles(fg)
    L = 512
    circ = np.exp(2j * np.pi * np.arange(L) / L)
    phi = (2.0j * circ + 1.0j * (1.0 - circ)) / (2.0j + 1.0j * (1.0 - circ))
    Tm = toeplitz_halfplane(lambda z: 1.0 + 1.0j / (np.asarray(z) + 1.0j), fg)
    w = fg.weights
    for a in range(4):
        lhs = Tm @ (np.exp(-fg.nodes) * profiles[a])
        coeffs = np.fft.fft(phi**a) / L
        rhs = coeffs[:60] @ profiles
        err = np.sqrt(np.sum(w * np.abs(lhs - rhs) ** 2))
        scale = np.sqrt(np.sum(w * np.abs(profiles[a]) ** 2))
        assert err / scale < 1e-3
