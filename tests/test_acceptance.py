"""End-to-end acceptance checks for the operator toolkit.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantity and its pinned tolerance so a log scrape gives the whole
verdict table (run with -rP or -s, or read captured output on failure).
"""
import time

import numpy as np

from qpspec.grids import BOUNDARY_HEIGHT, ONE_NODE, BoundaryGrid, FrequencyGrid
from qpspec.operators import OperatorMatrix, op_norm
from qpspec.series import (
    QuasiParabolicMap,
    SeriesPlan,
    build_series,
    choose_alpha,
    delta_of_alpha,
    exact_constant_multiplier,
    plan_for_map,
    remainder_bound,
    series_direct_residual,
)
from qpspec.spectra import (
    SpectralSet,
    containment_verdict,
    directed_hausdorff,
    eigenvalues,
    essential_spectrum_surrogate,
    predicted_set,
)
from qpspec.symbols import PointCloud, cluster_set, make_symbol


def _verdict(num, label, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _const_map():
    psi1 = make_symbol("i", 0.9, 1.1, "constant")
    psi2 = make_symbol("2*i", 1.9, 2.1, "constant")
    return QuasiParabolicMap(1.0, 1.0, psi1, psi2)


def _one_variable(M, grid):
    """The one-variable operator M on ``grid``: the pair ([[1]], M) on
    (ONE_NODE, grid)."""
    return OperatorMatrix((ONE_NODE, grid), [(np.ones((1, 1), dtype=complex), M)])


def _difference(a, b):
    """a - b: the pairs of a, then those of b with their first factor negated."""
    return OperatorMatrix(a.grid, a.terms + tuple((-A, B) for A, B in b.terms))


def _cay_quarter_map():
    psi1 = make_symbol("i + 0.25*cay(z1)", 0.7, 1.3, "continuous-on-closure")
    psi2 = make_symbol("i + 0.25*cay(z2)", 0.7, 1.3, "continuous-on-closure")
    return QuasiParabolicMap(1.0, 1.0, psi1, psi2)


def test_criterion_1_constant_symbol_collapse():
    # psi = (i, 2i), p = 1, 64 nodes per axis on [0, 10], order 40: the
    # series must collapse to diag(e^{-(t_j + 2 t_k)}) entrywise to 1e-6
    t0 = time.time()
    qmap = _const_map()
    plan0 = plan_for_map(qmap)
    plan = SeriesPlan(plan0.alpha, plan0.delta, 40, 40, plan0.norm_estimates)
    fg = (FrequencyGrid.uniform(10.0, 64),) * 2
    op = build_series(qmap, plan, fg)
    exact = exact_constant_multiplier(1.0j, 2.0j, fg)
    err = float(np.max(np.abs(op.entries - exact.entries)))
    elapsed = time.time() - t0
    _verdict(
        1,
        "constant-symbol collapse",
        err <= 1e-6 and elapsed <= 30.0,
        f"entrywise error {err:.3e} (tol 1e-6), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_certified_geometric_remainder():
    # increments must decay at least geometrically at rate delta + 0.05,
    # and in the constant case the certified bound must dominate the truth
    qmap = _cay_quarter_map()
    plan0 = plan_for_map(qmap)
    fg = (FrequencyGrid.uniform(10.0, 24),) * 2
    ops = {}
    for n in range(3, 17):
        p = SeriesPlan(plan0.alpha, plan0.delta, n, n, plan0.norm_estimates)
        ops[n] = build_series(qmap, p, fg)
    diffs = [
        op_norm(_difference(ops[n + 1], ops[n]))
        for n in range(3, 16)
    ]
    worst_ratio = max(b / a for a, b in zip(diffs, diffs[1:]))
    cq = _const_map()
    cplan0 = plan_for_map(cq)
    exact = exact_constant_multiplier(1.0j, 2.0j, fg)
    bound_ok = True
    for n in range(1, 21):
        p = SeriesPlan(cplan0.alpha, cplan0.delta, n, n, cplan0.norm_estimates)
        op = build_series(cq, p, fg)
        err = op_norm(_difference(op, exact))
        bound_ok = bound_ok and err <= remainder_bound(p)
    ok = worst_ratio <= plan0.delta + 0.05 and bound_ok
    _verdict(
        2,
        "certified geometric remainder",
        ok,
        f"worst increment ratio {worst_ratio:.3f} (tol {plan0.delta + 0.05:.3f}), "
        f"constant-case bound dominates truth for N<=20: {bound_ok}",
    )


def test_criterion_3_shift_selection_matches_brute_scan():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        k = rng.integers(2, 15)
        pts = rng.uniform(-4, 4, k) + 1j * rng.uniform(0.2, 5.0, k)
        alpha, delta = choose_alpha(pts)
        ymin = float(np.min(pts.imag))
        rmax = float(np.max(np.abs(pts)))
        scan = np.exp(np.linspace(np.log(ymin / 2), np.log(4 * rmax**2 / ymin), 10000))
        best = min(delta_of_alpha(a, pts) for a in scan)
        worst = max(worst, delta - best)
    a1, d1 = choose_alpha(np.array([1.0 + 1.0j]))
    closed = abs(a1 - 2.0) <= 1e-6 and abs(d1 - np.sqrt(2.0) / 2.0) <= 1e-6
    ok = worst <= 1e-4 and closed
    _verdict(
        3,
        "shift selection vs brute scan",
        ok,
        f"max delta excess over 10^4-point scan {worst:.2e} (tol 1e-4), "
        f"single-point closed form reproduced: {closed}",
    )


def test_criterion_4_spiral_containment_one_variable():
    # z -> z + i acts as diag(e^{-t_k}); predicted {e^{-t}} u {0} must lie
    # within 2x the t-sample image spacing of the eigenvalue set
    t = np.linspace(0.0, 8.0, 64)
    pred = SpectralSet(PointCloud(np.concatenate([np.exp(-t), [0.0]]).astype(complex)))
    spacing = float(np.max(np.abs(np.diff(np.exp(-t)))))
    dists = []
    for n in (64, 128, 256):
        g = FrequencyGrid.uniform(10.0, n)
        op = _one_variable(np.diag(np.exp(-g.nodes)).astype(complex), g)
        dists.append(directed_hausdorff(pred, eigenvalues(op)))
    ok = all(d <= 2.0 * spacing for d in dists)
    _verdict(
        4,
        "one-variable spiral containment",
        ok,
        f"directed Hausdorff {[f'{d:.4f}' for d in dists]} at sizes 64/128/256 "
        f"(tol {2 * spacing:.4f})",
    )


def test_criterion_5_spiral_containment_bidisc():
    # constants (i, 2i): PASS at default tolerance over sizes 32/48/64 with
    # eps = 1e-2; the prediction shifted by +0.5 must FAIL
    qmap = _const_map()
    plan = plan_for_map(qmap)
    region = (-1.1, 1.1, -1.1, 1.1)

    def builder(n):
        return build_series(qmap, plan, (FrequencyGrid.uniform(10.0, n),) * 2)

    surro = essential_spectrum_surrogate(builder, [32, 48, 64], 1e-2, region, (129, 129))
    pred = predicted_set(cluster_set(qmap.psi1).points[0], cluster_set(qmap.psi2).points[0])
    verdict = containment_verdict(pred, surro)
    shifted = SpectralSet(PointCloud(pred.points.points + 0.5), dict(pred.params))
    control = containment_verdict(shifted, surro)
    ok = verdict["verdict"] == "PASS" and control["verdict"] == "FAIL"
    _verdict(
        5,
        "bidisc spiral containment",
        ok,
        f"containment {verdict['verdict']} (distance {verdict['distance']:.4f}, "
        f"tol {verdict['tol']:.4f}); shifted control {control['verdict']} "
        f"(distance {control['distance']:.4f})",
    )


def test_criterion_6_series_vs_direct_cross_validation():
    qmap = _cay_quarter_map()
    plan = plan_for_map(qmap)
    fg = (FrequencyGrid.uniform(10.0, 80),) * 2
    op = build_series(qmap, plan, fg)
    bg = (BoundaryGrid.uniform(60.0, 512),) * 2
    resid = series_direct_residual(op, qmap, bg)
    tol = max(plan.remainder, 1e-3)
    _verdict(
        6,
        "series vs direct cross-validation",
        resid <= tol,
        f"weighted residual {resid:.3e} (tol {tol:.3e}, "
        f"remainder bound {plan.remainder:.3e})",
    )


def _cauchy_row(g, w):
    """Row k: the quadrature form on g of the Cauchy integral at the point
    w[k], the pairing with the reproducing kernel k_w (see grids)."""
    return (g.weights[None, :] / (2.0j * np.pi)) / (g.nodes[None, :] - w[:, None])


def test_criterion_7_kernel_and_boundedness():
    # reproducing identity on rational test functions, then the kernel-norm
    # contraction bound of composition with z -> z + psi(z).  The pairing
    # <f, k_w> is the Cauchy quadrature row of grids' kernel convention,
    # one factor per axis, since both f and k_w are products of
    # one-variable factors.  The bound is checked in its
    # squared-norm form ||k_phi(w)||^2 / ||k_w||^2, which is the kernel-value
    # ratio prod_j Im w_j / Im phi_j(w), since k_w(w) = prod_j 1 / (4 pi Im w_j)
    g1, g2 = (BoundaryGrid.rational(1200, 8.0),) * 2
    rng = np.random.default_rng(17)
    rep_err = 0.0
    for _ in range(10):
        w = tuple(rng.uniform(-1, 1, 2) + 1j * rng.uniform(0.5, 2.0, 2))
        a, b = rng.uniform(0.5, 2.0, 2)
        pair1 = _cauchy_row(g1, np.array([w[0]])) @ (1.0 / (g1.nodes + 1j * a))
        pair2 = _cauchy_row(g2, np.array([w[1]])) @ (1.0 / (g2.nodes + 1j * b))
        target = 1.0 / ((w[0] + 1j * a) * (w[1] + 1j * b))
        rep_err = max(rep_err, abs(pair1[0] * pair2[0] - target))
    psi = _cay_quarter_map()
    eps = min(psi.psi1.im_lower_bound, psi.psi2.im_lower_bound)
    violations = 0
    rng = np.random.default_rng(23)
    for _ in range(100):
        w1, w2 = rng.uniform(-5, 5, 2) + 1j * rng.uniform(0.05, 4.0, 2)
        f1 = w1 + psi.psi1(np.array([w1]), np.array([w2]))[0]
        f2 = w2 + psi.psi2(np.array([w1]), np.array([w2]))[0]
        ratio2 = (w1.imag / f1.imag) * (w2.imag / f2.imag)
        bound = (w1.imag / (w1.imag + eps)) * (w2.imag / (w2.imag + eps))
        if ratio2 > bound * (1.0 + 1e-12):
            violations += 1
    ok = rep_err <= 1e-6 and violations == 0
    _verdict(
        7,
        "kernel identity and boundedness",
        ok,
        f"reproducing error {rep_err:.2e} (tol 1e-6), "
        f"kernel-ratio violations {violations}/100 (must be 0)",
    )


def test_criterion_8_tensor_identities():
    rng = np.random.default_rng(29)
    g1 = FrequencyGrid.uniform(4.0, 7)
    g2 = FrequencyGrid.uniform(4.0, 6)
    grids = (g1, g2)

    def rand(g):
        n = g.size
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def kron(A, B):
        # the factored operator A (x) B
        return OperatorMatrix(grids, [(A, B)])

    norm_err = 0.0
    mixed_err = 0.0
    for _ in range(100):
        A, B = rand(g1), rand(g2)
        C, D = rand(g1), rand(g2)
        norms = op_norm(_one_variable(A, g1)) * op_norm(_one_variable(B, g2))
        norm_err = max(norm_err, abs(op_norm(kron(A, B)) - norms))
        lhs = kron(A, B).entries @ kron(C, D).entries
        rhs = kron(A @ C, B @ D).entries
        scale = np.max(np.abs(rhs))
        mixed_err = max(mixed_err, float(np.max(np.abs(lhs - rhs))) / scale)
    A, B = rand(g1), rand(g2)
    # the axis embeddings A (x) I and I (x) B
    E1 = kron(A, np.eye(g2.size, dtype=complex)).entries
    E2 = kron(np.eye(g1.size, dtype=complex), B).entries
    # plain summation (no BLAS 3M complex-multiply rewriting): the only
    # nonzero term per entry is the same scalar product in both orders
    P = np.einsum("ik,kj->ij", E1, E2, optimize=False)
    Q = np.einsum("ik,kj->ij", E2, E1, optimize=False)
    commute = np.array_equal(P, Q)
    ok = norm_err <= 1e-10 and mixed_err <= 1e-12 and commute
    _verdict(
        8,
        "tensor identities",
        ok,
        f"norm multiplicativity error {norm_err:.2e} (tol 1e-10), mixed-product "
        f"error {mixed_err:.2e} (tol 1e-12), axis embeddings commute exactly: {commute}",
    )


def test_criterion_9_cluster_vs_essential_range():
    # every continuous symbol in the bundled catalog and both symbols of the
    # two-variable benchmark map: the exact limit at (inf, inf) must agree
    # with the symbol's far boundary values, the samples of its essential
    # range there.  At the four points (+-R, +-R) + i BOUNDARY_HEIGHT,
    # R = 1e4 ... 1e8, |psi - limit| must stay within 2 / R; the limit
    # shifted by 1e-3 must fail at every R
    symbols = [
        make_symbol("i + 0.25*cay(z1)", 0.7, 1.3, "continuous-on-closure"),
        make_symbol("i + 0.25*cay(z2)", 0.7, 1.3, "continuous-on-closure"),
        make_symbol("2*i - 0.5*cay(z2)", 1.4, 2.6, "continuous-on-closure"),
        make_symbol("i + 0.1*cay(z1)*cay(z2)", 0.85, 1.15, "continuous-on-closure"),
        make_symbol("2*i - 0.2*cay(z1)*cay(z2)", 1.75, 2.25, "continuous-on-closure"),
    ]
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    radii = 10.0 ** np.arange(4, 9)
    worst = 0.0
    shifted_passes = 0
    for sym in symbols:
        limit = cluster_set(sym).points[0]
        for R in radii:
            z = R * signs + 1j * BOUNDARY_HEIGHT
            vals = sym(z[:, 0], z[:, 1])
            worst = max(worst, R * float(np.max(np.abs(vals - limit))))
            shifted_passes += R * float(np.max(np.abs(vals - (limit + 1e-3)))) <= 2.0
    ok = worst <= 2.0 and shifted_passes == 0
    _verdict(
        9,
        "exact limit vs far boundary values",
        ok,
        f"worst R |psi - limit| {worst:.4f} over {len(symbols)} symbols at "
        f"R = 1e4..1e8 (tol 2); limit shifted by 1e-3 passes at "
        f"{shifted_passes}/{radii.size * len(symbols)} radii (must be 0)",
    )
