import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from qpspec.grids import BOUNDARY_HEIGHT, BoundaryGrid, FrequencyGrid, GridError
from qpspec.operators import (
    OperatorMatrix,
    dilation,
    dilation_1d,
    fourier_multiplier,
    kron,
    kron_apply,
    op_norm,
    separable_terms,
    toeplitz_halfplane,
    toeplitz_separable,
)
from qpspec.symbols import SymbolError, parse_symbol_expression

FG = FrequencyGrid.uniform(10.0, 48)


def _random_op(rng, grid):
    n = grid.size
    return OperatorMatrix(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), grid, grid
    )


# ---------------------------------------------------------------------------
# half-plane Toeplitz


def test_toeplitz_halfplane_constant_is_diagonal():
    T = toeplitz_halfplane(lambda x: np.full_like(np.asarray(x, complex), 3j), FG)
    assert np.max(np.abs(T.entries - 3j * np.eye(FG.size))) < 1e-12


def test_toeplitz_halfplane_cauchy_symbol():
    # phi(x) = 1/(x + i) has analytic continuation into the upper half-plane;
    # its Toeplitz operator in the frequency rep is lower triangular
    # (convolution with a kernel supported at nonnegative lag)
    T = toeplitz_halfplane(lambda x: 1.0 / (np.asarray(x) + 1j), FG)
    n = FG.size
    upper = np.triu(T.entries, 1)
    lower = np.tril(T.entries, -1)
    assert np.max(np.abs(upper)) < 5e-3 * np.max(np.abs(lower))


def test_toeplitz_halfplane_multiplication_action():
    # against a dense quadrature oracle: T_phi f = P(phi f) on a smooth
    # frequency profile; check via boundary-side multiplication
    from qpspec.grids import bochner_matrix

    bg = BoundaryGrid.uniform(100.0, 4096)
    fg = FrequencyGrid.uniform(12.0, 256)
    phi = lambda x: 1j + 0.25 * (np.asarray(x) - 1j) / (np.asarray(x) + 1j)
    T = toeplitz_halfplane(phi, fg)
    B = bochner_matrix(bg, fg)
    f = 1.0 / (bg.nodes + 1.5j) ** 2
    lhs = T.entries @ (B @ f)
    rhs = B @ (phi(bg.nodes) * f)  # phi f is already Hardy here
    w = fg.weights
    err = np.sqrt(np.sum(w * np.abs(lhs - rhs) ** 2) / np.sum(w * np.abs(rhs) ** 2))
    assert err < 2e-3


def test_toeplitz_halfplane_quadrature_memory_is_bounded():
    # all 2n - 1 frequency differences against the 16384 rule nodes make a
    # 67 MB complex phase matrix at n = 128; the quadrature takes it in row
    # blocks (the multiplication-action test above checks the values across
    # the blocks of its 511 differences)
    fg = FrequencyGrid.uniform(10.0, 128)
    tracemalloc.start()
    try:
        T = toeplitz_halfplane(lambda x: 1.0 / (np.asarray(x) + 1j), fg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    assert T.shape == (128, 128)


def _full_quadrature(symbol, fgrid):
    """toeplitz_halfplane with the exponential taken for every frequency
    difference, in blocks of 16 rows in order."""
    from qpspec import operators

    rule = BoundaryGrid.uniform(operators._TOEPLITZ_EXTENT, operators._TOEPLITZ_NODES)
    c = operators.symbol_limit_at_infinity(symbol)
    hw = (np.asarray(symbol(rule.nodes + 1j * BOUNDARY_HEIGHT)) - c) * rule.weights
    t = fgrid.nodes
    svals, inv = np.unique(np.round(np.subtract.outer(t, t), 12), return_inverse=True)
    hhat = np.empty(svals.size, dtype=complex)
    for lo in range(0, svals.size, 16):
        hhat[lo:lo + 16] = np.exp(-1j * np.outer(svals[lo:lo + 16], rule.nodes)) @ hw
    hhat /= 2.0 * np.pi
    return hhat[inv].reshape(t.size, t.size) * fgrid.weights[None, :] + c * np.eye(t.size)


# n = 9 and 17 give 2n - 1 differences one more than a multiple of 16
@pytest.mark.parametrize("n", [2, 8, 9, 16, 17, 32])
@pytest.mark.parametrize("text", ["i + 0.25*cay(z1)", "2*i - 0.5*cay(z1)"])
def test_toeplitz_halfplane_conjugate_rows_are_bit_identical(n, text):
    symbol = parse_symbol_expression(text).as_one_variable()
    fg = FrequencyGrid.uniform(10.0, n)
    got = toeplitz_halfplane(symbol, fg).entries
    assert got.tobytes() == _full_quadrature(symbol, fg).tobytes()


# n = 9 gives 17 differences, one more than a multiple of 16
@pytest.mark.parametrize("n", [8, 9, 32])
def test_toeplitz_halfplane_one_pass_for_several_symbols_is_bit_identical(n):
    fg = FrequencyGrid.uniform(10.0, n)
    texts = ("i + 0.25*cay(z1)", "2*i - 0.5*cay(z1)", "i + 0.25*cay(z1)")
    symbols = tuple(parse_symbol_expression(t).as_one_variable() for t in texts)
    together = toeplitz_halfplane(symbols, fg)
    assert len(together) == len(symbols)
    for symbol, T in zip(symbols, together):
        assert T.entries.tobytes() == toeplitz_halfplane(symbol, fg).entries.tobytes()


def test_toeplitz_separable_expression():
    expr = parse_symbol_expression("i + 0.25*cay(z1)")
    T = toeplitz_separable(expr, (FG, FG))
    T1 = toeplitz_halfplane(
        lambda x: 1j + 0.25 * (np.asarray(x) - 1j) / (np.asarray(x) + 1j), FG
    )
    expect = np.kron(T1.entries, np.eye(FG.size))
    assert np.max(np.abs(T.entries - expect)) < 1e-10


@pytest.mark.parametrize(
    "text",
    [
        "i + 0.1*cay(z1)*cay(z2)",
        "2*i - 0.2*cay(z1)*cay(z2)",
        "i + 0.25*cay(z1) + 0*cay(z2)",
        "2*i - 0.5",
        "0.5*cay(z2)",
    ],
    ids=["twovar_psi1", "twovar_psi2", "zero_z2_term", "constant_only", "f2_only"],
)
def test_kron_apply_matches_dense_separable_toeplitz(text):
    # unequal axis sizes and a column count that is neither, so a swapped
    # axis or a transposed factor cannot pass
    fg = (FrequencyGrid.uniform(8.0, 7), FrequencyGrid.uniform(8.0, 9))
    expr = parse_symbol_expression(text)
    terms = separable_terms(expr, fg)
    # the constants are folded into one leading (c, None, None) term
    scalars = [i for i, (c, A, B) in enumerate(terms) if A is None and B is None]
    assert scalars in ([], [0])
    X = np.random.default_rng(3).standard_normal((63, 5 * 2)).view(complex)
    ref = toeplitz_separable(expr, fg).entries @ X
    diff = kron_apply(terms, X, (7, 9)) - ref
    assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# multipliers, dilations


def test_fourier_multiplier_diagonal():
    D = fourier_multiplier(lambda t: np.exp(-t), FG)
    assert np.allclose(D.entries, np.diag(np.exp(-FG.nodes)))


def test_fourier_multiplier_rejects_nonfinite():
    with pytest.raises(SymbolError):
        fourier_multiplier(lambda t: 1.0 / t, FG)


def test_dilation_forward():
    fg = FrequencyGrid.uniform(16.0, 96)
    V = dilation_1d(2.0, fg)
    g = np.exp(-fg.nodes)
    assert np.max(np.abs(V @ g - 0.5 * np.exp(-fg.nodes / 2.0))) < 1e-4


def test_dilation_roundtrip():
    fg = FrequencyGrid.uniform(16.0, 96)
    V2 = dilation_1d(2.0, fg)
    Vh = dilation_1d(0.5, fg)
    h = fg.nodes * np.exp(-fg.nodes)
    assert np.max(np.abs(V2 @ (Vh @ h) - h)) < 5e-3


@pytest.mark.parametrize("n", [4, 5, 8, 32, 64, 129])
@pytest.mark.parametrize("p", [2.0, 0.5, 1.5, 7.9])
def test_dilation_matches_per_column_splines(p, n):
    # bit patterns, not values: -0 and +0 are written as "-0" and "0"
    for extent in (1.0, 16.0):
        fg = FrequencyGrid.uniform(extent, n)
        t = fg.nodes
        ref = np.zeros((n, n))
        for k in range(n):
            col = CubicSpline(t, np.eye(n)[k], bc_type="not-a-knot")(t / p)
            col[t / p > fg.extent] = 0.0
            ref[:, k] = col
        got = dilation_1d(p, fg)
        assert np.array_equal(got.view(np.uint64), (ref / p).view(np.uint64))


@pytest.mark.parametrize("n", [2, 3])
def test_dilation_rejects_fewer_than_four_nodes(n):
    with pytest.raises(GridError):
        dilation_1d(2.0, FrequencyGrid.uniform(10.0, n))


def test_dilation_identity_for_p_one():
    V = dilation(1.0, 1.0, (FG, FG))
    assert np.array_equal(V.entries, np.eye(FG.size**2))


def test_dilation_rejects_extreme_stretch():
    with pytest.raises(GridError):
        dilation_1d(100.0, FG)


# ---------------------------------------------------------------------------
# kron / embeddings / norms


def test_kron_of_diagonals_row_major():
    A = fourier_multiplier(lambda t: np.exp(-t), FG)
    B = fourier_multiplier(lambda t: np.exp(-2 * t), FG)
    K = kron(A, B)
    t1 = np.repeat(FG.nodes, FG.size)
    t2 = np.tile(FG.nodes, FG.size)
    assert np.max(np.abs(np.diag(K.entries) - np.exp(-t1 - 2 * t2))) < 1e-14


def test_row_blocks_have_the_second_axis_height_in_both_forms():
    rng = np.random.default_rng(5)
    g1, g2 = FrequencyGrid.uniform(4.0, 5), FrequencyGrid.uniform(4.0, 6)
    A = kron(_random_op(rng, g1), _random_op(rng, g2))
    n = g1.size * g2.size
    dense = OperatorMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                           (g1, g2), (g1, g2))
    assert np.array_equal(A.entries, np.kron(*A.factors))
    for op in (A, dense):
        blocks = list(op.row_blocks())
        assert [b.shape for b in blocks] == [(g2.size, op.shape[1])] * g1.size
        assert np.array_equal(np.concatenate(blocks), op.entries)


def test_op_norm_examples():
    I = OperatorMatrix(np.eye(FG.size, dtype=complex), FG, FG)
    assert abs(op_norm(I) - 1.0) < 1e-12
    D = fourier_multiplier(lambda t: np.exp(-t), FG)
    assert abs(op_norm(D) - 1.0) < 1e-12


def test_op_norm_weighted_consistency():
    # norm is computed in the weighted space, so it is invariant under
    # refining the quadrature of the same multiplier
    for n in (32, 64):
        g = FrequencyGrid.uniform(10.0, n)
        D = fourier_multiplier(lambda t: np.exp(-t) * (1 + t), g)
        val = np.max(np.exp(-g.nodes) * (1 + g.nodes))
        assert abs(op_norm(D) - val) < 1e-10


def test_kron_norm_multiplicative():
    rng = np.random.default_rng(1)
    g = FrequencyGrid.uniform(5.0, 12)
    A = _random_op(rng, g)
    B = _random_op(rng, g)
    assert abs(op_norm(kron(A, B)) - op_norm(A) * op_norm(B)) < 1e-10


def test_embeddings_commute_exactly():
    rng = np.random.default_rng(2)
    g = FrequencyGrid.uniform(5.0, 10)
    A = _random_op(rng, g)
    B = _random_op(rng, g)
    eye = OperatorMatrix(np.eye(g.size, dtype=complex), g, g)
    EA = kron(A, eye)
    EB = kron(eye, B)
    assert np.array_equal(EA.entries @ EB.entries, EB.entries @ EA.entries)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_mixed_product_property(seed):
    rng = np.random.default_rng(seed)
    g = FrequencyGrid.uniform(5.0, 8)
    A, B, C, D = (_random_op(rng, g) for _ in range(4))
    lhs = kron(A, B).entries @ kron(C, D).entries
    rhs = np.kron(A.entries @ C.entries, B.entries @ D.entries)
    scale = np.max(np.abs(lhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12
