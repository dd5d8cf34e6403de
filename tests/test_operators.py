import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from qpspec.grids import BOUNDARY_HEIGHT, ONE_NODE, BoundaryGrid, FrequencyGrid, GridError
from qpspec.operators import (
    OperatorMatrix,
    dilation,
    dilation_1d,
    fourier_multiplier,
    op_norm,
    separable_terms,
    toeplitz_halfplane,
    toeplitz_separable,
)
from qpspec.symbols import SymbolError, parse_symbol_expression

FG = FrequencyGrid.uniform(10.0, 48)


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _one_variable(M, grid):
    """The one-variable operator M on ``grid`` as the pair ([[1]], M)."""
    return OperatorMatrix((ONE_NODE, grid), [(np.ones((1, 1), dtype=complex),
                                              np.asarray(M, dtype=complex))])


# ---------------------------------------------------------------------------
# half-plane Toeplitz


def test_toeplitz_halfplane_constant_is_diagonal():
    T = toeplitz_halfplane(lambda x: np.full_like(np.asarray(x, complex), 3j), FG)
    assert np.max(np.abs(T - 3j * np.eye(FG.size))) < 1e-12


def test_toeplitz_halfplane_cauchy_symbol():
    # phi(x) = 1/(x + i) has analytic continuation into the upper half-plane;
    # its Toeplitz operator in the frequency rep is lower triangular
    # (convolution with a kernel supported at nonnegative lag)
    T = toeplitz_halfplane(lambda x: 1.0 / (np.asarray(x) + 1j), FG)
    n = FG.size
    upper = np.triu(T, 1)
    lower = np.tril(T, -1)
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
    lhs = T @ (B @ f)
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


def test_toeplitz_halfplane_two_symbols_peak_below_4_mb():
    # one pass for two symbols at n = 32 holds a 1 MiB phase block, the
    # symbols' weighted values and their evaluation's temporaries
    fg = FrequencyGrid.uniform(10.0, 32)
    texts = ("i + 0.25*cay(z1)", "2*i - 0.5*cay(z1)")
    symbols = tuple(parse_symbol_expression(t).as_one_variable() for t in texts)
    tracemalloc.start()
    try:
        toeplitz_halfplane(symbols, fg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _full_quadrature(symbol, fgrid):
    """toeplitz_halfplane with the exponential taken for every frequency
    difference, in blocks of _TOEPLITZ_BLOCK rows in order."""
    from qpspec import operators

    rule = BoundaryGrid.uniform(operators._TOEPLITZ_EXTENT, operators._TOEPLITZ_NODES)
    c = operators.symbol_limit_at_infinity(symbol)
    hw = (np.asarray(symbol(rule.nodes + 1j * BOUNDARY_HEIGHT)) - c) * rule.weights
    t = fgrid.nodes
    svals, inv = np.unique(np.round(np.subtract.outer(t, t), 12), return_inverse=True)
    hhat = np.empty(svals.size, dtype=complex)
    b = operators._TOEPLITZ_BLOCK
    for lo in range(0, svals.size, b):
        hhat[lo:lo + b] = np.exp(-1j * np.outer(svals[lo:lo + b], rule.nodes)) @ hw
    hhat /= 2.0 * np.pi
    return hhat[inv].reshape(t.size, t.size) * fgrid.weights[None, :] + c * np.eye(t.size)


# 2n - 1 differences: one more than a multiple of the block size 4 at
# n = 3, 5, 7, 9, 11, 13 and 17, three more at the even n
@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 11, 13, 16, 17, 32])
@pytest.mark.parametrize("text", ["i + 0.25*cay(z1)", "2*i - 0.5*cay(z1)"])
def test_toeplitz_halfplane_conjugate_rows_are_bit_identical(n, text):
    symbol = parse_symbol_expression(text).as_one_variable()
    fg = FrequencyGrid.uniform(10.0, n)
    got = toeplitz_halfplane(symbol, fg)
    assert got.tobytes() == _full_quadrature(symbol, fg).tobytes()


# 2n - 1 differences: one more than a multiple of the block size 4 at
# n = 3, 5, 7, 9, 11 and 13
@pytest.mark.parametrize("n", [3, 5, 7, 8, 9, 11, 13, 32])
def test_toeplitz_halfplane_one_pass_for_several_symbols_is_bit_identical(n):
    fg = FrequencyGrid.uniform(10.0, n)
    texts = ("i + 0.25*cay(z1)", "2*i - 0.5*cay(z1)", "i + 0.25*cay(z1)")
    symbols = tuple(parse_symbol_expression(t).as_one_variable() for t in texts)
    together = toeplitz_halfplane(symbols, fg)
    assert len(together) == len(symbols)
    for symbol, T in zip(symbols, together):
        assert T.tobytes() == toeplitz_halfplane(symbol, fg).tobytes()


def test_toeplitz_separable_expression():
    expr = parse_symbol_expression("i + 0.25*cay(z1)")
    T = toeplitz_separable(expr, (FG, FG))
    T1 = toeplitz_halfplane(
        lambda x: 1j + 0.25 * (np.asarray(x) - 1j) / (np.asarray(x) + 1j), FG
    )
    expect = np.kron(T1, np.eye(FG.size))
    assert np.max(np.abs(T.entries - expect)) < 1e-10


# ---------------------------------------------------------------------------
# multipliers, dilations


def test_fourier_multiplier_diagonal():
    D = fourier_multiplier(lambda t: np.exp(-t), FG)
    assert np.allclose(D, np.diag(np.exp(-FG.nodes)))


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
    V1, V2 = dilation(1.0, 1.0, (FG, FG))
    assert np.array_equal(V1, np.eye(FG.size)) and np.array_equal(V2, np.eye(FG.size))


def test_dilation_rejects_extreme_stretch():
    with pytest.raises(GridError):
        dilation_1d(100.0, FG)


# ---------------------------------------------------------------------------
# factored operators / embeddings / norms


def test_operator_matrix_rejects_non_square_entries():
    # one grid gives both dimensions of a factor, so a rectangular matrix
    # cannot be one (and never reaches eigenvalues or the kernels)
    g1, g2 = FrequencyGrid.uniform(4.0, 3), FrequencyGrid.uniform(4.0, 4)
    for grid in (g1, g2):
        with pytest.raises(GridError):
            _one_variable(np.zeros((3, 4), dtype=complex), grid)
    with pytest.raises(GridError):
        OperatorMatrix((g1, g2), [(np.eye(3), np.eye(4)[:3])])


def test_kron_of_diagonals_row_major():
    A = fourier_multiplier(lambda t: np.exp(-t), FG)
    B = fourier_multiplier(lambda t: np.exp(-2 * t), FG)
    K = OperatorMatrix((FG, FG), [(A, B)])
    t1 = np.repeat(FG.nodes, FG.size)
    t2 = np.tile(FG.nodes, FG.size)
    assert np.max(np.abs(np.diag(K.entries) - np.exp(-t1 - 2 * t2))) < 1e-14


def test_row_blocks_have_the_second_axis_height_in_both_forms():
    # one Kronecker pair and a sum of three: each block holds the n2 rows of
    # one first-axis row
    rng = np.random.default_rng(5)
    g1, g2 = FrequencyGrid.uniform(4.0, 5), FrequencyGrid.uniform(4.0, 6)
    pairs = [(_random_matrix(rng, 5), _random_matrix(rng, 6)) for _ in range(3)]
    one = OperatorMatrix((g1, g2), pairs[:1])
    three = OperatorMatrix((g1, g2), pairs)
    assert np.array_equal(one.entries, np.kron(*pairs[0]))
    ref = sum(np.kron(A, B) for A, B in pairs)
    assert np.max(np.abs(three.entries - ref)) <= 1e-13 * np.max(np.abs(ref))
    for op in (one, three):
        blocks = list(op.row_blocks())
        assert [b.shape for b in blocks] == [(g2.size, op.shape[1])] * g1.size
        assert np.array_equal(np.concatenate(blocks), op.entries)


def test_op_norm_examples():
    I = _one_variable(np.eye(FG.size, dtype=complex), FG)
    assert abs(op_norm(I) - 1.0) < 1e-12
    D = fourier_multiplier(lambda t: np.exp(-t), FG)
    assert abs(op_norm(_one_variable(D, FG)) - 1.0) < 1e-12


def test_op_norm_weighted_consistency():
    # norm is computed in the weighted space, so it is invariant under
    # refining the quadrature of the same multiplier
    for n in (32, 64):
        g = FrequencyGrid.uniform(10.0, n)
        D = fourier_multiplier(lambda t: np.exp(-t) * (1 + t), g)
        val = np.max(np.exp(-g.nodes) * (1 + g.nodes))
        assert abs(op_norm(_one_variable(D, g)) - val) < 1e-10


def test_kron_norm_multiplicative():
    rng = np.random.default_rng(1)
    g = FrequencyGrid.uniform(5.0, 12)
    A = _random_matrix(rng, g.size)
    B = _random_matrix(rng, g.size)
    K = OperatorMatrix((g, g), [(A, B)])
    norms = [op_norm(_one_variable(M, g)) for M in (A, B)]
    assert abs(op_norm(K) - norms[0] * norms[1]) < 1e-10


def test_embeddings_commute_exactly():
    rng = np.random.default_rng(2)
    g = FrequencyGrid.uniform(5.0, 10)
    A = _random_matrix(rng, g.size)
    B = _random_matrix(rng, g.size)
    eye = np.eye(g.size, dtype=complex)
    EA = OperatorMatrix((g, g), [(A, eye)])
    EB = OperatorMatrix((g, g), [(eye, B)])
    assert np.array_equal(EA.entries @ EB.entries, EB.entries @ EA.entries)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_mixed_product_property(seed):
    rng = np.random.default_rng(seed)
    g = FrequencyGrid.uniform(5.0, 8)
    A, B, C, D = (_random_matrix(rng, g.size) for _ in range(4))
    AB, CD = (OperatorMatrix((g, g), [f]) for f in ((A, B), (C, D)))
    lhs = AB.entries @ CD.entries
    rhs = np.kron(A @ C, B @ D)
    scale = np.max(np.abs(lhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12
