import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import qmc

from qpspec.symbols import (
    SymbolError,
    closure_image,
    cluster_set,
    dedup_points,
    halton,
    make_symbol,
    parse_symbol_expression,
)


def const_i():
    return make_symbol("i", 1.0, 1.0, "constant")


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_arithmetic():
    e = parse_symbol_expression("2*i + 0.5*cay(z1) - cay(z2)")
    val = e(1j, 0.0)  # cay(i)=0, cay(0)=-1
    assert abs(val - (2j + 1.0)) < 1e-15


def test_parse_rejects_unknown_names():
    for bad in ("exp(z1)", "z3", "__import__('os')", "z1.real"):
        with pytest.raises(SymbolError):
            parse_symbol_expression(bad)


def test_parse_rejects_two_variable_division():
    with pytest.raises(SymbolError):
        parse_symbol_expression("1/(z1 + z2)")


def test_parse_power():
    e = parse_symbol_expression("cay(z1)**2")
    z = 3.0 + 2.0j
    c = (z - 1j) / (z + 1j)
    assert abs(e(z, 0.0) - c * c) < 1e-14


def test_parse_division_by_one_axis_expression_is_bit_exact():
    # a one-axis denominator g becomes the factor 1.0 / g(z) on its axis, a
    # constant one the coefficient 1.0 / c
    rng = np.random.default_rng(4)
    z1 = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.1, 3, 50)
    z2 = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.1, 3, 50)
    cases = {
        "i + 1/(z1 + 2*i)": 1j + 1.0 / (z1 + 2j),
        "3/(z2 + i)": 3 * (1.0 / (z2 + 1j)),
        "z2/4": z2 / 4,
    }
    for text, ref in cases.items():
        assert np.array_equal(parse_symbol_expression(text)(z1, z2), ref), text


@given(st.floats(-5, 5), st.floats(0.1, 5), st.floats(-5, 5), st.floats(0.1, 5))
@settings(max_examples=100)
def test_parse_matches_direct_evaluation(x1, y1, x2, y2):
    e = parse_symbol_expression("i + 0.25*cay(z1) + 0.25*cay(z2)")
    z1, z2 = x1 + 1j * y1, x2 + 1j * y2
    direct = 1j + 0.25 * (z1 - 1j) / (z1 + 1j) + 0.25 * (z2 - 1j) / (z2 + 1j)
    assert abs(e(z1, z2) - direct) < 1e-12


# ---------------------------------------------------------------------------
# symbol admission


def test_make_symbol_rejects_violated_im_bound():
    # Im(cay(z1)) gets arbitrarily close to -1 scaled: i + 2*cay dips below 0
    with pytest.raises(SymbolError):
        make_symbol("i + 2*cay(z1)", 0.1, 3.0, "continuous-on-closure")


def test_make_symbol_rejects_violated_sup_bound():
    with pytest.raises(SymbolError):
        make_symbol("5*i", 4.0, 1.0, "constant")


# ---------------------------------------------------------------------------
# dedup


def test_dedup_orders_and_merges():
    pts = np.array([1 + 1j, 1 + 1j + 1e-12, 0.0, -1j])
    out = dedup_points(pts)
    assert out.size == 3
    assert np.all(np.diff(out.real) >= 0)


def _dedup_reference(pts, resolution):
    # the sequential rule: in (re, im) order, keep a point when it lies more
    # than the resolution from the last kept point
    pts = pts[np.lexsort((pts.imag, pts.real))]
    keep = [pts[0]]
    for p in pts[1:]:
        if abs(p - keep[-1]) > resolution:
            keep.append(p)
    return np.array(keep)


def test_dedup_keeps_against_the_last_kept_point():
    # 0.9e-9i is dropped against 0; the third point lies 1.49e-9 from it
    # but only 0.71e-9 from 0, the last kept point, so it is dropped too
    pts = np.array([0.0, 0.9e-9j, 0.5e-9 - 0.5e-9j])
    out = dedup_points(pts)
    assert np.array_equal(out, _dedup_reference(pts, 1e-9))
    assert np.array_equal(out, np.array([0.0 + 0.0j]))


@pytest.mark.parametrize("seed", range(6))
def test_dedup_matches_sequential_rule_on_near_duplicate_chains(seed):
    rng = np.random.default_rng(seed)
    res = 1e-9
    base = rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400)
    # chains of points a fraction of the resolution apart, some wandering
    # more than the resolution from their start
    steps = (rng.uniform(-0.9, 0.9, (400, 6)) + 1j * rng.uniform(-0.9, 0.9, (400, 6))) * res
    chains = base[:, None] + np.cumsum(steps, axis=1)
    pts = np.concatenate([base, chains.reshape(-1), base[:50], rng.choice(chains.reshape(-1), 300)])
    rng.shuffle(pts)
    out = dedup_points(pts)
    assert out.dtype == pts.dtype
    assert np.array_equal(out, _dedup_reference(pts, res))


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100)
def test_dedup_idempotent(pts):
    a = dedup_points(np.array(pts))
    b = dedup_points(a)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# quasi-random sweep

HALTON_SEEDS = (0, 1, 2, 12345, 2**31 - 1)


def scipy_halton(seed):
    return qmc.Halton(d=4, scramble=True, seed=seed)


@pytest.mark.parametrize("seed", HALTON_SEEDS)
@pytest.mark.parametrize("count", [1, 4096, 10_000])
def test_halton_matches_scipy_bit_for_bit(seed, count):
    # 10,000 is make_symbol's spot check, 4,096 the closure cloud
    ours = halton(count, seed)
    assert ours.shape == (count, 4)
    assert np.array_equal(ours.view(np.uint64), scipy_halton(seed).random(count).view(np.uint64))


@pytest.mark.parametrize("seed", HALTON_SEEDS)
def test_halton_one_draw_matches_successive_engine_draws(seed):
    # a draw of 11 x 512 points equals 11 successive draws of 512 from one engine
    eng = scipy_halton(seed)
    successive = np.concatenate([eng.random(512) for _ in range(11)])
    assert np.array_equal(halton(11 * 512, seed).view(np.uint64), successive.view(np.uint64))


# ---------------------------------------------------------------------------
# cluster sets


def test_cluster_constant_is_singleton():
    c = cluster_set(const_i())
    assert np.max(np.abs(c.points - 1j)) < 1e-12


def test_cluster_continuous_symbol_hits_boundary_limit():
    sym = make_symbol("i + 0.5*cay(z1)", 0.45, 1.6, "continuous-on-closure")
    c = cluster_set(sym)
    assert np.max(np.abs(c.points - (0.5 + 1j))) < 1e-12
    assert len(c) == 1


def test_cluster_product_symbol():
    sym = make_symbol("i + 0.5*cay(z1)*cay(z2)", 0.4, 1.6, "continuous-on-closure")
    c = cluster_set(sym)
    assert np.max(np.abs(c.points - (0.5 + 1j))) < 1e-12
    assert len(c) == 1
    # a two-variable product term with a non-unit coefficient: cay -> 1
    sym = make_symbol("2*i - 0.2*cay(z1)*cay(z2)", 1.75, 2.25, "continuous-on-closure")
    c = cluster_set(sym)
    assert np.max(np.abs(c.points - (-0.2 + 2j))) < 1e-12
    assert len(c) == 1


# ---------------------------------------------------------------------------
# closure image


def test_closure_image_constant():
    c = closure_image(const_i())
    assert np.max(np.abs(c.points - 1j)) < 1e-12


def test_closure_image_disc_bound():
    sym = make_symbol("i + 0.5*cay(z1)", 0.45, 1.6, "continuous-on-closure")
    c = closure_image(sym)
    assert np.max(np.abs(c.points - 1j)) <= 0.5 + 1e-9
    assert np.min(c.points.imag) >= 0.45 - 1e-9
