import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpspec.grids import (
    BoundaryGrid,
    DomainError,
    FrequencyGrid,
    GridError,
    bochner_matrix,
    cayley,
    grid_weights,
)


# ---------------------------------------------------------------------------
# cayley


def test_cayley_values():
    assert cayley(1j) == 0
    assert cayley(0.0) == -1
    assert abs(cayley(1 + 1j) - (0.2 - 0.4j)) < 1e-15


def test_cayley_poles():
    with pytest.raises(DomainError):
        cayley(-1j)


@given(
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 1000.0),
)
@settings(max_examples=200)
def test_cayley_roundtrip(x, y):
    z = x + 1j * y
    w = cayley(z)
    assert abs(w) < 1.0
    # the inverse map w -> i(1+w)/(1-w) recovers z
    assert abs(1j * (1.0 + w) / (1.0 - w) - z) <= 1e-12 * max(1.0, abs(z) ** 2)


# ---------------------------------------------------------------------------
# grids


def test_boundary_grid_invariants():
    g = BoundaryGrid.uniform(50.0, 256)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert np.allclose(g.nodes, -g.nodes[::-1])


def test_rational_grid_integrates_rational_tails():
    # tan-substituted midpoint handles 1/(1+x^2) over the whole line
    g = BoundaryGrid.rational(400, 4.0)
    val = np.sum(g.weights / (1.0 + g.nodes**2))
    assert abs(val - np.pi) < 1e-12


def test_frequency_grid_rejects_negative_nodes():
    with pytest.raises(GridError):
        FrequencyGrid(np.array([-1.0, 0.0, 1.0]), np.ones(3), 1.0)


# ---------------------------------------------------------------------------
# bochner transform


BG = BoundaryGrid.uniform(200.0, 8192)
FG = FrequencyGrid.uniform(20.0, 2048)


def test_transform_of_cauchy_factor_is_exponential():
    B = bochner_matrix(BG, FG)
    ft = B @ (1.0 / (BG.nodes + 1j))
    ref = -1j * np.sqrt(2 * np.pi) * np.exp(-FG.nodes)
    # away from the t=0 jump the profile matches the contour-integral value
    mask = FG.nodes > 0.5
    assert np.max(np.abs(ft - ref)[mask]) < 2e-2
    # proportionality to e^{-t} is much sharper than the absolute error
    scale = ft[mask][0] / ref[mask][0]
    assert abs(scale - 1.0) < 5e-3


def test_parseval_two_variable():
    # quadrature-limited: boundary tails decay like 1/x, so the relative
    # defect floors near 1/X rather than the formal machine level
    g = BoundaryGrid.uniform(200.0, 4096)
    fg = FrequencyGrid.uniform(20.0, 1024)
    u1, u2 = 1.0 / (g.nodes + 1j), 1.0 / (g.nodes + 2j)
    B = bochner_matrix(g, fg)
    closed = np.sqrt(np.pi * (np.pi / 2.0))
    norm = lambda v, grid: np.sqrt(np.sum(grid_weights(grid) * np.abs(v) ** 2))
    assert abs(norm(np.kron(u1, u2), (g, g)) - closed) / closed < 6e-3
    assert abs(norm(np.kron(B @ u1, B @ u2), (fg, fg)) - closed) / closed < 2e-2
