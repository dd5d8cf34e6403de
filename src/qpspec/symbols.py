"""Catalog and evaluation of admissible analytic symbols.

A symbol is a bounded analytic function psi on the upper half-plane (or its
square) whose imaginary part stays above a certified epsilon > 0.  Symbols
are written in a small expression language over ``z1``, ``z2``, ``i``,
numeric constants and the builtin ``cay(z) = (z - i)/(z + i)``; parsing
produces, wherever possible, a sum-of-products decomposition
``sum_j f_j(z1) g_j(z2)`` which the Toeplitz machinery later relies on.

Also provides the boundary data feeding the spectral predictor: the cluster
point at infinity, exact from the factors' limits, and sampled closures of
the symbol's image.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import BOUNDARY_HEIGHT, cayley

DEDUP_RESOLUTION = 1e-9

# quasi-random points of H^2 behind the sampled closure of a symbol image
CLOSURE_SAMPLES = 4096


class SymbolError(ValueError):
    """Bad symbol specification or failed admissibility check."""


# ---------------------------------------------------------------------------
# separable expression algebra


def _mul_fns(a, b):
    return lambda z: a(z) * b(z)


@dataclass
class SepTerm:
    """One product term c * f1(z1) * f2(z2); a missing factor means 1."""

    coeff: complex = 1.0
    f1: Optional[Callable] = None
    f2: Optional[Callable] = None

    def __call__(self, z1, z2):
        out = np.full(np.broadcast(z1, z2).shape, self.coeff, dtype=complex)
        if self.f1 is not None:
            out = out * self.f1(np.asarray(z1, dtype=complex))
        if self.f2 is not None:
            out = out * self.f2(np.asarray(z2, dtype=complex))
        return out


class SepExpr:
    """Finite sum of separable product terms over (z1, z2)."""

    def __init__(self, terms: Sequence[SepTerm]):
        self.terms = list(terms)

    @classmethod
    def constant(cls, c) -> "SepExpr":
        return cls([SepTerm(coeff=complex(c))])

    @classmethod
    def variable(cls, axis: int) -> "SepExpr":
        ident = lambda z: z
        return cls([SepTerm(f1=ident) if axis == 1 else SepTerm(f2=ident)])

    def __call__(self, z1, z2):
        out = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for t in self.terms:
            out = out + t(z1, z2)
        return out

    def __add__(self, other: "SepExpr") -> "SepExpr":
        return SepExpr(self.terms + other.terms)

    def __neg__(self) -> "SepExpr":
        return SepExpr([SepTerm(-t.coeff, t.f1, t.f2) for t in self.terms])

    def __sub__(self, other: "SepExpr") -> "SepExpr":
        return self + (-other)

    def __mul__(self, other: "SepExpr") -> "SepExpr":
        out = []
        for a in self.terms:
            for b in other.terms:
                f1 = a.f1 if b.f1 is None else (b.f1 if a.f1 is None else _mul_fns(a.f1, b.f1))
                f2 = a.f2 if b.f2 is None else (b.f2 if a.f2 is None else _mul_fns(a.f2, b.f2))
                out.append(SepTerm(a.coeff * b.coeff, f1, f2))
        return SepExpr(out)

    # -- structural queries -------------------------------------------------

    def single_variable(self) -> Optional[int]:
        """1 or 2 if every term depends on that axis only, 0 if constant."""
        has1 = any(t.f1 is not None for t in self.terms)
        has2 = any(t.f2 is not None for t in self.terms)
        if has1 and has2:
            return None
        return 1 if has1 else (2 if has2 else 0)

    def as_one_variable(self) -> Callable:
        axis = self.single_variable()
        if axis is None:
            raise SymbolError("expression depends on both variables")
        if axis in (0, 1):
            return lambda z: self(z, np.zeros_like(np.asarray(z)))
        return lambda z: self(np.zeros_like(np.asarray(z)), z)

    def compose_one_variable(self, outer: Callable) -> Optional["SepExpr"]:
        """outer(self) when self depends on at most one axis."""
        axis = self.single_variable()
        if axis is None:
            return None
        g = self.as_one_variable()
        comp = lambda z: outer(g(z))
        if axis == 0:
            return SepExpr.constant(complex(outer(complex(self(0.0, 0.0)))))
        return SepExpr([SepTerm(f1=comp) if axis == 1 else SepTerm(f2=comp)])

    def rescaled(self, p1: float, p2: float) -> "SepExpr":
        """Expression (z1, z2) -> self(z1 / p1, z2 / p2)."""
        out = []
        for t in self.terms:
            f1 = None if t.f1 is None else (lambda z, f=t.f1: f(z / p1))
            f2 = None if t.f2 is None else (lambda z, f=t.f2: f(z / p2))
            out.append(SepTerm(t.coeff, f1, f2))
        return SepExpr(out)

# ---------------------------------------------------------------------------
# expression parser

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Load,
)


def parse_symbol_expression(text: str) -> SepExpr:
    """Parse the mini-language into a separable expression.

    Grammar: arithmetic (+ - * / ** with integer exponents) over ``z1``,
    ``z2``, ``i``, numeric literals, and ``cay(expr)`` where the call
    argument depends on at most one variable.  Division is only defined when
    the denominator depends on at most one variable.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SymbolError(f"cannot parse symbol expression {text!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise SymbolError(
                f"disallowed construct {type(node).__name__} in {text!r}"
            )
    return _build(tree.body)


def _build(node: ast.AST) -> SepExpr:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, complex)):
            raise SymbolError(f"non-numeric constant {node.value!r}")
        return SepExpr.constant(node.value)
    if isinstance(node, ast.Name):
        if node.id == "z1":
            return SepExpr.variable(1)
        if node.id == "z2":
            return SepExpr.variable(2)
        if node.id in ("i", "j", "I"):
            return SepExpr.constant(1j)
        raise SymbolError(f"unknown name {node.id!r}")
    if isinstance(node, ast.UnaryOp):
        inner = _build(node.operand)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id != "cay":
            raise SymbolError("only the builtin cay(...) may be called")
        if len(node.args) != 1:
            raise SymbolError("cay takes one argument")
        arg = _build(node.args[0])
        out = arg.compose_one_variable(cayley)
        if out is None:
            raise SymbolError("cay argument must depend on at most one variable")
        return out
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _build(node.left)
            if not (
                isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
                and node.right.value >= 0
            ):
                raise SymbolError("** requires a nonnegative integer exponent")
            out = SepExpr.constant(1.0)
            for _ in range(node.right.value):
                out = out * base
            return out
        left = _build(node.left)
        right = _build(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            inv = right.compose_one_variable(lambda w: 1.0 / w)
            if inv is None:
                raise SymbolError("division by a genuinely two-variable expression")
            return left * inv
    raise SymbolError(f"unsupported node {type(node).__name__}")


# ---------------------------------------------------------------------------
# symbols


CONTINUITY_CLASSES = ("constant", "continuous-on-closure", "separable-sum")

_SPOT_CHECK_SAMPLES = 10_000


@dataclass
class AnalyticSymbol:
    """Admissible symbol: bounded analytic with Im >= im_lower_bound > 0."""

    expr: SepExpr
    im_lower_bound: float

    def __call__(self, z1, z2):
        return self.expr(z1, z2)


HALTON_BASES = (2, 3, 5, 7)


def halton(count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of Owen's randomized Halton sequence in
    [0, 1)^4 (A. B. Owen, "A randomized Halton algorithm in R",
    arXiv:1706.02808), bit-identical to scipy 1.17.1's
    ``scipy.stats.qmc.Halton(d=4, scramble=True, seed=seed).random(count)``.

    Base b scrambles its first ceil(54 / log2 b) - 1 digits (the digits with
    b^-k > 2^-54) each by its own permutation, drawn base after base from
    ``np.random.default_rng(seed)``; point i sums perm_k[digit_k(i)] b^-k in
    digit order.  Each point depends only on its index, so the first m
    points of a longer draw are the draw of m points.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((len(HALTON_BASES), count))
    for col, base in zip(out, HALTON_BASES):
        perms = [rng.permutation(base) for _ in range(math.ceil(54 / math.log2(base)) - 1)]
        q = np.arange(count)
        scale = 1.0 / base
        for perm in perms:
            if q.any():
                col += perm[q % base] * scale
                q //= base
            else:  # every remaining digit is 0
                col += perm[0] * scale
            scale /= base
    return out.T


def halfplane_samples(count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-random sweep of H^2, stratified in height and extent."""
    u = halton(count, seed)
    x1 = np.tan(np.pi * (u[:, 0] - 0.5) * 0.999)
    x2 = np.tan(np.pi * (u[:, 1] - 0.5) * 0.999)
    y1 = 10.0 ** (4.0 * u[:, 2] - 2.0)
    y2 = 10.0 ** (4.0 * u[:, 3] - 2.0)
    return x1 + 1j * y1, x2 + 1j * y2


def spot_check_samples(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of H^2 at which ``make_symbol`` checks a symbol's bounds."""
    return halfplane_samples(_SPOT_CHECK_SAMPLES, seed=seed)


def make_symbol(
    expression: str,
    im_lower_bound: float,
    sup_bound: float,
    continuity_class: str,
    samples: tuple | None = None,
) -> AnalyticSymbol:
    """Parse and admissibility-check a symbol specification at the points
    ``samples``, a draw of ``spot_check_samples`` (seed 0 when None), which
    symbols checked together share."""
    if im_lower_bound <= 0:
        raise SymbolError("im_lower_bound must be positive")
    if continuity_class not in CONTINUITY_CLASSES:
        raise SymbolError(f"continuity_class must be one of {CONTINUITY_CLASSES}")
    expr = parse_symbol_expression(expression)
    z1, z2 = spot_check_samples(0) if samples is None else samples
    vals = expr(z1, z2)
    # NaN passes both bound checks below, as every comparison with it is False
    bad = np.argmin(np.isfinite(vals))
    if not np.isfinite(vals[bad]):
        raise SymbolError(f"{expression!r} is not finite at z = ({z1[bad]:.6g}, {z2[bad]:.6g})")
    bad = np.argmin(vals.imag)
    if vals.imag[bad] < im_lower_bound - 1e-12:
        raise SymbolError(
            f"Im bound check failed for {expression!r}: Im psi = {vals.imag[bad]:.6g}"
            f" < {im_lower_bound} at z = ({z1[bad]:.6g}, {z2[bad]:.6g})"
        )
    worst = np.argmax(np.abs(vals))
    if np.abs(vals[worst]) > sup_bound + 1e-12:
        raise SymbolError(
            f"sup bound check failed for {expression!r}: |psi| = "
            f"{np.abs(vals[worst]):.6g} > {sup_bound} at z = "
            f"({z1[worst]:.6g}, {z2[worst]:.6g})"
        )
    return AnalyticSymbol(expr, im_lower_bound)


# ---------------------------------------------------------------------------
# point clouds


@dataclass
class PointCloud:
    """Finite, deduplicated cloud of complex points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        self.points = dedup_points(pts)

    def __len__(self):
        return self.points.size


def dedup_points(pts: np.ndarray) -> np.ndarray:
    """Deduplicate to DEDUP_RESOLUTION; sorted by (re, im).

    In sorted order a point is kept when it lies more than DEDUP_RESOLUTION
    from the last kept point.  A point more than 2 resolutions from its
    predecessor is always kept, since the predecessor is either kept or
    within DEDUP_RESOLUTION of the last kept point; so only the points near
    their predecessor go through the sequential test.
    """
    if pts.size == 0:
        return pts
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    keep = np.ones(pts.size, dtype=bool)
    # the margin over 2 absorbs the rounding of the computed distances
    near = np.flatnonzero(~(np.abs(np.diff(pts)) > 2.001 * DEDUP_RESOLUTION)) + 1
    last, prev = None, -1
    for i, p, q in zip(near.tolist(), pts[near].tolist(), pts[near - 1].tolist()):
        if i - 1 != prev:  # the predecessor is not near its own, so it was kept
            last = q
        if abs(p - last) > DEDUP_RESOLUTION:
            last = p
        else:
            keep[i] = False
        prev = i
    return pts[keep]


# ---------------------------------------------------------------------------
# the point at infinity

# a factor's limit at infinity is read at +/- _INFINITY_PROBE, where its two
# values must agree to _INFINITY_RTOL
_INFINITY_PROBE = 1e8
_INFINITY_RTOL = 1e-6


def symbol_limit_at_infinity(fn: Callable) -> complex:
    """Value of a boundary symbol at the point at infinity: the mean of its
    values at +/- _INFINITY_PROBE, which must agree to _INFINITY_RTOL."""
    up = complex(np.asarray(fn(np.array([_INFINITY_PROBE + 1j * BOUNDARY_HEIGHT]))).reshape(-1)[0])
    dn = complex(np.asarray(fn(np.array([-_INFINITY_PROBE + 1j * BOUNDARY_HEIGHT]))).reshape(-1)[0])
    if abs(up - dn) > _INFINITY_RTOL * (1.0 + abs(up)):
        raise SymbolError(
            f"symbol has different limits at +/- infinity ({up:.6g} vs {dn:.6g}); "
            "not constant-plus-decaying"
        )
    return (up + dn) / 2.0


def cluster_set(sym: AnalyticSymbol) -> PointCloud:
    """The cluster set of psi at (inf, inf) on H^2: the one point sum over
    terms of coeff x the product of the factors' limits at infinity
    (``symbol_limit_at_infinity``, which raises SymbolError for a factor
    without one)."""
    limit = 0j
    for t in sym.expr.terms:
        value = t.coeff
        for f in (t.f1, t.f2):
            if f is not None:
                value *= symbol_limit_at_infinity(f)
        limit += value
    return PointCloud(np.array([limit]))


def closure_image(sym: AnalyticSymbol, seed: int = 0) -> PointCloud:
    """Sampled approximation of the closure of psi(H^2)."""
    z1, z2 = halfplane_samples(CLOSURE_SAMPLES, seed=seed)
    vals = sym(z1, z2)
    if np.min(vals.imag) < sym.im_lower_bound - 1e-9:
        raise SymbolError("closure sample violates the certified Im bound")
    return PointCloud(vals)
