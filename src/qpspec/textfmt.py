"""Whole-array ``%.12g`` text, byte-identical to ``format``.

``rows(re, im)`` is the bytes of
``"".join(f"{a:.12g},{b:.12g}\\n" for a, b in zip(re, im))``.

Each value gets a fixed-width ``uint8`` slot whose unused bytes are 0;
deleting the 0 bytes of the joined slots removes the padding.  The digits come
from scaling |x| to m = |x| * 10**(11 - X), X the decimal exponent, so that m
lies in [1e11, 1e12) and rint(m) holds the 12 significant digits, looked up
four at a time.  Then ``%g``'s rules apply: trailing zeros are dropped,
exponent notation is used when X < -4 or X >= 12, a rounding up to 1e12 moves
to the next power of ten, and -0 keeps its sign.

The scaled m carries a rounding error of at most about 4e-4, so it rounds like
the exact value except near a tie.  The values the float path cannot decide go
to ``format`` itself: those with |frac(m) - 1/2| below G_TIE, non-finite
values, and nonzero |x| outside [G_MIN, G_MAX].  A slot array is widened when
a fallback text does not fit.  An array that is at least half ±0 (the
operator of a constant or dilation map) sends only its nonzero values down
this path and writes "0" and "-0" into the zero slots directly.
"""

from __future__ import annotations

import numpy as np

G_MIN, G_MAX = 1e-270, 1e270
G_TIE = 2e-3

_ZERO, _DOT, _MINUS, _PLUS, _E = (ord(c) for c in "0.-+e")

# row v of _QUADS is the four ASCII digits of v, zero-padded
_DIGITS = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
_QUADS = np.stack([np.tile(np.repeat(_DIGITS, 10 ** (3 - k)), 10**k) for k in range(4)], axis=1)
# number of digits of v without its trailing zeros (0 for v = 0)
_SIGNIFICANT = (4 - np.argmax(_QUADS[:, ::-1] != _ZERO, axis=1)).astype(np.int8)
_SIGNIFICANT[0] = 0

# .12g slot: five 8-byte words, [sign and "0.000" prefix][12 digits, each
# followed by a byte that holds the decimal point or 0][exponent]
_G_WIDTH = 40
# the scales 10**(11 - X) for X from -272 to 271 (G_MIN..G_MAX and one step
# of slack each side for the log10 estimate); _POW10[k + _P0] = 10.0**k
_P0 = 260
_POW10 = 10.0 ** np.arange(-_P0, 284)
# a quad spread over 8 bytes, each digit followed by a 0 byte
_spread = np.zeros((10_000, 8), np.uint8)
_spread[:, ::2] = _QUADS
_G_QUADS = _spread.view(np.uint64).reshape(-1)
# row l keeps the first l digits of the 24-byte digit area
_keep = np.zeros((13, 24), np.uint8)
_keep[:, ::2] = np.where(np.arange(12) < np.arange(13)[:, None], 0xFF, 0)
_G_KEEP = _keep.view(np.uint64)
# row p + 1 puts the decimal point after digit p; row 0 puts none
_dots = np.zeros((13, 24), np.uint8)
_dots[np.arange(1, 13), np.arange(1, 24, 2)] = _DOT
_G_DOTS = _dots.view(np.uint64)
# row 5 * sign + z is "-" when sign, then "0." and z - 1 zeros when z > 0
_head = np.zeros((2, 5, 8), np.uint8)
_head[1, :, 0] = _MINUS
_head[:, 1:, 1] = _ZERO
_head[:, 1:, 2] = _DOT
_head[:, :, 3:6] = np.where(np.arange(3) < np.arange(-1, 4)[:, None], _ZERO, 0)
_G_HEAD = _head.reshape(10, 8).view(np.uint64).reshape(-1)
# row X + _E0 is "e", the sign and at least two digits of X; row _E0, which
# fixed notation uses, is empty
_E0 = 300
_exps = np.zeros((2 * _E0 + 1, 8), np.uint8)
_ex = np.arange(-_E0, _E0 + 1)
_exps[:, 0] = _E
_exps[:, 1] = np.where(_ex < 0, _MINUS, _PLUS)
_exps[:, 2:5] = _QUADS[np.abs(_ex), 1:]
_short = np.abs(_ex) < 100
_exps[_short, 2:4] = _QUADS[np.abs(_ex[_short]), 2:]
_exps[_short, 4] = 0
_exps[_E0] = 0
_G_EXPS = _exps.view(np.uint64).reshape(-1)
# the first two bytes of the slot of +0 and of -0
_G_ZEROS = np.frombuffer(b"0\0-0", np.uint16)

del _spread, _keep, _dots, _head, _exps, _ex, _short


def _quads(q: np.ndarray) -> np.ndarray:
    """(n, 3) quads of the 12 zero-padded digits of integer-valued floats
    0 <= q < 1e12.  Each floor of a quotient is exact: a quotient that is
    not an integer lies at least 1e-8 from one, far above its rounding
    error."""
    hi = np.floor(q / 1e8)
    rest = q - hi * 1e8
    mid = np.floor(rest / 1e4)
    out = np.empty((q.size, 3), np.intp)
    out[:, 0] = hi
    out[:, 1] = mid
    out[:, 2] = rest - mid * 1e4
    return out


def _g12(x: np.ndarray) -> np.ndarray:
    """(n, width) byte slots of ``format(v, ".12g")``.

    When at least half the values are zeros, only the others go through the
    digit pipeline and the zero slots get "0" or "-0" directly; with few
    zeros the gather and scatter would cost more than they save."""
    zero = x == 0
    if 2 * np.count_nonzero(zero) < x.size:
        return _g12_digits(x)
    rest = _g12_digits(x[~zero])
    out = np.zeros((x.size, rest.shape[1]), np.uint8)
    out.view(np.uint16)[:, 0] = np.take(_G_ZEROS, np.signbit(x).view(np.uint8))
    out[~zero] = rest
    return out


def _g12_digits(x: np.ndarray) -> np.ndarray:
    """(n, width) byte slots of ``format(v, ".12g")``, every value through
    the digit pipeline."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= G_MIN) & (a <= G_MAX)
    af = np.where(fast, a, 1.0)
    e = np.floor(np.log10(af)).astype(np.intp)
    m = af * np.take(_POW10, _P0 + 11 - e)
    e += m >= 1e12
    e -= m < 1e11
    m = af * np.take(_POW10, _P0 + 11 - e)
    r = np.rint(m)
    slow = ~(fast | zero) | (np.abs(m - np.floor(m) - 0.5) < G_TIE)
    up = r >= 1e12
    e += up
    r[up] = 1e11
    r[zero] = 0  # zeros, like fallback values, were scaled as 1.0, so X = 0
    quads = _quads(r)
    sig = np.take(_SIGNIFICANT, quads)
    nd = np.where(sig[:, 2] > 0, 8 + sig[:, 2], np.where(sig[:, 1] > 0, 4 + sig[:, 1], sig[:, 0]))

    fixed = (e >= -4) & (e < 12)
    small = fixed & (e < 0)
    # the integer digits of a fixed-notation value are kept, zeros or not
    # (so a zero keeps its one digit); the point follows digit p - 1 when
    # digits remain after it
    keep = np.where(fixed, np.maximum(nd, e + 1), nd)
    p = np.where(fixed, e + 1, 1)
    p[small] = 12
    dot = np.where(nd > p, p, 0)
    head = 5 * np.signbit(x) + small * -e

    # the fallback texts, and slots widened with 0 bytes to fit them
    texts = [(i, format(float(x[i]), ".12g").encode()) for i in np.flatnonzero(slow).tolist()]
    out = np.empty((x.size, max([_G_WIDTH] + [-(-len(s) // 8) * 8 for _, s in texts])), np.uint8)
    out[:, _G_WIDTH:] = 0
    words = out.view(np.uint64)
    words[:, 0] = np.take(_G_HEAD, head)
    words[:, 1:4] = np.take(_G_QUADS, quads) & np.take(_G_KEEP, keep, axis=0) | np.take(
        _G_DOTS, dot, axis=0
    )
    words[:, 4] = np.take(_G_EXPS, np.where(fixed, 0, e) + _E0)
    for i, s in texts:
        out[i] = 0
        out[i, : len(s)] = np.frombuffer(s, np.uint8)
    return out


def rows(re, im) -> bytes:
    """Row i of the result is ``format(re[i], ".12g")``, a comma,
    ``format(im[i], ".12g")`` and a newline.

    ``re`` and ``im`` are flattened, converted to float64 and must have the
    same size."""
    re = np.asarray(re, dtype=np.float64).reshape(-1)
    im = np.asarray(im, dtype=np.float64).reshape(-1)
    if re.size != im.size:
        raise ValueError("re and im differ in size")
    # one call formats both columns; its slots are then split by column
    slots = _g12(np.concatenate([re, im]))
    left, right = slots.reshape(2, re.size, slots.shape[1])
    comma = np.full((re.size, 1), ord(","), np.uint8)
    newline = np.full((re.size, 1), ord("\n"), np.uint8)
    return np.hstack([left, comma, right, newline]).tobytes().translate(None, b"\0")


