"""Whole-array ``%.12g`` and ``%.2f`` text, byte-identical to ``format``.

``rows(spec, *parts)`` formats float arrays and joins them, row by row, with
fixed byte strings: ``rows(".12g", re, b",", im, b"\\n")`` is the bytes of
``"".join(f"{a:.12g},{b:.12g}\\n" for a, b in zip(re, im))``.

Each value gets a fixed-width ``uint8`` slot whose unused bytes are 0;
deleting the 0 bytes of the joined slots removes the padding.  The digits come
from scaling |x| to a float m of integer size, rounding it and looking its
digits up four at a time:

* ``.12g``: m = |x| * 10**(11 - X) lies in [1e11, 1e12), X the decimal
  exponent, so rint(m) holds the 12 significant digits.  Then ``%g``'s rules
  apply: trailing zeros are dropped, exponent notation is used when
  X < -4 or X >= 12, a rounding up to 1e12 moves to the next power of ten,
  and -0 keeps its sign.
* ``.2f``: m = |x| * 100, and rint(m) holds the digits with two decimals.

The scaled m carries a rounding error (at most about 4e-4 for ``.12g`` and
1.2e-7 for ``.2f``), so it rounds like the exact value except near a tie.
The values the float path cannot decide go to ``format`` itself: those
with |frac(m) - 1/2| below the tie margin (G_TIE, F_TIE), non-finite
values, and values outside the scaled range (nonzero |x| outside
[G_MIN, G_MAX] for ``.12g``, |x| >= F_MAX for ``.2f``).  A slot array is widened when a
fallback text does not fit.  A ``.12g`` array that is at least half ±0 (the
operator of a constant or dilation map) sends only its nonzero values down
this path and writes "0" and "-0" into the zero slots directly.
"""

from __future__ import annotations

import numpy as np

G_MIN, G_MAX = 1e-270, 1e270
G_TIE = 2e-3
F_MAX = 1e7
F_TIE = 1e-6

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

# .2f slot: five 4-byte words, [sign][digits 1-4][digits 5-8][digits 9-10,
# the point, digits 11-12 and three 0 bytes], digits of rint(100 |x|)
_F_WIDTH = 20
_F_QUADS = _QUADS.view(np.uint32).reshape(-1)
_tail = np.zeros((10_000, 8), np.uint8)
_tail[:, [0, 1, 3, 4]] = _QUADS
_tail[:, 2] = _DOT
_F_TAIL = _tail.view(np.uint32)
_F_SIGN = np.array([[0, 0, 0, 0], [_MINUS, 0, 0, 0]], np.uint8).view(np.uint32).reshape(-1)
# row k keeps the last k integer digits (at least the units digit)
_fkeep = np.zeros((11, 20), np.uint8)
_fkeep[:, :4] = 0xFF
_fkeep[:, 4:14] = np.where(np.arange(10) >= 10 - np.arange(11)[:, None], 0xFF, 0)
_fkeep[:, 14:17] = 0xFF
_F_KEEP = _fkeep.view(np.uint32)
_F_POWERS = 10.0 ** np.arange(3, 12)

del _spread, _keep, _dots, _head, _exps, _ex, _short, _tail, _fkeep


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


def _slots(x: np.ndarray, slow: np.ndarray, spec: str, width: int) -> tuple[np.ndarray, list]:
    """Uninitialised (n, width) slots, widened with 0 bytes to fit the
    ``format`` texts of the values in ``slow``, and those texts by index."""
    texts = [(i, format(float(x[i]), spec).encode()) for i in np.flatnonzero(slow).tolist()]
    out = np.empty((x.size, max([width] + [-(-len(s) // 8) * 8 for _, s in texts])), np.uint8)
    out[:, width:] = 0
    return out, texts


def _place(out: np.ndarray, texts: list) -> np.ndarray:
    """Overwrite the slots of the fallback values with their texts."""
    for i, s in texts:
        out[i] = 0
        out[i, : len(s)] = np.frombuffer(s, np.uint8)
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

    out, texts = _slots(x, slow, ".12g", _G_WIDTH)
    words = out.view(np.uint64)
    words[:, 0] = np.take(_G_HEAD, head)
    words[:, 1:4] = np.take(_G_QUADS, quads) & np.take(_G_KEEP, keep, axis=0) | np.take(
        _G_DOTS, dot, axis=0
    )
    words[:, 4] = np.take(_G_EXPS, np.where(fixed, 0, e) + _E0)
    return _place(out, texts)


def _f2(x: np.ndarray) -> np.ndarray:
    """(n, width) byte slots of ``format(v, ".2f")``."""
    a = np.abs(x)
    fast = a < F_MAX
    m = np.where(fast, a, 0.0) * 100
    slow = ~fast | (np.abs(m - np.floor(m) - 0.5) < F_TIE)
    r = np.rint(m)
    quads = _quads(r)
    out, texts = _slots(x, slow, ".2f", _F_WIDTH)
    words = out.view(np.uint32)
    words[:, 0] = np.take(_F_SIGN, np.signbit(x).view(np.uint8))
    words[:, 1:3] = np.take(_F_QUADS, quads[:, :2])
    words[:, 3:5] = np.take(_F_TAIL, quads[:, 2], axis=0)
    # integer digits: 1 + the number of powers 10**3..10**11 at or below r
    words[:, :5] &= np.take(_F_KEEP, 1 + np.searchsorted(_F_POWERS, r, "right"), axis=0)
    return _place(out, texts)


_FORMATS = {".12g": _g12, ".2f": _f2}


def rows(spec: str, *parts) -> bytes:
    """Row i of the result is the concatenation, over ``parts``, of each
    bytes part itself and of ``format(float(part[i]), spec)`` for each
    array part.

    ``spec`` is ".12g" or ".2f"; array parts are flattened, converted to
    float64 and must all have the same size."""
    columns = [np.asarray(p, dtype=np.float64).reshape(-1) for p in parts
               if not isinstance(p, bytes)]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("array parts differ in size")
    # one call formats every column; its slots are then split by column
    slots = _FORMATS[spec](np.concatenate(columns))
    slots = iter(slots.reshape(len(columns), n, slots.shape[1]))
    cols = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else next(slots) for p in parts]
    buf = np.empty((n, sum(c.shape[-1] for c in cols)), np.uint8)
    lo = 0
    for c in cols:
        buf[:, lo:lo + c.shape[-1]] = c
        lo += c.shape[-1]
    return buf.tobytes().translate(None, b"\0")
