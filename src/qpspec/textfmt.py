"""Whole-array ``%.12g`` text, byte-identical to ``format``.

``rows(re, im)`` is the bytes of
``"".join(f"{a:.12g},{b:.12g}\\n" for a, b in zip(re, im))``.

Each value gets a fixed-width ``uint8`` slot whose unused bytes are 0, and a
line is the slots of its two values, the last byte of the first holding the
comma and that of the second the newline; deleting the 0 bytes of the joined
lines removes the padding.  The digits come from scaling |x| to
m = |x| * 10**(11 - X), X the decimal exponent, so that m lies in
[1e11, 1e12) and rint(m) holds the 12 significant digits, looked up four at
a time.  Then ``%g``'s rules apply: trailing zeros are dropped, exponent
notation is used when X < -4 or X >= 12, a rounding up to 1e12 moves to the
next power of ten, and -0 keeps its sign.

The scaled m carries a rounding error of at most about 4e-4, so it rounds like
the exact value except near a tie.  The values the float path cannot decide go
to ``format`` itself: those with |frac(m) - 1/2| below G_TIE, non-finite
values, and nonzero |x| outside [G_MIN, G_MAX]; the longest such text has 19
bytes.  When at least half the lines are zero lines (both values ±0, as in
most of the operator of a constant or dilation map), each of them is one
8-byte word of ``_ZERO_LINES`` and only the other lines are formatted.
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
# row 2 * signbit(re) + signbit(im) is the zero line of that sign pair
_ZERO_LINES = np.frombuffer(b"0,0\n\0\0\0\0" b"0,-0\n\0\0\0" b"-0,0\n\0\0\0" b"-0,-0\n\0\0",
                            np.uint64)

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


def _g12_digits(x: np.ndarray) -> np.ndarray:
    """(n, _G_WIDTH) byte slots of ``format(v, ".12g")``; the last byte of
    every slot is 0."""
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

    out = np.empty((x.size, _G_WIDTH), np.uint8)
    words = out.view(np.uint64)
    words[:, 0] = np.take(_G_HEAD, head)
    words[:, 1:4] = np.take(_G_QUADS, quads) & np.take(_G_KEEP, keep, axis=0) | np.take(
        _G_DOTS, dot, axis=0
    )
    words[:, 4] = np.take(_G_EXPS, np.where(fixed, 0, e) + _E0)
    # the fallback texts, 0-padded to the slot width
    texts = np.array([format(v, ".12g") for v in x[slow].tolist()], dtype=f"S{_G_WIDTH}")
    out[slow] = texts.view(np.uint8).reshape(-1, _G_WIDTH)
    return out


def _lines(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(n, 2 _G_WIDTH) bytes: the slots of re[i] and im[i] with the comma and
    the newline in their last bytes."""
    lines = _g12_digits(np.stack([re, im], axis=1).reshape(-1)).reshape(re.size, 2 * _G_WIDTH)
    lines[:, _G_WIDTH - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines


def rows(re, im) -> bytes:
    """Row i of the result is ``format(re[i], ".12g")``, a comma,
    ``format(im[i], ".12g")`` and a newline.

    ``re`` and ``im`` are flattened, converted to float64 and must have the
    same size.  When at least half the rows are zero lines, those are taken
    from ``_ZERO_LINES`` and the others spliced in between them."""
    re = np.asarray(re, dtype=np.float64).reshape(-1)
    im = np.asarray(im, dtype=np.float64).reshape(-1)
    if re.size != im.size:
        raise ValueError("re and im differ in size")
    other = (re != 0) | (im != 0)
    at = np.flatnonzero(other)
    if 2 * at.size > re.size:
        return _lines(re, im).tobytes().translate(None, b"\0")
    # a zero line is one word and any other line ``width`` words
    width = 2 * _G_WIDTH // 8
    words = np.empty(re.size + (width - 1) * at.size, np.uint64)
    spans = (at + (width - 1) * np.arange(at.size))[:, None] + np.arange(width)
    zero_words = np.ones(words.size, bool)
    zero_words[spans] = False
    words[zero_words] = np.take(_ZERO_LINES, 2 * np.signbit(re) + np.signbit(im))[~other]
    words[spans] = _lines(re[at], im[at]).view(np.uint64)
    return words.tobytes().translate(None, b"\0")
