"""CSV text for the run writers: exact vectorised "%.17g" and line assembly.

`format_block` gives, for a whole block of float64 values at once, the
bytes of "%.17g" % v for every v, as NUL-padded rows; `join_lines` joins
such fields into CSV lines.  For 1e-4 <= |v| < 1e17, where %.17g prints
fixed notation, the digits come out of exact float and int64 arithmetic;
every other value (0, -0.0, subnormal, smaller or larger, nan, inf) goes
through `format_scalar`, which is "%.17g" itself.

The 17 digits are D = round(|v| * 10**k), k = 16 - e, for the decimal
exponent e in [-4, 16].  10**k is an exact double for k <= 22, and Dekker's
product gives |v| * 10**k exactly as hi + lo.  hi >= 1e16 > 2**53 is an even
integer, so hi + rint(lo) is D rounded half to even, in int64.  The string
is built in three little-endian 64-bit words (24 bytes), one character per
byte: the digits from a table of 4-digit chunks, trailing zeros masked off,
then the "." or the leading "0.000" and the "-" shifted in, with masks and
shifts looked up per (e, whether a "." is shown).

The runner imports this module on its first write, so a process that
writes no CSV neither loads it nor builds its tables.
"""

from __future__ import annotations

import math

import numpy as np

_WORD = np.dtype("<u8")  # byte i of a word holds character i on any host
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves


def _words(strings: list[bytes]) -> np.ndarray:
    """24-byte strings as a (3, m) table: row i holds bytes 8i..8i+7 of each."""
    return np.frombuffer(b"".join(strings), np.uint8).view(_WORD).reshape(-1, 3).T.copy()


_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact doubles
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the ASCII digits of 0000..9999, leading digit first, in the low half of a
# word (_ASCII4) and in its high half (_ASCII4_HIGH); _ZEROS4 counts their
# trailing zeros (4 for 0000)
_DIGITS = np.zeros((10, 10, 10, 10, 8), np.uint8)
_ZEROS4 = np.zeros((10, 10, 10, 10), np.int8)
for _i in range(4):
    _DIGITS[..., _i] = np.arange(48, 58, dtype=np.uint8).reshape(
        [-1 if j == _i else 1 for j in range(4)])
    _ZEROS4[(...,) + (0,) * (_i + 1)] = _i + 1
_ASCII4 = _DIGITS.view(_WORD).ravel()
_ASCII4_HIGH = _ASCII4 << np.uint64(32)
_ASCII1 = np.arange(48, 58, dtype=_WORD)
_ZEROS4 = _ZEROS4.ravel()
del _DIGITS, _i
# _LOW[:, p]: the bytes below p of a 24-byte string
_LOW = _words([b"\xff" * p + b"\0" * (24 - p) for p in range(25)])
# per layout key 2 * (e + 4) + dot: the bytes under _SPLIT stay, the rest
# move up by _SHIFT bits to make room for _INSERT, which is the "." after
# the integer digits (e >= 0, when a fraction is shown) or "0." and -e - 1
# zeros in front (e < 0)
_layout = [(e + 1, b"." * dot) if e >= 0 else (0, b"0." + b"0" * (-e - 1))
           for e in range(-4, 17) for dot in (0, 1)]
_SPLIT = _LOW[:, [split for split, _ in _layout]]
_SHIFT = np.array([8 * len(lead) for _, lead in _layout], dtype=_WORD)
_INSERT = _words([(b"\0" * split + lead).ljust(24, b"\0") for split, lead in _layout])
del _layout


def format_scalar(value: float) -> bytes:
    """The bytes of "%.17g" % value: the path of values outside fixed notation."""
    return ("%.17g" % value).encode("ascii")


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k exactly, as hi + lo with hi = fl(a * 10**k) (Dekker)."""
    hi = a * _POW10.take(k)
    a_hi = a * _SPLITTER
    t = a_hi - a
    a_hi -= t
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    # lo = (((a_hi p_hi - hi) + a_hi p_lo) + a_lo p_hi) + a_lo p_lo, in place
    lo = a_hi * p_hi
    lo -= hi
    for x, y in ((a_hi, p_lo), (a_lo, p_hi), (a_lo, p_lo)):
        np.multiply(x, y, out=t)
        lo += t
    return hi, lo


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal exponent e and the 17 digits round(a * 10**(16 - e)) of
    each a in [1e-4, 1e17), rounded half to even."""
    # log10 can miss e by one beside a power of ten; exact tests settle it
    e = np.log10(a)
    np.floor(e, out=e)
    np.clip(e, -4, 16, out=e)
    e = e.astype(np.intp)
    hi, lo = _times_pow10(a, 16 - e)
    step = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.intp)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0.0))))
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        hi[moved], lo[moved] = _times_pow10(a[moved], 16 - e[moved])
    # hi >= 1e16 > 2**53 is an even integer, so rint(lo) rounds half to
    # even; no carry to 10**17: below each power of ten, the largest
    # double's a * 10**k is at least 8 below 10**17
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    return e, d


def _digit_words(d: np.ndarray, e: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The digits of d that are shown, as a three-word string, and their count."""
    # d's 17 digits in chunks of 4, 4 | 4, 4 | 1 digits: c1 c2 | c3 c4 | c5,
    # one word per group
    c2 = d // 10 ** 9
    c5 = d - c2 * 10 ** 9
    c1 = c2 // 10 ** 4
    c2 -= c1 * 10 ** 4
    c4 = c5 // 10
    c5 -= c4 * 10
    c3 = c4 // 10 ** 4
    c4 -= c3 * 10 ** 4
    # trailing zeros go, the integer digits stay
    shown = np.maximum(e + 1, 17)
    ends0 = np.flatnonzero(c5 == 0)
    if ends0.size:
        z4, z3, z2, z1 = (_ZEROS4[c[ends0]] for c in (c4, c3, c2, c1))
        zeros = 1 + z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
        shown[ends0] = np.maximum(e[ends0] + 1, 17 - zeros)
    w0 = _ASCII4.take(c1)
    w0 |= _ASCII4_HIGH.take(c2)
    w0 &= _LOW[0].take(shown)
    w1 = _ASCII4.take(c3)
    w1 |= _ASCII4_HIGH.take(c4)
    w1 &= _LOW[1].take(shown)
    w2 = _ASCII1.take(c5)
    w2 &= _LOW[2].take(shown)
    return [w0, w1, w2], shown


def _shift_up(w: list[np.ndarray], bits: np.ndarray, keep: list[np.ndarray] | None = None) -> None:
    """Move a three-word string up by `bits`, a multiple of 8 below 64, in
    place; the bytes under the `keep` masks stay where they are."""
    down = np.uint64(64) - bits  # numpy shifts by 64 give 0
    below = None
    for i in range(3):
        stay = None if keep is None else w[i] & keep[i]
        if stay is not None:
            w[i] ^= stay
        moving = w[i]
        w[i] = moving << bits
        if below is not None:
            below >>= down
            w[i] |= below
        if stay is not None:
            w[i] |= stay
        below = moving


def format_block(values: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % v for every v of `values`, as (n, width) ASCII
    rows padded with NUL, width <= 24."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return np.zeros((0, 0), np.uint8)
    a = np.abs(v)
    outside = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    if outside.size:
        spill = [format_scalar(x) for x in v[outside].tolist()]
        a[outside] = 1.0  # a stand-in; those rows are overwritten at the end
    # each stage's arrays are dropped before the next one allocates, which
    # keeps the peak near 100 bytes per value
    e, d = _significand(a)
    del a
    w, shown = _digit_words(d, e)
    del d
    dot = e < 0
    dot |= shown > e + 1
    width = int(shown.max()) + 1 + max(0, -int(e.min()))  # the longest possible row
    del shown
    key = 2 * (e + 4) + dot
    del e, dot
    _shift_up(w, _SHIFT.take(key), [m.take(key) for m in _SPLIT])
    for i in range(3):
        w[i] |= _INSERT[i].take(key)
    del key
    neg = v < 0.0
    if neg.any():
        sign = neg.astype(_WORD)
        _shift_up(w, sign << np.uint64(3))
        w[0] |= sign * np.uint64(45)  # "-"
        width += 1
    out = np.empty((v.size, 3), _WORD)
    for i in range(3):
        out[:, i] = w[i]
    del w
    out = out.view(np.uint8)
    if outside.size:
        out[outside] = np.array(spill, dtype="S24").view(np.uint8).reshape(-1, 24)
        width = max(width, max(map(len, spill)))
    return out[:, :min(width, 24)]


def join_lines(*fields: np.ndarray) -> bytearray:
    """The bytes of CSV lines whose cells are NUL-padded ASCII fields.

    The fields broadcast against each other on all but their last axis,
    one line per element of that shape, in C order.
    """
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    width = sum(f.shape[-1] + 1 for f in fields)
    buf = bytearray(math.prod(shape) * width)
    line = np.frombuffer(buf, np.uint8).reshape(shape + (width,))
    at = 0
    for f in fields:
        line[..., at:at + f.shape[-1]] = f
        at += f.shape[-1]
        line[..., at] = 44  # ","
        at += 1
    line[..., -1] = 10  # "\n" after the last field
    del line  # releases buf's buffer
    return buf.translate(None, b"\0")
