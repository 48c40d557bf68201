"""The text of ``"%.17g" % x``, byte for byte, for float64 arrays in vectorized passes.

%.17g rounds the exact value of x to 17 digits: its text follows from
k = floor(log10 |x|) and D = round(|x| 10^(16 - k)), which :func:`_decimal`
forms by Dekker's exact product with 10^(16 - k) as a double-double, to a
relative 2^-104.  ``%`` itself formats a cell within 1e-6 of a rounding tie,
one next to a power of ten where log10 misses k, and one with |x| outside
(1e-280, 1e280).  What depends on k alone is looked up per distinct k.
"""

import functools

import numpy as np

FORMAT = "%.17g"
# A cell is four little-endian words holding its text in order among FILL
# bytes: sign, "0.000" lead and first digit; the other 16 digits, those past
# the point moved one byte up; "e+308" and a separator byte last.
FILL = 0
CELL = 32
# Tables are formatted in blocks of at most this many cells, which hold
# about 90 bytes of temporaries a cell at their peak.
BLOCK_CELLS = 1 << 12

_U = np.uint64
# "0000".."9999" as words of ASCII digits, the first digit in the low byte.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16).astype(_U)
_QUADS = (_PAIRS[:, None] | (_PAIRS << 16)).ravel()
# For each row 17 n + c, n = min(max(k, -5), 17) + 5 and c the last nonzero
# digit, and each of the last three words: the bytes taken from the digits,
# from the digits shifted one byte up, and the point.  Their bytes are bytes
# 1 to 24 of the digits, the first digit being byte 0, and the exponent from
# byte 18 on.  As %g: the point goes after digit k in fixed notation,
# -4 <= k < 17, into the lead below 1 (byte 17: none), and after digit 0 in
# exponent notation; the last digit kept is the last nonzero one, or digit k
# in fixed notation.
_n, _c = np.divmod(np.arange(23 * 17)[:, None], 17)
_p = np.select([_n < 1, _n < 5, _n < 22], [1, 17, _n - 4], 1)
_c = np.where((_n > 5) & (_n < 22), np.maximum(_c, _n - 5), _c)
_c += _c >= _p
_byte = np.arange(1, 25)
_SELECT = (
    (np.stack([_byte < _p, _byte > _p, _byte == _p]) & (_byte <= _c)).astype(np.uint8)
    * np.array([255, 255, ord(".")], np.uint8)[:, None, None]
).view(_U).transpose(0, 2, 1).copy()


def _per_k(k):
    """10^(16 - k) as the float64 nearest, its Dekker halves (by 2^27 + 1) and
    the rest; k's row 17 n in ``_SELECT``, and its lead and exponent words."""
    n, m = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
    p = n / m  # int / int rounds correctly
    num, den = p.as_integer_ratio()
    high = 134217729.0 * p
    high -= high - p
    return (p, high, p - high, (n * den - num * m) / (m * den)), (
        17 * (min(max(k, -5), 17) + 5),
        int.from_bytes(b"\0" + b"0.000"[: 1 - k], "little") if -5 < k < 0 else 0,
        0 if -5 < k < 17 else int.from_bytes(b"\0\0e%+03d" % k, "little"),
    )


def _table(k, part):
    """Part ``part`` of :func:`_per_k` for each k from k.min() on, as columns, and k.min()."""
    low = k.min(initial=0)
    return _columns(low, k.max(initial=0), part), low


@functools.lru_cache(maxsize=64)  # The blocks of a table share a few ranges of k.
def _columns(low, high, part):
    """Part ``part`` of :func:`_per_k` for k = low..high, as columns."""
    return np.array([_per_k(e)[part] for e in range(low, high + 1)]).T


def _decimal(x):
    """k = floor(log10 |x|), D = round(|x| 10^(16 - k)) and whether both are exact."""
    a = np.abs(x)
    exact = (a > 1e-280) & (a < 1e280)
    np.copyto(a, 1.0, where=~exact)
    k = np.floor(np.log10(a)).astype(np.intp)
    (p, p_hi, p_mid, p_lo), low = _table(k, 0)
    k -= low
    # Dekker's exact product a p = s + t0, a split like p, and t = t0 + a p_lo:
    # s >= 2^53 is an integer, so floor(a 10^(16 - k)) = s + floor(t).
    s = a * p.take(k)
    hi = a * 134217729.0
    hi -= hi - a
    lo = a - hi
    a *= p_lo.take(k)
    p_hi, p_mid = p_hi.take(k), p_mid.take(k)
    t = hi * p_hi - s + hi * p_mid + lo * p_hi + lo * p_mid + a
    del a, hi, lo, p_hi, p_mid
    k += low
    d = np.floor(t)
    t -= d
    d = s.astype(np.int64) + d.astype(np.int64)
    exact &= (d >= 10**16) & (np.abs(t - 0.5) >= 1e-6)
    d += t > 0.5
    exact &= d <= 10**17
    carry = d == 10**17
    d[carry] = 10**16
    return k + carry, d, exact


def cells(x):
    """(x.size, ``CELL``) uint8 rows: row i, less its ``FILL`` bytes, is ``FORMAT % x[i]``."""
    x = np.ravel(x).astype(np.float64, copy=False)
    k, d, exact = _decimal(x)
    zero = x == 0.0
    exact |= zero
    (notation, lead, exponent), low = _table(k, 1)
    k -= low
    # The cells' words, one row each: the sign, lead and first digit ("0" for
    # zero); digits 1-8 and 9-16 as words of ASCII; the exponent.
    out = np.empty((4, x.size), _U)
    out[0] = lead.take(k).view(_U) | (x.view(_U) >> 63) * _U(ord("-"))
    out[3] = exponent.take(k)
    row = notation.take(k)
    del k
    digits = out[1:3].view(np.int64)
    np.floor_divide(d, 10**8, out=digits[0])
    np.subtract(d, digits[0] * 10**8, out=digits[1])
    del d
    out[0] |= (digits[0] // 10**8 + 48 - zero).view(_U) << 56
    digits[0] -= digits[0] // 10**8 * 10**8
    q = digits // 10**4
    digits -= q * 10**4
    out[1:3] = _QUADS.take(digits)
    out[1:3] <<= 32
    out[1:3] |= _QUADS.take(q)
    del q
    # The last digit not 0: the highest byte not "0" of digit word w is byte
    # (e - 1023) // 8, e the biased exponent of float(w ^ b"00000000"), and
    # digit 1 + 8 (w - 1) + that byte.
    top = (out[1:3] ^ _U(0x3030303030303030)).astype(float).view(np.int64) >> 52
    top -= [[1023 - 8], [1023 - 72]]
    last = top.max(axis=0) >> 3
    row += np.maximum(last, 0, out=last)
    del top, last
    # Word 3 keeps its exponent and takes the last digit past a point.
    out[3] |= out[2] >> 56 & _SELECT[1, 2].take(row)
    for w in (2, 1):
        take, take_shifted, point = _SELECT[:, w - 1]
        shifted = out[w] << 8 | out[w - 1] >> 56
        out[w] &= take.take(row)
        out[w] |= shifted & take_shifted.take(row) | point.take(row)
    text = np.ascontiguousarray(out.T).view(np.uint8)
    for i in np.flatnonzero(~exact):
        text[i] = np.frombuffer((FORMAT % x[i]).encode("ascii").ljust(CELL, b"\0"), np.uint8)
    return text


def lines(columns, labels=None, at=0):
    """The text of one line per row, in bytes blocks: its cells joined by ',', then a newline.

    ``columns`` are (rows,) or (rows, c) arrays of floats, or of integers
    below 2^53 (printed as %d prints them).  ``labels``, a (rows,) bytes
    array, adds a cell before column ``at``.
    """
    parts = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    rows = len(parts[0])
    if labels is not None:
        # The label's cells are formatted as zeros, then overwritten, instead
        # of copying every block around them.
        width = labels.itemsize + 1
        blank = -(width // -CELL)
        first = sum(p.shape[1] for p in parts[:at]) * CELL
        end = first + blank * CELL
        parts.insert(at, np.broadcast_to(0.0, (rows, blank)))
    step = max(1, BLOCK_CELLS // sum(p.shape[1] for p in parts))
    for start in range(0, rows, step):
        text = cells(np.concatenate([p[start : start + step] for p in parts], axis=1, dtype=float))
        text[:, -1] = ord(",")
        text = text.reshape(min(step, rows - start), -1)
        if labels is not None:
            text[:, first : end - width] = FILL
            text[:, end - width : end - 1] = labels[start : start + step, None].view(np.uint8)
        text[:, -1] = ord("\n")
        yield text.tobytes().translate(None, bytes([FILL]))
        del text
