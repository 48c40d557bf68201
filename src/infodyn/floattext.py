"""The text of ``"%.17g" % x``, byte for byte, for float64 arrays in vectorized passes.

%.17g rounds the exact value of x to 17 digits: its text follows from
k = floor(log10 |x|) and D = round(|x| 10^(16 - k)), which :func:`_decimal`
forms as a double-double by Dekker's exact product, to a relative 2^-104.
``%`` itself formats a cell within 1e-6 of a rounding tie, one next to a
power of ten where log10 misses k, and one with |x| outside (1e-280, 1e280).
"""

import numpy as np

FORMAT = "%.17g"
# A cell is four little-endian words holding its text in order among FILL
# bytes: sign and "0.000" lead; digits, point and "e+308"; a separator byte.
FILL = 0
CELL = 32
# Tables are formatted in blocks of at most this many cells, so that the
# temporaries stay near 0.3 MB whatever the table's size.
BLOCK_CELLS = 1 << 11

_U = np.uint64
# "00".."99" and "0000".."9999" as words of ASCII digits, the first digit in
# the low byte, and the lead after the sign byte for k = -5, -4, ..., 0.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16).astype(_U)
_QUADS = (_PAIRS[:, None] | (_PAIRS << 16)).ravel()
_LEADS = np.array([0, *(int.from_bytes(b"0.000"[:n], "little") << 8 for n in (5, 4, 3, 2)), 0], _U)
# For each index 19 p + c, p the point's byte and c the last byte kept, and
# each of the three digit words: the bytes taken from the digits, from the
# digits shifted one byte up, and the point.
_p, _c = np.divmod(np.arange(18 * 19), 19)
_byte = np.arange(24)
_before, _at = _byte < _p[:, None], _byte == _p[:, None]
_SELECT = (
    (np.stack([_before, ~(_before | _at), _at]) & (_byte <= _c[:, None])).astype(np.uint8)
    * np.array([255, 255, ord(".")], np.uint8)[:, None, None]
).view(_U).transpose(0, 2, 1).copy()


def _decimal(a):
    """k = floor(log10 a), D = round(a 10^(16 - k)) and whether both are exact, for a > 0."""
    exact = (a > 1e-280) & (a < 1e280)
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    j = 16 - k
    j0 = int(j.min(initial=0))
    count = np.bincount(j - j0)
    present = np.flatnonzero(count)
    power = np.empty((2, present.size))
    for i, e in enumerate((present + j0).tolist()):
        # int / int rounds correctly: the float64 nearest 10^e and the rest.
        n, m = (10**e, 1) if e >= 0 else (1, 10**-e)
        num, den = (n / m).as_integer_ratio()
        power[:, i] = n / m, (n * den - num * m) / (m * den)
    p, p_lo = power.take((np.cumsum(count > 0) - 1)[j - j0], axis=1)
    # Dekker's split of a and p, by 2^27 + 1, into halves of 26 bits at most.
    both = np.stack([a, p])
    halves = 134217729.0 * both
    halves -= halves - both
    (a_hi, p_hi), (a_lo, p_mid) = halves, both - halves
    s = a * p
    t = (((a_hi * p_hi - s) + a_hi * p_mid + a_lo * p_hi) + a_lo * p_mid) + a * p_lo
    hi = s + t
    lo = t - (hi - s)
    whole = np.floor(lo)
    frac = lo - whole
    exact &= (hi < 1e17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
    exact &= np.abs(frac - 0.5) >= 1e-6
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    return k + carry, d, exact


def cells(x):
    """(x.size, ``CELL``) uint8 rows: row i, less its ``FILL`` bytes, is ``FORMAT % x[i]``."""
    x = np.ravel(x).astype(np.float64, copy=False)
    zero = x == 0.0
    k, d, exact = _decimal(np.where(zero, 1.0, np.abs(x)))
    # The 17 digits of D in three words, and the index of its last nonzero
    # digit: the highest nonzero byte of a word w is (exponent of w - 1) // 8.
    high, low = np.divmod(d % 10**16, 10**8)
    high, low_w = (_QUADS[v // 10**4] | (_QUADS[v % 10**4] << 32) for v in (high, low))
    words = ((d // 10**16 + 48).astype(_U) | (high << 8), (high >> 56) | (low_w << 8), low_w >> 56)
    zeros = _U(0x3030303030303030)  # b"00000000"
    byte = [(np.frexp((w ^ zeros).astype(float))[1] - 1) >> 3 for w in (high, low_w)]
    last = np.where(low != 0, 9 + byte[1], 1 + byte[0])
    del d, high, low, low_w, byte  # keep the peak of a block low
    # As %g: the point goes after digit k in fixed notation, -4 <= k < 17,
    # after digit 0 in exponent notation, and into the lead below 1; the last
    # digit kept is the last nonzero one, or digit k in fixed notation.
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, np.where(k < 0, 17, k + 1), 1)
    last = np.where(fixed & (k > 0), np.maximum(last, k), last)
    index = point * 19 + last + (last >= point)

    out = np.empty((x.size, 4), _U)
    out[:, 0] = _LEADS[np.minimum(np.maximum(k, -5), 0) + 5] | (np.signbit(x) * _U(ord("-")))
    for w in range(3):
        shifted = (words[w] << 8) | (words[w - 1] >> 56 if w else 0)
        take, take_shifted, point_byte = (table[w][index] for table in _SELECT)
        out[:, w + 1] = (words[w] & take) | (shifted & take_shifted) | point_byte
    exp = np.flatnonzero(~fixed)
    mag = np.abs(k[exp])
    pair = _PAIRS[mag % 100]
    digits = np.where(mag >= 100, (mag // 100 + 48).astype(_U) | (pair << 8), pair)
    sign = np.where(k[exp] < 0, _U(ord("-") << 24), _U(ord("+") << 24))
    out[exp, 3] |= (digits << 32) | sign | ord("e") << 16
    text = out.view(np.uint8)
    out[zero, 1:] = 0
    text[zero, 8] = ord("0")
    slow = np.flatnonzero(~exact & ~zero)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        s = (FORMAT % v).encode("ascii")
        out[i] = 0
        text[i, : len(s)] = np.frombuffer(s, np.uint8)
    return text


def lines(columns, labels=None, at=0):
    """The text of one line per row, in uint8 blocks: its cells joined by ',', then a newline.

    ``columns`` are (rows,) or (rows, c) arrays of floats, or of integers
    below 2^53 (printed as %d prints them).  ``labels``, a (rows,) bytes
    array, adds a cell before float cell ``at``.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    step = max(1, BLOCK_CELLS // sum(c.shape[1] for c in columns))
    for start in range(0, len(columns[0]), step):
        floats = np.concatenate([c[start : start + step] for c in columns], axis=1, dtype=float)
        text = cells(floats)
        text[:, -1] = ord(",")
        text = text.reshape(len(floats), -1)
        if labels is not None:
            names = labels[start : start + step]
            cell = np.full((len(names), names.itemsize + 1), ord(","), np.uint8)
            cell[:, :-1] = names.view(np.uint8).reshape(len(names), -1)
            text = np.concatenate((text[:, : at * CELL], cell, text[:, at * CELL :]), axis=1)
        text[:, -1] = ord("\n")
        yield text[text != FILL]
