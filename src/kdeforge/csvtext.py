"""CSV text of columns, a block of rows at a time, in whole-array
operations: every cell gets the bytes of the Python formatting it replaces.

A float64 cell is written as ``repr(float(v))``: the shortest digits that
read back as v, nearest to v among those, in repr's positional or scientific
layout.  For a finite v = M 2^e (2^52 <= M < 2^53, v not a power
of two) with p = 16 - floor(log10|v|) in [0, 27] and s = -(e + p) in [2, 62],
the digits come from integer arithmetic on uint64 words (the idea of Ryu,
Adams 2018, PLDI):

- X = M 5^p is formed exactly as a (hi, lo) pair of 64-bit words, hi from
  four 32 x 32-bit products; F = floor(X / 2^s) is v 10^p cut to 17 digits
  and X mod 2^s the exact rest.
- The numbers that read back as v are those within half an ulp of it,
  between (2X -+ 5^p) / 2^(s+1) in the same scale (ends included when M is
  even, but with s >= 2 no end is an integer).
- j trailing digits go, where j is the largest t <= 16 that leaves a multiple
  of 10^t in that interval; the 17 - j digits left are v 10^p / 10^j rounded
  to the nearest integer, half to even, from the exact rest.

Every other value -- zeros, powers of two (whose interval is not symmetric),
subnormals, inf, nan, |v| < 1e-11 or large enough that s < 2, and the rare v
next to a power of ten whose floor(log10|v|) rounds the wrong way -- is
written by ``repr`` itself, one value at a time.  So each cell has repr's
bytes, with no second path to keep in step.

Integer and boolean cells are written as ``%d`` writes them, string cells as
they are (UTF-8), and cells of any other type as their ``repr``.

A column is formatted into fixed slots: each cell of it gets the same slots,
and a mask keeps the ones its text uses (a float cell has slots for a sign,
"0.000", its digits before and after a point, and an exponent).  A row is its
columns' slots with a separator after each, and one boolean selection of the
kept slots gives a block's bytes.
"""

from __future__ import annotations

import numpy as np

# Rows formatted together.  A block's temporaries, some 60 arrays of one word
# a row, stay in cache and small enough for malloc to reuse: on a density
# grid of 65 536 rows, blocks of 8192 and 16 384 rows took 1.3x and 1.6x as
# long as 4096, with 8-10x the page faults.
BLOCK_ROWS = 4096

_LOW32 = 0xFFFF_FFFF
_HIDDEN = 1 << 52
_POW5 = np.array([5 ** i for i in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)

# A float cell's slots: 0 sign; 1-5 "0.000", the lead of 1e-4 <= |v| < 0.1;
# the 17 digits twice, at 6-22 and at 24-40, with a point at 23 between them:
# the first copy gives the digits before the point, the second those after
# it (all of them where there is no point); 41-44 the exponent "e-dd".
_SLOTS = 45
_FIRST, _POINT, _SECOND, _EXPONENT = 6, 23, 24, 41
_TEMPLATE = np.void(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e-00")
_LOWEST, _HIGHEST = -11, 15  # decimal exponents of the fast path


class Repeated:
    """The column ``values[index]``, written with each of ``values``
    formatted once: a grid's coordinate column repeats the values of its
    axis.  numpy sees the whole column."""

    def __init__(self, values, index):
        self.values, self.index = np.asarray(values), np.asarray(index)

    def __len__(self):
        return len(self.index)

    def __array__(self, dtype=None, copy=None):
        column = self.values[self.index]
        return column if dtype is None else column.astype(dtype, copy=False)


def _rows(a):
    """A (rows, width) array of bytes, each row one void item: numpy copies
    a row at a time, not a byte.  The rows' bytes must be contiguous."""
    return a.view(f"V{a.shape[1]}")[:, 0]


def _layouts():
    """The mask of a float cell's slots for each layout key
    ((k - _LOWEST) * 17 + digits - 1) * 2 + negative, k the decimal exponent
    of the first digit."""
    k, count, negative = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(_LOWEST, _HIGHEST + 1), np.arange(1, 18), np.arange(2), indexing="ij"))
    scientific, small = k < -4, (k < 0) & (k >= -4)
    # digits before the point: k + 1 in positional form, one in scientific
    # form, none below 0.1; after it, the rest, and in 1 <= |v| < 1e16 at
    # least one (the 0 of "12.0")
    before = np.where(k >= 0, k + 1, np.where(scientific, 1, 0))
    last = np.where(k >= 0, np.maximum(count - 1, k + 1), count - 1)
    digit = np.arange(17)
    mask = np.zeros((k.size, _SLOTS), bool)
    mask[:, :1] = negative == 1
    mask[:, 1:3] = small
    mask[:, 3:6] = small & (k <= -1 - np.arange(1, 4))
    mask[:, _FIRST:_POINT] = digit < before
    mask[:, _POINT:_SECOND] = (k >= 0) | (scientific & (count > 1))
    mask[:, _SECOND:_EXPONENT] = (digit >= before) & (digit <= last)
    mask[:, _EXPONENT:] = scientific
    return mask


_MASK_ROWS = _rows(_layouts())


def _float_slots(v, content, mask):
    """Write the slots of float64 cells ``v`` into ``content`` and ``mask``,
    (len(v), _SLOTS) arrays; return ``fast``, which marks the cells whose
    digits came from the integer path (the rest are repr's)."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    bits = v.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    m = bits & (_HIDDEN - 1)
    size = np.abs(v)
    fast = (biased != 0) & (biased != 0x7FF) & (m != 0) & (size >= 1e-11)
    k = np.floor(np.log10(np.where(fast, size, 1.0))).astype(np.int64)
    p = 16 - k
    s = 1075 - biased.astype(np.int64) - p
    fast &= (p <= 27) & (s >= 2) & (s <= 62)
    p = np.where(fast, p, 0)
    s = np.where(fast, s, 2).astype(np.uint64)
    m |= _HIDDEN
    five = _POW5[p]

    # X = m 5^p in two words: lo wraps, hi from 32 x 32-bit products
    # (m < 2^53, 5^p < 2^63)
    lo = m * five
    ml, mh, fl, fh = m & _LOW32, m >> 32, five & _LOW32, five >> 32
    lh, hl = ml * fh, mh * fl
    mid = ((ml * fl) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    hi = mh * fh + (lh >> 32) + (hl >> 32) + (mid >> 32)
    floor = (hi << (64 - s)) | (lo >> s)
    rest = lo & ((1 << s) - 1)
    # a log10 that rounded across a power of ten leaves F outside 17 digits
    fast &= (floor >= 10 ** 16) & (floor < 10 ** 17)

    # the integers within half an ulp of v 10^p: lower..upper, where half an
    # ulp is 5^p / 2^(s+1) = whole + part / 2^(s+1).  The ends, odd
    # multiples of 2^-(s+1), are never integers, so whether they read back
    # as v (M even) never matters.
    s1 = s + 1
    whole, part = five >> s1, five & ((2 << s) - 1)
    twice = rest << 1
    upper = floor + whole + ((twice + part) >> s1)
    span = upper - (floor - whole) - (twice > part)

    # j: the largest t with a multiple of 10^t in lower..upper, that is with
    # upper mod 10^t <= upper - lower; the cells that pass t go on to t + 1
    cut = upper // 10
    keep = fast & (upper - cut * 10 <= span)
    j = keep.astype(np.int64)
    rows = np.flatnonzero(keep)
    top, span, cut = upper[rows], span[rows], cut[rows]
    for t in range(2, 17):
        cut = cut // 10
        keep = top - cut * _POW10[t] <= span
        rows, top, span, cut = rows[keep], top[keep], span[keep], cut[keep]
        if not rows.size:
            break
        j[rows] = t

    # keep 17 - j digits, rounded half to even on the exact rest
    scale = _POW10[j]
    digits = floor // scale
    below = floor - digits * scale
    half, half_rest = scale >> 1, np.where(j == 0, 1 << (s - 1), 0)
    tie = (below == half) & (rest == half_rest)
    digits += (below > half) | ((below == half) & (rest > half_rest)) | (tie & (digits & 1 == 1))
    digits *= scale
    # rounded up to 10^(k+1), which only j = 16 can do: the one digit 1
    carry = digits == 10 ** 17
    k += carry
    digits[carry] = 10 ** 16
    fast &= k <= _HIGHEST
    key = (k * 17 - j) * 2 + np.signbit(v) + (16 - 17 * _LOWEST) * 2
    _rows(mask)[:] = np.take(_MASK_ROWS, np.where(fast, key, 0))

    _rows(content)[:] = _TEMPLATE
    lead = digits // 10 ** 16
    content[:, _FIRST] = content[:, _SECOND] = lead + ord("0")
    words = np.empty((v.size, 2), np.uint64)
    words[:, 0] = high = (digits - lead * 10 ** 16) // 10 ** 8
    words[:, 1] = digits - (lead * 10 ** 8 + high) * 10 ** 8
    text = _rows(_ascii(words))
    _rows(content[:, _FIRST + 1:_POINT])[:] = text
    _rows(content[:, _SECOND + 1:_EXPONENT])[:] = text
    content[:, _EXPONENT + 2] += (-k // 10 % 10).astype(np.uint8)
    content[:, _EXPONENT + 3] += (-k % 10).astype(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [repr(x) for x in v[slow].tolist()]
        content[slow, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        mask[slow] = np.arange(_SLOTS) < np.array([len(t) for t in text])[:, None]
    return fast


def _ascii(words):
    """The eight decimal digits of each of ``words`` (uint64, < 10^8) as
    ASCII, most significant first: (..., 8 * words.shape[-1]) bytes.  The
    digits are split in the lanes of each word (SWAR): a 32-bit lane for
    each half, a 16-bit lane for each pair, a byte for each digit."""
    high = words // 10000
    w = high | ((words - high * 10000) << 32)
    q = ((w * 5243) >> 19) & 0x0000007F_0000007F  # lane // 100 below 43 699
    w = q | ((w - q * 100) << 16)
    q = ((w * 103) >> 10) & 0x000F000F_000F000F  # lane // 10 below 179
    w = (q | ((w - q * 10) << 8)) + 0x30303030_30303030
    return w.astype("<u8", copy=False).view(np.uint8)


def _int_slots(c, content, mask):
    """Write the slots of integer cells ``c`` into ``content`` and ``mask``:
    a sign slot, then digit slots, the last digit in the last slot."""
    if c.dtype.kind == "u":
        size, negative = c.astype(np.uint64), False
    else:
        signed = c.astype(np.int64)
        negative = signed < 0
        size = signed.view(np.uint64)
        size = np.where(negative, 0 - size, size)  # |INT64_MIN| = 2^63 fits
    width = content.shape[1] - 1
    words = np.empty((c.size, 3), np.uint64)
    words[:, 0] = high = size // 10 ** 16
    words[:, 1] = middle = size // 10 ** 8 - high * 10 ** 8
    words[:, 2] = size - (high * 10 ** 8 + middle) * 10 ** 8
    content[:, 0] = ord("-")
    content[:, 1:] = _ascii(words)[:, 24 - width:]
    mask[:, 0] = negative
    count = np.searchsorted(_POW10[1:], size, side="right") + 1
    mask[:, 1:] = np.arange(width) >= (width - count)[:, None]


def _bool_slots(c, content, mask):
    """Write the slots of boolean cells ``c``, "0" or "1", into ``content``
    and ``mask``."""
    content[:, 0] = c + ord("0")
    mask.fill(True)


def _digits(c) -> int:
    """The most decimal digits of an integer column's magnitudes."""
    return len(str(max(int(c.max()), -int(c.min())))) if c.size else 1


def _text_slots(cells: list):
    """(content, mask) of cells given as str: their UTF-8 bytes."""
    data = [t.encode() for t in cells]
    width = max(map(len, data), default=0) or 1
    content = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    return content, np.arange(width) < np.array([len(b) for b in data], int)[:, None]


def _packed(content, mask):
    """The same cells with each one's kept slots moved to its front, in as
    few slots as the longest cell needs."""
    count = mask.sum(axis=1)
    keep = np.arange(max(int(count.max(initial=0)), 1)) < count[:, None]
    packed = np.zeros(keep.shape, np.uint8)
    packed[keep] = content[mask]
    return packed, keep


def _numeric(c):
    """(width, fill) of a numeric column, fill(start, stop, content, mask)
    writing the slots of its rows start..stop into (stop - start, width)
    arrays; None for a column of any other type."""
    kind = c.dtype.kind
    if kind == "b":
        return 1, lambda a, b, content, mask: _bool_slots(c[a:b], content, mask)
    if kind in "iu":
        return 1 + _digits(c), lambda a, b, content, mask: _int_slots(c[a:b], content, mask)
    if kind == "f" and c.dtype.itemsize <= 8:
        return _SLOTS, lambda a, b, content, mask: _float_slots(c[a:b], content, mask)
    return None


def _formatted(c):
    """(content, mask) of a whole column."""
    numeric = _numeric(c)
    if numeric is None:
        return _text_slots(c.tolist() if c.dtype.kind in "OU" else list(map(repr, c.tolist())))
    width, fill = numeric
    content, mask = np.empty((c.size, width), np.uint8), np.empty((c.size, width), bool)
    fill(0, c.size, content, mask)
    return content, mask


def _column(c):
    """(width, fill) of one column, as ``_numeric`` gives them: a numeric
    column is formatted a block at a time, the values of a ``Repeated`` and
    the cells of any other column at once."""
    if isinstance(c, Repeated):
        content, mask = _packed(*_formatted(c.values))
        index = c.index
    else:
        c = np.asarray(c)
        numeric = _numeric(c)
        if numeric is not None:
            return numeric
        content, mask = _formatted(c)
        index = np.arange(c.size)
    content, mask = _rows(content), _rows(mask)

    def fill(a, b, out, keep):
        _rows(out)[:], _rows(keep)[:] = content[index[a:b]], mask[index[a:b]]
    return content.itemsize, fill


def table(header: list, columns):
    """The CSV text of ``columns`` under ``header``, as str pieces: the
    header line, then a block of rows at a time.  Rows stop at the shortest
    column.

    A block's rows are laid out in one (rows, slots) buffer, each column's
    slots followed by a separator slot, and a mask of the slots kept; one
    selection by the mask gives the block's bytes."""
    columns = list(columns)
    yield ",".join(header) + "\n"
    total = min((len(c) for c in columns), default=0)
    if not total:
        return
    fills = [_column(c) for c in columns]
    ends = np.cumsum([width + 1 for width, _ in fills])
    rows = min(BLOCK_ROWS, total)
    text = np.empty((rows, ends[-1]), np.uint8)
    keep = np.empty((rows, ends[-1]), bool)
    text[:, ends - 1], keep[:, ends - 1] = ord(","), True
    text[:, -1] = ord("\n")
    for start in range(0, total, rows):
        n = min(rows, total - start)
        for end, (width, fill) in zip(ends, fills):
            fill(start, start + n, text[:n, end - 1 - width:end - 1],
                 keep[:n, end - 1 - width:end - 1])
        yield text[:n][keep[:n]].tobytes().decode()
