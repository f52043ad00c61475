"""The one output path of every carl writer: a path or an open text file.

Every CSV writer builds its data rows through :func:`csv_rows`, which spells
each float exactly as ``'%.17g' % x`` does, from whole arrays. For a finite
``x`` with ``1e-28 <= |x| < 1e17`` it finds the 17 significant digits
without dtoa. The decimal exponent ``e`` comes from the float's bits and one
comparison with a table of powers of ten. With ``p = 16 - e`` up to 22,
``10**p`` is an exact double, so Dekker's error-free product (a Veltkamp
split, then four products and sums; numpy never fuses two ufunc calls)
gives ``|x| * 10**p = hi + lo`` exactly. ``hi`` is an even integer near
[1e16, 1e17), and ``hi + rint(lo)`` is the 17-digit mantissa, exact ties
rounding half to even as dtoa does. Below 1e-6 (``p`` above 22) the exact
``|x| * 1e22 = hi + lo`` is scaled once more by ``10**(p - 22)``, the low
part with a rounding error below 1e-14, which decides the rounding except
within 1e-9 of a half. A mantissa that rounds up to ``10**17`` carries
into the exponent. Zeros are laid out directly; every other value (those
near halves, ``|x| < 1e-28``, ``|x| >= 1e17``, nan and inf) is spelled by
``'%.17g' %`` itself, so every byte is CPython's.

Each value gets a slot of ``_SLOT`` bytes: the sign, the ``0.000`` of a
value below 1e-4, 18 bytes of digits and point, and the ``e-06`` of an
exponential spelling. Digits past the last significant one, and a point
with no digits after it, are left as zero bytes, and a row's zero bytes are
dropped when the text is made, which is what the ``g`` conversion's
stripping does. The slots are computed byte plane by byte plane (an array
of shape ``(_SLOT, values)``), so every numpy operation runs over a whole
block of values. The kernel keeps to float64, int64 and bool arithmetic
and one uint8 product: each further numpy loop a process runs adds its
machine code, 64 kB at a time, to the resident memory.
"""

from __future__ import annotations

import contextlib
import json
import math
from typing import IO, Iterator, List, Sequence, Tuple, Union

import numpy as np

PathOrFile = Union[str, IO[str]]


@contextlib.contextmanager
def text_sink(path_or_file: PathOrFile) -> Iterator[IO[str]]:
    """Yield ``path_or_file`` itself if it is an open file, else that path opened for writing."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as f:
            yield f
    else:
        yield path_or_file


def write_json(doc, path_or_file: PathOrFile) -> None:
    """Write one JSON document: indent 2, sorted keys, trailing newline."""
    with text_sink(path_or_file) as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# '%.17g' over whole arrays
# ---------------------------------------------------------------------------

_SLOT = 28  # sign 1, "0.000" 5, digits and point 18, "e-06" 4
_BLOCK = 1 << 13  # values formatted per block; the temporaries stay under about 2 MB
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for binary64
# 10**p for p = 0..22, every one exact, and its Veltkamp halves
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI = np.array([_SPLIT * b - (_SPLIT * b - b) for b in _POW10.tolist()])
_POW10_LO = np.array([b - h for b, h in zip(_POW10.tolist(), _POW10_HI.tolist())])


def _ceil_pow10(k: int) -> float:
    """The least double at or above 10**k."""
    d = float(10**k) if k >= 0 else 1 / 10**-k
    num, den = d.as_integer_ratio()
    return d if k >= 0 or num * 10**-k >= den else math.nextafter(d, math.inf)


# 10**k rounded up, k = -29..18: |x| >= _CEIL10[k + 29] exactly when |x| >= 10**k
_CEIL10 = np.array([_ceil_pow10(k) for k in range(-29, 19)])
# the groups of four digits 0000..9999 as ASCII, each read as one uint32 (built
# without numpy arithmetic, which would load more numpy loops), and the
# trailing zeros of the pairs 00..99
_PAIRS = [a + b for a in "0123456789" for b in "0123456789"]
_QUADS = np.frombuffer("".join(a + a.join(_PAIRS) for a in _PAIRS).encode("ascii"), np.uint32)
_TRAILING = np.array([2] + [int(k % 10 == 0) for k in range(1, 100)])
del _PAIRS
_K = np.arange(18)[:, None]  # byte positions, one per plane
_LOG10_2 = math.log10(2.0)
# the "0." and zeros of a spelling below 1e-4 up to exponent 0 (planes 1-5; a
# plane's character is there when the exponent is at most the plane's bound)
_PREFIX, _PREFIX_UPTO = np.array([[48], [46], [48], [48], [48]], np.uint8), np.array([[-1], [-1], [-2], [-3], [-4]])
# the "e-06" of an exponential spelling (planes 24-27) by decimal exponent, column exponent + 28
_SUFFIX = np.frombuffer(
    "".join(("e%+03d" % x if not -4 <= x < 17 else "").ljust(4, "\0") for x in range(-28, 18)).encode("ascii"), np.uint8
).reshape(46, 4).T.copy()


def _exact_product(ax: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``hi, lo`` with ``hi + lo == ax * 10**p`` exactly and ``hi`` the rounded product."""
    hi = ax * _POW10[p]
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _split(v: np.ndarray, base: float) -> Tuple[np.ndarray, np.ndarray]:
    """``v // base`` and ``v % base`` of whole floats below 1e9, for ``base`` 1e2 or 1e4.

    Exact: the doubles nearest to 1e-2 and 1e-4 lie above them, so the floor
    of ``v / base`` is never undershot, and overshooting it would take an
    error above ``1 / base``.
    """
    q = np.floor(v * (1.0 / base))
    return q, v - q * base


def _mantissas(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit mantissa and decimal exponent of each ``x``, and where they are not used.

    Zeros get mantissa 0 and exponent 0. The mask is true for zeros and for
    the values that ``'%.17g' %`` spells instead.
    """
    ax = np.abs(x)
    other = ~((ax >= _CEIL10[1]) & (ax < 1e17))  # nan too
    np.putmask(ax, other, 1.5)
    # the decimal exponent: a float's bits, read as an integer and scaled by
    # 2**-52, are 1023 + log2 of it to within 0.09, so the guess is at most one off
    e = np.floor((ax.view(np.int64) * 2.0**-52 - 1023) * _LOG10_2).astype(np.intp)
    e = np.where(ax >= _CEIL10[e + 30], e + 1, e)
    e = np.where(ax < _CEIL10[e + 29], e - 1, e)
    p = 16 - e
    hi, lo = _exact_product(ax, np.minimum(p, 22))
    tiny = np.flatnonzero(p > 22)
    if tiny.size:
        # hi + lo is |x| * 1e22; scale both by the rest of 10**p, the low part
        # with a rounding error below 1e-14, which decides the rounding unless
        # the fraction is within 1e-9 of a half
        q = p[tiny] - 22
        hi[tiny], low = _exact_product(hi[tiny], q)
        lo[tiny] = low + lo[tiny] * _POW10[q]
        other[tiny[np.abs(np.abs(lo[tiny] - np.rint(lo[tiny])) - 0.5) < 1e-9]] = True
    # hi is an even integer, so rounding lo half to even rounds hi + lo half to even;
    # a mantissa rounded up to 10**17 carries into the exponent (the double 1e-14 is one)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e = np.where(carry, e + 1, e)
    n[other] = 0
    e[other] = 0
    return n, e, other


def _digits(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each ``n`` below 10**17 as ASCII, one row per digit, and how many are significant."""
    # n = a * 10**8 + b; float(n) may round, so the quotient is corrected by one
    a = np.floor(n * 1e-8).astype(np.int64)
    b = n - a * 10**8
    a = np.where(b < 0, a - 1, np.where(b >= 10**8, a + 1, a))
    b1, b0 = _split((n - a * 10**8).astype(np.float64), 1e4)
    a3, a2 = _split(a.astype(np.float64), 1e4)
    a4, a3 = _split(a3, 1e4)
    # five groups of four digits, the first "000" and the leading digit
    quads = np.take(_QUADS, np.array([a4, a3, a2, b1, b0]).astype(np.intp), mode="wrap")
    digits = quads.view(np.uint8).reshape(5, -1, 4).transpose(0, 2, 1).reshape(20, -1)[3:]
    # trailing zeros: four per zero group after the last nonzero one, then that one's, by halves
    tail, zeros = b0, np.zeros(len(n), np.intp)
    for g in (b1, a2, a3, a4):
        empty = tail == 0
        zeros = np.where(empty, zeros + 4, zeros)
        tail = np.where(empty, g, tail)
    high, low = _split(tail, 1e2)
    zeros = np.where(low == 0, zeros + 2 + _TRAILING[high.astype(np.intp)], zeros + _TRAILING[low.astype(np.intp)])
    return digits, np.maximum(17 - zeros, 1)  # 1 for a zero


def _g17_slots(x: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each ``v`` of the 1-d float64 array ``x``.

    Returns a ``(_SLOT, len(x))`` uint8 array: column ``i`` holds the spelling
    of ``x[i]`` in order, with zero bytes where nothing is written.
    """
    m = len(x)
    x = np.concatenate([x, np.zeros(-m % 8)])  # whole int64 words per row of bytes
    n, exponent, other = _mantissas(x)
    digits, s = _digits(n)
    del n
    slots = np.empty((_SLOT, len(x)), np.uint8)
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(45), out=slots[0])
    np.multiply(((exponent <= _PREFIX_UPTO) & (exponent >= -4)).view(np.uint8), _PREFIX, out=slots[1:6])
    slots[24:] = 0
    exponential = np.flatnonzero((exponent < -4) | (exponent > 16))
    slots[24:, exponential] = _SUFFIX[:, exponent[exponential] + 28]
    # `last` is the index of the last digit before the point; digits are kept up to the
    # significant ones and the integer part, and the point goes after digit `last` if
    # digits follow it, else nowhere (18)
    last = np.where((exponent >= -4) & (exponent <= 16), np.maximum(exponent, -1), 0)
    kept = np.zeros((19, len(x)), np.uint8)
    np.multiply(digits, (_K[:17] < np.maximum(s, last + 1)).view(np.uint8), out=kept[1:18])
    point = np.where((s > last + 1) & (last >= 0), last + 1, 18)
    del digits, s, last
    # the digits before the point, the point and the digits after it: disjoint bytes, so summed as int64
    region = slots[6:24]
    np.multiply(kept[1:], (_K < point).view(np.uint8), out=region)
    region.view(np.int64)[...] += (kept[:18] * (_K > point).view(np.uint8)).view(np.int64)
    region.view(np.int64)[...] += ((_K == point).view(np.uint8) * np.uint8(46)).view(np.int64)

    other = np.flatnonzero(other & (x != 0.0))
    if other.size:
        spelled = (("%-24.17g" * other.size) % tuple(x[other].tolist())).replace(" ", "\0")
        slots[:24, other] = np.frombuffer(spelled.encode("ascii"), np.uint8).reshape(other.size, 24).T
        slots[24:, other] = 0
    return slots[:, :m]


def _text_cells(values, sep: bytes) -> np.ndarray:
    """Each ``str(v)`` and ``sep`` as a row of UTF-8 bytes padded with zeros.

    The column is taken in runs of equal values, and each distinct value is
    encoded once.
    """
    values = np.asarray(values)
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    runs = values[starts].tolist()
    index = {v: i for i, v in enumerate(dict.fromkeys(runs))}
    encoded = [str(v).encode("utf-8") + sep for v in index]
    table = np.zeros((len(encoded), max(map(len, encoded))), np.uint8)
    for row, text in zip(table, encoded):
        row[: len(text)] = np.frombuffer(text, np.uint8)
    lengths = np.diff(np.append(starts, len(values)))
    return np.repeat(table[[index[v] for v in runs]], lengths, axis=0)


def csv_rows(fields: Sequence, n: int) -> Iterator[str]:
    """The ``n`` data rows of a CSV table, as a few blocks of text.

    A field that is a float64 array is spelled as ``'%.17g' % x`` spells each
    value; a ``str`` is the same in every row; any other column of ``n``
    values is spelled ``str(v)``, which must contain no NUL. Rows are built in
    blocks of a few thousand values, so the memory used does not grow with
    ``n``.
    """
    if n == 0:
        return
    is_float = [isinstance(f, np.ndarray) and f.dtype == np.float64 for f in fields]
    floats = [f for f, flag in zip(fields, is_float) if flag]
    if not floats:
        raise ValueError("a CSV table needs at least one float64 column")
    rows = max(1, _BLOCK // len(floats))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # a row is a head (the text before the first float), then per float a
        # slot and a gap of one width (its separator and the text after it)
        cells: List[List[np.ndarray]] = [[]]
        for i, (f, flag) in enumerate(zip(fields, is_float)):
            sep = b"\n" if i == len(fields) - 1 else b","
            if flag:
                cells.append([np.frombuffer(sep, np.uint8)[None]])
            else:
                cells[-1].append(_text_cells([f] if isinstance(f, str) else f[start:stop], sep))
        head = sum(c.shape[1] for c in cells[0])
        pitch = _SLOT + max(sum(c.shape[1] for c in gap) for gap in cells[1:])
        block = np.zeros((stop - start, head + len(floats) * pitch), np.uint8)
        for g, gap in enumerate(cells):
            at = head + (g - 1) * pitch + _SLOT if g else 0
            for c in gap:
                block[:, at : at + c.shape[1]] = c
                at += c.shape[1]
        values = np.stack([f[start:stop] for f in floats]).ravel()
        slots = block[:, head:].reshape(stop - start, len(floats), pitch)[:, :, :_SLOT]
        slots[...] = _g17_slots(values).reshape(_SLOT, len(floats), stop - start).transpose(2, 1, 0)
        yield block.tobytes().translate(None, b"\0").decode("utf-8")
