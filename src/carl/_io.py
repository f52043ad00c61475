"""The one output path of every carl writer: its row writer and float kernel.

Writers take a path or an open text file. Every table, the CSV files and
the records of the sweep JSON alike, is made by one row writer,
:func:`csv_rows`: fields, each followed by fixed text. It has two
spellings, which its float kernel makes from whole arrays byte for byte as
CPython does: ``'%.17g' % x`` (CSV) and ``float.__repr__`` with the json
module's ``NaN``, ``Infinity`` and ``-Infinity`` (JSON).

For a finite ``x`` with ``1e-28 <= |x| < 1e17`` it finds the 17 significant
digits without dtoa. The decimal exponent ``e`` comes from the float's bits
and one comparison with a table of powers of ten. With ``p = 16 - e`` up to
22, ``10**p`` is an exact double, so Dekker's error-free product (a Veltkamp
split, then four products and sums; numpy never fuses two ufunc calls)
gives ``|x| * 10**p = hi + lo`` exactly. ``hi`` is an even integer near
[1e16, 1e17), and ``n = hi + rint(lo)`` is the 17-digit mantissa, exact
ties rounding half to even as dtoa does. Below 1e-6 (``p`` above 22) the
exact ``|x| * 1e22 = hi + lo`` is scaled once more by ``10**(p - 22)``, the
low part with a rounding error below 1e-14, which decides the rounding
except within 1e-9 of a half. A mantissa that rounds up to ``10**17``
carries into the exponent. Zeros are laid out directly; every other value
(those near halves, ``|x| < 1e-28``, ``|x| >= 1e17``, nan and inf) is
spelled by ``'%.17g' %`` itself.

``float.__repr__`` is the shortest decimal that reads back as ``x``, the
nearest where several do (Steele and White 1990; Gay 1990, mode 0). For
``1e-6 <= |x| < 1e17`` it comes from the same ``hi + lo``. A decimal reads
back within ``U = 2**(b - 53) * 10**p`` of ``hi + lo`` (half the spacing of
the doubles around ``x``, ``b`` its binary exponent), and at ``U`` where the
mantissa of ``x`` is even. The spelling is ``c15``, ``hi + lo`` rounded to
15 digits, less its trailing zeros if that reads back, else ``c16`` (to 16,
the sign of ``lo - rint(lo)`` deciding a tie at ``n``) if that does, else
``n``. This is exact: ``U`` is at most 11.1, under half the spacing of
15-digit decimals, so a spelling of 15 or fewer digits that reads back is
``c15``; the nearest 16-digit decimal reads back where any does (below a
power of two the doubles are twice as near, which changes nothing for the
powers of two in range; the tests spell each); and a distance rounded once
compares with ``U`` as the exact one does, for with ``U = 5**p * 2**-k``
any other distance is at least ``2**-k`` (or 1) from it, over half the
spacing of the doubles there. Values are positional for ``-4 <= e <= 15``
(``.0`` where no fraction digit follows; zeros are ``0.0`` and ``-0.0``);
every other value is spelled by ``json.dumps`` itself.

Each value gets a slot of ``_SLOT`` bytes: the sign, the ``0.000`` of a
value below 1e-4, 18 bytes of digits and point, and the ``e-06`` of an
exponential spelling. Digits past the last significant one, and a point
with no digits after it, are left as zero bytes, and a row's zero bytes are
dropped when the text is made, which is what the ``g`` conversion's
stripping does. The slots are computed byte plane by byte plane (an array
of shape ``(_SLOT, values)``), so every numpy operation runs over a whole
block of values. Both spellings keep to float64, int64 and bool arithmetic
and one uint8 product: each further numpy loop a process runs adds its
machine code, 64 kB at a time, to the resident memory.

The row writer lays a block of rows out as one byte array: a head of text,
then per float field its slot and a gap of one width for the text after
it. Exact zeros (the growth rate and real parts of every stable row) have
no digits to find: a zero's slot comes from its sign bit, and only the
other values go through the kernel.
"""

from __future__ import annotations

import contextlib
import json
import math
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

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
# '%.17g' and float.__repr__ over whole arrays
# ---------------------------------------------------------------------------

_SLOT = 28  # sign 1, "0.000" 5, digits and point 18, "e-06" 4
_SLOT_BYTES = np.dtype((np.void, _SLOT))
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
_SUFFIX = np.frombuffer("".join("e%+03d" % x for x in range(-28, 18)).encode("ascii"), np.uint8).reshape(46, 4).T.copy()
_POW2 = (np.arange(2047, dtype=np.int64) * 2**52).view(np.float64)  # 2**(k - 1023) at k >= 1


def _to_rounded(step: int, up) -> np.ndarray:
    """What rounds n to a multiple of ``step``, by its last two digits l at l and l + 100 (l - 100 reads from the end)."""
    return np.array([float(step * up(l) - l % step) for l in list(range(100)) * 2])


# to 16 digits by the sign of the rest below n, half to even; to 15, where a tie reads back as neither
_UP16, _DOWN16 = _to_rounded(10, lambda l: l % 10 >= 5), _to_rounded(10, lambda l: l % 10 > 5)
_EVEN16 = _to_rounded(10, lambda l: l % 10 > 5 or l % 10 == 5 and l // 10 % 2 == 1)
_TO15 = _to_rounded(100, lambda l: l >= 50)


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


def _mantissas(x: np.ndarray, shortest: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit mantissa (or with ``shortest``, the shortest one padded with zeros) and decimal exponent of each ``x``.

    Zeros get mantissa 0 and exponent 0. The mask is true for zeros and for
    the values that the fallback spells instead.
    """
    ax = np.abs(x)
    other = ~((ax >= _CEIL10[23 if shortest else 1]) & (ax < 1e17))  # nan too
    np.putmask(ax, other, 1.5)
    # a float's bits, read as an integer and scaled by 2**-52, are 1023 + log2 of
    # it to within 0.09, so the guess of the decimal exponent is at most one off
    biased = ax.view(np.int64) * 2.0**-52
    e = np.floor((biased - 1023) * _LOG10_2).astype(np.intp)
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
    # hi is an even integer, so rounding lo half to even rounds hi + lo half to even
    near = np.rint(lo)
    n = hi.astype(np.int64) + near.astype(np.int64)
    if shortest:
        n += _shortening(n, lo - near, ax, biased, p)
    # a mantissa rounded up to 10**17 carries into the exponent (the double 1e-14 is one)
    carry = n == 10**17
    n[carry] = 10**16
    e = np.where(carry, e + 1, e)
    n[other] = 0
    e[other] = 0
    return n, e, other


def _shortening(n, rest, ax, biased, p) -> np.ndarray:
    """What to add to each 17-digit mantissa ``n`` for that of the shortest spelling that reads back.

    ``n + rest`` is ``|x| * 10**p`` exactly; ``biased`` is :func:`_mantissas`' guess at the binary exponent.
    """
    # the biased binary exponent: the guess's floor, or one less where the bits' conversion rounded up
    b = np.floor(biased).astype(np.intp)
    b = np.where(ax < _POW2[b], b - 1, b)
    u = _POW2[b - 53] * _POW10[p]
    # the last two digits of n give or take 100 (the float quotient may be one off),
    # and the roundings to 16 and 15 digits as offsets from n
    low = n - np.floor(n * 1e-2).astype(np.int64) * 100
    to16 = np.where(rest > 0, _UP16[low], np.where(rest < 0, _DOWN16[low], _EVEN16[low]))
    to15 = _TO15[low]

    def reads_back(to: np.ndarray) -> np.ndarray:
        # n + to lies |to - rest| from |x| * 10**p, which rounded compares with U as it
        # is; at U it reads back where the mantissa of x is even
        s = np.abs(to - rest)
        ok = s < u
        ends = np.flatnonzero(s == u)
        if ends.size:
            half = ax[ends] * _POW2[2098 - b[ends]] * 0.5
            ok[ends] = half == np.floor(half)
        return ok

    # where a 15-digit decimal reads back, so does the nearest 16-digit one
    ok15 = reads_back(to15)
    return np.where(ok15, to15, np.where(reads_back(to16), to16, 0.0)).astype(np.int64)


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


def _slots(x: np.ndarray, shortest: bool = False) -> np.ndarray:
    """The bytes of ``'%.17g' % v``, or with ``shortest`` of ``json.dumps(v)``, for each ``v`` of the 1-d float64 ``x``.

    Returns a ``(_SLOT, len(x))`` uint8 array: column ``i`` holds the spelling
    of ``x[i]`` in order, with zero bytes where nothing is written.
    """
    m = len(x)
    x = np.concatenate([x, np.zeros(-m % 8)])  # whole int64 words per row of bytes
    n, exponent, other = _mantissas(x, shortest)
    digits, s = _digits(n)
    del n
    slots = np.empty((_SLOT, len(x)), np.uint8)
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(45), out=slots[0])
    np.multiply(((exponent <= _PREFIX_UPTO) & (exponent >= -4)).view(np.uint8), _PREFIX, out=slots[1:6])
    slots[24:] = 0
    positional = (exponent >= -4) & (exponent <= (15 if shortest else 16))
    exponential = np.flatnonzero(~positional)
    slots[24:, exponential] = _SUFFIX[:, exponent[exponential] + 28]
    # `last` is the index of the last digit before the point; digits are kept up to the
    # significant ones and the integer part (a shortest spelling keeps one zero after
    # it), and the point goes after digit `last` if digits follow it, else nowhere (18)
    last = np.where(positional, np.maximum(exponent, -1), 0)
    s = np.maximum(s, np.where(positional & (last >= 0), last + 2, last + 1) if shortest else last + 1)
    kept = np.zeros((19, len(x)), np.uint8)
    np.multiply(digits, (_K[:17] < s).view(np.uint8), out=kept[1:18])
    point = np.where((s > last + 1) & (last >= 0), last + 1, 18)
    del digits, s, last
    # the digits before the point, the point and the digits after it: disjoint bytes, so summed as int64
    region = slots[6:24]
    np.multiply(kept[1:], (_K < point).view(np.uint8), out=region)
    region.view(np.int64)[...] += (kept[:18] * (_K > point).view(np.uint8)).view(np.int64)
    region.view(np.int64)[...] += ((_K == point).view(np.uint8) * np.uint8(46)).view(np.int64)

    other = np.flatnonzero(other & (x != 0.0))
    if other.size:
        fmt, spell = ("%-24s", json.dumps) if shortest else ("%-24.17g", float)
        spelled = (fmt * other.size) % tuple(map(spell, x[other].tolist()))
        slots[:24, other] = np.frombuffer(spelled.replace(" ", "\0").encode("ascii"), np.uint8).reshape(other.size, 24).T
        slots[24:, other] = 0
    return slots[:, :m]


def _text_cells(values, after: bytes, spell) -> np.ndarray:
    """Each ``spell(v)`` and ``after`` as a row of UTF-8 bytes padded with zeros.

    The column is taken in runs of equal values, and each distinct value is
    spelled once.
    """
    values = np.asarray(values)
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    runs = values[starts].tolist()
    index = {v: i for i, v in enumerate(dict.fromkeys(runs))}
    encoded = [spell(v).encode("utf-8") + after for v in index]
    table = np.zeros((len(encoded), max(map(len, encoded))), np.uint8)
    for row, text in zip(table, encoded):
        row[: len(text)] = np.frombuffer(text, np.uint8)
    lengths = np.diff(np.append(starts, len(values)))
    return np.repeat(table[[index[v] for v in runs]], lengths, axis=0)


# a zero's slot by spelling ('%.17g', json) and sign bit: "0", "-0", "0.0" and "-0.0"
_ZERO_SLOTS = np.frombuffer(b"".join(t.ljust(_SLOT, b"\0") for t in (b"0", b"-0", b"0.0", b"-0.0")), _SLOT_BYTES).reshape(2, 2)


def csv_rows(fields: Sequence, n: int, after: Optional[Sequence[str]] = None, as_json: bool = False) -> Iterator[str]:
    """The ``n`` rows of a table, as a few blocks of text.

    A field that is a float64 array is spelled as ``'%.17g' % x`` spells each
    value, or with ``as_json`` as ``json.dumps`` does; a ``str`` is the same
    text in every row; any other column of ``n`` values is spelled ``str(v)``
    (``json.dumps(v)`` with ``as_json``), which must contain no NUL. Each
    field is followed by its text in ``after``, by default a comma and, after
    the last, a newline. Rows are built in blocks of a few thousand values,
    so the memory used does not grow with ``n``.
    """
    if n == 0:
        return
    is_float = [isinstance(f, np.ndarray) and f.dtype == np.float64 for f in fields]
    floats = [f for f, flag in zip(fields, is_float) if flag]
    if not floats:
        raise ValueError("a table needs at least one float64 column")
    after = [","] * (len(fields) - 1) + ["\n"] if after is None else after
    spell = json.dumps if as_json else str
    rows = max(1, _BLOCK // len(floats))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # a row is a head (the text before the first float), then per float a
        # slot and a gap of one width (the text after it and the fields up to the next float)
        cells: List[List[np.ndarray]] = [[]]
        for f, flag, text in zip(fields, is_float, after):
            sep = text.encode("utf-8")
            if flag:
                cells.append([np.frombuffer(sep, np.uint8)[None]])
            else:
                cells[-1].append(_text_cells([f], sep, str) if isinstance(f, str) else _text_cells(f[start:stop], sep, spell))
        head = sum(c.shape[1] for c in cells[0])
        pitch = _SLOT + max(sum(c.shape[1] for c in gap) for gap in cells[1:])
        block = np.zeros((stop - start, head + len(floats) * pitch), np.uint8)
        for g, gap in enumerate(cells):
            at = head + (g - 1) * pitch + _SLOT if g else 0
            for c in gap:
                block[:, at : at + c.shape[1]] = c
                at += c.shape[1]
        # zeros by their sign bits, the others by the kernel, into the slots as whole elements
        values = np.stack([f[start:stop] for f in floats])
        zero = values == 0.0
        slots = np.ndarray(values.shape, _SLOT_BYTES, block, head, (pitch, block.shape[1]))
        slots[zero] = _ZERO_SLOTS[int(as_json)][np.signbit(values[zero]).view(np.uint8)]
        slots[~zero] = np.ascontiguousarray(_slots(values[~zero], as_json).T).view(_SLOT_BYTES).ravel()
        yield block.tobytes().translate(None, b"\0").decode("utf-8")
