"""The one CSV row format shared by every table the package writes.

A table is written block by block (one path, or one time row of the drift
field).  A row is ``lead, constant columns, value columns``: the lead cell
names the block, and the constant columns are the row-major product of
fixed axes (times, maturities, components).  Integers print with ``str``,
floats with 17 significant digits, byte for byte as ``'%.17g' % v``.

Lead and constant cells are few and print with Python's own formatting.
The value cells are many, so they are formatted as arrays, a pass of rows
at a time, with exact integer arithmetic in place of a per-value ``%``:

- **Digits.**  For a finite |x| in [1e-11, 1e15) write x = m 2^(k-53),
  m a 53-bit integer, and let E = floor(log10 |x|), found from k and one
  comparison against the least double at or above 10^(E+1).  Then
  N = round-half-even(|x| 10^(16-E)) = round(m 5^q 2^(k-53+q)) with
  q = 16 - E in [2, 27]: m 5^q is an exact 128-bit product of two uint64
  words (5^27 < 2^63), and the power of two is a right shift by 1 to 62
  bits whose dropped bits decide the rounding.  N always has 17 digits:
  no double in the range lies within half a unit of the 17th digit below
  a power of ten, so none rounds up to 10^17.  Gay (1990) and Adams (2019)
  give the exact fixed-precision conversion this follows.
- **ASCII.**  int64 division by 10^8 and 10^4 splits N into its leading
  digit and four groups of four digits.  A table of 10^4 eight-byte words
  gives each group's ASCII digits, each followed by a slot for a ``.``.
- **Layout.**  Every cell is a fixed 44-byte slot that holds every byte a
  ``%.17g`` result in that range can use: ``,-0.000``, the 17 digits with a
  slot for ``.`` after each, and ``e-XX``.  A table indexed by (E, trailing
  zeros of N, sign) gives the slot's constant bytes, 0 in every byte the
  cell does not use and 0xFF where its digits go; ANDing the digits in
  completes the cell.  This covers fixed notation for E >= -4, with
  trailing zeros and a bare ``.`` dropped, ``d.ddde-XX`` below 1e-4, and
  ``0`` / ``-0`` for zeros.
- **Rows.**  A pass fills one byte matrix laid out as [lead | constant
  columns | value cells | newline], with a zero byte in every position a
  row does not use.  Deleting the zero bytes (``bytes.translate``) leaves
  the pass's text, written in one call.  Passes are sized to keep the
  working set near a megabyte.

Values outside that range (subnormals, |x| < 1e-11 or >= 1e15) go through
one ``%`` operation per pass, which is rare in practice.  A non-finite value
in a written row raises ``ValueError`` naming its column.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, product
import math

import numpy as np

# one value cell: ``,`` | sign | ``0.000`` | d0 . d1 . ... . d16 | ``e-XX``
_CELL = b",-0.000" + b"0." * 16 + b"0e-00"
_SIGN, _LEAD_ZEROS, _DIGITS, _EXP = 1, 2, 7, 40
_E_MIN, _E_MAX = -11, 14  # the exponents of the fast range [1e-11, 1e15)
_PASS_BYTES = 1 << 20  # aim for the working set of one pass


def _cell(value) -> str:
    return str(value) if isinstance(value, (int, np.integer)) else f"{value:.17g}"


def _least_double_at_or_above(j: int) -> float:
    """The smallest double >= 10^j."""
    x = 10.0**j
    num, den = x.as_integer_ratio()
    exact_below = num * 10**-j < den if j < 0 else num < den * 10**j
    return math.nextafter(x, math.inf) if exact_below else x


@cache
def _tables():
    """Read-only lookup tables, built on first use (1-2 ms)."""
    # digits4[g]: the 4 digits of g with 0xFF after each, as 8 bytes in a uint64
    g = np.arange(10_000)
    ascii4 = np.full((10_000, 8), 0xFF, np.uint8)
    ascii4[:, 0::2] = np.stack([48 + g // 10**i % 10 for i in (3, 2, 1, 0)], axis=1)
    digits4 = ascii4.view(np.uint64).ravel()
    zeros4 = sum((g % 10**i == 0).astype(np.int8) for i in range(1, 5))  # 4 for 0000
    lows = np.array([_least_double_at_or_above(j) for j in range(_E_MIN, _E_MAX + 2)])
    pow5 = np.array([5**q for q in range(28)], dtype=np.uint64)
    # cells[E - _E_MIN, trailing zeros, negative]: the cell's bytes with the
    # unused ones 0 and the digits 0xFF, to be ANDed with the digits
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None, None]
    last = 16 - np.arange(17)[None, :, None, None]  # the last nonzero digit
    neg = np.arange(2)[None, None, :, None]
    pos = np.arange(len(_CELL))[None, None, None, :]
    k = (pos - _DIGITS) // 2
    is_digit = (pos >= _DIGITS) & (pos < _EXP) & (pos % 2 == 1)
    is_dot = (pos > _DIGITS) & (pos < _EXP) & (pos % 2 == 0)
    fixed, small, scientific = e >= 0, (e < 0) & (e >= -4), e < -4
    keep = (
        (pos == 0)
        | ((pos == _SIGN) & (neg == 1))
        | (small & (pos >= _LEAD_ZEROS) & (pos < _LEAD_ZEROS + 2 - 1 - e))
        | (is_digit & (k <= np.where(fixed, np.maximum(e, last), last)))
        | (is_dot & fixed & (k == e) & (last > e))
        | (is_dot & scientific & (k == 0) & (last > 0))
        | (scientific & (pos >= _EXP))
    )
    chars = np.where(is_digit, 0xFF, np.frombuffer(_CELL, np.uint8))
    chars = np.where(pos == _EXP + 2, 48 + (-e) // 10, chars)
    chars = np.where(pos == _EXP + 3, 48 + (-e) % 10, chars)
    cells = np.where(keep, chars, 0).astype(np.uint8).reshape(-1, len(_CELL))
    tables = (digits4, zeros4, lows, pow5, cells)
    for t in tables:
        t.flags.writeable = False
    return tables


def _digits(a, lows, pow5):
    """(N, E) for the values ``a`` > 0 in the fast range: a ~ N 10^(E-16).

    N is ``a`` rounded half-even to 17 significant digits, 10^16 <= N < 10^17.
    The arithmetic is in place where it can be, to keep the pass's working
    set small.
    """
    bits = a.view(np.uint64)
    k = (bits >> np.uint64(52)).view(np.int64) - 1022  # a = m 2^(k - 53), m = 2^52 | fraction
    e = ((k - 1) * 78913) >> 18  # floor(log10 2^(k-1)), at most one below E
    e += a >= lows[e + 1 - _E_MIN]
    p = pow5[16 - e]  # a 10^(16-E) = m 5^(16-E) 2^-shift
    k -= e
    shift = (37 - k).view(np.uint64)  # 1 <= shift <= 62
    # m 5^(16-E) = hi 2^64 + lo from 32-bit halves: m < 2^53, 5^(16-E) < 2^63
    low32, w = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = bits & low32, (bits >> w) & np.uint64(0xFFFFF) | np.uint64(1 << 20)
    lo = m_lo * (p & low32)
    mid = m_hi * (p & low32)
    p >>= w  # p_hi
    m_lo *= p
    mid += m_lo  # m_hi p_lo + m_lo p_hi < 2^64
    hi = m_hi
    hi *= p
    hi += mid >> w
    mid <<= w
    mid += lo  # the low word
    hi += mid < lo  # and its carry
    lo = mid
    n = (hi << (np.uint64(64) - shift)) | (lo >> shift)
    one = np.uint64(1)
    lo &= (one << shift) - one  # the dropped bits
    n += lo + (n & one) > one << (shift - one)  # half-even: odd N rounds a tie up
    return n.view(np.int64), e


def _format(values, cells):
    """Write the ``%.17g`` text of the float ``values`` into ``cells`` (..., 44).

    Each cell gets a comma, its text, and 0 in the bytes it does not use.
    """
    digits4, zeros4, lows, pow5, templates = _tables()
    a = np.abs(values)
    fast = (a >= lows[0]) & (a < lows[-1])
    zero = a == 0
    n, e = _digits(np.where(fast, a, 1.0), lows, pow5)
    n[zero] = 0
    e[zero] = 0
    top = n // 10**8
    lead = top // 10**8
    groups = np.empty(n.shape + (4,), np.int64)  # N = lead 10^16 + four groups of 4 digits
    groups[..., 1] = top - lead * 10**8
    groups[..., 3] = n - top * 10**8
    groups[..., 0::2] = groups[..., 1::2] // 10**4
    groups[..., 1::2] -= groups[..., 0::2] * 10**4
    tz = zeros4[groups]  # trailing zeros of each group, 4 for 0000
    z = tz[..., 3] + (tz[..., 3] == 4) * (
        tz[..., 2] + (tz[..., 2] == 4) * (tz[..., 1] + (tz[..., 1] == 4) * tz[..., 0])
    )
    np.take(templates, ((e - _E_MIN) * 17 + z) * 2 + np.signbit(values), axis=0, out=cells)
    cells[..., _DIGITS] &= (48 + lead).astype(np.uint8)
    cells[..., _DIGITS + 2:_DIGITS + 34] &= digits4[groups].view(np.uint8)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        printed = ("%.17g\0" * slow.size) % tuple(values.ravel()[slow].tolist())
        chars = _text(printed.split("\0")[:-1])
        at = np.unravel_index(slow, values.shape)
        cells[at + (slice(1, None),)] = 0
        cells[at + (slice(1, 1 + chars.shape[1]),)] = chars


def _text(strings):
    """(len(strings), width) ASCII bytes, each string padded with zero bytes."""
    width = max(map(len, strings), default=0)
    raw = "".join(s.ljust(width, "\0") for s in strings).encode("ascii")
    return np.frombuffer(raw, np.uint8).reshape(len(strings), width)


def write_rows(fileobj, header, leads, axes, columns, write_header=True, keep=None):
    """Write one block of rows per entry of ``leads``.

    ``leads`` holds each block's first cell (a path id, or a time).
    ``axes`` are sequences whose row-major product gives each row's
    constant columns.  ``columns`` holds one (n_blocks, n_rows) array per
    value column, or None for a column left empty.  ``keep`` is a boolean
    (n_rows,) mask of the rows to write, the same for every block.  A
    non-finite value in a written row raises ``ValueError`` naming its
    column.
    """
    if write_header:
        fileobj.write(",".join(header) + "\n")
    prefixes = product(*([_cell(v) for v in axis] for axis in axes))
    if keep is not None:
        prefixes = compress(prefixes, keep)
    prefix = _text(["," + ",".join(pre) for pre in prefixes])
    lead = _text([_cell(v) for v in leads])
    n_blocks, n_rows, n_cols = len(lead), len(prefix), len(columns)
    if n_blocks == 0 or n_rows == 0:
        return
    rows = slice(None) if keep is None else np.flatnonzero(keep)
    empty = [j for j, c in enumerate(columns) if c is None]
    start = lead.shape[1] + prefix.shape[1]
    width = start + n_cols * len(_CELL) + 1
    # bytes per row: the text plus about 160 bytes of temporaries per value
    per_pass = max(1, _PASS_BYTES // (width + 160 * n_cols))
    kb = min(n_blocks, max(1, per_pass // n_rows))  # whole blocks per pass,
    chunks = -(-n_rows // per_pass)  # or equal chunks of one long block
    nr = -(-n_rows // chunks)
    text = np.empty((kb * nr, width), np.uint8)
    values = np.zeros((kb * nr, n_cols))
    text[:, -1] = ord("\n")
    for b0 in range(0, n_blocks, kb):
        b1 = min(b0 + kb, n_blocks)
        for r0 in range(0, n_rows, nr):
            r1 = min(r0 + nr, n_rows)
            size = (b1 - b0) * (r1 - r0)
            t = text[:size].reshape(b1 - b0, r1 - r0, width)
            v = values[:size].reshape(b1 - b0, r1 - r0, n_cols)
            sel = slice(r0, r1) if keep is None else rows[r0:r1]
            for j, c in enumerate(columns):
                if c is not None:
                    v[..., j] = c[b0:b1, sel]
            if not np.isfinite(v).all():
                b = b0 + int(np.argmin(np.isfinite(v).all(axis=(1, 2))))
                _raise_non_finite(header, columns, b, rows)
            t[..., :lead.shape[1]] = lead[b0:b1, None]
            t[..., lead.shape[1]:start] = prefix[None, r0:r1]
            cells = t[..., start:-1].reshape(v.shape + (len(_CELL),))
            _format(v, cells)
            if empty:
                cells[..., empty, 1:] = 0
            fileobj.write(text[:size].tobytes().translate(None, b"\0").decode("ascii"))


def _raise_non_finite(header, columns, b, rows):
    names = [n for n, c in zip(header[-len(columns):], columns) if c is not None]
    block = np.column_stack([c[b] for c in columns if c is not None])[rows]
    finite = np.isfinite(block).all(axis=0)
    raise ValueError(f"non-finite value in CSV column {names[np.argmin(finite)]!r}")
