"""Serialization helpers: full-precision CSV tables and deterministic JSON.

CSV tables are written CHUNK_ROWS lines at a time from dictionary-encoded
columns, as in column stores (Abadi, Madden & Ferreira, "Integrating
compression and execution in column-oriented database systems", SIGMOD
2006).  Each column of a chunk is a key table and an index: a key table is
a uint8 matrix with one NUL-padded byte slot per distinct key, less the byte
columns that are NUL in every key, plus one column for the ',' or '\\n' that
ends the cell.  The chunk's lines are the indexed rows of its key tables
side by side, and deleting the few NULs left (`bytearray.replace`) leaves the
text that fmt() gives cell by cell.  write_table takes the columns whole;
emit_pair_table gathers the pairs i <= j of a run's matrices chunk by chunk
and writes a verdict as a row of a two-key table indexed by the check.

A float slot holds '%.17e' % v in 25 bytes, `[-] d . 17 digits e +/- dd[d]`,
computed in numpy after Ryu printf (Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019):

* k = floor(log10 |v|) from np.log10, corrected exactly against a table of
  the smallest double >= 10^k;
* y = |v| 10^(17-k) as a double-double: the frexp mantissa times 10^(17-k)
  held as hi + lo times a power of two, with Dekker's exact two-product
  (Dekker, "A floating-point technique for extending the available
  precision", 1971) on a Veltkamp split, since numpy has no fma.  y is
  within 2^-44 of the exact product;
* the 18 digits are D = round(y), and a carry to 10^18 becomes 10^17 with
  k + 1.

Proof or defer: D is taken only when the fraction of y is more than 2^-30
from 1/2, so the rounding is proven; a near-tie or an exact tie (such as
(2^53 - 1)/16) goes to Python's '%', as do NaN and +-inf.  The power tables
are built at import from exact integers.
"""

from __future__ import annotations

import functools
import math
import random
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

PAIR_COLUMNS = ("i", "j", "delta_ij", "bound", "oracle_value", "stderr_or_tol", "verdict")
CHUNK_ROWS = 8192  # rows formatted per write; bounds the slots held in memory
FLOAT_SLOT = 25  # bytes of the longest '%.17e' text, '-1.23456789012345678e-308'
DEFER_MARGIN = 2.0**-30  # y's fraction this close to 1/2 is not rounded here
PERCENT_KEYS = 64  # fewer floats than this go to '%' whole: cheaper than numpy's fixed cost
# Rows of a full chunk probed for repeated floats.  Drawn at random, not
# strided: a column with period T repeats on them for every T < 1122.
PROBE_ROWS = np.array(random.Random(0).sample(range(CHUNK_ROWS), 128))
_INT_KEYS = 2**16  # integers below this index a table of their texts
_K_MIN, _K_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_VELTKAMP = 2.0**27 + 1.0


def fmt(value) -> str:
    """Full-precision scientific notation for floats; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17e")


def _split(num: int, den: int) -> tuple[float, float]:
    """num/den as hi + lo: hi correctly rounded, lo the rounded remainder."""
    hi = num / den  # int true division rounds correctly
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _veltkamp(x):
    """x = hi + lo with each half at most 26 significant bits."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


def _power_tables():
    ten_up, hi, lo, shift = [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        x = num / den
        n, d = x.as_integer_ratio()
        ten_up.append(x if n * den >= num * d else math.nextafter(x, math.inf))
        # 10^(17-k) = (hi + lo) 2^shift with hi in [1, 2)
        num, den = den * 10**17, num
        q = num.bit_length() - den.bit_length()
        num, den = (num, den << q) if q >= 0 else (num << -q, den)
        if num < den:
            num, q = 2 * num, q - 1
        h, l = _split(num, den)
        hi.append(h)
        lo.append(l)
        shift.append(q)
    ten_up.append(math.inf)  # 10^309 lies past the largest double
    hi = np.array(hi)
    # int32 shifts keep e + shift int32, which np.ldexp has its fast loop for
    return np.array(ten_up), hi, *_veltkamp(hi), np.array(lo), np.array(shift, dtype=np.int32)


# _TEN_UP[k - _K_MIN] is the smallest double >= 10^k; row k - _K_MIN of the
# others holds 10^(17-k) = (_POW_HI + _POW_LO) 2^_POW_SHIFT
_TEN_UP, _POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO, _POW_SHIFT = _power_tables()
_QUADS = np.array([b"%04d" % i for i in range(10_000)]).view(np.uint32)
_EXPONENT = np.array(
    [b"e%+03d" % k for k in range(_K_MIN, _K_MAX + 1)], dtype=f"S{FLOAT_SLOT - 20}"
).view(np.uint8).reshape(-1, FLOAT_SLOT - 20)


def _proven_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17e' % v for each float64 v, as NUL-padded FLOAT_SLOT-byte rows.

    Also returns a mask of the rows whose rounding is proven; the others
    (near-ties, NaN, +-inf) hold no valid text.
    """
    a = np.abs(values)
    zero = a == 0
    special = ~np.isfinite(a)
    a[zero | special] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k += a >= _TEN_UP[k + 1 - _K_MIN]
    k -= a < _TEN_UP[k - _K_MIN]
    row = k - _K_MIN
    mant, e = np.frexp(a)
    b = _POW_HI[row]
    p = mant * b
    m_hi, m_lo = _veltkamp(mant)
    b_hi, b_lo = _POW_HI_HI[row], _POW_HI_LO[row]
    err = m_lo * b_lo - (((p - m_hi * b_hi) - m_lo * b_hi) - m_hi * b_lo)  # p + err = mant b
    s = e + _POW_SHIFT[row]  # y = (p + err + mant lo) 2^s lies in [10^17, 10^18]
    r = np.ldexp(err + mant * _POW_LO[row], s)
    whole = np.floor(r)
    frac = r - whole
    D = np.ldexp(p, s).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10**18
    D[carry] = 10**17
    k += carry
    D[zero] = 0
    k[zero] = 0

    high = D // 10**8
    top = high // 10**8  # the first two digits
    lead = top // 10
    quads = np.empty((len(D), 4), np.int64)  # the last 16 digits, four at a time
    mid = high - top * 10**8
    low = D - high * 10**8
    quads[:, 0] = mid // 10**4
    quads[:, 1] = mid - quads[:, 0] * 10**4
    quads[:, 2] = low // 10**4
    quads[:, 3] = low - quads[:, 2] * 10**4
    out = np.empty((len(D), FLOAT_SLOT), np.uint8)
    out[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3] = top - 10 * lead + ord("0")
    out[:, 4:20] = np.take(_QUADS, quads).view(np.uint8)
    out[:, 20:] = np.take(_EXPONENT, k - _K_MIN, axis=0)

    return out, ~special & (np.abs(frac - 0.5) >= DEFER_MARGIN)


def _float_slots(values: np.ndarray) -> np.ndarray:
    """Slots of _proven_slots, with Python's '%' on the rows it cannot prove.

    Fewer than PERCENT_KEYS values all take the '%' path, which costs about
    1 us a value against a fixed 35-100 us for _proven_slots.
    """
    if len(values) < PERCENT_KEYS:
        out, proven = np.empty((len(values), FLOAT_SLOT), np.uint8), np.zeros(len(values), bool)
    else:
        out, proven = _proven_slots(values)
    if not proven.all():
        text = [b"%.17e" % v for v in values[~proven].tolist()]
        out[~proven] = np.array(text, dtype=f"S{FLOAT_SLOT}").view(np.uint8).reshape(-1, FLOAT_SLOT)
    return out


@functools.cache
def _int_texts(digits: int) -> np.ndarray:
    """Text of every integer below min(10^digits, _INT_KEYS), as NUL-padded rows of digits bytes."""
    text = [b"%d" % v for v in range(min(10**digits, _INT_KEYS))]
    table = np.array(text, dtype=f"S{digits}").view(np.uint8).reshape(len(text), digits)
    table.flags.writeable = False  # shared by every caller
    return table


def _key_table(slots: np.ndarray) -> np.ndarray:
    """slots less their NUL-only byte columns, with one more column for the separator.

    A text starts at byte 0, or at byte 1 after a float's sign slot, and has
    no NUL inside, so the byte columns that are NUL in every row are the
    first and the last ones.
    """
    lo, hi = 0, slots.shape[1]
    while hi > lo and not slots[:, hi - 1].any():
        hi -= 1
    while lo < hi and not slots[:, lo].any():
        lo += 1
    table = np.empty((len(slots), hi - lo + 1), np.uint8)
    table[:, :-1] = slots[:, lo:hi]
    return table


def _slots(column: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One chunk of a column, dictionary-encoded: a key table and an index.

    Row r of the chunk reads row index[r] of the table; with index None the
    table has one row per cell, or one row that every cell shares.  The
    table's rows are NUL-padded byte slots (see _key_table); its last column
    is left for the separator that _chunk_text writes.

    Each distinct key is formatted once: integers are keyed by value, floats
    by their 64-bit pattern, so 0.0 and -0.0 (equal as floats, different as
    text) and NaNs with different payloads keep their own slots.  The keys
    are found without a sort where the column allows it:

    * a column whose cells all hold one key is one slot;
    * integers in [0, _INT_KEYS) spanning no more values than the chunk has
      rows index a table of their texts by value;
    * a full float chunk whose keys on PROBE_ROWS are all distinct is
      formatted whole, as np.unique would find nearly every key distinct:
      k keys spread evenly pass the probe with probability about
      exp(-128**2 / 2k), 2% at k = 2048.

    Every other column goes through np.unique.  Either way each cell gets
    the same text.
    """
    kind = column.dtype.kind
    if kind in "biu":
        keys, text = column, _int_slots
    else:
        keys = np.ascontiguousarray(column, dtype=float).view(np.uint64)
        text = _bits_slots
    if not np.count_nonzero(keys != keys[0]):
        return _key_table(text(keys[:1])), None
    if kind in "iu":
        lo, hi = int(keys.min()), int(keys.max())
        if 0 <= lo and hi < _INT_KEYS and hi - lo < len(keys):
            return _key_table(_int_texts(len(str(hi)))[lo : hi + 1]), keys - lo
    elif kind != "b" and len(keys) == CHUNK_ROWS:
        probe = np.sort(keys.take(PROBE_ROWS))
        if not np.count_nonzero(probe[1:] == probe[:-1]):
            return _key_table(text(keys)), None
    keys, inverse = np.unique(keys, return_inverse=True)
    return _key_table(text(keys)), inverse


def _int_slots(keys: np.ndarray) -> np.ndarray:
    """Integers as NUL-padded byte slots, one row per key."""
    table = np.array([b"%d" % key for key in keys.tolist()], dtype=bytes)  # the S dtype pads with NUL
    return table.view(np.uint8).reshape(len(table), -1)


def _bits_slots(bits: np.ndarray) -> np.ndarray:
    return _float_slots(bits.view(float))


def _chunk_text(slots: list, rows: int) -> bytearray:
    """Lines of one chunk from each column's (key table, index); None for a column of empty cells.

    Each table's last column takes the ',' or '\\n' that ends its cells.  A
    table row is copied as one opaque item of its width, and the NULs left
    in the lines are deleted.
    """
    tables = [(np.empty((1, 1), np.uint8), None) if s is None else s for s in slots]
    buf = bytearray(rows * sum(table.shape[1] for table, _ in tables))
    lines = np.frombuffer(buf, np.uint8).reshape(rows, -1)
    col = 0
    for k, (table, index) in enumerate(tables):
        width = table.shape[1]
        table[:, -1] = ord("\n") if k == len(tables) - 1 else ord(",")
        cells = table.view(f"V{width}")[:, 0]
        lines[:, col : col + width].view(f"V{width}")[:, 0] = cells if index is None else cells.take(index)
        col += width
    return buf.replace(b"\0", b"")


def _write_chunks(header, n: int, chunk_slots, path) -> None:
    """The header line, then n lines CHUNK_ROWS at a time; chunk_slots(start, stop) gives their slots."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, CHUNK_ROWS):
            stop = min(n, start + CHUNK_ROWS)
            fh.write(_chunk_text(chunk_slots(start, stop), stop - start))


def write_table(header, columns, path) -> None:
    """CSV with a header line and one line per entry of the parallel columns.

    Each cell reads as fmt() writes it: integer and boolean columns as
    integers, other columns in full precision, and a column given as None
    leaves its cells empty.  Rows are formatted CHUNK_ROWS at a time
    from one key table per column (see _slots and the module docstring).
    """
    arrays = [None if c is None else np.asarray(c) for c in columns]
    if len(header) != len(arrays):
        raise ValueError(f"{len(header)} header names for {len(arrays)} columns")
    lengths = sorted({len(a) for a in arrays if a is not None})
    if not lengths:
        raise ValueError("every column is None, so the table has no row count")
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")

    def chunk_slots(start, stop):
        return [None if a is None else _slots(a[start:stop]) for a in arrays]

    _write_chunks(header, lengths[0], chunk_slots, path)


def write_grid_table(header, nodes, shape: tuple, columns, path) -> None:
    """write_table for a table with one line per node of the grid nodes^len(shape), in C order.

    Its first len(shape) columns are the node coordinates.  nodes are
    formatted once per table and each cell takes its node's slot by index,
    so those columns are neither built nor sorted; `columns` gives the other
    cells, one per node.  The bytes are write_table's for the same table.
    """
    node_table = _key_table(_float_slots(np.asarray(nodes, dtype=float)))
    arrays = [np.asarray(c) for c in columns]

    def chunk_slots(start, stop):
        index = np.unravel_index(np.arange(start, stop), shape)
        return [(node_table, i) for i in index] + [_slots(a[start:stop]) for a in arrays]

    _write_chunks(header, math.prod(shape), chunk_slots, path)


def emit_pair_table(pairs: dict, path) -> None:
    """pairs.csv: one row per pair i <= j of a run's n x n matrices, in np.triu_indices order.

    ``pairs`` maps ``delta_ij`` and ``bound`` to matrices, and may map
    ``oracle_value`` to a matrix, ``stderr_or_tol`` to a matrix or one
    number, and ``ok`` to the boolean check of each pair.  A column left
    out has empty cells; the verdict is "pass" or "fail" by ``ok``, else
    "unchecked".  Each cell reads as fmt() writes it.  A matrix or number
    given for two columns (one object) is gathered and encoded once per
    chunk, and both columns take its slots.
    """
    i, j = np.triu_indices(len(pairs["bound"]))
    ok = pairs.get("ok")
    words = np.array([b"unchecked"] if ok is None else [b"fail", b"pass"])  # row ok[i, j] is the verdict
    verdicts = _key_table(words[:, None].view(np.uint8))
    values = [pairs.get(name) for name in PAIR_COLUMNS[2:6]]
    sources = {id(v): v for v in values}  # by identity: a matrix given twice is one source

    def chunk_slots(start, stop):
        rows = i[start:stop], j[start:stop]
        slots = {
            k: v if v is None else _slots(v[rows] if np.ndim(v) else np.array([v], float)) for k, v in sources.items()
        }
        cells = [slots[id(v)] for v in values]
        return [_slots(rows[0]), _slots(rows[1]), *cells, (verdicts, None if ok is None else ok[rows])]

    _write_chunks(PAIR_COLUMNS, len(i), chunk_slots, path)


def _atom(obj) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return float.__repr__(v) if math.isfinite(v) else _quote(repr(v))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode(obj, indent: str) -> str:
    """JSON text of obj as json.dumps(indent=2, sort_keys=True) writes it.

    numpy scalars and arrays are written as the Python values they hold,
    keys as str(key), and a non-finite float as its repr in quotes.  A list
    of finite floats or of strings is written in one join.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = {str(k): v for k, v in obj.items()}
        body = (",\n" + inner).join(_quote(k) + ": " + _encode(items[k], inner) for k in sorted(items))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        types = set(map(type, obj))
        if types == {float} and all(map(math.isfinite, obj)):
            cells = map(float.__repr__, obj)
        elif types == {str}:
            cells = map(_quote, obj)
        else:
            cells = (_encode(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(cells) + "\n" + indent + "]"
    return _atom(obj)


def report_bytes(report: dict, drop_meta: bool = False) -> bytes:
    """Canonical JSON encoding; with drop_meta=True the volatile field is removed."""
    payload = {k: v for k, v in report.items() if not (drop_meta and k == "meta")}
    return _encode(payload, "").encode("ascii")


def write_report(report: dict, path) -> None:
    Path(path).write_bytes(report_bytes(report) + b"\n")
