"""Serialization helpers: full-precision CSV tables and deterministic JSON.

CSV tables are written from numpy byte slots.  Each cell of a chunk becomes a
fixed-width row of a uint8 matrix, padded with NUL bytes; a chunk's lines are
its column slots joined by ',' and '\\n' columns, and deleting the NULs
(`bytes.translate`) leaves the text that fmt() gives cell by cell.

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

import json
import math
import random
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

PAIR_COLUMNS = ("i", "j", "delta_ij", "bound", "oracle_value", "stderr_or_tol", "verdict")
CHUNK_ROWS = 4096  # rows formatted per write; bounds the slots held in memory
FLOAT_SLOT = 25  # bytes of the longest '%.17e' text, '-1.23456789012345678e-308'
DEFER_MARGIN = 2.0**-30  # y's fraction this close to 1/2 is not rounded here
PERCENT_KEYS = 64  # fewer floats than this go to '%' whole: cheaper than numpy's fixed cost
# Rows of a full chunk probed for repeated floats.  Drawn at random, not
# strided: a column with period T repeats on them for every T < 1122.
PROBE_ROWS = np.array(random.Random(0).sample(range(CHUNK_ROWS), 128))
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
    return np.array(ten_up), hi, *_veltkamp(hi), np.array(lo), np.array(shift)


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


def _slots(column: np.ndarray) -> np.ndarray:
    """One chunk of a column as NUL-padded byte slots, one row per cell.

    Each distinct key is formatted once and its slot gathered by the inverse
    index: integers and text are keyed by value, floats by their 64-bit
    pattern, so 0.0 and -0.0 (equal as floats, different as text) and NaNs
    with different payloads keep their own slots.  A full float chunk whose
    keys on PROBE_ROWS are all distinct skips np.unique and is formatted
    whole, as np.unique would find nearly every key distinct: k keys spread
    evenly pass the probe with probability about exp(-128**2 / 2k), 2% at
    k = 2048.  Either way each cell gets the same text.
    """
    kind = column.dtype.kind
    if kind in "biuU":
        keys, inverse = np.unique(column, return_inverse=True)
        if kind == "U":
            text = [key.encode() for key in keys.tolist()]
        else:
            text = [b"%d" % key for key in keys.tolist()]
        table = np.array(text, dtype=bytes)  # the S dtype pads with NUL
        table = table.view(np.uint8).reshape(len(text), -1)
    else:
        bits = np.ascontiguousarray(column, dtype=float).view(np.uint64)
        if len(bits) == CHUNK_ROWS:
            probe = np.sort(bits.take(PROBE_ROWS))
            if not np.count_nonzero(probe[1:] == probe[:-1]):
                return _float_slots(bits.view(float))
        keys, inverse = np.unique(bits, return_inverse=True)
        table = _float_slots(keys.view(float))
    return np.take(table, inverse, axis=0)


def _chunk_text(arrays: list, start: int, stop: int) -> bytes:
    """Lines start to stop of the table: its column slots joined by ',' and '\\n'."""
    comma = np.full((stop - start, 1), ord(","), np.uint8)
    line = []
    for a in arrays:
        if a is not None:
            line.append(_slots(a[start:stop]))
        line.append(comma)
    line[-1] = np.full_like(comma, ord("\n"))
    return np.concatenate(line, axis=1).tobytes().translate(None, b"\0")


def write_table(header, columns, path) -> None:
    """CSV with a header line and one line per entry of the parallel columns.

    Each cell reads as fmt() writes it: integer columns as integers, text
    columns as they are, other columns in full precision, and a column given
    as None leaves its cells empty.  Rows are formatted CHUNK_ROWS at a time
    as one uint8 matrix of byte slots (see _slots and the module docstring).
    """
    arrays = [None if c is None else np.asarray(c) for c in columns]
    if len(header) != len(arrays):
        raise ValueError(f"{len(header)} header names for {len(arrays)} columns")
    lengths = sorted({len(a) for a in arrays if a is not None})
    if not lengths:
        raise ValueError("every column is None, so the table has no row count")
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    n = lengths[0]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, CHUNK_ROWS):
            fh.write(_chunk_text(arrays, start, min(n, start + CHUNK_ROWS)))


def emit_pair_table(pairs: dict, path) -> None:
    """CSV of per-pair results; one row per unordered pair including diagonal.

    ``pairs`` maps every name in PAIR_COLUMNS to a column of equal length:
    integer ``i`` and ``j``, text ``verdict`` and float values otherwise; a
    float column given as None leaves its cells empty.
    """
    write_table(PAIR_COLUMNS, [pairs[name] for name in PAIR_COLUMNS], path)


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


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
