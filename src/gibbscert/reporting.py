"""Serialization helpers: full-precision CSV tables and deterministic JSON."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

PAIR_COLUMNS = ("i", "j", "delta_ij", "bound", "oracle_value", "stderr_or_tol", "verdict")
CHUNK_ROWS = 4096  # rows formatted per write; bounds the text and objects held in memory
_CELL = {"b": "%d", "i": "%d", "u": "%d", "U": "%s"}  # by dtype kind; floats go in as text


def fmt(value) -> str:
    """Full-precision scientific notation for floats; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17e")


def _cells(column: np.ndarray) -> list:
    """One chunk of a column as template arguments.

    Integer and text cells pass through.  A float cell becomes its %.17e text,
    formatted once per distinct 64-bit pattern in the chunk: the key is the
    bits, not the value, so 0.0 and -0.0 each keep their own text.
    """
    if column.dtype.kind in _CELL:
        return column.tolist()
    bits = np.ascontiguousarray(column, dtype=float).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    # all keys in one % call, which is cheaper than one call per key
    text = ",".join(["%.17e"] * keys.size) % tuple(keys.view(float).tolist())
    return np.array(text.split(","), dtype=object)[inverse].tolist()


def write_table(header, columns, path) -> None:
    """CSV with a header line and one line per entry of the parallel columns.

    Each cell reads as fmt() writes it: integer columns as integers, text
    columns as they are, other columns in full precision, and a column given
    as None leaves its cells empty.  Rows are formatted a chunk at a time with
    one %-template, and only the current chunk is turned into Python objects;
    within it each distinct float is formatted once (see _cells).
    """
    arrays = [None if c is None else np.asarray(c) for c in columns]
    present = [a for a in arrays if a is not None]
    row = ",".join("" if a is None else _CELL.get(a.dtype.kind, "%s") for a in arrays) + "\n"
    n = len(present[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            chunk = zip(*(_cells(a[start:stop]) for a in present))
            fh.write(row * (stop - start) % tuple(itertools.chain.from_iterable(chunk)))


def emit_pair_table(pairs: dict, path) -> None:
    """CSV of per-pair results; one row per unordered pair including diagonal.

    ``pairs`` maps every name in PAIR_COLUMNS to a column of equal length:
    integer ``i`` and ``j``, text ``verdict`` and float values otherwise; a
    float column given as None leaves its cells empty.
    """
    write_table(PAIR_COLUMNS, [pairs[name] for name in PAIR_COLUMNS], path)


_PLAIN = frozenset({str, int, float, bool, type(None)})  # what json writes as it is, when finite


def _plain(values) -> bool:
    """True when json.dumps writes every value as it is: str, int, bool, None or a finite float."""
    return set(map(type, values)) <= _PLAIN and all(
        math.isfinite(v) for v in values if type(v) is float
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        # one check per list: a list of plain values (a metric-table row, say) is copied whole
        return list(obj) if _plain(obj) else [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def report_bytes(report: dict, drop_meta: bool = False) -> bytes:
    """Canonical JSON encoding; with drop_meta=True the volatile field is removed."""
    payload = {k: v for k, v in report.items() if not (drop_meta and k == "meta")}
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True).encode("utf-8")


def write_report(report: dict, path) -> None:
    Path(path).write_bytes(report_bytes(report) + b"\n")


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
