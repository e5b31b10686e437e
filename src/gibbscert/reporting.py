"""Serialization helpers: full-precision CSV tables and deterministic JSON."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

PAIR_COLUMNS = ("i", "j", "delta_ij", "bound", "oracle_value", "stderr_or_tol", "verdict")
PAIR_CHUNK_ROWS = 4096  # rows formatted per write; bounds the text held in memory


def fmt(value) -> str:
    """Full-precision scientific notation for floats; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17e")


def matrix_to_csv(path, matrix) -> None:
    """Row-major CSV dump of a matrix in full precision."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def emit_pair_table(pairs: dict, path) -> None:
    """CSV of per-pair results; one row per unordered pair including diagonal.

    ``pairs`` maps every name in PAIR_COLUMNS to a column of equal length:
    integer ``i`` and ``j``, text ``verdict`` and float values otherwise; a
    float column given as None leaves its cells empty.  Rows are formatted a
    chunk at a time with one %-template, which writes the same text as fmt().
    """
    spec = {"i": "%d", "j": "%d", "verdict": "%s"}
    present = [name for name in PAIR_COLUMNS if pairs[name] is not None]
    row = ",".join(spec.get(name, "%.17e") if name in present else "" for name in PAIR_COLUMNS) + "\n"
    n = len(pairs["i"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(PAIR_COLUMNS) + "\n")
        for start in range(0, n, PAIR_CHUNK_ROWS):
            stop = min(start + PAIR_CHUNK_ROWS, n)
            columns = [np.asarray(pairs[name][start:stop]).tolist() for name in present]
            values = tuple(itertools.chain.from_iterable(zip(*columns)))
            fh.write(row * (stop - start) % values)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
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
