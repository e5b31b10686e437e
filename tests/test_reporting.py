import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbscert.cli as cli
from gibbscert import reporting
from gibbscert.bounds import coordinate
from gibbscert.cli import _write_decay_csv, parse_config, run_experiment
from gibbscert.decay import decay_profile
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import distance_matrix, periodic_grid
from gibbscert.model import GibbsModel, cosine_potential, gaussian_potential, nearest_neighbor_coupling
from gibbscert.oracles.potential import GridSpec, PotentialField, PotentialSolver, potential_to_csv
from gibbscert.reporting import (
    CHUNK_ROWS,
    FLOAT_SLOT,
    PAIR_COLUMNS,
    _float_slots,
    _proven_slots,
    emit_pair_table,
    fmt,
    report_bytes,
    write_table,
)

SPECIAL = [0.0, -0.0, 1e-300, np.inf, np.nan]


def reference_table(header, columns, path):
    """One row at a time, every number through fmt()."""
    n = len(next(c for c in columns if c is not None))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(n):
            cells = []
            for column in columns:
                if column is None:
                    cells.append("")
                elif isinstance(column[k], str):
                    cells.append(str(column[k]))
                else:
                    cells.append(fmt(column[k]))
            fh.write(",".join(cells) + "\n")


def assert_same_bytes(tmp_path, write, header, columns):
    write(tmp_path / "bulk.csv")
    reference_table(header, columns, tmp_path / "ref.csv")
    bulk = (tmp_path / "bulk.csv").read_bytes()
    assert bulk == (tmp_path / "ref.csv").read_bytes()
    return bulk


def wide_range(rng, m):
    """Values from 1e-300 to 1e300 in magnitude, both signs, led by the special ones."""
    values = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
    values[: len(SPECIAL)] = SPECIAL
    return values


def pair_rows(pairs: dict) -> list:
    """The columns of pairs.csv, built row by row from the run's n x n matrices."""
    n = len(pairs["bound"])
    rows = [(i, j) for i in range(n) for j in range(i, n)]
    columns = [[i for i, _ in rows], [j for _, j in rows]]
    for name in PAIR_COLUMNS[2:6]:
        value = pairs.get(name)
        if value is None:
            columns.append(None)
        elif np.ndim(value) == 0:
            columns.append([value] * len(rows))
        else:
            columns.append([value[i, j] for i, j in rows])
    ok = pairs.get("ok")
    columns.append(["unchecked" if ok is None else "pass" if ok[i, j] else "fail" for i, j in rows])
    return columns


def random_pairs(rng, n, tolerance):
    """Matrices of a pair table; no oracle and no check when tolerance is None."""
    i, j = np.indices((n, n))
    pairs = {"delta_ij": np.abs(i - j).astype(float), "bound": wide_range(rng, n * n).reshape(n, n)}
    if tolerance is not None:
        pairs.update(oracle_value=rng.normal(size=(n, n)), stderr_or_tol=tolerance, ok=rng.random((n, n)) < 0.5)
    return pairs


def test_emit_pair_table_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    big = math.isqrt(2 * CHUNK_ROWS) + 1  # the smallest n whose n (n + 1) / 2 rows cross a chunk boundary
    assert big * (big + 1) // 2 > CHUNK_ROWS
    verdicts = set()
    for n, tol in ((3, None), (7, 1e-10), (7, "matrix"), (big, 1e-10), (big, "matrix"), (big, None)):
        pairs = random_pairs(rng, n, np.abs(rng.normal(size=(n, n))) if tol == "matrix" else tol)
        columns = pair_rows(pairs)
        bulk = assert_same_bytes(tmp_path, lambda path: emit_pair_table(pairs, path), PAIR_COLUMNS, columns)
        assert bulk.count(b"\n") == 1 + n * (n + 1) // 2
        verdicts |= set(columns[-1])
    assert verdicts == {"pass", "fail", "unchecked"}


def test_emit_pair_table_encodes_a_matrix_given_twice_once_per_chunk(tmp_path):
    # gaussian_sharpness and a J >= 0 Gaussian bound_report give A^-1 as both bound and oracle_value
    rng = np.random.default_rng(11)
    n = math.isqrt(2 * CHUNK_ROWS) + 1  # two chunks
    pairs = random_pairs(rng, n, 1e-10)
    pairs["oracle_value"] = shared = pairs["bound"]
    i, j = np.triu_indices(n)
    chunks = [(i[s : s + CHUNK_ROWS], j[s : s + CHUNK_ROWS]) for s in range(0, len(i), CHUNK_ROWS)]
    assert len(chunks) == 2
    encoded = []
    with mock.patch.object(reporting, "_slots", side_effect=reporting._slots) as slots:
        assert_same_bytes(tmp_path, lambda path: emit_pair_table(pairs, path), PAIR_COLUMNS, pair_rows(pairs))
    for rows in chunks:
        gathered = shared[rows]
        encoded.append(sum(np.array_equal(c.args[0], gathered, equal_nan=True) for c in slots.call_args_list))
    assert encoded == [1, 1]


def test_failures_counts_the_failing_rows_of_pairs_csv():
    # a check need not be symmetric: only its cells i <= j are rows of pairs.csv
    rng = np.random.default_rng(13)
    for n in (3, 7, 40):
        pairs = random_pairs(rng, n, 1e-10)
        pairs["ok"][1, 0] = not pairs["ok"][0, 1]
        assert cli._failures(pairs) == pair_rows(pairs)[-1].count("fail")
    assert cli._failures(None) == cli._failures(random_pairs(rng, 3, None)) == 0


def test_phi_table_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    m = math.isqrt(CHUNK_ROWS) + 1
    assert m * m > CHUNK_ROWS  # crosses a chunk boundary
    nodes = np.linspace(-3.0, 3.0, m)
    nodes[:3] = [-0.0, 0.0, 1e-300]
    pf = PotentialField(
        model=None,
        nodes=nodes,
        h=float(nodes[-1] - nodes[-2]),
        dim=2,
        mu=np.abs(wide_range(rng, m * m)).reshape(m, m),
        phi=wide_range(rng, m * m).reshape(m, m),
        f_values=np.zeros((m, m)),
    )
    x0, x1 = np.meshgrid(nodes, nodes, indexing="ij")
    bulk = assert_same_bytes(
        tmp_path,
        lambda path: potential_to_csv(pf, path),
        ["x0", "x1", "mu", "phi"],
        [x0.ravel(), x1.ravel(), pf.mu.ravel(), pf.phi.ravel()],
    )
    assert bulk.count(b"\n") == 1 + m * m
    assert b",nan\n" in bulk and b",inf\n" in bulk


@pytest.mark.parametrize("sites, m", [(2, 120), (2, 121), (1, 121)])
def test_phi_table_matches_generic_writer(tmp_path, sites, m):
    # potential_to_csv gathers the coordinate cells from nodes formatted once;
    # write_table formats the coordinate columns chunk by chunk
    model = GibbsModel(periodic_grid([sites]), cosine_potential(1.0, 0.1, 1.0), nearest_neighbor_coupling(0.2))
    pf = PotentialSolver(model, GridSpec(6.0, 12.0 / (m - 1))).solve_many([coordinate(0, sites)])[0]
    assert pf.phi.shape == (m,) * sites
    potential_to_csv(pf, tmp_path / "phi.csv")
    header = [f"x{i}" for i in range(sites)] + ["mu", "phi"]
    coords = [pf.coordinate(i).ravel() for i in range(sites)]
    write_table(header, coords + [pf.mu.ravel(), pf.phi.ravel()], tmp_path / "generic.csv")
    assert (tmp_path / "phi.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


def test_decay_table_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(7)
    header = ("distance", "max_abs_inverse")
    for rows in (len(SPECIAL), CHUNK_ROWS + 3):
        columns = [np.arange(rows) * 0.5, wide_range(rng, rows)]
        assert_same_bytes(tmp_path, lambda path: write_table(header, columns, path), header, columns)
    empty = np.array([], dtype=float).reshape(-1, 2).T  # a one-site profile
    write_table(header, empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "distance,max_abs_inverse\n"

    # the CLI's decay.csv against the per-row fmt() loop over decay_profile
    model = GibbsModel(periodic_grid([9]), gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    im = interaction_from_model(model)
    profile = decay_profile(im.inverse(), distance_matrix(model.geometry))
    _write_decay_csv(profile, tmp_path)
    with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
        fh.write("distance,max_abs_inverse\n")
        for d, v in profile:
            fh.write(f"{fmt(d)},{fmt(v)}\n")
    assert (tmp_path / "decay.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def nan_with_payload(payload: int, negative: bool = False) -> float:
    bits = np.uint64(0x7FF8000000000000 | payload | (1 << 63 if negative else 0))
    return float(np.array([bits]).view(np.float64)[0])


def test_repeated_values_match_per_row_writer(tmp_path):
    """Each distinct bit pattern is formatted once per chunk; the text must not change."""
    rows = CHUNK_ROWS + 6
    rng = np.random.default_rng(11)
    signed_zero = np.where(np.arange(rows) % 2 == 0, 0.0, -0.0)  # interleaved in every chunk
    nans = [nan_with_payload(1), nan_with_payload(2), nan_with_payload(3, negative=True)]
    specials = np.array(nans + [np.inf, -np.inf, 1.0])[rng.integers(0, 6, size=rows)]
    across = rng.choice([0.25, 1.0 / 3.0], size=rows)
    across[CHUNK_ROWS - 1 : CHUNK_ROWS + 1] = np.pi  # one value on both sides of the boundary
    constant = np.full(rows, -1e-300)
    small = rng.choice(np.array([0.1, -0.0, 2.5e-8, 0.0], dtype=np.float32), size=rows)
    flags = rng.integers(0, 2, size=rows).astype(bool)
    header = ("zero", "special", "across", "constant", "float32", "flag")
    columns = [signed_zero, specials, across, constant, small, flags]
    assert len({v.tobytes() for v in specials}) == 6  # three of the six patterns are NaNs
    bulk = assert_same_bytes(tmp_path, lambda path: write_table(header, columns, path), header, columns)
    lines = bulk.decode().splitlines()
    assert lines[1].startswith("0.00000000000000000e+00,") and lines[2].startswith("-0.0")
    assert lines[CHUNK_ROWS].split(",")[2] == lines[CHUNK_ROWS + 1].split(",")[2] == fmt(np.pi)
    assert {line.split(",")[5] for line in lines[1:]} == {"0", "1"}
    assert fmt(np.float32(0.1)) == "1.00000001490116119e-01"



def dictionary_columns(rows: int) -> dict:
    """Columns that take each way of finding a chunk's keys, with the cases at their edges."""
    rng = np.random.default_rng(17)
    u64_max = np.iinfo(np.uint64).max
    exponents = rng.integers(-300, 300, size=rows)
    return {
        "constant-float": np.full(rows, np.pi),  # one slot, broadcast
        "constant-minus-zero": np.full(rows, -0.0),
        "constant-nan": np.full(rows, nan_with_payload(7)),
        "ints-below-2-16": rng.integers(65000, 65536, size=rows),  # indexed by value, up to 65535
        "ints-at-2-16": rng.integers(65535, 65537, size=rows),  # 65536 takes np.unique
        "small-uint64": rng.integers(0, 100, size=rows, dtype=np.uint64),
        "negative-ints": rng.integers(-50, 50, size=rows),
        "uint64-max": rng.choice(np.array([0, 7, u64_max], dtype=np.uint64), size=rows),
        "mixed-sign": rng.normal(size=rows),
        "three-digit-exponents": rng.normal(size=rows) * 10.0 ** np.where(exponents % 2, exponents, 200),
    }


@pytest.mark.parametrize("name", list(dictionary_columns(1)))
def test_dictionary_paths_match_per_row_writer(name, tmp_path):
    # each column in the first, a middle and the last position, over a full
    # chunk and a chunk of 5 rows
    column = dictionary_columns(CHUNK_ROWS + 5)[name]
    other = np.linspace(0.0, 1.0, len(column))
    header, columns = ("a", "b", "c"), [column, other, column]
    assert_same_bytes(tmp_path, lambda path: write_table(header, columns, path), header, columns)
    if name.startswith("constant"):
        table, index = reporting._slots(column[:CHUNK_ROWS])
        assert len(table) == 1 and index is None


def test_empty_last_column_matches_per_row_writer(tmp_path):
    rows = CHUNK_ROWS + 5
    header = ("value", "empty")
    columns = [wide_range(np.random.default_rng(19), rows), None]
    bulk = assert_same_bytes(tmp_path, lambda path: write_table(header, columns, path), header, columns)
    assert bulk.splitlines()[1] == b"0.00000000000000000e+00,"

def test_probe_rows_repeat_on_every_short_period():
    # a column with period T < 1122, such as x1 of phi.csv (T = m), shows a
    # repeated key on the probe rows and keeps the np.unique path
    rows = reporting.PROBE_ROWS
    assert len(set(rows.tolist())) == len(rows) and rows.max() < CHUNK_ROWS
    assert all(len(set((rows % period).tolist())) < len(rows) for period in range(2, 1122))


def slot_texts(values) -> list:
    """Texts of the numpy slot path, which small inputs would otherwise skip."""
    with mock.patch.object(reporting, "PERCENT_KEYS", 0):
        slots = _float_slots(np.asarray(values, dtype=float))
    assert slots.shape == (len(values), FLOAT_SLOT)
    return [row.tobytes().replace(b"\0", b"").decode() for row in slots]


def from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_slot_matches_percent_for_any_bit_pattern(bits):
    values = from_bits(bits)
    assert slot_texts(values) == ["%.17e" % v for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_float_slot_matches_percent_for_any_float(values):
    assert slot_texts(values) == ["%.17e" % v for v in values]


def powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])


def test_float_slot_fixed_cases():
    tie = (2**53 - 1) / 16  # 562949953421311.9375: 18 digits end on an exact half
    carry = 1e153  # below 10^153, yet its 18 digits round up to 1.00000000000000000e+153
    assert Fraction(carry) < 10**153 and "%.17e" % carry == "1.00000000000000000e+153"
    nans = [nan_with_payload(1), nan_with_payload(0x7FFFF, negative=True), -np.nan]
    fixed = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max]
    fixed += [9.999999999999999e22, carry, -carry, tie, -tie, np.inf, -np.inf] + nans
    values = np.concatenate([fixed, powers_of_ten_and_neighbours()])
    values = np.concatenate([values, -values])
    assert slot_texts(values) == ["%.17e" % v for v in values.tolist()]
    assert slot_texts([5e-324, np.finfo(float).max, tie]) == [
        "4.94065645841246544e-324",
        "1.79769313486231571e+308",
        "5.62949953421311938e+14",
    ]


def test_float_slot_defers_ties_and_non_finite_values():
    """Python's % writes exactly the cells whose rounding the numpy path cannot prove."""
    ties = [(2**53 - 1) / 16, -(2**53 - 3) / 16, (2**53 - 1) / 8, (16 * 10**14 + 1) / 16]
    for t in ties:  # 19 significant digits, the last a 5
        assert Fraction(abs(t)) * 10 ** (17 - math.floor(math.log10(abs(t)))) % 1 == Fraction(1, 2)
    special = [np.inf, -np.inf, np.nan, nan_with_payload(5, negative=True)]
    regular = [0.0, -0.0, 1.5, 1e153, 5e-324, 0.1, np.finfo(float).max]
    slots, proven = _proven_slots(np.array(ties + special + regular))
    assert not proven[: len(ties) + len(special)].any()
    assert proven[len(ties) + len(special) :].all()
    text = [row.tobytes().replace(b"\0", b"").decode() for row in slots[-len(regular) :]]
    assert text == ["%.17e" % v for v in regular]


def test_few_floats_are_formatted_by_percent_alone(monkeypatch):
    def numpy_path(values):
        raise AssertionError("the numpy slot path ran on a small input")

    monkeypatch.setattr(reporting, "_proven_slots", numpy_path)
    values = np.array(SPECIAL + [-np.inf, np.pi, -1e153, 5e-324, (2**53 - 1) / 16])
    assert len(values) < reporting.PERCENT_KEYS
    slots = _float_slots(values)
    assert slots.shape == (len(values), FLOAT_SLOT)
    text = [row.tobytes().replace(b"\0", b"").decode() for row in slots]
    assert text == ["%.17e" % v for v in values.tolist()]


def mixed_table(rows):
    """Every special float, and past the first rows the longest cell of each kind."""
    rng = np.random.default_rng(13)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    ints = rng.integers(i64.min, -(10**18), size=rows)  # 20 characters
    ints[:2] = [i64.min, i64.max]
    unsigned = rng.integers(10**19, u64.max, size=rows, dtype=np.uint64, endpoint=True)
    unsigned[0] = u64.max
    exponents = rng.choice([-1, 1], size=rows) * rng.integers(120, 300, size=rows)
    values = -np.abs(rng.normal(size=rows)) * 10.0**exponents  # '-d.ddd...e+ddd', FLOAT_SLOT bytes
    values[: len(SPECIAL) + 4] = SPECIAL + [-np.inf, 5e-324, -5e-324, (2**53 - 1) / 16]
    header = ("i", "u", "value", "empty", "flag")
    return header, [ints, unsigned, values, None, rng.integers(0, 2, size=rows).astype(bool)]


@pytest.mark.parametrize(
    "rows",
    [CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS, 3 * CHUNK_ROWS + 17],
    ids=["one-chunk", "one-chunk-and-a-row", "three-chunks", "three-chunks-and-17-rows"],
)
def test_mixed_table_matches_per_row_writer(rows, tmp_path):
    # a full last chunk, a last chunk of one row, and a partial last chunk
    header, columns = mixed_table(rows)
    bulk = assert_same_bytes(tmp_path, lambda path: write_table(header, columns, path), header, columns)
    lines = bulk.decode().splitlines()
    assert len(lines) == 1 + rows
    assert lines[1].startswith("-9223372036854775808,18446744073709551615,0.0")
    assert lines[2].startswith("9223372036854775807,")
    assert {len(line.split(",")[2]) for line in lines[20:]} == {FLOAT_SLOT}


class TableFailure(Exception):
    pass


def test_table_error_reaches_the_caller(tmp_path, monkeypatch):
    header, columns = mixed_table(3 * CHUNK_ROWS + 17)
    columns[2][0] = 7.25
    real_slots = reporting._slots

    def failing_slots(column):
        if column.dtype.kind == "f" and np.any(column == 7.25):
            raise TableFailure("chunk failed")
        return real_slots(column)

    monkeypatch.setattr(reporting, "_slots", failing_slots)
    with pytest.raises(TableFailure):
        write_table(header, columns, tmp_path / "t.csv")


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (("a", "b"), [np.arange(3), np.ones(4)], r"unequal lengths \[3, 4\]"),
        (("a",), [np.ones(2), np.ones(2)], "1 header names for 2 columns"),
        (("a", "b"), [None, None], "every column is None"),
    ],
    ids=["ragged", "header-count", "all-none"],
)
def test_write_table_rejects_mismatched_input(header, columns, message, tmp_path):
    # rejected before the file is opened
    with pytest.raises(ValueError, match=message):
        write_table(header, columns, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def capture_pairs(monkeypatch):
    """Record the matrices of every pair table that the CLI writes."""
    captured = []
    emit = cli.emit_pair_table

    def recorded(pairs, path):
        captured.append(pairs)
        emit(pairs, path)

    monkeypatch.setattr(cli, "emit_pair_table", recorded)
    return captured


def torus_config(kind):
    return {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [6, 6]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "nearest_neighbor", "epsilon": 0.05},
        },
        "experiment": {"kind": kind},
    }


def test_cli_tables_match_per_row_writer(tmp_path, monkeypatch):
    """pairs.csv of real runs against the per-row writer, and one run's decay.csv.

    The torus runs' A^-1 repeats by translation invariance; bound_report on a
    cosine model has no oracle and no check, algebraic_certificate shares one
    tolerance, and mcmc_check has a tolerance per pair and a failing pair.
    """
    mcmc = RUNNER_CONFIGS["mcmc_check"]
    configs = {kind: torus_config(kind) for kind in ("gaussian_sharpness", "exponential_certificate")}
    configs.update((kind, RUNNER_CONFIGS[kind]) for kind in ("bound_report", "algebraic_certificate"))
    configs["mcmc_check"] = {**mcmc, "sampler": {**mcmc["sampler"], "seed": 8}}  # 1 of 10 pairs fails, 1 allowed
    for kind, raw in configs.items():
        captured = capture_pairs(monkeypatch)
        cfg = parse_config(raw)
        out = tmp_path / kind
        _, passed = run_experiment(cfg, out)
        assert passed and len(captured) == 1
        pairs, n = captured[0], cfg.model.n_sites
        columns = pair_rows(pairs)
        reference_table(PAIR_COLUMNS, columns, tmp_path / "ref.csv")
        table = (out / "pairs.csv").read_bytes()
        assert table == (tmp_path / "ref.csv").read_bytes()
        assert table.count(b"\n") == 1 + n * (n + 1) // 2
        tol, verdicts = pairs.get("stderr_or_tol"), set(columns[-1])
        if kind == "bound_report":
            assert tol is None and b",,unchecked\n" in table and verdicts == {"unchecked"}
        elif kind == "mcmc_check":
            assert np.ndim(tol) == 2 and verdicts == {"pass", "fail"}
        else:
            assert np.ndim(tol) == 0 and verdicts == {"pass"}
        if n == 36:
            assert len(np.unique(columns[3])) < len(columns[3]) // 4  # the table repeats
        if kind == "exponential_certificate":
            im = interaction_from_model(cfg.model)
            profile = decay_profile(im.inverse(), distance_matrix(cfg.model.geometry))
            with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
                fh.write("distance,max_abs_inverse\n")
                for d, v in profile:
                    fh.write(f"{fmt(d)},{fmt(v)}\n")
            assert (out / "decay.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def recursive_jsonable(obj):
    """The per-element conversion that report_bytes used before lists were checked whole."""
    if isinstance(obj, dict):
        return {str(k): recursive_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [recursive_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [recursive_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def test_report_bytes_match_recursive_conversion(tmp_path):
    n = 6
    ring = np.array([[min(abs(a - b), n - abs(a - b)) for b in range(n)] for a in range(n)], float)
    raw = {
        "model": {
            "geometry": {"kind": "explicit", "metric_table": [ring[0].tolist()] + list(ring[1:])},
            "potential": {"q": np.float64(1.5)},
            "coupling": {"kind": "nearest_neighbor", "epsilon": np.float32(0.125)},
        },
        "experiment": {"kind": "gaussian_sharpness"},
    }
    report, passed = run_experiment(parse_config(raw), tmp_path / "out")
    assert passed and report["results"]["tolerance"] == 1e-10
    report["results"]["extra"] = [
        [1.0, 2, "a", None, True, float("inf")],
        [0.5, float("nan")],
        (np.int64(3), np.bool_(False), np.float64(-np.inf)),
        np.arange(4.0).reshape(2, 2),
        [],
    ]
    for drop_meta in (False, True):
        expected = {k: v for k, v in report.items() if not (drop_meta and k == "meta")}
        want = json.dumps(recursive_jsonable(expected), indent=2, sort_keys=True).encode("utf-8")
        assert report_bytes(report, drop_meta=drop_meta) == want
    text = report_bytes(report).decode()
    assert '"inf"' in text and '"nan"' in text and '"-inf"' in text


RUNNER_CONFIGS = {
    "bound_report": {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [6]},
            "potential": {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0}},
            "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
        },
        "experiment": {"kind": "bound_report"},
    },
    "gaussian_sharpness": torus_config("gaussian_sharpness"),
    "pde_check": {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [2]},
            "potential": {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0}},
            "coupling": {"kind": "nearest_neighbor", "epsilon": 0.2},
        },
        "experiment": {
            "kind": "pde_check",
            "functions": [{"kind": "coordinate", "site": 0}, {"kind": "sin", "site": 1}],
            "core_identity": True,
        },
        "grid": {"L": 6.0, "h": 0.2},
    },
    "mcmc_check": {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [4]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "nearest_neighbor", "epsilon": 0.2},
        },
        "experiment": {"kind": "mcmc_check"},
        "sampler": {"chains": 4, "steps": 2000, "burn_in": 200, "proposal_std": 1.5, "seed": 5},
    },
    "exponential_certificate": torus_config("exponential_certificate"),
    "algebraic_certificate": {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [16]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
        },
        "experiment": {"kind": "algebraic_certificate"},
    },
    "threshold_scan": {**torus_config("threshold_scan"), "experiment": {"kind": "threshold_scan", "epsilons": [0.02, 0.1]}},
}


def test_report_bytes_match_json_dumps_for_every_runner(tmp_path):
    assert set(RUNNER_CONFIGS) == set(cli.EXPERIMENT_KINDS)
    for kind, raw in RUNNER_CONFIGS.items():
        report, _ = run_experiment(parse_config(raw), tmp_path / kind)
        for drop_meta in (False, True):
            expected = {k: v for k, v in report.items() if not (drop_meta and k == "meta")}
            want = json.dumps(recursive_jsonable(expected), indent=2, sort_keys=True).encode("utf-8")
            assert report_bytes(report, drop_meta=drop_meta) == want, kind
        assert (tmp_path / kind / "report.json").read_bytes() == report_bytes(report) + b"\n"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.floats()).map(np.array)
    | st.dictionaries(st.text() | st.integers(), inner),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(), NESTED))
def test_report_bytes_match_json_dumps_on_nested_values(report):
    want = json.dumps(recursive_jsonable(report), indent=2, sort_keys=True).encode("utf-8")
    assert report_bytes(report) == want
