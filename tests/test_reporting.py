import numpy as np

from gibbscert.reporting import PAIR_CHUNK_ROWS, PAIR_COLUMNS, emit_pair_table, fmt


def reference_pair_table(pairs, path):
    """One row at a time, every cell through fmt()."""
    n = len(pairs["i"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(PAIR_COLUMNS) + "\n")
        for k in range(n):
            cells = []
            for name in PAIR_COLUMNS:
                column = pairs[name]
                if column is None:
                    cells.append("")
                elif name in ("i", "j"):
                    cells.append(str(int(column[k])))
                elif name == "verdict":
                    cells.append(str(column[k]))
                else:
                    cells.append(fmt(float(column[k])))
            fh.write(",".join(cells) + "\n")


def random_pairs(rng, n, with_oracle):
    i, j = np.triu_indices(n)
    m = i.size
    values = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
    values[:4] = [0.0, -0.0, 1e-300, np.inf]
    return {
        "i": i,
        "j": j,
        "delta_ij": np.abs(i - j).astype(float),
        "bound": values,
        "oracle_value": rng.normal(size=m) if with_oracle else None,
        "stderr_or_tol": np.full(m, 1e-10) if with_oracle else None,
        "verdict": (
            rng.choice(["pass", "fail"], size=m) if with_oracle else np.full(m, "unchecked")
        ),
    }


def test_emit_pair_table_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    for n, with_oracle in ((3, False), (7, True), (100, True), (100, False)):
        pairs = random_pairs(rng, n, with_oracle)
        if n == 100:
            assert len(pairs["i"]) > PAIR_CHUNK_ROWS  # crosses a chunk boundary
        emit_pair_table(pairs, tmp_path / "bulk.csv")
        reference_pair_table(pairs, tmp_path / "ref.csv")
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "ref.csv").read_bytes()
        assert bulk.count(b"\n") == 1 + n * (n + 1) // 2
    verdicts = set()
    for with_oracle in (True, False):
        verdicts |= set(random_pairs(rng, 10, with_oracle)["verdict"].tolist())
    assert verdicts == {"pass", "fail", "unchecked"}
