import numpy as np

from gibbscert.cli import _write_decay_csv
from gibbscert.decay import decay_profile
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import distance_matrix, periodic_grid
from gibbscert.model import GibbsModel, gaussian_potential, nearest_neighbor_coupling
from gibbscert.oracles.potential import PotentialField, potential_to_csv
from gibbscert.reporting import CHUNK_ROWS, PAIR_COLUMNS, emit_pair_table, fmt, write_table

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


def random_pairs(rng, n, with_oracle):
    i, j = np.triu_indices(n)
    m = i.size
    return {
        "i": i,
        "j": j,
        "delta_ij": np.abs(i - j).astype(float),
        "bound": wide_range(rng, m),
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
            assert len(pairs["i"]) > CHUNK_ROWS  # crosses a chunk boundary
        bulk = assert_same_bytes(
            tmp_path,
            lambda path: emit_pair_table(pairs, path),
            PAIR_COLUMNS,
            [pairs[name] for name in PAIR_COLUMNS],
        )
        assert bulk.count(b"\n") == 1 + n * (n + 1) // 2
    verdicts = set()
    for with_oracle in (True, False):
        verdicts |= set(random_pairs(rng, 10, with_oracle)["verdict"].tolist())
    assert verdicts == {"pass", "fail", "unchecked"}


def test_phi_table_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    m = 71
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
    _write_decay_csv(im, model.geometry, tmp_path, euclidean=False)
    with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
        fh.write("distance,max_abs_inverse\n")
        for d, v in decay_profile(im.inverse(), distance_matrix(model.geometry)):
            fh.write(f"{fmt(d)},{fmt(v)}\n")
    assert (tmp_path / "decay.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
