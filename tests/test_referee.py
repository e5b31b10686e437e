"""An exact referee for the Gaussian side of the printed pair tables.

Every entry of a precision matrix is a double, so Fraction reads it exactly,
and Gauss-Jordan elimination in Fraction gives P^-1 with no rounding at all.
On small models (n <= 9) that is the exact covariance, and the exact A^-1,
against which the pairs.csv that `bound_report`, `gaussian_sharpness` and the
passing exponential and algebraic certificates print is checked.  The models
are fixed, so the file is deterministic.
"""

import math
from fractions import Fraction

import pytest

from gibbscert.cli import parse_config, run_experiment
from gibbscert.interaction import interaction_from_model
from gibbscert.oracles.gaussian import gaussian_from_model


def exact_inverse(matrix) -> list:
    """The inverse of a nonsingular matrix of doubles, as rows of Fractions."""
    n = len(matrix)
    rows = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [x / scale for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def nearest_neighbor(sides, eps, q=(1.0,)):
    n = math.prod(sides)
    return {
        "geometry": {"kind": "periodic_grid", "side_lengths": list(sides)},
        "potentials": [{"q": q[k % len(q)]} for k in range(n)],
        "coupling": {"kind": "nearest_neighbor", "epsilon": eps},
    }


def explicit(edges, n, q=(1.0,)):
    J = [[0.0] * n for _ in range(n)]
    for i, j, value in edges:
        J[i][j] = J[j][i] = value
    return {
        "geometry": {"kind": "periodic_grid", "side_lengths": [n]},
        "potentials": [{"q": q[k % len(q)]} for k in range(n)],
        "coupling": {"kind": "explicit", "matrix": J},
    }


HETERO_Q = (1.0, 1.3, 0.9, 1.7, 1.1)
MODELS = {
    **{f"ring-{n}-ferromagnetic": nearest_neighbor([n], 0.15, HETERO_Q) for n in range(3, 10)},
    # a negative coupling on an even ring is bipartite, on an odd ring frustrated
    **{f"ring-{n}-antiferromagnetic": nearest_neighbor([n], -0.15, HETERO_Q) for n in range(3, 10)},
    "torus-2x2-ferromagnetic": nearest_neighbor([2, 2], 0.2),
    "torus-2x2-antiferromagnetic": nearest_neighbor([2, 2], -0.2, HETERO_Q),
    "torus-3x3-ferromagnetic": nearest_neighbor([3, 3], 0.2, HETERO_Q),
    "torus-3x3-frustrated": nearest_neighbor([3, 3], -0.2),
    "explicit-ferromagnetic": explicit([(0, 1, 0.3), (1, 2, 0.1), (2, 3, 0.25), (0, 3, 0.05), (1, 4, 0.2)], 5),
    "explicit-bipartite": explicit([(0, 1, -0.3), (1, 2, -0.1), (2, 3, -0.25), (3, 0, -0.05), (3, 4, -0.2)], 5),
    "explicit-frustrated": explicit(
        [(0, 1, 0.2), (1, 2, -0.15), (0, 2, 0.1), (2, 3, 0.3), (3, 4, -0.1), (4, 5, 0.2), (5, 3, 0.05)], 6, HETERO_Q
    ),
}
FERROMAGNETIC = [name for name in MODELS if name.endswith("-ferromagnetic")]
ALGEBRAIC = {
    f"algebraic-ring-{n}": {
        "geometry": {"kind": "periodic_grid", "side_lengths": [n]},
        "potentials": [{"q": HETERO_Q[k % len(HETERO_Q)]} for k in range(n)],
        "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
    }
    for n in (6, 9)
}


def printed_rows(tmp_path, name, kind):
    """(config, rows) of a run; each row is (i, j, bound, oracle_value, tol, verdict)."""
    cfg = parse_config({"model": {**MODELS, **ALGEBRAIC}[name], "experiment": {"kind": kind}})
    out = tmp_path / f"{name}-{kind}"
    run_experiment(cfg, out)
    if not (out / "pairs.csv").exists():  # a refused certificate prints no pairs
        return cfg, []
    lines = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,j,delta_ij,bound,oracle_value,stderr_or_tol,verdict"
    rows = []
    for line in lines[1:]:
        i, j, _, bound, oracle, tol, verdict = line.split(",")
        rows.append((int(i), int(j), Fraction(float(bound)), Fraction(float(oracle)), Fraction(float(tol)), verdict))
    return cfg, rows


def assert_oracle_is_the_exact_covariance(cfg, rows) -> list:
    """Every printed oracle_value within 1e-12 max|cov| of the exact P^-1, which is returned."""
    exact = exact_inverse(gaussian_from_model(cfg.model))
    scale = max(abs(x) for row in exact for x in row)
    for i, j, _, oracle, _, _ in rows:
        assert abs(oracle - exact[i][j]) <= Fraction(1e-12) * scale, (i, j, float(oracle), float(exact[i][j]))
    return exact


@pytest.mark.parametrize("name", MODELS)
def test_bound_report_oracle_and_verdicts_hold_exactly(tmp_path, name):
    cfg, rows = printed_rows(tmp_path, name, "bound_report")
    exact = assert_oracle_is_the_exact_covariance(cfg, rows)
    passes = [(i, j, bound, tol) for i, j, bound, _, tol, verdict in rows if verdict == "pass"]
    assert passes
    for i, j, bound, tol in passes:
        assert abs(exact[i][j]) <= bound + tol, (name, i, j)


@pytest.mark.parametrize("name", FERROMAGNETIC)
def test_gaussian_sharpness_oracle_is_the_exact_covariance(tmp_path, name):
    cfg, rows = printed_rows(tmp_path, name, "gaussian_sharpness")
    assert_oracle_is_the_exact_covariance(cfg, rows)


@pytest.mark.parametrize(
    "kind, models, passing",
    [("exponential_certificate", MODELS, 15), ("algebraic_certificate", ALGEBRAIC, 2)],
    ids=["exponential", "algebraic"],
)
def test_passing_certificates_bound_the_exact_inverse(tmp_path, kind, models, passing):
    # every printed bound of a passing certificate is at least the exact A^-1
    # entry, and on these Gaussian models every pass holds against the exact covariance
    printed = 0
    for name in models:
        cfg, rows = printed_rows(tmp_path, name, kind)
        if not rows:
            continue
        printed += 1
        inverse = exact_inverse(interaction_from_model(cfg.model).A)
        covariance = assert_oracle_is_the_exact_covariance(cfg, rows)
        for i, j, bound, _, tol, verdict in rows:
            assert bound >= inverse[i][j], (name, i, j, float(bound), float(inverse[i][j]))
            assert verdict != "pass" or abs(covariance[i][j]) <= bound + tol, (name, i, j)
    assert printed >= passing  # the certificates that pass today, so the referee checks no fewer


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="slice 1a: A^-1 is rounded to nearest, so some printed bounds lie below the exact entry",
)
def test_slice_1a_every_printed_bound_is_at_least_the_exact_inverse(tmp_path):
    below = []
    for name in MODELS:
        cfg, rows = printed_rows(tmp_path, name, "bound_report")
        exact = exact_inverse(interaction_from_model(cfg.model).A)
        below += [(name, i, j) for i, j, bound, *_ in rows if bound < exact[i][j]]
    assert not below, f"{len(below)} printed bounds below the exact A^-1, first {below[0]}"
