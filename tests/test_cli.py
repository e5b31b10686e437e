import copy
import dataclasses
import hashlib
import json
import math
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert import cli
from gibbscert._blas import single_threaded
from gibbscert.cli import ConfigError, load_config, main, parse_config, run_experiment
from gibbscert.decay import DecayCertificate, algebraic_certificate, exponential_certificate
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import distance_matrix
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.reporting import emit_pair_table, report_bytes

ROOT = Path(__file__).resolve().parent.parent


def base_model_block(n=8, eps=0.2):
    return {
        "geometry": {"kind": "periodic_grid", "side_lengths": [n]},
        "potential": {"q": 1.0},
        "coupling": {"kind": "nearest_neighbor", "epsilon": eps},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_key_rejected():
    cfg = {
        "model": base_model_block(),
        "experiment": {"kind": "bound_report"},
        "extra_block": {},
    }
    with pytest.raises(ConfigError, match="unknown key 'extra_block'"):
        parse_config(cfg)


def test_unknown_nested_key_names_path():
    cfg = {"model": base_model_block(), "experiment": {"kind": "bound_report"}}
    cfg["model"]["coupling"]["epsilonn"] = 0.1
    with pytest.raises(ConfigError, match="model.coupling"):
        parse_config(cfg)


def test_stray_perturbation_parameters_rejected():
    cfg = {"model": base_model_block(), "experiment": {"kind": "bound_report"}}
    cfg["model"]["potential"]["perturbation"] = {"kind": "none", "amplitude": 0.1}
    with pytest.raises(ConfigError, match=r"model\.potential\.perturbation: unknown key 'amplitude'"):
        parse_config(cfg)
    block = cfg["model"].pop("potential")
    block["perturbation"] = {"kind": "none", "frequency": 2.0}
    cfg["model"]["potentials"] = [{"q": 1.0}] * 7 + [block]
    with pytest.raises(ConfigError, match=r"model\.potentials\[7\]\.perturbation: unknown key 'frequency'"):
        parse_config(cfg)
    block["perturbation"] = {"kind": "none"}
    assert parse_config(cfg).model.gaussian


def test_missing_sampler_block_named():
    cfg = {"model": base_model_block(), "experiment": {"kind": "mcmc_check"}}
    with pytest.raises(ConfigError, match="sampler"):
        parse_config(cfg)


@pytest.mark.parametrize(
    "key, value",
    [
        ("burn_in", -20000),
        ("proposal_std", math.nan),
        ("proposal_std", math.inf),
        ("chains", 8.9),
        ("steps", 20000.0),
        ("burn_in", "2000"),
        ("seed", True),
        ("seed", 1.5),
    ],
    ids=[
        "negative-burn-in",
        "nan-proposal-std",
        "inf-proposal-std",
        "fractional-chains",
        "float-steps",
        "text-burn-in",
        "bool-seed",
        "fractional-seed",
    ],
)
def test_invalid_sampler_values_rejected(key, value):
    # a negative burn_in divided the moments by more rows than were kept,
    # halving every variance; an infinite proposal_std failed inside math.cos;
    # int() ran 8 chains for 8.9 and seed 1 for true
    sampler = {"chains": 8, "steps": 20000, "burn_in": 2000, "proposal_std": 1.5, "seed": 1}
    sampler[key] = value
    cfg = {"model": base_model_block(2, 0.0), "experiment": {"kind": "mcmc_check"}, "sampler": sampler}
    with pytest.raises(ConfigError, match=rf"sampler\.{key}: must be "):
        parse_config(cfg)


def test_missing_grid_block_named():
    cfg = {"model": base_model_block(2), "experiment": {"kind": "pde_check"}}
    with pytest.raises(ConfigError, match="grid"):
        parse_config(cfg)


def test_json_syntax_error_is_line_anchored(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": {\n')
    with pytest.raises(ConfigError, match=r"broken\.json:3:1"):
        load_config(path)


def test_cli_exit_codes(tmp_path, capsys):
    cfg = {
        "model": base_model_block(),
        "experiment": {"kind": "gaussian_sharpness"},
        "output": {"path": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path)]) == 0

    bad = write_config(tmp_path, {"model": base_model_block()}, "bad.json")
    assert main(["--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "missing.json")]) == 2  # was a traceback and exit 1
    assert "config error: [Errno 2]" in capsys.readouterr().err


def edited(raw, edits):
    """A deep copy of ``raw`` with each path (``a.b[2].c``) set to its value; ``...`` deletes the key."""
    raw = copy.deepcopy(raw)
    for path, value in edits.items():
        keys = [int(k[1:-1]) if k.startswith("[") else k for k in path.replace("[", ".[").split(".")]
        block = raw
        for key in keys[:-1]:
            block = block[key]
        if value is ...:
            del block[keys[-1]]
        else:
            block[keys[-1]] = value
    return raw


SAMPLER = {"chains": 8, "steps": 2000, "burn_in": 200, "proposal_std": 1.5, "seed": 1}
GRID = {"L": 6.0, "h": 0.5}
RAGGED = [[0, 1], [1]]
BOOLS = [[0, True], [True, 0]]  # numpy reads it as the int64 table [[0, 1], [1, 0]]

# Configs that parsed and then ended in a traceback, ran to a "failed" verdict
# on a bad input, passed on a bad input, or were refused only after sampling
# had started. Each must exit 2 before any work, naming the offending key.
PROBES = {
    "text-q": ({"model.potential.q": "x"}, "model.potential.q"),
    "bool-q": ({"model.potential.q": True}, "model.potential.q"),
    "nan-q": ({"model.potential.q": math.nan}, "model.potential.q"),
    "inf-q": ({"model.potential.q": math.inf}, "model.potential.q"),
    "negative-q": ({"model.potential.q": -1}, "model.potential.q"),
    "nan-amplitude": (
        {"model.potential.perturbation": {"kind": "cosine", "amplitude": math.nan, "frequency": 1.0}},
        "model.potential.perturbation.amplitude",
    ),
    "inf-amplitude": (
        {"model.potential.perturbation": {"kind": "cosine", "amplitude": math.inf, "frequency": 1.0}},
        "model.potential.perturbation.amplitude",
    ),
    "number-potentials": ({"model.potential": ..., "model.potentials": 5}, "model.potentials"),
    "ragged-metric-table": ({"model.geometry": {"kind": "explicit", "metric_table": RAGGED}}, "model.geometry.metric_table"),
    "text-sides": ({"model.geometry.side_lengths": "4"}, "model.geometry.side_lengths"),
    "fractional-side": ({"model.geometry.side_lengths": [4.5]}, "model.geometry.side_lengths[0]"),
    "bool-side": ({"model.geometry.side_lengths": [True]}, "model.geometry.side_lengths[0]"),
    "zero-side": ({"model.geometry.side_lengths": [0]}, "model.geometry.side_lengths[0]"),
    "ragged-matrix": ({"model.coupling": {"kind": "explicit", "matrix": RAGGED}}, "model.coupling.matrix"),
    "bool-in-metric-table": ({"model.geometry": {"kind": "explicit", "metric_table": BOOLS}}, "model.geometry.metric_table"),
    "bool-in-matrix": ({"model.coupling": {"kind": "explicit", "matrix": BOOLS}}, "model.coupling.matrix"),
    "bool-in-float-matrix": (
        {"model.coupling": {"kind": "explicit", "matrix": [[0.0] * 7 + [False]] + [[0.0] * 8] * 7}},
        "model.coupling.matrix",
    ),
    "text-d": ({"model.coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": "x"}}, "model.coupling.d"),
    "fractional-d": ({"model.coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1.7}}, "model.coupling.d"),
    "negative-alpha": ({"model.coupling": {"kind": "algebraic", "c": 0.1, "alpha": -1, "d": 1}}, "model.coupling.alpha"),
    "text-epsilon": ({"model.coupling.epsilon": "0.1"}, "model.coupling.epsilon"),
    "nan-epsilon": ({"model.coupling.epsilon": math.nan}, "model.coupling.epsilon"),
    "inf-epsilon": ({"model.coupling.epsilon": math.inf}, "model.coupling.epsilon"),
    "text-proposal-std": (
        {"experiment.kind": "mcmc_check", "sampler": {**SAMPLER, "proposal_std": "1.5"}},
        "sampler.proposal_std",
    ),
    "one-kept-sweep": (  # 8 sites: 3 sweeps, 2 of them burn-in
        {"experiment.kind": "mcmc_check", "sampler": {**SAMPLER, "steps": 24, "burn_in": 9}},
        "sampler.steps",
    ),
    "text-grid-L": (
        {"model.geometry.side_lengths": [2], "experiment.kind": "pde_check", "grid": {"L": "6", "h": 0.5}},
        "grid.L",
    ),
    "empty-epsilons": (
        {"model.geometry.side_lengths": [4, 4], "experiment": {"kind": "threshold_scan", "epsilons": []}},
        "experiment.epsilons",
    ),
    "text-epsilons": (
        {"model.geometry.side_lengths": [4, 4], "experiment": {"kind": "threshold_scan", "epsilons": "123"}},
        "experiment.epsilons",
    ),
    "text-core-identity": (
        {"model.geometry.side_lengths": [2], "experiment": {"kind": "pde_check", "core_identity": "no"}, "grid": GRID},
        "experiment.core_identity",
    ),
    "number-output-path": ({"output": {"path": 3}}, "output.path"),
    "output-format": ({"output": {"format": "csv"}}, "output"),  # every output is CSV, so the key is gone
    # the verdict rules are fixed in code: a config that names one is refused as an unknown key
    "unknown-compare": (
        {"experiment": {"kind": "mcmc_check", "compare": "exakt"}, "sampler": SAMPLER},
        "experiment",
    ),
    "exact-compare-on-cosine": (
        {
            "model.potential.perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0},
            "experiment": {"kind": "mcmc_check", "compare": "exact"},
            "sampler": SAMPLER,
        },
        "experiment",
    ),
    "pde-check-on-3-sites": (
        {"model.geometry.side_lengths": [3], "experiment.kind": "pde_check", "grid": GRID},
        "model.geometry",
    ),
    "pde-check-box-too-small": (
        {"model.geometry.side_lengths": [2], "experiment.kind": "pde_check", "grid": {"L": 2.0, "h": 0.1}},
        "grid.L",
    ),
    "pde-check-perturbation-too-strong": (  # the Gaussian envelopes alone fit the box
        {
            "model.geometry.side_lengths": [2],
            "model.potential.perturbation": {"kind": "cosine", "amplitude": -1, "frequency": 1.0},
            "experiment.kind": "pde_check",
            "grid": GRID,
        },
        "model.potential.perturbation.amplitude",
    ),
    "pde-check-one-perturbation-too-strong": (
        {
            "model.geometry.side_lengths": [2],
            "model.potential": ...,
            "model.potentials": [
                {"q": 1.0},
                {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 1.0, "frequency": 1.0}},
            ],
            "experiment.kind": "pde_check",
            "grid": GRID,
        },
        "model.potentials[1].perturbation.amplitude",
    ),
    "pde-check-tail-factor-overflows": (  # exp(2 (354 + 1)) is past the largest double; each rho is still normal
        {
            "model.geometry.side_lengths": [2],
            "model.potential": ...,
            "model.potentials": [
                {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 354, "frequency": 1.0}},
                {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 1, "frequency": 1.0}},
            ],
            "experiment.kind": "pde_check",
            "grid": GRID,
        },
        "model.potentials[0].perturbation.amplitude",
    ),
    "pde-check-node-count-overflows": (  # 2L/h is inf
        {"model.geometry.side_lengths": [2], "experiment.kind": "pde_check", "grid": {"L": 1e308, "h": 1}},
        "grid",
    ),
    "pde-check-grid-exceeds-memory": (  # m = 1.2M nodes per axis: one grid array alone is 1.2e13 bytes
        {"model.geometry.side_lengths": [2], "experiment.kind": "pde_check", "grid": {"L": 6, "h": 1e-5}},
        "grid.h",
    ),
    "pde-check-grid-bytes-past-the-double-range": (  # (2e307)^2 doubles
        {"model.geometry.side_lengths": [2], "experiment.kind": "pde_check", "grid": {"L": 1e300, "h": 1e-7}},
        "grid.h",
    ),
    "core-identity-grid-too-coarse": (
        {
            "model.geometry.side_lengths": [2],
            "experiment": {"kind": "pde_check", "core_identity": True},
            "grid": {"L": 6.0, "h": 4.0},
        },
        "grid.h",
    ),
    "algebraic-certificate-on-nn": ({"experiment.kind": "algebraic_certificate"}, "model.coupling.kind"),
    "sharpness-on-cosine": (
        {
            "model.potential.perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0},
            "experiment.kind": "gaussian_sharpness",
        },
        "experiment.kind",
    ),
    "sharpness-antiferromagnetic": (
        {"model.coupling.epsilon": -0.1, "experiment.kind": "gaussian_sharpness"},
        "model.coupling.epsilon",
    ),
    "threshold-scan-on-a-ring": ({"experiment": {"kind": "threshold_scan", "epsilons": [0.05]}}, "model.geometry"),
    "dimension-key": ({"model.geometry.dimension": 1}, "model.geometry"),  # len(side_lengths) is the dimension
}


@pytest.mark.parametrize("edits, path", PROBES.values(), ids=PROBES.keys())
def test_invalid_config_exits_2_naming_the_key(tmp_path, capsys, edits, path):
    raw = edited({"model": base_model_block(8, 0.1), "experiment": {"kind": "bound_report"}}, edits)
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if "tail mass" in err:  # only a box-blamed refusal says to enlarge the box
        assert err.endswith("; enlarge the box\n" if path == "grid.L" else "; reduce the perturbation amplitude\n"), err


@pytest.mark.parametrize(
    "sides, status",
    [([64], 0), ([65], 2), ([1000, 1000], 2), ([3, 4611686018427387904], 2)],  # the last wraps an int64 product
)
def test_dense_model_past_physical_memory_exits_2_naming_the_geometry(tmp_path, capsys, monkeypatch, sides, status):
    # memory for a 64-site model exactly, so a refusal is never a large allocation that failed
    monkeypatch.setattr(cli, "physical_memory", lambda: 8 * cli.PEAK_DENSE_ARRAYS * 64 * 64)
    raw = edited({"model": base_model_block(), "experiment": {"kind": "bound_report"}}, {"model.geometry.side_lengths": sides})
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    if status == 2:
        assert err.startswith(f"config error: model.geometry: {cli.PEAK_DENSE_ARRAYS} arrays of n x n doubles "), err
        assert f"for n = {math.prod(sides)} sites" in err
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("m, status", [(61, 0), (62, 2)])
def test_grid_past_physical_memory_exits_2_naming_the_grid(tmp_path, capsys, monkeypatch, m, status):
    # memory for the solver's PEAK_GRID_ARRAYS arrays at m = 61 exactly: one node per axis more is refused
    from gibbscert.oracles import potential

    monkeypatch.setattr(potential, "physical_memory", lambda: 8 * potential.PEAK_GRID_ARRAYS * 61 * 61)
    raw = {"model": base_model_block(2), "experiment": {"kind": "pde_check"}, "grid": {"L": 6.0, "h": 12.0 / (m - 1)}}
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    if status == 2:
        assert err.startswith(f"config error: grid.h: {potential.PEAK_GRID_ARRAYS} grid arrays of 62^2 doubles "), err
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""
        assert (tmp_path / "out" / "phi.csv").exists()


@pytest.mark.parametrize(
    "experiment, arrays",
    [
        ({}, None),
        ({"functions": [{"kind": "coordinate"}, {"kind": "sin", "site": 1}]}, 9),
        ({"core_identity": True}, 9),
    ],
    ids=["one-function", "two-functions", "core-identity"],
)
def test_grid_refusal_budgets_each_request_own_peak(tmp_path, capsys, monkeypatch, experiment, arrays):
    # memory for a one-function request at m = 61 exactly: a second function
    # keeps one more phi, and the core identity's verify stage peaks higher
    from gibbscert.oracles import potential

    monkeypatch.setattr(potential, "physical_memory", lambda: 8 * potential.PEAK_GRID_ARRAYS * 61 * 61)
    raw = {"model": base_model_block(2), "experiment": {"kind": "pde_check", **experiment}, "grid": {"L": 6.0, "h": 0.2}}
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == (0 if arrays is None else 2)
    err = capsys.readouterr().err
    if arrays is None:
        assert err == ""
        assert (tmp_path / "out" / "phi.csv").exists()
    else:
        assert err.startswith(f"config error: grid.h: {arrays} grid arrays of 61^2 doubles "), err
        assert not (tmp_path / "out").exists()


def test_duplicate_key_exits_2(tmp_path, capsys):
    # json.loads kept the last value, so this certified epsilon = 0.01
    text = json.dumps({"model": base_model_block(8, 0.5), "experiment": {"kind": "bound_report"}})
    text = text.replace('"epsilon": 0.5', '"epsilon": 0.5, "epsilon": 0.01')
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "duplicate key 'epsilon'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SHORT_SAMPLER = {"chains": 4, "steps": 800, "burn_in": 80, "proposal_std": 1.0, "seed": 3}
COSINE = {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0}
STRONG_COUPLING = {
    "bound_report": {"experiment": {"kind": "bound_report"}},
    "gaussian_sharpness": {"experiment": {"kind": "gaussian_sharpness"}},
    "mcmc_check-exact": {"experiment": {"kind": "mcmc_check"}, "sampler": SHORT_SAMPLER},  # Gaussian: the exact covariance
    "mcmc_check-bound": {  # cosine: the bound A^-1
        "model": {**base_model_block(8, 5.0), "potential": {"q": 1.0, "perturbation": COSINE}},
        "experiment": {"kind": "mcmc_check"},
        "sampler": SHORT_SAMPLER,
    },
    "pde_check": {"model": base_model_block(2, 5.0), "experiment": {"kind": "pde_check"}, "grid": {"L": 6.0, "h": 0.1}},
}


@pytest.mark.parametrize("case", list(STRONG_COUPLING))
def test_strong_coupling_is_valid_and_fails_verification(tmp_path, capsys, monkeypatch, case):
    # epsilon = 5 is a well-formed config whose A is not positive definite: every
    # kind refuses with a report, before it samples or solves on a grid
    import gibbscert.cli

    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran on a matrix that is not positive definite")

    monkeypatch.setattr(gibbscert.cli, "mcmc_covariance_matrix", oracle)
    monkeypatch.setattr(gibbscert.cli, "PotentialSolver", oracle)
    raw = {"model": base_model_block(8, 5.0), **STRONG_COUPLING[case]}
    if raw["experiment"]["kind"] == "mcmc_check":  # refused before sampling on either target
        assert cli.parse_config(raw).model.gaussian == (case == "mcmc_check-exact")
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"verification failed: {raw['experiment']['kind']}" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["pass"]
    assert report["results"]["error"] == "interaction matrix not positive definite"
    assert report["results"]["constants"]["n_sites"] == raw["model"]["geometry"]["side_lengths"][0]
    if case == "bound_report":  # the refusal bytes bound_report has always written
        digest = hashlib.sha256(report_bytes(report, drop_meta=True)).hexdigest()
        assert digest == "1d3700ed985542fbcf8abc73c92bea5b6b0e6d4433d4b5521a304f6a2c1052d7"


def leaves(value, path=""):
    """(path, value) of every leaf below ``value``: each list as a whole, and each of its items."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
        return
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")


SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
MUTATIONS = ["x", "123", None, {}, [], True, False, math.nan, math.inf, -math.inf, -1, -2.5]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_shipped_configs_parse_or_name_the_leaf(data):
    raw = SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]
    path, value = data.draw(st.sampled_from(list(leaves(raw))))
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    extra = [-value, str(value)] if numeric else []  # the value negated, and as digits
    mutant = data.draw(st.sampled_from(MUTATIONS + extra))
    try:
        parse_config(edited(raw, {path: mutant}))
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: "), (path, mutant, str(exc))


def test_every_bench_request_parses():
    # a refused request would count as a failed operation of the benchmark; the
    # shipped configs parse too, so a key the schema drops is dropped everywhere
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))  # compiled in memory: writes nothing under bench/
    requests = [raw for configs in workloads["WARMUP"].values() for raw in configs]
    for workload in workloads["CELLS"]:
        for seed in (1, 101):
            for index in range(3):
                requests += workloads["cycle"](workload, seed, index)
    assert len(requests) == 2 * 3 * (14 + 14 + 8) + 10
    for raw in requests + list(SHIPPED.values()):
        parse_config(raw)


def test_gaussian_sharpness_report(tmp_path):
    cfg = parse_config(
        {
            "model": base_model_block(),
            "experiment": {"kind": "gaussian_sharpness"},
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert report["results"]["max_relative_gap"] <= 1e-10
    assert (tmp_path / "out" / "report.json").exists()
    pairs = (tmp_path / "out" / "pairs.csv").read_text().splitlines()
    assert pairs[0] == "i,j,delta_ij,bound,oracle_value,stderr_or_tol,verdict"
    assert len(pairs) == 1 + 36  # 8 sites: unordered pairs incl diagonal


@pytest.mark.parametrize("kind", ["gaussian_sharpness", "bound_report", "mcmc_check"])
def test_cosine_sites_of_amplitude_zero_are_gaussian(tmp_path, kind):
    # psi = x^2/2 + 0 cos(x) is quadratic, so the ring is checked against its exact covariance
    raw = {
        "model": {**base_model_block(8, 0.2), "potential": {"q": 1.0, "perturbation": {**COSINE, "amplitude": 0.0}}},
        "experiment": {"kind": kind},
    }
    if kind == "mcmc_check":
        raw["sampler"] = SHORT_SAMPLER
    status = main(["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")])
    if kind == "mcmc_check":  # the mode, not the sampled verdict
        assert json.loads((tmp_path / "out" / "report.json").read_text())["results"]["compare"] == "exact"
        return
    assert status == 0
    rows = (tmp_path / "out" / "pairs.csv").read_text().splitlines()[1:]
    assert len(rows) == 36 and all(row.endswith(",pass") for row in rows)


def test_gaussian_sharpness_passes_where_the_covariance_is_tiny(tmp_path):
    # A = P bitwise on this ring, so the exact answer is a pass; the far entries
    # of cov are about 3.7e-22, far above the 1e-300 guard of the relative gap
    cfg = parse_config({"model": base_model_block(64, 0.2), "experiment": {"kind": "gaussian_sharpness"}})
    assert np.min(gaussian_exact_covariance(gaussian_from_model(cfg.model))) > 3e-22
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert report["results"]["max_relative_gap"] <= 1e-10
    assert passed


@pytest.mark.parametrize("n, eps", [(64, 0.2), (128, 0.05)])
def test_bound_report_prints_the_closed_form_ring_covariance(tmp_path, n, eps):
    # On a Gaussian NN ring with q = 1, cov = A^-1 has a closed form that uses
    # no Cholesky: (r^k + r^(n-k)) / (eps (1/r - r) (1 - r^n)) at ring distance
    # k, with r the smaller root of eps r^2 - q r + eps.  The far entries reach
    # 3.7e-22 (n = 64) and 1.3e-83 (n = 128).
    q = 1.0
    r = (q - math.sqrt(q * q - 4.0 * eps * eps)) / (2.0 * eps)
    cfg = parse_config({"model": base_model_block(n, eps), "experiment": {"kind": "bound_report"}})
    _, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    rows = (tmp_path / "out" / "pairs.csv").read_text().splitlines()[1:]
    assert len(rows) == n * (n + 1) // 2
    for row in rows:
        i, j, _, bound, *_ = row.split(",")
        k = int(j) - int(i)
        exact = (r**k + r ** (n - k)) / (eps * (1.0 / r - r) * (1.0 - r**n))
        assert float(bound) > 0.0
        assert abs(float(bound) - exact) <= 1e-12 * exact, (i, j, bound, exact)


def test_pair_table_roundtrip_matches_json(tmp_path):
    cfg = parse_config(
        {"model": base_model_block(), "experiment": {"kind": "bound_report"}}
    )
    report, _ = run_experiment(cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "pairs.csv").read_text().splitlines()[1:]
    inv_from_csv = {}
    for row in rows:
        i, j, _, bound, *_ = row.split(",")
        inv_from_csv[(int(i), int(j))] = float(bound)
    from gibbscert.interaction import interaction_from_model, inverse_entrywise

    fresh = parse_config({"model": base_model_block(), "experiment": {"kind": "bound_report"}}).model
    inv = inverse_entrywise(interaction_from_model(fresh).A)
    for (i, j), v in inv_from_csv.items():
        assert v == inv[i, j]  # full-precision round trip is exact


def test_threshold_scan_flips_at_weak_coupling_threshold(tmp_path):
    eps_grid = [round(0.01 * k, 2) for k in range(1, 13)]
    cfg = parse_config(
        {
            "model": {
                "geometry": {"kind": "periodic_grid", "side_lengths": [4, 4]},
                "potential": {"q": 1.0},
                "coupling": {"kind": "nearest_neighbor", "epsilon": 0.05},
            },
            "experiment": {"kind": "threshold_scan", "epsilons": eps_grid},
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    threshold = math.exp(-1.0) / 4.0
    expected_first = next(e for e in eps_grid if e > threshold)
    assert report["results"]["first_refused_epsilon"] == pytest.approx(expected_first)
    for entry in report["results"]["scan"]:
        assert entry["passed"] == (entry["epsilon"] < threshold)


def test_threshold_scan_refuses_an_epsilon_whose_tilt_overflows(tmp_path):
    # e * 1e308 overflows, so A~ is refused for that epsilon alone and the scan goes on
    raw = {
        "model": {**base_model_block(6, 0.05), "geometry": {"kind": "periodic_grid", "side_lengths": [6, 6]}},
        "experiment": {"kind": "threshold_scan", "epsilons": [0.05, 0.5, 1e308]},
    }
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert [entry["passed"] for entry in results["scan"]] == [True, False, False]
    assert results["first_refused_epsilon"] == 0.5


@pytest.mark.parametrize("kind", ["bound_report", "gaussian_sharpness", "exponential_certificate"])
def test_kappa_row_sum_overflow_still_writes_the_refusal(tmp_path, kind):
    # 4 * 1e308 overflows the kappa row sum; under the suite's error::RuntimeWarning
    # the run ended in a traceback instead of its refusal report
    raw = {
        "model": {**base_model_block(4, 1e308), "geometry": {"kind": "periodic_grid", "side_lengths": [4, 4]}},
        "experiment": {"kind": kind},
    }
    config = write_config(tmp_path, raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False
    assert report["results"]["constants"]["kappa_max_row_sum"] == "inf"


def test_threshold_scan_rejects_non_finite_epsilons():
    raw = {
        "model": base_model_block(4, 0.05),
        "experiment": {"kind": "threshold_scan", "epsilons": [0.05, math.inf, math.nan]},
    }
    with pytest.raises(ConfigError, match=r"experiment\.epsilons\[1\]: must be a finite number, got inf"):
        parse_config(raw)


def test_pde_check_needs_a_function(tmp_path):
    raw = {
        "model": base_model_block(2, 0.2),
        "experiment": {"kind": "pde_check", "functions": []},
        "grid": {"L": 6.0, "h": 0.5},
    }
    with pytest.raises(ConfigError, match="experiment.functions"):
        run_experiment(parse_config(raw), tmp_path / "out")


def pde_config(functions):
    return {
        "model": base_model_block(2, 0.2),
        "experiment": {"kind": "pde_check", "functions": functions},
        "grid": {"L": 6.0, "h": 0.5},
    }


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "coordinate", "site": -1}, r"\.site: must be a non-negative integer, got -1"),
        ({"kind": "sin", "site": 0.7}, "got 0.7"),
        ({"kind": "coordinate", "site": True}, "got True"),
        ({"kind": "cubic", "site": 2}, "got 2"),
        ({"kind": "affine", "weights": [1.0]}, r"affine needs 2 weights, got \[1.0\]"),
        ({"kind": "affine", "weights": [1.0, math.nan]}, r"\.weights\[1\]: must be a finite number, got nan"),
        ({"kind": "affine", "weights": [1.0, 1.0], "offset": math.inf}, r"\.offset: must be a finite number, got inf"),
        ({"kind": "quartic"}, r"\.kind: unknown kind 'quartic'"),
    ],
    ids=[
        "negative-site",
        "fractional-site",
        "bool-site",
        "site-past-the-last",
        "short-weights",
        "nan-weight",
        "inf-offset",
        "unknown-kind",
    ],
)
def test_invalid_pde_functions_rejected(spec, message):
    # site -1 checked site 1 and passed, 0.7 checked site 0, site 2 and a
    # short weight list ended in an IndexError or a numpy matmul traceback
    functions = [{"kind": "coordinate", "site": 0}, spec]
    with pytest.raises(ConfigError, match=rf"experiment\.functions\[1\].*{message}"):
        parse_config(pde_config(functions))


def test_pde_observables_carry_their_site():
    # the grid oracle evaluates an observable with a site on its axis alone
    cfg = parse_config(pde_config([{"kind": "coordinate"}]))
    assert cfg.options["core_identity"] is False  # the default, set once by parse_config
    sites = [
        cli._pde_observable(spec, cfg.model, cfg.grid).site
        for spec in (
            {"kind": "coordinate", "site": 1},
            {"kind": "sin", "site": 0},
            {"kind": "cubic", "site": 1},
            {"kind": "coordinate"},
            {"kind": "affine", "weights": [1.0, -0.5]},
        )
    ]
    assert sites == [1, 0, 1, 0, None]


def test_invalid_pde_function_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, pde_config([{"kind": "affine", "weights": [1.0]}]))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: experiment.functions[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1.9, True, -1, "1"], ids=["fractional", "bool", "negative", "text"])
def test_invalid_max_violations_rejected(value):
    # the allowed violations are fixed in code: any value, valid or not, is an unknown key
    raw = {
        "model": base_model_block(2, 0.0),
        "experiment": {"kind": "mcmc_check", "max_violations": value},
        "sampler": {"chains": 8, "steps": 2000, "burn_in": 200, "proposal_std": 1.5, "seed": 1},
    }
    with pytest.raises(ConfigError, match=r"^experiment: unknown key 'max_violations'$"):
        parse_config(raw)


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, 0.0, -1e-10, "1e-10"], ids=["inf", "nan", "zero", "negative", "text"]
)
def test_invalid_tolerance_rejected(value):
    # the sharpness tolerance is decay.AUDIT_RTOL: any value, valid or not, is an unknown key
    raw = {"model": base_model_block(), "experiment": {"kind": "gaussian_sharpness", "tolerance": value}}
    with pytest.raises(ConfigError, match=r"^experiment: unknown key 'tolerance'$"):
        parse_config(raw)


def test_removed_verdict_options_are_refused(tmp_path, capsys):
    # the oracle runners' verdict rules live in code; a config may not loosen them
    for kind, key, value in (
        ("gaussian_sharpness", "tolerance", 1e-6),
        ("mcmc_check", "compare", "bound"),
        ("mcmc_check", "max_violations", 300),
    ):
        raw = {"model": base_model_block(), "experiment": {"kind": kind, key: value}, "sampler": SHORT_SAMPLER}
        out = tmp_path / key
        assert main(["--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: experiment: unknown key '{key}'\n"
        assert not out.exists()


def test_exponential_certificate_experiment(tmp_path):
    cfg = parse_config(
        {
            "model": base_model_block(16, 0.1),
            "experiment": {"kind": "exponential_certificate"},
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    cert = report["results"]["certificate"]
    assert cert["prefactor"] == pytest.approx(1.0 / (1.0 - 0.2 * math.e))

    cfg = parse_config(
        {
            "model": base_model_block(16, 0.2),
            "experiment": {"kind": "exponential_certificate"},
        }
    )
    _, passed = run_experiment(cfg, tmp_path / "out2")
    assert not passed


def test_exponential_refuses_tilted_matrix_failing_the_pivot_rule(tmp_path):
    # lambda_min(A~) = 9.6e-15 > 0, yet A~'s Cholesky pivots fail the 1e-12 rule the
    # tilt audit factors with: the run refuses rather than raising
    model = base_model_block(4, (1.0 - 1e-14) / (4.0 * math.e))
    model["geometry"]["side_lengths"] = [4, 4]
    cfg = parse_config({"model": model, "experiment": {"kind": "exponential_certificate"}})
    report, passed = run_experiment(cfg, tmp_path / "out")
    cert = report["results"]["certificate"]
    assert not passed and not cert["passed"]
    assert cert["reason"] == "tilted matrix is not positive definite"
    assert 0.0 < cert["constants"]["rho_tilde_eigenvalue"] < 1e-12


def test_exponential_refuses_a_tilt_that_overflows(tmp_path):
    # e^800 * 0.01 overflows on the coupled pair, so A~ has a 2x2 minor below 0:
    # refused without a warning or a non-finite number in report.json
    far = 800.0
    model = {
        "geometry": {"kind": "explicit", "metric_table": [[0.0, far, far], [far, 0.0, far], [far, far, 0.0]]},
        "potential": {"q": 1.0},
        "coupling": {"kind": "explicit", "matrix": [[0.0, 0.01, 0.0], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    }
    cfg = parse_config({"model": model, "experiment": {"kind": "exponential_certificate"}})
    _, passed = run_experiment(cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    cert = report["results"]["certificate"]
    assert not passed and not cert["passed"]
    assert cert["reason"] == "tilted matrix is not positive definite"
    assert [v for _, v in leaves(report) if v in ("nan", "inf", "-inf")] == []


def test_exponential_certificate_with_far_uncoupled_pairs(tmp_path):
    # e^800 overflows; the pairs 800 apart are uncoupled, so A~ keeps 0 there, not inf * 0
    far = 800.0
    table = [[0.0, 1.0, far, far], [1.0, 0.0, far, far], [far, far, 0.0, 1.0], [far, far, 1.0, 0.0]]
    model = {**base_model_block(eps=0.05), "geometry": {"kind": "explicit", "metric_table": table}}
    cfg = parse_config({"model": model, "experiment": {"kind": "exponential_certificate"}})
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert report["results"]["certificate"]["prefactor"] == pytest.approx(1.0 / (1.0 - 0.05 * math.e))


def test_algebraic_certificate_experiment(tmp_path):
    cfg = parse_config(
        {
            "model": {
                "geometry": {"kind": "periodic_grid", "side_lengths": [64]},
                "potential": {"q": 1.0},
                "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
            },
            "experiment": {"kind": "algebraic_certificate"},
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert report["results"]["certificate"]["alpha_tilde"] == 0.5


def test_mcmc_check_runs_and_passes(tmp_path):
    cfg = parse_config(
        {
            "model": base_model_block(4, 0.1),
            "experiment": {"kind": "mcmc_check"},
            "sampler": {
                "chains": 8,
                "steps": 20000,
                "burn_in": 2000,
                "proposal_std": 1.5,
                "seed": 11,
            },
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert report["results"]["violations"] <= report["results"]["max_violations"]
    assert 0.0 < report["results"]["acceptance_rate"] < 1.0


def test_mcmc_check_states_its_false_fail_probability(tmp_path):
    # 8 chains and 36 pairs with 1 violation allowed: under exact sampling the
    # 3-stderr rule fails about one run in six
    cfg = load_config(ROOT / "configs" / "mcmc_check_1d.json")
    report, _ = run_experiment(cfg, tmp_path / "out")
    results = report["results"]
    assert (cfg.sampler.chains, results["max_violations"]) == (8, 1)
    assert len((tmp_path / "out" / "pairs.csv").read_text().splitlines()) == 1 + 36
    assert results["nominal_false_fail_probability"] == pytest.approx(0.16, abs=0.005)


def test_pde_check_experiment(tmp_path):
    cfg = parse_config(
        {
            "model": {
                "geometry": {"kind": "periodic_grid", "side_lengths": [2]},
                "potential": {
                    "q": 1.0,
                    "perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0},
                },
                "coupling": {"kind": "nearest_neighbor", "epsilon": 0.2},
            },
            "experiment": {
                "kind": "pde_check",
                "functions": [
                    {"kind": "coordinate", "site": 0},
                    {"kind": "sin", "site": 0},
                    {"kind": "affine", "weights": [1.0, -0.5], "offset": 3.0},
                ],
            },
            "grid": {"L": 6.0, "h": 0.05},
        }
    )
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert (tmp_path / "out" / "phi.csv").exists()
    for entry in report["results"]["functions"]:
        assert entry["directional_pi_passed"]
        assert all(c["passed"] for c in entry["covariance_representation"])


@pytest.mark.parametrize(
    "potentials, amplitude, block",
    [(None, 400, "model.potential"), (3, 400, r"model.potentials\[3\]"), (None, 372, "model.potential")],
    ids=["shared", "per-site", "subnormal"],
)
def test_a_rho_that_underflows_is_a_refused_config(tmp_path, capsys, potentials, amplitude, block):
    # rho = exp(-800) rounds to 0 and exp(-744) to the subnormal 1e-323, whose A^-1
    # holds inf and nan: refused when the config is read, not raised or written mid-run
    raw = {"model": base_model_block(4, 0.0), "experiment": {"kind": "bound_report"}}
    heavy = {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": amplitude, "frequency": 1}}
    if potentials is None:
        raw["model"]["potential"] = heavy
    else:
        del raw["model"]["potential"]
        raw["model"]["potentials"] = [{"q": 1.0}] * potentials + [heavy]
    assert main(["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 2
    assert re.search(f"config error: {block}: rho = q exp", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_an_algebraic_prefactor_it_cannot_assemble_is_a_refusal(tmp_path, capsys):
    raw = {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [8]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "algebraic", "c": 0.6028308510638298, "alpha": 1, "d": 1},
        },
        "experiment": {"kind": "algebraic_certificate"},
    }
    assert main(["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    assert "verification failed: algebraic_certificate" in capsys.readouterr().err
    cert = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["certificate"]
    assert cert["reason"] == "contraction constant too close to 1 to assemble a finite prefactor"
    assert cert["contraction"] == pytest.approx(1.0 - 1e-5)
    assert cert["dominance_margin"] > 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]


ALGEBRAIC_OVERFLOWS = {  # each ended in an OverflowError traceback and an empty output directory
    "prefactor-piece": (16, 1.0, 0.1, 150),  # m^(p+1) in the prefactor walk
    "c-head": (8, 1e-300, 1e-302, 1),  # max(1/rho)^2
    "far-pairs": (8, 1.0, 0.1, 800),  # r^(d+alpha) on uncoupled pairs, then a prefactor piece
}


@pytest.mark.parametrize("n, q, c, alpha", ALGEBRAIC_OVERFLOWS.values(), ids=ALGEBRAIC_OVERFLOWS.keys())
def test_an_algebraic_constant_that_overflows_is_a_refusal(tmp_path, capsys, n, q, c, alpha):
    raw = {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [n]},
            "potential": {"q": q},
            "coupling": {"kind": "algebraic", "c": c, "alpha": alpha, "d": 1},
        },
        "experiment": {"kind": "algebraic_certificate"},
    }
    assert main(["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "verification failed: algebraic_certificate\n"
    cert = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["certificate"]
    assert (cert["passed"], cert["reason"]) == (False, "a constant of the proof overflows a double")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]


def test_an_mcmc_run_that_accepts_no_move_is_a_refusal(tmp_path, capsys):
    raw = {
        "model": base_model_block(4, 0.1),
        "experiment": {"kind": "mcmc_check"},
        "sampler": {"chains": 4, "steps": 4000, "burn_in": 400, "proposal_std": 1e9, "seed": 1},
    }
    assert main(["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    assert "verification failed: mcmc_check" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["pass"]
    assert report["results"]["error"] == "a coordinate has zero variance along a chain"
    assert sorted(report["results"]) == ["constants", "error"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]


def test_reports_reproducible_modulo_meta(tmp_path):
    raw = {
        "model": base_model_block(4, 0.1),
        "experiment": {"kind": "mcmc_check"},
        "sampler": {
            "chains": 4,
            "steps": 5000,
            "burn_in": 500,
            "proposal_std": 1.5,
            "seed": 99,
        },
    }
    run_experiment(parse_config(raw), tmp_path / "a")
    run_experiment(parse_config(raw), tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report_bytes(ra, drop_meta=True) == report_bytes(rb, drop_meta=True)


def test_seed_override(tmp_path):
    raw = {
        "model": base_model_block(4, 0.1),
        "experiment": {"kind": "mcmc_check"},
        "sampler": {
            "chains": 4,
            "steps": 5000,
            "burn_in": 500,
            "proposal_std": 1.5,
            "seed": 99,
        },
        "output": {"path": str(tmp_path / "o1")},
    }
    path = write_config(tmp_path, raw)
    assert main(["--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "7"]) == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["results"]["sampler"]["seed"] == 7
    assert report["config"]["sampler"]["seed"] == 7
    # the echoed config reruns the run
    echoed = write_config(tmp_path, report["config"], "echoed.json")
    assert main(["--config", str(echoed), "--out", str(tmp_path / "o3")]) == 0
    rerun = json.loads((tmp_path / "o3" / "report.json").read_text())
    assert report_bytes(rerun, drop_meta=True) == report_bytes(report, drop_meta=True)


def test_exponential_run_builds_each_table_once(tmp_path, monkeypatch):
    import gibbscert.lattice
    from gibbscert import interaction

    tables = []
    build_table = gibbscert.lattice._torus_distance_table

    def counted_table(geom, euclidean):
        tables.append(euclidean)
        return build_table(geom, euclidean)

    inverted = []
    invert = interaction.inverse_entrywise

    def counted_inverse(a):
        inverted.append(np.array(a))
        return invert(a)

    monkeypatch.setattr(gibbscert.lattice, "_torus_distance_table", counted_table)
    for name, module in list(sys.modules.items()):
        if name.startswith("gibbscert") and getattr(module, "inverse_entrywise", None) is invert:
            monkeypatch.setattr(module, "inverse_entrywise", counted_inverse)
    block = base_model_block(6, 0.05)
    block["geometry"]["side_lengths"] = [6, 6]
    cfg = parse_config({"model": block, "experiment": {"kind": "exponential_certificate"}})
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert (tmp_path / "out" / "decay.csv").exists()
    assert tables == [False]  # the graph table, once; no Euclidean table
    # every inverse routine is rebound, the Gaussian oracle's included: its
    # precision is bitwise A here, so the pair table reads A's cached inverse
    A = interaction.interaction_from_model(cfg.model).A
    assert sum(np.array_equal(a, A) for a in inverted) == 1
    assert len(inverted) == 2  # A and the tilted matrix


def count_factors(monkeypatch) -> list:
    """Rebind cholesky_factor in every gibbscert module holding it; the list grows by each input."""
    from gibbscert import interaction

    factored = []
    factor = interaction.cholesky_factor

    def counted(a):
        factored.append(np.array(a))
        return factor(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("gibbscert") and getattr(module, "cholesky_factor", None) is factor:
            monkeypatch.setattr(module, "cholesky_factor", counted)
    return factored


def bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


FERROMAGNETIC_GAUSSIAN_RUNS = {
    "bound_report": {"kind": "bound_report"},
    "gaussian_sharpness": {"kind": "gaussian_sharpness"},
    "exponential_certificate": {"kind": "exponential_certificate"},
    "mcmc_check-exact": {"kind": "mcmc_check"},
}


@pytest.mark.parametrize("experiment", FERROMAGNETIC_GAUSSIAN_RUNS.values(), ids=FERROMAGNETIC_GAUSSIAN_RUNS.keys())
def test_ferromagnetic_gaussian_run_factors_a_once(tmp_path, monkeypatch, experiment):
    # P = diag(q) - J is bitwise A = diag(rho) - |J| when J >= 0, so the
    # Gaussian oracle reads A's cached inverse instead of factoring A's bits again
    factored = count_factors(monkeypatch)
    raw = {"model": base_model_block(6, 0.1), "experiment": experiment}
    if experiment["kind"] == "mcmc_check":
        raw["sampler"] = {"chains": 4, "steps": 400, "burn_in": 40, "proposal_std": 1.5, "seed": 3}
    cfg = parse_config(raw)
    report, _ = run_experiment(cfg, tmp_path / "out")
    assert "error" not in report["results"]
    A = interaction_from_model(cfg.model).A
    assert bitwise_equal(gaussian_from_model(cfg.model), A)
    assert sum(bitwise_equal(a, A) for a in factored) == 1


def test_mixed_sign_gaussian_oracle_factors_its_own_precision(tmp_path, monkeypatch):
    J = np.zeros((5, 5))
    for i, j, value in ((0, 1, 0.2), (1, 2, -0.15), (2, 3, 0.1), (3, 4, -0.2), (4, 0, 0.05), (0, 2, -0.1)):
        J[i, j] = J[j, i] = value
    block = {**base_model_block(5), "coupling": {"kind": "explicit", "matrix": J.tolist()}}
    cfg = parse_config({"model": block, "experiment": {"kind": "bound_report"}})
    factored = count_factors(monkeypatch)
    tables = []
    emit = cli.emit_pair_table

    def captured(pairs, path):
        tables.append(pairs)
        emit(pairs, path)

    monkeypatch.setattr(cli, "emit_pair_table", captured)
    _, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    A, P = interaction_from_model(cfg.model).A, gaussian_from_model(cfg.model)
    assert not bitwise_equal(P, A)
    assert sum(bitwise_equal(a, A) for a in factored) == 1
    assert sum(bitwise_equal(a, P) for a in factored) == 1
    with single_threaded():
        cov = gaussian_exact_covariance(P)
    assert tables[0]["oracle_value"].tobytes() == cov.tobytes()


def count_tilted_builds(monkeypatch) -> list:
    """Rebind build_tilted_matrix in every gibbscert module holding it; the list grows per call."""
    from gibbscert import interaction

    built = []
    build = interaction.build_tilted_matrix

    def counted_build(im, delta):
        built.append(delta)
        return build(im, delta)

    for name, module in list(sys.modules.items()):
        if name.startswith("gibbscert") and getattr(module, "build_tilted_matrix", None) is build:
            monkeypatch.setattr(module, "build_tilted_matrix", counted_build)
    return built


def test_exponential_run_builds_the_tilted_matrix_once_and_keeps_none(tmp_path, monkeypatch):
    built = count_tilted_builds(monkeypatch)
    block = base_model_block(6, 0.05)
    block["geometry"]["side_lengths"] = [6, 6]
    cfg = parse_config({"model": block, "experiment": {"kind": "exponential_certificate"}})
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert len(built) == 1
    assert built[0] is distance_matrix(cfg.model.geometry)  # the table the audit reads
    # the model's record keeps A^-1 and lambda_min(A) only, no tilted matrix
    assert set(interaction_from_model(cfg.model)._cache) <= {"inverse", "lambda_min"}


def test_threshold_scan_builds_one_tilted_matrix_per_epsilon(tmp_path, monkeypatch):
    built = count_tilted_builds(monkeypatch)
    epsilons = [0.02, 0.05, 0.1, 0.5]
    block = {**base_model_block(6, 0.05), "geometry": {"kind": "periodic_grid", "side_lengths": [6, 6]}}
    cfg = parse_config({"model": block, "experiment": {"kind": "threshold_scan", "epsilons": epsilons}})
    run_experiment(cfg, tmp_path / "out")
    assert len(built) == len(epsilons)


EVERY_KIND = {
    "bound_report": {"experiment": {"kind": "bound_report"}},
    "gaussian_sharpness": {"experiment": {"kind": "gaussian_sharpness"}},
    "pde_check": {"model": base_model_block(2), "experiment": {"kind": "pde_check"}, "grid": {"L": 6.0, "h": 0.1}},
    "mcmc_check": {
        "model": {**base_model_block(8, 0.1), "potential": {"q": 1.0, "perturbation": COSINE}},
        "experiment": {"kind": "mcmc_check"},
        "sampler": SHORT_SAMPLER,
    },
    "exponential_certificate": {"experiment": {"kind": "exponential_certificate"}},
    "algebraic_certificate": {
        "model": {
            "geometry": {"kind": "periodic_grid", "side_lengths": [16]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
        },
        "experiment": {"kind": "algebraic_certificate"},
    },
    "threshold_scan": {
        "model": {**base_model_block(), "geometry": {"kind": "periodic_grid", "side_lengths": [4, 4]}},
        "experiment": {"kind": "threshold_scan", "epsilons": [0.01, 0.05, 0.2]},
    },
}


@pytest.mark.parametrize("kind", list(EVERY_KIND))
def test_every_kind_builds_each_models_interaction_matrix_once(tmp_path, monkeypatch, kind):
    from gibbscert import interaction, model

    args = {"rho_vector": [], "kappa_matrix": [], "build_interaction_matrix": []}
    for name, calls in args.items():
        original = getattr(interaction if name == "build_interaction_matrix" else model, name)

        def counted(*a, _original=original, _calls=calls):
            _calls.append(a[0])  # keeps each model alive, so no id is reused
            return _original(*a)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gibbscert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cfg = parse_config({"model": base_model_block(8, 0.1), **EVERY_KIND[kind]})
    report, _ = run_experiment(cfg, tmp_path / "out")
    assert "error" not in report["results"]
    models = 1 + len(cfg.options.get("epsilons", ()))  # threshold_scan: one model per epsilon as well
    for name in ("rho_vector", "kappa_matrix"):
        assert len(args[name]) == len({id(m) for m in args[name]}) == models, name
    assert len(args["build_interaction_matrix"]) == models


@pytest.mark.parametrize("kind", ["exponential_certificate", "algebraic_certificate"])
def test_passing_decay_run_builds_its_profile_once(tmp_path, monkeypatch, kind):
    from gibbscert import decay

    calls = []
    profile = decay.decay_profile

    def counted_profile(inv, r):
        calls.append(r.shape)
        return profile(inv, r)

    for name, module in list(sys.modules.items()):
        if name.startswith("gibbscert") and getattr(module, "decay_profile", None) is profile:
            monkeypatch.setattr(module, "decay_profile", counted_profile)
    if kind == "exponential_certificate":
        block = base_model_block(16, 0.1)
    else:
        block = {
            "geometry": {"kind": "periodic_grid", "side_lengths": [64]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
        }
    report, passed = run_experiment(parse_config({"model": block, "experiment": {"kind": kind}}), tmp_path)
    assert passed and report["results"]["certificate"]["fitted_exponent"] is not None
    assert (tmp_path / "decay.csv").exists()
    assert len(calls) == 1  # the fit and decay.csv share one profile


def parent_certified_pairs(cfg):
    """A certificate run's record and pair table as the runners formed that table
    before the record carried its bound: each bound from the record's scalars and
    the algebraic final audit per pair again; None for a record with no prefactor."""
    model, geom = cfg.model, cfg.model.geometry
    im = interaction_from_model(model)
    if cfg.kind == "exponential_certificate":
        cert = exponential_certificate(im, geom)
        if cert.prefactor is None:
            return cert, None
        delta = distance_matrix(geom)
        bound = cert.prefactor * np.exp(-delta)
        if not model.gaussian:
            return cert, dict(delta_ij=delta, bound=bound)
        cov = gaussian_exact_covariance(gaussian_from_model(model))
        tol = 1e-10 * float(np.max(np.abs(cov)))
        return cert, dict(delta_ij=delta, bound=bound, oracle_value=cov, stderr_or_tol=tol, ok=np.abs(cov) <= bound + tol)
    cert = algebraic_certificate(im, geom, model.coupling.alpha)
    if cert.prefactor is None:
        return cert, None
    r = distance_matrix(geom, euclidean=True)
    bound = cert.prefactor / (r**cert.exponent + 1.0)
    inv = im.inverse()
    ok = inv <= bound * (1 + 1e-10) + 1e-300
    return cert, dict(delta_ij=r, bound=bound, oracle_value=inv, stderr_or_tol=1e-10 * float(np.max(inv)), ok=ok)


def random_certificate_configs(rng, count):
    """Exponential runs on NN rings and tori and algebraic runs on chains and tori,
    with per-site q, a cosine model every third run, and couplings on both sides
    of each threshold."""
    configs = []
    for k in range(count):
        sides = [int(rng.integers(6, 40))] if k % 2 else [int(rng.integers(3, 9))] * 2
        potentials = [{"q": float(rng.uniform(0.8, 2.0))} for _ in range(math.prod(sides))]
        for pot in potentials if k % 3 == 0 else ():
            pot["perturbation"] = {"kind": "cosine", "amplitude": float(rng.uniform(-0.2, 0.2)), "frequency": 1.0}
        if k % 4 < 2:
            eps = float(rng.uniform(-0.25, 0.25))
            coupling, kind = {"kind": "nearest_neighbor", "epsilon": eps}, "exponential_certificate"
        else:
            c, alpha = float(rng.uniform(0.02, 0.4)), float(rng.uniform(0.3, 3.0))
            coupling, kind = {"kind": "algebraic", "c": c, "alpha": alpha, "d": len(sides)}, "algebraic_certificate"
        geometry = {"kind": "periodic_grid", "side_lengths": sides}
        configs.append({"model": {"geometry": geometry, "potentials": potentials, "coupling": coupling}, "experiment": {"kind": kind}})
    return configs


def test_certified_bounds_and_verdicts_match_the_parent_formulas(tmp_path):
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))  # compiled in memory: writes nothing under bench/
    bench = [raw for workload in ("torus-nn", "chain-hetero") for raw in workloads["cycle"](workload, 101, 0)]
    configs = bench + random_certificate_configs(np.random.default_rng(36), 24)
    kinds = ("exponential_certificate", "algebraic_certificate")
    checked = {kind: 0 for kind in kinds}
    for k, raw in enumerate(c for c in configs if c["experiment"]["kind"] in kinds):
        with single_threaded():  # as run_experiment runs, so A^-1 and the covariance keep their bits
            cert, pairs = parent_certified_pairs(parse_config(raw))
        run_experiment(parse_config(raw), tmp_path / str(k))
        if pairs is None:
            assert cert.bound is None
            continue
        assert cert.bound.tobytes() == pairs["bound"].tobytes()
        if cert.kind == "algebraic":
            assert np.array_equal(cert.bound_ok, pairs["ok"])
        if cert.passed:  # pairs.csv, verdicts included, byte for byte
            emit_pair_table(pairs, tmp_path / f"{k}.csv")
            assert (tmp_path / str(k) / "pairs.csv").read_bytes() == (tmp_path / f"{k}.csv").read_bytes()
            checked[raw["experiment"]["kind"]] += 1
    assert min(checked.values()) >= 8, checked


@pytest.mark.parametrize("kind", ["exponential_certificate", "algebraic_certificate"])
def test_no_hidden_certificate_field_reaches_the_report(tmp_path, kind):
    hidden = {f.name for f in dataclasses.fields(DecayCertificate) if not f.repr}
    assert hidden == {"profile", "bound", "bound_ok"}
    report, passed = run_experiment(parse_config({"model": base_model_block(8, 0.1), **EVERY_KIND[kind]}), tmp_path)
    assert passed
    assert not hidden & set(report["results"]["certificate"])
    text = (tmp_path / "report.json").read_text()
    assert not [name for name in hidden if f'"{name}"' in text]
