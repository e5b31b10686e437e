import json
import math
import sys

import numpy as np
import pytest

from gibbscert.cli import ConfigError, load_config, main, parse_config, run_experiment
from gibbscert.reporting import load_report, report_bytes


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
    with pytest.raises(ConfigError, match=f"sampler: .*{key}"):
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
    from gibbscert.cli import _parse_model
    from gibbscert.interaction import interaction_from_model, inverse_entrywise

    inv = inverse_entrywise(interaction_from_model(_parse_model(base_model_block())).A)
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


def test_threshold_scan_rejects_non_finite_epsilons():
    raw = {
        "model": base_model_block(4, 0.05),
        "experiment": {"kind": "threshold_scan", "epsilons": [0.05, math.inf, math.nan]},
    }
    with pytest.raises(ConfigError, match=r"experiment\.epsilons: .*\[inf, nan\]"):
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
        ({"kind": "coordinate", "site": -1}, r"site must be an integer in \[0, 2\), got -1"),
        ({"kind": "sin", "site": 0.7}, "got 0.7"),
        ({"kind": "coordinate", "site": True}, "got True"),
        ({"kind": "cubic", "site": 2}, "got 2"),
        ({"kind": "affine", "weights": [1.0]}, r"affine needs 2 weights, got \[1.0\]"),
        ({"kind": "affine", "weights": [1.0, math.nan]}, "must be finite"),
        ({"kind": "affine", "weights": [1.0, 1.0], "offset": math.inf}, "must be finite"),
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


def test_invalid_pde_function_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, pde_config([{"kind": "affine", "weights": [1.0]}]))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: experiment.functions[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1.9, True, -1, "1"], ids=["fractional", "bool", "negative", "text"])
def test_invalid_max_violations_rejected(value):
    # int() ran 1.9 as 1 and true as 1
    raw = {
        "model": base_model_block(2, 0.0),
        "experiment": {"kind": "mcmc_check", "max_violations": value},
        "sampler": {"chains": 8, "steps": 2000, "burn_in": 200, "proposal_std": 1.5, "seed": 1},
    }
    with pytest.raises(ConfigError, match="experiment.max_violations: must be a non-negative integer"):
        parse_config(raw)


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, 0.0, -1e-10, "1e-10"], ids=["inf", "nan", "zero", "negative", "text"]
)
def test_invalid_tolerance_rejected(value):
    raw = {"model": base_model_block(), "experiment": {"kind": "gaussian_sharpness", "tolerance": value}}
    with pytest.raises(ConfigError, match="experiment.tolerance: must be finite and positive"):
        parse_config(raw)


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
                "functions": [{"kind": "coordinate", "site": 0}, {"kind": "sin", "site": 0}],
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
    ra = load_report(tmp_path / "a" / "report.json")
    rb = load_report(tmp_path / "b" / "report.json")
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
    report = load_report(tmp_path / "o2" / "report.json")
    assert report["results"]["sampler"]["seed"] == 7


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
    A = interaction.interaction_from_model(cfg.model).A
    assert sum(np.array_equal(a, A) for a in inverted) == 1
    assert len(inverted) == 2  # A and the tilted matrix
