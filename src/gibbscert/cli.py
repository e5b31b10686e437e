"""Config-driven experiment runner.

Experiments are described by a strict JSON config (unknown keys are rejected
so a typo cannot silently weaken a certificate hypothesis), run a pipeline
for their kind, and write a deterministic report.json plus pair tables.  The
process exit status is 0 exactly when every enabled verification passed,
which makes certificates usable as CI assertions.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bnd
from ._blas import single_threaded
from .decay import algebraic_certificate, decay_profile, exponential_certificate
from .interaction import interaction_from_model, pi_criterion
from .lattice import distance_matrix, explicit_metric, periodic_grid
from .model import (
    Coupling,
    GibbsModel,
    SingleSitePotential,
    algebraic_coupling,
    explicit_coupling,
    kappa_matrix,
    nearest_neighbor_coupling,
    rho_vector,
)
from .oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from .oracles.mcmc import SamplerConfig, mcmc_covariance_matrix
from .oracles.potential import (
    GridSpec,
    PotentialSolver,
    potential_to_csv,
    verify_core_identity,
    verify_directional_pi,
    verify_dual_pi,
)
from .reporting import emit_pair_table, write_report, write_table

EXPERIMENT_KINDS = (
    "bound_report",
    "gaussian_sharpness",
    "pde_check",
    "mcmc_check",
    "exponential_certificate",
    "algebraic_certificate",
    "threshold_scan",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending path."""


def _check_keys(block: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _parse_geometry(block):
    _check_keys(block, "model.geometry", ("kind",), ("dimension", "side_lengths", "metric_table"))
    kind = block["kind"]
    if kind == "periodic_grid":
        _check_keys(block, "model.geometry", ("kind", "side_lengths"), ("dimension",))
        sides = block["side_lengths"]
        if "dimension" in block and block["dimension"] != len(sides):
            raise ConfigError("model.geometry: dimension disagrees with side_lengths")
        return periodic_grid(sides)
    if kind == "explicit":
        _check_keys(block, "model.geometry", ("kind", "metric_table"))
        return explicit_metric(block["metric_table"])
    raise ConfigError(f"model.geometry.kind: unknown kind {kind!r}")


def _parse_potential(block, path):
    _check_keys(block, path, ("q",), ("perturbation",))
    pert = block.get("perturbation", {"kind": "none"})
    _check_keys(pert, f"{path}.perturbation", ("kind",), ("amplitude", "frequency"))
    kind = pert["kind"]
    if kind == "none":
        _check_keys(pert, f"{path}.perturbation", ("kind",))
        return SingleSitePotential(q=float(block["q"]))
    if kind == "cosine":
        _check_keys(pert, f"{path}.perturbation", ("kind", "amplitude", "frequency"))
        return SingleSitePotential(
            q=float(block["q"]),
            perturbation="cosine",
            amplitude=float(pert["amplitude"]),
            frequency=float(pert["frequency"]),
        )
    raise ConfigError(f"{path}.perturbation.kind: unknown kind {kind!r}")


def _parse_coupling(block) -> Coupling:
    _check_keys(block, "model.coupling", ("kind",), ("epsilon", "c", "alpha", "d", "matrix"))
    kind = block["kind"]
    if kind == "nearest_neighbor":
        _check_keys(block, "model.coupling", ("kind", "epsilon"))
        return nearest_neighbor_coupling(float(block["epsilon"]))
    if kind == "algebraic":
        _check_keys(block, "model.coupling", ("kind", "c", "alpha", "d"))
        return algebraic_coupling(float(block["c"]), float(block["alpha"]), int(block["d"]))
    if kind == "explicit":
        _check_keys(block, "model.coupling", ("kind", "matrix"))
        return explicit_coupling(np.asarray(block["matrix"], dtype=float))
    raise ConfigError(f"model.coupling.kind: unknown kind {kind!r}")


def _parse_model(block) -> GibbsModel:
    _check_keys(block, "model", ("geometry", "coupling"), ("potential", "potentials"))
    geom = _parse_geometry(block["geometry"])
    if ("potential" in block) == ("potentials" in block):
        raise ConfigError("model: provide exactly one of 'potential' or 'potentials'")
    if "potential" in block:
        pots = _parse_potential(block["potential"], "model.potential")
    else:
        pots = tuple(
            _parse_potential(p, f"model.potentials[{i}]")
            for i, p in enumerate(block["potentials"])
        )
    coupling = _parse_coupling(block["coupling"])
    try:
        return GibbsModel(geometry=geom, potentials=pots, coupling=coupling)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


_EXPERIMENT_OPTIONS = {
    "bound_report": (),
    "gaussian_sharpness": ("tolerance",),
    "pde_check": ("functions", "core_identity"),
    "mcmc_check": ("compare", "max_violations"),
    "exponential_certificate": (),
    "algebraic_certificate": (),
    "threshold_scan": ("epsilons",),
}

_REQUIRES_SAMPLER = ("mcmc_check",)
_REQUIRES_GRID = ("pde_check",)
_PDE_FUNCTIONS = ("coordinate", "sin", "cubic", "affine")


def _is_int(value) -> bool:
    # int() would truncate 8.9 to 8 and read true as 1
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the largest double
        return False


def _check_pde_functions(specs, n_sites: int) -> None:
    if not isinstance(specs, list) or not specs:
        raise ConfigError("experiment.functions: pde_check needs at least one function")
    for k, spec in enumerate(specs):
        path = f"experiment.functions[{k}]"
        _check_keys(spec, path, ("kind",), ("site", "weights", "offset"))
        kind = spec["kind"]
        if kind not in _PDE_FUNCTIONS:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        site = spec.get("site", 0)
        if not _is_int(site) or not 0 <= site < n_sites:
            raise ConfigError(f"{path}: site must be an integer in [0, {n_sites}), got {site!r}")
        if kind == "affine":
            weights = spec.get("weights")
            if not isinstance(weights, list) or len(weights) != n_sites:
                raise ConfigError(f"{path}: affine needs {n_sites} weights, got {weights!r}")
            if not all(map(_is_finite, weights)) or not _is_finite(spec.get("offset", 0.0)):
                raise ConfigError(f"{path}: weights and offset must be finite numbers")


def _check_options(kind: str, options: dict, n_sites: int) -> None:
    """Reject experiment options that the runner would misread or fail on."""
    if kind == "threshold_scan":
        if "epsilons" not in options:
            raise ConfigError("experiment: threshold_scan needs the 'epsilons' block")
        try:
            bad = [e for e in options["epsilons"] if not np.isfinite(float(e))]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"experiment.epsilons: {exc}") from exc
        if bad:
            raise ConfigError(f"experiment.epsilons: every epsilon must be finite, got {bad}")
    if "functions" in options:
        _check_pde_functions(options["functions"], n_sites)
    if "max_violations" in options:
        value = options["max_violations"]
        if not _is_int(value) or value < 0:
            raise ConfigError(f"experiment.max_violations: must be a non-negative integer, got {value!r}")
    if "tolerance" in options:
        value = options["tolerance"]
        if not _is_finite(value) or value <= 0:
            raise ConfigError(f"experiment.tolerance: must be finite and positive, got {value!r}")


@dataclass
class ExperimentConfig:
    model: GibbsModel
    kind: str
    options: dict
    sampler: SamplerConfig | None
    grid: GridSpec | None
    out_path: str
    out_format: str
    echo: dict


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", ("model", "experiment"), ("sampler", "grid", "output"))
    model = _parse_model(raw["model"])

    exp = raw["experiment"]
    if not isinstance(exp, dict):
        raise ConfigError("experiment: expected an object")
    kind = exp.get("kind")
    if kind is None:
        raise ConfigError("experiment: missing required key 'kind'")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    _check_keys(exp, "experiment", ("kind",), _EXPERIMENT_OPTIONS[kind])
    options = {k: v for k, v in exp.items() if k != "kind"}
    _check_options(kind, options, model.n_sites)

    sampler = None
    if "sampler" in raw:
        _check_keys(raw["sampler"], "sampler", ("chains", "steps", "burn_in", "proposal_std", "seed"))
        counts = {}
        for key in ("chains", "steps", "burn_in", "seed"):
            value = raw["sampler"][key]
            if not _is_int(value):
                raise ConfigError(f"sampler: {key} must be an integer, got {value!r}")
            counts[key] = int(value)
        try:
            sampler = SamplerConfig(proposal_std=float(raw["sampler"]["proposal_std"]), **counts)
        except ValueError as exc:
            raise ConfigError(f"sampler: {exc}") from exc
    elif kind in _REQUIRES_SAMPLER:
        raise ConfigError(f"config: experiment kind {kind!r} needs the 'sampler' block")

    grid = None
    if "grid" in raw:
        _check_keys(raw["grid"], "grid", ("L", "h"))
        try:
            grid = GridSpec(box_halfwidth=float(raw["grid"]["L"]), spacing=float(raw["grid"]["h"]))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    elif kind in _REQUIRES_GRID:
        raise ConfigError(f"config: experiment kind {kind!r} needs the 'grid' block")

    out_path, out_format = "out", "csv"
    if "output" in raw:
        _check_keys(raw["output"], "output", (), ("path", "format"))
        out_path = raw["output"].get("path", out_path)
        out_format = raw["output"].get("format", out_format)
        if out_format not in ("json", "csv"):
            raise ConfigError("output.format: must be 'json' or 'csv'")

    return ExperimentConfig(
        model=model,
        kind=kind,
        options=options,
        sampler=sampler,
        grid=grid,
        out_path=out_path,
        out_format=out_format,
        echo=raw,
    )


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


def _pair_rows(delta, bound, oracle=None, tol=None, ok=None) -> dict:
    """Pair-table columns over unordered pairs (diagonal included), row-major.

    ``ok`` is the per-pair check against the oracle as a boolean matrix;
    without it every verdict is "unchecked".
    """
    i, j = np.triu_indices(delta.shape[0])
    if ok is None:
        verdict = np.full(i.size, "unchecked")
    else:
        verdict = np.where(ok[i, j], "pass", "fail")
    return {
        "i": i,
        "j": j,
        "delta_ij": delta[i, j],
        "bound": bound[i, j],
        "oracle_value": None if oracle is None else oracle[i, j],
        "stderr_or_tol": None if tol is None else tol[i, j],
        "verdict": verdict,
    }


def _gaussian_rows(model: GibbsModel, delta, bound) -> dict:
    """Pair rows of ``bound``, checked against the exact covariance when the
    model is Gaussian: |cov| <= bound + tol with tol = 1e-10 max|cov|."""
    if not model.gaussian:
        return _pair_rows(delta, bound)
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    tol = 1e-10 * float(np.max(np.abs(cov)))
    return _pair_rows(delta, bound, cov, np.full_like(cov, tol), np.abs(cov) <= bound + tol)


def _failures(rows) -> int:
    return 0 if rows is None else int(np.count_nonzero(rows["verdict"] == "fail"))


def _model_constants(model: GibbsModel) -> dict:
    kappa = kappa_matrix(model)
    return {
        "rho": rho_vector(model).tolist(),
        "kappa_max_row_sum": float(np.max(kappa.sum(axis=1))),
        "n_sites": model.n_sites,
    }


def _run_bound_report(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    im = interaction_from_model(model)
    delta = distance_matrix(model.geometry)
    constants = _model_constants(model)
    try:
        inv = im.inverse()
    except ValueError:
        return {"constants": constants, "error": "interaction matrix not positive definite"}, None, False
    constants["lambda_min_A"] = pi_criterion(im.A)
    rows = _gaussian_rows(model, delta, inv)
    return {"constants": constants}, rows, _failures(rows) == 0


def _run_gaussian_sharpness(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    tolerance = float(cfg.options.get("tolerance", 1e-10))
    if not model.gaussian:
        raise ConfigError("gaussian_sharpness: model must be Gaussian (no perturbation)")
    gm = gaussian_from_model(model)
    if not gm.ferromagnetic:
        raise ConfigError("gaussian_sharpness: coupling must be ferromagnetic")
    im = interaction_from_model(model)
    inv = im.inverse()
    cov = gaussian_exact_covariance(gm)
    delta = distance_matrix(model.geometry)
    gaps = np.abs(inv - cov) / np.maximum(np.abs(cov), 1e-300)
    max_gap = float(np.max(gaps))
    tol = np.full_like(cov, tolerance)
    rows = _pair_rows(delta, inv, cov, tol, gaps <= tolerance)
    results = {
        "constants": _model_constants(model),
        "max_relative_gap": max_gap,
        "tolerance": tolerance,
    }
    return results, rows, max_gap <= tolerance


def _pde_observable(spec: dict, model: GibbsModel, grid: GridSpec):
    """The observable of one experiment.functions entry (checked by _check_pde_functions)."""
    kind = spec["kind"]
    n = model.n_sites
    site = spec.get("site", 0)
    if kind == "affine":
        return bnd.affine(np.asarray(spec["weights"], float), float(spec.get("offset", 0.0)))
    if kind == "coordinate":
        return bnd.coordinate(site, n)
    if kind == "sin":
        return bnd.single_site_function(site, n, np.sin, 1.0)
    L = grid.box_halfwidth  # cubic
    return bnd.single_site_function(site, n, lambda x: x**3, 3.0 * L**2)


def _run_pde_check(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    if model.n_sites > 2:
        raise ConfigError("pde_check: grid oracle supports at most 2 sites")
    im = interaction_from_model(model)
    specs = cfg.options.get("functions", [{"kind": "coordinate", "site": 0}])
    rho_full = pi_criterion(im.A)
    observables = [_pde_observable(spec, model, cfg.grid) for spec in specs]
    fields = PotentialSolver(model, cfg.grid).solve_many(observables)
    potential_to_csv(fields[0], out_dir / "phi.csv")
    checks = []
    all_ok = True
    for spec, pf in zip(specs, fields):
        direction = verify_directional_pi(pf, im)
        entry = {
            "function": spec,
            "residual": pf.residual,
            "tol_grid": direction.tol_grid,
            "margins": direction.margins.tolist(),
            "directional_pi_passed": direction.passed,
        }
        all_ok &= direction.passed
        if rho_full is not None:
            dual = verify_dual_pi(pf, rho_full)
            entry["dual_pi_margin"] = dual.margins
            entry["dual_pi_passed"] = dual.passed
            all_ok &= dual.passed
        rep_checks = []
        for j in range(model.n_sites):
            g = bnd.coordinate(j, model.n_sites)
            gv = pf.evaluate(g)
            rep = pf.covariance_via_representation(gv)
            direct = pf.covariance_direct(gv)
            ok = abs(rep - direct) <= direction.tol_grid
            rep_checks.append(
                {"g_site": j, "representation": rep, "direct": direct, "passed": ok}
            )
            all_ok &= ok
        entry["covariance_representation"] = rep_checks
        if cfg.options.get("core_identity", False):
            entry["core_identity_residual"] = verify_core_identity(pf)
        checks.append(entry)
    results = {
        "constants": _model_constants(model),
        "lambda_min_A": rho_full,
        "functions": checks,
    }
    return results, None, bool(all_ok)


def _run_mcmc_check(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    est, err, rate = mcmc_covariance_matrix(model, cfg.sampler)
    delta = distance_matrix(model.geometry)
    mode = cfg.options.get("compare", "exact" if model.gaussian else "bound")
    if mode == "exact":
        if not model.gaussian:
            raise ConfigError("mcmc_check: exact comparison needs a Gaussian model")
        target = gaussian_exact_covariance(gaussian_from_model(model))
        max_violations = cfg.options.get("max_violations", 1)
        ok = np.abs(est - target) <= 3.0 * err
        rows = _pair_rows(delta, target, est, 3.0 * err, ok)
    elif mode == "bound":
        im = interaction_from_model(model)
        bound = im.inverse()
        max_violations = cfg.options.get("max_violations", 0)
        ok = np.abs(est) <= bound + 3.0 * err
        rows = _pair_rows(delta, bound, est, 3.0 * err, ok)
    else:
        raise ConfigError("mcmc_check.compare: must be 'exact' or 'bound'")
    violations = _failures(rows)
    results = {
        "constants": _model_constants(model),
        "acceptance_rate": rate,
        "compare": mode,
        "violations": violations,
        "max_violations": max_violations,
        "sampler": asdict(cfg.sampler),
    }
    return results, rows, violations <= max_violations


def _write_decay_csv(im, geom, out_dir: Path, euclidean: bool) -> None:
    dist = distance_matrix(geom, euclidean=euclidean)
    profile = np.array(decay_profile(im.inverse(), dist), dtype=float).reshape(-1, 2)
    write_table(("distance", "max_abs_inverse"), profile.T, out_dir / "decay.csv")


def _run_exponential_certificate(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    im = interaction_from_model(model)
    cert = exponential_certificate(im, model.geometry)
    delta = distance_matrix(model.geometry)
    rows = None
    if cert.passed:
        rows = _gaussian_rows(model, delta, cert.prefactor * np.exp(-delta))
        _write_decay_csv(im, model.geometry, out_dir, euclidean=False)
    results = {"constants": _model_constants(model), "certificate": cert.to_dict()}
    passed = cert.passed and _failures(rows) == 0
    return results, rows, passed


def _run_algebraic_certificate(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    if model.coupling.kind != "algebraic":
        raise ConfigError("algebraic_certificate: model coupling must be algebraic")
    im = interaction_from_model(model)
    geom = model.geometry
    cert = algebraic_certificate(im, geom, model.coupling.alpha)
    rows = None
    if cert.passed:
        r = distance_matrix(geom, euclidean=True)
        bound = cert.prefactor / (r**cert.exponent + 1.0)
        inv = im.inverse()
        scale = float(np.max(inv))
        tol = np.full_like(inv, 1e-10 * scale)
        rows = _pair_rows(r, bound, inv, tol, inv <= bound * (1 + 1e-10) + 1e-300)
        _write_decay_csv(im, geom, out_dir, euclidean=True)
    results = {"constants": _model_constants(model), "certificate": cert.to_dict()}
    passed = cert.passed and _failures(rows) == 0
    return results, rows, passed


def _run_threshold_scan(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    scan = []
    first_refused = None
    for eps in cfg.options["epsilons"]:
        variant = GibbsModel(
            geometry=model.geometry,
            potentials=model.potentials,
            coupling=nearest_neighbor_coupling(float(eps)),
        )
        cert = bnd.nearest_neighbor_certificate(variant)
        scan.append(
            {
                "epsilon": float(eps),
                "passed": cert.passed,
                "margin": cert.margin,
                "prefactor": cert.prefactor,
                "threshold": cert.threshold,
            }
        )
        if not cert.passed and first_refused is None:
            first_refused = float(eps)
    results = {
        "constants": _model_constants(model),
        "scan": scan,
        "first_refused_epsilon": first_refused,
    }
    return results, None, True


_RUNNERS = {
    "bound_report": _run_bound_report,
    "gaussian_sharpness": _run_gaussian_sharpness,
    "pde_check": _run_pde_check,
    "mcmc_check": _run_mcmc_check,
    "exponential_certificate": _run_exponential_certificate,
    "algebraic_certificate": _run_algebraic_certificate,
    "threshold_scan": _run_threshold_scan,
}


def run_experiment(cfg: ExperimentConfig, out_dir) -> tuple[dict, bool]:
    """Run the configured pipeline; write report.json (+ pairs.csv) into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    with single_threaded():
        results, pairs, passed = _RUNNERS[cfg.kind](cfg, out_dir)
    report = {
        "config": cfg.echo,
        "experiment": cfg.kind,
        "results": results,
        "pass": bool(passed),
        "meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "elapsed_s": time.time() - start},
    }
    write_report(report, out_dir / "report.json")
    if pairs is not None and cfg.out_format == "csv":
        emit_pair_table(pairs, out_dir / "pairs.csv")
    return report, bool(passed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbscert",
        description="Run covariance-bound certificates and oracle comparisons.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config output.path or ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the sampler seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if cfg.sampler is None:
            print("config error: --seed given but config has no sampler block", file=sys.stderr)
            return 2
        cfg.sampler = replace(cfg.sampler, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_path)
    try:
        report, passed = run_experiment(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not passed:
        print(f"verification failed: {cfg.kind}", file=sys.stderr)
        return 1
    print(f"{cfg.kind}: all checks passed ({out_dir / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
