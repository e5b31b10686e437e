"""Config-driven experiment runner.

Experiments are described by a strict JSON config, checked against the
schema ``_CONFIG`` before any work starts so a typo or a bad value cannot
silently weaken a certificate hypothesis, run a pipeline for their kind, and
write a deterministic report.json, plus pairs.csv from the n x n matrices
that a runner hands to reporting.emit_pair_table.  The exit status is 0
exactly when every enabled verification passed, 1 when one failed and 2 for
a bad config, which makes certificates usable as CI assertions.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import reprlib
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bnd
from ._blas import single_threaded
from .decay import AUDIT_RTOL, algebraic_certificate, exponential_certificate
from .interaction import NotPositiveDefinite, interaction_from_model, pi_criterion
from .lattice import LatticeGeometry, distance_matrix, explicit_metric, periodic_grid, physical_memory
from .model import (
    Coupling,
    GibbsModel,
    SingleSitePotential,
    algebraic_coupling,
    explicit_coupling,
    nearest_neighbor_coupling,
    rho_vector,
)
from .oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from .oracles.mcmc import (
    ALLOWED_VIOLATIONS,
    STDERR_MULTIPLE,
    SamplerConfig,
    false_fail_probability,
    mcmc_covariance_matrix,
)
from .oracles.potential import (
    GridError,
    GridSpec,
    PotentialSolver,
    check_grid,
    potential_to_csv,
    verify_core_identity,
    verify_directional_pi,
    verify_dual_pi,
)
from .reporting import emit_pair_table, write_report, write_table


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending path."""


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


def _is_matrix(v) -> bool:
    # numpy reads [[0, True]] as the int64 table [[0, 1]], so bools are looked for
    # row by row (0.24 ms on a 96 x 96 table, 2-core Xeon), and the rest is one numpy pass
    if isinstance(v, list) and any(isinstance(row, list) and bool in set(map(type, row)) for row in v):
        return False
    try:
        table = np.asarray(v)
    except ValueError:  # ragged rows
        return False
    return table.dtype.kind in "iuf" and table.ndim == 2 and bool(np.all(np.isfinite(table)))


class _Leaf(NamedTuple):
    what: str  # completes "must be ..."
    ok: Callable[[object], bool]


class _Opt(NamedTuple):  # an optional key; every other key is required
    rule: object


class _ListOf(NamedTuple):  # a non-empty list of items that follow `item`
    item: object


class _Kinds(dict):  # an object whose "kind" picks its key set: {kind: {key: rule}}
    pass


_INT = _Leaf("an integer", _is_int)
_COUNT = _Leaf("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_POSITIVE_INT = _Leaf("a positive integer", lambda v: _is_int(v) and v > 0)
_REAL = _Leaf("a finite number", _is_finite)
_POSITIVE = _Leaf("a finite positive number", lambda v: _is_finite(v) and v > 0)
_MATRIX = _Leaf("a 2-D table of finite numbers", _is_matrix)
_STRING = _Leaf("a string", lambda v: isinstance(v, str))
_POTENTIAL = {
    "q": _POSITIVE,
    "perturbation": _Opt(_Kinds(none={}, cosine={"amplitude": _REAL, "frequency": _REAL})),
}
_SITE = {"site": _Opt(_COUNT)}
_FUNCTION = _Kinds(
    coordinate=_SITE, sin=_SITE, cubic=_SITE, affine={"weights": _ListOf(_REAL), "offset": _Opt(_REAL)}
)
# Every key of a config, once; _check_fit holds the checks that need the built
# model. The constructors check values again for callers that skip the CLI.
_CONFIG = {
    "model": {
        "geometry": _Kinds(
            periodic_grid={"side_lengths": _ListOf(_POSITIVE_INT)},
            explicit={"metric_table": _MATRIX},
        ),
        "potential": _Opt(_POTENTIAL),
        "potentials": _Opt(_ListOf(_POTENTIAL)),
        "coupling": _Kinds(
            nearest_neighbor={"epsilon": _REAL},
            algebraic={"c": _POSITIVE, "alpha": _POSITIVE, "d": _POSITIVE_INT},
            explicit={"matrix": _MATRIX},
        ),
    },
    "experiment": _Kinds(
        bound_report={},
        gaussian_sharpness={},
        pde_check={
            "functions": _Opt(_ListOf(_FUNCTION)),
            "core_identity": _Opt(_Leaf("true or false", lambda v: isinstance(v, bool))),
        },
        mcmc_check={},
        exponential_certificate={},
        algebraic_certificate={},
        threshold_scan={"epsilons": _ListOf(_REAL)},
    ),
    "sampler": _Opt(
        {
            "chains": _Leaf("an integer >= 2", lambda v: _is_int(v) and v >= 2),
            "steps": _POSITIVE_INT,
            "burn_in": _COUNT,
            "proposal_std": _POSITIVE,
            "seed": _INT,
        }
    ),
    "grid": _Opt({"L": _POSITIVE, "h": _POSITIVE}),
    "output": _Opt({"path": _Opt(_STRING)}),
}
EXPERIMENT_KINDS = tuple(_CONFIG["experiment"])


def _walk(value, rule, path: str) -> None:
    """Raise ConfigError at the first part of ``value`` that breaks ``rule``."""
    where = path or "config"
    if isinstance(rule, _Leaf):
        if not rule.ok(value):
            raise ConfigError(f"{where}: must be {rule.what}, got {reprlib.repr(value)}")
        return
    if isinstance(rule, _ListOf):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: must be a non-empty list, got {reprlib.repr(value)}")
        for i, item in enumerate(value):
            _walk(item, rule.item, f"{path}[{i}]")
        return
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object, got {reprlib.repr(value)}")
    if isinstance(rule, _Kinds):
        if "kind" not in value:
            raise ConfigError(f"{where}: missing required key 'kind'")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in rule:
            raise ConfigError(f"{where}.kind: unknown kind {reprlib.repr(kind)}")
        rule = {"kind": _STRING, **rule[kind]}
    for key in value:
        if key not in rule:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key, sub in rule.items():
        if key in value:
            _walk(value[key], sub.rule if isinstance(sub, _Opt) else sub, f"{path}.{key}" if path else key)
        elif not isinstance(sub, _Opt):
            raise ConfigError(f"{where}: missing required key {key!r}")


# the config value to change for each GridError cause; {} is the potential's block
_GRID_KEYS = {
    "n_sites": "model.geometry",
    "box_halfwidth": "grid.L",
    "amplitude": "{}.perturbation.amplitude",
    "spacing": "grid.h",
}


def _potential_block(raw: dict, site: int) -> str:
    """The config block that sets the potential of ``site``."""
    return "model.potential" if "potential" in raw["model"] else f"model.potentials[{site}]"


def _check_fit(raw: dict, options: dict, model: GibbsModel, grid: GridSpec | None) -> None:
    """The checks that need the built model and grid, once the schema walk has passed."""
    kind, n, geometry = raw["experiment"]["kind"], model.n_sites, model.geometry
    try:
        interaction_from_model(model)  # kept on the model for the run
    except ValueError as exc:  # the only value build_interaction_matrix can refuse here is a rho that underflowed
        block = _potential_block(raw, int(np.argmin(rho_vector(model))))
        raise ConfigError(f"{block}: rho = q exp(-2|amplitude|) underflows to a subnormal or 0") from exc
    for k, spec in enumerate(options.get("functions", ())):
        path = f"experiment.functions[{k}]"
        if spec.get("site", 0) >= n:
            raise ConfigError(f"{path}.site: must be an integer in [0, {n}), got {spec['site']}")
        if spec["kind"] == "affine" and len(spec["weights"]) != n:
            raise ConfigError(f"{path}.weights: affine needs {n} weights, got {reprlib.repr(spec['weights'])}")
    for block, needed_by in (("sampler", "mcmc_check"), ("grid", "pde_check")):
        if kind == needed_by and block not in raw:
            raise ConfigError(f"{block}: experiment kind {kind!r} needs the {block!r} block")
    if kind == "pde_check":
        try:
            n_functions = len(options["functions"])
            check_grid(model, grid.box_halfwidth, grid.nodes_per_axis, options["core_identity"], n_functions)
        except GridError as exc:  # an amplitude is blamed at the largest one
            block = _potential_block(raw, int(np.argmax(np.abs(model.amplitude))))
            raise ConfigError(f"{_GRID_KEYS[exc.cause].format(block)}: {exc}") from exc
    if kind == "algebraic_certificate" and model.coupling.kind != "algebraic":
        raise ConfigError("model.coupling.kind: algebraic_certificate needs an algebraic coupling")
    if kind == "gaussian_sharpness" and not model.gaussian:
        raise ConfigError("experiment.kind: gaussian_sharpness needs a Gaussian model (every amplitude 0)")
    if kind == "gaussian_sharpness" and not np.all(model.coupling_matrix() >= 0):
        leaf = "matrix" if model.coupling.kind == "explicit" else "epsilon"  # algebraic couplings have c > 0
        raise ConfigError(f"model.coupling.{leaf}: gaussian_sharpness needs a ferromagnetic coupling, J >= 0")
    if kind == "threshold_scan" and (geometry.kind, geometry.dimension) != ("periodic_grid", 2):
        raise ConfigError("model.geometry: threshold_scan needs a 2D periodic grid")


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a constructor's ValueError is reported at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_geometry(block):
    if block["kind"] == "periodic_grid":
        return periodic_grid(block["side_lengths"])
    return explicit_metric(block["metric_table"])


def _parse_potential(block):
    pert = block.get("perturbation", {})
    return SingleSitePotential(
        q=float(block["q"]),
        amplitude=float(pert.get("amplitude", 0.0)),
        frequency=float(pert.get("frequency", 0.0)),
    )


def _parse_coupling(block) -> Coupling:
    if block["kind"] == "nearest_neighbor":
        return nearest_neighbor_coupling(float(block["epsilon"]))
    if block["kind"] == "algebraic":
        return algebraic_coupling(float(block["c"]), float(block["alpha"]), block["d"])
    return explicit_coupling(np.asarray(block["matrix"], dtype=float))


def _parse_model(block, geometry: LatticeGeometry) -> GibbsModel:
    if "potential" in block:
        pots = _parse_potential(block["potential"])
    else:
        pots = tuple(map(_parse_potential, block["potentials"]))
    return GibbsModel(geometry, pots, _parse_coupling(block["coupling"]))


# n x n doubles a request holds at once; the costliest runner, algebraic_certificate,
# traces 17.6 at n = 256 and 512 (the exponential certificate 11.4, the others 9-11)
PEAK_DENSE_ARRAYS = 18


def _check_dense_fits(geometry: LatticeGeometry) -> None:
    """Refuse a model whose PEAK_DENSE_ARRAYS n x n arrays of doubles exceed physical memory."""
    n, memory = geometry.n_sites, physical_memory()
    if 8 * PEAK_DENSE_ARRAYS * n * n > memory:  # exact in ints, past the double range too
        raise ConfigError(
            f"model.geometry: {PEAK_DENSE_ARRAYS} arrays of n x n doubles for n = {n} sites "
            f"exceed the {memory:.3e} bytes of physical memory"
        )


@dataclass
class ExperimentConfig:
    model: GibbsModel
    kind: str
    options: dict
    sampler: SamplerConfig | None
    grid: GridSpec | None
    out_path: str
    echo: dict


def parse_config(raw: dict) -> ExperimentConfig:
    _walk(raw, _CONFIG, "")
    if ("potential" in raw["model"]) == ("potentials" in raw["model"]):
        raise ConfigError("model: provide exactly one of 'potential' or 'potentials'")
    geometry = _built("model", _parse_geometry, raw["model"]["geometry"])
    _check_dense_fits(geometry)  # before any n x n array
    model = _built("model", _parse_model, raw["model"], geometry)
    sampler = grid = None
    if "grid" in raw:
        grid = _built("grid", GridSpec, float(raw["grid"]["L"]), float(raw["grid"]["h"]))
    options = {k: v for k, v in raw["experiment"].items() if k != "kind"}
    if raw["experiment"]["kind"] == "pde_check":
        options.setdefault("functions", [{"kind": "coordinate", "site": 0}])  # one coordinate by default
        options.setdefault("core_identity", False)
    _check_fit(raw, options, model, grid)
    if "sampler" in raw:
        s = raw["sampler"]
        sampler = _built("sampler", SamplerConfig, **{**s, "proposal_std": float(s["proposal_std"])})
        _built("sampler.steps", sampler.sweeps, model.n_sites)
    output = raw.get("output", {})
    return ExperimentConfig(
        model=model,
        kind=raw["experiment"]["kind"],
        options=options,
        sampler=sampler,
        grid=grid,
        out_path=output.get("path", "out"),
        echo=raw,
    )


def load_config(path) -> ExperimentConfig:
    def unique_keys(pairs):
        block = {}
        for key, value in pairs:
            if key in block:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            block[key] = value
        return block

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


def _exact_covariance(model: GibbsModel) -> np.ndarray:
    """P^-1 of a Gaussian model: A's cached inverse where P is bitwise A (J >= 0), else P's own."""
    im, precision = interaction_from_model(model), gaussian_from_model(model)
    if np.array_equal(precision.view(np.uint64), im.A.view(np.uint64)):  # bits, so -0.0 vs +0.0 factors P
        return im.inverse()
    return gaussian_exact_covariance(precision)


def _gaussian_pairs(model: GibbsModel, delta, bound) -> dict:
    """The pair table of ``bound``, checked against the exact covariance when
    the model is Gaussian: |cov| <= bound + tol with tol = AUDIT_RTOL max|cov|."""
    if not model.gaussian:
        return dict(delta_ij=delta, bound=bound)
    cov = _exact_covariance(model)
    tol = AUDIT_RTOL * float(np.max(np.abs(cov)))
    return dict(delta_ij=delta, bound=bound, oracle_value=cov, stderr_or_tol=tol, ok=np.abs(cov) <= bound + tol)


def _failures(pairs) -> int:  # the pairs.csv rows whose check fails
    ok = None if pairs is None else pairs.get("ok")
    return 0 if ok is None else int(np.count_nonzero(np.triu(~ok)))


def _run_bound_report(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    im = interaction_from_model(model)
    pairs = _gaussian_pairs(model, distance_matrix(model.geometry), im.inverse())
    return {"constants": {"lambda_min_A": pi_criterion(im)}}, pairs, _failures(pairs) == 0


def _run_gaussian_sharpness(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    inv = interaction_from_model(model).inverse()
    cov = _exact_covariance(model)
    delta = distance_matrix(model.geometry)
    gaps = np.abs(inv - cov) / np.maximum(np.abs(cov), 1e-300)
    max_gap = float(np.max(gaps))
    pairs = dict(delta_ij=delta, bound=inv, oracle_value=cov, stderr_or_tol=AUDIT_RTOL, ok=gaps <= AUDIT_RTOL)
    return {"max_relative_gap": max_gap, "tolerance": AUDIT_RTOL}, pairs, max_gap <= AUDIT_RTOL


def _pde_observable(spec: dict, model: GibbsModel, grid: GridSpec):
    """The observable of one experiment.functions entry (checked by _walk and _check_fit)."""
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
    im = interaction_from_model(model)
    specs = cfg.options["functions"]
    rho_full = pi_criterion(im)
    im.inverse()  # refuses a matrix that is not positive definite before the grid solve
    observables = [_pde_observable(spec, model, cfg.grid) for spec in specs]
    fields = PotentialSolver(model, cfg.grid).solve_many(observables)
    potential_to_csv(fields[0], out_dir / "phi.csv")
    checks = []
    all_ok = True
    for spec in specs:
        pf = fields.pop(0)  # the field before is dropped here
        coordinates = [pf.coordinate(j) for j in range(model.n_sites)]
        # one pass over phi's differences: its energies, kept on the field, and each coordinate's representation
        pf.phi_energies, *representations = pf.gradient_pairs(pf.phi, pf.phi, *coordinates)
        direction = verify_directional_pi(pf)
        entry = {
            "function": spec,
            "residual": pf.residual,
            "tol_grid": direction.tol_grid,
            "margins": direction.margins.tolist(),
            "directional_pi_passed": direction.passed,
        }
        all_ok &= direction.passed
        if rho_full is not None:
            dual = verify_dual_pi(pf)
            entry["dual_pi_margin"] = dual.margins
            entry["dual_pi_passed"] = dual.passed
            all_ok &= dual.passed
        rep_checks = []
        for j, (gv, pairs) in enumerate(zip(coordinates, representations)):
            rep = sum(pairs)
            direct = pf.covariance_direct(gv)
            ok = abs(rep - direct) <= direction.tol_grid
            rep_checks.append(
                {"g_site": j, "representation": rep, "direct": direct, "passed": ok}
            )
            all_ok &= ok
        entry["covariance_representation"] = rep_checks
        if cfg.options["core_identity"]:
            entry["core_identity_residual"] = verify_core_identity(pf)
        checks.append(entry)
    results = {
        "lambda_min_A": rho_full,
        "functions": checks,
    }
    return results, None, bool(all_ok)


def _run_mcmc_check(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    # a Gaussian model against its exact covariance, any other against the bound A^-1; inverted before sampling
    mode = "exact" if model.gaussian else "bound"
    target = _exact_covariance(model) if model.gaussian else interaction_from_model(model).inverse()
    max_violations = ALLOWED_VIOLATIONS[mode]
    try:
        est, err, rate = mcmc_covariance_matrix(model, cfg.sampler)
    except ValueError as exc:  # no chain moved a coordinate, e.g. every proposal was refused
        return {"error": str(exc)}, None, False
    tol = STDERR_MULTIPLE * err
    ok = np.abs(est - target) <= tol if model.gaussian else np.abs(est) <= target + tol
    pairs = dict(delta_ij=distance_matrix(model.geometry), bound=target, oracle_value=est, stderr_or_tol=tol, ok=ok)
    violations = _failures(pairs)
    results = {
        "acceptance_rate": rate,
        "compare": mode,
        "violations": violations,
        "max_violations": max_violations,
        "nominal_false_fail_probability": false_fail_probability(
            cfg.sampler.chains, model.n_sites * (model.n_sites + 1) // 2, max_violations
        ),
        "sampler": asdict(cfg.sampler),
    }
    return results, pairs, violations <= max_violations


def _write_decay_csv(profile: list, out_dir: Path) -> None:
    """decay.csv from a certificate's decay_profile rows."""
    rows = np.array(profile, dtype=float).reshape(-1, 2)
    write_table(("distance", "max_abs_inverse"), rows.T, out_dir / "decay.csv")


def _run_exponential_certificate(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    im = interaction_from_model(model)
    cert = exponential_certificate(im, model.geometry)
    pairs = None
    if cert.passed:
        pairs = _gaussian_pairs(model, distance_matrix(model.geometry), cert.bound)
        _write_decay_csv(cert.profile, out_dir)
    return {"certificate": cert.to_dict()}, pairs, cert.passed and _failures(pairs) == 0


def _run_algebraic_certificate(cfg: ExperimentConfig, out_dir: Path):
    model = cfg.model
    im = interaction_from_model(model)
    geom = model.geometry
    cert = algebraic_certificate(im, geom, model.coupling.alpha)
    pairs = None
    if cert.passed:
        r = distance_matrix(geom, euclidean=True)
        inv = im.inverse()
        tol = AUDIT_RTOL * float(np.max(inv))
        pairs = dict(delta_ij=r, bound=cert.bound, oracle_value=inv, stderr_or_tol=tol, ok=cert.bound_ok)
        _write_decay_csv(cert.profile, out_dir)
    return {"certificate": cert.to_dict()}, pairs, cert.passed and _failures(pairs) == 0


def _run_threshold_scan(cfg: ExperimentConfig, out_dir: Path):
    scan = []
    for eps in cfg.options["epsilons"]:
        cert = bnd.nearest_neighbor_certificate(replace(cfg.model, coupling=nearest_neighbor_coupling(float(eps))))
        row = {key: cert.constants[key] for key in ("margin", "threshold")}
        scan.append({"epsilon": float(eps), "passed": cert.passed, "prefactor": cert.prefactor, **row})
    first_refused = next((row["epsilon"] for row in scan if not row["passed"]), None)
    return {"scan": scan, "first_refused_epsilon": first_refused}, None, True


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
    """Run the configured pipeline; write report.json (+ pairs.csv) into out_dir.

    Every kind reports the model's constants.  A run that meets a matrix that
    is not positive definite writes a report with an ``error`` entry and fails.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    im = interaction_from_model(cfg.model)
    with np.errstate(over="ignore"):  # a row sum past the double range is recorded as "inf"
        constants = {"rho": im.rho.tolist(), "kappa_max_row_sum": float(np.max(im.kappa.sum(axis=1))), "n_sites": im.n}
    with single_threaded():
        try:
            results, pairs, passed = _RUNNERS[cfg.kind](cfg, out_dir)
        except NotPositiveDefinite:  # a Gaussian precision P fails only with A: lambda_min(A) <= lambda_min(P)
            results, pairs, passed = {"error": "interaction matrix not positive definite"}, None, False
    results["constants"] = {**constants, **results.get("constants", {})}
    report = {
        "config": cfg.echo,
        "experiment": cfg.kind,
        "results": results,
        "pass": bool(passed),
        "meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "elapsed_s": time.time() - start},
    }
    write_report(report, out_dir / "report.json")
    if pairs is not None:
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
    except (OSError, ValueError) as exc:  # an unreadable file, a ConfigError or a constructor's check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if cfg.sampler is None:
            print("config error: --seed given but config has no sampler block", file=sys.stderr)
            return 2
        cfg.sampler = replace(cfg.sampler, seed=args.seed)
        # the echoed config must rerun this run
        cfg.echo = {**cfg.echo, "sampler": {**cfg.echo["sampler"], "seed": args.seed}}
    out_dir = Path(args.out) if args.out else Path(cfg.out_path)
    report, passed = run_experiment(cfg, out_dir)
    if not passed:
        print(f"verification failed: {cfg.kind}", file=sys.stderr)
        return 1
    print(f"{cfg.kind}: all checks passed ({out_dir / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
