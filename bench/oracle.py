"""Correctness checks for benchmark requests, independent of gibbscert.

Everything here is rebuilt from the raw config with numpy alone: the metric,
the coupling matrix J, the certified constants rho_i = q_i exp(-2|a_i|), the
interaction matrix A = diag(rho) - |J|, the tilted matrix
A~ = diag(rho) - exp(delta) * |J|, and (for Gaussian models, where
A = diag(q) - J is the precision) the exact covariance A^-1.

A request fails when it raised, when a deterministic verdict disagrees with
the mathematics, or when a printed bound is below the quantity it bounds.
MCMC verdicts depend on the samples and are counted apart.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

BOUND_RTOL = 1e-10  # printed bounds may sit this far (times max |A^-1|) below A^-1
CLAMP = 1e-12  # gibbscert zeroes entries of A^-1 at or below this magnitude
VALUE_RTOL = 1e-8  # reported constants and quadratures must match ours this closely


def _grid_distances(sides):
    coords = np.indices(sides).reshape(len(sides), -1).T
    gaps = np.abs(coords[:, None, :] - coords[None, :, :])
    gaps = np.minimum(gaps, np.asarray(sides) - gaps)
    return gaps.sum(axis=2).astype(float), np.sqrt((gaps**2).sum(axis=2))


class Model:
    """The matrices of a config's model, built without gibbscert."""

    def __init__(self, raw: dict):
        geom, coup = raw["geometry"], raw["coupling"]
        if geom["kind"] == "explicit":
            self.delta = np.asarray(geom["metric_table"], dtype=float)
            self.dim = 0
        else:
            sides = geom["side_lengths"]
            self.delta, self.r = _grid_distances(sides)
            self.dim = len(sides)
        n = self.delta.shape[0]
        pots = raw.get("potentials") or [raw["potential"]] * n
        self.q = np.array([p["q"] for p in pots], dtype=float)
        self.amp = np.array([p.get("perturbation", {}).get("amplitude", 0.0) for p in pots])
        self.gaussian = not np.any(self.amp)
        if coup["kind"] == "nearest_neighbor":
            J = np.where(self.delta == 1.0, coup["epsilon"], 0.0)
        elif coup["kind"] == "algebraic":
            J = coup["c"] / (self.r ** (coup["d"] + coup["alpha"]) + 1.0)
            np.fill_diagonal(J, 0.0)
        else:
            J = np.asarray(coup["matrix"], dtype=float)
        self.J = J
        self.rho = self.q * np.exp(-2.0 * np.abs(self.amp))
        self.kappa = np.abs(J)
        self.A = np.diag(self.rho) - self.kappa
        self.n = n

    def inverse(self) -> np.ndarray:
        inv = np.linalg.inv(self.A)
        return 0.5 * (inv + inv.T)

    def lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(self.A)[0])

    def lambda_min_tilted(self) -> float:
        return float(np.linalg.eigvalsh(np.diag(self.rho) - np.exp(self.delta) * self.kappa)[0])

    def contraction(self) -> float:
        return float(np.max(self.kappa.sum(axis=1) / self.rho))


def read_pairs(path: Path):
    """(i, j, bound, oracle, tol) arrays from a pairs.csv; NaN where empty."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    ij = np.array([(int(r[0]), int(r[1])) for r in rows], dtype=int).reshape(-1, 2)
    cols = np.array([[float(v) if v else math.nan for v in r[3:6]] for r in rows]).reshape(-1, 3)
    return ij, cols[:, 0], cols[:, 1], cols[:, 2]


def _check_bounds(model: Model, inv: np.ndarray, pairs_path: Path, reasons: list) -> None:
    """Every printed bound must be at least the A^-1 entry it bounds."""
    if not pairs_path.exists():
        reasons.append("pairs.csv missing")
        return
    ij, bound, _, _ = read_pairs(pairs_path)
    if len(ij) != model.n * (model.n + 1) // 2:
        reasons.append(f"pairs.csv has {len(ij)} rows for {model.n} sites")
        return
    target = np.abs(inv[ij[:, 0], ij[:, 1]])
    slack = bound - target + BOUND_RTOL * float(np.max(np.abs(inv)))
    if not np.all(slack >= 0):
        k = int(np.argmin(slack))
        reasons.append(f"bound {bound[k]:.6e} below A^-1 entry {target[k]:.6e} at {tuple(ij[k])}")


def _close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _check_pde(raw: dict, model: Model, report: dict, reasons: list) -> None:
    """Recompute cov(f, x_j) by our own quadrature on the solver's nodes."""
    L, h = raw["grid"]["L"], raw["grid"]["h"]
    m = int(round(2.0 * L / h)) + 1
    nodes = np.linspace(-L, L, m)
    x = np.meshgrid(nodes, nodes, indexing="ij")
    H = sum(0.5 * model.q[i] * x[i] ** 2 + model.amp[i] * np.cos(x[i]) for i in range(2))
    H -= model.J[0, 1] * x[0] * x[1]
    mu = np.exp(-(H - H.min()))
    mu /= mu.sum()
    lam = report["results"]["lambda_min_A"]
    if lam is None or not _close(lam, model.lambda_min()):
        reasons.append(f"lambda_min_A {lam} != {model.lambda_min()}")
    fns = {"coordinate": lambda v: v, "sin": np.sin, "cubic": lambda v: v**3}
    for spec, entry in zip(raw["experiment"]["functions"], report["results"]["functions"]):
        f = fns[spec["kind"]](x[spec.get("site", 0)])
        f_mean = float(np.sum(f * mu))
        for rep in entry["covariance_representation"]:
            g = x[rep["g_site"]]
            cov = float(np.sum(f * g * mu)) - f_mean * float(np.sum(g * mu))
            if not _close(rep["direct"], cov):
                reasons.append(f"{spec['kind']}: cov direct {rep['direct']} != {cov}")


def _check_mcmc(raw: dict, model: Model, report: dict, pairs_path: Path, reasons: list) -> None:
    """The printed comparison target is deterministic; so is the violation count."""
    ij, target, est, tol = read_pairs(pairs_path)
    exact = model.inverse()
    if not np.allclose(target, exact[ij[:, 0], ij[:, 1]], rtol=0.0, atol=BOUND_RTOL * np.max(exact)):
        reasons.append("mcmc comparison target differs from A^-1")
    if report["results"]["compare"] == "exact":
        violations = int(np.sum(~(np.abs(est - target) <= tol)))
    else:
        violations = int(np.sum(~(np.abs(est) <= target + tol)))
    if violations != report["results"]["violations"]:
        reasons.append(f"report counts {report['results']['violations']} violations, table {violations}")


def check(raw: dict, report: dict, out_dir: Path) -> dict:
    """Verdict of one finished request.

    Returns {"failed", "known_defect", "mcmc_disagree", "reasons"}.
    `known_defect` marks a gaussian_sharpness false fail on a model whose
    exact covariance has an entry of magnitude <= 1e-12, the size gibbscert
    clamps to zero (its relative gap is then 1); such requests still count
    as failed.
    """
    kind = raw["experiment"]["kind"]
    model = Model(raw["model"])
    passed = bool(report["pass"])
    results = report["results"]
    pairs = out_dir / "pairs.csv"
    reasons: list[str] = []
    expected = True
    tiny = False

    if kind in ("bound_report", "gaussian_sharpness"):
        inv = model.inverse()
        expected = model.lambda_min() > 0
        tiny = kind == "gaussian_sharpness" and float(np.min(np.abs(inv))) <= CLAMP
        _check_bounds(model, inv, pairs, reasons)
    elif kind == "exponential_certificate":
        lam = model.lambda_min_tilted()
        expected = lam > 0
        if passed:
            prefactor = results["certificate"]["prefactor"]
            if not _close(prefactor * lam, 1.0):
                reasons.append(f"prefactor {prefactor} != 1/lambda_min(A~) = {1.0 / lam}")
            _check_bounds(model, model.inverse(), pairs, reasons)
    elif kind == "algebraic_certificate":
        expected = model.contraction() < 1.0
        if passed:
            _check_bounds(model, model.inverse(), pairs, reasons)
    elif kind == "threshold_scan":
        threshold = float(np.min(model.rho)) / (4.0 * math.e)
        eps = raw["experiment"]["epsilons"]
        want = [e < threshold for e in eps]
        got = [row["passed"] for row in results["scan"]]
        if got != want:
            reasons.append(f"scan verdicts {got} != {want} at threshold {threshold:.6f}")
        first = next((e for e in eps if e >= threshold), None)
        if results["first_refused_epsilon"] != first:
            reasons.append(f"first refused {results['first_refused_epsilon']} != {first}")
    elif kind == "pde_check":
        _check_pde(raw, model, report, reasons)
    elif kind == "mcmc_check":
        _check_mcmc(raw, model, report, pairs, reasons)

    mcmc_disagree = kind == "mcmc_check" and not passed
    if kind != "mcmc_check" and passed != expected:
        reasons.append(f"verdict {passed}, mathematics says {expected}")
    known = tiny and reasons == [f"verdict {passed}, mathematics says {expected}"]
    return {
        "failed": bool(reasons),
        "known_defect": known,
        "mcmc_disagree": mcmc_disagree,
        "reasons": reasons,
    }
