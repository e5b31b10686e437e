"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not computed; oracle values come from the
independent oracles (exact Gaussian inversion, grid solver, MCMC).
"""

import json
import math
import time

import numpy as np
import pytest

import gibbscert.bounds as bnd
from gibbscert.cli import parse_config, run_experiment
from gibbscert.decay import algebraic_certificate, tilt_inequality_audit
from gibbscert.interaction import (
    build_interaction_matrix,
    interaction_from_model,
    inverse_entrywise,
    neumann_contraction_constant,
    neumann_partial_sums,
)
from gibbscert.lattice import distance_matrix, explicit_metric, periodic_grid
from gibbscert.model import (
    GibbsModel,
    algebraic_coupling,
    cosine_potential,
    gaussian_potential,
    nearest_neighbor_coupling,
)
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.oracles.mcmc import SamplerConfig, mcmc_covariance_matrix
from gibbscert.oracles.potential import (
    RESIDUAL_RTOL,
    GridSpec,
    PotentialSolver,
    verify_core_identity,
    verify_directional_pi,
)
from gibbscert.reporting import load_report, report_bytes


class criterion:
    """Times a criterion block, enforces its runtime budget, prints a verdict."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.label}): {verdict} "
            f"[{elapsed:.1f} s / budget {self.budget:.0f} s]",
            flush=True,
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f} s >= {self.budget} s"
            )
        return False


def chain_model(n=8, eps=0.2):
    return GibbsModel(periodic_grid([n]), gaussian_potential(1.0), nearest_neighbor_coupling(eps))


def test_criterion_1_gaussian_sharpness():
    with criterion(1, "Gaussian sharpness", 1.0):
        model = chain_model()
        im = interaction_from_model(model)
        cov = gaussian_exact_covariance(gaussian_from_model(model))
        for i in range(8):
            for j in range(8):
                bound = bnd.covariance_bound(
                    im, bnd.coordinate(i, 8), bnd.coordinate(j, 8)
                ).bound_value
                assert abs(bound - cov[i, j]) <= 1e-10 * abs(cov[i, j])


def test_criterion_2_bli_coincidence():
    with criterion(2, "BLI coincidence", 1.0):
        model = chain_model()
        im = interaction_from_model(model)
        hess_inv = np.linalg.inv(model.quadratic_part())
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=8)
            f = bnd.affine(w)
            bli = float(w @ hess_inv @ w)
            bound = bnd.covariance_bound(im, f, f).bound_value
            assert abs(bound - bli) <= 1e-10 * abs(bli)


PDE_GRID = GridSpec(6.0, 0.01)
PDE_GRID_FINE = GridSpec(6.0, 0.005)


def _pde_functions():
    L = PDE_GRID.box_halfwidth
    return [
        bnd.coordinate(0, 2),
        bnd.single_site_function(0, 2, lambda x: x**3, 3.0 * L**2),
        bnd.single_site_function(0, 2, np.sin, 1.0),
    ]


@pytest.fixture(scope="module")
def pde_solutions():
    """Shared solves for criteria 3 and 4 (their runtime budget is joint)."""
    start = time.perf_counter()
    model = GibbsModel(
        periodic_grid([2]), cosine_potential(1.0, 0.1, 1.0), nearest_neighbor_coupling(0.2)
    )
    im = interaction_from_model(model)
    fs = _pde_functions()
    fields = PotentialSolver(model, PDE_GRID).solve_many(fs)
    fields_fine = PotentialSolver(model, PDE_GRID_FINE).solve_many(fs)

    gauss = GibbsModel(
        periodic_grid([2]), gaussian_potential(1.0), nearest_neighbor_coupling(0.2)
    )
    sharp = PotentialSolver(gauss, PDE_GRID).solve(bnd.coordinate(0, 2))
    return {
        "model": model,
        "im": im,
        "fields": fields,
        "fields_fine": fields_fine,
        "gauss_im": interaction_from_model(gauss),
        "sharp": sharp,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_3_directional_pi(pde_solutions):
    with criterion(3, "directional PI", 120.0) as c:
        c.start -= pde_solutions["elapsed"]  # solves happen in the shared fixture
        tols = []
        for fields in (pde_solutions["fields"], pde_solutions["fields_fine"]):
            level_tols = []
            for pf in fields:
                res = verify_directional_pi(pf, pde_solutions["im"])
                assert np.all(res.margins >= -res.tol_grid)
                level_tols.append(res.tol_grid)
            tols.append(level_tols)
        # CG converges on the fine grid from a cold start
        assert all(pf.residual <= RESIDUAL_RTOL for pf in pde_solutions["fields_fine"])
        for t_coarse, t_fine in zip(*tols):
            assert t_coarse / t_fine >= 1.5  # tol_grid shrinks when h halves
        sharp_res = verify_directional_pi(pde_solutions["sharp"], pde_solutions["gauss_im"])
        assert np.max(np.abs(sharp_res.margins)) <= 5.0 * sharp_res.tol_grid


def test_criterion_4_covariance_representation(pde_solutions):
    with criterion(4, "covariance representation", 120.0):
        # runtime of the solves is accounted to criterion 3 (shared fixture)
        fields = pde_solutions["fields"]
        pairs = [
            (fields[0], bnd.coordinate(0, 2)),
            (fields[0], bnd.coordinate(1, 2)),
            (fields[1], bnd.coordinate(1, 2)),
            (fields[2], bnd.coordinate(0, 2)),
            (fields[2], bnd.coordinate(1, 2)),
        ]
        assert len(pairs) == 5
        for pf, g in pairs:
            gv = pf.evaluate(g)
            rep = pf.covariance_via_representation(gv)
            direct = pf.covariance_direct(gv)
            tol = pf.h * (1.0 + abs(direct))
            assert abs(rep - direct) <= tol


def test_criterion_5_core_identity_refinement():
    with criterion(5, "core identity refinement", 180.0):
        model = GibbsModel(
            periodic_grid([2]), gaussian_potential(1.0), nearest_neighbor_coupling(0.2)
        )
        residuals = []
        for h in (0.08, 0.04, 0.02):
            pf = PotentialSolver(model, GridSpec(6.0, h)).solve(bnd.coordinate(0, 2))
            residuals.append(verify_core_identity(pf))
        assert residuals[0] > residuals[1] > residuals[2]  # monotone under refinement


def _random_metric(rng, n):
    pts = rng.normal(size=(n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return explicit_metric(d)


def _random_tilt_safe(rng, n):
    geom = _random_metric(rng, n)
    delta = distance_matrix(geom)
    kappa = np.abs(rng.normal(size=(n, n)))
    kappa = 0.5 * (kappa + kappa.T)
    np.fill_diagonal(kappa, 0.0)
    rho = rng.uniform(1.0, 2.0, size=n)
    tilted_rows = (np.exp(delta) * kappa).sum(axis=1)
    kappa *= min(0.9 * float(np.min(rho / np.maximum(tilted_rows, 1e-300))), 1.0)
    return build_interaction_matrix(rho, kappa), geom


def test_criterion_6_tilt_inequality_audit():
    with criterion(6, "tilt inequality audit", 10.0):
        rng = np.random.default_rng(61)
        worst = -np.inf
        for _ in range(50):
            n = int(rng.integers(2, 33))
            im, geom = _random_tilt_safe(rng, n)
            worst = max(worst, tilt_inequality_audit(im, geom))
        assert worst <= 1e-10


def test_criterion_7_nearest_neighbor_threshold():
    with criterion(7, "nearest-neighbor threshold + MCMC", 300.0):
        model_pass = GibbsModel(
            periodic_grid([4, 4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.09)
        )
        cert = bnd.nearest_neighbor_certificate(model_pass)
        assert cert.passed  # 0.09 < e^-1/4 = 0.091970
        model_refuse = GibbsModel(
            periodic_grid([4, 4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.095)
        )
        assert not bnd.nearest_neighbor_certificate(model_refuse).passed

        cfg = SamplerConfig(chains=8, steps=200_000, burn_in=20_000, proposal_std=1.5, seed=7701)
        est, err, _ = mcmc_covariance_matrix(model_pass, cfg)
        for i in range(16):
            for j in range(16):
                assert abs(est[i, j]) <= cert.pair_bounds[i, j] + 3.0 * err[i, j]


def test_criterion_8_mcmc_vs_exact_gaussian():
    with criterion(8, "MCMC vs exact Gaussian", 120.0):
        model = chain_model()
        cov = gaussian_exact_covariance(gaussian_from_model(model))
        cfg = SamplerConfig(chains=8, steps=200_000, burn_in=20_000, proposal_std=1.5, seed=8801)
        est, err, _ = mcmc_covariance_matrix(model, cfg)
        failures = 0
        for i in range(8):
            for j in range(i, 8):
                if abs(est[i, j] - cov[i, j]) > 3.0 * err[i, j]:
                    failures += 1
        assert failures <= 1  # nominal 3-sigma allowance over 36 pairs


def test_criterion_9_algebraic_decay():
    with criterion(9, "algebraic decay certificate", 5.0):
        geom = periodic_grid([128])
        model = GibbsModel(geom, gaussian_potential(1.0), algebraic_coupling(0.1, 1.0, 1))
        im = interaction_from_model(model)
        cert = algebraic_certificate(im, geom, 1.0)
        assert cert.passed
        assert cert.dominance > 0
        assert cert.contraction < 1.0
        assert cert.alpha_tilde == 0.5
        assert math.isfinite(cert.prefactor)
        inv = inverse_entrywise(im.A)
        r = distance_matrix(geom, euclidean=True)
        off = ~np.eye(128, dtype=bool)
        pts = {}
        for d, v in zip(np.round(r[off], 9), np.abs(inv[off])):
            if 4.0 <= d <= 32.0:
                pts[d] = max(pts.get(d, 0.0), v)
        x = np.log(sorted(pts))
        y = np.log([pts[d] for d in sorted(pts)])
        fitted = -np.polyfit(x, y, 1)[0]
        assert fitted >= 1.4


def test_criterion_10_m_matrix_and_neumann():
    with criterion(10, "M-matrix property + Neumann tail", 10.0):
        import scipy.linalg

        rng = np.random.default_rng(101)
        K = 64
        for _ in range(200):
            n = int(rng.integers(2, 33))
            kappa = np.abs(rng.normal(size=(n, n)))
            kappa = 0.5 * (kappa + kappa.T)
            np.fill_diagonal(kappa, 0.0)
            rho = kappa.sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
            im = build_interaction_matrix(rho, kappa)
            raw_inv = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(im.A, lower=True), np.eye(n)
            )
            assert np.min(raw_inv) >= -1e-12
            exp = neumann_partial_sums(im, K)
            prev = exp.partial_sums[0]
            for s in exp.partial_sums[1:]:
                assert np.all(s >= prev - 1e-14)
                prev = s
            c = neumann_contraction_constant(im)
            gap = np.max(np.abs(inverse_entrywise(im.A) - exp.partial_sums[K]))
            assert gap <= c**K / (1.0 - c) * float(np.max(1.0 / im.rho)) + 1e-12


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "report reproducibility", 60.0):
        raw = {
            "model": {
                "geometry": {"kind": "periodic_grid", "side_lengths": [4]},
                "potential": {"q": 1.0},
                "coupling": {"kind": "nearest_neighbor", "epsilon": 0.1},
            },
            "experiment": {"kind": "mcmc_check"},
            "sampler": {
                "chains": 4,
                "steps": 10_000,
                "burn_in": 1_000,
                "proposal_std": 1.5,
                "seed": 1111,
            },
        }
        run_experiment(parse_config(json.loads(json.dumps(raw))), tmp_path / "a")
        run_experiment(parse_config(json.loads(json.dumps(raw))), tmp_path / "b")
        ra = load_report(tmp_path / "a" / "report.json")
        rb = load_report(tmp_path / "b" / "report.json")
        assert report_bytes(ra, drop_meta=True) == report_bytes(rb, drop_meta=True)
