"""Grid-oracle tests, mostly on coarse grids; the acceptance suite runs the fine ones."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from gibbscert.bounds import affine, coordinate, single_site_function
from gibbscert.interaction import build_interaction_matrix, interaction_from_model, pi_criterion
from gibbscert.lattice import periodic_grid
from gibbscert.model import (
    GibbsModel,
    cosine_potential,
    explicit_coupling,
    gaussian_potential,
    nearest_neighbor_coupling,
    rho_vector,
)
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.oracles.potential import (
    RESIDUAL_RTOL,
    GridSpec,
    PotentialSolver,
    tail_mass_estimate,
    verify_core_identity,
    verify_directional_pi,
    verify_dual_pi,
)

COARSE = GridSpec(6.0, 0.05)


def _assemble_operator(mu: np.ndarray, h: float) -> scipy.sparse.csr_matrix:
    """The weighted graph Laplacian K, edge weights sqrt(mu_l mu_r)/h^2, as CSR."""
    diag = np.zeros(mu.shape)
    bands, offsets = [diag.ravel()], [0]
    for axis in range(mu.ndim):
        lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(mu.ndim))
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(mu.ndim))
        w = np.zeros(mu.shape)  # weight of the edge to the next node along axis
        w[lo] = np.sqrt(mu[lo] * mu[hi]) / h**2
        diag[lo] += w[lo]
        diag[hi] += w[lo]
        stride = math.prod(mu.shape[axis + 1 :])
        band = -w.ravel()[: mu.size - stride]
        bands += [band, band]
        offsets += [stride, -stride]
    return scipy.sparse.diags(bands, offsets, format="csr")


def _centred_rhs(pf):
    rhs = ((pf.f_values - pf.f_mean) * pf.mu).ravel()
    return rhs - rhs.mean()


def one_site_model(q=1.0, a=0.0, b=1.0):
    pot = cosine_potential(q, a, b) if a else gaussian_potential(q)
    return GibbsModel(periodic_grid([1]), pot, explicit_coupling(np.zeros((1, 1))))


def two_site_model(eps, q=1.0, a=0.0, b=1.0):
    pot = cosine_potential(q, a, b) if a else gaussian_potential(q)
    return GibbsModel(periodic_grid([2]), pot, nearest_neighbor_coupling(eps))


def test_constant_f_gives_zero_potential():
    model = one_site_model()
    f = single_site_function(0, 1, lambda x: np.ones_like(x), 0.0)
    pf = PotentialSolver(model, COARSE).solve_many([f])[0]
    assert np.max(np.abs(pf.phi)) <= 1e-10


def test_one_site_gaussian_linear_f_unit_gradient():
    model = one_site_model()
    pf = PotentialSolver(model, GridSpec(6.0, 0.01)).solve_many([coordinate(0, 1)])[0]
    dphi = np.diff(pf.phi) / pf.h
    interior = dphi[200:-200]
    assert np.max(np.abs(interior - 1.0)) <= 1e-3
    assert pf.residual <= 1e-10
    assert abs(pf.quad_mean(pf.phi)) <= 1e-12  # centered under mu


def test_two_site_representation_reproduces_gaussian_covariance():
    model = two_site_model(0.2)
    pf = PotentialSolver(model, COARSE).solve_many([coordinate(0, 2)])[0]
    g = pf.coordinate(1)
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    rep = pf.covariance_via_representation(g)
    assert rep == pytest.approx(cov[0, 1], abs=5e-3)
    # representation and direct quadrature agree to solver precision
    assert rep == pytest.approx(pf.covariance_direct(g), abs=1e-9)


def test_directional_pi_sharp_for_gaussian_linear():
    model = two_site_model(0.2)
    pf = PotentialSolver(model, COARSE).solve_many([coordinate(0, 2)])[0]
    res = verify_directional_pi(pf)
    assert res.passed
    assert np.max(np.abs(res.margins)) <= 5.0 * res.tol_grid  # equality case


def test_directional_pi_perturbed_model():
    model = two_site_model(0.2, a=0.1)
    solver = PotentialSolver(model, COARSE)
    for obs in (
        coordinate(0, 2),
        single_site_function(0, 2, np.sin, 1.0),
        single_site_function(0, 2, lambda x: x**3, 3.0 * 36.0),
    ):
        res = verify_directional_pi(solver.solve_many([obs])[0])
        assert res.passed
        assert np.all(res.margins >= -res.tol_grid)


def test_dual_pi_one_site_sharp():
    model = one_site_model()
    pf = PotentialSolver(model, GridSpec(6.0, 0.01)).solve_many([coordinate(0, 1)])[0]
    res = verify_dual_pi(pf)
    assert res.passed
    assert res.lhs == pytest.approx(1.0, abs=1e-2)
    assert abs(res.margins) <= res.tol_grid


def test_dual_pi_two_site():
    model = two_site_model(0.2, a=0.1)
    pf = PotentialSolver(model, COARSE).solve_many([coordinate(0, 2)])[0]
    res = verify_dual_pi(pf)
    assert res.passed
    # the constant comes from pf.model's A: with epsilon = 5, lambda_min(A) < 0 certifies none
    with pytest.raises(ValueError, match="PI constant must be positive"):
        verify_dual_pi(dataclasses.replace(pf, model=two_site_model(5.0)))


def test_single_site_pi_reformulation_on_grid():
    # int (|phi''|^2 + phi' psi'' phi') dmu >= rho int |phi'|^2 dmu
    model = one_site_model(a=0.1, b=2.0)
    f = single_site_function(0, 1, np.sin, 1.0)
    pf = PotentialSolver(model, GridSpec(6.0, 0.01)).solve_many([f])[0]
    x = pf.nodes[1:-1]
    phi = pf.phi
    d1 = (phi[2:] - phi[:-2]) / (2 * pf.h)
    d2 = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / pf.h**2
    w = pf.mu[1:-1] * pf.h
    psi2 = 1.0 - 0.1 * 2.0**2 * np.cos(2.0 * x)  # psi'' of q = 1, a = 0.1, b = 2
    lhs = np.sum((d2**2 + d1 * psi2 * d1) * w)
    rhs = rho_vector(model)[0] * np.sum(d1**2 * w)
    assert lhs >= rhs - 1e-6


def test_core_identity_constant_f():
    model = two_site_model(0.2)
    f = single_site_function(0, 2, lambda x: np.ones_like(x), 0.0)
    pf = PotentialSolver(model, COARSE).solve_many([f])[0]
    assert verify_core_identity(pf) <= 1e-10


def test_core_identity_refinement_improves():
    model = two_site_model(0.2)
    residuals = []
    for h in (0.08, 0.04):
        pf = PotentialSolver(model, GridSpec(6.0, h)).solve_many([coordinate(0, 2)])[0]
        residuals.append(verify_core_identity(pf))
    assert residuals[1] <= residuals[0] / 1.5


def roll_core_identity(pf):
    """The core identity's residual with np.roll differences over the whole grid, boundary nodes dropped."""
    dim, h = pf.dim, pf.h
    interior = (slice(1, -1),) * dim

    def first(v, axis):
        return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)

    weights = pf.mu[interior] * pf.cell_volume
    d_phi = [first(pf.phi, ax) for ax in range(dim)]
    d_f = [first(pf.f_values, ax) for ax in range(dim)]
    J = pf.model.coupling_matrix()
    q, a, f = (v.tolist() for v in (pf.model.q, pf.model.amplitude, pf.model.frequency))
    worst = 0.0
    for j in range(dim):
        lhs = float(np.sum((d_phi[j] * d_f[j])[interior] * weights))
        rhs_field = np.zeros_like(pf.phi)
        for k in range(dim):
            if k == j:
                second = (np.roll(pf.phi, -1, axis=j) - 2.0 * pf.phi + np.roll(pf.phi, 1, axis=j)) / h**2
                hess_jk = q[j] - a[j] * f[j] ** 2 * np.cos(f[j] * pf.coordinate(j))
            else:
                second = first(d_phi[j], k)
                hess_jk = -J[j, k]
            rhs_field += second**2 + d_phi[j] * hess_jk * d_phi[k]
        rhs = float(np.sum(rhs_field[interior] * weights))
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("m", [61, 60], ids=["odd", "even"])
@pytest.mark.parametrize(
    "model",
    [one_site_model(a=0.1, b=2.0), two_site_model(0.2, a=0.1), two_site_model(-0.3, a=0.2, b=2.0)],
    ids=["1-site", "2-site-eps>0", "2-site-eps<0"],
)
def test_core_identity_matches_the_roll_formula(model, m):
    # interior slices must give the whole-grid np.roll formula bit for bit,
    # for f of one site (a broadcast, at either site) and affine f (a grid array)
    n = model.n_sites
    observables = [
        single_site_function(0, n, np.sin, 1.0),
        single_site_function(n - 1, n, lambda x: x**3, 3.0 * 36.0),
        affine([1.0, -0.5][:n], 0.25),
    ]
    solver = PotentialSolver(model, GridSpec(6.0, 12.0 / (m - 1)))
    assert solver.m == m
    for pf in solver.solve_many(observables):
        assert verify_core_identity(pf).hex() == roll_core_identity(pf).hex()


def test_tail_mass_estimate_blocks_small_boxes():
    model = two_site_model(0.2, a=0.1)
    assert tail_mass_estimate(model, 6.0) < 1e-8
    assert tail_mass_estimate(model, 3.0) > 1e-8
    with pytest.raises(ValueError, match="tail mass"):
        PotentialSolver(model, GridSpec(3.0, 0.05)).solve_many([coordinate(0, 2)])[0]


@pytest.mark.parametrize(
    "L, h",
    [(math.nan, 0.1), (math.inf, 0.1), (6.0, math.nan), (1e308, 1.0), (1e200, 1e-200)],
    ids=["nan-L", "inf-L", "nan-h", "inf-2L", "inf-2L-over-h"],
)
def test_grid_spec_rejects_non_finite_sizes(L, h):
    # NaN and inf passed both comparisons of the old check; an infinite 2L/h
    # made nodes_per_axis raise OverflowError
    with pytest.raises(ValueError, match="finite"):
        GridSpec(L, h)


def test_more_than_two_sites_rejected():
    geom = periodic_grid([3])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.1))
    with pytest.raises(ValueError, match="2 sites"):
        PotentialSolver(model, COARSE).solve_many([coordinate(0, 3)])[0]


def test_interaction_matrix_export_and_csv(tmp_path):
    from gibbscert.oracles.potential import potential_to_csv
    from gibbscert.reporting import write_table

    model = two_site_model(0.2)
    pf = PotentialSolver(model, GridSpec(6.0, 0.5)).solve_many([coordinate(0, 2)])[0]
    path = tmp_path / "phi.csv"
    potential_to_csv(pf, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,mu,phi"
    assert len(lines) == 1 + pf.mu.size

    im = build_interaction_matrix([1.0, 1.0], np.array([[0.0, 0.25], [0.25, 0.0]]))
    mpath = tmp_path / "A.csv"
    write_table(["a0", "a1"], im.A.T, mpath)
    rows = mpath.read_text().splitlines()
    assert len(rows) == 3
    assert float(rows[1].split(",")[1]) == -0.25


def criterion_3_functions(L=6.0, site=0):
    return [
        coordinate(site, 2),
        single_site_function(site, 2, lambda x: x**3, 3.0 * L**2),
        single_site_function(site, 2, np.sin, 1.0),
    ]


def per_call_grad_pair(pf, u, v, axis):
    """The edge quadrature as computed before the fluxes were kept: weights and differences per call."""
    lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(pf.dim))
    hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(pf.dim))
    w_edge = np.sqrt(pf.mu[lo] * pf.mu[hi])
    du = (u[hi] - u[lo]) / pf.h
    dv = (v[hi] - v[lo]) / pf.h
    return float(np.sum(w_edge * du * dv) * pf.cell_volume)


def test_kept_quadratures_match_the_per_call_formula():
    # the checks read each weight, difference and energy once; the values
    # must be the per-call formula's bit for bit, so report.json holds
    model = two_site_model(0.2, a=0.1)
    im = interaction_from_model(model)
    rho = pi_criterion(im)
    solver = PotentialSolver(model, GridSpec(6.0, 0.1))
    fields = solver.solve_many(criterion_3_functions())
    assert solver.edge_weights == []  # not held through the solve
    for pf in fields:
        assert pf.edge_weights is solver.edge_weights
        phi_sq = [per_call_grad_pair(pf, pf.phi, pf.phi, ax) for ax in range(2)]
        f_sq = [per_call_grad_pair(pf, pf.f_values, pf.f_values, ax) for ax in range(2)]
        direction = verify_directional_pi(pf)
        assert direction.lhs.tolist() == [math.sqrt(max(e, 0.0)) for e in phi_sq]
        assert direction.rhs.tolist() == (im.inverse() @ np.sqrt(np.maximum(f_sq, 0.0))).tolist()
        dual = verify_dual_pi(pf)
        assert (dual.lhs, dual.rhs) == (math.sqrt(sum(phi_sq)), math.sqrt(sum(f_sq)) / rho)
        for j in range(2):
            gv = pf.coordinate(j)
            want = sum(per_call_grad_pair(pf, pf.phi, gv, ax) for ax in range(2))
            assert pf.covariance_via_representation(gv) == want
    assert len(solver.edge_weights) == 2


# 61 <= DIRECT_MAX_NODES: the V-cycle is the direct solve alone; 400: coarsens through even sizes
@pytest.mark.parametrize("m", [61, 121, 241, 400, 481, 601])
def test_multigrid_iterations_do_not_grow_with_the_grid(m):
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 12.0 / (m - 1)))
    assert solver.m == m
    for pf in solver.solve_many(criterion_3_functions()):
        assert 0 < pf.iterations <= 15
        assert pf.residual <= RESIDUAL_RTOL


def test_cold_fine_solve_converges(cold_fine_solve):
    # the cosine-transform preconditioner stalled here at 1.01e-10 after 41 iterations
    assert cold_fine_solve["grid"] == GridSpec(6.0, 0.005)
    for pf in cold_fine_solve["fields"]:
        assert pf.residual <= RESIDUAL_RTOL


def test_phi_matches_direct_sparse_solve():
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 0.1))
    assert solver.m == 121
    pin = int(np.argmax(solver.mu))
    keep = np.ones(solver.mu.size)
    keep[pin] = 0.0
    mask = scipy.sparse.diags(keep)
    K = _assemble_operator(solver.mu, solver.h)
    K_pinned = (mask @ K @ mask + scipy.sparse.diags(1.0 - keep)).tocsc()
    dense = solver.mu >= 1e-3 * solver.mu.max()
    for pf in solver.solve_many(criterion_3_functions()):
        rhs = _centred_rhs(pf)
        rhs[pin] = 0.0
        phi = scipy.sparse.linalg.spsolve(K_pinned, rhs).reshape(pf.mu.shape)
        phi -= pf.quad_mean(phi)
        scale = np.max(np.abs(phi))
        assert np.max(np.abs(pf.phi - phi)[dense]) <= 1e-10 * scale


def test_stencil_residual_matches_assembled_operator():
    """The final residual check applies K as s K_hat (s x); it must agree with the CSR K."""
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 0.1))
    assert solver.m == 121
    K = _assemble_operator(solver.mu, solver.h)
    x = np.random.default_rng(5).normal(size=solver.s.size)
    stencil = solver.s * solver._apply_khat((solver.s * x)[None])[0]
    assert np.linalg.norm(stencil - K @ x) <= 1e-12 * np.linalg.norm(K @ x)
    for pf in solver.solve_many(criterion_3_functions()):
        rhs = _centred_rhs(pf)
        csr_residual = np.linalg.norm(K @ pf.phi.ravel() - rhs) / np.linalg.norm(rhs)
        assert 0.0 < pf.residual <= RESIDUAL_RTOL
        assert abs(pf.residual - csr_residual) <= 1e-12


@pytest.mark.parametrize(
    "model, m",
    [(one_site_model(a=0.1, b=2.0), 241), (two_site_model(0.2, a=0.1), 241), (two_site_model(0.2, a=0.1), 240)],
)
def test_vcycle_preconditioner_is_symmetric_positive(model, m):
    solver = PotentialSolver(model, GridSpec(6.0, 12.0 / (m - 1)))
    assert solver.m == m
    rng = np.random.default_rng(3)
    U = rng.normal(size=(2, solver.s.size))
    for u in U:
        solver.levels[0].project(u)
    BU = np.array([solver._precond(u.copy()) for u in U])
    asym = abs(U[0] @ BU[1] - U[1] @ BU[0])
    assert asym <= 1e-12 * np.linalg.norm(U[0]) * np.linalg.norm(BU[1])
    assert np.all(np.einsum("ij,ij->i", U, BU) > 0.0)


@pytest.mark.parametrize("n_functions, budget", [(3, 13.5), (1, 11.5)])
def test_solve_peak_memory_stays_in_budget(n_functions, budget):
    # traced peak from set-up through the solve at m = 241, in m^2 doubles:
    # 13.2 and 11.1 here, each further function adding its phi; a solve that
    # holds each one-site f on every node reads 12.1 for one function, and
    # three functions solved in lockstep read 22.6
    m = 241
    tracemalloc.start()
    try:
        solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 12.0 / (m - 1)))
        solver.solve_many(criterion_3_functions()[:n_functions])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.m == m
    assert peak / (8 * m * m) <= budget


@pytest.mark.parametrize(
    "m, digest, iterations",
    [
        (121, "6b20dc9bd63ae296148fcfe3db9cbd56b4d2ff8979b4a5ce5420516ef5335351", [7, 7, 6]),
        (120, "b81d05c1bf08beb7978989398ba8009b1af022270083f45fcaf20e776c1fc9b8", [8, 9, 8]),
    ],
    ids=["odd", "even"],
)
def test_solve_output_is_pinned(m, digest, iterations):
    # computed once, each function solved alone, from a PCG with separate
    # A p and z arrays; sharing one work array, or any change of buffers or
    # operation order, must not change a bit
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 12.0 / (m - 1)))
    assert solver.m == m
    fields = solver.solve_many(criterion_3_functions())
    assert hashlib.sha256(b"".join(pf.phi.tobytes() for pf in fields)).hexdigest() == digest
    assert [pf.iterations for pf in fields] == iterations


@pytest.mark.parametrize("m", [121, 120])
def test_each_field_has_the_bytes_of_its_function_solved_alone(m):
    # phi, the iterations and the residual of a function must not depend on
    # which other functions share the request
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 12.0 / (m - 1)))
    assert solver.m == m
    observables = criterion_3_functions() + [affine([1.0, -0.5])]

    def state(pf):
        return pf.phi.tobytes(), pf.iterations, pf.residual.hex()

    together = [state(pf) for pf in solver.solve_many(observables)]
    assert together == [state(solver.solve_many([f])[0]) for f in observables]


def test_one_site_observables_match_their_full_grid_evaluation():
    # f evaluated on its axis's nodes and broadcast must give phi and every
    # check of the evaluation on all m^2 nodes bit for bit
    solver = PotentialSolver(two_site_model(0.2, a=0.1), GridSpec(6.0, 0.1))
    assert solver.m == 121
    observables = [f for site in (0, 1) for f in criterion_3_functions(site=site)]
    on_axis = solver.solve_many(observables)
    full = solver.solve_many([dataclasses.replace(f, site=None) for f in observables])

    def checks(pf):
        pi = [
            np.asarray(v).tobytes()
            for check in (verify_directional_pi, verify_dual_pi)
            for v in dataclasses.astuple(check(pf))
        ]
        cov = [
            c(pf.coordinate(j)) for j in range(2) for c in (pf.covariance_direct, pf.covariance_via_representation)
        ]
        return [pf.phi.tobytes(), pf.f_mean, pf.residual, pf.iterations, verify_core_identity(pf), *pi, *cov]

    for a, b in zip(on_axis, full):
        assert checks(a) == checks(b)


def test_one_site_f_values_are_a_read_only_broadcast_of_m_floats():
    solver = PotentialSolver(two_site_model(0.2), GridSpec(6.0, 0.1))
    m = solver.m
    observables = [coordinate(1, 2), single_site_function(0, 2, np.sin, 1.0), affine([1.0, 1.0])]
    *one_site, full = solver.solve_many(observables)
    for pf in one_site:
        assert pf.f_values.shape == (m, m) and not pf.f_values.flags.writeable
        lo, hi = np.lib.array_utils.byte_bounds(pf.f_values)
        assert hi - lo == 8 * m
    assert full.f_values.flags.c_contiguous and full.f_values.nbytes == 8 * m * m


def test_pde_request_stages_stay_in_budget(tmp_path, monkeypatch):
    # traced peak of each stage of one pde_check request at m = 241 with one
    # function, in m^2 doubles.  The PCG holds the solver's ~5, X, R, P, W
    # and the V-cycle's iterate, 11.1 here; holding the one-site f on every
    # node reads 12.1.  With core_identity the verify stage reads 12.24;
    # differences rolled over the whole grid read 17.06 there
    from gibbscert import cli

    peaks, stages = {}, []

    def enter(stage):
        if stages:
            peaks[stages[-1]] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        stages.append(stage)

    class StagedSolver(cli.PotentialSolver):
        def solve_many(self, observables):
            enter("solve")
            return super().solve_many(observables)

    write_phi = cli.potential_to_csv

    def staged_write(pf, path):
        enter("phi.csv")
        write_phi(pf, path)
        enter("verify")

    monkeypatch.setattr(cli, "PotentialSolver", StagedSolver)
    monkeypatch.setattr(cli, "potential_to_csv", staged_write)
    m = 241
    for core_identity, budget in ((False, 11.5), (True, 12.5)):
        cfg = cli.parse_config(
            {
                "model": {
                    "geometry": {"kind": "periodic_grid", "side_lengths": [2]},
                    "potential": {"q": 1.0, "perturbation": {"kind": "cosine", "amplitude": 0.1, "frequency": 1.0}},
                    "coupling": {"kind": "nearest_neighbor", "epsilon": 0.2},
                },
                "experiment": {
                    "kind": "pde_check",
                    "functions": [{"kind": "sin", "site": 1}],
                    "core_identity": core_identity,
                },
                "grid": {"L": 6.0, "h": 12.0 / (m - 1)},
            }
        )
        peaks.clear()
        stages.clear()
        tracemalloc.start()
        try:
            enter("set-up")
            _, passed = cli.run_experiment(cfg, tmp_path / f"core_identity_{core_identity}")
            enter(None)
        finally:
            tracemalloc.stop()
        assert passed
        arrays = {stage: round(peak / (8 * m * m), 2) for stage, peak in peaks.items()}
        assert list(arrays) == ["set-up", "solve", "phi.csv", "verify"]
        assert max(arrays.values()) <= budget, (core_identity, arrays)
