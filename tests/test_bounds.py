import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gibbscert import interaction
from gibbscert.bounds import (
    Observable,
    affine,
    baseline_bound,
    coordinate,
    covariance_bound,
    nearest_neighbor_certificate,
    single_site_function,
    weighted_bound,
)
from gibbscert.decay import exponential_certificate
from gibbscert.interaction import (
    InteractionMatrix,
    build_interaction_matrix,
    interaction_from_model,
    weighted_similarity_check,
)
from gibbscert.lattice import distance_matrix, periodic_grid
from gibbscert.model import GibbsModel, cosine_potential, gaussian_potential, nearest_neighbor_coupling
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model


def im2(k, rho=(1.0, 1.0)):
    kappa = np.array([[0.0, k], [k, 0.0]])
    return build_interaction_matrix(np.asarray(rho, float), kappa)


def test_baseline_examples():
    f0, f1 = coordinate(0, 2), coordinate(1, 2)
    assert baseline_bound(im2(0.0), f0, f0) == pytest.approx(1.0)
    assert baseline_bound(im2(0.0, rho=(2.0, 2.0)), f0, f1) == pytest.approx(0.5)
    w = affine([1.0, 1.0])
    assert baseline_bound(im2(0.0), w, w) == pytest.approx(2.0)


def test_covariance_bound_examples():
    f0, f1 = coordinate(0, 2), coordinate(1, 2)
    assert covariance_bound(im2(0.0), f0, f0) == pytest.approx(1.0)
    assert covariance_bound(im2(0.5), f0, f1) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="positive definite"):
        covariance_bound(im2(1.0), f0, f1)


def test_covariance_bound_runs_no_eigen_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(interaction, "_smallest_eigenvalue", lambda a: calls.append(a) or 0.0)
    assert covariance_bound(im2(0.5), coordinate(0, 2), coordinate(1, 2)) == pytest.approx(2.0 / 3.0)
    assert calls == []


def test_negative_bound_is_refused():
    negative = Observable(grad_norms=np.array([-1.0, 0.0]), fn=lambda x: -x[..., 0])
    with pytest.raises(ValueError, match="nonnegative"):
        covariance_bound(im2(0.0), negative, coordinate(0, 2))
    nan = Observable(grad_norms=np.array([math.nan, 0.0]), fn=lambda x: x[..., 0])
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_bound(im2(0.0), [1.0, 1.0], nan, coordinate(0, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        baseline_bound(im2(0.0), nan, coordinate(0, 2))


@pytest.mark.parametrize("site", [-1, 2, 5])
def test_one_site_observables_refuse_a_site_off_the_model(site):
    # site -1 was accepted and read the last site; site 5 raised a bare IndexError
    for build in (lambda: coordinate(site, 2), lambda: single_site_function(site, 2, np.sin, 1.0)):
        with pytest.raises(ValueError, match=rf"site must be in \[0, 2\), got {site}"):
            build()


@pytest.mark.parametrize("bound", [-1.0, math.nan])
def test_single_site_function_refuses_a_bound_that_is_not_nonnegative(bound):
    # a NaN bound gave grad_norms [nan, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        single_site_function(0, 2, np.sin, bound)


@pytest.mark.parametrize("k", [1.0, 2.0], ids=["singular", "indefinite"])
def test_bounds_refuse_a_matrix_that_certifies_no_positive_rho(k):
    # lambda_min(A) = 1 - k, and with D = Id the weighted check gives the same rho
    f0, f1 = coordinate(0, 2), coordinate(1, 2)
    with pytest.raises(ValueError, match="PI constant must be positive"):
        weighted_bound(im2(k), [1.0, 1.0], f0, f1)
    with pytest.raises(ValueError, match="PI constant must be positive"):
        baseline_bound(im2(k), f0, f1)


def test_covariance_bound_gaussian_sharpness():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    im = interaction_from_model(model)
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    for i in range(8):
        for j in range(8):
            b = covariance_bound(im, coordinate(i, 8), coordinate(j, 8))
            assert b == pytest.approx(cov[i, j], rel=1e-10)


def test_bound_symmetry():
    rng = np.random.default_rng(7)
    im = im2(0.4, rho=(1.5, 2.0))
    for _ in range(5):
        f = affine(rng.normal(size=2))
        g = affine(rng.normal(size=2))
        assert covariance_bound(im, f, g) == pytest.approx(
            covariance_bound(im, g, f)
        )
        assert baseline_bound(im, f, g) == pytest.approx(
            baseline_bound(im, g, f)
        )


def test_weighted_bound_examples():
    im = im2(0.5)
    f0, f1 = coordinate(0, 2), coordinate(1, 2)
    # D = Id reduces to the baseline with rho = lambda_min(A)
    b = weighted_bound(im, [1.0, 1.0], f0, f1)
    assert b == pytest.approx(2.0)  # weaker than full-matrix 2/3
    assert covariance_bound(im, f0, f1) < b


def test_weighted_bound_exponential_weights_triangle_factor():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.05))
    im = interaction_from_model(model)
    i, j = 0, 3
    d = np.exp(-distance_matrix(geom)[:, j])
    rho = weighted_similarity_check(im, d)
    assert rho > 0
    b = weighted_bound(im, d, coordinate(i, 8), coordinate(j, 8))
    # weights contribute exactly e^{-delta(i,j)}: d_i / d_j = e^{-3}
    assert b == pytest.approx(math.exp(-3.0) / rho)


@pytest.mark.parametrize(
    "weights",
    [[1.0, math.nan, 1.0, 1.0], [1.0, math.inf, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1e308, 1e-308]],
    ids=["nan", "inf", "zero", "three-of-four", "ratio-overflows"],
)
def test_bad_weights_are_refused(weights):
    im = interaction_from_model(GibbsModel(periodic_grid([4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.1)))
    with pytest.raises(ValueError, match="weights"):
        weighted_similarity_check(im, weights)
    with pytest.raises(ValueError, match="weights"):
        weighted_bound(im, weights, coordinate(0, 4), coordinate(1, 4))


def test_exponential_decay_bound_examples():
    # the per-pair bound prefactor * e^{-delta(i,j)} that the CLI writes,
    # with prefactor 1/rho_tilde and rho_tilde = 1 - 0.1 e = 0.7282
    geom = periodic_grid([2])
    cert = exponential_certificate(im2(0.1), geom)
    assert cert.passed
    assert cert.prefactor == pytest.approx(1.0 / (1.0 - 0.1 * math.e), rel=1e-12)
    bound = cert.prefactor * np.exp(-distance_matrix(geom))
    assert bound[0, 0] == pytest.approx(1.0 / 0.7282, rel=1e-4)
    assert bound[0, 1] == pytest.approx(math.exp(-1.0) / 0.7282, rel=1e-4)
    refused = exponential_certificate(im2(0.4), geom)  # rho_tilde = 1 - 0.4 e < 0
    assert not refused.passed and refused.prefactor is None


def test_exponential_decay_bound_distance_three():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.05))
    cert = exponential_certificate(interaction_from_model(model), geom)
    assert cert.passed  # the 0.05-coupling ring is certifiable
    b = cert.prefactor * math.exp(-distance_matrix(geom)[0, 3])
    assert b == pytest.approx(math.exp(-3.0) / 0.7282, rel=1e-4)
    assert b == pytest.approx(0.0684, abs=2e-4)


def test_product_measure_bound_vs_zero_covariance():
    # kappa = 0: bound is e^{-delta}/min rho while the true covariance vanishes
    im = build_interaction_matrix([2.0, 3.0], np.zeros((2, 2)))
    geom = periodic_grid([2])
    cert = exponential_certificate(im, geom)
    assert cert.prefactor * math.exp(-distance_matrix(geom)[0, 1]) == pytest.approx(math.exp(-1.0) / 2.0)
    cov = gaussian_exact_covariance(gaussian_from_model(
        GibbsModel(periodic_grid([2]), gaussian_potential(2.0), nearest_neighbor_coupling(0.0))
    ))
    assert cov[0, 1] == 0.0


def test_bound_hierarchy_full_below_weighted_and_baseline():
    geom = periodic_grid([8])
    model = GibbsModel(geom, cosine_potential(1.0, 0.05, 2.0), nearest_neighbor_coupling(0.05))
    im = interaction_from_model(model)

    for i in range(8):
        for j in range(8):
            f, g = coordinate(i, 8), coordinate(j, 8)
            full = covariance_bound(im, f, g)
            base = baseline_bound(im, f, g)
            assert full <= base + 1e-12
            d = np.exp(-distance_matrix(geom)[:, j])
            rho = weighted_similarity_check(im, d)
            assert rho > 0
            wtd = weighted_bound(im, d, f, g)
            assert full <= wtd + 1e-12


@st.composite
def m_matrix_weights_and_gradients(draw):
    """A random M-matrix A (n <= 8), positive weights D and nonnegative gradient norms."""
    n = draw(st.integers(min_value=1, max_value=8))
    unit = st.floats(min_value=0.0, max_value=1.0)
    entries = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    kappa = np.triu(entries, 1) + np.triu(entries, 1).T
    rho = np.array(draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n)))
    # scale kappa so that lambda_max(diag(rho)^-1/2 kappa diag(rho)^-1/2) = t < 1: A is then positive definite
    t = draw(st.floats(min_value=0.0, max_value=0.99))
    top = float(np.linalg.eigvalsh(kappa / np.sqrt(np.outer(rho, rho)))[-1])
    im = build_interaction_matrix(rho, kappa * (t / top) if top > 1e-6 else kappa)
    weights = np.array(draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n)))
    # g's norms reach 1e-300, whose squares are subnormal, while every product
    # in both bounds stays a normal number
    grads = [
        np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=low, max_value=10.0)), min_size=n, max_size=n)))
        for low in (1e-3, 1e-300)
    ]
    return im, weights, grads


@given(m_matrix_weights_and_gradients())
# np.linalg.norm squared 6.1e-157 to a subnormal: the weighted bound rounded below the full one
@example((build_interaction_matrix([1.0], np.zeros((1, 1))), np.array([0.75]), [np.ones(1), np.array([4.593084552307842e-157])]))
@settings(max_examples=200, deadline=None)
def test_full_matrix_bound_below_helffer_ledoux_weighted_bound(case):
    # D A D^-1 >= rho Id (symmetric part) gives ||D^-1 A^-1 D|| <= 1/rho, so the
    # full-matrix bound never exceeds the weighted one for any admissible D
    im, d, (gf, gg) = case
    rho = weighted_similarity_check(im, d)
    assume(rho > 0)
    f = affine(gf)  # affine observables with weights >= 0 have grad_norms = weights
    g = affine(gg)
    full = covariance_bound(im, f, g)
    assert full <= weighted_bound(im, d, f, g) * (1 + 1e-12)


def test_bli_coincidence_ferromagnetic_affine():
    # for ferromagnetic Gaussians and affine f = g with nonnegative weights the
    # bound equals the Brascamp-Lieb right side w . Hess(H)^-1 w
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    im = interaction_from_model(model)
    hess_inv = np.linalg.inv(model.quadratic_part())
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.uniform(0.0, 1.0, size=8)
        f = affine(w, offset=float(rng.normal()))
        b = covariance_bound(im, f, f)
        assert b == pytest.approx(w @ hess_inv @ w, rel=1e-10)


def nn_model_2d(eps, q=1.0, a=0.0):
    pot = cosine_potential(q, a, 1.0) if a else gaussian_potential(q)
    return GibbsModel(periodic_grid([4, 4]), pot, nearest_neighbor_coupling(eps))


def test_nearest_neighbor_certificate_examples():
    cert = nearest_neighbor_certificate(nn_model_2d(0.05))
    assert (cert.kind, cert.passed, cert.rate) == ("nearest_neighbor", True, 1.0)
    assert cert.constants["threshold"] == pytest.approx(math.exp(-1.0) / 4.0)
    assert cert.prefactor == pytest.approx(1.0 / (1.0 - 0.2 * math.e))
    assert cert.constants["A_lower_bound_holds"]
    assert cert.constants["A_tilde_lower_bound_holds"]

    refused = nearest_neighbor_certificate(nn_model_2d(0.1))
    assert not refused.passed
    assert refused.constants["margin"] < 0
    assert refused.prefactor is None


def test_nearest_neighbor_certificate_needs_its_eigenvalue_audits(monkeypatch):
    model = nn_model_2d(0.05)
    im = interaction_from_model(model)
    assert nearest_neighbor_certificate(model).passed
    true_lambda_min = InteractionMatrix.lambda_min
    # lambda_min(A) stays, lambda_min(A~) drops by 1 below the (Delta - 4 eps e) bound
    monkeypatch.setattr(InteractionMatrix, "lambda_min", lambda self: true_lambda_min(self) - (self is not im))
    cert = nearest_neighbor_certificate(model)
    assert cert.constants["margin"] > 0
    assert cert.constants["A_lower_bound_holds"] is True
    assert cert.constants["A_tilde_lower_bound_holds"] is False
    assert not cert.passed


def test_nearest_neighbor_certificate_product_case():
    cert = nearest_neighbor_certificate(nn_model_2d(0.0))
    assert cert.passed
    assert cert.prefactor == pytest.approx(1.0)  # 1/Delta with Delta = 1


def test_nearest_neighbor_certificate_requires_2d_nn():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.05))
    with pytest.raises(ValueError, match="2D"):
        nearest_neighbor_certificate(model)


def test_single_site_function_bound_factor():
    f = single_site_function(1, 3, np.sin, 1.0)
    assert np.allclose(f.grad_norms, [0.0, 1.0, 0.0])
    assert f.fn(np.array([0.0, math.pi / 2.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        single_site_function(0, 2, np.sin, -1.0)
