import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.interaction import (
    _require_symmetric,
    build_interaction_matrix,
    build_tilted_matrix,
    dominance_margin,
    interaction_from_model,
    inverse_entrywise,
    is_positive_definite,
    neumann_contraction_constant,
    neumann_partial_sums,
    pi_criterion,
    weighted_similarity_check,
)
from gibbscert.lattice import explicit_metric, periodic_grid
from gibbscert.model import GibbsModel, gaussian_potential, nearest_neighbor_coupling
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model


def kappa_2site(k):
    return np.array([[0.0, k], [k, 0.0]])


def random_dominant(rng, n):
    kappa = np.abs(rng.normal(size=(n, n)))
    kappa = 0.5 * (kappa + kappa.T)
    np.fill_diagonal(kappa, 0.0)
    rho = kappa.sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
    return build_interaction_matrix(rho, kappa)


def test_build_examples():
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.0))
    assert np.allclose(im.A, np.eye(2))
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    assert np.allclose(im.A, [[1.0, -0.5], [-0.5, 1.0]])
    cycle3 = np.ones((3, 3)) - np.eye(3)
    im = build_interaction_matrix([2.0, 2.0, 2.0], cycle3)
    assert np.allclose(im.A, 2.0 * np.eye(3) - cycle3)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        build_interaction_matrix([1.0, 0.0], kappa_2site(0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        build_interaction_matrix([1.0, 1.0], kappa_2site(-0.1))
    with pytest.raises(ValueError, match="diagonal"):
        build_interaction_matrix([1.0, 1.0], np.array([[0.1, 0.0], [0.0, 0.1]]))
    with pytest.raises(ValueError, match="symmetric"):
        build_interaction_matrix([1.0, 1.0], np.array([[0.0, 0.2], [0.1, 0.0]]))




def allclose_verdict(a) -> bool:
    """The symmetry test as one np.allclose, with the scale _require_symmetric uses."""
    return bool(np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(a))))))


@pytest.mark.parametrize(
    "upper, lower, symmetric",
    [
        (math.nan, math.nan, False),
        (0.5, math.nan, False),
        (math.inf, math.inf, True),
        (-math.inf, -math.inf, True),
        (math.inf, 0.5, False),  # the one-pass gap is inf <= atol = inf, yet asymmetric
        (0.0, 1e-12, True),  # an asymmetry of exactly atol = 1e-12 * max(1, max|a|)
        (0.0, math.nextafter(1e-12, 1.0), False),
        (2.0**22, 2.0**22 + 4503 * 2.0**-30, True),  # atol = 1e-12 * max|a| ~ 4503.6 ulps of 2^22
        (2.0**22, 2.0**22 + 4504 * 2.0**-30, False),
    ],
    ids=["nan-pair", "one-nan", "inf-pair", "minus-inf-pair", "one-inf", "at-atol", "above-atol", "scaled-at", "scaled-above"],
)
def test_symmetry_check_keeps_the_allclose_verdict(upper, lower, symmetric):
    a = np.eye(3)
    a[0, 2], a[2, 0] = upper, lower
    with np.errstate(invalid="ignore"):  # allclose warns of the atol = inf that an inf entry gives
        assert allclose_verdict(a) == symmetric
        if symmetric:
            assert _require_symmetric(a) is not None
        else:
            with pytest.raises(ValueError, match="symmetric"):
                _require_symmetric(a)

def test_positive_definite_examples():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert is_positive_definite(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        is_positive_definite(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_dominance_examples():
    assert dominance_margin(np.eye(2)) == pytest.approx(1.0)
    assert dominance_margin(np.array([[1.0, -0.5], [-0.5, 1.0]])) == pytest.approx(0.5)
    assert dominance_margin(np.array([[1.0, -1.0], [-1.0, 1.0]])) <= 0  # not strictly dominant


def test_inverse_examples():
    assert np.allclose(inverse_entrywise(np.eye(3)), np.eye(3))
    inv = inverse_entrywise(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert np.allclose(inv, [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])
    with pytest.raises(ValueError, match="positive definite"):
        inverse_entrywise(np.array([[1.0, -1.0], [-1.0, 1.0]]))


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_m_matrix_inverse_nonnegative(n, seed):
    im = random_dominant(np.random.default_rng(seed), n)
    inv = inverse_entrywise(im.A)
    assert np.all(inv >= 0.0)  # clamped M-matrix inverse


def test_tilted_examples():
    im = build_interaction_matrix([2.0, 3.0], kappa_2site(0.0))
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    tm = build_tilted_matrix(im, geom)
    assert tm.lambda_min() == pytest.approx(2.0)  # min rho for a product measure

    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.1))
    tm = build_tilted_matrix(im, geom)
    assert np.allclose(tm.A, [[1.0, -0.1 * math.e], [-0.1 * math.e, 1.0]])
    assert np.array_equal(tm.rho, im.rho)
    assert tm.lambda_min() == pytest.approx(1.0 - 0.1 * math.e)


def test_tilted_1d_ring_matches_scaled_coupling():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.1))
    im = interaction_from_model(model)
    tm = build_tilted_matrix(im, geom)
    scaled = GibbsModel(
        geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.1 * math.e)
    )
    assert np.allclose(tm.A, interaction_from_model(scaled).A)


def test_inverse_and_tilted_cached_read_only():
    geom = periodic_grid([6])
    im = interaction_from_model(
        GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.1))
    )
    inv = im.inverse()
    assert im.inverse() is inv
    assert np.array_equal(inv, inverse_entrywise(im.A))
    assert im.lambda_min() is im.lambda_min()
    tm = im.tilted(geom)
    assert im.tilted(geom) is tm
    assert np.array_equal(tm.A, build_tilted_matrix(im, geom).A)
    inv_t = tm.inverse()
    assert tm.inverse() is inv_t
    assert np.array_equal(inv_t, inverse_entrywise(tm.A))
    for array in (inv, inv_t, tm.A, tm.kappa, im.A, im.rho, im.kappa):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0


def test_tilted_negative_marks_unavailable():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    tm = build_tilted_matrix(interaction_from_model(model), geom)
    assert tm.lambda_min() < 0
    with pytest.raises(ValueError, match="positive definite"):
        tm.inverse()


def test_weighted_similarity_examples():
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])
    check = weighted_similarity_check(a, [1.0, 1.0])
    assert check.passed and check.rho == pytest.approx(0.5)  # lambda_min(A)
    check = weighted_similarity_check(np.eye(2), [3.0, 0.5])
    assert check.rho == pytest.approx(1.0)
    check = weighted_similarity_check(a, [2.0, 1.0])
    assert check.rho == pytest.approx(0.375)  # 1 - 0.625
    with pytest.raises(ValueError, match="positive"):
        weighted_similarity_check(a, [1.0, 0.0])


def test_pi_criterion_gaussian_consistency():
    # for a Gaussian model the spectral gap is exactly lambda_min(A):
    # the worst linear direction attains variance 1/rho
    geom = periodic_grid([6])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.15))
    im = interaction_from_model(model)
    rho = pi_criterion(im.A)
    assert rho is not None
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    lam, vecs = np.linalg.eigh(im.A)
    w = vecs[:, 0]
    assert w @ cov @ w == pytest.approx(1.0 / rho, rel=1e-12)
    assert pi_criterion(np.array([[1.0, -1.0], [-1.0, 1.0]])) is None


def test_contraction_examples():
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.0))
    assert neumann_contraction_constant(im) == 0.0
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    assert neumann_contraction_constant(im) == pytest.approx(0.5)
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    assert neumann_contraction_constant(interaction_from_model(model)) == pytest.approx(0.4)
    with pytest.raises(ValueError, match="contraction"):
        neumann_contraction_constant(build_interaction_matrix([1.0, 1.0], kappa_2site(1.0)))


def test_neumann_terms_match_displayed_formulas():
    # T_1 and T_2 entries against the explicit kappa/rho expressions
    rng = np.random.default_rng(3)
    im = random_dominant(rng, 5)
    exp = neumann_partial_sums(im, 2)
    rho, kappa = im.rho, im.kappa
    assert np.allclose(exp.terms[0], np.diag(1.0 / rho))
    t1 = kappa / np.outer(rho, rho)
    assert np.allclose(exp.terms[1], t1)
    n = len(rho)
    t2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            t2[i, j] = sum(
                kappa[i, s] * kappa[s, j] / (rho[i] * rho[s] * rho[j]) for s in range(n)
            )
    assert np.allclose(exp.terms[2], t2)


def test_neumann_examples():
    im = build_interaction_matrix([2.0, 4.0], kappa_2site(0.0))
    exp = neumann_partial_sums(im, 3)
    assert np.allclose(exp.terms[0], np.diag([0.5, 0.25]))
    assert all(np.allclose(t, 0.0) for t in exp.terms[1:])

    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    exp = neumann_partial_sums(im, 10)
    assert abs(exp.partial_sums[10][0, 1] - 2.0 / 3.0) < 0.5**10

    with pytest.raises(ValueError, match="dominance"):
        neumann_partial_sums(build_interaction_matrix([1.0, 1.0], kappa_2site(1.0)), 4)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_neumann_sums_monotone_and_convergent(n, seed):
    im = random_dominant(np.random.default_rng(seed), n)
    K = 64
    exp = neumann_partial_sums(im, K)
    inv = inverse_entrywise(im.A)
    prev = exp.partial_sums[0]
    for s in exp.partial_sums[1:]:
        assert np.all(s >= prev - 1e-14)
        prev = s
    c = neumann_contraction_constant(im)
    bound = c**K / (1.0 - c) * float(np.max(1.0 / im.rho))
    assert np.max(np.abs(inv - exp.partial_sums[K])) <= bound + 1e-12
