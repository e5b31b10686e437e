import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert import interaction
from gibbscert._blas import single_threaded
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
from gibbscert.lattice import distance_matrix, periodic_grid
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
    with pytest.raises(ValueError, match="normal"):  # subnormal: no pivot rule could decide A
        build_interaction_matrix([1.0, 1e-323], kappa_2site(0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        build_interaction_matrix([1.0, 1.0], kappa_2site(-0.1))
    with pytest.raises(ValueError, match="diagonal"):
        build_interaction_matrix([1.0, 1.0], np.array([[0.1, 0.0], [0.0, 0.1]]))
    with pytest.raises(ValueError, match="symmetric"):
        build_interaction_matrix([1.0, 1.0], np.array([[0.0, 0.2], [0.1, 0.0]]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_build_refuses_non_finite_rho_and_kappa(value):
    # a NaN rho passed every comparison, and lambda_min(A) then read -0.14 while
    # A^-1 raised "matrix must be symmetric"; an inf rho gave lambda_min nan
    with pytest.raises(ValueError, match="rho entries must be finite"):
        build_interaction_matrix([value, 1.0], kappa_2site(0.1))
    with pytest.raises(ValueError, match="kappa entries must be finite"):
        build_interaction_matrix([1.0, 1.0], kappa_2site(value))
    with pytest.raises(ValueError, match="kappa entries must be finite"):
        build_interaction_matrix([1.0, 1.0], np.array([[0.0, 0.1], [value, 0.0]]))



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


def random_z_matrix(rng, n, density, margin, scaled):
    """A positive definite Z-matrix s I - K, s = (1 + margin) lambda_max(K), or D (s I - K) D.

    K is nonnegative and symmetric with about the given share of nonzero
    entries, so s I - K has lambda_min = margin lambda_max(K) and, for small
    margins, rows that are not diagonally dominant; D = diag(d) with d > 0
    keeps the signs.
    """
    K = np.triu(rng.exponential(size=(n, n)) * (rng.uniform(size=(n, n)) < density), 1)
    K = K + K.T
    K[0, 1] = K[1, 0] = 1.0  # K is never 0, so lambda_max(K) > 0
    a = (1.0 + margin) * np.linalg.eigvalsh(K)[-1] * np.eye(n) - K
    if scaled:
        d = np.exp(rng.uniform(-3.0, 3.0, size=n))
        a = d[:, None] * a * d[None, :]
    return a


@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    log_margin=st.floats(-6.0, 0.0),
    scaled=st.booleans(),
    one_thread=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_m_matrix_inverse_nonnegative(n, seed, density, log_margin, scaled, one_thread):
    # n runs past LAPACK's block size; one BLAS thread or the default count
    a = random_z_matrix(np.random.default_rng(seed), n, density, 10.0**log_margin, scaled)
    with single_threaded() if one_thread else contextlib.nullcontext():
        inv = inverse_entrywise(a)
    assert not np.any(inv < 0.0)
    assert not np.any(np.signbit(inv))  # no -0.0 either


def test_tilted_examples():
    im = build_interaction_matrix([2.0, 3.0], kappa_2site(0.0))
    delta = np.array([[0.0, 1.0], [1.0, 0.0]])
    tm = build_tilted_matrix(im, delta)
    assert tm.lambda_min() == pytest.approx(2.0)  # min rho for a product measure

    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.1))
    tm = build_tilted_matrix(im, delta)
    assert np.allclose(tm.A, [[1.0, -0.1 * math.e], [-0.1 * math.e, 1.0]])
    assert np.array_equal(tm.rho, im.rho)
    assert tm.lambda_min() == pytest.approx(1.0 - 0.1 * math.e)


def test_tilted_1d_ring_matches_scaled_coupling():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.1))
    im = interaction_from_model(model)
    tm = build_tilted_matrix(im, distance_matrix(geom))
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
    tm = build_tilted_matrix(im, distance_matrix(geom))
    inv_t = tm.inverse()
    assert tm.inverse() is inv_t
    assert np.array_equal(inv_t, inverse_entrywise(tm.A))
    for array in (inv, inv_t, tm.A, tm.kappa, im.A, im.rho, im.kappa):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0


def test_tilted_negative_marks_unavailable():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    tm = build_tilted_matrix(interaction_from_model(model), distance_matrix(geom))
    assert tm.lambda_min() < 0
    with pytest.raises(ValueError, match="positive definite"):
        tm.inverse()


def test_weighted_similarity_examples():
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    assert weighted_similarity_check(im, [1.0, 1.0]) == pytest.approx(0.5)  # lambda_min(A)
    identity = build_interaction_matrix([1.0, 1.0], kappa_2site(0.0))
    assert weighted_similarity_check(identity, [3.0, 0.5]) == pytest.approx(1.0)
    assert weighted_similarity_check(im, [2.0, 1.0]) == pytest.approx(0.375)  # 1 - 0.625
    with pytest.raises(ValueError, match="positive"):
        weighted_similarity_check(im, [1.0, 0.0])


def test_pi_criterion_gaussian_consistency():
    # for a Gaussian model the spectral gap is exactly lambda_min(A):
    # the worst linear direction attains variance 1/rho
    geom = periodic_grid([6])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.15))
    im = interaction_from_model(model)
    rho = pi_criterion(im)
    assert rho is not None
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    lam, vecs = np.linalg.eigh(im.A)
    w = vecs[:, 0]
    assert w @ cov @ w == pytest.approx(1.0 / rho, rel=1e-12)
    assert pi_criterion(build_interaction_matrix([1.0, 1.0], kappa_2site(1.0))) is None


def test_pi_criterion_reads_the_cached_lambda_min(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return float(np.linalg.eigvalsh(a)[0])

    monkeypatch.setattr(interaction, "_smallest_eigenvalue", counted)
    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    assert pi_criterion(im) == im.lambda_min() == pytest.approx(0.5)
    assert len(calls) == 1


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
    terms, _ = zip(*neumann_partial_sums(im, 2))
    rho, kappa = im.rho, im.kappa
    assert np.allclose(terms[0], np.diag(1.0 / rho))
    t1 = kappa / np.outer(rho, rho)
    assert np.allclose(terms[1], t1)
    n = len(rho)
    t2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            t2[i, j] = sum(
                kappa[i, s] * kappa[s, j] / (rho[i] * rho[s] * rho[j]) for s in range(n)
            )
    assert np.allclose(terms[2], t2)


def test_neumann_examples():
    im = build_interaction_matrix([2.0, 4.0], kappa_2site(0.0))
    terms, _ = zip(*neumann_partial_sums(im, 3))
    assert len(terms) == 4
    assert np.allclose(terms[0], np.diag([0.5, 0.25]))
    assert all(np.allclose(t, 0.0) for t in terms[1:])

    im = build_interaction_matrix([1.0, 1.0], kappa_2site(0.5))
    *_, (_, partial) = neumann_partial_sums(im, 10)
    assert abs(partial[0, 1] - 2.0 / 3.0) < 0.5**10

    # refused when called, before any term is drawn
    with pytest.raises(ValueError, match="dominance"):
        neumann_partial_sums(build_interaction_matrix([1.0, 1.0], kappa_2site(1.0)), 4)


def test_neumann_stream_yields_fresh_arrays():
    # each (T_k, S_k) is a new pair: drawing the next one leaves those kept unchanged
    im = random_dominant(np.random.default_rng(5), 6)
    kept = [(t.copy(), s.copy(), t, s) for t, s in neumann_partial_sums(im, 5)]
    assert all(np.array_equal(a, t) and np.array_equal(b, s) for a, b, t, s in kept)
    assert not any(t is s for _, _, t, s in kept)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_neumann_sums_monotone_and_convergent(n, seed):
    im = random_dominant(np.random.default_rng(seed), n)
    K = 64
    inv = inverse_entrywise(im.A)
    prev = None
    for _, s in neumann_partial_sums(im, K):
        assert prev is None or np.all(s >= prev - 1e-14)
        prev = s
    c = neumann_contraction_constant(im)
    bound = c**K / (1.0 - c) * float(np.max(1.0 / im.rho))
    assert np.max(np.abs(inv - prev)) <= bound + 1e-12
