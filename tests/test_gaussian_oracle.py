import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.interaction import interaction_from_model, inverse_entrywise
from gibbscert.lattice import explicit_metric, periodic_grid
from gibbscert.model import (
    GibbsModel,
    cosine_potential,
    explicit_coupling,
    gaussian_potential,
    nearest_neighbor_coupling,
)
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model


def test_identity_precision():
    assert np.allclose(gaussian_exact_covariance(np.eye(3)), np.eye(3))


def test_two_by_two_closed_form():
    cov = gaussian_exact_covariance(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert np.allclose(cov, [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])


def test_rejects_indefinite_precision():
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_exact_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_from_model_uses_the_hessian():
    geom = periodic_grid([4])
    model = GibbsModel(geom, gaussian_potential(2.0), nearest_neighbor_coupling(0.3))
    precision = gaussian_from_model(model)
    assert np.array_equal(precision, model.quadratic_part())
    assert not precision.flags.writeable


def test_from_model_rejects_perturbed():
    geom = periodic_grid([2])
    model = GibbsModel(geom, cosine_potential(1.0, 0.1, 1.0), nearest_neighbor_coupling(0.1))
    with pytest.raises(ValueError, match="Gaussian"):
        gaussian_from_model(model)


def _assert_oracle_is_the_inverse_of_a(model):
    # for a ferromagnetic Gaussian model A = diag(q) - J is the precision
    # matrix itself, and both are inverted by one routine
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    inv = inverse_entrywise(interaction_from_model(model).A)
    assert inv.tobytes() == cov.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    sides=st.sampled_from([[2], [3], [8], [24], [3, 3], [4, 6], [6, 6]]),
    q=st.floats(0.25, 4.0),
    strength=st.floats(0.0, 0.99),
)
def test_oracle_matches_inverse_on_nearest_neighbour_models(sides, q, strength):
    # strength < 1 keeps A strictly diagonally dominant: each site has at most 2 * dim neighbours
    eps = strength * q / (2 * len(sides))
    model = GibbsModel(periodic_grid(sides), gaussian_potential(q), nearest_neighbor_coupling(eps))
    _assert_oracle_is_the_inverse_of_a(model)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), sparsity=st.floats(0.0, 1.0))
def test_oracle_matches_inverse_on_explicit_couplings(n, seed, sparsity):
    rng = np.random.default_rng(seed)
    J = np.triu(rng.exponential(size=(n, n)) * (rng.uniform(size=(n, n)) >= sparsity), 1)
    J = J + J.T
    q = J.sum(axis=1) + rng.uniform(0.01, 2.0, size=n)
    model = GibbsModel(
        explicit_metric(np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)),
        tuple(gaussian_potential(float(qi)) for qi in q),
        explicit_coupling(J),
    )
    _assert_oracle_is_the_inverse_of_a(model)
