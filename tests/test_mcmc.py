import numpy as np
import pytest

from gibbscert.bounds import coordinate, covariance_bound
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import periodic_grid
from gibbscert.model import (
    GibbsModel,
    cosine_potential,
    gaussian_potential,
    nearest_neighbor_coupling,
)
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.oracles.mcmc import (
    SamplerConfig,
    chain_seed,
    mcmc_covariance_matrix,
    splitmix64,
)

FAST = SamplerConfig(chains=8, steps=20_000, burn_in=2_000, proposal_std=1.5, seed=123)


def ring(n, eps, q=1.0):
    return GibbsModel(periodic_grid([n]), gaussian_potential(q), nearest_neighbor_coupling(eps))


def test_config_validation():
    with pytest.raises(ValueError, match="chains"):
        SamplerConfig(chains=1, steps=10, burn_in=1, proposal_std=1.0, seed=0)
    with pytest.raises(ValueError, match="burn_in"):
        SamplerConfig(chains=2, steps=10, burn_in=10, proposal_std=1.0, seed=0)
    with pytest.raises(ValueError, match="proposal_std"):
        SamplerConfig(chains=2, steps=10, burn_in=1, proposal_std=0.0, seed=0)


def test_seed_mixing_is_documented_rule():
    assert chain_seed(42, 3) == splitmix64(42 ^ 3)
    seeds = {chain_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


def test_determinism_bit_identical():
    model = ring(4, 0.1)
    est_a, err_a, rate_a = mcmc_covariance_matrix(model, FAST)
    est_b, err_b, rate_b = mcmc_covariance_matrix(model, FAST)
    assert np.array_equal(est_a, est_b)
    assert np.array_equal(err_a, err_b)
    assert rate_a == rate_b


def test_product_gaussian_independent_coordinates():
    est, err, rate = mcmc_covariance_matrix(ring(4, 0.0), FAST)
    assert abs(est[0, 1]) <= 3.0 * err[0, 1]
    assert err[0, 1] > 0
    assert 0.0 < rate < 1.0


def test_ferromagnetic_gaussian_matches_exact():
    model = ring(8, 0.2)
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    cfg = SamplerConfig(chains=8, steps=40_000, burn_in=4_000, proposal_std=1.5, seed=7)
    est, err, _ = mcmc_covariance_matrix(model, cfg)
    assert abs(est[0, 1] - cov[0, 1]) <= 3.0 * err[0, 1]
    assert np.allclose(est, est.T)


def test_perturbed_model_below_covariance_bound():
    geom = periodic_grid([4])
    model = GibbsModel(geom, cosine_potential(1.0, 0.1, 2.0), nearest_neighbor_coupling(0.1))
    im = interaction_from_model(model)
    est, err, _ = mcmc_covariance_matrix(model, FAST)
    for i in range(4):
        for j in range(4):
            bound = covariance_bound(im, coordinate(i, 4), coordinate(j, 4)).bound_value
            assert abs(est[i, j]) <= bound + 3.0 * err[i, j]


def test_zero_variance_observable_rejected():
    # a proposal this wide is never accepted, so every chain stays at 0
    cfg = SamplerConfig(chains=2, steps=2_000, burn_in=200, proposal_std=1e9, seed=3)
    with pytest.raises(ValueError, match="zero variance"):
        mcmc_covariance_matrix(ring(2, 0.0), cfg)


def test_low_acceptance_rate_reported():
    cfg = SamplerConfig(chains=2, steps=2_000, burn_in=200, proposal_std=60.0, seed=3)
    _, _, rate = mcmc_covariance_matrix(ring(2, 0.0), cfg)
    assert 0.0 < rate < 0.05


def test_mixed_per_site_potentials_match_single_site_variances():
    # uncoupled sites are independent, so each diagonal entry is the variance
    # of exp(-psi_i) on its own: a sampler mixing up the sites would miss
    pots = (
        gaussian_potential(1.0),
        cosine_potential(1.5, 0.2, 3.0),
        gaussian_potential(0.7),
        cosine_potential(2.0, -0.1, 0.5),
    )
    model = GibbsModel(periodic_grid([4]), pots, nearest_neighbor_coupling(0.0))
    est, err, rate = mcmc_covariance_matrix(model, FAST)
    assert 0.05 <= rate <= 0.95
    x = np.linspace(-12.0, 12.0, 200001)
    for i, pot in enumerate(pots):
        w = np.exp(-pot.value(x))
        mean = np.sum(x * w) / np.sum(w)
        var = np.sum((x - mean) ** 2 * w) / np.sum(w)
        assert abs(est[i, i] - var) <= 4.0 * err[i, i]
