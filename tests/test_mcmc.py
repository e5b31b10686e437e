import hashlib
from dataclasses import replace

import numpy as np
import pytest

from gibbscert.bounds import coordinate, covariance_bound
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import periodic_grid
from gibbscert.model import (
    GibbsModel,
    algebraic_coupling,
    cosine_potential,
    gaussian_potential,
    nearest_neighbor_coupling,
)
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.oracles import mcmc
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
    assert chain_seed(42, 3) == splitmix64((splitmix64(42) + 3) % 2**64)
    seeds = {chain_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


def test_nearby_master_seeds_run_distinct_chains():
    # under master XOR index, masters 1000..1007 all ran chain seeds 1000..1007
    seed_sets = [{chain_seed(m, i) for i in range(8)} for m in range(1000, 1008)]
    assert len(set().union(*seed_sets)) == 64
    model = GibbsModel(
        periodic_grid([4, 4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.08)
    )
    cfg = SamplerConfig(chains=8, steps=4_000, burn_in=400, proposal_std=1.5, seed=1000)
    est_a, _, _ = mcmc_covariance_matrix(model, cfg)
    est_b, _, _ = mcmc_covariance_matrix(model, replace(cfg, seed=1001))
    # the same chains in another order would differ by rounding only
    assert np.max(np.abs(est_a - est_b)) > 1e-9 * np.max(np.abs(est_a))


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


def _lockstep_reference(model, cfg):
    """The per-step numpy formula with all chains in lockstep, one outer product per kept step."""
    n, C = model.n_sites, cfg.chains
    J, q, amp, freq = model.coupling_matrix(), model.q, model.amplitude, model.frequency
    rngs = [np.random.default_rng(chain_seed(cfg.seed, i)) for i in range(C)]
    X, ell = np.zeros((C, n)), np.zeros((C, n))
    s1, s2 = np.zeros((C, n)), np.zeros((C, n, n))
    accepted, rows = 0, np.arange(C)
    for done in range(0, cfg.steps, mcmc._BLOCK):
        block = min(mcmc._BLOCK, cfg.steps - done)
        sites = np.stack([r.integers(0, n, size=block) for r in rngs])
        moves = np.stack([r.normal(0.0, cfg.proposal_std, size=block) for r in rngs])
        logu = np.log(np.maximum(np.stack([r.random(size=block) for r in rngs]), 1e-320))
        for t in range(block):
            s = sites[:, t]
            xs = X[rows, s]
            prop = xs + moves[:, t]
            psi_prop = 0.5 * q[s] * prop**2 + amp[s] * np.cos(freq[s] * prop)
            psi_xs = 0.5 * q[s] * xs**2 + amp[s] * np.cos(freq[s] * xs)
            acc = logu[:, t] < -(psi_prop - psi_xs - (prop - xs) * ell[rows, s])
            dx = np.where(acc, prop - xs, 0.0)
            X[rows, s] = xs + dx
            ell += dx[:, None] * J[s, :]
            accepted += int(np.count_nonzero(acc))
            if done + t >= cfg.burn_in:
                s1 += X
                s2 += X[:, :, None] * X[:, None, :]
    count = cfg.steps - cfg.burn_in
    means = s1 / count
    per_chain = s2 / count - means[:, :, None] * means[:, None, :]
    return per_chain.mean(0), per_chain.std(0, ddof=1) / np.sqrt(C), accepted / (cfg.steps * C)


LOCKSTEP_MODELS = [
    GibbsModel(
        periodic_grid([4]),
        (
            gaussian_potential(1.0),
            cosine_potential(1.5, 0.2, 3.0),
            gaussian_potential(0.7),
            cosine_potential(2.0, -0.1, 0.5),
        ),
        nearest_neighbor_coupling(0.1),
    ),
    GibbsModel(periodic_grid([6]), gaussian_potential(1.0), algebraic_coupling(0.1, 1.0, 1)),
]


@pytest.mark.parametrize(
    "model, burn_in",
    [(m, b) for b in (mcmc._BLOCK + 100, 0, mcmc._BLOCK) for m in LOCKSTEP_MODELS],
    ids=[
        f"{name}{tail}"
        for tail in ("", "-no-burn-in", "-burn-in-at-block")
        for name in ("mixed-nn-4", "dense-algebraic-6")
    ],
)
def test_kernel_matches_lockstep_reference(model, burn_in, monkeypatch):
    # three blocks, burn-in ending inside the second, at the first block
    # boundary or not at all; the chains are the reference's bit for bit,
    # only the moment summation order differs
    block = mcmc._BLOCK
    cfg = SamplerConfig(chains=3, steps=2 * block + 17, burn_in=burn_in, proposal_std=1.5, seed=5)
    ref_est, ref_err, ref_rate = _lockstep_reference(model, cfg)
    folded = []
    real_fold = mcmc._fold

    def counting_fold(rows, s1, s2):
        folded.append(len(rows))
        real_fold(rows, s1, s2)

    monkeypatch.setattr(mcmc, "_fold", counting_fold)
    for fold in (mcmc._FOLD, 13):  # 13 floats: a fold every 2 or 3 kept rows
        monkeypatch.setattr(mcmc, "_FOLD", fold)
        folded.clear()
        est, err, rate = mcmc_covariance_matrix(model, cfg)
        assert sum(folded) == cfg.chains * (cfg.steps - cfg.burn_in)
        assert max(folded) == min(fold // model.n_sites, cfg.steps - cfg.burn_in)
        assert rate == ref_rate
        assert np.max(np.abs(est - ref_est)) <= 1e-12 * np.max(np.abs(ref_est))
        assert np.max(np.abs(err - ref_err)) <= 1e-12 * np.max(np.abs(ref_err))


@pytest.mark.parametrize(
    "model, digest, rate",
    [
        (
            GibbsModel(periodic_grid([4, 4]), cosine_potential(1.0, 0.1, 2.0), nearest_neighbor_coupling(0.08)),
            "51aa8e2f8a9175e2a66f7ec52d84653298dd62442a744e2d07032a3c93d9ba4a",
            0.6113448366969494,
        ),
        (
            ring(8, 0.1),
            "0680e1a61a546749447adcf54a3a307b514864a6daa0bda19fda61e26fb23587",
            0.5917322114505214,
        ),
    ],
    ids=["cosine-torus-4x4", "gaussian-ring-8"],
)
def test_kernel_output_is_pinned(model, digest, rate):
    # computed with the earlier kernel, before it changed: that one copied
    # every kept state into a flat buffer (one extend per step) and evaluated
    # psi twice per step; rebuilding the kept states from the accepts and
    # caching psi must not change a bit
    block = mcmc._BLOCK
    cfg = SamplerConfig(chains=3, steps=2 * block + 17, burn_in=block + 100, proposal_std=1.5, seed=5)
    est, err, got_rate = mcmc_covariance_matrix(model, cfg)
    assert hashlib.sha256(est.tobytes() + err.tobytes()).hexdigest() == digest
    assert got_rate == rate


@pytest.mark.parametrize("fold", [13, 100, 3])  # 3 floats: fewer than the 4 sites
def test_rebuilt_pieces_stay_within_one_fold(fold, monkeypatch):
    # the kept states are rebuilt piece by piece, never a whole block at once,
    # so the rows and the index scratch stay O(_FOLD) floats at any n
    model = LOCKSTEP_MODELS[0]
    cfg = SamplerConfig(chains=2, steps=mcmc._BLOCK + 500, burn_in=300, proposal_std=1.5, seed=9)
    pieces = []
    real_replay = mcmc._replay

    def recording_replay(carry, events, start, values, out):
        pieces.append(out.shape)
        real_replay(carry, events, start, values, out)

    monkeypatch.setattr(mcmc, "_replay", recording_replay)
    monkeypatch.setattr(mcmc, "_FOLD", fold)
    mcmc_covariance_matrix(model, cfg)
    bound = max(1, fold // model.n_sites)
    assert all(rows <= bound and n == model.n_sites for rows, n in pieces)
    assert sum(rows for rows, _ in pieces) == cfg.chains * (cfg.steps - cfg.burn_in)
