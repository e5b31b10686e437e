import hashlib
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert import _blas
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


def test_steps_count_site_updates_in_whole_sweeps():
    # steps // n sweeps, the burn-in rounded up to whole sweeps, one state kept per sweep
    cfg = SamplerConfig(chains=2, steps=20_000, burn_in=2_000, proposal_std=1.0, seed=0)
    assert cfg.sweeps(16) == (1250, 125)
    assert cfg.sweeps(6) == (3333, 334)
    assert replace(cfg, steps=63, burn_in=16).sweeps(16) == (3, 1)
    with pytest.raises(ValueError, match="keep 1 sweeps of 16 site updates; need at least 2"):
        replace(cfg, steps=63, burn_in=17).sweeps(16)  # 17 steps of burn-in round up to 2 sweeps
    with pytest.raises(ValueError, match="keep 0 sweeps"):
        replace(cfg, steps=20, burn_in=1).sweeps(16)


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
            bound = covariance_bound(im, coordinate(i, 4), coordinate(j, 4))
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
        w = np.exp(-(0.5 * pot.q * x**2 + pot.amplitude * np.cos(pot.frequency * x)))
        mean = np.sum(x * w) / np.sum(w)
        var = np.sum((x - mean) ** 2 * w) / np.sum(w)
        assert abs(est[i, i] - var) <= 4.0 * err[i, i]


def _lockstep_reference(model, cfg):
    """A scalar sweep with all chains in lockstep: each chain's draws of
    rng.normal(0, std, (B, n)) then rng.random((B, n)) per block of
    mcmc._BLOCK sweeps, the sites visited class by class, one site and one
    chain at a time in Python floats from the energy of the model."""
    n, C = model.n_sites, cfg.chains
    J, q = model.coupling_matrix().tolist(), model.q.tolist()
    amp, freq = model.amplitude.tolist(), model.frequency.tolist()
    order = [int(s) for sites in mcmc.colour_classes(model.coupling_matrix()) for s in sites]
    sweeps, burn = cfg.steps // n, -(-cfg.burn_in // n)
    rngs = [np.random.default_rng(chain_seed(cfg.seed, i)) for i in range(C)]
    states = [[0.0] * n for _ in range(C)]
    kept = [[] for _ in range(C)]
    accepted = 0

    def psi(s, v):
        return 0.5 * q[s] * v * v + amp[s] * math.cos(freq[s] * v)

    for done in range(0, sweeps, mcmc._BLOCK):
        B = min(mcmc._BLOCK, sweeps - done)
        draws = [(r.normal(0.0, cfg.proposal_std, (B, n)).tolist(), r.random((B, n)).tolist()) for r in rngs]
        for b in range(B):
            for x, (moves, uniforms), rows in zip(states, draws, kept):
                for s in order:
                    prop = x[s] + moves[b][s]
                    field = sum(J[s][j] * x[j] for j in range(n) if j != s)
                    energy_change = psi(s, prop) - psi(s, x[s]) - (prop - x[s]) * field
                    if math.log(uniforms[b][s]) < -energy_change:
                        x[s] = prop
                        accepted += 1
                if done + b >= burn:
                    rows.append(list(x))
    kept = np.array(kept)  # (chains, kept sweeps, n)
    centred = kept - kept.mean(axis=(0, 1))
    per_chain = np.einsum("cti,ctj->cij", centred, centred) / kept.shape[1]
    return per_chain.mean(0), per_chain.std(0, ddof=1) / np.sqrt(C), accepted / (sweeps * n * C)


LOCKSTEP_MODELS = {
    "mixed-nn-4": GibbsModel(
        periodic_grid([4]),
        (
            gaussian_potential(1.0),
            cosine_potential(1.5, 0.2, 3.0),
            gaussian_potential(0.7),
            cosine_potential(2.0, -0.1, 0.5),
        ),
        nearest_neighbor_coupling(0.1),
    ),
    "dense-algebraic-6": GibbsModel(periodic_grid([6]), gaussian_potential(1.0), algebraic_coupling(0.1, 1.0, 1)),
    "nn-torus-4x4": GibbsModel(periodic_grid([4, 4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.08)),
    "cosine-odd-ring-5": GibbsModel(periodic_grid([5]), cosine_potential(1.0, 0.3, 2.0), nearest_neighbor_coupling(-0.2)),
}
CLASS_COUNTS = {"mixed-nn-4": 2, "dense-algebraic-6": 6, "nn-torus-4x4": 2, "cosine-odd-ring-5": 3}
BURN_INS = {
    "": lambda n: n * (mcmc._BLOCK + mcmc._SLAB + 10) - 3,
    "-no-burn-in": lambda n: 0,
    "-burn-in-at-block": lambda n: n * mcmc._BLOCK,
}


@pytest.mark.parametrize(
    "name, tail",
    [(name, tail) for tail in BURN_INS for name in LOCKSTEP_MODELS],
    ids=[name + tail for tail in BURN_INS for name in LOCKSTEP_MODELS],
)
def test_kernel_matches_lockstep_reference(name, tail):
    # three blocks of sweeps and steps that are not a multiple of n; the
    # burn-in ends inside the second block (and not on a sweep), at the first
    # block boundary or not at all.  The accepts are the reference's, and
    # the estimates differ only by the order of the sums
    model = LOCKSTEP_MODELS[name]
    n = model.n_sites
    assert len(mcmc.colour_classes(model.coupling_matrix())) == CLASS_COUNTS[name]
    cfg = SamplerConfig(
        chains=3, steps=n * (2 * mcmc._BLOCK + 17) + n - 1, burn_in=BURN_INS[tail](n), proposal_std=1.5, seed=5
    )
    ref_est, ref_err, ref_rate = _lockstep_reference(model, cfg)
    est, err, rate = mcmc_covariance_matrix(model, cfg)
    assert rate == ref_rate
    assert np.max(np.abs(est - ref_est)) <= 1e-12 * np.max(np.abs(ref_est))
    assert np.max(np.abs(err - ref_err)) <= 1e-12 * np.max(np.abs(ref_err))


@pytest.mark.parametrize(
    "model, digest, rate",
    [
        (
            GibbsModel(periodic_grid([4, 4]), cosine_potential(1.0, 0.1, 2.0), nearest_neighbor_coupling(0.08)),
            "2ee15e1614165e1f8bdee92caeb05817bc19a1f2470bc636421d98efbfa1a39d",
            0.6110333333333333,
        ),
        (
            ring(8, 0.1),
            "d765d36b0d4e2cb04580dda3d12e3643ba0fa8d731f1ed022216f29dfbf316dd",
            0.5906333333333333,
        ),
    ],
    ids=["cosine-torus-4x4", "gaussian-ring-8"],
)
def test_kernel_output_is_pinned(model, digest, rate):
    # computed once from the checkerboard kernel when it replaced the
    # random-scan walk; a change of layout or speed must not change a bit
    cfg = SamplerConfig(chains=3, steps=20_000, burn_in=2_000, proposal_std=1.5, seed=5)
    est, err, got_rate = mcmc_covariance_matrix(model, cfg)
    assert hashlib.sha256(est.tobytes() + err.tobytes()).hexdigest() == digest
    assert got_rate == rate


CONTROLS = _blas._controls()
WORKER_MODELS = [LOCKSTEP_MODELS["nn-torus-4x4"], LOCKSTEP_MODELS["dense-algebraic-6"]]
SHORT = SamplerConfig(chains=4, steps=600, burn_in=100, proposal_std=1.5, seed=17)


@pytest.mark.parametrize("chains", [2, 3, 8, 9, 64])
@pytest.mark.parametrize("model", WORKER_MODELS, ids=["nn-torus-4x4", "dense-algebraic-6"])
def test_output_is_bit_identical_at_any_worker_count(model, chains):
    # the kernel's only workers are OpenBLAS threads, and it runs on one of
    # them, so the caller's thread count changes no bit
    cfg = replace(SHORT, chains=chains)
    before = [get() for get, _ in CONTROLS]
    est, err, rate = mcmc_covariance_matrix(model, cfg)
    try:
        for count in (1, len(os.sched_getaffinity(0)) + 1):
            for _, set_count in CONTROLS:
                set_count(count)
            assert [get() for get, _ in CONTROLS] == [count] * len(CONTROLS)
            got_est, got_err, got_rate = mcmc_covariance_matrix(model, cfg)
            assert np.array_equal(got_est, est)
            assert np.array_equal(got_err, err)
            assert got_rate == rate
    finally:
        for (_, set_count), count in zip(CONTROLS, before):
            set_count(count)


def _check_colouring(J):
    classes = mcmc.colour_classes(J)
    sites = np.concatenate(classes)
    assert sorted(sites.tolist()) == list(range(len(J)))  # a partition of the sites
    for sites in classes:
        assert list(sites) == sorted(sites)
        block = J[np.ix_(sites, sites)]
        assert not np.any(block[~np.eye(len(sites), dtype=bool)])  # no coupled pair inside a class
    return classes


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_colour_classes_partition_the_sites_into_uncoupled_sets(data):
    n = data.draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    J = np.zeros((n, n))
    for i, j in edges:
        J[i, j] = J[j, i] = data.draw(st.floats(-1.0, 1.0).filter(lambda v: v != 0.0))
    J[np.diag_indices(n)] = data.draw(st.floats(-1.0, 1.0))  # the diagonal couples nothing
    _check_colouring(J)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_dense_coupling_gives_one_class_per_site(n):
    J = np.full((n, n), 0.1)
    assert [c.tolist() for c in _check_colouring(J)] == [[s] for s in range(n)]
    assert len(mcmc.colour_classes(LOCKSTEP_MODELS["dense-algebraic-6"].coupling_matrix())) == 6


def test_nearest_neighbour_torus_is_a_checkerboard():
    classes = mcmc.colour_classes(LOCKSTEP_MODELS["nn-torus-4x4"].coupling_matrix())
    parity = [[(s // 4 + s % 4) % 2 for s in c] for c in classes]
    assert parity == [[0] * 8, [1] * 8]


def test_student_t_tail_matches_scipy():
    from scipy import stats

    for dof in range(1, 64):
        for t in (0.3, 1.0, 2.0, 3.0, 4.5):
            expected = 2.0 * stats.t.sf(t, dof)
            assert mcmc.t_two_sided_tail(t, dof) == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_false_fail_probability_is_binomial_over_pairs():
    from scipy import stats

    for chains, pairs, allowed in ((8, 36, 1), (8, 136, 1), (64, 136, 1), (1024, 136, 1), (4, 10, 0), (8, 3, 5)):
        p = 2.0 * stats.t.sf(3.0, chains - 1)
        expected = stats.binom.sf(allowed, pairs, p)
        got = mcmc.false_fail_probability(chains, pairs, allowed)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-15)
    assert mcmc.false_fail_probability(8, 36, 1) == pytest.approx(0.16, abs=0.005)


def exact_false_fail_probability(chains: int, pairs: int, allowed: int) -> Fraction:
    """P(Binomial(pairs, p) > allowed) in exact arithmetic, p the double the library uses."""
    p = Fraction(mcmc.t_two_sided_tail(mcmc.STDERR_MULTIPLE, chains - 1))
    a, d = p.numerator, p.denominator  # d is a power of two, so b / d = 1 - p exactly
    b = d - a

    def weight(lo: int, hi: int) -> int:  # sum of C(pairs, k) a^k b^(pairs-k) over lo <= k <= hi, by Horner
        total, a_power = 0, 1
        for k in range(lo, hi + 1):
            total = total * b + math.comb(pairs, k) * a_power
            a_power *= a
        return total * a**lo * b ** (pairs - hi)

    if allowed < pairs // 2:  # the shorter of the two sums
        return 1 - Fraction(weight(0, allowed), d**pairs)
    return Fraction(weight(allowed + 1, pairs), d**pairs)


@pytest.mark.parametrize("chains", [2, 3, 8, 64])
def test_false_fail_probability_matches_the_exact_binomial_tail(chains):
    for pairs in (1, 10, 136, 2080):
        for allowed in sorted({0, 1, 5, 136, 226, 300, pairs - 1, pairs, pairs + 5}):
            got = mcmc.false_fail_probability(chains, pairs, allowed)
            assert 0.0 <= got <= 1.0
            if allowed >= pairs:
                assert got == 0.0
            exact = exact_false_fail_probability(chains, pairs, allowed)
            assert abs(Fraction(got) - exact) <= Fraction(1e-12), (chains, pairs, allowed, got, float(exact))


def test_false_fail_probability_past_the_double_range_of_a_coefficient():
    # C(2080, 226) > 1.8e308: the first term that raised OverflowError (about 1e-92)
    assert float(math.comb(2080, 225)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(2080, 226))
    assert 0.0 <= mcmc.false_fail_probability(8, 2080, 300) <= 1e-15
    # 16 sites, every one of the 136 pairs allowed to fail: nothing can fail the run
    assert mcmc.false_fail_probability(8, 136, 136) == 0.0


def test_false_fail_probability_keeps_the_bits_of_the_binomial_sum():
    # wherever no coefficient overflows, the value is the plain sum it always was
    for chains in (2, 8, 64):
        p = mcmc.t_two_sided_tail(mcmc.STDERR_MULTIPLE, chains - 1)
        for pairs, allowed in ((36, 1), (136, 1), (136, 60), (2080, 0), (2080, 225), (300, 299)):
            kept = sum(math.comb(pairs, k) * p**k * (1.0 - p) ** (pairs - k) for k in range(allowed + 1))
            assert mcmc.false_fail_probability(chains, pairs, allowed) == max(0.0, 1.0 - kept)


def test_pooled_mean_keeps_exact_comparison_at_1024_chains():
    # The per-chain mean biased each chain's covariance by about tau/K of the
    # variance, which 1024 chains resolve: 14 of 20 seeds (9000-9019) then
    # had more than one pair outside 3 stderr.  With the pooled mean the rule
    # holds up to its own false-fail rate (about 0.05 per seed here).
    model = LOCKSTEP_MODELS["nn-torus-4x4"]
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    upper = np.triu_indices(model.n_sites)
    failing = []
    for seed in range(9000, 9010):
        cfg = SamplerConfig(chains=1024, steps=20_000, burn_in=2_000, proposal_std=1.5, seed=seed)
        est, err, _ = mcmc_covariance_matrix(model, cfg)
        violations = np.count_nonzero(np.abs(est - cov)[upper] > 3.0 * err[upper])
        if violations > 1:
            failing.append((seed, violations))
    assert len(failing) <= 1, failing
