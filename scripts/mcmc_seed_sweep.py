#!/usr/bin/env python3
"""Count the master seeds on which the MCMC oracle fails a correct sampler.

    python3 scripts/mcmc_seed_sweep.py [chains ...]    # default: 8 64

Runs the 4x4 Gaussian torus (epsilon = 0.08, 20k steps, burn-in 2k) on
master seeds 9000-9019 for each chain count and compares every pair i <= j
with the exact covariance by mcmc_check's own rule: a pair fails unless
|est - cov| <= STDERR_MULTIPLE stderr (so a NaN fails), and more than
ALLOWED_VIOLATIONS["exact"] failing pairs fail the run.  Per chain count it
prints the number of failing seeds, the wall time per run and the nominal
false-fail probability of that rule under exact sampling.
"""

import sys
import time

import numpy as np

from gibbscert.lattice import periodic_grid
from gibbscert.model import GibbsModel, gaussian_potential, nearest_neighbor_coupling
from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model
from gibbscert.oracles.mcmc import (
    ALLOWED_VIOLATIONS,
    STDERR_MULTIPLE,
    SamplerConfig,
    false_fail_probability,
    mcmc_covariance_matrix,
)

SEEDS = range(9000, 9020)


def main(argv):
    counts = [int(arg) for arg in argv] or [8, 64]
    model = GibbsModel(periodic_grid([4, 4]), gaussian_potential(1.0), nearest_neighbor_coupling(0.08))
    cov = gaussian_exact_covariance(gaussian_from_model(model))
    upper = np.triu_indices(model.n_sites)
    allowed = ALLOWED_VIOLATIONS["exact"]
    print(f"{'chains':>6} {'failing seeds':>14} {'s per run':>10} {'nominal P(fail)':>16}")
    for chains in counts:
        failing, elapsed = 0, 0.0
        for seed in SEEDS:
            cfg = SamplerConfig(chains=chains, steps=20_000, burn_in=2_000, proposal_std=1.5, seed=seed)
            start = time.perf_counter()
            est, err, _ = mcmc_covariance_matrix(model, cfg)
            elapsed += time.perf_counter() - start
            ok = np.abs(est - cov) <= STDERR_MULTIPLE * err
            failing += np.count_nonzero(~ok[upper]) > allowed
        nominal = false_fail_probability(chains, len(upper[0]), allowed)
        print(f"{chains:>6} {failing:>8} of {len(SEEDS):<3} {elapsed / len(SEEDS):>10.3f} {nominal:>16.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
