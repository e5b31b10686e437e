"""Random-scan Metropolis estimation of covariances.

Chains are fully independent: chain i draws from its own generator seeded by
a 64-bit mix of the master seed with the chain index (splitmix64 of
master XOR i), so runs are reproducible bit for bit and chains stay
independent no matter how many run.  Standard errors come from the spread of
the per-chain covariance estimates, which sidesteps within-chain
autocorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import GibbsModel

_BLOCK = 8192
MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> int:
    """One step of the splitmix64 sequence; the documented chain-seed mix."""
    z = (seed + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def chain_seed(master: int, index: int) -> int:
    return splitmix64((master ^ index) & MASK64)


@dataclass(frozen=True)
class SamplerConfig:
    chains: int
    steps: int
    burn_in: int
    proposal_std: float
    seed: int

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for across-chain errors")
        if self.steps <= self.burn_in:
            raise ValueError("steps must exceed burn_in")
        if self.proposal_std <= 0:
            raise ValueError("proposal_std must be positive")


def mcmc_covariance_matrix(model: GibbsModel, cfg: SamplerConfig):
    """Pooled estimate and stderr of cov(x_i, x_j) for every coordinate pair.

    The chains run in lockstep; each kept step adds X and its outer products
    to per-chain moment sums.  Returns (cov, stderr, acceptance_rate).
    """
    n = model.n_sites
    C = cfg.chains
    J = model.coupling_matrix()
    q, amp, freq = model.q, model.amplitude, model.frequency
    rngs = [np.random.default_rng(chain_seed(cfg.seed, i)) for i in range(C)]

    X = np.zeros((C, n))
    ell = X @ J  # running linear fields sum_j J_ij x_j per chain
    s1 = np.zeros((C, n))
    s2 = np.zeros((C, n, n))
    accepted = 0
    rows = np.arange(C)
    done = 0
    while done < cfg.steps:
        block = min(_BLOCK, cfg.steps - done)
        sites = np.stack([rng.integers(0, n, size=block) for rng in rngs])
        moves = np.stack(
            [rng.normal(0.0, cfg.proposal_std, size=block) for rng in rngs]
        )
        logu = np.log(
            np.maximum(np.stack([rng.random(size=block) for rng in rngs]), 1e-320)
        )
        for t in range(block):
            s = sites[:, t]
            xs = X[rows, s]
            prop = xs + moves[:, t]
            qs, amps, freqs = q[s], amp[s], freq[s]
            psi_prop = 0.5 * qs * prop**2 + amps * np.cos(freqs * prop)
            psi_xs = 0.5 * qs * xs**2 + amps * np.cos(freqs * xs)
            d_h = psi_prop - psi_xs - (prop - xs) * ell[rows, s]
            acc = logu[:, t] < -d_h
            dx = np.where(acc, prop - xs, 0.0)
            X[rows, s] = xs + dx
            ell += dx[:, None] * J[s, :]
            accepted += int(np.count_nonzero(acc))
            if done + t >= cfg.burn_in:
                s1 += X
                s2 += X[:, :, None] * X[:, None, :]
        done += block
    rate = accepted / (cfg.steps * C)

    count = cfg.steps - cfg.burn_in
    means = s1 / count
    per_chain = s2 / count - means[:, :, None] * means[:, None, :]
    diag = np.diagonal(per_chain, axis1=1, axis2=2)
    if np.any(diag <= 0):
        raise ValueError("a coordinate has zero variance along a chain")
    est = np.mean(per_chain, axis=0)
    err = np.std(per_chain, axis=0, ddof=1) / np.sqrt(C)
    return est, err, rate
