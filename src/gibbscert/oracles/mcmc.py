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

from ..bounds import Observable
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


@dataclass(frozen=True)
class ChainEstimate:
    estimate: float
    stderr: float
    chains: int
    steps: int
    burn_in: int
    seed: int
    acceptance_rate: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "chains": self.chains,
            "steps": self.steps,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "acceptance_rate": self.acceptance_rate,
            "warnings": list(self.warnings),
        }


def _run_chains(model: GibbsModel, cfg: SamplerConfig, accumulate):
    """Drive all chains in lockstep; call accumulate(X) once per kept step."""
    n = model.n_sites
    C = cfg.chains
    J = model.coupling_matrix()
    q, amp, freq = model.q, model.amplitude, model.frequency
    rngs = [np.random.default_rng(chain_seed(cfg.seed, i)) for i in range(C)]

    X = np.zeros((C, n))
    ell = X @ J  # running linear fields sum_j J_ij x_j per chain
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
                accumulate(X)
        done += block
    return accepted / (cfg.steps * C)


def _pooled(per_chain: np.ndarray):
    """Pool per-chain estimates; stderr from across-chain variation."""
    est = np.mean(per_chain, axis=0)
    err = np.std(per_chain, axis=0, ddof=1) / np.sqrt(per_chain.shape[0])
    return est, err


def mcmc_estimate_covariance(
    model: GibbsModel, f: Observable, g: Observable, cfg: SamplerConfig
) -> ChainEstimate:
    """Estimate cov(f, g) under the model's Gibbs measure."""
    C = cfg.chains
    sf = np.zeros(C)
    sg = np.zeros(C)
    sfg = np.zeros(C)
    sff = np.zeros(C)
    sgg = np.zeros(C)
    count = 0

    def accumulate(X):
        nonlocal count
        fv = f.fn(X)
        gv = g.fn(X)
        sf[...] += fv
        sg[...] += gv
        sfg[...] += fv * gv
        sff[...] += fv * fv
        sgg[...] += gv * gv
        count += 1

    rate = _run_chains(model, cfg, accumulate)
    var_f = sff / count - (sf / count) ** 2
    var_g = sgg / count - (sg / count) ** 2
    if np.any(var_f <= 0) or np.any(var_g <= 0):
        raise ValueError("observable has zero variance along a chain")
    per_chain = sfg / count - (sf / count) * (sg / count)
    est, err = _pooled(per_chain)
    warnings = ()
    if not 0.05 <= rate <= 0.95:
        warnings = (f"acceptance rate {rate:.3f} outside [0.05, 0.95]",)
    return ChainEstimate(
        estimate=float(est),
        stderr=float(err),
        chains=cfg.chains,
        steps=cfg.steps,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        acceptance_rate=rate,
        warnings=warnings,
    )


def mcmc_covariance_matrix(model: GibbsModel, cfg: SamplerConfig):
    """Pooled estimate and stderr for every coordinate pair at once.

    Returns (cov, stderr, acceptance_rate); much cheaper than calling the
    pairwise estimator N(N+1)/2 times because the chains are shared.
    """
    n = model.n_sites
    C = cfg.chains
    s1 = np.zeros((C, n))
    s2 = np.zeros((C, n, n))
    count = 0

    def accumulate(X):
        nonlocal count
        s1[...] += X
        s2[...] += X[:, :, None] * X[:, None, :]
        count += 1

    rate = _run_chains(model, cfg, accumulate)
    means = s1 / count
    per_chain = s2 / count - means[:, :, None] * means[:, None, :]
    diag = np.diagonal(per_chain, axis1=1, axis2=2)
    if np.any(diag <= 0):
        raise ValueError("a coordinate has zero variance along a chain")
    est, err = _pooled(per_chain)
    return est, err, rate
