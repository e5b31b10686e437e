"""Random-scan Metropolis estimation of covariances.

Chains are fully independent: chain i draws from its own generator seeded by
splitmix64((splitmix64(master) + i) mod 2**64), so runs are reproducible bit
for bit, chains stay independent no matter how many run, and distinct master
seeds run distinct chains.

The chains run one after another, each one step at a time in Python floats:
a step evaluates psi_s twice, and an accepted move updates the linear field
J x over the nonzero entries of J's row s only, so it costs O(nnz of that
row).  Kept states are buffered and folded into the chain's moment sums by
one matrix product per at most max(1, _FOLD // n) rows.  Standard errors
come from the spread of the per-chain covariance estimates, which sidesteps
within-chain autocorrelation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import GibbsModel

_BLOCK = 8192  # steps drawn per generator call
_FOLD = 1 << 17  # kept floats buffered per chain before a moment fold
MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> int:
    """One step of the splitmix64 sequence; the documented chain-seed mix."""
    z = (seed + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def chain_seed(master: int, index: int) -> int:
    """Seed of chain `index`: splitmix64((splitmix64(master) + index) mod 2**64).

    Offsetting a mixed master keeps nearby masters apart; a plain
    `master XOR index` gave masters that differ only in their low bits the
    same set of chains.
    """
    return splitmix64((splitmix64(master) + index) & MASK64)


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


def _site_table(model: GibbsModel):
    """Per site: (0.5*q, amplitude, frequency, [(j, J[s, j]) for nonzero j])."""
    J = model.coupling_matrix()
    half_q = (0.5 * model.q).tolist()
    amp, freq = model.amplitude.tolist(), model.frequency.tolist()
    table = []
    for s in range(model.n_sites):
        nz = np.flatnonzero(J[s])
        row = list(zip(nz.tolist(), J[s, nz].tolist()))
        table.append((half_q[s], amp[s], freq[s], row))
    return table


def _fold(buf: list, n: int, s1: np.ndarray, s2: np.ndarray) -> None:
    """Add the kept states in `buf` (flat, n per row) to one chain's moment sums."""
    T = np.array(buf).reshape(-1, n)
    s1 += T.sum(0)
    s2 += T.T @ T


def _run_chain(rng, table, cfg: SamplerConfig, s1: np.ndarray, s2: np.ndarray) -> int:
    """Run one chain from x = 0, add its kept states to (s1, s2); return accepts.

    The draws are taken per block of _BLOCK steps (sites, then moves, then
    uniforms) and walked as Python floats.  The energy change is
    psi(prop) - psi(x_s) - (prop - x_s) * ell_s with the linear field
    ell = J x, which an accepted move updates over the nonzero entries of
    J's row only.
    """
    n = len(table)
    cos = math.cos
    fold_rows = max(1, _FOLD // n)
    x = [0.0] * n
    ell = [0.0] * n
    buf: list = []
    accepted = 0
    done = 0
    while done < cfg.steps:
        block = min(_BLOCK, cfg.steps - done)
        sites = rng.integers(0, n, size=block).tolist()
        moves = rng.normal(0.0, cfg.proposal_std, size=block).tolist()
        logu = np.log(np.maximum(rng.random(size=block), 1e-320)).tolist()
        t = 0
        while t < block:
            keep = done + t >= cfg.burn_in
            if keep:
                stop = min(block, t + fold_rows - len(buf) // n)
            else:
                stop = min(block, cfg.burn_in - done)
            for s, move, lu in zip(sites[t:stop], moves[t:stop], logu[t:stop]):
                hq, a, f, row = table[s]
                xs = x[s]
                prop = xs + move
                d = prop - xs
                d_h = (
                    (hq * (prop * prop) + a * cos(f * prop))
                    - (hq * (xs * xs) + a * cos(f * xs))
                    - d * ell[s]
                )
                if lu < -d_h:
                    x[s] = xs + d
                    for j, w in row:
                        ell[j] += d * w
                    accepted += 1
                if keep:
                    buf.extend(x)
            t = stop
            if keep and len(buf) == fold_rows * n:
                _fold(buf, n, s1, s2)
                buf = []
        done += block
    if buf:
        _fold(buf, n, s1, s2)
    return accepted


def mcmc_covariance_matrix(model: GibbsModel, cfg: SamplerConfig):
    """Pooled estimate and stderr of cov(x_i, x_j) for every coordinate pair.

    The chains run one after another; each adds its buffered kept states T
    to its moment sums as s1 += T.sum(0), s2 += T.T @ T.  Returns (cov,
    stderr, acceptance_rate).
    """
    n = model.n_sites
    C = cfg.chains
    table = _site_table(model)
    s1 = np.zeros((C, n))
    s2 = np.zeros((C, n, n))
    accepted = 0
    for c in range(C):
        rng = np.random.default_rng(chain_seed(cfg.seed, c))
        accepted += _run_chain(rng, table, cfg, s1[c], s2[c])
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
