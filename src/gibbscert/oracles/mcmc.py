"""Random-scan Metropolis estimation of covariances.

Chains are fully independent: chain i draws from its own generator seeded by
splitmix64((splitmix64(master) + i) mod 2**64), so runs are reproducible bit
for bit, chains stay independent no matter how many run, and distinct master
seeds run distinct chains.

The chains run one after another, each one step at a time in Python floats;
the walk only decides accepts.  psi(x_s) is cached per site, so a step
evaluates psi once, at the proposal; on an accept the cache takes that value
when x_s + d == prop (the same float up to the sign of zero, which psi
ignores) and is recomputed otherwise, so it is bit-equal to a fresh
evaluation.  An accepted move updates the linear field J x over the nonzero
entries of J's row s only, O(nnz of that row), and records its step and new
value.  After each block numpy rebuilds the kept states from these records
by a forward fill (_replay) and folds them into the chain's moment sums by
one matrix product per max(1, _FOLD // n) rows, the partition of a per-step
copy, so the sums are the same bit for bit.  Standard errors come from the
spread of the per-chain covariance estimates, which sidesteps within-chain
autocorrelation.
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
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("need 0 <= burn_in < steps")
        if not 0 < self.proposal_std < math.inf:
            raise ValueError("proposal_std must be positive and finite")


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


def _fold(rows: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Add the kept states `rows` (one per row) to one chain's moment sums."""
    s1 += rows.sum(0)
    s2 += rows.T @ rows


def _replay(carry, events, start, values, out) -> None:
    """Fill out[k] with the chain's state after step start + k of its block.

    carry[s] indexes site s's value before the piece in `values` and moves to
    the piece's last row.  `events` holds each accept's step (earlier ones
    count as the first), site and value index in time order, so a running
    maximum down the steps picks each site's latest; one gather reads them.
    """
    at, sites, marks = events
    idx = np.empty(out.shape, np.intp)
    idx[:] = carry
    np.maximum.at(idx, (np.maximum(at - start, 0), sites), marks)
    np.maximum.accumulate(idx, axis=0, out=idx)
    np.take(values, idx, out=out)
    carry[:] = idx[-1]


def _run_chain(rng, table, cfg: SamplerConfig, s1: np.ndarray, s2: np.ndarray) -> int:
    """Run one chain from x = 0, add its kept states to (s1, s2); return accepts.

    The draws are taken per block of _BLOCK steps (sites, then moves, then
    uniforms) and walked as Python floats.  The energy change is
    psi(prop) - psi(x_s) - (prop - x_s) * ell_s with the linear field
    ell = J x, which an accepted move updates over the nonzero entries of
    J's row only.  Kept states are rebuilt in pieces of at most one fold.
    """
    n = len(table)
    cos = math.cos
    fold_rows = max(1, _FOLD // n)
    x, ell = [0.0] * n, [0.0] * n
    psi = [hq * (xs * xs) + a * cos(f * xs) for (hq, a, f, _), xs in zip(table, x)]
    buf = np.empty((fold_rows, n))
    filled = accepted = done = 0
    while done < cfg.steps:
        block = min(_BLOCK, cfg.steps - done)
        site_draws = rng.integers(0, n, size=block)
        moves = rng.normal(0.0, cfg.proposal_std, size=block).tolist()
        logu = np.log(np.maximum(rng.random(size=block), 1e-320)).tolist()
        values, at = x[:], []  # the state before the block, then each accept's value and step
        for t, s, move, lu in zip(range(block), site_draws.tolist(), moves, logu):
            hq, a, f, row = table[s]
            xs = x[s]
            prop = xs + move
            d = prop - xs
            psi_prop = hq * (prop * prop) + a * cos(f * prop)
            if lu < -(psi_prop - psi[s] - d * ell[s]):
                x[s] = v = xs + d
                psi[s] = psi_prop if v == prop else hq * (v * v) + a * cos(f * v)
                for j, w in row:
                    ell[j] += d * w
                at.append(t)
                values.append(v)
        accepted += len(at)
        at, values, carry = np.array(at, np.intp), np.array(values), np.arange(n)
        events = np.stack((at, site_draws[at], n + np.arange(len(at))))
        lo, t = 0, max(0, cfg.burn_in - done)  # steps before t are burn-in
        while t < block:
            stop = min(block, t + fold_rows - filled)
            hi = np.searchsorted(at, stop)
            _replay(carry, events[:, lo:hi], t, values, buf[filled : filled + stop - t])
            filled += stop - t
            lo, t = hi, stop
            if filled == fold_rows:
                _fold(buf, s1, s2)
                filled = 0
        done += block
    if filled:
        _fold(buf[:filled], s1, s2)
    return accepted


def mcmc_covariance_matrix(model: GibbsModel, cfg: SamplerConfig):
    """Pooled estimate and stderr of cov(x_i, x_j) for every coordinate pair.

    The chains run one after another; each adds its kept states, T rows at a
    time, to its moment sums as s1 += T.sum(0), s2 += T.T @ T.  Returns
    (cov, stderr, acceptance_rate).
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
