"""Checkerboard Metropolis estimation of covariances.

Chains are fully independent: chain i draws from its own generator seeded by
splitmix64((splitmix64(master) + i) mod 2**64), so runs are reproducible bit
for bit, chains stay independent no matter how many run, and distinct master
seeds run distinct chains.

All chains run together as one (n, chains) state.  A greedy colouring of the
nonzero graph of J splits the sites into colour classes, no two sites of a
class coupled, and the sites are permuted so that each class is one
contiguous row block.  A sweep updates the classes in order; the sites of a
class do not interact, so one numpy step proposes and accepts or rejects a
whole class in every chain at once (chromatic sampling: Gonzalez, Low,
Gretton & Guestrin, "Parallel Gibbs Sampling: From Colored Fields to Thin
Junction Trees", AISTATS 2011).  A dense J gives one class per site, which is
then vectorized over chains only.

`steps` counts site updates per chain: a run is steps // n sweeps, the burn-in
is rounded up to whole sweeps, and one state is kept per sweep after it.  Per
block of _BLOCK sweeps each chain draws rng.normal(0, proposal_std, (B, n))
and then rng.random((B, n)), indexed by the original site.

Standard errors come from the spread of the per-chain covariance estimates,
which sidesteps within-chain autocorrelation; each chain's estimate is taken
around the mean of all chains, since a per-chain mean biases it by about the
autocorrelation time over the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._blas import single_threaded
from ..model import GibbsModel

_BLOCK = 512  # sweeps drawn per generator call
_SLAB = 64  # sweeps whose draws are moved into class order at a time
_GROUP = 64  # chains moved together, a piece that stays in cache
STDERR_MULTIPLE = 3.0  # an estimate passes within this many standard errors of its target
TAIL_SUM_BELOW = 2.0**-20  # a false-fail chance below this is summed over its tail, as 1 - sum cancels
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

    def sweeps(self, n_sites: int) -> tuple[int, int]:
        """(sweeps run, burn-in sweeps) on n_sites sites; at least 2 sweeps are kept."""
        total, burn = self.steps // n_sites, -(-self.burn_in // n_sites)
        if total - burn < 2:
            raise ValueError(
                f"steps = {self.steps} and burn_in = {self.burn_in} keep {max(total - burn, 0)} "
                f"sweeps of {n_sites} site updates; need at least 2"
            )
        return total, burn


def colour_classes(J: np.ndarray) -> list[np.ndarray]:
    """Greedy colouring of J's nonzero graph in site order: each site takes the
    smallest colour none of its coupled sites has.  Returns the sites of each
    colour, ascending."""
    n = len(J)
    coupled = (J != 0) | (J.T != 0)
    colour = np.zeros(n, np.intp)
    for s in range(1, n):
        used = set(colour[:s][coupled[s, :s]].tolist())
        colour[s] = next(c for c in range(n) if c not in used)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def t_two_sided_tail(t: float, dof: int) -> float:
    """P(|T| > t) for Student's t with an integer number of degrees of freedom.

    The closed forms of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even
    dof), summed term by term in theta = atan(t / sqrt(dof)).
    """
    theta = math.atan(t / math.sqrt(dof))
    cos2 = math.cos(theta) ** 2
    if dof % 2:
        term = series = math.cos(theta) if dof > 1 else 0.0
        for k in range(1, (dof - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            series += term
        inside = 2.0 / math.pi * (theta + math.sin(theta) * series)
    else:
        term = series = 1.0
        for k in range(1, dof // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            series += term
        inside = math.sin(theta) * series
    return 1.0 - inside


def false_fail_probability(chains: int, pairs: int, max_violations: int) -> float:
    """Chance that exact sampling puts more than max_violations of `pairs`
    estimates outside STDERR_MULTIPLE standard errors.

    Each pair's statistic is taken as Student-t with chains - 1 degrees of
    freedom, and the pairs as independent, so the count is binomial.  A
    binomial coefficient past the double range has its term summed in logs.
    The chance is 1 minus the terms up to max_violations; where that is
    below TAIL_SUM_BELOW it has cancelled, and the terms past
    max_violations are summed instead, in logs, as p^k may underflow where
    the coefficient does not overflow.
    """
    if max_violations >= pairs:
        return 0.0
    p = t_two_sided_tail(STDERR_MULTIPLE, chains - 1)

    def log_term(k: int) -> float:  # math.log reads an int past the double range exactly
        return math.log(math.comb(pairs, k)) + k * math.log(p) + (pairs - k) * math.log1p(-p)

    def term(k: int) -> float:
        try:
            return math.comb(pairs, k) * p**k * (1.0 - p) ** (pairs - k)
        except OverflowError:  # float(C(pairs, k)) overflows
            return math.exp(log_term(k))

    chance = max(0.0, 1.0 - sum(map(term, range(max_violations + 1))))
    if chance >= TAIL_SUM_BELOW:
        return chance
    # the terms fall past the mode, which lies below max_violations here
    tail = 0.0
    for k in range(max_violations + 1, pairs + 1):
        t = math.exp(log_term(k))
        tail += t
        if t <= 2.0**-60 * tail:  # also stops once the terms underflow to 0
            break
    return tail


def mcmc_covariance_matrix(model: GibbsModel, cfg: SamplerConfig):
    """Pooled estimate and stderr of cov(x_i, x_j) for every coordinate pair.

    Returns (cov, stderr, acceptance_rate); see the module docstring.
    """
    with single_threaded():  # the last bits of a product depend on the BLAS thread count
        return _run(model, cfg)


def _run(model: GibbsModel, cfg: SamplerConfig):
    n, C = model.n_sites, cfg.chains
    total, burn = cfg.sweeps(n)
    classes = colour_classes(model.coupling_matrix())
    perm = np.concatenate(classes)
    # In class order, the Gaussian part of an update's energy change is
    # d^2 q/2 - d (J - diag q) x: one product with the class rows of Jq.
    Jq = model.coupling_matrix()[np.ix_(perm, perm)] - np.diag(model.q[perm])
    half_q = 0.5 * model.q  # by original site, like the draws
    amp, freq = model.amplitude[perm, None], model.frequency[perm, None]
    x = np.zeros((n, C))
    cached = amp * np.cos(freq * x)  # amp cos(freq x) per site and chain

    # Per slab, the moves d and thresholds W = d^2 q/2 + log u in class order;
    # an update is accepted where W < d (Jq x) + cached - amp cos(freq (x + d)).
    moves, thresholds = np.empty((2, _SLAB, n, C))
    accepts = np.empty((_SLAB, n, C), bool)
    kept = np.empty((C, _SLAB, n))
    sweep = [[] for _ in range(_SLAB)]
    stop = 0
    for sites in classes:
        rows = slice(stop, stop + len(sites))
        stop = rows.stop
        g, step = np.empty((2, len(sites), C))
        work = None
        if np.any(amp[rows]):
            ar, fr = (np.repeat(v[rows], C, axis=1) for v in (amp, freq))
            work = (np.empty_like(g), cached[rows], ar, fr)
        for b in range(_SLAB):
            sweep[b].append((Jq[rows], g, step, x[rows], moves[b, rows], thresholds[b, rows], accepts[b, rows], work))

    dot, mul, add, sub, less, cos, copyto = (np.dot, np.multiply, np.add, np.subtract, np.less, np.cos, np.copyto)
    rngs = [np.random.default_rng(chain_seed(cfg.seed, i)) for i in range(C)]
    drawn = np.empty((2, C, min(_BLOCK, total), n))  # per chain, by original site
    s1, s2 = np.zeros((C, n)), np.zeros((C, n, n))
    accepted = 0
    for block in range(0, total, _BLOCK):
        normal, uniform = drawn[:, :, : min(_BLOCK, total - block)]
        for i, rng in enumerate(rngs):  # the draws of rng.normal(0, std, (B, n)), then rng.random((B, n))
            rng.standard_normal(out=normal[i])
            rng.random(out=uniform[i])
        normal *= cfg.proposal_std
        for slab in range(0, normal.shape[1], _SLAB):
            S = min(_SLAB, normal.shape[1] - slab)
            for start in range(0, C, _GROUP):
                d = normal[start : start + _GROUP, slab : slab + S]
                W = np.log(uniform[start : start + _GROUP, slab : slab + S])
                W += half_q * d * d
                cols = slice(start, start + _GROUP)
                moves[:S, :, cols] = d.transpose(1, 2, 0)[:, perm]
                thresholds[:S, :, cols] = W.transpose(1, 2, 0)[:, perm]
            for b in range(S):
                for J_rows, g, step, xr, db, wb, ab, work in sweep[b]:
                    dot(J_rows, x, g)
                    mul(g, db, g)
                    if work is None:
                        less(wb, g, ab)
                        mul(db, ab, step)  # x + d or x + 0: no branch on a random mask
                        add(xr, step, xr)
                        continue
                    cos_prop, cr, ar, fr = work
                    add(xr, db, step)  # the proposal
                    mul(step, fr, cos_prop)
                    cos(cos_prop, cos_prop)
                    mul(cos_prop, ar, cos_prop)
                    add(g, cr, g)
                    sub(g, cos_prop, g)
                    less(wb, g, ab)
                    copyto(xr, step, where=ab)
                    copyto(cr, cos_prop, where=ab)
                kept[:, b] = x.T
            accepted += int(np.count_nonzero(accepts[:S]))
            first = max(0, burn - block - slab)  # kept rows before it are burn-in
            if first < S:
                states = kept[:, first:S]
                s1 += states.sum(1)
                s2 += np.matmul(states.transpose(0, 2, 1), states)
    rate = accepted / (total * n * C)

    count = total - burn
    means = s1 / count
    own = np.diagonal(s2, axis1=1, axis2=2) / count - means**2
    if np.any(own <= 0):
        raise ValueError("a coordinate has zero variance along a chain")
    pooled = means.mean(0)
    per_chain = s2 / count - means[:, :, None] * pooled - pooled[:, None] * means[:, None, :] + np.outer(pooled, pooled)
    back = np.ix_(np.argsort(perm), np.argsort(perm))
    est = np.mean(per_chain, axis=0)[back]
    err = (np.std(per_chain, axis=0, ddof=1) / np.sqrt(C))[back]
    return est, err, rate
