"""Seeded request streams for the gibbscert benchmark.

A workload is an endless stream of experiment configs, cut into cycles. Every
cycle holds the same cells (experiment kind, model size, and whatever else
sets the cost of a request); the seed only draws the values that do not
change the amount of work -- coupling strengths, amplitudes, per-site
constants, metric tables, sampler seeds -- and the order of the cells. So any
whole number of cycles is the same mix of work on every seed, which keeps the
run-level medians steady, while the configs themselves differ from seed to
seed.

The program under test sees only the configs; nothing here imports gibbscert.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy.sparse.csgraph import shortest_path

EPS_LO, EPS_HI = 0.01, 0.12  # torus coupling range; straddles Delta/(4e) ~ 0.092


def _rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def nn_threshold(q: float, amplitude: float) -> float:
    """Delta/(4e) for a shared potential: Delta = q exp(-osc), osc = 2|a|."""
    return q * math.exp(-2.0 * abs(amplitude)) / (4.0 * math.e)


def _potential(q: float, amplitude: float = 0.0) -> dict:
    if amplitude == 0.0:
        return {"q": q}
    return {"q": q, "perturbation": {"kind": "cosine", "amplitude": amplitude, "frequency": 1.0}}


def _model(geometry: dict, coupling: dict, potential=None, potentials=None) -> dict:
    model = {"geometry": geometry, "coupling": coupling}
    if potentials is not None:
        model["potentials"] = potentials
    else:
        model["potential"] = potential
    return model


def _torus(sides, eps: float, pot: dict) -> dict:
    return _model(
        {"kind": "periodic_grid", "side_lengths": list(sides)},
        {"kind": "nearest_neighbor", "epsilon": eps},
        potential=pot,
    )


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 6 digits, strictly inside (lo, hi)."""
    while True:
        value = round(rng.uniform(lo, hi), 6)
        if lo < value < hi:
            return value


# ---------------------------------------------------------------- torus-nn


def _torus_potential(rng, shape: str):
    if shape == "gauss":
        return _potential(1.0), 0.0
    amp = _uniform(rng, 0.02, 0.08)
    return _potential(1.0, amp), amp


def _exp_cell(side: int, shape: str, stratum: str):
    """Exponential certificate; the stratum fixes which side of Delta/(4e) eps falls."""

    def make(rng):
        pot, amp = _torus_potential(rng, shape)
        thr = nn_threshold(1.0, amp)
        lo, hi = (EPS_LO, thr) if stratum == "pass" else (thr, EPS_HI)
        eps = _uniform(rng, lo, hi)
        return {"model": _torus((side, side), eps, pot), "experiment": {"kind": "exponential_certificate"}}

    return make


def _scan_cell(side: int, shape: str, below: int, above: int):
    """Threshold scan over sorted epsilons: `below` under Delta/(4e), `above` at or over it.

    A certified epsilon costs one more distance table than a refused one, so
    the split is part of the cell.
    """

    def make(rng):
        pot, amp = _torus_potential(rng, shape)
        thr = nn_threshold(1.0, amp)
        eps = sorted(
            [_uniform(rng, EPS_LO, thr) for _ in range(below)]
            + [_uniform(rng, thr, EPS_HI) for _ in range(above)]
        )
        return {
            "model": _torus((side, side), eps[0], pot),
            "experiment": {"kind": "threshold_scan", "epsilons": eps},
        }

    return make


def _torus_cell(kind: str, side: int, shape: str):
    def make(rng):
        pot, _ = _torus_potential(rng, shape)
        eps = _uniform(rng, EPS_LO, EPS_HI)
        return {"model": _torus((side, side), eps, pot), "experiment": {"kind": kind}}

    return make


# Cells are grouped into blocks of like cost. With three cycles a run, the
# median falls in the middle of the median block and the tail percentile (ten
# samples from the top) in the middle of the tail block, not on the edge
# between two kinds of request.
TORUS_NN = [
    # cheap: sides 6 and 8, one or two distance tables
    _exp_cell(6, "gauss", "refuse"),
    _exp_cell(6, "cos", "pass"),
    _scan_cell(6, "gauss", 3, 1),
    _torus_cell("gaussian_sharpness", 8, "gauss"),
    _torus_cell("bound_report", 8, "cos"),
    # median block: one 10x10 distance table each
    _torus_cell("gaussian_sharpness", 10, "gauss"),
    _torus_cell("bound_report", 10, "gauss"),
    _torus_cell("gaussian_sharpness", 10, "gauss"),
    _torus_cell("bound_report", 10, "cos"),
    # costly: several tables, or 12x12 ones
    _exp_cell(8, "cos", "pass"),
    _exp_cell(10, "gauss", "refuse"),
    _torus_cell("bound_report", 12, "cos"),
    _torus_cell("gaussian_sharpness", 12, "gauss"),
    # top: the full exponential pipeline at n = 144
    _exp_cell(12, "gauss", "pass"),
]

# ------------------------------------------------------------ chain-hetero


def _algebraic_cell(n: int):
    """1D chain, algebraic coupling, per-site q; c small enough for dominance."""

    def make(rng):
        pots = [_potential(round(rng.uniform(0.8, 1.5), 6)) for _ in range(n)]
        coupling = {
            "kind": "algebraic",
            "c": _uniform(rng, 0.05, 0.15),
            "alpha": _uniform(rng, 0.8, 1.6),
            "d": 1,
        }
        geometry = {"kind": "periodic_grid", "side_lengths": [n]}
        return {
            "model": _model(geometry, coupling, potentials=pots),
            "experiment": {"kind": "algebraic_certificate"},
        }

    return make


def hop_metric(n: int, rng: random.Random) -> np.ndarray:
    """Shortest-path hop metric of a ring with n // 4 random chords."""
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = 1.0
    for _ in range(n // 4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            adj[i, j] = 1.0
    return shortest_path(adj, directed=False, unweighted=True)


def _explicit_cell(n: int, kind: str, shape: str, stratum: str = "any"):
    """Random metric table, nearest-neighbour coupling on its unit-distance pairs.

    On unit-distance pairs A~ = rho I - e eps Adj, so the exponential
    certificate holds iff eps < rho / (e lambda_max(Adj)); `stratum` fixes the
    side, because a certified request costs several times a refused one.
    """

    def make(rng):
        table = hop_metric(n, rng)
        amp = 0.0 if shape == "gauss" else _uniform(rng, 0.02, 0.08)
        thr = math.exp(-2.0 * amp) / (math.e * float(np.linalg.eigvalsh(table == 1.0)[-1]))
        lo, hi = {"pass": (0.03, thr), "refuse": (thr, 0.15), "any": (0.03, 0.15)}[stratum]
        return {
            "model": _model(
                {"kind": "explicit", "metric_table": table.tolist()},
                {"kind": "nearest_neighbor", "epsilon": _uniform(rng, lo, hi)},
                potential=_potential(1.0, amp),
            ),
            "experiment": {"kind": kind},
        }

    return make


def _sharp_chain_cell(n: int):
    def make(rng):
        eps = _uniform(rng, 0.05, 0.45)
        geometry = {"kind": "periodic_grid", "side_lengths": [n]}
        coupling = {"kind": "nearest_neighbor", "epsilon": eps}
        return {
            "model": _model(geometry, coupling, potential=_potential(1.0)),
            "experiment": {"kind": "gaussian_sharpness"},
        }

    return make


CHAIN_HETERO = [
    # cheap: explicit tables (N = 48 is inside the exhaustive triangle limit
    # of 64, N = 96 above it) and the short Gaussian chains
    _explicit_cell(48, "exponential_certificate", "gauss", "pass"),
    _explicit_cell(96, "exponential_certificate", "cos", "refuse"),
    _explicit_cell(48, "bound_report", "cos"),
    _explicit_cell(96, "bound_report", "gauss"),
    _sharp_chain_cell(32),
    _sharp_chain_cell(64),
    # median block: the algebraic certificate's per-pair Python loops, n = 64
    _algebraic_cell(64),
    _algebraic_cell(64),
    _algebraic_cell(64),
    # tail block
    _sharp_chain_cell(128),
    _sharp_chain_cell(128),
    _sharp_chain_cell(128),
    # top
    _algebraic_cell(128),
    _algebraic_cell(192),
]

# ----------------------------------------------------------------- oracles

PDE_FUNCTIONS = ("coordinate", "sin", "cubic")


def _pde_cell(h: float, n_functions: int):
    """Two sites, box [-6, 6]^2; h = 0.02 gives m = 601 (prime), 0.025 gives 481."""

    def make(rng):
        functions = [
            {"kind": PDE_FUNCTIONS[(k + rng.randrange(3)) % 3], "site": rng.randrange(2)}
            for k in range(n_functions)
        ]
        return {
            "model": _torus((2,), _uniform(rng, 0.05, 0.25), _potential(1.0, _uniform(rng, 0.05, 0.2))),
            "experiment": {"kind": "pde_check", "functions": functions},
            "grid": {"L": 6.0, "h": h},
        }

    return make


def _mcmc_cell(sides, steps: int, shape: str):
    """Eight chains; Gaussian models compare to the exact covariance, cosine ones to A^-1."""

    def make(rng):
        amp = 0.0 if shape == "gauss" else _uniform(rng, 0.02, 0.1)
        return {
            "model": _torus(sides, _uniform(rng, 0.02, 0.12), _potential(1.0, amp)),
            "experiment": {"kind": "mcmc_check"},
            "sampler": {
                "chains": 8,
                "steps": steps,
                "burn_in": steps // 10,
                "proposal_std": 1.5,
                "seed": rng.randrange(1 << 31),
            },
        }

    return make


ORACLES = [
    _mcmc_cell((8,), 20_000, "cos"),
    _mcmc_cell((8,), 20_000, "gauss"),
    _mcmc_cell((4, 4), 20_000, "gauss"),
    _mcmc_cell((4, 4), 20_000, "cos"),
    _mcmc_cell((4, 4), 20_000, "gauss"),
    _mcmc_cell((4, 4), 50_000, "cos"),
    _pde_cell(0.025, 2),
    _pde_cell(0.02, 1),
]

CELLS = {"torus-nn": TORUS_NN, "chain-hetero": CHAIN_HETERO, "oracles": ORACLES}

# Seconds one cycle takes on the reference machine (2-core Xeon, untraced).
# `--seconds` is turned into a whole number of cycles with these, so both
# sides of a comparison run exactly the same requests.
NOMINAL_CYCLE_S = {"torus-nn": 9.0, "chain-hetero": 8.5, "oracles": 15.0}

# Fixed, unseeded requests run once during set-up: one per experiment kind of
# the workload, large enough that the dense linear algebra is warm.
WARMUP = {
    "torus-nn": [
        {"model": _torus((6, 6), 0.05, _potential(1.0)), "experiment": {"kind": k}}
        for k in ("exponential_certificate", "bound_report")
    ]
    + [
        {
            "model": _torus((6, 6), 0.05, _potential(1.0)),
            "experiment": {"kind": "threshold_scan", "epsilons": [0.05, 0.1]},
        },
        {"model": _torus((8, 8), 0.05, _potential(1.0)), "experiment": {"kind": "gaussian_sharpness"}},
    ],
    "chain-hetero": [
        {
            "model": _model(
                {"kind": "periodic_grid", "side_lengths": [32]},
                {"kind": "algebraic", "c": 0.1, "alpha": 1.0, "d": 1},
                potential=_potential(1.0),
            ),
            "experiment": {"kind": "algebraic_certificate"},
        },
        _explicit_cell(48, "exponential_certificate", "gauss")(random.Random("warmup")),
        _explicit_cell(48, "bound_report", "gauss")(random.Random("warmup")),
        _sharp_chain_cell(64)(random.Random("warmup")),
    ],
    "oracles": [
        {
            "model": _torus((2,), 0.1, _potential(1.0, 0.1)),
            "experiment": {"kind": "pde_check", "functions": [{"kind": "coordinate", "site": 0}]},
            "grid": {"L": 6.0, "h": 0.1},
        },
        _mcmc_cell((8,), 2_000, "gauss")(random.Random("warmup")),
    ],
}


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """The configs of cycle `index` of the stream, in seeded order."""
    rng = _rng(seed, workload, index)
    configs = [make(rng) for make in CELLS[workload]]
    rng.shuffle(configs)
    return configs
