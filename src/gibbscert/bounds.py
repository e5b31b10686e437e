"""Covariance bound evaluation for observables with certified gradient norms.

Every bound here has the shape "constant times a product of per-coordinate
gradient norms"; the gradient norms are certified upper bounds on
(int |grad_i f|^2 dmu)^{1/2}, supplied exactly for coordinate and affine
observables and by the caller (or the quadrature oracle) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .interaction import (
    InteractionMatrix,
    interaction_from_model,
    weighted_similarity_check,
)
from .lattice import distance_matrix
from .model import GibbsModel


def _scaled_norm(x: np.ndarray) -> float:
    """||x||_2 as s ||x / s|| with s = max|x|, so no square of a tiny entry is subnormal."""
    s = float(np.max(np.abs(x), initial=0.0))
    return s * float(np.linalg.norm(x / s)) if 0.0 < s < math.inf else s


@dataclass(frozen=True)
class Observable:
    """A function of the spin configuration with certified gradient norms.

    grad_norms[j] >= (int |grad_j f|^2 dmu)^{1/2}; exact (not just an upper
    bound) for coordinate and affine observables, whose gradients are
    constant.  ``fn`` evaluates the observable on arrays whose last axis runs
    over sites, so samplers can apply it to whole batches of configurations.
    """

    kind: str
    grad_norms: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    site: int | None = None

    @property
    def gradient_l2(self) -> float:
        return _scaled_norm(self.grad_norms)


def coordinate(site: int, n_sites: int) -> Observable:
    g = np.zeros(n_sites)
    g[site] = 1.0
    return Observable(kind="coordinate", grad_norms=g, fn=lambda x: x[..., site], site=site)


def affine(weights, offset: float = 0.0) -> Observable:
    w = np.asarray(weights, dtype=float)
    return Observable(
        kind="affine",
        grad_norms=np.abs(w),
        fn=lambda x: x @ w + offset,
    )


def single_site_function(
    site: int, n_sites: int, fn: Callable, grad_norm_bound: float
) -> Observable:
    """Nonlinear observable of one coordinate with a caller-certified bound."""
    if grad_norm_bound < 0:
        raise ValueError("gradient norm bound must be nonnegative")
    g = np.zeros(n_sites)
    g[site] = grad_norm_bound
    return Observable(
        kind="single_site",
        grad_norms=g,
        fn=lambda x: fn(x[..., site]),
        site=site,
    )


@dataclass(frozen=True)
class BoundReport:
    bound_value: float
    method: str
    constants: dict

    def __post_init__(self):
        if not self.bound_value >= 0:
            raise ValueError("bound must be nonnegative")


def baseline_bound(rho_pi: float, f: Observable, g: Observable) -> BoundReport:
    """|cov(f,g)| <= (1/rho) ||grad f||_L2(mu) ||grad g||_L2(mu).

    The coordinate-blind consequence of a Poincare inequality with constant
    rho; every sharper bound below should be compared against it.
    """
    if rho_pi <= 0:
        raise ValueError("PI constant must be positive")
    value = f.gradient_l2 * g.gradient_l2 / rho_pi
    return BoundReport(value, "baseline", {"rho": rho_pi})


def covariance_bound(im: InteractionMatrix, f: Observable, g: Observable) -> BoundReport:
    """|cov(f,g)| <= sum_ij (A^-1)_ij ||grad_i f|| ||grad_j g||."""
    inv = im.inverse()  # raises unless A is positive definite
    value = float(f.grad_norms @ inv @ g.grad_norms)
    return BoundReport(value, "full_matrix", {"lambda_min": im.lambda_min()})


def weighted_bound(
    im: InteractionMatrix, weights, rho: float, f: Observable, g: Observable
) -> BoundReport:
    """|cov(f,g)| <= (1/rho) ||D grad f|| ||D^-1 grad g|| for D A D^-1 >= rho Id."""
    d = np.asarray(weights, dtype=float)
    check = weighted_similarity_check(im.A, d)
    if not check.passed or check.rho < rho - 1e-12:
        raise ValueError(
            f"weighted similarity check does not certify rho={rho} "
            f"(achieved {check.rho})"
        )
    value = _scaled_norm(d * f.grad_norms) * _scaled_norm(g.grad_norms / d) / rho
    return BoundReport(value, "weighted", {"rho": rho, "rho_achieved": check.rho})


@dataclass(frozen=True)
class NearestNeighborCertificate:
    """Weak-coupling exponential decay certificate on the 2D torus.

    With Delta = min_i rho_i and |epsilon| < (Delta/4) e^-1 the tilted matrix
    is bounded below by (Delta - 4 |epsilon| e) Id, giving per-pair bounds
    prefactor * e^{-delta(i,j)} for unit gradient norms.  It passes only when
    both eigenvalue audits in ``checks`` confirm the lower bounds as well.
    """

    passed: bool
    delta_uniform: float  # Delta
    epsilon: float
    threshold: float  # (Delta/4) e^-1
    margin: float  # threshold - |epsilon|; negative when refused
    prefactor: float | None
    pair_bounds: np.ndarray | None
    lambda_min_A: float
    lambda_min_A_tilde: float
    checks: dict


def nearest_neighbor_certificate(model: GibbsModel) -> NearestNeighborCertificate:
    geom = model.geometry
    if geom.kind != "periodic_grid" or geom.dimension != 2:
        raise ValueError("certificate requires a 2D periodic lattice")
    if model.coupling.kind != "nearest_neighbor":
        raise ValueError("certificate requires nearest-neighbor coupling")
    eps = float(model.coupling.epsilon)
    eps_abs = abs(eps)
    im = interaction_from_model(model)
    delta_uniform = float(np.min(im.rho))
    threshold = delta_uniform / 4.0 * math.exp(-1.0)
    margin = threshold - eps_abs

    lam_a = im.lambda_min()
    lam_at = im.tilted(geom).lambda_min()
    checks = {
        "A_lower_bound_holds": bool(lam_a >= delta_uniform - 4 * eps_abs - 1e-10),
        "A_tilde_lower_bound_holds": bool(
            lam_at >= delta_uniform - 4 * eps_abs * math.e - 1e-10
        ),
    }
    prefactor = pair_bounds = None
    if margin > 0:
        prefactor = 1.0 / (delta_uniform - 4.0 * eps_abs * math.e)
        pair_bounds = prefactor * np.exp(-distance_matrix(geom))
    return NearestNeighborCertificate(
        passed=margin > 0 and all(checks.values()),
        delta_uniform=delta_uniform,
        epsilon=eps,
        threshold=threshold,
        margin=margin,
        prefactor=prefactor,
        pair_bounds=pair_bounds,
        lambda_min_A=lam_a,
        lambda_min_A_tilde=lam_at,
        checks=checks,
    )
