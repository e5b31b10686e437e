"""Covariance bound evaluation for observables with certified gradient norms.

Every bound here has the shape "constant times a product of per-coordinate
gradient norms"; the gradient norms are certified upper bounds on
(int |grad_i f|^2 dmu)^{1/2}, supplied exactly for coordinate and affine
observables and by the caller (or the quadrature oracle) otherwise.  Each
bound function takes the model's InteractionMatrix and derives its constant
from it (A^-1, lambda_min(A), or the rho of a weighted similarity check), so
no caller can supply a constant the mathematics does not give.  It returns
the bound itself as a float and raises ValueError if it is not >= 0 (NaN
included).  nearest_neighbor_certificate, the closed-form weak-coupling
decay certificate on the 2D torus, returns a decay.DecayCertificate like
the decay module's certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decay import DecayCertificate
from .interaction import (
    InteractionMatrix,
    NotPositiveDefinite,
    build_tilted_matrix,
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
    A set ``site`` means that ``fn`` reads ``x[..., site]`` only, and
    elementwise, so the grid oracle evaluates it on that axis's nodes alone.
    """

    grad_norms: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    site: int | None = None


def _one_site_norms(site: int, n_sites: int, grad_norm: float) -> np.ndarray:
    if not 0 <= site < n_sites:
        raise ValueError(f"site must be in [0, {n_sites}), got {site}")
    g = np.zeros(n_sites)
    g[site] = grad_norm
    return g


def coordinate(site: int, n_sites: int) -> Observable:
    g = _one_site_norms(site, n_sites, 1.0)
    return Observable(grad_norms=g, fn=lambda x: x[..., site], site=site)


def affine(weights, offset: float = 0.0) -> Observable:
    w = np.asarray(weights, dtype=float)
    return Observable(grad_norms=np.abs(w), fn=lambda x: x @ w + offset)


def single_site_function(
    site: int, n_sites: int, fn: Callable, grad_norm_bound: float
) -> Observable:
    """Nonlinear observable of one coordinate with a caller-certified bound.

    ``fn`` must act elementwise: the grid oracle applies it to one axis's nodes.
    """
    if not grad_norm_bound >= 0:  # NaN included
        raise ValueError("gradient norm bound must be nonnegative")
    g = _one_site_norms(site, n_sites, grad_norm_bound)
    return Observable(grad_norms=g, fn=lambda x: fn(x[..., site]), site=site)


def _nonnegative(value: float) -> float:
    if not value >= 0:  # NaN included
        raise ValueError("bound must be nonnegative")
    return value


def baseline_bound(im: InteractionMatrix, f: Observable, g: Observable) -> float:
    """|cov(f,g)| <= (1/rho) ||grad f||_L2(mu) ||grad g||_L2(mu) with rho = lambda_min(A).

    The coordinate-blind consequence of the Poincare inequality that A >= rho
    Id certifies; refused unless rho > 0.  Every sharper bound below should
    be compared against it.
    """
    rho = im.lambda_min()
    if not rho > 0:
        raise ValueError("PI constant must be positive")
    return _nonnegative(_scaled_norm(f.grad_norms) * _scaled_norm(g.grad_norms) / rho)


def covariance_bound(im: InteractionMatrix, f: Observable, g: Observable) -> float:
    """|cov(f,g)| <= sum_ij (A^-1)_ij ||grad_i f|| ||grad_j g||."""
    inv = im.inverse()  # raises unless A is positive definite
    return _nonnegative(float(f.grad_norms @ inv @ g.grad_norms))


def weighted_bound(im: InteractionMatrix, weights, f: Observable, g: Observable) -> float:
    """|cov(f,g)| <= (1/rho) ||D grad f|| ||D^-1 grad g|| for D A D^-1 >= rho Id.

    rho is weighted_similarity_check(im, weights); refused unless rho > 0.
    """
    d = np.asarray(weights, dtype=float)
    rho = weighted_similarity_check(im, d)
    if not rho > 0:
        raise ValueError("PI constant must be positive")
    return _nonnegative(_scaled_norm(d * f.grad_norms) * _scaled_norm(g.grad_norms / d) / rho)


def nearest_neighbor_certificate(model: GibbsModel) -> DecayCertificate:
    """Weak-coupling exponential decay certificate on the 2D torus.

    With Delta = min_i rho_i and |epsilon| < (Delta/4) e^-1 the tilted matrix
    is bounded below by (Delta - 4 |epsilon| e) Id, so for unit gradient
    norms |cov(x_i, x_j)| <= prefactor * e^{-delta(i,j)}, with prefactor None
    when |epsilon| misses the threshold.  It passes only when both eigenvalue
    audits in ``constants`` confirm the lower bounds as well; the threshold
    (Delta/4) e^-1 and the margin threshold - |epsilon| are there too.
    """
    geom = model.geometry
    if geom.kind != "periodic_grid" or geom.dimension != 2:
        raise ValueError("certificate requires a 2D periodic lattice")
    if model.coupling.kind != "nearest_neighbor":
        raise ValueError("certificate requires nearest-neighbor coupling")
    eps_abs = abs(float(model.coupling.epsilon))
    im = interaction_from_model(model)
    delta_uniform = float(np.min(im.rho))
    threshold = delta_uniform / 4.0 * math.exp(-1.0)
    margin = threshold - eps_abs

    try:
        tilted = build_tilted_matrix(im, distance_matrix(geom))
        tilde_holds = tilted.lambda_min() >= delta_uniform - 4 * eps_abs * math.e - 1e-10
    except NotPositiveDefinite:  # an amplified coupling overflowed, so A~ is refused
        tilde_holds = False
    checks = {
        "A_lower_bound_holds": bool(im.lambda_min() >= delta_uniform - 4 * eps_abs - 1e-10),
        "A_tilde_lower_bound_holds": tilde_holds,
    }
    prefactor = 1.0 / (delta_uniform - 4.0 * eps_abs * math.e) if margin > 0 else None
    return DecayCertificate(
        kind="nearest_neighbor",
        passed=margin > 0 and all(checks.values()),
        rate=1.0,
        prefactor=prefactor,
        constants={"threshold": threshold, "margin": margin, **checks},
    )
