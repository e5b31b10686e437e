"""The interaction matrix A = diag(rho) - kappa and derived quantities.

A has the conditional spectral-gap lower bounds on its diagonal and the
negated mixed-Hessian bounds off it (a Z-matrix).  Positive definiteness,
diagonal dominance, the metric-tilted variant, and the random-walk (Neumann)
expansion of A^-1 all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .lattice import LatticeGeometry, distance_matrix
from .model import GibbsModel, kappa_matrix, rho_vector

PIVOT_RTOL = 1e-12  # Cholesky pivot tolerance, relative to max diagonal
INVERSE_CLAMP = 1e-12  # entries of A^-1 this close to zero are clamped


def _require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a))))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    return a


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric Z-matrix with A_ii = rho_i > 0 and A_ij = -kappa_ij <= 0.

    The arrays are read-only, so the derived A^-1 and tilted matrices can be
    computed once and shared by every caller.
    """

    rho: np.ndarray
    kappa: np.ndarray
    A: np.ndarray = field(repr=False)
    provenance: GibbsModel | None = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def inverse(self) -> np.ndarray:
        """inverse_entrywise(A), computed once and returned read-only."""
        inv = self._cache.get("inverse")
        if inv is None:
            inv = self._cache["inverse"] = inverse_entrywise(self.A)
            inv.flags.writeable = False
        return inv

    def tilted(self, geom: LatticeGeometry) -> TiltedMatrix:
        """build_tilted_matrix(self, geom), computed once per geometry."""
        # the cache holds geom itself, so its id cannot be reused meanwhile
        key = ("tilted", id(geom))
        if key not in self._cache:
            self._cache[key] = (geom, build_tilted_matrix(self, geom))
        return self._cache[key][1]


def build_interaction_matrix(rho, kappa, provenance=None) -> InteractionMatrix:
    rho = np.array(rho, dtype=float)
    kappa = _require_symmetric(kappa).copy()
    if rho.shape != (kappa.shape[0],):
        raise ValueError("rho and kappa dimensions disagree")
    if np.any(rho <= 0):
        raise ValueError("diagonal entries rho must be positive")
    if np.any(kappa < 0):
        raise ValueError("kappa entries must be nonnegative")
    if np.any(np.diag(kappa) != 0):
        raise ValueError("kappa must have zero diagonal")
    A = np.diag(rho) - kappa
    for array in (rho, kappa, A):
        array.flags.writeable = False
    return InteractionMatrix(rho=rho, kappa=kappa, A=A, provenance=provenance)


def interaction_from_model(model: GibbsModel) -> InteractionMatrix:
    """A for a Gibbs model: certified rho_i on the diagonal, |J_ij| off it."""
    return build_interaction_matrix(
        rho_vector(model), kappa_matrix(model), provenance=model
    )


def cholesky_factor(a) -> tuple | None:
    """scipy's lower Cholesky factor of the symmetric matrix a, or None unless
    every pivot clears PIVOT_RTOL times the max diagonal."""
    a = _require_symmetric(a)
    try:
        cho = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    tol = PIVOT_RTOL * float(np.max(np.diag(a)))
    return cho if np.min(np.diag(cho[0])) ** 2 > tol else None


def is_positive_definite(a) -> bool:
    """Cholesky succeeds and every pivot clears 1e-12 times the max diagonal."""
    return cholesky_factor(a) is not None


def dominance_margin(a) -> float:
    """Largest delta with sum_{j != i} |A_ij| + delta <= A_ii; negative if none."""
    a = np.asarray(a, dtype=float)
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    return float(np.min(np.diag(a) - off))


def inverse_entrywise(a) -> np.ndarray:
    """A^-1 via Cholesky solves, with near-zero entries clamped to exact zero.

    For a positive definite Z-matrix (an M-matrix) the true inverse is
    entrywise nonnegative; clamping makes that assertable in floating point.
    The factor that decides positive definiteness is the one solved with.
    """
    cho = cholesky_factor(a)
    if cho is None:
        raise ValueError("matrix is not positive definite")
    inv = scipy.linalg.cho_solve(cho, np.eye(cho[0].shape[0]))
    inv = 0.5 * (inv + inv.T)
    inv[np.abs(inv) <= INVERSE_CLAMP] = 0.0
    return inv


@dataclass(frozen=True)
class TiltedMatrix:
    """A with off-diagonals amplified by exp(delta(i,j)).

    rho_tilde is the smallest eigenvalue when positive (the exponential decay
    certificate constant), otherwise None and the certificate is unavailable.
    """

    A_tilde: np.ndarray = field(repr=False)
    min_eigenvalue: float
    rho_tilde: float | None


def build_tilted_matrix(im: InteractionMatrix, geom: LatticeGeometry) -> TiltedMatrix:
    delta = distance_matrix(geom)
    if delta.shape != im.A.shape:
        raise ValueError("geometry and interaction matrix sizes disagree")
    a_tilde = np.diag(im.rho) - np.exp(delta) * im.kappa
    a_tilde.flags.writeable = False
    lam = float(np.linalg.eigvalsh(a_tilde)[0])
    return TiltedMatrix(
        A_tilde=a_tilde,
        min_eigenvalue=lam,
        rho_tilde=lam if lam > 0 else None,
    )


class WeightedCheck(NamedTuple):
    passed: bool
    rho: float  # min eigenvalue of the symmetric part of D A D^-1


def weighted_similarity_check(a, weights) -> WeightedCheck:
    """Check D A D^-1 >= rho Id in quadratic-form sense (symmetric part).

    When the check passes, A itself must be positive definite; that
    implication is re-verified here rather than assumed.
    """
    a = _require_symmetric(a)
    d = np.asarray(weights, dtype=float)
    if np.any(d <= 0):
        raise ValueError("weights must be positive")
    similar = (d[:, None] * a) / d[None, :]
    sym = 0.5 * (similar + similar.T)
    rho = float(np.linalg.eigvalsh(sym)[0])
    passed = rho > 0
    if passed and not is_positive_definite(a):
        raise AssertionError("weighted check passed but A is not positive definite")
    return WeightedCheck(passed=passed, rho=rho)


def pi_criterion(a) -> float | None:
    """Spectral-gap certificate for the full measure: lambda_min(A) if positive.

    A >= rho Id with rho > 0 certifies a Poincare inequality with constant rho.
    """
    a = _require_symmetric(a)
    lam = float(np.linalg.eigvalsh(a)[0])
    return lam if lam > 0 else None


def neumann_contraction_constant(im: InteractionMatrix) -> float:
    """c = max_n sum_m kappa_nm / rho_n; requires c < 1 (diagonal dominance)."""
    c = float(np.max(im.kappa.sum(axis=1) / im.rho))
    if c >= 1.0:
        raise ValueError(f"contraction constant {c} >= 1; series not certified")
    return c


class NeumannExpansion(NamedTuple):
    terms: list[np.ndarray]  # T_0 .. T_K
    partial_sums: list[np.ndarray]  # running sums of the terms


def neumann_partial_sums(im: InteractionMatrix, K: int) -> NeumannExpansion:
    """Terms of the random-walk expansion A^-1 = sum_k T_k.

    T_k = diag(1/rho) (kappa diag(1/rho))^k, so T_0 = diag(1/rho), T_1 has
    entries kappa_ij/(rho_i rho_j), T_2 sums kappa_is kappa_sj/(rho_i rho_s
    rho_j) over s, and so on.  All terms are nonnegative, so the running sums
    increase entrywise to A^-1; convergence is certified by the diagonal
    dominance margin (contraction constant c < 1).
    """
    if dominance_margin(im.A) <= 0:
        raise ValueError("no diagonal dominance margin; expansion not certified")
    neumann_contraction_constant(im)  # raises if c >= 1
    d = 1.0 / im.rho
    step = im.kappa * d[None, :]  # kappa diag(1/rho)
    terms = [np.diag(d)]
    sums = [terms[0].copy()]
    for _ in range(K):
        terms.append(terms[-1] @ step)
        sums.append(sums[-1] + terms[-1])
    return NeumannExpansion(terms=terms, partial_sums=sums)
