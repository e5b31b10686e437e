"""The interaction matrix A = diag(rho) - kappa and derived quantities.

A has the conditional spectral-gap lower bounds on its diagonal and the
negated mixed-Hessian bounds off it (a Z-matrix).  Positive definiteness,
diagonal dominance, the metric-tilted variant, and the random-walk (Neumann)
expansion of A^-1 all live here.
"""

from __future__ import annotations

import math
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
    atol = 1e-12 * scale
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, left to allclose
        gap = np.max(np.abs(a - a.T))
    # one pass accepts a finite matrix; NaN, +-inf or a failed test get allclose's verdict
    if not gap <= atol < math.inf and not np.allclose(a, a.T, rtol=0.0, atol=atol):
        raise ValueError("matrix must be symmetric")
    return a


class NotPositiveDefinite(ValueError):
    """A positivity decision failed: the matrix is not certified positive definite."""


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric Z-matrix with A_ii = rho_i > 0 and A_ij = -kappa_ij <= 0.

    The arrays are read-only, so the derived A^-1, lambda_min(A) and tilted
    matrices (themselves InteractionMatrix records) can be computed once and
    shared by every caller.
    """

    rho: np.ndarray
    kappa: np.ndarray
    A: np.ndarray = field(repr=False)
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

    def lambda_min(self) -> float:
        """Smallest eigenvalue of A, computed once."""
        if "lambda_min" not in self._cache:
            self._cache["lambda_min"] = _smallest_eigenvalue(self.A)
        return self._cache["lambda_min"]

    def tilted(self, geom: LatticeGeometry) -> InteractionMatrix:
        """build_tilted_matrix(self, geom), computed once per geometry."""
        # the cache holds geom itself, so its id cannot be reused meanwhile
        key = ("tilted", id(geom))
        if key not in self._cache:
            self._cache[key] = (geom, build_tilted_matrix(self, geom))
        return self._cache[key][1]


def build_interaction_matrix(rho, kappa) -> InteractionMatrix:
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
    return _frozen(rho, kappa)


def _frozen(rho: np.ndarray, kappa: np.ndarray) -> InteractionMatrix:
    """The InteractionMatrix of valid rho and kappa, with every array read-only."""
    A = np.diag(rho) - kappa
    for array in (rho, kappa, A):
        array.flags.writeable = False
    return InteractionMatrix(rho=rho, kappa=kappa, A=A)


def interaction_from_model(model: GibbsModel) -> InteractionMatrix:
    """A for a Gibbs model: certified rho_i on the diagonal, |J_ij| off it.

    Built once and kept on the model, so every reader shares one record and
    its cached A^-1, lambda_min(A) and tilted matrices.
    """
    if model._interaction is None:
        model._interaction = build_interaction_matrix(rho_vector(model), kappa_matrix(model))
    return model._interaction


def cholesky_factor(a) -> tuple:
    """scipy's lower Cholesky factor of the symmetric matrix a.

    Raises NotPositiveDefinite unless every pivot clears PIVOT_RTOL times the
    max diagonal.
    """
    a = _require_symmetric(a)
    try:
        cho = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        cho = None
    tol = PIVOT_RTOL * float(np.max(np.diag(a)))
    if cho is None or not np.min(np.diag(cho[0])) ** 2 > tol:
        raise NotPositiveDefinite("matrix is not positive definite")
    return cho


def is_positive_definite(a) -> bool:
    """Cholesky succeeds and every pivot clears 1e-12 times the max diagonal."""
    try:
        cholesky_factor(a)
    except NotPositiveDefinite:
        return False
    return True


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
    inv = scipy.linalg.cho_solve(cho, np.eye(cho[0].shape[0]))
    inv = 0.5 * (inv + inv.T)
    inv[np.abs(inv) <= INVERSE_CLAMP] = 0.0
    return inv


def build_tilted_matrix(im: InteractionMatrix, geom: LatticeGeometry) -> InteractionMatrix:
    """A~ = diag(rho) - e^delta o kappa: A with each coupling amplified by exp(delta(i,j)).

    e^delta is taken on coupled pairs only, so an uncoupled pair at a distance
    where e^delta overflows contributes 0, not inf * 0 = nan.  A coupled pair
    whose amplified coupling overflows exceeds every rho, so its 2x2 principal
    minor is negative: that raises NotPositiveDefinite.  e^delta o kappa is
    symmetric, nonnegative and zero on the diagonal whenever kappa is, so
    build_interaction_matrix's checks are not repeated.
    """
    delta = distance_matrix(geom)
    if delta.shape != im.A.shape:
        raise ValueError("geometry and interaction matrix sizes disagree")
    with np.errstate(over="ignore"):
        kappa = np.exp(np.where(im.kappa > 0, delta, 0.0)) * im.kappa
    if not np.all(np.isfinite(kappa)):
        raise NotPositiveDefinite("tilted matrix is not positive definite")
    return _frozen(im.rho, kappa)


def _smallest_eigenvalue(a: np.ndarray) -> float:
    """lambda_min of the symmetric matrix a; the package's only eigen-solve."""
    return float(np.linalg.eigvalsh(a)[0])


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
    rho = _smallest_eigenvalue(sym)
    passed = rho > 0
    if passed and not is_positive_definite(a):
        raise AssertionError("weighted check passed but A is not positive definite")
    return WeightedCheck(passed=passed, rho=rho)


def pi_criterion(a) -> float | None:
    """Spectral-gap certificate for the full measure: lambda_min(A) if positive.

    A >= rho Id with rho > 0 certifies a Poincare inequality with constant rho.
    """
    a = _require_symmetric(a)
    lam = _smallest_eigenvalue(a)
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
