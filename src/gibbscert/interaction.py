"""The interaction matrix A = diag(rho) - kappa and derived quantities.

A has the conditional spectral-gap lower bounds on its diagonal and the
negated mixed-Hessian bounds off it (a Z-matrix).  Positive definiteness,
diagonal dominance, the metric-tilted variant, and the random-walk (Neumann)
expansion of A^-1 all live here.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model import GibbsModel, kappa_matrix, rho_vector

PIVOT_RTOL = 1e-12  # Cholesky pivot tolerance, relative to max diagonal


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

    The arrays are read-only, so the derived A^-1 and lambda_min(A) can be
    computed once and shared by every caller.
    """

    rho: np.ndarray
    kappa: np.ndarray
    A: np.ndarray = field(repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # A^-1, lambda_min(A)

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


def build_interaction_matrix(rho, kappa) -> InteractionMatrix:
    rho, kappa = np.array(rho, dtype=float), np.array(kappa, dtype=float)
    for name, values in (("rho", rho), ("kappa", kappa)):
        if not np.all(np.isfinite(values)):  # NaN passes every comparison below
            raise ValueError(f"{name} entries must be finite")
    kappa = _require_symmetric(kappa)
    if rho.shape != (kappa.shape[0],):
        raise ValueError("rho and kappa dimensions disagree")
    if np.any(rho < np.finfo(float).tiny):  # a subnormal rho leaves no pivot rule to decide A
        raise ValueError("diagonal entries rho must be positive normal numbers")
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
    its cached A^-1 and lambda_min(A).
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
    """The package's one dense inverse: the symmetrized a^-1, solved with the
    factor that decides a's positivity (NotPositiveDefinite if it fails).

    For an M-matrix (a positive definite Z-matrix) it is entrywise >= +0.0:
    the factor's off-diagonal entries are a_ij <= 0 minus sums of products of
    two nonpositive entries, and each substitution step of the solves adds
    only nonnegative terms, so rounding cannot make an entry negative.
    """
    cho = cholesky_factor(a)
    inv = scipy.linalg.cho_solve(cho, np.eye(cho[0].shape[0]))
    return 0.5 * (inv + inv.T)


def build_tilted_matrix(im: InteractionMatrix, delta: np.ndarray) -> InteractionMatrix:
    """A~ = diag(rho) - e^delta o kappa: A with each coupling amplified by exp(delta(i,j)).

    delta is the site distance table, lattice.distance_matrix(geom).

    e^delta is taken on coupled pairs only, so an uncoupled pair at a distance
    where e^delta overflows contributes 0, not inf * 0 = nan.  A coupled pair
    whose amplified coupling overflows exceeds every rho, so its 2x2 principal
    minor is negative: that raises NotPositiveDefinite.  e^delta o kappa is
    symmetric, nonnegative and zero on the diagonal whenever kappa is, so
    build_interaction_matrix's checks are not repeated.
    """
    if delta.shape != im.A.shape:
        raise ValueError("distance table and interaction matrix sizes disagree")
    with np.errstate(over="ignore"):
        kappa = np.exp(np.where(im.kappa > 0, delta, 0.0)) * im.kappa
    if not np.all(np.isfinite(kappa)):
        raise NotPositiveDefinite("tilted matrix is not positive definite")
    return _frozen(im.rho, kappa)


def _smallest_eigenvalue(a: np.ndarray) -> float:
    """lambda_min of the symmetric matrix a; the package's only eigen-solve."""
    return float(np.linalg.eigvalsh(a)[0])


def weighted_similarity_check(im: InteractionMatrix, weights) -> float:
    """rho = lambda_min of the symmetric part of D A D^-1, with D = diag(weights).

    rho > 0 certifies D A D^-1 >= rho Id in quadratic-form sense.  A itself
    must then be positive definite; that implication is re-verified here
    rather than assumed.  Weights that are not n finite positive numbers,
    or that overflow a double in D A D^-1 (a ratio d_i/d_j past the double
    range, say), raise ValueError.
    """
    d = np.asarray(weights, dtype=float)
    if d.shape != (im.n,) or not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError(f"weights must be {im.n} finite positive numbers")
    with np.errstate(over="ignore", invalid="ignore"):
        similar = (d[:, None] * im.A) / d[None, :]
    if not np.all(np.isfinite(similar)):
        raise ValueError("weights overflow a double in D A D^-1")
    rho = _smallest_eigenvalue(0.5 * (similar + similar.T))
    if rho > 0 and not is_positive_definite(im.A):
        raise AssertionError("weighted check passed but A is not positive definite")
    return rho


def pi_criterion(im: InteractionMatrix) -> float | None:
    """Spectral-gap certificate for the full measure: im.lambda_min() if positive.

    A >= rho Id with rho > 0 certifies a Poincare inequality with constant rho.
    """
    lam = im.lambda_min()
    return lam if lam > 0 else None


def neumann_contraction_constant(im: InteractionMatrix) -> float:
    """c = max_n sum_m kappa_nm / rho_n; requires c < 1 (diagonal dominance)."""
    c = float(np.max(im.kappa.sum(axis=1) / im.rho))
    if c >= 1.0:
        raise ValueError(f"contraction constant {c} >= 1; series not certified")
    return c


def neumann_partial_sums(im: InteractionMatrix, K: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (T_k, S_k), k = 0 .. K, of the random-walk expansion A^-1 = sum_k T_k.

    T_k = diag(1/rho) (kappa diag(1/rho))^k, so T_0 = diag(1/rho), T_1 has
    entries kappa_ij/(rho_i rho_j), T_2 sums kappa_is kappa_sj/(rho_i rho_s
    rho_j) over s, and so on.  All terms are nonnegative, so the running sums
    S_k increase entrywise to A^-1; convergence is certified by the diagonal
    dominance margin (contraction constant c < 1), checked when this is called.
    Each pair is new and only the latest is held: a few n x n arrays for any K.
    """
    if dominance_margin(im.A) <= 0:
        raise ValueError("no diagonal dominance margin; expansion not certified")
    neumann_contraction_constant(im)  # raises if c >= 1
    d = 1.0 / im.rho
    step = im.kappa * d[None, :]  # kappa diag(1/rho)

    def stream(term, partial):
        yield term, partial
        for _ in range(K):
            term = term @ step
            partial = partial + term
            yield term, partial

    return stream(np.diag(d), np.diag(d))
