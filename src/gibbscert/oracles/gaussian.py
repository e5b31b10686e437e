"""Exact covariances of Gaussian measures from their precision matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ..interaction import cholesky_factor
from ..model import GibbsModel


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian measure with density proportional to exp(-x.Px/2 - b.x).

    P is the precision matrix: the covariance is exactly P^-1, independent of
    the linear term b.  The coupling is ferromagnetic (attractive) when every
    off-diagonal precision entry is <= 0.
    """

    precision: np.ndarray = field(repr=False)
    linear: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.precision, dtype=float)
        object.__setattr__(self, "precision", p)
        if self.linear is None:
            object.__setattr__(self, "linear", np.zeros(p.shape[0]))

    @property
    def ferromagnetic(self) -> bool:
        off = self.precision - np.diag(np.diag(self.precision))
        return bool(np.all(off <= 0))


def gaussian_exact_covariance(gm: GaussianModel) -> np.ndarray:
    """cov(x_n, x_k) = (P^-1)_nk; the linear term only shifts the mean."""
    cho = cholesky_factor(gm.precision)  # decides positivity, and is solved with
    cov = scipy.linalg.cho_solve(cho, np.eye(gm.precision.shape[0]))
    return 0.5 * (cov + cov.T)


def gaussian_from_model(model: GibbsModel) -> GaussianModel:
    """Exact Gaussian oracle for a model without perturbations.

    The Hamiltonian is then (1/2) x.(diag(q) - J).x, so the precision matrix
    is the (constant) Hessian of H.
    """
    if not model.gaussian:
        raise ValueError("model has non-Gaussian single-site potentials")
    return GaussianModel(precision=model.quadratic_part())
