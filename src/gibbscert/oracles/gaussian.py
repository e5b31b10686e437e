"""Exact covariances of Gaussian measures from their precision matrices.

The precision P = diag(q) - J goes through the same inverse routine as the
interaction matrix A = diag(rho) - |J|.  On a Gaussian model with J >= 0,
rho = q and |J| = J, so P is bitwise A and the CLI reads A's cached inverse
in its place; P^-1 is computed apart from A^-1 only when J has a negative
entry.  An inverse in exact arithmetic lives in the tests.
"""

from __future__ import annotations

import numpy as np

from ..interaction import inverse_entrywise
from ..model import GibbsModel


def gaussian_exact_covariance(precision) -> np.ndarray:
    """cov(x_n, x_k) = (P^-1)_nk for the density exp(-x.Px/2 - b.x), whatever b.

    Raises NotPositiveDefinite unless P passes the Cholesky pivot rule.
    """
    return inverse_entrywise(precision)


def gaussian_from_model(model: GibbsModel) -> np.ndarray:
    """The read-only precision matrix of a Gaussian model, every amplitude 0.

    The Hamiltonian is then (1/2) x.(diag(q) - J).x, so the precision matrix
    is the (constant) Hessian of H.
    """
    if not model.gaussian:
        raise ValueError("model has non-Gaussian single-site potentials")
    precision = model.quadratic_part()
    precision.flags.writeable = False
    return precision
