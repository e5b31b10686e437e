"""Independent ground-truth computations used to validate every bound: the exact
Gaussian covariance, the grid solver PotentialSolver.solve_many and MCMC sampling."""

from .gaussian import gaussian_exact_covariance, gaussian_from_model
from .mcmc import SamplerConfig, mcmc_covariance_matrix
from .potential import (
    GridSpec,
    PotentialField,
    PotentialSolver,
    verify_core_identity,
    verify_directional_pi,
    verify_dual_pi,
)

__all__ = [
    "gaussian_exact_covariance",
    "gaussian_from_model",
    "SamplerConfig",
    "mcmc_covariance_matrix",
    "GridSpec",
    "PotentialField",
    "PotentialSolver",
    "verify_core_identity",
    "verify_directional_pi",
    "verify_dual_pi",
]
