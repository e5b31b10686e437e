"""Independent ground-truth computations used to validate every bound."""

from .gaussian import GaussianModel, gaussian_exact_covariance, gaussian_from_model
from .mcmc import SamplerConfig, mcmc_covariance_matrix
from .potential import (
    GridSpec,
    PotentialField,
    solve_potential,
    verify_core_identity,
    verify_directional_pi,
    verify_dual_pi,
)

__all__ = [
    "GaussianModel",
    "gaussian_exact_covariance",
    "gaussian_from_model",
    "SamplerConfig",
    "mcmc_covariance_matrix",
    "GridSpec",
    "PotentialField",
    "solve_potential",
    "verify_core_identity",
    "verify_directional_pi",
    "verify_dual_pi",
]
