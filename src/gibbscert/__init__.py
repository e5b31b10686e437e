"""Certified covariance bounds and correlation-decay certificates for lattice Gibbs measures."""

from .lattice import (
    LatticeGeometry,
    euclidean_site_distance,
    explicit_metric,
    graph_distance,
    periodic_grid,
)
from .model import (
    Coupling,
    GibbsModel,
    SingleSitePotential,
    algebraic_coupling,
    cosine_potential,
    explicit_coupling,
    gaussian_potential,
    grad_hamiltonian,
    hamiltonian,
    kappa_matrix,
    nearest_neighbor_coupling,
    rho_vector,
    single_site_pi_constant,
)
from .interaction import (
    InteractionMatrix,
    TiltedMatrix,
    build_interaction_matrix,
    build_tilted_matrix,
    dominance_margin,
    interaction_from_model,
    inverse_entrywise,
    is_positive_definite,
    neumann_contraction_constant,
    neumann_partial_sums,
    pi_criterion,
    weighted_similarity_check,
)
from .bounds import (
    BoundReport,
    Observable,
    affine,
    baseline_bound,
    coordinate,
    covariance_bound,
    nearest_neighbor_certificate,
    single_site_function,
    weighted_bound,
)
from .decay import (
    DecayCertificate,
    algebraic_certificate,
    decay_profile,
    exponential_certificate,
    tilt_inequality_audit,
)

__version__ = "0.1.0"
