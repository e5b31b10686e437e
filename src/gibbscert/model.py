"""Hamiltonians on the lattice: single-site potentials plus bilinear couplings.

A model is H(x) = sum_i psi_i(x_i) - sum_{i<j} J_ij x_i x_j at unit
temperature.  Everything downstream (interaction matrix, samplers, grid
oracles) only needs psi, its derivatives, and the coupling matrix J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeGeometry, distance_matrix


@dataclass(frozen=True)
class SingleSitePotential:
    """psi(x) = (q/2) x^2 + a cos(b x) with an exactly computable oscillation.

    ``none`` has a = b = 0 and osc 0; ``cosine`` has osc 2|a|.
    """

    q: float
    perturbation: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("quadratic coefficient q must be positive")
        if self.perturbation not in ("none", "cosine"):
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if self.perturbation == "none" and (self.amplitude != 0.0 or self.frequency != 0.0):
            raise ValueError("perturbation 'none' takes no amplitude or frequency")

    @property
    def osc_bound(self) -> float:
        return 2.0 * abs(self.amplitude)

    def delta(self, x):
        return self.amplitude * np.cos(self.frequency * np.asarray(x, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.q * x**2 + self.delta(x)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.q * x - self.amplitude * self.frequency * np.sin(self.frequency * x)

    def second(self, x):
        x = np.asarray(x, dtype=float)
        return self.q - self.amplitude * self.frequency**2 * np.cos(self.frequency * x)


def gaussian_potential(q: float = 1.0) -> SingleSitePotential:
    return SingleSitePotential(q=q)


def cosine_potential(q: float, amplitude: float, frequency: float) -> SingleSitePotential:
    return SingleSitePotential(
        q=q, perturbation="cosine", amplitude=amplitude, frequency=frequency
    )


@dataclass(frozen=True)
class Coupling:
    """Bilinear coupling rule producing the symmetric matrix J with zero diagonal."""

    kind: str  # nearest_neighbor | algebraic | explicit
    epsilon: float = 0.0
    c: float = 0.0
    alpha: float = 0.0
    d: int = 0
    matrix: np.ndarray | None = field(default=None, repr=False)

    def build(self, geom: LatticeGeometry) -> np.ndarray:
        n = geom.n_sites
        if self.kind == "nearest_neighbor":
            delta = distance_matrix(geom)
            J = np.where(delta == 1.0, self.epsilon, 0.0)
        elif self.kind == "algebraic":
            r = distance_matrix(geom, euclidean=True)
            J = self.c / (r ** (self.d + self.alpha) + 1.0)
            np.fill_diagonal(J, 0.0)
        elif self.kind == "explicit":
            J = np.asarray(self.matrix, dtype=float)
            if J.shape != (n, n):
                raise ValueError("explicit coupling matrix has wrong shape")
            if not np.array_equal(J, J.T):
                raise ValueError("coupling matrix must be symmetric")
            if np.any(np.diag(J) != 0.0):
                raise ValueError("coupling matrix must have zero diagonal")
            J = J.copy()
        else:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        return J


def nearest_neighbor_coupling(epsilon: float) -> Coupling:
    return Coupling(kind="nearest_neighbor", epsilon=epsilon)


def algebraic_coupling(c: float, alpha: float, d: int) -> Coupling:
    if c <= 0 or alpha <= 0:
        raise ValueError("algebraic coupling needs c > 0 and alpha > 0")
    return Coupling(kind="algebraic", c=c, alpha=alpha, d=d)


def explicit_coupling(J) -> Coupling:
    return Coupling(kind="explicit", matrix=np.asarray(J, dtype=float))


@dataclass
class GibbsModel:
    """Gibbs measure Z^-1 exp(-H) dx; immutable after construction.

    ``q``, ``amplitude`` and ``frequency`` are read-only per-site arrays of
    the potentials' fields, so psi_i(x) = q_i/2 x^2 + amplitude_i
    cos(frequency_i x) at every site.
    """

    geometry: LatticeGeometry
    potentials: SingleSitePotential | tuple[SingleSitePotential, ...]
    coupling: Coupling
    q: np.ndarray = field(init=False, repr=False, compare=False)
    amplitude: np.ndarray = field(init=False, repr=False, compare=False)
    frequency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.potentials, SingleSitePotential):
            self.potentials = (self.potentials,) * self.geometry.n_sites
        else:
            self.potentials = tuple(self.potentials)
        if len(self.potentials) != self.geometry.n_sites:
            raise ValueError("need one potential per site (or one shared)")
        for name in ("q", "amplitude", "frequency"):
            values = np.array([getattr(pot, name) for pot in self.potentials], dtype=float)
            values.flags.writeable = False
            setattr(self, name, values)
        self._J = self.coupling.build(self.geometry)

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @property
    def gaussian(self) -> bool:
        """No site carries a perturbation, so the measure is Gaussian."""
        return all(pot.perturbation == "none" for pot in self.potentials)

    def potential(self, i: int) -> SingleSitePotential:
        return self.potentials[i]

    def coupling_matrix(self) -> np.ndarray:
        return self._J.copy()

    def psi(self, x: np.ndarray) -> np.ndarray:
        """psi_i(x_i) for configurations x with the sites on the last axis."""
        return 0.5 * self.q * x**2 + self.amplitude * np.cos(self.frequency * x)

    def psi_grad(self, x: np.ndarray) -> np.ndarray:
        return self.q * x - self.amplitude * self.frequency * np.sin(self.frequency * x)

    def quadratic_part(self) -> np.ndarray:
        """Hessian of the Gaussian part: diag(q) - J."""
        return np.diag(self.q) - self._J


def hamiltonian(model: GibbsModel, x) -> float:
    """H(x) = sum_i psi_i(x_i) - sum_{i<j} J_ij x_i x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_sites,):
        raise ValueError(f"configuration must have length {model.n_sites}")
    J = model._J
    return float(np.sum(model.psi(x)) - 0.5 * x @ J @ x)


def grad_hamiltonian(model: GibbsModel, x) -> np.ndarray:
    """(grad H)_i = psi_i'(x_i) - sum_j J_ij x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_sites,):
        raise ValueError(f"configuration must have length {model.n_sites}")
    return model.psi_grad(x) - model._J @ x


def kappa_matrix(model: GibbsModel) -> np.ndarray:
    """Uniform mixed-Hessian bounds kappa_ij = |J_ij| (exact for bilinear couplings)."""
    kappa = np.abs(model._J)
    np.fill_diagonal(kappa, 0.0)
    return kappa


def single_site_pi_constant(pot: SingleSitePotential) -> float:
    """Certified spectral-gap lower bound for one conditional measure.

    The conditional Hamiltonian at a site is psi(x) minus a linear tilt, so
    its convex part has curvature q (Bakry-Emery) and the bounded perturbation
    costs a Holley-Stroock factor exp(-osc):  rho = q * exp(-osc_bound).
    """
    return pot.q * math.exp(-pot.osc_bound)


def rho_vector(model: GibbsModel) -> np.ndarray:
    # one math.exp per potential: np.exp over the array differs from it in
    # the last bit on some inputs, and rho enters every certificate
    return np.array([single_site_pi_constant(pot) for pot in model.potentials])
