"""Hamiltonians on the lattice: single-site potentials plus bilinear couplings.

A model is H(x) = sum_i psi_i(x_i) - sum_{i<j} J_ij x_i x_j at unit
temperature.  Everything downstream (interaction matrix, samplers, grid
oracles) reads psi from the model's per-site arrays q, amplitude and
frequency, and the coupling matrix J.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeGeometry, distance_matrix


@dataclass(frozen=True)
class SingleSitePotential:
    """psi(x) = (q/2) x^2 + a cos(b x) with an exactly computable oscillation 2|a|.

    The site is Gaussian iff a = 0, whatever b is.
    """

    q: float
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        if not 0 < self.q < math.inf:  # false for NaN as well
            raise ValueError("quadratic coefficient q must be positive and finite")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)):
            raise ValueError("amplitude and frequency must be finite")

    @property
    def osc_bound(self) -> float:
        return 2.0 * abs(self.amplitude)


def gaussian_potential(q: float = 1.0) -> SingleSitePotential:
    return SingleSitePotential(q=q)


def cosine_potential(q: float, amplitude: float, frequency: float) -> SingleSitePotential:
    return SingleSitePotential(q=q, amplitude=amplitude, frequency=frequency)


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
            with np.errstate(over="ignore"):  # an r^(d+alpha) past the double range gives J = c/(inf + 1) = 0
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
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    return Coupling(kind="nearest_neighbor", epsilon=epsilon)


def algebraic_coupling(c: float, alpha: float, d: int) -> Coupling:
    if not (0 < c < math.inf and 0 < alpha < math.inf):
        raise ValueError("algebraic coupling needs finite c > 0 and alpha > 0")
    if not isinstance(d, numbers.Integral) or isinstance(d, bool):
        raise ValueError(f"algebraic coupling needs an integer d, got {d!r}")
    return Coupling(kind="algebraic", c=c, alpha=alpha, d=d)


def explicit_coupling(J) -> Coupling:
    return Coupling(kind="explicit", matrix=np.asarray(J, dtype=float))


@dataclass
class GibbsModel:
    """Gibbs measure Z^-1 exp(-H) dx; immutable after construction.

    ``q``, ``amplitude`` and ``frequency`` are read-only per-site arrays of
    the potentials' fields, so psi_i(x) = q_i/2 x^2 + amplitude_i
    cos(frequency_i x) at every site; ``coupling_matrix()`` returns J,
    read-only as well.
    """

    geometry: LatticeGeometry
    potentials: SingleSitePotential | tuple[SingleSitePotential, ...]
    coupling: Coupling
    q: np.ndarray = field(init=False, repr=False, compare=False)
    amplitude: np.ndarray = field(init=False, repr=False, compare=False)
    frequency: np.ndarray = field(init=False, repr=False, compare=False)
    # the InteractionMatrix that interaction_from_model builds on first request
    _interaction: object = field(default=None, init=False, repr=False, compare=False)

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
        self._J.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @property
    def gaussian(self) -> bool:
        """Every amplitude is 0, so psi is quadratic at every site and the measure is Gaussian."""
        return not np.any(self.amplitude)

    def coupling_matrix(self) -> np.ndarray:
        return self._J

    def psi(self, x: np.ndarray) -> np.ndarray:
        """psi_i(x_i) for configurations x with the sites on the last axis."""
        return 0.5 * self.q * x**2 + self.amplitude * np.cos(self.frequency * x)

    def quadratic_part(self) -> np.ndarray:
        """Hessian of the Gaussian part: diag(q) - J."""
        return np.diag(self.q) - self._J


def kappa_matrix(model: GibbsModel) -> np.ndarray:
    """Uniform mixed-Hessian bounds kappa_ij = |J_ij| (exact for bilinear couplings).

    J's diagonal is +-0.0 for every coupling kind, so kappa's is +0.0.
    """
    return np.abs(model._J)


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
