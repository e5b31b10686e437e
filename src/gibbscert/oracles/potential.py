"""Grid oracle for the potential phi with -div(mu grad phi) = (f - <f>) mu.

The covariance of f and g under mu equals int grad(phi).grad(g) dmu, and the
per-coordinate norms of grad(phi) are what the directional Poincare
inequality controls.  We discretize the divergence-form operator on a
tensor-product grid over [-L, L]^dim (dim = number of sites, at most 2) with
geometric-mean edge weights and zero-flux boundaries, which keeps the
discrete operator symmetric positive semidefinite with constants as its only
null space.

Solves use conjugate gradient with the null space projected out.  The
geometric-mean weights make the operator exactly diagonally similar to
K_hat = (path Laplacian + potential)/h^2, whose off-diagonals are all
-1/h^2, so its matvec is a 5-point stencil.  CG is preconditioned by one
symmetric geometric-multigrid V(1,1) cycle on K_hat (Briggs, Henson &
McCormick, A Multigrid Tutorial, 2000):

* each coarser level samples sqrt(mu) at every other node and rebuilds the
  diagonal there, down to at most DIRECT_MAX_NODES nodes per axis (the
  nested grids of m = 601 are 301, 151 and 76);
* red-black Gauss-Seidel smooths, red then black before the coarse
  correction and black then red after it, so the cycle is symmetric;
* restriction is the transpose of linear interpolation, scaled by 2^-dim,
  and sqrt(mu), the null vector, is projected out at every level;
* the last level is one sparse LU with its densest node pinned.

The iteration count is then independent of m (at most 11 on the 2D grids
from m = 100 to 2401 that were tried, cold or warm-started), and prime m
costs nothing extra.  Several right-hand sides against one measure are
solved one after another on the shared levels, so each phi has the bytes of
its function solved alone.

Memory, in grid arrays of m^dim doubles.  Through the PCG the solver holds
about 5: mu, and per level D, 1/D and the null vector, the coarser levels
adding a third.  s = sqrt(mu) is rebuilt before and after the PCG, and the
PCG weighs its stopping norm by mu itself.  mu and s*s can differ in the
last bit, so a residual within rounding of its target can stop one
iteration apart from an s*s-weighted test; on 100 sampled oracles solves
the iteration counts and phi's bytes were the same under both weights.
The PCG holds 5 more, however many functions there are: its x, r and p,
one work array that takes A p, alpha p and then z, and the V-cycle's
iterate; the V-cycle reads its right-hand side and D through strided
sublattice views.  Each function solved before keeps only its phi.  An f
of one site is evaluated on the m nodes of its axis and kept as a
read-only broadcast of them; only an f of no single site (affine) is
evaluated on the node coordinates and held as a grid array.  The fields'
coordinates broadcast ``nodes`` too, and phi is divided and centred in
place in x.
Traced peaks per stage of the seed-101 oracles bench cells (functions of
one site) on a 2-core Xeon, in MiB (grid arrays).  Set-up runs from the
request's start to the solve_many call, solve is solve_many (f's values,
the PCG and the field assembly), phi.csv is its write and verify the rest:

    stage                   m = 601, 1 function   m = 481, 2 functions
    set-up                  23.2 (8.4)            14.9 (8.4)
    solve                   29.9 (10.8)           20.9 (11.8)
    phi.csv                 7.8 (2.8)             7.7 (4.3)
    verify                  22.1 (8.0)            19.4 (11.0)
    verify + core identity  33.1 (12.0)           26.5 (15.0)

Verify holds mu, phi, the edge weights and phi's fluxes, and f's energies
take one axis at a time.  The core identity adds the interior weights,
phi's centred differences (each interior along its own axis, whole along
the other), the sum and two temporaries.  It computes no value at a
wrapped-around node; differences rolled over the whole grid read 17.0 and
20.0 arrays here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..bounds import Observable
from ..interaction import interaction_from_model, pi_criterion
from ..lattice import physical_memory
from ..model import GibbsModel
from ..reporting import write_grid_table

TAIL_MASS_LIMIT = 1e-8
RESIDUAL_RTOL = 1e-10
CG_MAXITER = 400
DIRECT_MAX_NODES = 80  # per axis, on the V-cycle's last level (solved by sparse LU)
PEAK_GRID_ARRAYS = 10  # the solver's ~5 arrays and the PCG's 5 (module docstring)
_FFT_WORKERS = 2  # unused by the solver; bench/run.py still records it

@dataclass(frozen=True)
class GridSpec:
    box_halfwidth: float  # L
    spacing: float  # h

    def __post_init__(self):
        if not (0 < self.box_halfwidth < math.inf and 0 < self.spacing < math.inf):
            raise ValueError("grid needs finite, positive box halfwidth and spacing")
        if self.spacing >= self.box_halfwidth:
            raise ValueError("grid spacing must resolve the box")
        if not math.isfinite(2.0 * self.box_halfwidth / self.spacing):
            raise ValueError("grid node count 2L/h + 1 is not a finite number")

    @property
    def nodes_per_axis(self) -> int:
        return int(round(2.0 * self.box_halfwidth / self.spacing)) + 1


@dataclass
class PotentialField:
    """Discrete solution phi with the measure weights used to solve for it.

    The quadratures read phi's gradient through its edge fluxes w d_axis(phi),
    with w the edge weights sqrt(mu_left mu_right): they and the gradient
    energies of phi and f are computed once, on first use, so phi and
    f_values must not change after that.  No node-coordinate stack is kept:
    coordinate(axis) broadcasts the shared nodes array.  A solver's fields
    share one edge_weights list, which the first quadrature fills (after the
    solve and the phi.csv write, whose peak memory it would add to).
    """

    model: GibbsModel
    nodes: np.ndarray  # shared 1D node array per coordinate
    h: float
    dim: int
    mu: np.ndarray = field(repr=False)  # normalized weights, grid shape
    phi: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    f_mean: float = 0.0
    residual: float = 0.0
    iterations: int = 0  # PCG iterations this right-hand side took
    edge_weights: list = field(default_factory=list, repr=False)  # per axis, filled on first use

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def quad_mean(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.mu) * self.cell_volume)

    def covariance_direct(self, g_values: np.ndarray) -> float:
        """Direct quadrature of cov(f, g)."""
        return self.quad_mean(self.f_values * g_values) - self.f_mean * self.quad_mean(
            g_values
        )

    def _difference(self, values: np.ndarray, axis: int) -> np.ndarray:
        """d_axis(values) on every edge along the axis, a new array."""
        lo = _axis_slice(self.dim, axis, slice(0, -1))
        hi = _axis_slice(self.dim, axis, slice(1, None))
        d = values[hi] - values[lo]
        d /= self.h
        return d

    def _flux(self, values: np.ndarray, axis: int) -> tuple[np.ndarray, float]:
        """The edge flux w d_axis(v) and int |d_axis v|^2 dmu by edge quadrature."""
        if not self.edge_weights:
            self.edge_weights.extend(_edge_weights(self.mu))
        d = self._difference(values, axis)
        flux = self.edge_weights[axis] * d
        d *= flux
        return flux, float(np.sum(d) * self.cell_volume)

    @cached_property
    def phi_gradient(self) -> tuple[list, list]:
        """Per axis, phi's edge fluxes and its energies int |d_axis phi|^2 dmu."""
        fluxes, energies = zip(*(self._flux(self.phi, axis) for axis in range(self.dim)))
        return list(fluxes), list(energies)

    @cached_property
    def f_energies(self) -> list:
        """Per axis, int |d_axis f|^2 dmu; f's fluxes are dropped axis by axis."""
        return [self._flux(self.f_values, axis)[1] for axis in range(self.dim)]

    def _flux_dot(self, flux: np.ndarray, values: np.ndarray, axis: int) -> float:
        d = self._difference(values, axis)
        d *= flux
        return float(np.sum(d) * self.cell_volume)

    def covariance_via_representation(self, g_values: np.ndarray) -> float:
        """int grad(phi).grad(g) dmu; should match covariance_direct."""
        return sum(self._flux_dot(flux, g_values, axis) for axis, flux in enumerate(self.phi_gradient[0]))

    def coordinate(self, axis: int) -> np.ndarray:
        """Node values of coordinate x_axis, a read-only broadcast of nodes in grid shape."""
        return _along_axis(self.nodes, axis, self.mu.shape)


def _along_axis(values, axis: int, shape: tuple) -> np.ndarray:
    """Values per node of one axis as a read-only broadcast in grid shape."""
    axis_shape = [1] * len(shape)
    axis_shape[axis] = -1
    return np.broadcast_to(np.reshape(values, axis_shape), shape)


def _node_config(nodes: np.ndarray, dim: int) -> np.ndarray:
    """Coordinates of every node of the grid nodes^dim, grid shape + (dim,)."""
    return np.stack(np.meshgrid(*([nodes] * dim), indexing="ij"), axis=-1)


def _grid_values(observables: list[Observable], nodes: np.ndarray, dim: int) -> list:
    """Each observable's values on the grid nodes^dim.

    One with a site is evaluated on the diagonal nodes (x, ..., x), whose
    x[..., site] has the full grid's stride, so the same ufunc loop computes
    the same values, and is broadcast along its axis: m doubles, not m^dim.
    The others are evaluated on the node coordinates, which are then dropped.
    """
    shape = (nodes.size,) * dim
    diagonal = np.stack([nodes] * dim, axis=-1)
    config = _node_config(nodes, dim) if any(obs.site is None for obs in observables) else None
    values = []
    for obs in observables:
        if obs.site is None:
            fv = np.asarray(obs.fn(config), dtype=float)
            values.append(fv.copy() if np.may_share_memory(fv, config) else fv)  # a view keeps config alive
        else:
            values.append(_along_axis(np.ascontiguousarray(obs.fn(diagonal), dtype=float), obs.site, shape))
    return values


def _edge_weights(mu: np.ndarray) -> list:
    """Geometric-mean weights sqrt(mu_left mu_right) of the grid edges, per axis."""
    return [
        np.sqrt(mu[_axis_slice(mu.ndim, axis, slice(0, -1))] * mu[_axis_slice(mu.ndim, axis, slice(1, None))])
        for axis in range(mu.ndim)
    ]


def _envelope_tails(model: GibbsModel, box_halfwidth: float) -> float:
    """Mass of the single-site envelopes exp(-q_i x^2 / 2) outside [-L, L], summed."""
    return sum(math.erfc(box_halfwidth * math.sqrt(q) / math.sqrt(2.0)) for q in model.q.tolist())


def tail_mass_estimate(model: GibbsModel, box_halfwidth: float) -> float:
    """Gaussian-envelope estimate of the measure's mass outside [-L, L]^N.

    Uses the single-site envelopes exp(-q_i x^2 / 2) with the total
    oscillation of the perturbations as a density-distortion factor; inf
    when that factor exp(2 sum |a_i|) overflows a double.
    """
    try:
        factor = math.exp(2.0 * float(np.sum(np.abs(model.amplitude))))
    except OverflowError:
        return math.inf
    return factor * _envelope_tails(model, box_halfwidth)


class GridError(ValueError):
    """A grid the oracle cannot use; ``cause`` is "n_sites", "box_halfwidth", "amplitude" or "spacing"."""

    def __init__(self, cause: str, message: str):
        super().__init__(message)
        self.cause = cause


def check_grid(model: GibbsModel, box_halfwidth: float, nodes_per_axis: int, core_identity: bool = False) -> None:
    """Raise GridError unless the grid oracle can work on this grid for the model.

    The oracle needs at most 2 sites and an estimated tail mass outside the
    box of at most TAIL_MASS_LIMIT; the core identity's second differences
    need at least 5 nodes per axis.  The perturbations are blamed for the tail
    mass when the Gaussian envelopes alone would fit the box.  A grid whose
    PEAK_GRID_ARRAYS arrays of m^dim doubles exceed the machine's physical
    memory is refused before any of them is allocated.
    """
    if model.n_sites > 2:
        raise GridError("n_sites", f"grid oracle supports at most 2 sites, got {model.n_sites}")
    tail = tail_mass_estimate(model, box_halfwidth)
    if tail > TAIL_MASS_LIMIT:
        if _envelope_tails(model, box_halfwidth) > TAIL_MASS_LIMIT:
            cause, advice = "box_halfwidth", "enlarge the box"
        else:  # the Gaussian envelopes alone fit the box; exp(2 sum |amplitude|) carries the rest
            cause, advice = "amplitude", "reduce the perturbation amplitude"
        raise GridError(cause, f"estimated tail mass {tail:.3e} outside the box exceeds {TAIL_MASS_LIMIT}; {advice}")
    if core_identity and nodes_per_axis < 5:
        raise GridError(
            "spacing", f"grid too coarse for second differences: {nodes_per_axis} nodes per axis, 5 needed"
        )
    memory = physical_memory()
    if 8 * PEAK_GRID_ARRAYS * nodes_per_axis**model.n_sites > memory:  # exact in ints, past the double range too
        raise GridError(
            "spacing",
            f"{PEAK_GRID_ARRAYS} grid arrays of {nodes_per_axis:.3g}^{model.n_sites} doubles exceed "
            f"the {memory:.3e} bytes of physical memory; increase the spacing",
        )


def _hamiltonian_grid(model: GibbsModel, nodes: np.ndarray) -> np.ndarray:
    grids = np.meshgrid(*([nodes] * model.n_sites), indexing="ij", sparse=True)
    psi = model.psi(nodes[:, None])  # psi[k, i] = psi_i(nodes[k])
    H = sum(psi[:, i].reshape(g.shape) for i, g in enumerate(grids))
    J = model.coupling_matrix()
    for a, b in itertools.combinations(range(model.n_sites), 2):
        H = H - J[a, b] * grids[a] * grids[b]
    return H


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each node's grid neighbours."""
    out = np.zeros_like(x)
    for axis in range(x.ndim):
        lo = _axis_slice(x.ndim, axis, slice(0, -1))
        hi = _axis_slice(x.ndim, axis, slice(1, None))
        out[hi] += x[lo]
        out[lo] += x[hi]
    return out


def _midpoints(c: np.ndarray, par: tuple, fine_shape: tuple) -> np.ndarray:
    """Linear interpolation of coarse-grid values onto one fine sublattice.

    The coarse nodes are the fine nodes of even index on every axis, at
    twice the spacing; an odd index along an axis is a midpoint there, except
    that on an axis of even size the last fine node lies one step past the
    last coarse node and takes its value.  `par` gives the parity of each
    grid axis.
    """
    for axis, p in enumerate(par):
        if p:
            n_mid = c.shape[axis] - 1
            shape = list(c.shape)
            shape[axis] = fine_shape[axis] // 2  # n_mid, or n_mid + 1 on an even axis
            mid = np.empty(shape)
            lo = c[_axis_slice(c.ndim, axis, slice(0, -1))]
            hi = c[_axis_slice(c.ndim, axis, slice(1, None))]
            head = mid[_axis_slice(c.ndim, axis, slice(0, n_mid))]
            np.add(lo, hi, out=head)
            head *= 0.5
            tail = _axis_slice(c.ndim, axis, slice(n_mid, None))
            mid[tail] = c[tail]  # empty unless the axis is even
            c = mid
    return c


def _spread(r: np.ndarray, par: tuple, coarse_shape: tuple) -> np.ndarray:
    """Transpose of _midpoints: fine sublattice values onto the coarse grid.

    r is overwritten, and returned as it is when `par` has no odd axis.
    """
    for axis, p in enumerate(par):
        if p:
            shape = list(r.shape)
            shape[axis] = coarse_shape[axis]
            out = np.zeros(shape)
            n_mid = shape[axis] - 1
            half = r[_axis_slice(r.ndim, axis, slice(0, n_mid))]
            half *= 0.5
            out[_axis_slice(out.ndim, axis, slice(0, -1))] += half
            out[_axis_slice(out.ndim, axis, slice(1, None))] += half
            if r.shape[axis] > n_mid:
                out[_axis_slice(out.ndim, axis, slice(-1, None))] += r[
                    _axis_slice(r.ndim, axis, slice(n_mid, None))
                ]
            r = out
    return r


def _shift_add(out: np.ndarray, src: np.ndarray, axis: int, offset: int) -> None:
    """out[..., a, ...] += src[..., a + offset, ...] wherever both exist."""
    lo = max(0, -offset)
    hi = min(out.shape[axis], src.shape[axis] - offset)
    out[_axis_slice(out.ndim, axis, slice(lo, hi))] += src[
        _axis_slice(src.ndim, axis, slice(lo + offset, hi + offset))
    ]


def _sublattice(parity: tuple) -> tuple:
    return tuple(slice(p, None, 2) for p in parity)


class _Level:
    """One grid of the V-cycle: h^2 K_hat = diag(D) - (grid adjacency).

    K_hat s = 0 for s = sqrt(mu), so the diagonal is D = (neighbour sum of
    s) / s, and the matvec and the Gauss-Seidel sweep are 5-point stencils.
    Inside the cycle a grid function lives as its 2^dim sublattices (one
    parity per axis), each a contiguous array: a node's neighbours all lie on
    sublattices of the other colour, so a red-black sweep is a few shifted
    adds of whole arrays.
    """

    def __init__(self, s: np.ndarray):
        self.shape = s.shape
        self.D = _neighbour_sum(s) / s
        self.null = (s / np.linalg.norm(s)).ravel()
        self.parities = list(itertools.product((0, 1), repeat=s.ndim))
        self.red = [p for p in self.parities if sum(p) % 2 == 0]
        self.black = [p for p in self.parities if sum(p) % 2 == 1]
        self.inv_D = {p: 1.0 / self.D[_sublattice(p)] for p in self.parities}

    def stencil(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """h^2 K_hat x for a grid function x, into out."""
        y = np.multiply(self.D, x, out=out)
        for axis in range(x.ndim):
            lo = _axis_slice(x.ndim, axis, slice(0, -1))
            hi = _axis_slice(x.ndim, axis, slice(1, None))
            y[hi] -= x[lo]
            y[lo] -= x[hi]
        return y

    def project(self, x: np.ndarray) -> None:
        """Remove the null direction sqrt(mu) from a contiguous x, in place."""
        flat = x.reshape(-1)
        flat -= (flat @ self.null) * self.null

    def views(self, x: np.ndarray) -> dict:
        """The sublattices of a grid function x as strided views."""
        return {p: x[_sublattice(p)] for p in self.parities}

    def merge(self, xs: dict, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.shape)
        for p, v in xs.items():
            out[_sublattice(p)] = v
        return out

    def _add_neighbours(self, acc: np.ndarray, xs: dict, par: tuple) -> None:
        """acc += the neighbour sum on sublattice `par`."""
        for axis, p in enumerate(par):
            src = xs[par[:axis] + (1 - p,) + par[axis + 1 :]]
            for offset in (-1, 0) if p == 0 else (0, 1):
                _shift_add(acc, src, axis, offset)

    def relax(self, xs: dict, gs: dict, colour: list) -> None:
        """Gauss-Seidel on the nodes of one colour of diag(D) x - adj x = g."""
        for par in colour:
            acc = gs[par].copy()
            self._add_neighbours(acc, xs, par)
            acc *= self.inv_D[par]
            xs[par] = acc

    def residual(self, xs: dict, gs: dict, par: tuple) -> np.ndarray:
        """g - (diag(D) - adj) x on sublattice `par` (only red ones are formed)."""
        acc = self.D[_sublattice(par)] * xs[par]
        np.subtract(gs[par], acc, out=acc)
        self._add_neighbours(acc, xs, par)
        return acc

    def direct_solver(self):
        """Sparse LU of the level operator with the densest node pinned to 0."""
        m = self.shape[0]
        path = scipy.sparse.diags([np.ones(m - 1), np.ones(m - 1)], [-1, 1])
        eye = scipy.sparse.identity(m)
        adj = path if len(self.shape) == 1 else scipy.sparse.kron(path, eye) + scipy.sparse.kron(eye, path)
        pin = int(np.argmax(self.null))
        keep = np.ones(self.null.size)
        keep[pin] = 0.0
        mask = scipy.sparse.diags(keep)
        A = mask @ (scipy.sparse.diags(self.D.ravel()) - adj) @ mask
        A = A + scipy.sparse.diags(1.0 - keep)
        lu = scipy.sparse.linalg.splu(A.tocsc())

        def solve(g: np.ndarray) -> np.ndarray:
            rhs = g.flatten()
            rhs[pin] = 0.0
            x = lu.solve(rhs).reshape(g.shape)
            self.project(x)
            return x

        return solve


def _pcg(matvec, precond, b: np.ndarray, target: float, maxiter: int, w2: np.ndarray):
    """Preconditioned CG from x = 0 on one right-hand side (Saad 2003, Alg. 9.1).

    Convergence is judged on sqrt(sum w2 r^2) <= target (w2, a squared
    weight, undoes a similarity scaling so the target can live in the
    original variables).  b is overwritten with the residual.  Returns (x,
    iterations); the caller decides convergence on the true residual.

    Besides x, r = b and p it holds one work array w, which takes in turn
    A p, alpha p and the preconditioned residual z: matvec and precond
    write into their `out` argument.
    """
    def active(r):
        return np.sqrt(np.einsum("i,i,i->", r, r, w2)) > target

    x = np.zeros_like(b)
    r = b
    if not active(r):
        return x, 0
    p = precond(r)
    rz = np.einsum("i,i->", r, p)
    w = np.empty_like(b)
    for iterations in range(1, maxiter + 1):
        matvec(p, out=w)
        pap = np.einsum("i,i->", p, w)
        alpha = rz / (1.0 if pap == 0.0 else pap)
        w *= alpha
        r -= w
        x += np.multiply(alpha, p, out=w)
        if not active(r):
            break
        precond(r, out=w)
        rz_new = np.einsum("i,i->", r, w)
        beta = rz_new / (1.0 if rz == 0.0 else rz)
        rz = rz_new
        p *= beta
        p += w
    return x, iterations


class PotentialSolver:
    """Shares the discrete operator across solves for one (model, grid) pair.

    Raises GridError for more than 2 sites or a box too small for the measure
    (tail mass above TAIL_MASS_LIMIT); solve_many raises if CG cannot push the
    relative residual below RESIDUAL_RTOL.
    """

    def __init__(self, model: GibbsModel, grid: GridSpec):
        L = grid.box_halfwidth
        m = grid.nodes_per_axis
        check_grid(model, L, m)
        self.model = model
        self.nodes = np.linspace(-L, L, m)
        self.h = float(self.nodes[1] - self.nodes[0])
        self.dim = model.n_sites
        self.m = m

        H = _hamiltonian_grid(model, self.nodes)
        w = np.exp(-(H - H.min()))
        w = np.maximum(w, 1e-300)
        self.mu = w / (w.sum() * self.h**self.dim)

        s = np.sqrt(self.mu)
        # K_hat = diag(1/s) K diag(1/s) = (path Laplacian + potential)/h^2
        # exactly; each coarser level of the V-cycle samples s at every other
        # node, down to at most DIRECT_MAX_NODES per axis, solved directly.
        self.levels = [_Level(s)]
        while s.shape[0] > DIRECT_MAX_NODES:
            s = s[tuple(slice(None, None, 2) for _ in range(self.dim))]
            self.levels.append(_Level(s))
        self._direct = self.levels[-1].direct_solver()
        self.edge_weights = []  # shared by the fields, filled by their first quadrature

    @property
    def s(self) -> np.ndarray:
        """sqrt(mu), flat: the similarity scaling K = diag(s) K_hat diag(s), rebuilt on each use."""
        return np.sqrt(self.mu).ravel()

    def _apply_khat(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """K_hat v for a flat v, into out if given."""
        out = np.empty_like(v) if out is None else out
        self.levels[0].stencil(v.reshape(self.mu.shape), out.reshape(self.mu.shape))
        out *= 1.0 / self.h**2
        return out

    def _vcycle(self, g: np.ndarray, depth: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """One symmetric V(1,1) cycle for h^2 K_hat x = g from x = 0, into out if given."""
        if depth == len(self.levels) - 1:
            x = self._direct(g)
            if out is None:
                return x
            out[...] = x
            return out
        level = self.levels[depth]
        gs = level.views(g)
        xs = {par: gs[par] * level.inv_D[par] for par in level.red}  # neighbours still 0
        level.relax(xs, gs, level.black)
        # the black sweep leaves a zero residual on black nodes; the coarse
        # right-hand side is (2h)^2 R r with R = 2^-dim P^T
        coarse_shape = self.levels[depth + 1].shape
        # the odd parities first, while there is no sum to hold beside their
        # transfer temporaries (two terms in 2D, whose sum has no order)
        first, *rest = reversed(level.red)
        coarse = _spread(level.residual(xs, gs, first), first, coarse_shape)
        for par in rest:
            coarse += _spread(level.residual(xs, gs, par), par, coarse_shape)
        coarse *= 2.0 ** (2 - self.dim)
        self.levels[depth + 1].project(coarse)
        correction = self._vcycle(coarse, depth + 1)
        del coarse
        for par in level.parities:
            xs[par] += _midpoints(correction, par, level.shape)
        level.relax(xs, gs, level.black)
        level.relax(xs, gs, level.red)
        x = level.merge(xs, out)
        del xs  # before project's temporary
        level.project(x)
        return x

    def _precond(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One V-cycle on a flat v, into out if given."""
        out = np.empty_like(v) if out is None else out
        self._vcycle(v.reshape(self.mu.shape), out=out.reshape(self.mu.shape))
        out *= self.h**2  # the cycle is linear: solve (h^2 K_hat) x = v, then scale
        return out

    def _rhs_hat(self, fv: np.ndarray, fm: float, s: np.ndarray) -> np.ndarray:
        """The centred right-hand side (f - <f>) mu over s, flat; 0 if centred f is constant."""
        rhs = ((fv - fm) * self.mu).ravel()
        rhs -= rhs.mean()  # exact compatibility with the singular operator
        scale = float(np.linalg.norm(((np.abs(fv) + abs(fm)) * self.mu).ravel()))
        if np.linalg.norm(rhs) <= 1e-13 * max(scale, 1e-300):
            rhs[:] = 0.0  # centered f is constant: phi = 0 exactly
        rhs /= s
        return rhs

    def _relative_residual(self, phi: np.ndarray, fv: np.ndarray, fm: float, s: np.ndarray) -> float:
        """||K phi - rhs|| / ||rhs|| for flat phi, with K phi = s K_hat (s phi); 0 if rhs = 0."""
        rhs = self._rhs_hat(fv, fm, s)
        rhs *= s
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return 0.0
        k_phi = self._apply_khat(s * phi)
        k_phi *= s
        k_phi -= rhs
        return float(np.linalg.norm(k_phi) / rhs_norm)

    def solve_many(self, observables: list[Observable]) -> list[PotentialField]:
        """Solve for each observable in turn against the shared measure.

        Each field's bytes are those of the observable solved alone.  Only the
        solver's arrays, f's values, the fields solved so far and one PCG's
        four arrays stay alive through a PCG.  An observable with a site is
        evaluated once, on the m nodes of its axis, and its f_values is a
        read-only broadcast of them; only one of no site builds the node
        coordinates, which are dropped before the first PCG.  s = sqrt(mu) is
        built before and after each PCG, and the PCG weighs its stopping norm
        by mu itself, not by s*s, which may differ from mu in the last bit: a
        residual within rounding of its target can then stop one iteration
        apart, so phi's bytes equal an s*s-weighted solve's on the samples
        checked, not by construction.  phi is divided and centred in place in
        the PCG's x, after the right-hand side has been rebuilt for its final
        residual check.
        """
        h_dim = self.h**self.dim
        fields = []
        for fv in _grid_values(observables, self.nodes, self.dim):
            fm = float(np.sum(fv * self.mu) * h_dim)
            s = self.s
            b = self._rhs_hat(fv, fm, s)
            self.levels[0].project(b)
            # stop on the untransformed residual: ||K phi - rhs|| = ||s * (K_hat psi - rhs_hat)||
            # by add.reduce, not norm(), whose dot product can round apart and move an iteration count
            scaled = s * b
            target = 0.5 * RESIDUAL_RTOL * np.sqrt(np.add.reduce(scaled * scaled))
            del s, scaled
            phi, n_iter = _pcg(self._apply_khat, self._precond, b, target, CG_MAXITER, self.mu.ravel())
            del b  # now the PCG's residual

            s = self.s
            phi /= s
            rel = self._relative_residual(phi, fv, fm, s)
            del s
            if rel > RESIDUAL_RTOL:
                raise RuntimeError(
                    f"CG did not converge after {n_iter} iterations "
                    f"(relative residual {rel:.3e})"
                )
            phi = phi.reshape(self.mu.shape)
            pf = PotentialField(
                model=self.model,
                nodes=self.nodes,
                h=self.h,
                dim=self.dim,
                mu=self.mu,
                phi=phi,
                f_values=fv,
                f_mean=fm,
                residual=rel,
                iterations=n_iter,
                edge_weights=self.edge_weights,
            )
            phi -= pf.quad_mean(phi)
            fields.append(pf)
        return fields


@dataclass(frozen=True)
class PIResult:
    """Both sides of a Poincare-type inequality as quadrature values.

    Per-coordinate arrays for the directional PI, scalars for the dual PI;
    it passes when every margin rhs - lhs is at least -tol_grid.
    """

    margins: np.ndarray | float
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    tol_grid: float
    passed: bool

    @classmethod
    def check(cls, lhs, rhs, tol_grid: float) -> PIResult:
        margins = rhs - lhs
        return cls(margins, lhs, rhs, tol_grid, passed=bool(np.all(margins >= -tol_grid)))


def verify_directional_pi(pf: PotentialField) -> PIResult:
    """Check (int |d_i phi|^2)^{1/2} <= sum_j (A^-1)_ij (int |d_j f|^2)^{1/2}.

    A^-1 is that of the model's own record, interaction_from_model(pf.model).
    Both sides are quadrature values on the solved grid; the tolerance
    tol_grid = h (1 + ||grad f||) absorbs the O(h) discretization error in
    the sharp (equality) cases.
    """
    lhs = np.array([math.sqrt(max(e, 0.0)) for e in pf.phi_gradient[1]])
    f_norms = np.array([math.sqrt(max(e, 0.0)) for e in pf.f_energies])
    tol = pf.h * (1.0 + float(np.linalg.norm(f_norms)))
    return PIResult.check(lhs, interaction_from_model(pf.model).inverse() @ f_norms, tol)


def verify_dual_pi(pf: PotentialField) -> PIResult:
    """Check ||grad phi||_L2(mu) <= (1/rho) ||grad f||_L2(mu).

    rho is pi_criterion of the model's own record, interaction_from_model(pf.model);
    refused unless it certifies a positive constant.
    """
    rho = pi_criterion(interaction_from_model(pf.model))
    if rho is None:
        raise ValueError("PI constant must be positive")
    lhs = math.sqrt(sum(pf.phi_gradient[1]))
    f_norm = math.sqrt(sum(pf.f_energies))
    return PIResult.check(lhs, f_norm / rho, pf.h * (1.0 + f_norm))


def _centred(values: np.ndarray, axis: int) -> tuple:
    """Views of values below, at and above each node interior along the axis, whole along the others."""
    m = values.shape[axis]
    return tuple(values[_axis_slice(values.ndim, axis, slice(a, m - 2 + a))] for a in range(3))


def verify_core_identity(pf: PotentialField) -> float:
    """Residual of the integration-by-parts identity behind the directional PI.

    For each coordinate j compares int d_j(phi) d_j(f) dmu against
    int sum_k (|d_j d_k phi|^2 + d_j(phi) d_j d_k(H) d_k(phi)) dmu, all by
    interior-node quadrature with centered differences, each taken only on
    the nodes interior along its own axis (d_phi[k] is whole along the other
    axis, for the cross difference); returns the largest coordinate residual.
    Expected to shrink roughly linearly in h.  Raises GridError on fewer than
    5 nodes per axis.
    """
    check_grid(pf.model, float(pf.nodes[-1]), len(pf.nodes), core_identity=True)
    dim, h = pf.dim, pf.h
    across = [tuple(slice(None) if a == ax else slice(1, -1) for a in range(dim)) for ax in range(dim)]

    def first(values: np.ndarray, axis: int) -> np.ndarray:
        lo, _, hi = _centred(values, axis)
        return (hi - lo) / (2.0 * h)

    weights = pf.mu[(slice(1, -1),) * dim] * pf.cell_volume
    d_phi = [first(pf.phi, ax) for ax in range(dim)]
    J = pf.model.coupling_matrix()
    # psi_j'' = q_j - a_j f_j^2 cos(f_j x_j), with Python float parameters
    q, a, f = (v.tolist() for v in (pf.model.q, pf.model.amplitude, pf.model.frequency))

    def residual(j: int) -> float:
        d_phi_j = d_phi[j][across[j]]
        lhs = float(np.sum(first(pf.f_values[across[j]], j) * d_phi_j * weights))
        rhs_field = np.zeros_like(weights)
        for k in range(dim):  # each term in one expression, so no operand outlives it
            if k == j:
                lo, mid, hi = _centred(pf.phi[across[j]], j)
                psi2 = _along_axis(q[j] - a[j] * f[j] ** 2 * np.cos(f[j] * pf.nodes[1:-1]), j, weights.shape)
                rhs_field += ((hi - 2.0 * mid + lo) / h**2) ** 2 + d_phi_j * psi2 * d_phi_j
            else:
                rhs_field += first(d_phi[j], k) ** 2 + d_phi_j * -J[j, k] * d_phi[k][across[k]]
        rhs_field *= weights
        return abs(lhs - float(np.sum(rhs_field)))

    return max(0.0, *map(residual, range(dim)))


def potential_to_csv(pf: PotentialField, path) -> None:
    """Node coordinates, mu weight, and phi value in full precision."""
    header = [f"x{i}" for i in range(pf.dim)] + ["mu", "phi"]
    write_grid_table(header, pf.nodes, pf.mu.shape, [pf.mu.ravel(), pf.phi.ravel()], path)
