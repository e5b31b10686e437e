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
costs nothing extra.  Several right-hand sides against one measure run in
lockstep, so every cycle works on all of them at once.

Memory, in grid arrays of m^dim doubles.  Through the PCG the solver holds
about 5: mu, and per level D, 1/D and the null vector, the coarser levels
adding a third.  s = sqrt(mu) is rebuilt before and after the PCG, and the
PCG weighs its stopping norm by mu itself.  mu and s*s can differ in the
last bit, so a residual within rounding of its target can stop one
iteration apart from an s*s-weighted test; on 100 sampled oracles solves
the iteration counts and phi's bytes were the same under both weights.
Each right-hand side holds 6:
f's values, the PCG's X, R and P, one work array that takes A p, alpha p
and then z, and the V-cycle's iterate; the V-cycle reads its right-hand side
and D through strided sublattice views.  The node coordinates are built for
f, dropped, and built again for the fields once each right-hand side has
been rebuilt for its final residual check; phi is divided and centred in
place in X.  Traced peaks per stage on a 2-core Xeon, in MiB (grid arrays):

    stage           m = 601, 1 function   m = 481, 2 functions
    set-up          24.8 (9.0)            15.9 (9.0)
    PCG             32.6 (11.8)           32.9 (18.7)
    field assembly  30.5 (11.1)           23.2 (13.1)
    phi.csv         10.6 (3.9)            11.2 (6.3)
    verify          24.9 (9.0)            23.0 (13.0)

Verify holds mu, phi, f, the coordinates, the edge weights and phi's fluxes,
and f's energies take one axis at a time.  Set-up, the PCG, field assembly
and verify each start with _release_free_heap, so the process's peak RSS
follows these counts whatever holes earlier requests left in the C heap.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..bounds import Observable
from ..interaction import InteractionMatrix, interaction_from_model
from ..model import GibbsModel
from ..reporting import write_grid_table

TAIL_MASS_LIMIT = 1e-8
RESIDUAL_RTOL = 1e-10
CG_MAXITER = 400
DIRECT_MAX_NODES = 80  # per axis, on the V-cycle's last level (solved by sparse LU)
_FFT_WORKERS = 2  # unused by the solver; bench/run.py still records it

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc
except (AttributeError, OSError, TypeError):  # another C library or platform
    _malloc_trim = None


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system; a no-op without glibc.

    Grid arrays below glibc's dynamic mmap threshold come from the heap, and
    the pages they leave when freed stay resident.  Where earlier requests
    left those holes depends on the address layout, so the same request
    sequence peaked 11-13 MB higher in 2 of 35 oracles bench runs.  Each
    stage that builds grid arrays calls this first, so its peak RSS is what
    the stage holds.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass(frozen=True)
class GridSpec:
    box_halfwidth: float  # L
    spacing: float  # h

    def __post_init__(self):
        if not (0 < self.box_halfwidth < math.inf and 0 < self.spacing < math.inf):
            raise ValueError("grid needs finite, positive box halfwidth and spacing")
        if self.spacing >= self.box_halfwidth:
            raise ValueError("grid spacing must resolve the box")


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
        shape = [1] * self.dim
        shape[axis] = -1
        return np.broadcast_to(self.nodes.reshape(shape), (self.nodes.size,) * self.dim)

    def evaluate(self, obs: Observable) -> np.ndarray:
        """Node values of an observable on this grid; builds the node coordinates per call."""
        return np.asarray(obs.fn(_node_config(self.nodes, self.dim)), dtype=float)


def _node_config(nodes: np.ndarray, dim: int) -> np.ndarray:
    """Coordinates of every node of the grid nodes^dim, grid shape + (dim,)."""
    return np.stack(np.meshgrid(*([nodes] * dim), indexing="ij"), axis=-1)


def _edge_weights(mu: np.ndarray) -> list:
    """Geometric-mean weights sqrt(mu_left mu_right) of the grid edges, per axis."""
    return [
        np.sqrt(mu[_axis_slice(mu.ndim, axis, slice(0, -1))] * mu[_axis_slice(mu.ndim, axis, slice(1, None))])
        for axis in range(mu.ndim)
    ]


def tail_mass_estimate(model: GibbsModel, box_halfwidth: float) -> float:
    """Gaussian-envelope estimate of the measure's mass outside [-L, L]^N.

    Uses the single-site envelopes exp(-q_i x^2 / 2) with the total
    oscillation of the perturbations as a density-distortion factor.
    """
    total_osc = 2.0 * float(np.sum(np.abs(model.amplitude)))
    tails = sum(math.erfc(box_halfwidth * math.sqrt(q) / math.sqrt(2.0)) for q in model.q.tolist())
    return math.exp(total_osc) * tails


def _hamiltonian_grid(model: GibbsModel, nodes: np.ndarray) -> np.ndarray:
    grids = np.meshgrid(*([nodes] * model.n_sites), indexing="ij", sparse=True)
    psi = model.psi(nodes[:, None])  # psi[k, i] = psi_i(nodes[k])
    H = sum(psi[:, i].reshape(g.shape) for i, g in enumerate(grids))
    if model.n_sites == 2:
        H = H - model.coupling_matrix()[0, 1] * grids[0] * grids[1]
    return H


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each node's grid neighbours; axis 0 indexes right-hand sides."""
    out = np.zeros_like(x)
    for axis in range(1, x.ndim):
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
    grid axis; axis 0 of c is the batch.
    """
    for axis, p in enumerate(par, start=1):
        if p:
            n_mid = c.shape[axis] - 1
            shape = list(c.shape)
            shape[axis] = fine_shape[axis - 1] // 2  # n_mid, or n_mid + 1 on an even axis
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
    for axis, p in enumerate(par, start=1):
        if p:
            shape = list(r.shape)
            shape[axis] = coarse_shape[axis - 1]
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
    return (slice(None),) + tuple(slice(p, None, 2) for p in parity)


class _Level:
    """One grid of the V-cycle: h^2 K_hat = diag(D) - (grid adjacency).

    K_hat s = 0 for s = sqrt(mu), so the diagonal is D = (neighbour sum of
    s) / s, and the matvec and the Gauss-Seidel sweep are 5-point stencils.
    Inside the cycle a batch lives as its 2^dim sublattices (one parity per
    axis), each a contiguous array: a node's neighbours all lie on
    sublattices of the other colour, so a red-black sweep is a few shifted
    adds of whole arrays.
    """

    def __init__(self, s: np.ndarray):
        self.shape = s.shape
        self.D = _neighbour_sum(s[None])[0] / s
        self.null = (s / np.linalg.norm(s)).ravel()
        self.parities = list(itertools.product((0, 1), repeat=s.ndim))
        self.red = [p for p in self.parities if sum(p) % 2 == 0]
        self.black = [p for p in self.parities if sum(p) % 2 == 1]
        self.inv_D = {p: 1.0 / self.D[_sublattice(p)[1:]] for p in self.parities}

    def stencil(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h^2 K_hat x for a batch x of shape (k,) + grid, into out if given."""
        y = np.multiply(self.D, x, out=out)
        for axis in range(1, x.ndim):
            lo = _axis_slice(x.ndim, axis, slice(0, -1))
            hi = _axis_slice(x.ndim, axis, slice(1, None))
            y[hi] -= x[lo]
            y[lo] -= x[hi]
        return y

    def project(self, x: np.ndarray) -> None:
        """Remove the null direction sqrt(mu) from each batch member, in place."""
        flat = x.reshape(len(x), -1)
        for row, c in zip(flat, flat @ self.null):
            row -= c * self.null

    def views(self, x: np.ndarray) -> dict:
        """The sublattices of a batch x as strided views."""
        return {p: x[_sublattice(p)] for p in self.parities}

    def merge(self, xs: dict, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(xs[self.parities[0]]),) + self.shape)
        for p, v in xs.items():
            out[_sublattice(p)] = v
        return out

    def _add_neighbours(self, acc: np.ndarray, xs: dict, par: tuple) -> None:
        """acc += the neighbour sum on sublattice `par`."""
        for axis, p in enumerate(par):
            src = xs[par[:axis] + (1 - p,) + par[axis + 1 :]]
            for offset in (-1, 0) if p == 0 else (0, 1):
                _shift_add(acc, src, axis + 1, offset)

    def relax(self, xs: dict, gs: dict, colour: list) -> None:
        """Gauss-Seidel on the nodes of one colour of diag(D) x - adj x = g."""
        for par in colour:
            acc = gs[par].copy()
            self._add_neighbours(acc, xs, par)
            acc *= self.inv_D[par]
            xs[par] = acc

    def residual(self, xs: dict, gs: dict, par: tuple) -> np.ndarray:
        """g - (diag(D) - adj) x on sublattice `par` (only red ones are formed)."""
        acc = self.D[_sublattice(par)[1:]] * xs[par]
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
            rhs = g.reshape(len(g), -1).T.copy()
            rhs[pin] = 0.0
            x = lu.solve(rhs).T.reshape(g.shape)
            self.project(x)
            return x

        return solve


def _lockstep_pcg(matvec, precond, B: np.ndarray, targets: np.ndarray, maxiter: int, w2: np.ndarray):
    """Preconditioned CG on one operator with several right-hand sides.

    Rows of B are solved simultaneously (each with its own step sizes) so
    the matrix and preconditioner applications batch.  Convergence is judged
    on sqrt(sum w2 residual^2) <= target per row (w2, a squared weight,
    undoes a similarity scaling so the targets can live in the original
    variables).  B is overwritten with the residual.  Returns (X, iterations
    per row, converged_mask).

    Besides X, R = B and P it holds one work array W, which takes in turn
    A p, alpha p and the preconditioned residual z: matvec and precond
    write into their `out` argument.
    """
    def residual_norms(R):
        return np.sqrt(np.einsum("ij,ij,j->i", R, R, w2))

    X = np.zeros_like(B)
    R = B
    active = residual_norms(R) > targets
    iters = np.zeros(len(B), dtype=int)
    if not active.any():
        return X, iters, ~active
    P = precond(R)
    rz = np.einsum("ij,ij->i", R, P)
    W = np.empty_like(B)
    for _ in range(maxiter):
        iters += active
        matvec(P, out=W)
        pap = np.einsum("ij,ij->i", P, W)
        pap = np.where(pap == 0.0, 1.0, pap)
        alpha = np.where(active, rz / pap, 0.0)[:, None]
        W *= alpha
        R -= W
        X += np.multiply(alpha, P, out=W)
        active = residual_norms(R) > targets
        if not active.any():
            break
        precond(R, out=W)
        rz_new = np.einsum("ij,ij->i", R, W)
        beta = np.where(active, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
        rz = rz_new
        P *= beta[:, None]
        P += W
    return X, iters, ~active


class PotentialSolver:
    """Shares the discrete operator across solves for one (model, grid) pair."""

    def __init__(self, model: GibbsModel, grid: GridSpec):
        if model.n_sites > 2:
            raise ValueError("grid oracle supports at most 2 sites")
        tail = tail_mass_estimate(model, grid.box_halfwidth)
        if tail > TAIL_MASS_LIMIT:
            raise ValueError(
                f"estimated tail mass {tail:.3e} outside the box exceeds "
                f"{TAIL_MASS_LIMIT}; enlarge the box"
            )
        self.model = model
        L = grid.box_halfwidth
        m = int(round(2.0 * L / grid.spacing)) + 1
        self.nodes = np.linspace(-L, L, m)
        self.h = float(self.nodes[1] - self.nodes[0])
        self.dim = model.n_sites
        self.m = m

        _release_free_heap()
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

    def _batch(self, V: np.ndarray | None) -> np.ndarray | None:
        """Rows of V as grids, a view; None stays None."""
        return None if V is None else V.reshape((len(V),) + self.mu.shape)

    def _apply_khat(self, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = self.levels[0].stencil(self._batch(V), self._batch(out))
        y *= 1.0 / self.h**2
        return y.reshape(V.shape)

    def _project(self, V: np.ndarray) -> np.ndarray:
        self.levels[0].project(V)
        return V

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

    def _precond(self, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = self._vcycle(self._batch(V), out=self._batch(out))
        x *= self.h**2  # the cycle is linear: solve (h^2 K_hat) x = V, then scale
        return x.reshape(V.shape)

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
        k_phi = self._apply_khat((s * phi)[None])[0]
        k_phi *= s
        k_phi -= rhs
        return float(np.linalg.norm(k_phi) / rhs_norm)

    def solve_many(self, observables: list[Observable]) -> list[PotentialField]:
        """Solve for several observables against the shared measure.

        Only the solver's arrays, f's values and the PCG's four batches stay
        alive through the PCG: the node coordinates are built for f only and
        dropped, s = sqrt(mu) is built before and after the PCG, and
        the PCG weighs its stopping norm by mu itself, not by s*s, which may
        differ from mu in the last bit: a residual within rounding of its
        target can then stop one iteration apart, so phi's bytes equal an
        s*s-weighted solve's on the samples checked, not by construction.
        phi is divided and centred in place in X, after each right-hand side
        has been rebuilt for its final residual check.
        """
        h_dim = self.h**self.dim
        config = _node_config(self.nodes, self.dim)
        f_values = []
        for obs in observables:
            fv = np.asarray(obs.fn(config), dtype=float)
            if np.may_share_memory(fv, config):
                fv = fv.copy()  # a coordinate is a view that would keep config alive
            f_values.append(fv)
        del config
        _release_free_heap()
        f_means = [float(np.sum(fv * self.mu) * h_dim) for fv in f_values]
        s = self.s
        B = np.empty((len(f_values), s.size))
        for i, (fv, fm) in enumerate(zip(f_values, f_means)):
            B[i] = self._rhs_hat(fv, fm, s)  # a row view left in a name would keep B alive
        self._project(B)
        # stop on the untransformed residual: ||K phi - rhs|| = ||s * (K_hat psi - rhs_hat)||
        targets = 0.5 * RESIDUAL_RTOL * np.linalg.norm(s * B, axis=1)
        del s
        X, iters, _ = _lockstep_pcg(
            self._apply_khat, self._precond, B, targets, CG_MAXITER, self.mu.ravel()
        )
        del B  # now the PCG's residual
        _release_free_heap()

        s = self.s
        residuals = []
        for phi, n_iter, fv, fm in zip(X, iters, f_values, f_means):
            phi /= s
            rel = self._relative_residual(phi, fv, fm, s)
            if rel > RESIDUAL_RTOL:
                raise RuntimeError(
                    f"CG did not converge after {n_iter} iterations "
                    f"(relative residual {rel:.3e})"
                )
            residuals.append(rel)
        del s
        fields = []
        for row, n_iter, fv, fm, rel in zip(X, iters, f_values, f_means, residuals):
            phi = row.reshape(self.mu.shape)
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
                iterations=int(n_iter),
                edge_weights=self.edge_weights,
            )
            phi -= pf.quad_mean(phi)
            fields.append(pf)
        return fields

    def solve(self, obs: Observable) -> PotentialField:
        return self.solve_many([obs])[0]


def solve_potential(model: GibbsModel, f: Observable, grid: GridSpec) -> PotentialField:
    """One-shot solve, centering phi under mu.

    Raises if the box is too small for the measure (envelope tail mass above
    1e-8) or if CG cannot push the relative residual below 1e-10.
    """
    return PotentialSolver(model, grid).solve(f)


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


def verify_directional_pi(pf: PotentialField, im: InteractionMatrix) -> PIResult:
    """Check (int |d_i phi|^2)^{1/2} <= sum_j (A^-1)_ij (int |d_j f|^2)^{1/2}.

    Both sides are quadrature values on the solved grid; the tolerance
    tol_grid = h (1 + ||grad f||) absorbs the O(h) discretization error in
    the sharp (equality) cases.  ``im`` must be interaction_from_model(pf.model),
    the model's own record.
    """
    if im is not interaction_from_model(pf.model):
        raise ValueError("interaction matrix was not built from this model")
    _release_free_heap()
    lhs = np.array([math.sqrt(max(e, 0.0)) for e in pf.phi_gradient[1]])
    f_norms = np.array([math.sqrt(max(e, 0.0)) for e in pf.f_energies])
    tol = pf.h * (1.0 + float(np.linalg.norm(f_norms)))
    return PIResult.check(lhs, im.inverse() @ f_norms, tol)


def verify_dual_pi(pf: PotentialField, rho: float) -> PIResult:
    """Check ||grad phi||_L2(mu) <= (1/rho) ||grad f||_L2(mu)."""
    if rho <= 0:
        raise ValueError("PI constant must be positive")
    lhs = math.sqrt(sum(pf.phi_gradient[1]))
    f_norm = math.sqrt(sum(pf.f_energies))
    return PIResult.check(lhs, f_norm / rho, pf.h * (1.0 + f_norm))


def _interior(values: np.ndarray, dim: int) -> np.ndarray:
    sl = tuple(slice(1, -1) for _ in range(dim))
    return values[sl]


def _centered_first(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    shifted_p = np.roll(values, -1, axis=axis)
    shifted_m = np.roll(values, 1, axis=axis)
    return (shifted_p - shifted_m) / (2.0 * h)


def _centered_second(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    shifted_p = np.roll(values, -1, axis=axis)
    shifted_m = np.roll(values, 1, axis=axis)
    return (shifted_p - 2.0 * values + shifted_m) / h**2


def verify_core_identity(pf: PotentialField) -> float:
    """Residual of the integration-by-parts identity behind the directional PI.

    For each coordinate j compares int d_j(phi) d_j(f) dmu against
    int sum_k (|d_j d_k phi|^2 + d_j(phi) d_j d_k(H) d_k(phi)) dmu, all by
    interior-node quadrature with centered differences; returns the largest
    coordinate residual.  Expected to shrink roughly linearly in h.
    """
    if len(pf.nodes) < 5:
        raise ValueError("grid too coarse for second differences")
    dim = pf.dim
    h = pf.h
    weights = _interior(pf.mu, dim) * pf.cell_volume

    d_phi = [_centered_first(pf.phi, ax, h) for ax in range(dim)]
    d_f = [_centered_first(pf.f_values, ax, h) for ax in range(dim)]
    J = pf.model.coupling_matrix() if dim == 2 else None

    worst = 0.0
    for j in range(dim):
        lhs = float(np.sum(_interior(d_phi[j] * d_f[j], dim) * weights))
        rhs_field = np.zeros_like(pf.phi)
        for k in range(dim):
            if k == j:
                second = _centered_second(pf.phi, j, h)
                hess_jk = pf.model.potential(j).second(pf.coordinate(j))
            else:
                second = _centered_first(d_phi[j], k, h)
                hess_jk = -J[j, k]
            rhs_field += second**2 + d_phi[j] * hess_jk * d_phi[k]
        rhs = float(np.sum(_interior(rhs_field, dim) * weights))
        worst = max(worst, abs(lhs - rhs))
    return worst


def potential_to_csv(pf: PotentialField, path) -> None:
    """Node coordinates, mu weight, and phi value in full precision."""
    header = [f"x{i}" for i in range(pf.dim)] + ["mu", "phi"]
    write_grid_table(header, pf.nodes, pf.mu.shape, [pf.mu.ravel(), pf.phi.ravel()], path)
