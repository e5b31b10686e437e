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
* the last level is one sparse LU of its operator in grid order, on every
  grid, with its densest node pinned and its columns ordered by minimum
  degree on A^T + A (George & Liu, Computer Solution of Large Sparse
  Positive Definite Systems, 1981): on the 76^2 level of m = 601 L + U hold
  191k nonzeros, 2.2 MiB, against 340k under SuperLU's default COLAMD.

The iteration count is then independent of m (at most 11 on the 2D grids
from m = 100 to 2401 that were tried, cold or warm-started), and prime m
costs nothing extra.  Several right-hand sides against one measure are
solved one after another on the shared levels, so each phi has the bytes of
its function solved alone.

The PCG runs in the finest level's block order: a grid function is one flat
array of its 2^dim sublattice blocks, one after another.  The right-hand side
is built block by block, the matvec is the blockwise stencil
D_b x_b - (neighbour sum), and the finest V-cycle level reads its
right-hand side from the PCG's blocks and writes its iterate straight into
the PCG's output blocks; phi is copied back into grid order once, at the end.
The PCG solves h^2 K_hat y = rhs_hat, so neither the matvec nor the V-cycle
scales by h^2, and psi = h^2 y.  Its dot products are summed in block
order, and its stopping norm is sqrt(sum mu r^2), weighted by mu itself.
A function that is constant on the grid gets phi = 0 without a solve.

Memory, in grid arrays of m^dim doubles.  Each level keeps only its
diagonal D, one contiguous block per sublattice.  1/D and s = sqrt(mu) are
formed on use, one sublattice at a time, from D and from the level's strided
sample of mu; |s|^2 is taken once, at set-up.  Each level also owns
workspaces that the solver allocates once and every V-cycle and right-hand
side reuses: a sublattice scratch for 1/D, s, the residual and the
transfers; and, below the finest level, a level array for the iterate's
sublattice blocks and one for the right-hand side, which the cycle
overwrites with its result.  A level's D and workspaces are views of one
allocation.  Through the PCG the solver so holds about 3.3: mu, the
diagonals (4/3) and the workspaces (about 1), and the last level's LU,
which tracemalloc does not see.  Set-up builds H, then w, then mu in one
array, and each D in place.  The LU is factored by the first V-cycle, so its
memory lies above the first phi in the heap and leaves with the solver.  The
PCG holds 4 more, however many functions there are: its x, r and p, and one
work array that takes A p, alpha p and then z.  The final residual check
forms s phi and then the right-hand side in the spent r, and K phi in one
new array; phi's copy into grid order holds x and phi.  Each function solved
before keeps only its phi.  An f of one site is evaluated on the m nodes of
its axis and kept as a read-only broadcast of them; only an f of no single
site (affine) is evaluated on the node coordinates and held as a grid array.
The fields' coordinates broadcast ``nodes`` too.
Traced peaks per stage of the seed-101 oracles bench cells (functions of
one site) on a 2-core Xeon, in MiB (grid arrays), from
``scripts/grid_memory.py --seed 101``, which also prints the LU's bytes as
12 per nonzero of L + U.  Set-up runs from the request's start to the
solve_many call, solve is solve_many (f's values, the LU, the PCG and the
field assembly), phi.csv is its write and verify the rest:

    stage                   m = 601, 1 function   m = 481, 2 functions
    set-up                  12.0 (4.3)            7.7 (4.4)
    solve                   20.3 (7.4)            14.9 (8.4)
    phi.csv                 7.8 (2.8)             7.6 (4.3)
    verify                  13.9 (5.0)            10.7 (6.1)
    verify + core identity  22.1 (8.0)            16.0 (9.1)
    LU, untraced            2.2                   1.3

Verify holds mu, phi and three transient arrays, whatever the dimension:
each gradient quadrature holds one axis's flux w d_axis(u), d_axis(u) and
one more difference at a time, and the direct covariance forms f g mu in one
array and drops it before g mu, so no check peaks above the PCG.  The CLI
takes phi's energies and every coordinate's representation in one pass, and
drops each field when its checks are done.  The core identity adds the
interior weights, phi's centred differences (each interior along its own
axis, whole along the other), the sum and two temporaries.  It computes no
value at a wrapped-around node.
"""

from __future__ import annotations

import functools
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
PEAK_GRID_ARRAYS = 8  # a one-function request's traced peak, the solve's 7.4 at m = 601, rounded up (module docstring)
CORE_IDENTITY_GRID_ARRAYS = 9  # the same with the core identity, whose verify stage reads 8.0 there
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

    Every gradient quadrature is gradient_pairs, which forms its edge weights
    and differences per call and drops them axis by axis.  The field keeps
    only floats: the per-axis energies of phi and f, on first use, so phi and
    f_values must not change after that.  No node-coordinate stack is kept:
    coordinate(axis) broadcasts the shared nodes array.
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

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def quad_mean(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.mu) * self.cell_volume)

    def covariance_direct(self, g_values: np.ndarray) -> float:
        """Direct quadrature of cov(f, g); f g mu is formed in place and dropped before g mu."""
        fg = self.f_values * g_values
        fg *= self.mu
        mean_fg = float(np.sum(fg) * self.cell_volume)
        del fg
        return mean_fg - self.f_mean * self.quad_mean(g_values)

    def _difference(self, values: np.ndarray, axis: int, weights: np.ndarray | None = None) -> np.ndarray:
        """d_axis(values) on every edge along the axis, times the edge weights if given, a new array."""
        lo = _axis_slice(self.dim, axis, slice(0, -1))
        hi = _axis_slice(self.dim, axis, slice(1, None))
        d = values[hi] - values[lo]
        d /= self.h
        if weights is not None:
            d *= weights
        return d

    def gradient_pairs(self, u: np.ndarray, *vs: np.ndarray) -> list:
        """For each v, per axis, int d_axis(u) d_axis(v) dmu: the sum of (w d_axis u) d_axis v, w = sqrt(mu_lo mu_hi).

        An axis holds the flux w d_axis(u), d_axis(u) and one product at a
        time, and drops them before the next; a v that is u reads d_axis(u).
        """
        pairs = [[] for _ in vs]
        for axis in range(self.dim):
            lo, hi = (_axis_slice(self.dim, axis, edge) for edge in (slice(0, -1), slice(1, None)))
            du = self._difference(u, axis)
            flux = np.multiply(self.mu[lo], self.mu[hi])
            np.sqrt(flux, out=flux)
            flux *= du
            for pair, v in zip(pairs, vs):
                pair.append(float(np.sum(du * flux if v is u else self._difference(v, axis, flux)) * self.cell_volume))
            del du, flux
        return pairs

    @cached_property
    def f_energies(self) -> list:
        """Per axis, int |d_axis f|^2 dmu."""
        return self.gradient_pairs(self.f_values, self.f_values)[0]

    @cached_property
    def phi_energies(self) -> list:
        """Per axis, int |d_axis phi|^2 dmu; the CLI sets it from its one pass over phi's differences."""
        return self.gradient_pairs(self.phi, self.phi)[0]

    def covariance_via_representation(self, g_values: np.ndarray) -> float:
        """int grad(phi).grad(g) dmu; should match covariance_direct."""
        return sum(self.gradient_pairs(self.phi, g_values)[0])

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


def grid_arrays(n_functions: int = 1, core_identity: bool = False) -> int:
    """The grid arrays a pde_check request peaks at: each function past the first keeps its phi."""
    return (CORE_IDENTITY_GRID_ARRAYS if core_identity else PEAK_GRID_ARRAYS) + n_functions - 1


def check_grid(
    model: GibbsModel, box_halfwidth: float, nodes_per_axis: int, core_identity: bool = False, n_functions: int = 1
) -> None:
    """Raise GridError unless the grid oracle can work on this grid for the model.

    The oracle needs at most 2 sites and an estimated tail mass outside the
    box of at most TAIL_MASS_LIMIT; the core identity's second differences
    need at least 5 nodes per axis.  The perturbations are blamed for the tail
    mass when the Gaussian envelopes alone would fit the box.  A grid whose
    grid_arrays(n_functions, core_identity) arrays of m^dim doubles exceed the
    machine's physical memory is refused before any of them is allocated.
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
    arrays = grid_arrays(n_functions, core_identity)
    if 8 * arrays * nodes_per_axis**model.n_sites > memory:  # exact in ints, past the double range too
        raise GridError(
            "spacing",
            f"{arrays} grid arrays of {nodes_per_axis:.3g}^{model.n_sites} doubles exceed "
            f"the {memory:.3e} bytes of physical memory; increase the spacing",
        )


def _hamiltonian_grid(model: GibbsModel, nodes: np.ndarray) -> np.ndarray:
    grids = np.meshgrid(*([nodes] * model.n_sites), indexing="ij", sparse=True)
    psi = model.psi(nodes[:, None])  # psi[k, i] = psi_i(nodes[k])
    H = sum(psi[:, i].reshape(g.shape) for i, g in enumerate(grids))
    J = model.coupling_matrix()
    for a, b in itertools.combinations(range(model.n_sites), 2):
        H -= J[a, b] * grids[a] * grids[b]
    return H


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _take(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) doubles of a flat workspace, as a contiguous array of that shape."""
    return buf[: math.prod(shape)].reshape(shape)


def _midpoints(c: np.ndarray, par: tuple, fine_shape: tuple, bufs: tuple) -> np.ndarray:
    """Linear interpolation of coarse-grid values onto one fine sublattice.

    The coarse nodes are the fine nodes of even index on every axis, at
    twice the spacing; an odd index along an axis is a midpoint there, except
    that on an axis of even size the last fine node lies one step past the
    last coarse node and takes its value.  `par` gives the parity of each
    grid axis.  Each step along an odd axis writes into the two flat
    workspaces `bufs` in turn; c is returned as it is when `par` has none.
    """
    for step, axis in enumerate(a for a, p in enumerate(par) if p):
        n_mid = c.shape[axis] - 1
        shape = list(c.shape)
        shape[axis] = fine_shape[axis] // 2  # n_mid, or n_mid + 1 on an even axis
        mid = _take(bufs[step % 2], shape)
        lo = c[_axis_slice(c.ndim, axis, slice(0, -1))]
        hi = c[_axis_slice(c.ndim, axis, slice(1, None))]
        head = mid[_axis_slice(c.ndim, axis, slice(0, n_mid))]
        np.add(lo, hi, out=head)
        head *= 0.5
        tail = _axis_slice(c.ndim, axis, slice(n_mid, None))
        mid[tail] = c[tail]  # empty unless the axis is even
        c = mid
    return c


def _spread(r: np.ndarray, par: tuple, coarse_shape: tuple, bufs: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose of _midpoints: fine sublattice values onto the coarse grid.

    r lives in bufs[1] and is overwritten.  Each step along an odd axis
    writes into the flat workspaces bufs[0] and bufs[1] in turn (r is spent
    after the first), the last into `out` if given.
    """
    odd = [axis for axis, p in enumerate(par) if p]
    if not odd and out is not None:
        out[...] = r
        return out
    for step, axis in enumerate(odd):
        shape = list(r.shape)
        shape[axis] = coarse_shape[axis]
        dest = out if out is not None and step == len(odd) - 1 else _take(bufs[step % 2], shape)
        dest.fill(0.0)
        n_mid = shape[axis] - 1
        half = r[_axis_slice(r.ndim, axis, slice(0, n_mid))]
        half *= 0.5
        dest[_axis_slice(dest.ndim, axis, slice(0, -1))] += half
        dest[_axis_slice(dest.ndim, axis, slice(1, None))] += half
        if r.shape[axis] > n_mid:
            dest[_axis_slice(dest.ndim, axis, slice(-1, None))] += r[_axis_slice(r.ndim, axis, slice(n_mid, None))]
        r = dest
    return r


def _shift_add(out: np.ndarray, src: np.ndarray, axis: int, offset: int, op=np.add) -> None:
    """out[..., a, ...] op= src[..., a + offset, ...] wherever both exist (op is np.add or np.subtract)."""
    lo = max(0, -offset)
    hi = min(out.shape[axis], src.shape[axis] - offset)
    acc = out[_axis_slice(out.ndim, axis, slice(lo, hi))]
    op(acc, src[_axis_slice(src.ndim, axis, slice(lo + offset, hi + offset))], out=acc)


def _inner(*arrays: np.ndarray) -> float:
    """The sum over every node of the product of equal-shape arrays, strided or not, by einsum."""
    axes = list(range(arrays[0].ndim))
    return float(np.einsum(*itertools.chain.from_iterable((a, axes) for a in arrays), []))


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

    The finest level works in block order: a grid function is one flat array
    holding its sublattice blocks one after another, so the PCG's vectors,
    the cycle's right-hand side and its iterate are all contiguous blocks.  A
    coarse level's right-hand side and result are grid arrays, read through
    strided sublattice views; its iterate lives in blocks of its own.

    A level keeps only D, one contiguous block per sublattice.  1/D and
    s = sqrt(mu) are formed on use, one sublattice at a time, from D and from
    `mu`, the level's strided sample of the finest mu; |s|^2 is taken once,
    here.  Its workspaces, allocated once and reused by every cycle:

    * `scratch`, one sublattice: 1/D, s, the residual and the transfer steps;
    * on the coarse levels, `flat`, a level array for the iterate's sublattice
      blocks, which the finer level's transfers use too, and `rhs`, a level
      array for the right-hand side, which the cycle overwrites with its
      result.
    """

    def __init__(self, mu: np.ndarray, s: np.ndarray, coarse: bool):
        self.shape = s.shape
        self.mu = mu
        self.coarse = coarse
        self.parities = list(itertools.product((0, 1), repeat=s.ndim))
        self.red = [p for p in self.parities if sum(p) % 2 == 0]
        self.black = [p for p in self.parities if sum(p) % 2 == 1]
        ss = self.views(s)
        blocks = [v.size for v in ss.values()]
        self.offsets = np.cumsum(blocks)[:-1]
        # D's blocks and the workspaces share one allocation, so a dropped
        # solver leaves one hole per level that later grid arrays can reuse
        array = s.size if coarse else 0
        sizes = blocks + [blocks[0], array, array]
        *D, self.scratch, self.flat, rhs = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.D = {}
        for (par, v), d in zip(ss.items(), D):  # (neighbour sum of s) / s, each axis's lower neighbour added first
            self.D[par] = d.reshape(v.shape)
            self.D[par].fill(0.0)
            self._add_neighbours(self.D[par], ss, par)
            self.D[par] /= v
        self.norm_sq = np.linalg.norm(s) ** 2
        self.x = self.blocks(self.flat) if coarse else None
        self.rhs = rhs.reshape(self.shape) if coarse else None

    def views(self, x: np.ndarray) -> dict:
        """The sublattices of a grid array x as strided views."""
        return {p: x[_sublattice(p)] for p in self.parities}

    def blocks(self, flat: np.ndarray) -> dict:
        """The sublattices of a flat array in block order, as contiguous views."""
        return {p: b.reshape(d.shape) for (p, d), b in zip(self.D.items(), np.split(flat, self.offsets))}

    def split(self, x: np.ndarray) -> dict:
        """The sublattices of a grid function as the cycle holds it: block order on the finest level, grid order below."""
        return self.views(x.reshape(self.shape)) if self.coarse else self.blocks(x.reshape(-1))

    def merge(self, xs: dict, out: np.ndarray) -> np.ndarray:
        """Sublattices into a grid array, out."""
        for p, v in xs.items():
            out[_sublattice(p)] = v
        return out

    def root(self, par: tuple) -> np.ndarray:
        """s = sqrt(mu) on sublattice `par`, formed in `scratch`."""
        mu = self.mu[_sublattice(par)]
        return np.sqrt(mu, out=_take(self.scratch, mu.shape))

    def project(self, xs: dict) -> None:
        """Remove the null direction s from a grid function given by its sublattices, in place.

        `scratch` must be free: it takes s one sublattice at a time, twice.
        """
        c = sum(_inner(x, self.root(par)) for par, x in xs.items()) / self.norm_sq
        for par, x in xs.items():
            null = self.root(par)
            null *= c
            x -= null

    def inverse_diagonal(self, par: tuple) -> np.ndarray:
        """1 / D on sublattice `par`, formed in `scratch`."""
        return np.divide(1.0, self.D[par], out=_take(self.scratch, self.D[par].shape))

    def _add_neighbours(self, acc: np.ndarray, xs: dict, par: tuple, op=np.add) -> None:
        """acc op= the neighbour sum on sublattice `par` (op is np.add or np.subtract)."""
        for axis, p in enumerate(par):
            src = xs[par[:axis] + (1 - p,) + par[axis + 1 :]]
            for offset in (-1, 0) if p == 0 else (0, 1):
                _shift_add(acc, src, axis, offset, op)

    def stencil(self, xs: dict, outs: dict) -> None:
        """diag(D) x - adj x, one sublattice at a time, into outs."""
        for par, out in outs.items():
            np.multiply(self.D[par], xs[par], out=out)
            self._add_neighbours(out, xs, par, np.subtract)

    def relax(self, gs: dict, xs: dict, colour: list) -> None:
        """Gauss-Seidel on the nodes of one colour of diag(D) x - adj x = g, in the iterate xs."""
        for par in colour:
            x = xs[par]
            np.copyto(x, gs[par])
            self._add_neighbours(x, xs, par)  # the other colour's blocks only
            x *= self.inverse_diagonal(par)

    def residual(self, gs: dict, xs: dict, par: tuple) -> np.ndarray:
        """g - (diag(D) - adj) x on sublattice `par`, in `scratch` (only red ones are formed)."""
        acc = np.multiply(self.D[par], xs[par], out=_take(self.scratch, self.D[par].shape))
        np.subtract(gs[par], acc, out=acc)
        self._add_neighbours(acc, xs, par)
        return acc

    def operator(self) -> scipy.sparse.csr_matrix:
        """diag(D) - adj, assembled in grid order.

        The adjacency is a sum over the axes of Kronecker products, a path
        along the axis and identities along the others, built one axis at a
        time by Kronecker sums.
        """
        paths = [scipy.sparse.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1], format="csr") for n in self.shape]
        adj = functools.reduce(lambda adj, path: scipy.sparse.kronsum(path, adj, format="csr"), paths)
        return (scipy.sparse.diags(self.merge(self.D, np.empty(self.shape)).ravel()) - adj).tocsr()

    def direct_solver(self):
        """Sparse LU of the level operator with the densest node pinned to 0; the LU is the solver's `lu`.

        The pin's row and column are zeroed in place and its diagonal set to
        1.  SuperLU orders the columns by minimum degree on A^T + A (George &
        Liu, Computer Solution of Large Sparse Positive Definite Systems,
        1981): on the 76^2 level of m = 601, L + U hold 191k nonzeros against
        340k with COLAMD.  The solve reads g and writes out through split, so
        a finest level's block-order vectors need no permutation.
        """
        pin = int(np.argmax(self.mu))
        A = self.operator()
        A.data[A.indices == pin] = 0.0
        A.data[A.indptr[pin] : A.indptr[pin + 1]] = 0.0
        A[pin, pin] = 1.0
        A.eliminate_zeros()
        lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")

        def solve(g: np.ndarray, out: np.ndarray) -> np.ndarray:
            rhs = self.merge(self.split(g), np.empty(self.shape)).ravel()
            rhs[pin] = 0.0
            xs = self.views(lu.solve(rhs).reshape(self.shape))
            self.project(xs)
            for par, o in self.split(out).items():
                o[...] = xs[par]
            return out

        solve.lu = lu
        return solve


def _pcg(matvec, precond, b: np.ndarray, target: float, maxiter: int, norm):
    """Preconditioned CG from x = 0 on one right-hand side (Saad 2003, Alg. 9.1).

    Convergence is judged on norm(r) <= target (a weighted norm can undo a
    similarity scaling, so the target can live in the original variables).
    b is overwritten with the residual.  Returns (x, iterations); the caller
    decides convergence on the true residual.

    Besides x, r = b and p it holds one work array w, which takes in turn
    A p, alpha p and the preconditioned residual z: matvec and precond
    write into their `out` argument.
    """
    x = np.zeros_like(b)
    r = b
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
        if not norm(r) > target:
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
    relative residual below RESIDUAL_RTOL, or the residual is not a number.  Every V-cycle of a solver reuses
    its levels' workspaces, so a solver runs one solve at a time.  The PCG's
    vectors are in the finest level's block order (`_Level.split`).
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

        mu = _hamiltonian_grid(model, self.nodes)  # H, then w = exp(-(H - min H)), then mu, in place
        mu -= mu.min()
        np.negative(mu, out=mu)
        np.exp(mu, out=mu)
        np.maximum(mu, 1e-300, out=mu)
        mu /= mu.sum() * self.h**self.dim
        self.mu = mu

        s = np.sqrt(mu)
        # K_hat = diag(1/s) K diag(1/s) = (path Laplacian + potential)/h^2
        # exactly; each coarser level of the V-cycle samples s at every other
        # node, down to at most DIRECT_MAX_NODES per axis, solved directly.
        strides = [1]
        while -(-m // strides[-1]) > DIRECT_MAX_NODES:
            strides.append(2 * strides[-1])
        samples = [(slice(None, None, k),) * self.dim for k in strides]
        self.levels = [_Level(mu[sample], s[sample], coarse=k > 1) for k, sample in zip(strides, samples)]

    @cached_property
    def _direct(self):
        """The last level's sparse LU, factored by the first V-cycle.

        SuperLU's factor and its freed working memory then lie above the
        first phi in the heap, so they can be returned to the system with the
        solver instead of staying resident under a phi that outlives it.
        """
        return self.levels[-1].direct_solver()

    def _scale(self, v: np.ndarray, op) -> np.ndarray:
        """v op= s for a block-order v (op is np.multiply or np.divide), in place."""
        level = self.levels[0]
        for par, b in level.split(v).items():
            op(b, level.root(par), out=b)
        return v

    def _mu_norm(self, v: np.ndarray) -> float:
        """sqrt(sum mu v^2) for a block-order v: ||s v||, the norm of s v in the original variables."""
        level = self.levels[0]
        return math.sqrt(sum(_inner(b, b, level.mu[_sublattice(par)]) for par, b in level.split(v).items()))

    def _stencil(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h^2 K_hat v for a block-order v, into out if given."""
        out = np.empty_like(v) if out is None else out
        level = self.levels[0]
        level.stencil(level.split(v), level.split(out))
        return out

    def _vcycle(self, depth: int, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One symmetric V(1,1) cycle for h^2 K_hat x = g from x = 0, into out.

        On the finest level g and out are block-order arrays and the iterate
        is out's blocks; below it g and out are the level's `rhs`.  The
        level's transfers write into its `scratch` and the next level's
        `flat`, which is free before and after the coarse cycle.
        """
        if depth == len(self.levels) - 1:
            return self._direct(g, out)
        level, coarse = self.levels[depth], self.levels[depth + 1]
        bufs = (coarse.flat, level.scratch)
        gs = level.split(g)
        xs = level.x if level.coarse else level.split(out)
        for par in level.red:  # neighbours still 0
            np.multiply(gs[par], level.inverse_diagonal(par), out=xs[par])
        level.relax(gs, xs, level.black)
        # the black sweep leaves a zero residual on black nodes; the coarse
        # right-hand side is (2h)^2 R r with R = 2^-dim P^T, summed over the
        # odd parities first (two terms in 2D, whose sum has no order)
        first, *rest = reversed(level.red)
        _spread(level.residual(gs, xs, first), first, coarse.shape, bufs, out=coarse.rhs)
        for par in rest:
            coarse.rhs += _spread(level.residual(gs, xs, par), par, coarse.shape, bufs)
        if self.dim != 2:  # (2h)^2 / h^2 times 2^-dim is 1 in 2D
            coarse.rhs *= 2.0 ** (2 - self.dim)
        coarse.project(coarse.split(coarse.rhs))
        correction = self._vcycle(depth + 1, coarse.rhs, coarse.rhs)
        for par in level.parities:
            xs[par] += _midpoints(correction, par, level.shape, bufs)
        level.relax(gs, xs, level.black)
        level.relax(gs, xs, level.red)
        level.project(xs)
        if level.coarse:
            level.merge(xs, out)
        return out

    def _precond(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One V-cycle for h^2 K_hat on a block-order v, into out if given."""
        return self._vcycle(0, v, np.empty_like(v) if out is None else out)

    def _rhs(self, fv: np.ndarray, fm: float, out: np.ndarray) -> np.ndarray:
        """The centred right-hand side (f - <f>) mu in block order, into out."""
        for par, b in self.levels[0].split(out).items():
            sub = _sublattice(par)
            np.subtract(fv[sub], fm, out=b)
            b *= self.mu[sub]
        out -= out.mean()  # exact compatibility with the singular operator
        return out

    def _relative_residual(self, phi: np.ndarray, fv: np.ndarray, fm: float, work: np.ndarray) -> float:
        """||K phi - rhs|| / ||rhs|| for a block-order phi, with K phi = s K_hat (s phi).

        work, a block-order array, takes s phi and then the right-hand side.
        """
        np.copyto(work, phi)
        k_phi = self._stencil(self._scale(work, np.multiply))
        k_phi *= 1.0 / self.h**2
        self._scale(k_phi, np.multiply)
        rhs = self._rhs(fv, fm, work)
        k_phi -= rhs
        return float(np.linalg.norm(k_phi) / np.linalg.norm(rhs))

    def solve_many(self, observables: list[Observable]) -> list[PotentialField]:
        """Solve for each observable in turn against the shared measure.

        Each field's bytes are those of the observable solved alone.  Only the
        solver's arrays, f's values, the fields solved so far and one PCG's
        four arrays stay alive through a PCG.  An observable with a site is
        evaluated once, on the m nodes of its axis, and its f_values is a
        read-only broadcast of them; only one of no site builds the node
        coordinates, which are dropped before the first PCG.  The PCG runs in
        block order on h^2 K_hat, with the V-cycle as its preconditioner and
        sqrt(sum mu r^2) as its stopping norm; psi = h^2 y is divided by s
        in place, checked on its residual in block order and then copied into
        phi, in grid order, which is centred in place.  A function constant on
        the grid gets phi = +0.0, residual 0.0 and 0 iterations, without a solve.
        """
        h_dim = self.h**self.dim
        fields = []
        for fv in _grid_values(observables, self.nodes, self.dim):
            fm = float(np.sum(fv * self.mu) * h_dim)
            if fv.min() == fv.max():  # constant on the grid: phi = 0 exactly, without a solve
                phi, rel, n_iter = np.zeros(self.mu.shape), 0.0, 0
            else:
                phi, rel, n_iter = self._solve(fv, fm)
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
            )
            phi -= pf.quad_mean(phi)
            fields.append(pf)
        return fields

    def _solve(self, fv: np.ndarray, fm: float) -> tuple:
        """(phi in grid order, uncentred; its relative residual; the PCG's iterations) for a non-constant f."""
        level = self.levels[0]
        b = self._scale(self._rhs(fv, fm, np.empty(self.mu.size)), np.divide)
        level.project(level.split(b))
        # stop on the untransformed residual: ||K phi - rhs|| = ||s * (K_hat psi - rhs_hat)||
        target = 0.5 * RESIDUAL_RTOL * self._mu_norm(b)
        psi, n_iter = _pcg(self._stencil, self._precond, b, target, CG_MAXITER, self._mu_norm)
        psi *= self.h**2  # the PCG solved h^2 K_hat y = rhs_hat
        rel = self._relative_residual(self._scale(psi, np.divide), fv, fm, work=b)
        del b  # the PCG's residual, then the right-hand side of the check
        if not rel <= RESIDUAL_RTOL:  # NaN fails too: 0/0 once the right-hand side's norm underflows
            raise RuntimeError(
                f"CG did not converge after {n_iter} iterations "
                f"(relative residual {rel:.3e})"
            )
        return level.merge(level.split(psi), np.empty(self.mu.shape)), rel, n_iter


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
    f_norms = np.array([math.sqrt(max(e, 0.0)) for e in pf.f_energies])
    lhs = np.array([math.sqrt(max(e, 0.0)) for e in pf.phi_energies])
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
    lhs = math.sqrt(sum(pf.phi_energies))
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
