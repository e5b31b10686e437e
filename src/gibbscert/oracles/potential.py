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
(path Laplacian + potential)/h^2, so a cosine-transform solve of the
constant-coefficient part is a mesh-independent preconditioner; several
right-hand sides against one measure run in lockstep to share the transform
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse

from ..bounds import Observable
from ..interaction import InteractionMatrix
from ..model import GibbsModel, kappa_matrix, rho_vector
from ..reporting import write_table

TAIL_MASS_LIMIT = 1e-8
RESIDUAL_RTOL = 1e-10
CG_MAXITER = 400
_FFT_WORKERS = 2


@dataclass(frozen=True)
class GridSpec:
    box_halfwidth: float  # L
    spacing: float  # h

    def __post_init__(self):
        if self.box_halfwidth <= 0 or self.spacing <= 0:
            raise ValueError("grid needs positive box halfwidth and spacing")
        if self.spacing >= self.box_halfwidth:
            raise ValueError("grid spacing must resolve the box")


@dataclass
class PotentialField:
    """Discrete solution phi with the measure weights used to solve for it."""

    model: GibbsModel
    nodes: np.ndarray  # shared 1D node array per coordinate
    h: float
    dim: int
    mu: np.ndarray = field(repr=False)  # normalized weights, grid shape
    phi: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    f_mean: float = 0.0
    residual: float = 0.0

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

    def grad_pair(self, u: np.ndarray, v: np.ndarray, axis: int) -> float:
        """Edge quadrature of int d_axis(u) d_axis(v) dmu (geometric-mean weights)."""
        sl_l = [slice(None)] * self.dim
        sl_r = [slice(None)] * self.dim
        sl_l[axis] = slice(0, -1)
        sl_r[axis] = slice(1, None)
        sl_l, sl_r = tuple(sl_l), tuple(sl_r)
        w_edge = np.sqrt(self.mu[sl_l] * self.mu[sl_r])
        du = (u[sl_r] - u[sl_l]) / self.h
        dv = (v[sl_r] - v[sl_l]) / self.h
        return float(np.sum(w_edge * du * dv) * self.cell_volume)

    def directional_grad_norm(self, values: np.ndarray, axis: int) -> float:
        """(int |d_axis v|^2 dmu)^{1/2} by edge quadrature."""
        return math.sqrt(max(self.grad_pair(values, values, axis), 0.0))

    def covariance_via_representation(self, g_values: np.ndarray) -> float:
        """int grad(phi).grad(g) dmu; should match covariance_direct."""
        return sum(self.grad_pair(self.phi, g_values, ax) for ax in range(self.dim))

    def evaluate(self, obs: Observable) -> np.ndarray:
        """Node values of an observable on this grid."""
        grids = np.meshgrid(*([self.nodes] * self.dim), indexing="ij")
        config = np.stack(grids, axis=-1)
        return np.asarray(obs.fn(config), dtype=float)


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


def _assemble_operator(mu: np.ndarray, h: float) -> scipy.sparse.csr_matrix:
    """Weighted graph Laplacian with edge weights sqrt(mu_l mu_r)/h^2."""
    shape = mu.shape
    dim = mu.ndim
    size = mu.size
    idx = np.arange(size).reshape(shape)
    diag = np.zeros(size)
    rows, cols, vals = [], [], []
    for axis in range(dim):
        sl_l = [slice(None)] * dim
        sl_r = [slice(None)] * dim
        sl_l[axis] = slice(0, -1)
        sl_r[axis] = slice(1, None)
        sl_l, sl_r = tuple(sl_l), tuple(sl_r)
        w = (np.sqrt(mu[sl_l] * mu[sl_r]) / h**2).ravel()
        left = idx[sl_l].ravel()
        right = idx[sl_r].ravel()
        rows.append(left)
        cols.append(right)
        vals.append(-w)
        rows.append(right)
        cols.append(left)
        vals.append(-w)
        np.add.at(diag, left, w)
        np.add.at(diag, right, w)
    rows.append(np.arange(size))
    cols.append(np.arange(size))
    vals.append(diag)
    K = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return K.tocsr()


def _lockstep_pcg(matvec, precond, B: np.ndarray, targets: np.ndarray, maxiter: int, norm_weight=None):
    """Preconditioned CG on one operator with several right-hand sides.

    Columns of B are solved simultaneously (each with its own step sizes) so
    the matrix and preconditioner applications batch.  Convergence is judged
    on ||w * residual|| <= target per column (w undoes a similarity scaling
    so the targets can live in the original variables).  Returns
    (X, iterations, converged_mask).
    """
    n, k = B.shape
    X = np.zeros_like(B)
    R = B.copy()
    Z = precond(R)
    P = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    active = np.ones(k, dtype=bool)
    iters = 0
    for iters in range(1, maxiter + 1):
        AP = matvec(P)
        pap = np.einsum("ij,ij->j", P, AP)
        pap = np.where(pap == 0.0, 1.0, pap)
        alpha = np.where(active, rz / pap, 0.0)
        X += alpha * P
        R -= alpha * AP
        scaled = R if norm_weight is None else norm_weight[:, None] * R
        res = np.linalg.norm(scaled, axis=0)
        active = res > targets
        if not active.any():
            break
        Z = precond(R)
        rz_new = np.einsum("ij,ij->j", R, Z)
        beta = np.where(active, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
        rz = rz_new
        P = Z + beta * P
    return X, iters, ~active


class PotentialSolver:
    """Shares the discrete operator across solves for one (model, grid) pair."""

    def __init__(self, model: GibbsModel, grid: GridSpec, check_tail: bool = True):
        if model.n_sites > 2:
            raise ValueError("grid oracle supports at most 2 sites")
        if check_tail:
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

        H = _hamiltonian_grid(model, self.nodes)
        w = np.exp(-(H - H.min()))
        w = np.maximum(w, 1e-300)
        self.mu = w / (w.sum() * self.h**self.dim)

        self.K = _assemble_operator(self.mu, self.h)
        s = np.sqrt(self.mu.ravel())
        d_inv = scipy.sparse.diags(1.0 / s)
        # diagonal similarity: K_hat = (path Laplacian + potential)/h^2 exactly
        self.K_hat = (d_inv @ self.K @ d_inv).tocsr()
        self.khat_diag = (self.K.diagonal() / self.mu.ravel()).reshape(self.mu.shape)
        self.s = s
        self.null = s / np.linalg.norm(s)

        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m)
        if self.dim == 1:
            self.lam_grid = lam
        else:
            self.lam_grid = lam[:, None] + lam[None, :]
        # shift ~ sqrt of the ground-state-transform potential |grad H|^2/4 - lap H/2,
        # read off the operator's interior diagonal (the boundary layer is O(h) noise)
        pot = self.h**2 * self.khat_diag - self._degree().reshape((m,) * self.dim)
        interior = pot[tuple(slice(1, -1) for _ in range(self.dim))]
        w_max = max(float(np.max(interior)) / self.h**2, 1e-2) if interior.size else 1e-2
        self.shift = self.h**2 * math.sqrt(w_max)

        grids = np.meshgrid(*([self.nodes] * self.dim), indexing="ij")
        self.config = np.stack(grids, axis=-1)

    def _degree(self) -> np.ndarray:
        deg = np.zeros((self.m,) * self.dim)
        for axis in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[axis] = slice(0, -1)
            deg[tuple(sl)] += 1.0
            sl[axis] = slice(1, None)
            deg[tuple(sl)] += 1.0
        return deg.ravel()

    def _apply_khat(self, V: np.ndarray) -> np.ndarray:
        return self.K_hat @ V

    def _project(self, V: np.ndarray) -> np.ndarray:
        return V - self.null[:, None] * (self.null @ V)

    def _precond(self, V: np.ndarray) -> np.ndarray:
        """Cosine-transform solve of (path Laplacian + shift); single precision.

        The preconditioner only needs to approximate the inverse, so the
        transforms run in float32 for speed; convergence is still judged (and
        the final residual re-verified) in float64.
        """
        V = self._project(V)
        k = V.shape[1]
        cube = np.ascontiguousarray(
            V.reshape((self.m,) * self.dim + (k,)).transpose(
                (self.dim,) + tuple(range(self.dim))
            ),
            dtype=np.float32,
        )
        axes = tuple(range(1, self.dim + 1))
        spec = scipy.fft.dctn(cube, type=2, norm="ortho", axes=axes, workers=_FFT_WORKERS)
        spec /= (self.lam_grid + self.shift).astype(np.float32)[None, ...]
        out = scipy.fft.idctn(spec, type=2, norm="ortho", axes=axes, workers=_FFT_WORKERS)
        out = (
            self.h**2
            * out.transpose(tuple(range(1, self.dim + 1)) + (0,)).reshape(V.shape)
        ).astype(np.float64)
        return self._project(out)

    def solve_many(
        self, observables: list[Observable], initial_guess=None
    ) -> list[PotentialField]:
        """Solve for several observables against the shared measure.

        initial_guess may hold PotentialFields from a coarser nested grid
        (same box, spacing halved); their prolongations warm-start CG.
        """
        h_dim = self.h**self.dim
        f_values = []
        f_means = []
        rhs_cols = []
        for obs in observables:
            fv = np.asarray(obs.fn(self.config), dtype=float)
            fm = float(np.sum(fv * self.mu) * h_dim)
            rhs = ((fv - fm) * self.mu).ravel()
            rhs -= rhs.mean()  # exact compatibility with the singular operator
            scale = float(np.linalg.norm(((np.abs(fv) + abs(fm)) * self.mu).ravel()))
            if np.linalg.norm(rhs) <= 1e-13 * max(scale, 1e-300):
                rhs = np.zeros_like(rhs)  # centered f is constant: phi = 0 exactly
            f_values.append(fv)
            f_means.append(fm)
            rhs_cols.append(rhs / self.s)
        B = self._project(np.column_stack(rhs_cols))
        # stop on the untransformed residual: ||K phi - rhs|| = ||s * (K_hat psi - rhs_hat)||
        targets = 0.5 * RESIDUAL_RTOL * np.linalg.norm(
            self.s[:, None] * B, axis=0
        )

        X0 = None
        if initial_guess is not None:
            X0 = np.column_stack(
                [self._prolong(pf) * self.s for pf in initial_guess]
            )
            X0 = self._project(X0)
        R0 = B if X0 is None else B - self._apply_khat(X0)
        X, iters, converged = _lockstep_pcg(
            self._apply_khat, self._precond, R0, targets, CG_MAXITER,
            norm_weight=self.s,
        )
        if X0 is not None:
            X += X0

        fields = []
        for col, obs, fv, fm, rhs_hat in zip(X.T, observables, f_values, f_means, rhs_cols):
            phi = (col / self.s).reshape(self.mu.shape)
            rhs = rhs_hat * self.s
            rhs_norm = float(np.linalg.norm(rhs))
            if rhs_norm == 0.0:
                rel = 0.0
            else:
                rel = float(np.linalg.norm(self.K @ phi.ravel() - rhs) / rhs_norm)
            if rel > RESIDUAL_RTOL:
                raise RuntimeError(
                    f"CG did not converge after {iters} iterations "
                    f"(relative residual {rel:.3e})"
                )
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
            )
            pf.phi = phi - pf.quad_mean(phi)
            fields.append(pf)
        return fields

    def solve(self, obs: Observable, initial_guess=None) -> PotentialField:
        guesses = [initial_guess] if initial_guess is not None else None
        return self.solve_many([obs], initial_guess=guesses)[0]

    def _prolong(self, pf: PotentialField) -> np.ndarray:
        """Linear interpolation of a nested coarse solution onto this grid."""
        if self.m != 2 * len(pf.nodes) - 1 or pf.dim != self.dim:
            raise ValueError("initial guess grid is not the nested coarser grid")
        coarse = pf.phi
        for axis in range(self.dim):
            fine_shape = list(coarse.shape)
            fine_shape[axis] = 2 * coarse.shape[axis] - 1
            out = np.zeros(fine_shape)
            even = [slice(None)] * self.dim
            even[axis] = slice(0, None, 2)
            out[tuple(even)] = coarse
            odd = [slice(None)] * self.dim
            odd[axis] = slice(1, None, 2)
            lo = [slice(None)] * self.dim
            lo[axis] = slice(0, -1)
            hi = [slice(None)] * self.dim
            hi[axis] = slice(1, None)
            out[tuple(odd)] = 0.5 * (coarse[tuple(lo)] + coarse[tuple(hi)])
            coarse = out
        return coarse.ravel()


def solve_potential(
    model: GibbsModel, f: Observable, grid: GridSpec, check_tail: bool = True
) -> PotentialField:
    """One-shot solve, centering phi under mu.

    Raises if the box is too small for the measure (envelope tail mass above
    1e-8) or if CG cannot push the relative residual below 1e-10.
    """
    solver = PotentialSolver(model, grid, check_tail=check_tail)
    return solver.solve(f)


def _check_same_model(pf: PotentialField, im: InteractionMatrix) -> None:
    rho = rho_vector(pf.model)
    kappa = kappa_matrix(pf.model)
    if not (np.allclose(rho, im.rho) and np.allclose(kappa, im.kappa)):
        raise ValueError("interaction matrix was not built from this model")


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
    the sharp (equality) cases.
    """
    _check_same_model(pf, im)
    lhs = np.array([pf.directional_grad_norm(pf.phi, ax) for ax in range(pf.dim)])
    f_norms = np.array(
        [pf.directional_grad_norm(pf.f_values, ax) for ax in range(pf.dim)]
    )
    tol = pf.h * (1.0 + float(np.linalg.norm(f_norms)))
    return PIResult.check(lhs, im.inverse() @ f_norms, tol)


def verify_dual_pi(pf: PotentialField, rho: float) -> PIResult:
    """Check ||grad phi||_L2(mu) <= (1/rho) ||grad f||_L2(mu)."""
    if rho <= 0:
        raise ValueError("PI constant must be positive")
    lhs = math.sqrt(sum(pf.grad_pair(pf.phi, pf.phi, ax) for ax in range(pf.dim)))
    f_norm = math.sqrt(
        sum(pf.grad_pair(pf.f_values, pf.f_values, ax) for ax in range(pf.dim))
    )
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
    grids = np.meshgrid(*([pf.nodes] * dim), indexing="ij")
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
                hess_jk = pf.model.potential(j).second(grids[j])
            else:
                second = _centered_first(d_phi[j], k, h)
                hess_jk = -J[j, k]
            rhs_field += second**2 + d_phi[j] * hess_jk * d_phi[k]
        rhs = float(np.sum(_interior(rhs_field, dim) * weights))
        worst = max(worst, abs(lhs - rhs))
    return worst


def potential_to_csv(pf: PotentialField, path) -> None:
    """Node coordinates, mu weight, and phi value in full precision."""
    grids = np.meshgrid(*([pf.nodes] * pf.dim), indexing="ij")
    header = [f"x{i}" for i in range(pf.dim)] + ["mu", "phi"]
    write_table(header, [g.ravel() for g in grids] + [pf.mu.ravel(), pf.phi.ravel()], path)
