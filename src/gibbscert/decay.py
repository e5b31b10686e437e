"""Machine-checkable correlation-decay certificates.

Every certificate is one DecayCertificate record.  Exponential decay is
certified through the metric-tilted matrix; algebraic decay through the
random-walk expansion of A^-1 with an explicit, finite prefactor (no
unquantified constants: every bound the certificate asserts is audited
numerically on the instance).  The record carries the n x n bound it
certifies, and the algebraic one its per-pair final audit, so a consumer
reads them rather than deriving them again from the record's scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .interaction import (
    InteractionMatrix,
    NotPositiveDefinite,
    build_tilted_matrix,
    dominance_margin,
    neumann_contraction_constant,
    neumann_partial_sums,
)
from .lattice import LatticeGeometry, distance_matrix

AUDIT_RTOL = 1e-10
PREFACTOR_PIECE_CAP = 2_000_000


@dataclass(frozen=True)
class DecayCertificate:
    kind: str  # exponential | algebraic | nearest_neighbor (bounds.nearest_neighbor_certificate)
    passed: bool
    rate: float | None = None  # exponential: decay per unit metric distance
    exponent: float | None = None  # algebraic: d + alpha/2
    alpha_tilde: float | None = None
    prefactor: float | None = None
    contraction: float | None = None
    dominance_margin: float | None = None
    constants: dict = field(default_factory=dict)
    fitted_exponent: float | None = None
    fit_range: tuple[float, float] | None = None
    reason: str | None = None
    # decay_profile(A^-1, distances) once the inverse exists; decay.csv reads it, report.json does not
    profile: list | None = field(default=None, repr=False, compare=False)
    # the n x n bound on |A^-1| once the prefactor exists, and (algebraic) its final audit per pair
    bound: np.ndarray | None = field(default=None, repr=False, compare=False)
    bound_ok: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The report's entry: each repr field under its own name, reason only when set."""
        shown = [f.name for f in fields(self) if f.repr and (f.name != "reason" or self.reason)]
        return {name: getattr(self, name) for name in shown}


def tilt_inequality_audit(im: InteractionMatrix, tilted: InteractionMatrix, delta: np.ndarray) -> float:
    """Max relative violation of (A^-1)_ij <= e^{-delta(i,j)} (A~^-1)_ij, A~ = build_tilted_matrix(im, delta).

    Zero or negative means the element-wise tilt inequality holds on the
    instance; anything above ~1e-10 would indicate a broken hypothesis
    (most likely a metric without the triangle inequality).
    """
    if not tilted.lambda_min() > 0:
        raise NotPositiveDefinite("tilted matrix is not positive definite")
    inv_t = tilted.inverse()  # its pivot rule raises as well
    inv_a = im.inverse()  # as does A's, though lambda_min(A) >= lambda_min(A~)
    rhs = np.exp(-delta) * inv_t
    violation = (inv_a - rhs) / (np.abs(inv_t) + 1e-300)
    return float(np.max(violation))


def _fit_decay_exponent(profile: list, lo: float, hi: float, log_distance: bool):
    """Negated least-squares slope of log max|A^-1| over the profile's distances in [lo, hi].

    Against log distance it estimates an algebraic exponent, against distance
    an exponential rate; None with fewer than 3 distances to fit.
    """
    pts = [(lev, m) for lev, m in profile if lo <= lev <= hi and m > 0]
    if len(pts) < 3:
        return None
    dist, peak = (np.array(col) for col in zip(*pts))
    x = np.log(dist) if log_distance else dist
    return float(-np.polyfit(x, np.log(peak), 1)[0])


def decay_profile(inv: np.ndarray, r: np.ndarray) -> list[tuple[float, float]]:
    """(distance, max |(A^-1)_ij| at that distance) rows, for plotting/export."""
    off = ~np.eye(inv.shape[0], dtype=bool)
    dist = r[off]
    near = np.abs(dist) < np.finfo(float).max / 1e9  # np.round(x, 9) scales by 1e9; every double past is whole
    dist[near] = np.round(dist[near], 9)
    levels, level_of = np.unique(dist, return_inverse=True)
    peaks = np.zeros(levels.size)
    np.maximum.at(peaks, level_of, np.abs(inv[off]))
    return list(zip(levels.tolist(), peaks.tolist()))


def exponential_certificate(im: InteractionMatrix, geom: LatticeGeometry) -> DecayCertificate:
    """Certify |(A^-1)_ij| <= (1/rho_tilde) e^{-delta(i,j)}.

    Passes iff the tilted matrix is finite, has a positive smallest eigenvalue
    rho_tilde and its inverse clears the Cholesky pivot rule, and the
    element-wise tilt inequality audit then holds on the instance.
    """
    constants = {}
    delta = distance_matrix(geom)
    try:
        tilted = build_tilted_matrix(im, delta)
        rho_tilde = constants["rho_tilde_eigenvalue"] = tilted.lambda_min()
        audit = tilt_inequality_audit(im, tilted, delta)
    except NotPositiveDefinite:
        return DecayCertificate(
            kind="exponential",
            passed=False,
            constants=constants,
            reason="tilted matrix is not positive definite",
        )
    constants["tilt_audit_max_violation"] = audit
    del tilted  # A~, its kappa and inverse, which the profile and bound below would add to
    profile = decay_profile(im.inverse(), delta)
    dmax = float(np.max(delta))
    fitted = None
    fit_range = None
    if dmax >= 3:
        fit_lo, fit_hi = 1.0, max(1.0, 0.75 * dmax)
        fitted = _fit_decay_exponent(profile, fit_lo, fit_hi, log_distance=False)
        if fitted is not None:
            fit_range = (fit_lo, fit_hi)
    return DecayCertificate(
        kind="exponential",
        passed=audit <= AUDIT_RTOL,
        rate=1.0,
        prefactor=1.0 / rho_tilde,
        constants=constants,
        fitted_exponent=fitted,
        fit_range=fit_range,
        reason=None if audit <= AUDIT_RTOL else "tilt inequality audit failed",
        profile=profile,
        bound=1.0 / rho_tilde * np.exp(-delta),
    )


def _smallest_integer_above(t: float) -> int:
    return int(math.floor(t)) + 1


def _walk_outruns_cap(c_head: float, c_tail: float, p: float, alpha: float, lc: float) -> bool:
    """True when _algebraic_prefactor's walk provably passes PREFACTOR_PIECE_CAP pieces.

    Piece m has m^q/q <= s_m <= (m+1)^q/q (q = p + 2) and envelope env_m =
    2 (C_head s_m + 2 C_tail) e^{-m beta} (beta = alpha lc/2p).  The walk ends
    once m lc > 600, or where env_m falls below env_{m-1} and the largest g.
    Neither happens by the cap when m lc stays <= 600; env rises on
    2 <= m <= (q-1)/b (b = e^beta - 1), which m^{q-1} (1 - bm/q) >= 4b C_tail/C_head
    at m = 2 ensures with a factor 2 to spare; and beyond, env_m >= 2 C_head m^q/q
    e^{-m beta}, unimodal so checked at both ends, tops 2 C_tail + C_head/q
    [W(beta) + W(lc)] >= every g, with W(k) = (q/k)^q e^{k-q} >= (m+1)^q e^{-km}.
    """
    q, beta = p + 2.0, alpha * lc / (2.0 * p)
    b = math.expm1(beta)
    if PREFACTOR_PIECE_CAP * lc / p * p > 600.0:  # the walk's own stop test, at the cap
        return False
    if not c_head * 2.0 ** (q - 1.0) * (1.0 - 2.0 * b / q) >= 4.0 * b * c_tail:
        return False
    m_rise = (q - 1.0) / b if b > 0.0 else math.inf
    if m_rise >= PREFACTOR_PIECE_CAP:
        return True
    log_w = [q * math.log(q / k) + k - q for k in (beta, lc)]
    log_g = np.logaddexp(math.log(2.0 * c_tail), math.log(c_head / q) + np.logaddexp(*log_w))
    ends = (m_rise, PREFACTOR_PIECE_CAP)
    return all(math.log(2.0 * c_head / q) + q * math.log(m) - m * beta > log_g + 1e-6 for m in ends)


def _algebraic_prefactor(c_head: float, c_tail: float, d: int, alpha: float, c: float):
    """Finite constant C with head + tail <= C / (r^{d+alpha/2} + 1) for all r >= 1.

    Evaluates g(r) = (r^{d+alpha/2}+1) [C_head S(n(r)-1)/(r^p+1) + C_tail/r^p]
    at the left endpoints of the pieces where the cut index n(r) is constant;
    g decreases within each piece, so the piecewise maximum is the supremum.
    A walk past PREFACTOR_PIECE_CAP pieces raises ValueError.
    """
    p = d + alpha
    a = d + alpha / 2.0
    if c <= 0.0:  # product measure: A^-1 = diag(1/rho), only the r=1 piece matters
        return 2.0 * c_tail
    lc = abs(math.log(c))
    max_val, s, prev_env = 0.0, 0.0, math.inf  # s = S(m) = sum_{k<=m} k^{p+1}
    # no piece is walked when the walk provably passes the cap
    for m in range(0 if _walk_outruns_cap(c_head, c_tail, p, alpha, lc) else PREFACTOR_PIECE_CAP + 1):
        s += float(m) ** (p + 1.0)
        log_r = m * lc / p
        if log_r * p > 600.0:  # r^p astronomically large; envelope already decayed
            return max_val
        r_pow_p = math.exp(log_r * p)
        r_pow_a = math.exp(log_r * a)
        g = (r_pow_a + 1.0) * (c_head * s / (r_pow_p + 1.0) + c_tail / r_pow_p)
        max_val = max(max_val, g)
        env = 2.0 * (c_head * s + 2.0 * c_tail) * math.exp(-m * alpha * lc / (2.0 * p))
        if m >= 2 and env < max_val and env < prev_env:
            return max_val
        prev_env = env
    raise ValueError("contraction constant too close to 1 to assemble a finite prefactor")


def algebraic_certificate(
    im: InteractionMatrix, geom: LatticeGeometry, alpha: float
) -> DecayCertificate:
    """Certify |(A^-1)_ij| <= C / (|i-j|^{d + alpha/2} + 1) with explicit C.

    Hypotheses checked on the instance: strict diagonal dominance with margin
    delta > 0, contraction constant c < 1, and the algebraic coupling profile
    kappa_ij <= C_kappa / (|i-j|^{d+alpha} + 1) (C_kappa is computed, so the
    profile hypothesis is satisfied by construction and recorded).

    The constant C is assembled from the two halves of the expansion of
    A^-1 = sum_k T_k split at the cut index n(i,j), the smallest integer
    above log |i-j|^{d+alpha} / |log c|:

      tail  sum_{k >= n} T_k   <= c^n/(1-c) * max(1/rho)    (entrywise)
      head  T_k <= C_head k^{d+alpha+1} / (|i-j|^{d+alpha}+1)  uniformly in k

    with C_head = C_kappa * d^{(d+alpha)/2} * max(1/rho)^2 * max(rho)/min(rho)
    (the d^{(d+alpha)/2} factor is the Euclidean-vs-max norm-equivalence
    constant for splitting a k-hop chain at its longest hop).  Both halves are
    audited entry by entry in one pass over the streamed expansion, and the
    final bound against A^-1, pair by pair; the record carries that bound and
    the per-pair verdicts.  A failed hypothesis, a c so close to 1 that no
    finite C is assembled, or a constant past the double range (C_head, C_tail,
    C, or C_head n^{d+alpha+1} at the largest cut index) gives a refused
    certificate whose reason says which.
    """
    if geom.kind != "periodic_grid":
        raise ValueError("algebraic certificate needs grid coordinates")
    d = geom.dimension
    p = d + alpha
    margin = dominance_margin(im.A)
    c = None
    try:
        if margin <= 0:
            raise ValueError("matrix is not strictly diagonally dominant")
        c = neumann_contraction_constant(im)
        r = distance_matrix(geom, euclidean=True)
        n = im.n
        off = ~np.eye(n, dtype=bool)

        max_inv_rho = float(np.max(1.0 / im.rho))
        rho_ratio = float(np.max(im.rho) / np.min(im.rho))
        with np.errstate(over="ignore"):  # an r^p past the double range is inf, so that pair's head bound is 0
            coupling_profile = r[off] ** p + 1.0
        # C_kappa on coupled pairs only, so an uncoupled pair gives 0, not 0 * inf
        c_kappa = float(np.max(im.kappa[off] * np.where(im.kappa[off] > 0, coupling_profile, 0.0), initial=0.0))
        c_head = c_kappa * d ** (p / 2.0) * max_inv_rho**2 * rho_ratio
        c_tail = max_inv_rho / (1.0 - c)
        if not (math.isfinite(c_head) and math.isfinite(c_tail)):
            raise OverflowError
        prefactor = _algebraic_prefactor(c_head, c_tail, d, alpha, c)

        # cut index per pair, evaluated with math.log once per distinct distance
        log_c = math.inf if c == 0.0 else abs(math.log(c))
        levels, level_of = np.unique(r[off], return_inverse=True)
        level_cut = [_smallest_integer_above(p * math.log(x) / log_c) for x in levels.tolist()]
        n_cut = np.zeros((n, n), dtype=int)
        n_cut[off] = np.array(level_cut, dtype=int)[level_of]
        k_max = int(np.max(n_cut)) if n > 1 else 0
        # the head audit's largest constant; the smaller ones below it are finite too
        if not (math.isfinite(prefactor) and math.isfinite(c_head * float(k_max) ** (p + 1.0))):
            raise OverflowError
    except (ValueError, OverflowError) as exc:  # no margin, a c that rounds to 1, no finite prefactor, an overflow
        reason = str(exc) if isinstance(exc, ValueError) else "a constant of the proof overflows a double"
        return DecayCertificate(kind="algebraic", passed=False, contraction=c, dominance_margin=margin, reason=reason)
    inv = im.inverse()
    scale = float(np.max(inv))

    # at step k, T_k head-audits every pair (T_0 is 0 off the diagonal) and the pairs
    # cut at k + 1 tail-audit against S_k (k + 1 is a numpy integer like the entries
    # of n_cut, so c ** (k + 1) rounds as it would per pair)
    tail_ok = head_ok = True
    for k, (t_k, s_k) in zip(np.arange(k_max + 1), neumann_partial_sums(im, k_max)):
        bound = c_head * float(k) ** (p + 1.0) / coupling_profile
        head_ok &= not np.any(t_k[off] > bound * (1.0 + AUDIT_RTOL) + 1e-300)
        cut = n_cut == k + 1
        tail_ok &= not np.any(inv[cut] - s_k[cut] > c ** (k + 1) / (1.0 - c) * max_inv_rho + AUDIT_RTOL * scale)

    fit_lo = max(n ** 0.25, float(np.min(r[off])) if n > 1 else 1.0)
    fit_hi = n / 4.0
    profile = decay_profile(inv, r)
    fitted = _fit_decay_exponent(profile, fit_lo, fit_hi, log_distance=True)
    # after the profile, so that its peak does not hold bound_ok too; an r^(d + alpha/2)
    # past the double range is inf, which bounds its pair by 0
    with np.errstate(over="ignore"):
        final_bound = prefactor / (r ** (d + alpha / 2.0) + 1.0)
    bound_ok = inv <= final_bound * (1.0 + AUDIT_RTOL) + 1e-300
    final_ok = bool(np.all(bound_ok))

    passed = tail_ok and head_ok and final_ok
    constants = {
        "C_kappa": c_kappa,
        "C_head": c_head,
        "C_tail": c_tail,
        "max_inv_rho": max_inv_rho,
        "rho_ratio": rho_ratio,
        "max_cut_index": k_max,
        "tail_audit_ok": tail_ok,
        "head_audit_ok": head_ok,
        "final_audit_ok": final_ok,
    }
    return DecayCertificate(
        kind="algebraic",
        passed=passed,
        exponent=d + alpha / 2.0,
        alpha_tilde=alpha / 2.0,
        prefactor=prefactor,
        contraction=c,
        dominance_margin=margin,
        constants=constants,
        fitted_exponent=fitted,
        fit_range=(fit_lo, fit_hi),
        reason=None if passed else "numerical audit of the proof bounds failed",
        profile=profile,
        bound=final_bound,
        bound_ok=bound_ok,
    )
