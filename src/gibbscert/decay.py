"""Machine-checkable correlation-decay certificates.

Exponential decay is certified through the metric-tilted matrix; algebraic
decay through the random-walk expansion of A^-1 with an explicit, finite
prefactor (no unquantified constants: every bound the certificate asserts is
audited numerically on the instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interaction import (
    InteractionMatrix,
    dominance_margin,
    inverse_entrywise,
    neumann_contraction_constant,
    neumann_partial_sums,
)
from .lattice import LatticeGeometry, distance_matrix

AUDIT_RTOL = 1e-10
PREFACTOR_PIECE_CAP = 2_000_000


@dataclass(frozen=True)
class DecayCertificate:
    kind: str  # exponential | algebraic
    passed: bool
    rate: float | None = None  # exponential: decay per unit metric distance
    exponent: float | None = None  # algebraic: d + alpha/2
    alpha_tilde: float | None = None
    prefactor: float | None = None
    contraction: float | None = None
    dominance: float | None = None
    constants: dict = field(default_factory=dict)
    fitted_exponent: float | None = None
    fit_range: tuple[float, float] | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "passed": self.passed,
            "rate": self.rate,
            "exponent": self.exponent,
            "alpha_tilde": self.alpha_tilde,
            "prefactor": self.prefactor,
            "contraction": self.contraction,
            "dominance_margin": self.dominance,
            "constants": dict(self.constants),
            "fitted_exponent": self.fitted_exponent,
            "fit_range": list(self.fit_range) if self.fit_range else None,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


def tilt_inequality_audit(im: InteractionMatrix, geom: LatticeGeometry) -> float:
    """Max relative violation of (A^-1)_ij <= e^{-delta(i,j)} (A~^-1)_ij.

    Zero or negative means the element-wise tilt inequality holds on the
    instance; anything above ~1e-10 would indicate a broken hypothesis
    (most likely a metric without the triangle inequality).
    """
    inv_a = im.inverse()  # raises unless A is positive definite
    tilted = im.tilted(geom)
    if tilted.rho_tilde is None:
        raise ValueError("tilted matrix is not positive definite")
    inv_t = inverse_entrywise(tilted.A_tilde)  # its pivot check raises as well
    delta = distance_matrix(geom)
    rhs = np.exp(-delta) * inv_t
    violation = (inv_a - rhs) / (np.abs(inv_t) + 1e-300)
    return float(np.max(violation))


def _fit_decay_exponent(inv: np.ndarray, r: np.ndarray, lo: float, hi: float, log_distance: bool):
    """Negated least-squares slope of log max|A^-1| over the distances in [lo, hi].

    Against log distance it estimates an algebraic exponent, against distance
    an exponential rate; None with fewer than 3 distances to fit.
    """
    pts = [(lev, m) for lev, m in decay_profile(inv, r) if lo <= lev <= hi and m > 0]
    if len(pts) < 3:
        return None
    dist, peak = (np.array(col) for col in zip(*pts))
    x = np.log(dist) if log_distance else dist
    return float(-np.polyfit(x, np.log(peak), 1)[0])


def decay_profile(inv: np.ndarray, r: np.ndarray) -> list[tuple[float, float]]:
    """(distance, max |(A^-1)_ij| at that distance) rows, for plotting/export."""
    off = ~np.eye(inv.shape[0], dtype=bool)
    levels, level_of = np.unique(np.round(r[off], 9), return_inverse=True)
    peaks = np.zeros(levels.size)
    np.maximum.at(peaks, level_of, np.abs(inv[off]))
    return list(zip(levels.tolist(), peaks.tolist()))


def exponential_certificate(im: InteractionMatrix, geom: LatticeGeometry) -> DecayCertificate:
    """Certify |(A^-1)_ij| <= (1/rho_tilde) e^{-delta(i,j)}.

    Passes iff the tilted matrix has a positive smallest eigenvalue; the
    element-wise tilt inequality is then re-audited on the instance.
    """
    tilted = im.tilted(geom)
    constants = {"rho_tilde_eigenvalue": tilted.min_eigenvalue}
    if tilted.rho_tilde is None:
        return DecayCertificate(
            kind="exponential",
            passed=False,
            constants=constants,
            reason="tilted matrix is not positive definite",
        )
    audit = tilt_inequality_audit(im, geom)
    constants["tilt_audit_max_violation"] = audit
    inv = im.inverse()
    delta = distance_matrix(geom)
    dmax = float(np.max(delta))
    fitted = None
    fit_range = None
    if dmax >= 3:
        fit_lo, fit_hi = 1.0, max(1.0, 0.75 * dmax)
        fitted = _fit_decay_exponent(inv, delta, fit_lo, fit_hi, log_distance=False)
        if fitted is not None:
            fit_range = (fit_lo, fit_hi)
    return DecayCertificate(
        kind="exponential",
        passed=audit <= AUDIT_RTOL,
        rate=1.0,
        prefactor=1.0 / tilted.rho_tilde,
        constants=constants,
        fitted_exponent=fitted,
        fit_range=fit_range,
        reason=None if audit <= AUDIT_RTOL else "tilt inequality audit failed",
    )


def _smallest_integer_above(t: float) -> int:
    return int(math.floor(t)) + 1


def _algebraic_prefactor(c_head: float, c_tail: float, d: int, alpha: float, c: float):
    """Finite constant C with head + tail <= C / (r^{d+alpha/2} + 1) for all r >= 1.

    Evaluates g(r) = (r^{d+alpha/2}+1) [C_head S(n(r)-1)/(r^p+1) + C_tail/r^p]
    at the left endpoints of the pieces where the cut index n(r) is constant;
    g decreases within each piece, so the piecewise maximum is the supremum.
    """
    p = d + alpha
    a = d + alpha / 2.0
    if c <= 0.0:  # product measure: A^-1 = diag(1/rho), only the r=1 piece matters
        return 2.0 * c_tail
    lc = abs(math.log(c))
    max_val = 0.0
    s = 0.0  # S(m) = sum_{k<=m} k^{p+1}
    prev_env = math.inf
    m = 0
    while m <= PREFACTOR_PIECE_CAP:
        log_r = m * lc / p
        if log_r * p > 600.0:  # r^p astronomically large; envelope already decayed
            break
        r_pow_p = math.exp(log_r * p)
        r_pow_a = math.exp(log_r * a)
        g = (r_pow_a + 1.0) * (c_head * s / (r_pow_p + 1.0) + c_tail / r_pow_p)
        max_val = max(max_val, g)
        env = 2.0 * (c_head * s + 2.0 * c_tail) * math.exp(-m * alpha * lc / (2.0 * p))
        if m >= 2 and env < max_val and env < prev_env:
            return max_val
        prev_env = env
        m += 1
        s += float(m) ** (p + 1.0)
    if m > PREFACTOR_PIECE_CAP:
        raise ValueError(
            "contraction constant too close to 1 to assemble a finite prefactor"
        )
    return max_val


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
    constant for splitting a k-hop chain at its longest hop).  Both halves,
    and the final bound, are audited numerically entry by entry.
    """
    if geom.kind != "periodic_grid":
        raise ValueError("algebraic certificate needs grid coordinates")
    d = geom.dimension
    p = d + alpha
    margin = dominance_margin(im.A)
    if margin <= 0:
        return DecayCertificate(
            kind="algebraic",
            passed=False,
            dominance=margin,
            reason="matrix is not strictly diagonally dominant",
        )
    c = neumann_contraction_constant(im)
    r = distance_matrix(geom, euclidean=True)
    n = im.n
    off = ~np.eye(n, dtype=bool)

    max_inv_rho = float(np.max(1.0 / im.rho))
    rho_ratio = float(np.max(im.rho) / np.min(im.rho))
    c_kappa = float(np.max(im.kappa[off] * (r[off] ** p + 1.0))) if n > 1 else 0.0
    c_head = c_kappa * d ** (p / 2.0) * max_inv_rho**2 * rho_ratio
    c_tail = max_inv_rho / (1.0 - c)
    prefactor = _algebraic_prefactor(c_head, c_tail, d, alpha, c)

    # cut index per pair, evaluated with math.log once per distinct distance
    log_c = math.inf if c == 0.0 else abs(math.log(c))
    levels, level_of = np.unique(r[off], return_inverse=True)
    level_cut = [_smallest_integer_above(p * math.log(x) / log_c) for x in levels.tolist()]
    n_cut = np.zeros((n, n), dtype=int)
    n_cut[off] = np.array(level_cut, dtype=int)[level_of]
    k_max = int(np.max(n_cut)) if n > 1 else 0
    expansion = neumann_partial_sums(im, k_max)
    inv = im.inverse()
    scale = float(np.max(inv))

    # tail audit: all pairs sharing a cut index nc at once (nc stays a numpy
    # integer, so c**nc rounds as it does per pair)
    tail_ok = True
    for nc in np.unique(n_cut[off]):
        pairs = off & (n_cut == nc)
        tail = inv[pairs] - expansion.partial_sums[nc - 1][pairs]
        if np.any(tail > c**nc / (1.0 - c) * max_inv_rho + AUDIT_RTOL * scale):
            tail_ok = False
    head_ok = True
    coupling_profile = r**p + 1.0
    for k in range(1, k_max + 1):
        t_k = expansion.terms[k]
        bound = c_head * float(k) ** (p + 1.0) / coupling_profile
        if np.any(t_k[off] > bound[off] * (1.0 + AUDIT_RTOL) + 1e-300):
            head_ok = False
    final_bound = prefactor / (r ** (d + alpha / 2.0) + 1.0)
    final_ok = bool(np.all(inv <= final_bound * (1.0 + AUDIT_RTOL) + 1e-300))

    fit_lo = max(n ** 0.25, float(np.min(r[off])) if n > 1 else 1.0)
    fit_hi = n / 4.0
    fitted = _fit_decay_exponent(inv, r, fit_lo, fit_hi, log_distance=True)

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
        dominance=margin,
        constants=constants,
        fitted_exponent=fitted,
        fit_range=(fit_lo, fit_hi),
        reason=None if passed else "numerical audit of the proof bounds failed",
    )
