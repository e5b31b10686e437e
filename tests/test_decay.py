import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from gibbscert import decay
from gibbscert.cli import parse_config, run_experiment
from gibbscert.decay import (
    algebraic_certificate,
    decay_profile,
    exponential_certificate,
    tilt_inequality_audit,
)
from gibbscert.interaction import (
    NotPositiveDefinite,
    build_interaction_matrix,
    build_tilted_matrix,
    interaction_from_model,
    inverse_entrywise,
)
from gibbscert.lattice import distance_matrix, explicit_metric, periodic_grid
from gibbscert.model import (
    GibbsModel,
    algebraic_coupling,
    gaussian_potential,
    nearest_neighbor_coupling,
)


def ring_model(n, eps):
    return GibbsModel(
        periodic_grid([n]), gaussian_potential(1.0), nearest_neighbor_coupling(eps)
    )


def random_metric(rng, n):
    """Euclidean distances of random points: triangle inequality for free."""
    pts = rng.normal(size=(n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return explicit_metric(d)


def audit_tilt(im, geom):
    """tilt_inequality_audit on the A~ of geom's distance table."""
    delta = distance_matrix(geom)
    return tilt_inequality_audit(im, build_tilted_matrix(im, delta), delta)


def random_tilt_safe_instance(rng, n):
    """Strictly dominant instance whose tilted matrix stays dominant too."""
    geom = random_metric(rng, n)
    delta = distance_matrix(geom)
    kappa = np.abs(rng.normal(size=(n, n)))
    kappa = 0.5 * (kappa + kappa.T)
    np.fill_diagonal(kappa, 0.0)
    rho = rng.uniform(1.0, 2.0, size=n)
    tilted_rows = (np.exp(delta) * kappa).sum(axis=1)
    scale = 0.9 * np.min(rho / np.maximum(tilted_rows, 1e-300))
    kappa = kappa * min(scale, 1.0)
    return build_interaction_matrix(rho, kappa), geom


def test_exponential_certificate_product_measure():
    im = build_interaction_matrix([2.0, 5.0], np.zeros((2, 2)))
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    cert = exponential_certificate(im, geom)
    assert cert.passed
    assert cert.prefactor == pytest.approx(0.5)  # 1 / min rho


def test_exponential_certificate_ring_examples():
    geom = periodic_grid([16])
    cert = exponential_certificate(interaction_from_model(ring_model(16, 0.1)), geom)
    assert cert.passed
    # circulant minimum 1 - 2 * 0.1 * e
    assert 1.0 / cert.prefactor == pytest.approx(1.0 - 0.2 * math.e, rel=1e-12)
    assert cert.constants["tilt_audit_max_violation"] <= 1e-10

    cert = exponential_certificate(interaction_from_model(ring_model(16, 0.2)), geom)
    assert not cert.passed
    assert cert.constants["rho_tilde_eigenvalue"] == pytest.approx(
        1.0 - 0.4 * math.e, rel=1e-12
    )


def test_exponential_certificate_bounds_gaussian_covariance():
    geom = periodic_grid([16])
    model = ring_model(16, 0.1)
    im = interaction_from_model(model)
    cert = exponential_certificate(im, geom)
    from gibbscert.oracles.gaussian import gaussian_exact_covariance, gaussian_from_model

    cov = gaussian_exact_covariance(gaussian_from_model(model))
    delta = distance_matrix(geom)
    assert np.all(np.abs(cov) <= cert.prefactor * np.exp(-delta) + 1e-12)


def test_tilt_audit_two_site_closed_form():
    im = build_interaction_matrix([1.0, 1.0], np.array([[0.0, 0.1], [0.1, 0.0]]))
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    violation = audit_tilt(im, geom)
    assert violation <= 1e-10
    # closed forms: (A^-1)_01 = 0.1/(1-0.01); e^-1 (A~^-1)_01 = e^-1 0.1e/(1-(0.1e)^2)
    lhs = 0.1 / (1.0 - 0.01)
    rhs = math.exp(-1.0) * (0.1 * math.e) / (1.0 - (0.1 * math.e) ** 2)
    assert lhs <= rhs


def test_tilt_audit_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 33))
        im, geom = random_tilt_safe_instance(rng, n)
        assert audit_tilt(im, geom) <= 1e-10


def test_tilted_inverse_capped_by_rho_tilde():
    # A~ >= rho_tilde Id implies every entry of A~^-1 is at most 1/rho_tilde
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 17))
        im, geom = random_tilt_safe_instance(rng, n)
        tm = build_tilted_matrix(im, distance_matrix(geom))
        assert tm.lambda_min() > 0
        assert np.max(tm.inverse()) <= 1.0 / tm.lambda_min() + 1e-10


def test_tilt_audit_requires_positive_definite():
    im = build_interaction_matrix([1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="positive definite"):
        audit_tilt(im, geom)
    # e^800 * 1 overflows on the coupled pair: A~ is refused before any audit
    far = np.array([[0.0, 800.0], [800.0, 0.0]])
    with pytest.raises(NotPositiveDefinite, match="tilted matrix"):
        build_tilted_matrix(im, far)


def algebraic_ring(n=128, c=0.1, alpha=1.0):
    geom = periodic_grid([n])
    model = GibbsModel(geom, gaussian_potential(1.0), algebraic_coupling(c, alpha, 1))
    return interaction_from_model(model), geom


def test_algebraic_certificate_acceptance_instance():
    im, geom = algebraic_ring()
    cert = algebraic_certificate(im, geom, 1.0)
    assert cert.passed
    assert cert.dominance_margin > 0
    assert cert.contraction < 0.23  # row sums about 0.1 (pi^2/3 - 1)
    assert cert.alpha_tilde == pytest.approx(0.5)
    assert cert.exponent == pytest.approx(1.5)
    assert math.isfinite(cert.prefactor)
    assert cert.constants["tail_audit_ok"]
    assert cert.constants["head_audit_ok"]
    assert cert.constants["final_audit_ok"]


def test_algebraic_certificate_fitted_exponent():
    im, geom = algebraic_ring()
    cert = algebraic_certificate(im, geom, 1.0)
    # diagnostic fit: should see at least d + alpha_tilde decay (minus slack)
    assert cert.fitted_exponent >= 1.0 + 0.5 - 0.1


def test_algebraic_certificate_product_measure():
    geom = periodic_grid([16])
    im = build_interaction_matrix(np.ones(16), np.zeros((16, 16)))
    cert = algebraic_certificate(im, geom, 1.0)
    assert cert.passed  # off-diagonal decay is vacuous, A^-1 diagonal
    inv = inverse_entrywise(im.A)
    assert np.allclose(inv, np.eye(16))


def test_algebraic_certificate_refuses_without_dominance():
    geom = periodic_grid([8])
    model = GibbsModel(geom, gaussian_potential(1.0), algebraic_coupling(0.7, 1.0, 1))
    im = interaction_from_model(model)
    cert = algebraic_certificate(im, geom, 1.0)
    assert not cert.passed
    assert cert.dominance_margin <= 0
    assert "dominant" in cert.reason


def test_algebraic_certificate_refuses_a_prefactor_it_cannot_assemble():
    # row sums 1 - 1e-5: the piece walk would need about 2.7e6 > PREFACTOR_PIECE_CAP
    # pieces, which _walk_outruns_cap proves before walking any
    im, geom = algebraic_ring(n=8, c=0.6028308510638298)
    start = time.perf_counter()
    cert = algebraic_certificate(im, geom, 1.0)
    assert time.perf_counter() - start < 0.1  # the full walk to the cap took 3 s
    assert not cert.passed
    assert cert.reason == "contraction constant too close to 1 to assemble a finite prefactor"
    assert cert.contraction == pytest.approx(1.0 - 1e-5)
    assert cert.dominance_margin > 0
    assert cert.prefactor is None and cert.constants == {}


@pytest.mark.parametrize("cap", [300, 3000])
def test_walk_outruns_cap_only_where_the_walk_does(monkeypatch, cap):
    # against the walk itself, with the cap lowered so that walking to it is quick
    monkeypatch.setattr(decay, "PREFACTOR_PIECE_CAP", cap)
    rng = np.random.default_rng(cap)
    proven = 0
    for _ in range(200):
        d, alpha = int(rng.integers(1, 4)), float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
        c = math.exp(-(10 ** rng.uniform(-6, -0.5)))
        c_head, c_tail = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-2, 6)
        if decay._walk_outruns_cap(c_head, c_tail, d + alpha, alpha, abs(math.log(c))):
            proven += 1
            with monkeypatch.context() as patch:
                patch.setattr(decay, "_walk_outruns_cap", lambda *args: False)
                with pytest.raises(ValueError, match="too close to 1"):
                    decay._algebraic_prefactor(c_head, c_tail, d, alpha, c)
    assert proven >= 50
    # a C_head that underflowed to 0: the envelope falls by ln 2 / beta pieces, so the walk decides
    assert not decay._walk_outruns_cap(0.0, 1e5, 2.0, 1.0, 1e-5)


def test_algebraic_certificate_refuses_a_contraction_that_rounds_to_one(monkeypatch):
    def contraction(im):
        raise ValueError("contraction constant 1.0 >= 1; series not certified")

    monkeypatch.setattr(decay, "neumann_contraction_constant", contraction)
    cert = algebraic_certificate(*algebraic_ring(n=16), 1.0)
    assert not cert.passed
    assert cert.reason == "contraction constant 1.0 >= 1; series not certified"
    assert cert.contraction is None and cert.dominance_margin > 0


def deflate_partial_sums(expansion):
    for term, partial in expansion:
        yield term, partial - 1.0


def inflate_terms(expansion):
    for term, partial in expansion:
        yield term + 1.0, partial


@pytest.mark.parametrize(
    "mutate, audit",
    [(deflate_partial_sums, "tail_audit_ok"), (inflate_terms, "head_audit_ok")],
    ids=["deflated-partial-sum", "inflated-term"],
)
def test_algebraic_audits_catch_a_broken_expansion(monkeypatch, mutate, audit):
    expand = decay.neumann_partial_sums
    monkeypatch.setattr(decay, "neumann_partial_sums", lambda im, k: mutate(expand(im, k)))
    cert = algebraic_certificate(*algebraic_ring(n=32), 1.0)
    assert cert.constants[audit] is False
    assert cert.constants["final_audit_ok"]  # reads A^-1, not the expansion
    assert not cert.passed
    assert cert.reason == "numerical audit of the proof bounds failed"


def reference_audits(im, geom, alpha, cert):
    """The three audit verdicts pair by pair, with T_k from np.linalg.matrix_power."""
    p = 1.0 + alpha
    c, consts = cert.contraction, cert.constants
    r = distance_matrix(geom, euclidean=True)
    inv = inverse_entrywise(im.A)
    d = np.diag(1.0 / im.rho)
    n = im.n
    cut = {(i, j): decay._smallest_integer_above(p * math.log(r[i, j]) / abs(math.log(c)))
           for i in range(n) for j in range(n) if i != j}
    k_max = max(cut.values())
    terms = [d @ np.linalg.matrix_power(im.kappa @ d, k) for k in range(k_max + 1)]
    sums = np.cumsum(terms, axis=0)
    tail_ok = all(
        inv[ij] - sums[k - 1][ij] <= c**k / (1.0 - c) * consts["max_inv_rho"] + 1e-10 * np.max(inv)
        for ij, k in cut.items()
    )
    head_ok = all(
        terms[k][ij] <= consts["C_head"] * k ** (p + 1.0) / (r[ij] ** p + 1.0) * (1.0 + 1e-10) + 1e-300
        for ij in cut for k in range(1, k_max + 1)
    )
    final_ok = bool(np.all(inv <= cert.prefactor / (r ** cert.exponent + 1.0) * (1.0 + 1e-10) + 1e-300))
    return {"tail_audit_ok": tail_ok, "head_audit_ok": head_ok, "final_audit_ok": final_ok, "max_cut_index": k_max}


@pytest.mark.parametrize("seed", range(6))
def test_algebraic_audits_match_a_matrix_power_reference(seed):
    # random per-site rho and sparse random couplings on small chains, cut
    # indices up to 14; the verdicts and the deepest cut must agree
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    geom = periodic_grid([n])
    kappa = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5), 1)
    kappa = kappa + kappa.T
    rho = kappa.sum(axis=1) / rng.uniform(0.2, 0.9) + rng.uniform(0.0, 0.1, n)
    im = build_interaction_matrix(rho, kappa)
    alpha = float(rng.uniform(0.5, 2.0))
    cert = algebraic_certificate(im, geom, alpha)
    reference = reference_audits(im, geom, alpha, cert)
    assert {key: cert.constants[key] for key in reference} == reference


def test_algebraic_certificate_peak_memory_does_not_grow_with_the_expansion():
    # traced peak of the whole certificate on a seeded 256-site chain whose cut
    # indices reach 7, in n x n doubles: about 15 when the expansion is streamed,
    # 28 when every T_k and S_k is kept
    n = 256
    im, geom = algebraic_ring(n=n)
    im = build_interaction_matrix(im.rho * np.random.default_rng(7).uniform(1.0, 1.5, n), im.kappa)
    tracemalloc.start()
    try:
        cert = algebraic_certificate(im, geom, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.constants["max_cut_index"] >= 7
    assert peak / (8 * n * n) < 20


def test_exponential_certificate_frees_the_tilted_matrix_before_its_profile():
    # traced peak of the certificate on a 16 x 16 torus whose A^-1 and distance
    # table already exist, in n x n doubles: 6.36 when A~, its kappa and its
    # inverse are freed after the audit, 9.36 when they live on into the
    # profile and the bound
    geom = periodic_grid([16, 16])
    n = geom.n_sites
    im = interaction_from_model(GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.05)))
    im.inverse()
    distance_matrix(geom)
    tracemalloc.start()
    try:
        cert = exponential_certificate(im, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert peak / (8 * n * n) < 7.5


def test_algebraic_certificate_bound_dominates_inverse():
    im, geom = algebraic_ring()
    cert = algebraic_certificate(im, geom, 1.0)
    inv = inverse_entrywise(im.A)
    r = distance_matrix(geom, euclidean=True)
    bound = cert.prefactor / (r**cert.exponent + 1.0)
    assert np.all(inv <= bound * (1 + 1e-10))


def test_cut_index_monotone_in_distance():
    from gibbscert.decay import _smallest_integer_above

    im, geom = algebraic_ring(n=64)
    from gibbscert.interaction import neumann_contraction_constant

    c = neumann_contraction_constant(im)
    log_c = abs(math.log(c))
    r = distance_matrix(geom, euclidean=True)
    cuts = [
        _smallest_integer_above(2.0 * math.log(r[0, j]) / log_c) for j in range(1, 33)
    ]
    assert all(b >= a for a, b in zip(cuts, cuts[1:]))
    assert _smallest_integer_above(0.0) == 1
    assert _smallest_integer_above(2.0) == 3
    assert _smallest_integer_above(2.3) == 3


def test_decay_profile_rows():
    im, geom = algebraic_ring(n=16)
    inv = inverse_entrywise(im.A)
    r = distance_matrix(geom, euclidean=True)
    rows = decay_profile(inv, r)
    dists = [d for d, _ in rows]
    assert dists == sorted(dists)
    assert len(rows) == 8  # ring distances 1..8
    for d, v in rows:
        mask = (np.round(r, 9) == round(d, 9)) & ~np.eye(16, dtype=bool)
        assert v == pytest.approx(np.max(np.abs(inv[mask])))


def test_decay_profile_keeps_huge_distances_finite(tmp_path):
    # rounding to 9 decimals scales by 1e9: a distance of 1e300 became inf
    r = np.array([[0.0, 1e300], [1e300, 0.0]])
    assert decay_profile(np.eye(2), r) == [(1e300, 0.0)]
    r = np.full((3, 3), 1e290)
    np.fill_diagonal(r, 0.0)
    r[0, 1] = r[1, 0] = 0.1 + 0.2  # still rounded onto the level of 0.3
    r[0, 2] = r[2, 0] = 0.3
    assert [d for d, _ in decay_profile(np.ones((3, 3)), r)] == [0.3, 1e290]

    raw = {
        "model": {
            "geometry": {"kind": "explicit", "metric_table": [[0, 1e300], [1e300, 0]]},
            "potential": {"q": 1.0},
            "coupling": {"kind": "nearest_neighbor", "epsilon": 0.1},
        },
        "experiment": {"kind": "exponential_certificate"},
    }
    _, passed = run_experiment(parse_config(raw), tmp_path)
    assert passed
    assert (tmp_path / "decay.csv").read_text().splitlines()[1] == "1.00000000000000005e+300,0.00000000000000000e+00"


@pytest.mark.parametrize("n", [3, 8, 16])
def test_algebraic_certificate_refuses_every_overflow_with_a_reason(n):
    # powers and products past the double range: C_head's max(1/rho)^2, a prefactor piece
    # m^(p+1), the head audit's k^(p+1), r^p on pairs too far apart to couple; each raised
    # OverflowError or, under the suite's error::RuntimeWarning, a numpy overflow
    refusals = 0
    for q, c, alpha in itertools.product([1e-300, 1.0, 1e300], [1e-302, 1e-100, 0.1, 0.5], [1, 150, 800, 3000, 1e300]):
        model = GibbsModel(periodic_grid([n]), gaussian_potential(q), algebraic_coupling(c, alpha, 1))
        cert = algebraic_certificate(interaction_from_model(model), model.geometry, alpha)
        if cert.passed:
            assert math.isfinite(cert.prefactor) and np.all(np.isfinite(cert.bound))
        else:
            assert cert.reason
            refusals += cert.reason == "a constant of the proof overflows a double"
    assert refusals > 0
