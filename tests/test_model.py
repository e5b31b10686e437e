import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.lattice import periodic_grid
from gibbscert.model import (
    GibbsModel,
    algebraic_coupling,
    cosine_potential,
    explicit_coupling,
    gaussian_potential,
    kappa_matrix,
    nearest_neighbor_coupling,
    rho_vector,
    single_site_pi_constant,
)
from gibbscert.oracles.potential import _hamiltonian_grid


MIXED = (
    gaussian_potential(1.0),
    cosine_potential(1.5, 0.2, 3.0),
    gaussian_potential(0.7),
    cosine_potential(2.0, -0.1, 0.5),
)


def mixed_model(eps=0.1):
    """One potential per site: Gaussian and cosine sites with distinct q."""
    return GibbsModel(periodic_grid([4]), MIXED, nearest_neighbor_coupling(eps))


def two_site_model(eps, q=1.0, a=0.0, b=1.0):
    pot = cosine_potential(q, a, b) if a else gaussian_potential(q)
    return GibbsModel(periodic_grid([2]), pot, nearest_neighbor_coupling(eps))


def hamiltonian(model, x):
    """H(x) = sum_i psi_i(x_i) - sum_{i<j} J_ij x_i x_j."""
    return float(np.sum(model.psi(x)) - 0.5 * x @ model.coupling_matrix() @ x)


def test_hamiltonian_examples():
    # the grid oracle's H on the nodes' product grid: sum_i psi_i(x_i) - sum_{i<j} J_ij x_i x_j
    nodes = np.array([0.0, 1.0])
    assert _hamiltonian_grid(two_site_model(0.0), nodes)[0, 0] == 0.0
    assert _hamiltonian_grid(two_site_model(0.25), nodes)[1, 1] == pytest.approx(0.75)  # 0.5+0.5-0.25
    geom1 = periodic_grid([1])
    m1 = GibbsModel(geom1, cosine_potential(1.0, 0.1, 5.0), explicit_coupling(np.zeros((1, 1))))
    assert _hamiltonian_grid(m1, nodes)[0] == pytest.approx(0.1)  # psi(0) = 0.1 cos(0)
    m3 = GibbsModel(periodic_grid([3]), gaussian_potential(1.0), nearest_neighbor_coupling(0.25))
    assert _hamiltonian_grid(m3, nodes)[1, 1, 1] == pytest.approx(0.75)  # 1.5 - 3 * 0.25: all 3 pairs couple


def test_kappa_examples():
    m0 = two_site_model(0.0)
    assert np.all(kappa_matrix(m0) == 0.0)

    geom4 = periodic_grid([4])
    m = GibbsModel(geom4, gaussian_potential(1.0), nearest_neighbor_coupling(0.2))
    kappa = kappa_matrix(m)
    cycle = np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float
    )
    assert np.allclose(kappa, 0.2 * cycle)

    geom16 = periodic_grid([16])
    ma = GibbsModel(geom16, gaussian_potential(1.0), algebraic_coupling(1.0, 1.0, 1))
    assert kappa_matrix(ma)[0, 3] == pytest.approx(0.1)  # 1/(3^2+1)


def test_kappa_diagonal_is_positive_zero_for_every_coupling_kind():
    signed_zeros = np.array([[-0.0, 0.3, 0.0], [0.3, -0.0, -0.2], [0.0, -0.2, -0.0]])
    for coupling in (nearest_neighbor_coupling(-0.2), algebraic_coupling(1.0, 1.0, 1), explicit_coupling(signed_zeros)):
        diagonal = np.diag(kappa_matrix(GibbsModel(periodic_grid([3]), gaussian_potential(1.0), coupling)))
        assert not np.any(diagonal) and not np.any(np.signbit(diagonal)), coupling.kind


def test_kappa_dominates_mixed_hessian_at_random_points():
    rng = np.random.default_rng(1)
    geom = periodic_grid([4])
    model = GibbsModel(geom, gaussian_potential(1.0), nearest_neighbor_coupling(0.3))
    kappa = kappa_matrix(model)
    h = 1e-4
    for _ in range(10):
        x = rng.normal(size=4)
        for i in range(4):
            for j in range(i + 1, 4):
                xpp = x.copy(); xpp[i] += h; xpp[j] += h
                xpm = x.copy(); xpm[i] += h; xpm[j] -= h
                xmp = x.copy(); xmp[i] -= h; xmp[j] += h
                xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
                mixed = (
                    hamiltonian(model, xpp)
                    - hamiltonian(model, xpm)
                    - hamiltonian(model, xmp)
                    + hamiltonian(model, xmm)
                ) / (4 * h * h)
                assert abs(mixed) <= kappa[i, j] + 1e-6


def test_single_site_pi_constant_examples():
    assert single_site_pi_constant(gaussian_potential(1.0)) == pytest.approx(1.0)
    assert single_site_pi_constant(cosine_potential(1.0, 0.1, 5.0)) == pytest.approx(
        math.exp(-0.2)
    )
    assert single_site_pi_constant(cosine_potential(2.0, 0.5, 1.0)) == pytest.approx(
        2.0 * math.exp(-1.0)
    )


def test_single_site_pi_constant_rejects_bad_q():
    with pytest.raises(ValueError, match="q"):
        gaussian_potential(0.0)


@pytest.mark.parametrize(
    "q, amplitude, frequency",
    [(math.nan, 0.1, 1.0), (math.inf, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, -math.inf)],
    ids=["nan-q", "inf-q", "nan-amplitude", "inf-frequency"],
)
def test_potential_rejects_non_finite_parameters(q, amplitude, frequency):
    # q <= 0 let a NaN q through
    with pytest.raises(ValueError, match="finite"):
        cosine_potential(q, amplitude, frequency)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: nearest_neighbor_coupling(math.nan), "epsilon must be finite"),
        (lambda: nearest_neighbor_coupling(-math.inf), "epsilon must be finite"),
        (lambda: algebraic_coupling(math.inf, 1.0, 1), "finite c > 0"),
        (lambda: algebraic_coupling(0.1, math.nan, 1), "finite c > 0"),
        (lambda: algebraic_coupling(0.1, 1.0, 1.7), "integer d"),
        (lambda: algebraic_coupling(0.1, 1.0, True), "integer d"),
    ],
    ids=["nan-epsilon", "inf-epsilon", "inf-c", "nan-alpha", "fractional-d", "bool-d"],
)
def test_couplings_reject_non_finite_or_fractional_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=50)
def test_pi_constant_monotone_in_oscillation(a1, a2):
    lo, hi = sorted([a1, a2])
    r_lo = single_site_pi_constant(cosine_potential(1.0, lo / 2.0, 1.0))
    r_hi = single_site_pi_constant(cosine_potential(1.0, hi / 2.0, 1.0))
    assert r_hi <= r_lo + 1e-15
    if lo == 0.0:
        assert r_lo == 1.0


def test_cosine_osc_bound_dominates_sampled_oscillation():
    pot = cosine_potential(1.0, 0.3, 4.0)
    x = np.linspace(-20, 20, 40001)
    d = 0.3 * np.cos(4.0 * x)  # the perturbation a cos(b x)
    assert d.max() - d.min() <= pot.osc_bound + 1e-12
    assert pot.osc_bound == pytest.approx(0.6)


def test_gaussian_conditional_variance_by_quadrature():
    # spectral gap of the 1D conditional is exactly q: var(x | rest) = 1/q,
    # attained by linear functions, independent of the linear tilt
    for q, tilt in [(1.0, 0.0), (2.0, 0.7), (0.5, -1.3)]:
        x = np.linspace(-12, 12, 200001)
        w = np.exp(-(0.5 * q * x**2 - tilt * x))
        w /= w.sum()
        mean = np.sum(x * w)
        var = np.sum((x - mean) ** 2 * w)
        assert var == pytest.approx(1.0 / q, rel=1e-6)


def test_rho_vector_shared_potential():
    model = two_site_model(0.1, a=0.1, b=5.0)
    assert np.allclose(rho_vector(model), math.exp(-0.2))


def test_site_arrays_are_read_only_copies_of_the_fields():
    model = mixed_model()
    for name in ("q", "amplitude", "frequency"):
        values = getattr(model, name)
        assert not values.flags.writeable
        assert values.tolist() == [getattr(pot, name) for pot in MIXED]
    assert not model.gaussian
    assert two_site_model(0.1).gaussian
    assert not two_site_model(0.1, a=0.1).gaussian
    for zero in (0.0, -0.0):  # a cosine of amplitude 0 leaves psi quadratic, whatever its frequency
        assert GibbsModel(periodic_grid([2]), cosine_potential(1.0, zero, 5.0), nearest_neighbor_coupling(0.1)).gaussian


def test_mixed_model_psi_matches_the_per_site_formula():
    model = mixed_model()
    rng = np.random.default_rng(5)
    for x in rng.normal(scale=2.0, size=(20, 4)):
        psi = [0.5 * pot.q * xi**2 + pot.amplitude * math.cos(pot.frequency * xi) for pot, xi in zip(MIXED, x)]
        assert np.allclose(model.psi(x), psi, rtol=1e-13, atol=1e-13)


def test_coupling_matrix_is_read_only_and_not_copied():
    J = np.array([[0.0, 0.2], [0.2, 0.0]])
    model = GibbsModel(periodic_grid([2]), gaussian_potential(1.0), explicit_coupling(J))
    assert model.coupling_matrix() is model.coupling_matrix()
    with pytest.raises(ValueError, match="read-only"):
        model.coupling_matrix()[0, 1] = 5.0
    J[0, 1] = J[1, 0] = 5.0  # the caller's matrix is not the model's
    assert model.coupling_matrix()[0, 1] == 0.2


def test_algebraic_coupling_past_the_double_range_is_zero():
    # 3^801 overflows; the suite's error::RuntimeWarning turned that into a traceback
    model = GibbsModel(periodic_grid([8]), gaussian_potential(1.0), algebraic_coupling(0.1, 800.0, 1))
    J = model.coupling_matrix()
    assert J[0, 1] == 0.05 and J[0, 2] == 0.1 / (2.0**801 + 1.0) > 0.0
    assert np.all(J[0, 3:6] == 0.0)
