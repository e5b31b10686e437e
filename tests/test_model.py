import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.lattice import periodic_grid
from gibbscert.model import (
    GibbsModel,
    SingleSitePotential,
    algebraic_coupling,
    cosine_potential,
    explicit_coupling,
    gaussian_potential,
    grad_hamiltonian,
    hamiltonian,
    kappa_matrix,
    nearest_neighbor_coupling,
    rho_vector,
    single_site_pi_constant,
)


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


def test_hamiltonian_examples():
    m0 = two_site_model(0.0)
    assert hamiltonian(m0, [0.0, 0.0]) == 0.0
    m = two_site_model(0.25)
    assert hamiltonian(m, [1.0, 1.0]) == pytest.approx(0.75)  # 0.5+0.5-0.25
    geom1 = periodic_grid([1])
    m1 = GibbsModel(geom1, cosine_potential(1.0, 0.1, 5.0), explicit_coupling(np.zeros((1, 1))))
    assert hamiltonian(m1, [0.0]) == pytest.approx(0.1)  # psi(0) = 0.1 cos(0)


def test_hamiltonian_length_mismatch():
    m = two_site_model(0.1)
    with pytest.raises(ValueError, match="length"):
        hamiltonian(m, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="length"):
        grad_hamiltonian(m, [0.0])


def test_grad_examples():
    m0 = two_site_model(0.0)
    assert np.allclose(grad_hamiltonian(m0, [0.0, 0.0]), [0.0, 0.0])
    m = two_site_model(0.25)
    assert np.allclose(grad_hamiltonian(m, [1.0, 1.0]), [0.75, 0.75])


def _fd_grad(model, x, h=1e-5):
    g = np.zeros(len(x))
    for i in range(len(x)):
        xp, xm = np.array(x, float), np.array(x, float)
        xp[i] += h
        xm[i] -= h
        g[i] = (hamiltonian(model, xp) - hamiltonian(model, xm)) / (2 * h)
    return g


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    geom = periodic_grid([4])
    model = GibbsModel(geom, cosine_potential(1.3, 0.2, 3.0), nearest_neighbor_coupling(0.15))
    for _ in range(100):
        x = rng.normal(size=4)
        g = grad_hamiltonian(model, x)
        fd = _fd_grad(model, x)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


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
    d = pot.delta(x)
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


def test_mixed_model_hamiltonian_matches_per_site_sums():
    model = mixed_model()
    J = model.coupling_matrix()
    rng = np.random.default_rng(5)
    for x in rng.normal(scale=2.0, size=(20, 4)):
        psi = sum(float(pot.value(xi)) for pot, xi in zip(MIXED, x))
        assert hamiltonian(model, x) == pytest.approx(psi - 0.5 * x @ J @ x, rel=1e-13, abs=1e-13)
        grad = np.array([float(pot.grad(xi)) for pot, xi in zip(MIXED, x)]) - J @ x
        assert np.allclose(grad_hamiltonian(model, x), grad, rtol=1e-13, atol=1e-13)


def test_unknown_perturbation_and_stray_none_parameters_rejected():
    with pytest.raises(ValueError, match="unknown perturbation"):
        SingleSitePotential(q=1.0, perturbation="custom")
    with pytest.raises(ValueError, match="'none'"):
        SingleSitePotential(q=1.0, amplitude=0.1)
    with pytest.raises(ValueError, match="'none'"):
        SingleSitePotential(q=1.0, frequency=2.0)
