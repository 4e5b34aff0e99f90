import numpy as np
import pytest

from vekua.errors import DegeneratePairError
from vekua.grid import Grid2D, interior_max
from vekua.superpotential import (
    characteristic_coefficients,
    generating_pair,
    make_superpotential,
    riccati_residual,
)


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def quad(grid):
    return make_superpotential("quadratic", (1.0, 1.0), grid)


def test_zero_family(grid):
    sp = make_superpotential("zero", (), grid)
    assert np.all(sp.chi2d() == 0)
    assert np.all(sp.u0() == 0)
    assert np.all(sp.u2() == 0)
    p11, p22 = sp.matrix_potential()
    assert np.all(p11 == 0) and np.all(p22 == 0)


def test_quadratic_family_symbolic(grid, quad):
    x, y = grid.meshes()
    np.testing.assert_allclose(quad.chi2d(), (x**2 + y**2) / 2, atol=1e-14)
    np.testing.assert_allclose(quad.u0(), x**2 + y**2 - 2.0, atol=1e-13)
    np.testing.assert_allclose(quad.u2(), x**2 + y**2 + 2.0, atol=1e-13)


def test_linear_family_hand_derivative(grid):
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    x, _ = grid.meshes()
    np.testing.assert_allclose(sp.chi2d(), x, atol=1e-14)
    # q1 = (chi1')^2 + chi1'' = 1
    np.testing.assert_allclose(sp.ax.q, np.ones(grid.gx.n), atol=1e-14)
    np.testing.assert_allclose(sp.u0(), np.ones(grid.shape), atol=1e-14)
    np.testing.assert_allclose(sp.u2(), np.ones(grid.shape), atol=1e-14)


def test_unknown_family(grid):
    with pytest.raises(ValueError, match="unknown superpotential family"):
        make_superpotential("cubic", (1.0,), grid)


def test_param_arity(grid):
    with pytest.raises(ValueError):
        make_superpotential("quadratic", (1.0,), grid)
    with pytest.raises(ValueError):
        make_superpotential("zero", (1.0,), grid)


def test_tabulated_roundtrip(grid):
    chi1 = np.sinh(grid.gx.nodes) * 0.3
    chi2 = 0.2 * grid.gy.nodes**2
    sp = make_superpotential("tabulated", (), grid, chi1_table=chi1, chi2_table=chi2)
    np.testing.assert_allclose(sp.ax.dchi, 0.3 * np.cosh(grid.gx.nodes), atol=5e-5)
    # interpolation callbacks work off the nodes
    mid = grid.gx.nodes[:-1] + grid.gx.h / 2
    assert np.max(np.abs(sp.ax.chi_at(mid) - 0.3 * np.sinh(mid))) <= 5e-5


def test_tabulated_rejects_nonzero_origin(grid):
    chi1 = np.full(grid.gx.n, 0.5)
    with pytest.raises(ValueError, match="vanish"):
        make_superpotential("tabulated", (), grid, chi1_table=chi1, chi2_table=np.zeros(grid.gy.n))


def test_u0_of_flipped_chi_is_u2(grid, quad):
    flipped = make_superpotential("quadratic", (-1.0, -1.0), grid)
    np.testing.assert_array_equal(flipped.u0(), quad.u2())


def test_generating_pair_nondegenerate(grid, quad):
    f, g = generating_pair(quad, 0)
    assert np.min(np.abs(np.imag(np.conj(f) * g))) > 0
    np.testing.assert_allclose(f, quad.exp_chi(1.0), atol=0)
    np.testing.assert_allclose(g, 1j * quad.exp_chi(-1.0), atol=0)


def test_characteristic_coefficients_main_pair(grid, quad):
    f, g = generating_pair(quad, 0)
    a, b, big_a, big_b = characteristic_coefficients(grid, f, g)
    h2 = grid.hmax**2
    assert interior_max(a) <= 20 * h2
    assert interior_max(big_a) <= 20 * h2
    assert interior_max(b - quad.dzbar_chi()) <= 20 * h2
    assert interior_max(big_b - quad.dz_chi()) <= 20 * h2


def test_characteristic_coefficients_analytic_pair(grid):
    ones = np.ones(grid.shape, dtype=complex)
    a, b, big_a, big_b = characteristic_coefficients(grid, ones, 1j * ones)
    for coeff in (a, b, big_a, big_b):
        assert np.max(np.abs(coeff)) <= 1e-14


def test_characteristic_coefficients_successor_by_flip(grid, quad):
    # the successor pair is the main pair of chi1 -> -chi1
    f1, g1 = generating_pair(quad, 1)
    _, b1, _, _ = characteristic_coefficients(grid, f1, g1)
    flipped = make_superpotential("quadratic", (-1.0, 1.0), grid)
    assert interior_max(b1 - flipped.dzbar_chi()) <= 20 * grid.hmax**2


def test_successor_relation(grid, quad):
    # coefficients of the successor satisfy a1 = a and b1 = -B of the main pair
    f0, g0 = generating_pair(quad, 0)
    f1, g1 = generating_pair(quad, 1)
    a0, _, _, big_b0 = characteristic_coefficients(grid, f0, g0)
    a1, b1, _, _ = characteristic_coefficients(grid, f1, g1)
    h2 = grid.hmax**2
    assert interior_max(a1 - a0) <= 20 * h2
    assert interior_max(b1 + big_b0) <= 20 * h2


def test_period_two_exact(grid, quad):
    f0, g0 = generating_pair(quad, 0)
    f2, g2 = generating_pair(quad, 2)
    np.testing.assert_array_equal(f0, f2)
    np.testing.assert_array_equal(g0, g2)
    c0 = characteristic_coefficients(grid, f0, g0)
    c2 = characteristic_coefficients(grid, f2, g2)
    for u, v in zip(c0, c2):
        np.testing.assert_array_equal(u, v)


def test_degenerate_pair_names_node(grid):
    f = np.ones(grid.shape, dtype=complex)
    g = np.ones(grid.shape, dtype=complex)  # Im(conj(F)G) = 0 everywhere
    with pytest.raises(DegeneratePairError, match="node"):
        characteristic_coefficients(grid, f, g)


@pytest.mark.parametrize("which", [0, 2])
def test_riccati_residual_zero_chi(grid, which):
    sp = make_superpotential("zero", (), grid)
    assert np.max(np.abs(riccati_residual(sp, which))) == 0.0


def test_riccati_residual_quadratic(grid, quad):
    assert interior_max(riccati_residual(quad, 0)) <= 1e-3


def test_riccati_residual_linear(grid):
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    assert interior_max(riccati_residual(sp, 2)) <= 1e-3


def test_riccati_residual_order_for_analytic_profile():
    # catalog families make the residual vanish identically (polynomial
    # derivatives differentiate exactly); a sinh profile with analytic
    # callbacks shows the honest O(h^2) of the d_zbar stencil
    from vekua.superpotential import AxisProfile, Superpotential

    def build(n):
        g = Grid2D.square(1.0, n)
        x = g.gx.nodes
        ax = AxisProfile(
            g.gx,
            0.3 * np.sinh(x),
            0.3 * np.cosh(x),
            0.3 * np.sinh(x),
            lambda s: 0.3 * np.sinh(s),
            lambda s: 0.3 * np.cosh(s),
            lambda s: 0.3 * np.sinh(s),
        )
        y = g.gy.nodes
        ay = AxisProfile(g.gy, np.zeros_like(y), np.zeros_like(y), np.zeros_like(y))
        sp = Superpotential("custom", (), g, ax, ay)
        return interior_max(riccati_residual(sp, 0), margin=2)

    coarse, fine = build(101), build(201)
    assert coarse / fine == pytest.approx(4.0, abs=0.6)
