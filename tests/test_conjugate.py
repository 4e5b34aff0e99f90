import numpy as np
import pytest

from vekua.conjugate import (
    conjugate_from_w1,
    conjugate_from_w2,
    fit_gauge,
)
from vekua.errors import KernelMembershipError
from vekua.formal_powers import assemble_formal_powers
from vekua.grid import Grid1D, Grid2D, interior_max
from vekua.superpotential import Superpotential, make_superpotential


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def zero_sp(grid):
    return make_superpotential("zero", (), grid)


@pytest.fixture(scope="module")
def quad(grid):
    return make_superpotential("quadratic", (1.0, 1.0), grid)


H2 = 1e-4


# ----------------------------------------------------- conjugate construction

def test_harmonic_conjugate_zero_chi(grid, zero_sp):
    x, y = grid.meshes()
    res = conjugate_from_w1(zero_sp, x)
    assert np.max(np.abs(res.partner - y)) <= 10 * H2
    assert res.partner[grid.center] == 0.0  # the gauge
    assert res.vekua_residual <= 10 * H2


def test_harmonic_conjugate_reverse(grid, zero_sp):
    x, y = grid.meshes()
    res = conjugate_from_w2(zero_sp, y)
    assert np.max(np.abs(res.partner - x)) <= 10 * H2
    assert res.partner[grid.center] == 0.0


@pytest.mark.parametrize("family, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                            ("quadratic", (1.0, -0.5))])
@pytest.mark.parametrize("nodes, half_widths", [((61, 61), (1.0, 1.0)),
                                                ((121, 59), (1.0, 0.5))])
def test_the_two_directions_are_one_construction_under_chi_to_minus_chi(family, params,
                                                                        nodes, half_widths):
    grid = Grid2D(Grid1D(half_widths[0], nodes[0]), Grid1D(half_widths[1], nodes[1]))
    sp = make_superpotential(family, params, grid)
    flipped = Superpotential(sp.ax.flipped(), sp.ay.flipped())
    w2 = np.imag(assemble_formal_powers(sp, 2).power(2, 1.0))  # in ker h0 of sp
    backward = conjugate_from_w2(sp, w2).partner
    forward = conjugate_from_w1(flipped, w2).partner
    assert backward.tobytes() == (-forward).tobytes()


# hx = 2 hy on 61 x 61 nodes, so a leg integrated with the other axis's step
# keeps its shape and shows in the values; 121 x 59 has hx < hy
@pytest.mark.parametrize("nodes", [(61, 61), (121, 59)])
def test_conjugates_on_a_grid_with_unequal_steps(nodes):
    grid = Grid2D(Grid1D(1.0, nodes[0]), Grid1D(0.5, nodes[1]))
    h2 = grid.hmax**2
    x, y = grid.meshes()
    zero = make_superpotential("zero", (), grid)
    for res, want in ((conjugate_from_w1(zero, x), y), (conjugate_from_w2(zero, y), x)):
        assert np.max(np.abs(res.partner - want)) <= 1e-12
        assert res.partner[grid.center] == 0.0
    quad = make_superpotential("quadratic", (1.0, -0.5), grid)
    w = assemble_formal_powers(quad, 2).power(2, 1.0)
    for res, want, kernel in ((conjugate_from_w1(quad, np.real(w)), np.imag(w), 0),
                              (conjugate_from_w2(quad, np.imag(w)), np.real(w), 2)):
        assert res.partner[grid.center] == 0.0
        _, resid = fit_gauge(quad, res.partner, want, kernel=kernel)
        assert resid <= 50 * h2
        assert res.vekua_residual <= 50 * h2


def test_exp_chi_maps_to_zero_partner(grid, quad):
    res = conjugate_from_w1(quad, quad.exp_chi(1.0))
    assert np.max(np.abs(res.partner)) <= 10 * H2


def test_exp_minus_chi_maps_to_zero_partner(grid, quad):
    res = conjugate_from_w2(quad, quad.exp_chi(-1.0))
    assert np.max(np.abs(res.partner)) <= 10 * H2


def test_formal_power_conjugate(grid, quad):
    table = assemble_formal_powers(quad, 2)
    w = table.power(1, 1.0)
    res = conjugate_from_w1(quad, np.real(w))
    c, resid = fit_gauge(quad, res.partner, np.imag(w), kernel=0)
    assert resid <= 50 * H2


def test_formal_power_conjugate_reverse(grid, quad):
    table = assemble_formal_powers(quad, 2)
    w = table.power(2, 1j)
    res = conjugate_from_w2(quad, np.imag(w))
    c, resid = fit_gauge(quad, res.partner, np.real(w), kernel=2)
    assert resid <= 50 * H2


def test_round_trip_up_to_gauge(grid, quad):
    table = assemble_formal_powers(quad, 2)
    w1 = np.real(table.power(1, 1.0))
    first = conjugate_from_w1(quad, w1)
    second = conjugate_from_w2(quad, first.partner)
    c, resid = fit_gauge(quad, second.partner, w1, kernel=2)
    assert resid <= 100 * H2


def test_gauge_freedom_leaves_kernel(grid, quad):
    from vekua.operators import h0

    table = assemble_formal_powers(quad, 1)
    w2 = np.imag(table.power(1, 1.0))
    shifted = w2 + 0.37 * quad.exp_chi(-1.0)
    before = interior_max(h0(quad, w2), margin=2)
    after = interior_max(h0(quad, shifted), margin=2)
    assert abs(after - before) <= 1e-3 + 0.1 * before


def test_kernel_precondition_enforced(grid, quad):
    x, y = grid.meshes()
    junk = np.sin(5 * x) * np.cosh(3 * y)
    with pytest.raises(KernelMembershipError):
        conjugate_from_w1(quad, junk)


def test_vekua_residual_of_combined_solution(grid, quad):
    table = assemble_formal_powers(quad, 2)
    w1 = np.real(table.power(1, 1.0))
    res = conjugate_from_w1(quad, w1)
    assert res.vekua_residual <= 50 * H2
