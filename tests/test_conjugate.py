import numpy as np
import pytest

from vekua.conjugate import (
    conjugate_from_w1,
    conjugate_from_w2,
    fit_gauge,
)
from vekua.errors import KernelMembershipError
from vekua.formal_powers import assemble_formal_powers
from vekua.grid import Grid2D, interior_max
from vekua.superpotential import make_superpotential


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
    assert res.gauge_constant == 0.0
    assert res.vekua_residual <= 10 * H2


def test_harmonic_conjugate_reverse(grid, zero_sp):
    x, y = grid.meshes()
    res = conjugate_from_w2(zero_sp, y)
    assert np.max(np.abs(res.partner - x)) <= 10 * H2


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
