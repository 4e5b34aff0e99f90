import numpy as np
import pytest

import vekua.operators as ops
from vekua.formal_powers import (
    FormalPowerTable,
    assemble_formal_powers,
    build_aux_system,
    fg_integral,
)
from vekua.grid import Grid2D, interior_max
from vekua.superpotential import generating_pair, make_superpotential


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def zero_sp(grid):
    return make_superpotential("zero", (), grid)


@pytest.fixture(scope="module")
def quad(grid):
    return make_superpotential("quadratic", (1.0, 1.0), grid)


@pytest.fixture(scope="module")
def table_zero(zero_sp):
    return assemble_formal_powers(zero_sp, 6)


@pytest.fixture(scope="module")
def table_quad(quad):
    return assemble_formal_powers(quad, 6)


H2 = 1e-4


# ------------------------------------------------------------- aux system

def test_aux_zero_chi_gives_plain_powers(zero_sp):
    aux = build_aux_system(zero_sp, 5)
    x = zero_sp.grid.gx.nodes
    y = zero_sp.grid.gy.nodes
    for k in range(6):
        # leading trapezoid error of the iterated integrals is ~k^2/2 * h^2
        tol = max(1e-12, k**2 * 1e-4)
        np.testing.assert_allclose(aux.phi[k], x**k, atol=tol)
        np.testing.assert_allclose(aux.phi_t[k], x**k, atol=tol)
        np.testing.assert_allclose(aux.psi[k], y**k, atol=tol)
        np.testing.assert_allclose(aux.psi_t[k], y**k, atol=tol)


def test_aux_linear_chi_sinh_oracle(grid):
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    aux = build_aux_system(sp, 2)
    x = grid.gx.nodes
    # first weighted integral has the closed form (1 - exp(-2x)) / 2
    np.testing.assert_allclose(aux.x_pow[1], (1.0 - np.exp(-2.0 * x)) / 2.0, atol=2e-4)
    np.testing.assert_allclose(aux.phi[1], np.sinh(x), atol=2e-4)
    # value at the right endpoint against the frozen closed form
    assert aux.x_pow[1][-1] == pytest.approx(0.43233235838169365, abs=1e-4)


def test_aux_vanishes_at_origin(quad):
    aux = build_aux_system(quad, 6)
    c = quad.grid.gx.center
    for n in range(1, 7):
        assert aux.x_pow[n][c] == 0.0
        assert aux.x_pow_t[n][c] == 0.0


def test_aux_level_zero_is_one(quad):
    aux = build_aux_system(quad, 3)
    assert np.all(aux.x_pow[0] == 1.0)
    assert np.all(aux.y_pow_t[0] == 1.0)


# ------------------------------------------------------------- assembly

def test_degree_zero_rows_are_generating_pairs(quad, table_quad):
    f0, g0 = generating_pair(quad, 0)
    f1, g1 = generating_pair(quad, 1)
    np.testing.assert_array_equal(table_quad.z_one[0], f0)
    np.testing.assert_array_equal(table_quad.z_i[0], g0)
    np.testing.assert_array_equal(table_quad.z1_one[0], f1)
    np.testing.assert_array_equal(table_quad.z1_i[0], g1)


def test_zero_chi_powers_match_plain_powers(grid, table_zero):
    z = grid.zmesh()
    for n in range(7):
        assert np.max(np.abs(table_zero.power(n, 1.0) - z**n)) <= 5e-3
        assert np.max(np.abs(table_zero.power(n, 1j) - 1j * z**n)) <= 5e-3
        assert np.max(np.abs(table_zero.power_succ(n, 1.0) - z**n)) <= 5e-3


def test_power_linearity_rule(grid, table_zero):
    z = grid.zmesh()
    got = table_zero.power(3, 1.0 + 1.0j)
    assert np.max(np.abs(got - (1 + 1j) * z**3)) <= 1e-2


def test_power_coefficient_slots(table_quad):
    np.testing.assert_array_equal(table_quad.power(2, 1.0), table_quad.z_one[2])
    np.testing.assert_array_equal(table_quad.power(2, 1j), table_quad.z_i[2])


def test_power_out_of_range(table_quad):
    with pytest.raises(ValueError):
        table_quad.power(7, 1.0)


def test_asymptotics_near_origin(quad, table_quad):
    # |Z^n(a; z) - a z^n| = O(|z|^(n+1)) near the origin; the measurement
    # floor is the h^2-per-unit-path-length quadrature error of the table
    grid = quad.grid
    i0, j0 = grid.center
    z = grid.zmesh()
    h2 = grid.hmax**2
    window = (slice(i0 - 10, i0 + 11), slice(j0 - 10, j0 + 11))
    for n in range(5):
        gap = np.abs(table_quad.power(n, 1.0) - z**n)[window]
        envelope = 5.0 * np.abs(z[window]) ** (n + 1) + 20.0 * h2 * np.abs(z[window])
        assert np.all(gap <= envelope + 1e-12)


def test_vekua_residual_of_powers(quad, table_quad):
    for n in range(6):
        for a in (1.0, 1j):
            assert interior_max(ops.vekua_v(quad, table_quad.power(n, a)), margin=2) <= 100 * H2
            assert (
                interior_max(ops.vekua_v1(quad, table_quad.power_succ(n, a)), margin=2)
                <= 100 * H2
            )


def test_differential_relation(quad, table_quad):
    # pair derivative of Z^n equals n * Z1^(n-1)
    for n in range(1, 6):
        for a in (1.0, 1j):
            got = ops.vekua_vbar(quad, table_quad.power(n, a))
            want = n * table_quad.power_succ(n - 1, a)
            assert interior_max(got - want, margin=2) <= 200 * H2


def test_ground_states_from_powers(quad, table_quad):
    for n in range(5):
        for a in (1.0, 1j):
            h_pair = ops.h_diag(quad, ops.project(table_quad.power(n, a)))
            assert interior_max(h_pair[0], margin=2) <= 200 * H2
            assert interior_max(h_pair[1], margin=2) <= 200 * H2
    for n in range(1, 5):
        deriv = n * table_quad.power_succ(n - 1, 1.0)
        h1_pair = ops.h1(quad, ops.project(deriv))
        assert interior_max(h1_pair[0], margin=2) <= 200 * H2
        assert interior_max(h1_pair[1], margin=2) <= 200 * H2


# ------------------------------------------------------------ pair integral

def test_fg_integral_of_one_zero_chi(grid, zero_sp):
    z = grid.zmesh()
    out = fg_integral(zero_sp, 0, np.ones(grid.shape, dtype=complex))
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_fg_integral_antiderivative_property(quad, table_quad):
    # integrating the pair derivative of Z^n recovers Z^n (its origin value is 0)
    for n in (1, 2, 3):
        deriv = n * table_quad.power_succ(n - 1, 1.0)
        rebuilt = fg_integral(quad, 0, deriv)
        assert np.max(np.abs(rebuilt - table_quad.power(n, 1.0))) <= 30 * H2


def test_fg_integral_recursion_step(quad, table_quad):
    rebuilt = fg_integral(quad, 0, table_quad.power_succ(0, 1.0))
    assert np.max(np.abs(rebuilt - table_quad.power(1, 1.0))) <= 30 * H2


# ------------------------------------------------------------- recursion

def recursive_formal_powers(sp, n_max):
    """Oracle: the same table by recursive pair integration.

    Degree zero starts from the generating pairs themselves; each next degree
    integrates the opposite family with the alternating pair integral, so it
    exercises fg_integral instead of the 1-D systems of the explicit assembly.
    """
    shape = (n_max + 1,) + sp.grid.shape
    z_one, z_i, z1_one, z1_i = (np.empty(shape, dtype=complex) for _ in range(4))
    z_one[0], z_i[0] = generating_pair(sp, 0)
    z1_one[0], z1_i[0] = generating_pair(sp, 1)
    for n in range(n_max):
        z_one[n + 1] = (n + 1) * fg_integral(sp, 0, z1_one[n])
        z_i[n + 1] = (n + 1) * fg_integral(sp, 0, z1_i[n])
        z1_one[n + 1] = (n + 1) * fg_integral(sp, 1, z_one[n])
        z1_i[n + 1] = (n + 1) * fg_integral(sp, 1, z_i[n])
    return FormalPowerTable(sp, z_one, z_i, z1_one, z1_i)


def test_recursive_matches_explicit(quad, table_quad):
    rec = recursive_formal_powers(quad, 4)
    for n in range(5):
        for a in (1.0, 1j):
            gap = np.max(np.abs(rec.power(n, a) - table_quad.power(n, a)))
            assert gap <= 20 * H2
            gap1 = np.max(np.abs(rec.power_succ(n, a) - table_quad.power_succ(n, a)))
            assert gap1 <= 20 * H2


def test_recursive_degree_zero_exact(quad):
    rec = recursive_formal_powers(quad, 0)
    f0, g0 = generating_pair(quad, 0)
    np.testing.assert_array_equal(rec.z_one[0], f0)
    np.testing.assert_array_equal(rec.z_i[0], g0)


def test_recursive_zero_chi_analytic_limit(grid, zero_sp):
    rec = recursive_formal_powers(zero_sp, 4)
    z = grid.zmesh()
    for n in range(5):
        assert np.max(np.abs(rec.power(n, 1.0) - z**n)) <= 5e-3


def test_explicit_assembly_convergence():
    # quadrature error of the n = 6 analytic-limit case shrinks ~4x per halving
    def gap(n_nodes):
        g = Grid2D.square(1.0, n_nodes)
        sp = make_superpotential("zero", (), g)
        table = assemble_formal_powers(sp, 6)
        z = g.zmesh()
        return np.max(np.abs(table.power(6, 1.0) - z**6))

    assert 3.5 <= gap(201) / gap(401) <= 4.5


def test_period_one_degeneracy_when_chi1_vanishes(grid):
    # chi1 = 0 collapses the sequence: successor table equals the main table
    sp = make_superpotential("quadratic", (0.0, 1.0), grid)
    table = assemble_formal_powers(sp, 4)
    for n in range(5):
        np.testing.assert_allclose(table.z1_one[n], table.z_one[n], atol=1e-12)
        np.testing.assert_allclose(table.z1_i[n], table.z_i[n], atol=1e-12)


def test_power_stacks_are_read_only(table_quad):
    # the fit designs memoized on the table are built from these stacks
    for stack in (table_quad.z_one, table_quad.z_i, table_quad.z1_one, table_quad.z1_i):
        with pytest.raises(ValueError):
            stack[1, 0, 0] = 0.0
