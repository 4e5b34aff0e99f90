import tracemalloc
from math import comb

import numpy as np
import pytest

import vekua.operators as ops
from vekua.formal_powers import (
    assemble_formal_powers,
    build_aux_system,
    fg_integral,
)
from vekua.grid import Grid1D, Grid2D, interior, interior_max
from vekua.superpotential import Superpotential, generating_pair, make_superpotential


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


@pytest.fixture(scope="module")
def succ_quad(table_quad):
    return table_quad.successor()


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
    # chi1 = x: phi_1 = e^x int_0^x e^-2s = sinh x, and its flip gives the same
    np.testing.assert_allclose(aux.phi[1], np.sinh(x), atol=2e-4)
    np.testing.assert_allclose(aux.phi_t[1], np.sinh(x), atol=2e-4)
    # degree 2 takes the opposite alternation: x e^x - sinh x and sinh x - x e^-x
    np.testing.assert_allclose(aux.phi[2], x * np.exp(x) - np.sinh(x), atol=2e-4)
    np.testing.assert_allclose(aux.phi_t[2], np.sinh(x) - x * np.exp(-x), atol=2e-4)
    # value at the right endpoint against the frozen closed form sinh(1)
    assert aux.phi[1][-1] == pytest.approx(1.1752011936438014, abs=1e-4)


def test_aux_vanishes_at_origin(quad):
    aux = build_aux_system(quad, 6)
    c = quad.grid.gx.center
    for n in range(1, 7):
        for system in (aux.phi, aux.phi_t, aux.psi, aux.psi_t):
            assert system[n][c] == 0.0


def test_aux_level_zero_is_one(quad):
    # the iterated integrals start at one, so level zero is e^chi (e^-chi for tilde)
    aux = build_aux_system(quad, 3)
    assert np.array_equal(aux.phi[0], np.exp(quad.ax.chi))
    assert np.array_equal(aux.phi_t[0], np.exp(-quad.ax.chi))
    assert np.array_equal(aux.psi[0], np.exp(quad.ay.chi))
    assert np.array_equal(aux.psi_t[0], np.exp(-quad.ay.chi))


# the zero family, the corners of the parameter lattice (-1, -0.5, 0.5, 1) for
# linear and quadratic, and a tabulated profile with a cubic term
_CORNERS = [(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]


@pytest.mark.parametrize(
    "name, params",
    [("zero", ())] + [("linear", p) for p in _CORNERS] + [("quadratic", p) for p in _CORNERS]
    + [("tabulated", ())],
)
def test_aux_tilde_systems_are_the_systems_of_the_flipped_profiles(name, params):
    grid = Grid2D.square(1.0, 61)
    x = grid.gx.nodes
    tables = ({"chi1_table": 0.5 * x + 0.3 * x**3, "chi2_table": np.sin(x) - x**2}
              if name == "tabulated" else {})
    sp = make_superpotential(name, params, grid, **tables)
    aux = build_aux_system(sp, 8)
    flipped = build_aux_system(Superpotential(sp.ax.flipped(), sp.ay.flipped()), 8)
    assert aux.phi_t.tobytes() == flipped.phi.tobytes()
    assert aux.psi_t.tobytes() == flipped.psi.tobytes()


# ------------------------------------------------------------- assembly

def test_degree_zero_rows_are_generating_pairs(quad, table_quad, succ_quad):
    f0, g0 = generating_pair(quad)
    np.testing.assert_array_equal(table_quad.z_one[0], f0)
    np.testing.assert_array_equal(table_quad.z_i[0], g0)
    # the successor's first pair is the second pair of the period-two sequence
    f1, g1 = generating_pair(quad.successor())
    np.testing.assert_array_equal(f1, quad.exp_chi(-1.0, 1.0))
    np.testing.assert_array_equal(g1, 1j * quad.exp_chi(1.0, -1.0))
    np.testing.assert_array_equal(succ_quad.z_one[0], f1)
    np.testing.assert_array_equal(succ_quad.z_i[0], g1)


def test_zero_chi_powers_match_plain_powers(grid, table_zero):
    z = grid.zmesh()
    succ = table_zero.successor()
    for n in range(7):
        assert np.max(np.abs(table_zero.power(n, 1.0) - z**n)) <= 5e-3
        assert np.max(np.abs(table_zero.power(n, 1j) - 1j * z**n)) <= 5e-3
        assert np.max(np.abs(succ.power(n, 1.0) - z**n)) <= 5e-3


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


def test_vekua_residual_of_powers(quad, table_quad, succ_quad):
    for n in range(6):
        for a in (1.0, 1j):
            assert interior_max(ops.vekua_v(quad, table_quad.power(n, a)), margin=2) <= 100 * H2
            assert interior_max(ops.vekua_v1(quad, succ_quad.power(n, a)), margin=2) <= 100 * H2


def test_differential_relation(quad, table_quad, succ_quad):
    # pair derivative of Z^n equals n * Z1^(n-1)
    for n in range(1, 6):
        for a in (1.0, 1j):
            got = ops.vekua_vbar(quad, table_quad.power(n, a))
            want = n * succ_quad.power(n - 1, a)
            assert interior_max(got - want, margin=2) <= 200 * H2


def test_ground_states_from_powers(quad, table_quad, succ_quad):
    for n in range(5):
        for a in (1.0, 1j):
            h_pair = ops.h_diag(quad, ops.project(table_quad.power(n, a)))
            assert interior_max(h_pair[0], margin=2) <= 200 * H2
            assert interior_max(h_pair[1], margin=2) <= 200 * H2
    for n in range(1, 5):
        deriv = n * succ_quad.power(n - 1, 1.0)
        h1_pair = ops.h1(quad, ops.project(deriv))
        assert interior_max(h1_pair[0], margin=2) <= 200 * H2
        assert interior_max(h1_pair[1], margin=2) <= 200 * H2


# ------------------------------------------------------------ pair integral

def test_fg_integral_of_one_zero_chi(grid, zero_sp):
    z = grid.zmesh()
    out = fg_integral(zero_sp, np.ones(grid.shape, dtype=complex))
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_fg_integral_antiderivative_property(quad, table_quad, succ_quad):
    # integrating the pair derivative of Z^n recovers Z^n (its origin value is 0)
    for n in (1, 2, 3):
        deriv = n * succ_quad.power(n - 1, 1.0)
        rebuilt = fg_integral(quad, deriv)
        assert np.max(np.abs(rebuilt - table_quad.power(n, 1.0))) <= 30 * H2


def test_fg_integral_recursion_step(quad, table_quad, succ_quad):
    rebuilt = fg_integral(quad, succ_quad.power(0, 1.0))
    assert np.max(np.abs(rebuilt - table_quad.power(1, 1.0))) <= 30 * H2


# ------------------------------------------------------------- recursion

def recursive_formal_powers(sp, n_max):
    """Oracle: the stacks (z_one, z_i, z1_one, z1_i) by recursive pair integration.

    Degree zero starts from the generating pairs of ``sp`` and of its
    successor; each next degree integrates the opposite family with the pair
    integral of the other superpotential, so it exercises fg_integral instead
    of the 1-D systems of the explicit assembly.
    """
    shape = (n_max + 1,) + sp.grid.shape
    z_one, z_i, z1_one, z1_i = (np.empty(shape, dtype=complex) for _ in range(4))
    succ = sp.successor()
    z_one[0], z_i[0] = generating_pair(sp)
    z1_one[0], z1_i[0] = generating_pair(succ)
    for n in range(n_max):
        z_one[n + 1] = (n + 1) * fg_integral(sp, z1_one[n])
        z_i[n + 1] = (n + 1) * fg_integral(sp, z1_i[n])
        z1_one[n + 1] = (n + 1) * fg_integral(succ, z_one[n])
        z1_i[n + 1] = (n + 1) * fg_integral(succ, z_i[n])
    return z_one, z_i, z1_one, z1_i


def _combine(z_one, z_i, n, a):
    """a1 Z^n(1) + a2 Z^n(i) for a = a1 + i a2, the rule of FormalPowerTable.power."""
    a = complex(a)
    return a.real * z_one[n] + a.imag * z_i[n]


def test_recursive_matches_explicit(quad, table_quad, succ_quad):
    z_one, z_i, z1_one, z1_i = recursive_formal_powers(quad, 4)
    for n in range(5):
        for a in (1.0, 1j):
            gap = np.max(np.abs(_combine(z_one, z_i, n, a) - table_quad.power(n, a)))
            assert gap <= 20 * H2
            gap1 = np.max(np.abs(_combine(z1_one, z1_i, n, a) - succ_quad.power(n, a)))
            assert gap1 <= 20 * H2


def test_recursive_degree_zero_exact(quad):
    z_one, z_i, _, _ = recursive_formal_powers(quad, 0)
    f0, g0 = generating_pair(quad)
    np.testing.assert_array_equal(z_one[0], f0)
    np.testing.assert_array_equal(z_i[0], g0)


def test_recursive_zero_chi_analytic_limit(grid, zero_sp):
    z_one, z_i, _, _ = recursive_formal_powers(zero_sp, 4)
    z = grid.zmesh()
    for n in range(5):
        assert np.max(np.abs(_combine(z_one, z_i, n, 1.0) - z**n)) <= 5e-3


def test_explicit_assembly_convergence():
    # quadrature error of the n = 6 analytic-limit case shrinks ~4x per halving
    def gap(n_nodes):
        g = Grid2D.square(1.0, n_nodes)
        sp = make_superpotential("zero", (), g)
        table = assemble_formal_powers(sp, 6)
        z = g.zmesh()
        return np.max(np.abs(table.power(6, 1.0) - z**6))

    assert 3.5 <= gap(201) / gap(401) <= 4.5


@pytest.mark.parametrize("name, params",
                         [("quadratic", (0.0, 1.0)), ("linear", (0.0, -0.7)), ("zero", ())])
def test_period_one_degeneracy_when_chi1_vanishes(grid, name, params):
    # chi1 = 0 collapses the sequence: the successor table equals the main
    # table byte for byte
    table = assemble_formal_powers(make_superpotential(name, params, grid), 4)
    succ = table.successor()
    for n in range(5):
        assert succ.z_one[n].tobytes() == table.z_one[n].tobytes()
        assert succ.z_i[n].tobytes() == table.z_i[n].tobytes()


def test_power_stacks_are_read_only(table_quad, succ_quad):
    # the fit designs memoized on the table are built from these powers
    for stack in (table_quad.z_one, table_quad.z_i, succ_quad.z_one, succ_quad.z_i):
        for n in range(7):
            with pytest.raises(ValueError):
                stack[n][0, 0] = 0.0


def _complex_binomial_sum(n, even_pair, odd_pair, extra_i=False):
    """Oracle: the binomial sum as complex terms added to a zero-started complex
    sum, as every table was assembled before the split real sums."""
    fx_even, fy_even = even_pair
    fx_odd, fy_odd = odd_pair
    total = np.zeros((fx_even.shape[1], fy_even.shape[1]), dtype=complex)
    for j in range(n + 1):
        unit = 1j ** (j + 1) if extra_i else 1j**j
        if j % 2 == 0:
            term = np.outer(fx_even[n - j], fy_even[j])
        else:
            term = np.outer(fx_odd[n - j], fy_odd[j])
        total += comb(n, j) * unit * term
    return total


def _oracle_stacks(aux, n_max):
    """(z_one, z_i, z1_one, z1_i) of the oracle sums, each a full stack of powers;
    the successor stacks take the main factors with phi and phi_t swapped."""
    phi, phi_t, psi, psi_t = aux.phi, aux.phi_t, aux.psi, aux.psi_t
    families = (((phi, psi), (phi_t, psi_t), False), ((phi_t, psi_t), (phi, psi), True),
                ((phi_t, psi), (phi, psi_t), False), ((phi, psi_t), (phi_t, psi), True))
    return [np.array([_complex_binomial_sum(n, *family) for n in range(n_max + 1)])
            for family in families]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _family(name, grid):
    if name == "zero":
        return make_superpotential("zero", (), grid)
    if name == "linear":
        return make_superpotential("linear", (0.5, -1.0), grid)
    if name == "quadratic":
        return make_superpotential("quadratic", (1.0, -0.5), grid)
    x, y = grid.gx.nodes, grid.gy.nodes
    return make_superpotential("tabulated", (), grid, chi1_table=np.log(np.cosh(x)),
                               chi2_table=-np.log(np.cosh(2.0 * y)))


@pytest.mark.parametrize("shape", [(5, 5), (21, 21), (61, 61), (61, 41)])
@pytest.mark.parametrize("name", ["zero", "linear", "quadratic", "tabulated"])
def test_assembled_powers_match_the_complex_sums_bit_for_bit(name, shape):
    grid = Grid2D(Grid1D(1.0, shape[0]), Grid1D(1.0, shape[1]))
    table = assemble_formal_powers(_family(name, grid), 6)
    succ = table.successor()
    z_one, z_i, z1_one, z1_i = _oracle_stacks(table.aux, 6)
    stacks = (table.z_one, table.z_i, succ.z_one, succ.z_i)
    for got, want in zip(stacks, (z_one, z_i, z1_one, z1_i)):
        assert len(got) == 7
        for n in range(7):
            np.testing.assert_array_equal(_bits(got[n]), _bits(want[n]), err_msg=f"n={n}")
    for n in range(7):
        for a in (1.0, 1j, 0.5 - 1j):
            np.testing.assert_array_equal(_bits(table.power(n, a)),
                                          _bits(a.real * z_one[n] + a.imag * z_i[n]))
            np.testing.assert_array_equal(_bits(succ.power(n, a)),
                                          _bits(a.real * z1_one[n] + a.imag * z1_i[n]))
    for basis_kind, part in (("ker_h0", np.imag), ("ker_h2", np.real)):
        want = np.column_stack([interior(part(z[n]), margin=2).ravel()
                                for n in range(5) for z in (z_one, z_i)])
        np.testing.assert_array_equal(_bits(table.design(basis_kind, 4)), _bits(want))


def test_assembly_holds_the_1d_systems_alone(quad):
    # 28 sampled powers would be 18 MiB at 201 nodes; the 1-D systems are 45 kB
    tracemalloc.start()
    try:
        table = assemble_formal_powers(quad, 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.n_max == 6
    assert held < 2**20


def test_reading_a_stack_in_turn_holds_one_power_at_a_time(quad):
    power_bytes = 16 * 201 * 201
    tracemalloc.start()
    try:
        table = assemble_formal_powers(quad, 6)
        for n in range(7):
            assert table.z_one[n].shape == (201, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one power and the two real buffers of the sums, a power's worth; two powers
    # alive together would need three
    assert peak < 2.5 * power_bytes


def test_a_table_keeps_no_power_it_assembled(quad):
    # the 1-D systems are 45 kB; one power kept per stack would be 2.5 MiB at 201 nodes
    tracemalloc.start()
    try:
        table = assemble_formal_powers(quad, 6)
        succ = table.successor()
        for stack in (table.z_one, table.z_i, succ.z_one, succ.z_i):
            for n in range(7):
                assert stack[n].shape == (201, 201)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    first = succ.z_i[4]
    again = succ.z_i[4]  # a new read-only array, assembled again with the same bits
    assert again is not first and not again.flags.writeable
    np.testing.assert_array_equal(_bits(again), _bits(first))
    with pytest.raises(IndexError):
        succ.z_i[7]


def test_overflowing_1d_systems_refused_before_the_2d_assembly():
    # on 3 nodes phi_k of chi = 0 is finite up to degree 196 and not from 197
    sp = make_superpotential("zero", (), Grid2D.square(1.0, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(build_aux_system(sp, 196).phi).all()
        assemble_formal_powers(sp, 196)
        with pytest.raises(OverflowError, match="1-D power systems up to degree 197 overflow"):
            assemble_formal_powers(sp, 197)
