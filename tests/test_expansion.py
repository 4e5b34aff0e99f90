from math import factorial

import numpy as np
import pytest

import vekua.expansion as expansion
from vekua.errors import KernelMembershipError
from vekua.expansion import (
    NOISE_SAFETY,
    evaluate_fit,
    evaluate_series,
    fit_formal_polynomial,
    taylor_coefficients,
)
from vekua.formal_powers import assemble_formal_powers
from vekua.grid import Grid1D, Grid2D, d_x, d_y, interior, interior_max
from vekua.operators import vekua_v1bar, vekua_vbar
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


@pytest.fixture(scope="module")
def table_zero(zero_sp):
    return assemble_formal_powers(zero_sp, 6)


@pytest.fixture(scope="module")
def table_quad(quad):
    return assemble_formal_powers(quad, 6)


H2 = 1e-4


# -------------------------------------------------------------- Taylor route

def test_taylor_of_plain_square(zero_sp, grid):
    z = grid.zmesh()
    coeffs = taylor_coefficients(zero_sp, z**2, degree=4)
    expected = np.zeros(5, dtype=complex)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs.values, expected, atol=1e-8)
    assert coeffs.values[0] == 0.0  # exact origin value


def test_taylor_origin_value_exact(quad, table_quad):
    w = 2.5 * table_quad.power(0, 1.0) + 0.5 * table_quad.power(0, 1j)
    coeffs = taylor_coefficients(quad, w, degree=2)
    assert coeffs.values[0] == w[quad.grid.center]


def test_taylor_of_formal_power_self_consistency(quad, table_quad):
    w = table_quad.power(3, 1.0)
    coeffs = taylor_coefficients(quad, w, degree=4)
    assert abs(coeffs.values[3] - 1.0) <= 1e-3
    for n in (0, 1, 2, 4):
        assert abs(coeffs.values[n]) <= max(2e-3, 2 * coeffs.uncertainty[n])


def test_taylor_of_generating_function(quad, table_quad):
    # the first pair member has coefficients (1, 0, 0, ...) since its
    # pair derivative vanishes identically
    w = table_quad.power(0, 1.0)
    coeffs = taylor_coefficients(quad, w, degree=3)
    assert abs(coeffs.values[0] - 1.0) <= 1e-12
    for n in (1, 2, 3):
        assert abs(coeffs.values[n]) <= max(1e-6, coeffs.uncertainty[n])


def test_taylor_degree_cap(zero_sp, grid):
    with pytest.raises(ValueError, match="maximum"):
        taylor_coefficients(zero_sp, grid.zmesh(), degree=7)


def test_taylor_noise_error_on_coarse_grid():
    g = Grid2D.square(1.0, 9)
    sp = make_superpotential("quadratic", (1.0, 1.0), g)
    table = assemble_formal_powers(sp, 6)
    with pytest.raises(ValueError, match="finer grid"):
        taylor_coefficients(sp, table.power(6, 1.0), degree=6)


def _full_grid_taylor(sp, w, degree):
    """Oracle: the Taylor route with every level and its third derivatives
    taken on the whole grid through the public stencils and operators."""
    grid = sp.grid
    w = np.asarray(w, dtype=complex)
    margin = max(2, min(grid.shape) // 4)
    i0, j0 = grid.center
    h = grid.hmax
    values = np.empty(degree + 1, dtype=complex)
    noise = np.empty(degree + 1)
    cur = w
    level_noise = 1e-14 * max(1.0, interior_max(w, margin=1))
    values[0] = cur[i0, j0]
    noise[0] = level_noise
    carry = 1.0 + float(np.max(np.abs(sp.dz_chi())))
    for m in range(degree):
        dx3 = d_x(grid, d_x(grid, d_x(grid, cur)))
        dy3 = d_y(grid, d_y(grid, d_y(grid, cur)))
        trunc = (h**2 / 6.0) * (interior_max(dx3, margin=margin) + interior_max(dy3, margin=margin))
        level_noise = NOISE_SAFETY * trunc + carry * level_noise
        cur = (vekua_vbar if m % 2 == 0 else vekua_v1bar)(sp, cur)
        values[m + 1] = cur[i0, j0] / factorial(m + 1)
        noise[m + 1] = level_noise / factorial(m + 1)
    biggest = float(np.max(np.abs(values)))
    if noise[degree] > max(biggest, 1e-12):
        raise ValueError(
            f"stencil noise {noise[degree]:.3e} exceeds every coefficient "
            f"({biggest:.3e}); use a finer grid for degree {degree}"
        )
    return values, noise


def _outcome(call):
    try:
        values, noise = call()
    except ValueError as exc:
        return str(exc)
    return values.view(np.uint64).tolist(), noise.view(np.uint64).tolist()


_TAYLOR_GRIDS = {
    "n21": Grid2D.square(1.0, 21),
    "n61": Grid2D.square(1.0, 61),
    "n201": Grid2D.square(1.0, 201),
    "61x101": Grid2D(Grid1D(1.0, 61), Grid1D(1.5, 101)),
}


@pytest.mark.parametrize("family,params", [
    ("zero", ()), ("linear", (0.5, -1.0)), ("quadratic", (1.0, -0.5)),
])
@pytest.mark.parametrize("grid_name", list(_TAYLOR_GRIDS))
def test_taylor_window_is_bit_for_bit(grid_name, family, params):
    grid = _TAYLOR_GRIDS[grid_name]
    sp = make_superpotential(family, params, grid)
    z = grid.zmesh()
    x, y = grid.meshes()
    fields = (
        np.exp(0.7 * z) + z**3 - 0.3j * z**2,
        np.exp(x) * np.cos(2 * y) + 1j * x * y**2,
        np.exp(12j * x),  # too rough for n = 21 beyond degree 0
    )
    raised = 0
    for w in fields:
        for degree in range(7):
            def windowed():
                c = taylor_coefficients(sp, w, degree)
                return c.values, c.uncertainty

            want = _outcome(lambda: _full_grid_taylor(sp, w, degree))
            assert _outcome(windowed) == want, (degree, w[grid.center])
            raised += isinstance(want, str)
    assert raised > 0 if grid_name == "n21" else raised == 0


def test_taylor_differentiates_each_level_once_on_the_window(monkeypatch, quad, grid):
    shapes = []
    stencil = expansion._first_derivative

    def counting(f, h, axis):
        shapes.append(np.shape(f))
        return stencil(f, h, axis)

    monkeypatch.setattr(expansion, "_first_derivative", counting)
    degree = 4
    taylor_coefficients(quad, np.exp(0.5 * grid.zmesh()), degree)
    # margin 201 // 4 = 50, lo = 50 - degree - 2 = 44: 201 - 88 = 113 nodes a side
    assert shapes == [(113, 113)] * (6 * degree)


def test_taylor_rejects_non_finite_field(quad, grid):
    w = grid.zmesh() ** 2
    w[3, 170] = np.nan  # far outside the window the levels run on
    with pytest.raises(ValueError, match="non-finite"):
        taylor_coefficients(quad, w, degree=2)


def test_series_roundtrip_single_power(quad, table_quad):
    w = table_quad.power(2, 1.0 + 0.5j)
    coeffs = taylor_coefficients(quad, w, degree=4)
    rebuilt = evaluate_series(coeffs, table_quad)
    q = (quad.grid.gx.n - 1) // 4
    sub = (slice(q, -q), slice(q, -q))
    assert np.max(np.abs((rebuilt - w)[sub])) <= 5e-3


def test_series_zero_coefficients(table_quad):
    from vekua.expansion import TaylorCoefficients

    coeffs = TaylorCoefficients(np.zeros(3, dtype=complex), np.zeros(3))
    np.testing.assert_array_equal(evaluate_series(coeffs, table_quad), 0.0)


# ----------------------------------------------------------------- fit route

def test_fit_exact_harmonic_member(zero_sp, table_zero, grid):
    x, y = grid.meshes()
    target = x**2 - y**2  # equals Re z^2 = Im(i z^2): an exact basis member
    fit = fit_formal_polynomial(zero_sp, target, table_zero, "ker_h0", degree=3)
    assert fit.residual_max <= 1e-10
    assert fit.coefficient(2, "i") == pytest.approx(1.0, abs=1e-8)


def test_fit_self_consistency(quad, table_quad):
    target = np.imag(table_quad.z_i[3])
    fit = fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=4)
    assert fit.residual_max <= 10 * H2
    assert fit.coefficient(3, "i") == pytest.approx(1.0, abs=1e-6)
    coef = fit.coefficients.copy()
    coef[2 * 3 + 1] = 0.0
    assert np.max(np.abs(coef)) <= 1e-6


def test_fit_zero_mode_is_degree_zero(quad, table_quad):
    target = quad.exp_chi(-1.0)  # the imaginary part of the second pair member
    fit = fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=2)
    assert fit.coefficient(0, "i") == pytest.approx(1.0, abs=1e-8)
    assert fit.residual_max <= 1e-8


def test_fit_h2_branch(quad, table_quad):
    target = np.real(table_quad.z_one[2])
    fit = fit_formal_polynomial(quad, target, table_quad, "ker_h2", degree=3)
    assert fit.coefficient(2, "one") == pytest.approx(1.0, abs=1e-6)
    assert fit.residual_max <= 10 * H2


def test_fit_rejects_non_kernel_target(quad, table_quad, grid):
    x, y = grid.meshes()
    with pytest.raises(KernelMembershipError):
        fit_formal_polynomial(quad, np.sin(4 * x) * np.sin(4 * y), table_quad, "ker_h0", 3)


def test_fit_monotone_residual_in_degree(quad, table_quad):
    # smooth kernel member: residual decreases (non-strictly) with degree
    target = np.imag(table_quad.power(2, 1.0) + 0.3 * table_quad.power(4, 1j))
    resid = [
        fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=d).residual_rms
        for d in range(1, 6)
    ]
    for lo, hi in zip(resid[1:], resid[:-1]):
        assert lo <= hi + 1e-12


def test_fit_reconstruction_stays_in_kernel(quad, table_quad):
    from vekua.grid import interior_max
    from vekua.operators import h0

    target = np.imag(table_quad.z_one[2] + 0.5 * table_quad.z_i[1])
    fit = fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=3)
    recon = evaluate_fit(fit, table_quad)
    assert interior_max(h0(quad, recon), margin=2) <= 500 * H2
    assert fit.rank <= 2 * (3 + 1)


def test_fit_reports_structural_rank_deficiency(zero_sp, table_zero, grid):
    x, y = grid.meshes()
    fit = fit_formal_polynomial(zero_sp, 2 * x * y, table_zero, "ker_h0", degree=2)
    # Im Z^0(1) = Im 1 = 0 is a structurally zero column
    assert fit.rank < 2 * (2 + 1)
    assert fit.singular_values[-1] <= 1e-10 * fit.singular_values[0]
    assert fit.coefficient(2, "one") == pytest.approx(1.0, abs=1e-8)


def _inline_design_fit(target, table, basis_kind, degree):
    """The fit with its design built and factorized inline on every call: the
    oracle of the memoized design and its factors (same columns, same order,
    same thin SVD cut at lstsq's rank rule, same products)."""
    part = np.imag if basis_kind == "ker_h0" else np.real
    columns = []
    for n in range(degree + 1):
        columns.append(interior(part(table.z_one[n]), margin=2).ravel())
        columns.append(interior(part(table.z_i[n]), margin=2).ravel())
    design = np.column_stack(columns)
    rhs = interior(target, margin=2).ravel()
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(design.shape) * sv[0]
    ut = np.ascontiguousarray(u[:, keep].T)
    coef = vt[keep].T @ ((ut @ rhs) / sv[keep])
    resid = design @ coef - rhs
    rank = int(np.count_nonzero(keep))
    return coef, sv, rank, float(np.max(np.abs(resid))), float(np.sqrt(np.mean(resid**2)))


@pytest.mark.parametrize(
    "name, params, n",
    [("quadratic", (1.0, -0.5), 201), ("linear", (0.5, -1.0), 61), ("zero", (), 61)],
)
def test_memoized_design_fits_bit_for_bit(name, params, n):
    sp = make_superpotential(name, params, Grid2D.square(1.0, n))
    table = assemble_formal_powers(sp, 4)
    member = table.power(2, 1.0) + 0.3 * table.power(3, 1j) - 0.2 * table.power(1, 1.0 + 1j)
    targets = {"ker_h0": np.imag(member), "ker_h2": np.real(member)}
    # several fits in a row on one table: each degree twice, the bases interleaved
    degrees = list(range(table.n_max + 1))
    for degree in degrees + degrees[::-1]:
        for basis_kind in ("ker_h0", "ker_h2"):
            target = targets[basis_kind]
            fit = fit_formal_polynomial(sp, target, table, basis_kind, degree)
            coef, sv, rank, rmax, rrms = _inline_design_fit(target, table, basis_kind, degree)
            np.testing.assert_array_equal(fit.coefficients.view(np.uint64), coef.view(np.uint64))
            np.testing.assert_array_equal(fit.singular_values.view(np.uint64), sv.view(np.uint64))
            assert fit.rank == rank
            assert fit.residual_max.hex() == rmax.hex()
            assert fit.residual_rms.hex() == rrms.hex()


@pytest.mark.parametrize(
    "name, params, n",
    [("zero", (), 61), ("linear", (0.5, -1.0), 61), ("quadratic", (1.0, -0.5), 61),
     ("linear", (0.5, -1.0), 5)],
    ids=["zero", "linear", "quadratic", "one-interior-row"],
)
def test_factorized_fit_agrees_with_lstsq(name, params, n):
    """The factorized solve is lstsq's minimum-norm solution to rounding: the same
    rank, with the structurally zero column Im Z^0(1) of ker_h0, and on 5 nodes
    a single interior row against up to 10 columns."""
    sp = make_superpotential(name, params, Grid2D.square(1.0, n))
    table = assemble_formal_powers(sp, 4)
    member = table.power(2, 1.0) + 0.3 * table.power(3, 1j) - 0.2 * table.power(1, 1.0 + 1j)
    for basis_kind, target in (("ker_h0", np.imag(member)), ("ker_h2", np.real(member))):
        for degree in range(table.n_max + 1):
            fit = fit_formal_polynomial(sp, target, table, basis_kind, degree)
            design = table.design(basis_kind, degree)
            coef, _, rank, sv = np.linalg.lstsq(design, interior(target, margin=2).ravel(),
                                                rcond=None)
            assert fit.rank == rank
            if basis_kind == "ker_h0" and n > 5:
                assert fit.rank == design.shape[1] - 1  # Im Z^0(1) = 0
            tol = 1e-12 * max(1.0, float(np.max(np.abs(coef))))
            np.testing.assert_allclose(fit.coefficients, coef, rtol=0, atol=tol)
            np.testing.assert_allclose(fit.singular_values, sv, rtol=1e-12)


def test_a_later_fit_on_a_key_reuses_its_read_only_factors(monkeypatch, quad, table_quad):
    target = np.imag(table_quad.z_i[2])
    first = fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=5)
    factors = table_quad.design_factors("ker_h0", 5)
    for a in (factors.ut, factors.s, factors.vt):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert factors.ut.flags.c_contiguous
    assert factors.ut.shape == (first.rank, 197 * 197)
    assert factors.vt.shape == (first.rank, 12)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd ran for a key already factorized")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    again = fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree=5)
    assert table_quad.design_factors("ker_h0", 5) is factors
    np.testing.assert_array_equal(again.coefficients, first.coefficients)
    assert again.singular_values is factors.s


def test_design_is_built_once_and_read_only(table_quad):
    for basis_kind in ("ker_h0", "ker_h2"):
        design = table_quad.design(basis_kind, 3)
        assert table_quad.design(basis_kind, 3) is design
        assert design.shape == (197 * 197, 8)
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
    assert table_quad.design("ker_h0", 3) is not table_quad.design("ker_h2", 3)
    assert table_quad.design("ker_h0", 3) is not table_quad.design("ker_h0", 2)


def test_fit_coefficient_rejects_unknown_slots(quad, table_quad):
    fit = fit_formal_polynomial(quad, np.imag(table_quad.z_i[1]), table_quad, "ker_h0", degree=2)
    assert fit.coefficient(2, "i") == float(fit.coefficients[5])
    for n, which in ((3, "i"), (-1, "one"), (0, "x"), (1, "I")):
        with pytest.raises(ValueError):
            fit.coefficient(n, which)


@pytest.mark.parametrize("degree", [-1, 7, 2.0, True])
def test_fit_rejects_degree_outside_the_table(quad, table_quad, degree):
    target = np.imag(table_quad.z_i[1])
    with pytest.raises(ValueError, match=r"degree must be an integer in 0\.\.6"):
        fit_formal_polynomial(quad, target, table_quad, "ker_h0", degree)
