import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import trapezoid

import vekua.operators as ops
import vekua.transmutation as transmutation
from vekua.errors import GridShapeError, NonConvergenceError
from vekua.formal_powers import assemble_formal_powers, build_aux_system, fg_integral
from vekua.grid import (
    Grid1D,
    Grid2D,
    cumulative_integral,
    d_z,
    d_zbar,
    interior_max,
    laplacian,
    lpath_complex,
)
from vekua.superpotential import make_superpotential
from vekua.transmutation import (
    build_kernel_with_h,
    build_transmute,
    build_transmute_2d,
    solve_goursat,
)


@pytest.fixture(scope="module")
def grid201():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def sp_linear(grid201):
    # chi1 = x, chi2 = 0
    return make_superpotential("linear", (1.0, 0.0), grid201)


@pytest.fixture(scope="module")
def sp_quad(grid201):
    return make_superpotential("quadratic", (1.0, 1.0), grid201)


@pytest.fixture(scope="module")
def t2d_quad(sp_quad):
    return build_transmute_2d(sp_quad)


@pytest.fixture(scope="module")
def table_quad(sp_quad):
    return assemble_formal_powers(sp_quad, 5)


H2 = 1e-4


# ------------------------------------------------------------ Goursat solve

def test_goursat_zero_potential_is_zero_kernel(grid201):
    sp = make_superpotential("zero", (), grid201)
    gk = solve_goursat(sp.ax)
    assert gk.iterations <= 2
    assert np.max(np.abs(gk.axis_values)) == 0.0


def test_goursat_boundary_data(sp_linear):
    # K(x, x) = (1/2) int_0^x q and K(x, -x) = 0
    gk = solve_goursat(sp_linear.ax)
    grid = sp_linear.grid.gx
    n = grid.n
    half_int_q = 0.5 * cumulative_integral(grid, sp_linear.ax.q_at(grid.nodes), grid.center)
    diag = gk.axis_values[np.arange(n), np.arange(n)]
    np.testing.assert_allclose(diag, half_int_q, atol=1e-12)
    anti = gk.axis_values[np.arange(n), n - 1 - np.arange(n)]
    np.testing.assert_allclose(anti, np.zeros(n), atol=1e-14)
    # q = 1 for chi1 = x, so the diagonal is x/2
    np.testing.assert_allclose(half_int_q, grid.nodes / 2.0, atol=1e-12)


def test_goursat_constant_potential_bessel_oracle(sp_linear):
    # q = 1: K(x,t) = (1/2) sqrt(u/v) I1(2 sqrt(uv)), u = (x+t)/2, v = (x-t)/2
    from scipy.special import i1

    gk = solve_goursat(sp_linear.ax)
    grid = sp_linear.grid.gx
    k = grid.center + round(0.8 / grid.h)
    lo = grid.center + round(-0.8 / grid.h)
    ts = grid.nodes[lo : k + 1]
    u = (0.8 + ts) / 2.0
    v = (0.8 - ts) / 2.0
    inner = np.abs(ts) < 0.8 - 1e-12
    expected = np.zeros_like(ts)
    expected[inner] = 0.5 * np.sqrt(u[inner] / v[inner]) * i1(2.0 * np.sqrt(u[inner] * v[inner]))
    expected[-1] = 0.4  # K(x, x) = x / 2 at t = x
    got = gk.axis_values[k, lo : k + 1]
    np.testing.assert_allclose(got, expected, atol=5e-4)


def _i1_kernel_gap(gk, q):
    """max |K - exact| / max |exact| on the triangle, for the constant potential q:
    K(x,t) = (q (x+t)/4) I1(2 sqrt(w)) / sqrt(w), w = q (x^2 - t^2) / 4."""
    from scipy.special import i1

    nodes = gk.axis_grid.nodes
    x, t = np.meshgrid(nodes, nodes, indexing="ij")
    root = np.sqrt(np.maximum(q * (x + t) * (x - t) / 4.0, 0.0))
    ratio = np.ones_like(root)
    np.divide(i1(2.0 * root), root, out=ratio, where=root > 0)
    exact = q * (x + t) / 4.0 * ratio
    inside = np.abs(t) <= np.abs(x)
    return np.max(np.abs(gk.axis_values - exact)[inside]) / np.max(np.abs(exact[inside]))


def test_goursat_stops_at_the_rounding_floor_of_a_large_kernel():
    # q = 25: max|K| on the characteristic square is 6.7e3, so the defect stalls
    # near 1.8e-12, above TOL; the solve returns there and matches the I1 kernel
    grid = Grid2D.square(1.0, 201)
    sp = make_superpotential("linear", (5.0, 0.0), grid)
    gk = solve_goursat(sp.ax)
    assert transmutation.TOL < gk.defects[-1] < gk.defects[0]
    assert _i1_kernel_gap(gk, 25.0) <= 2 * grid.gx.h**2


def test_goursat_floor_grows_with_the_potential():
    # q = 144: max|K| is 1.3e10 and the defect stalls at 7.8e-4, 275 eps max|K|,
    # above a floor of 64 eps max|K| but within 64 eps max|K| q a^2.  The gap to
    # the I1 kernel is truncation: 24.5 h^2 max|K| here and at n = 401 alike
    grid = Grid2D.square(1.0, 201)
    sp = make_superpotential("linear", (12.0, 0.0), grid)
    gk = solve_goursat(sp.ax)
    assert transmutation.TOL < gk.defects[-1] < gk.defects[0]
    assert _i1_kernel_gap(gk, 144.0) <= 30 * grid.gx.h**2


def test_goursat_convergence_history(sp_quad):
    gk = solve_goursat(sp_quad.ax)
    assert gk.defects[-1] <= 1e-12
    assert all(np.isfinite(gk.defects))


def test_goursat_nonconvergence_raises(sp_quad, monkeypatch):
    monkeypatch.setattr(transmutation, "MAX_ITER", 2)
    with pytest.raises(NonConvergenceError) as err:
        solve_goursat(sp_quad.ax)
    assert len(err.value.defects) == 2


# Reference sweep: the trapezoid as a plain row loop with a division by 2, and
# the characteristic potential computed inside the solve.  The shipped solve,
# direct or through a shared build, must reproduce its kernel and its defect
# history bit for bit.

def _oracle_trapezoid(y, h, origin_index, axis, out):
    ym = y.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    om[0] = 0.0
    body = om[1:]
    np.add(ym[1:], ym[:-1], out=body)
    body *= h
    body /= 2.0
    for k in range(1, len(body)):
        np.add(body[k - 1], body[k], out=body[k])
    om -= om[origin_index].copy()
    return out


def _oracle_solve_goursat(profile):
    grid = profile.grid
    cgrid = grid.refined()
    c = cgrid.center
    q_u = profile.q_at(np.clip(cgrid.nodes, -grid.half_width, grid.half_width))
    g_u = 0.5 * cumulative_integral(cgrid, q_u, c)
    u = cgrid.nodes
    q_uv = profile.q_at(np.clip(u[:, None] + u[None, :], -grid.half_width, grid.half_width))
    floor = (transmutation._ROUNDING_FLOOR * np.finfo(float).eps
             * max(1.0, float(np.max(np.abs(q_u))) * grid.half_width**2))
    k_cur = np.broadcast_to(g_u[:, None], (cgrid.n, cgrid.n)).copy()
    inner = np.empty_like(k_cur)
    work = np.empty_like(k_cur)
    defects = []
    for _ in range(transmutation.MAX_ITER):
        np.multiply(q_uv, k_cur, out=work)
        _oracle_trapezoid(work, cgrid.h, c, 1, inner)
        _oracle_trapezoid(inner, cgrid.h, c, 0, work)
        work += g_u[:, None]
        np.subtract(work, k_cur, out=inner)
        defect = float(np.max(np.abs(inner, out=inner)))
        defects.append(defect)
        k_cur, work = work, k_cur
        if defect <= transmutation.TOL:
            break
        if (len(defects) > 1 and defects[-2] <= defect and defects[-2] < defects[0]
                and defect <= floor * float(np.max(np.abs(k_cur, out=inner)))):
            break
    n = grid.n
    kk, ll = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return k_cur[kk + ll, kk - ll + n - 1], defects


@pytest.mark.parametrize("n", [21, 61, 201])
@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                          ("linear", (5.0, 1.0)), ("quadratic", (1.0, -0.5))])
def test_goursat_equals_the_row_loop_sweep_bit_for_bit(name, params, n):
    # linear c1 = 5 stops at its rounding floor, the others at TOL; the flipped
    # quadratic profile has the partner potential
    sp = make_superpotential(name, params, Grid2D.square(1.0, n))
    t2d = build_transmute_2d(sp)  # its solves take the potential of the sharing key
    shared = (t2d.tx, t2d.ty, t2d.tx_tilde, t2d.ty_tilde)
    for profile, op in zip((sp.ax, sp.ay, sp.ax.flipped(), sp.ay.flipped()), shared):
        want, defects = _oracle_solve_goursat(profile)
        gk = solve_goursat(profile)
        assert np.array_equal(gk.axis_values.view(np.uint64), want.view(np.uint64))
        assert gk.defects == defects
        # the operator keeps no kernel: its matrix is that of the oracle's kernel,
        # and its defects are the oracle's
        oracle = transmutation.GoursatKernel(profile.grid, want, defects)
        matrix = transmutation._volterra_matrix(
            profile.grid, build_kernel_with_h(oracle, profile.h_param))
        assert np.array_equal(op.matrix.view(np.uint64), matrix.view(np.uint64))
        assert op.defects == defects


def test_dressed_kernel_reduces_to_plain_when_h_zero(sp_quad):
    # chi1 = x^2/2 has chi1'(0) = 0
    assert sp_quad.ax.h_param == 0.0
    gk = solve_goursat(sp_quad.ax)
    np.testing.assert_array_equal(build_kernel_with_h(gk, sp_quad.ax.h_param), gk.axis_values)


def test_dressed_kernel_constant_for_zero_potential():
    # q = 0 with nonzero slope parameter: dressed kernel is h/2 everywhere
    grid = Grid2D.square(1.0, 101)
    sp = make_superpotential("zero", (), grid)
    gk = solve_goursat(sp.ax)
    dressed = build_kernel_with_h(gk, 0.6)
    np.testing.assert_allclose(dressed, 0.3 * np.ones_like(dressed), atol=1e-14)


def test_dressed_kernel_quadrature_oracle(sp_linear):
    # chi1 = x: dressed = 1/2 + K + (1/2) int_t^x [K(x,s) - K(x,-s)] ds,
    # checked against direct quadrature at a probe row
    gk = solve_goursat(sp_linear.ax)
    dressed = build_kernel_with_h(gk, sp_linear.ax.h_param)
    grid = sp_linear.grid.gx
    k = grid.center + round(0.5 / grid.h)
    lo = grid.center + round(-0.5 / grid.h)
    for l in range(lo, k + 1):
        span = slice(l, k + 1)
        integrand = gk.axis_values[k, span] - gk.axis_values[k, ::-1][span]
        direct = trapezoid(integrand, dx=grid.h)
        expected = 0.5 + gk.axis_values[k, l] + 0.5 * direct
        assert dressed[k, l] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- 1-D operators

def _oracle_volterra_matrix(grid, kernel):
    """The trapezoid Volterra matrix built row by row over each row's bowtie."""
    n, c, h = grid.n, grid.center, grid.h
    mat = np.eye(n)
    for k in range(n):
        lo, hi = min(k, n - 1 - k), max(k, n - 1 - k)
        if lo == hi:
            continue
        w = np.full(hi - lo + 1, h)
        w[0] = w[-1] = 0.5 * h
        sign = 1.0 if k > c else -1.0
        mat[k, lo : hi + 1] += sign * w * kernel[k, lo : hi + 1]
    return mat


@pytest.mark.parametrize("n", [3, 5, 21, 201])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_volterra_matrix_equals_the_row_loop_bit_for_bit(n):
    # entries outside the bowtie |t| <= |x| are never read: NaN and inf there
    # must neither reach the matrix nor raise a warning; -0 products keep the
    # bits of the identity plus the row's sum
    grid = Grid1D(0.7, n)
    kernel = np.random.default_rng(n).standard_normal((n, n)) * 1e3
    kernel[:, n // 3] = -0.0
    r = np.abs(np.arange(n) - grid.center)
    outside = r[None, :] > r[:, None]
    for fill in (np.nan, np.inf, -np.inf):
        kernel[outside] = fill
        got = transmutation._volterra_matrix(grid, kernel)
        want = _oracle_volterra_matrix(grid, kernel)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    profile = make_superpotential("quadratic", (1.0, -0.5), Grid2D.square(1.0, n)).ax
    op = build_transmute(profile)
    gk = solve_goursat(profile)
    want = _oracle_volterra_matrix(profile.grid, build_kernel_with_h(gk, profile.h_param))
    assert np.array_equal(op.matrix.view(np.uint64), want.view(np.uint64))


def test_transmute_identity_for_zero_chi():
    grid = Grid2D.square(1.0, 201)
    sp = make_superpotential("zero", (), grid)
    op = build_transmute(sp.ax)
    x = grid.gx.nodes
    for k in range(4):
        np.testing.assert_allclose(op.along_x(x**k), x**k, atol=1e-12)


def test_along_x_rejects_wrong_length():
    grid = Grid2D.square(1.0, 21)
    op = build_transmute(make_superpotential("zero", (), grid).ax)
    with pytest.raises(GridShapeError):
        op.along_x(np.ones(23))


@pytest.mark.parametrize("shape", [(21, 5), (5, 21), (21,), (7,)])
def test_along_x_and_along_y_check_the_axis_they_apply_along(shape):
    grid = Grid2D.square(1.0, 21)
    op = build_transmute(make_superpotential("linear", (0.5, -1.0), grid).ax)
    f = np.ones(shape)
    for apply, axis in ((op.along_x, 0), (op.along_y, -1)):
        if shape[axis] == 21:
            assert apply(f).shape == shape
        else:
            with pytest.raises(GridShapeError):
                apply(f)


def test_transmute_linear_chi_sinh_oracle():
    grid = Grid2D.square(1.0, 401)
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    op = build_transmute(sp.ax)
    x = grid.gx.nodes
    got = op.along_x(x)
    want = np.sinh(x)
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= 1e-2


def test_transmute_powers_match_dressed_system():
    grid = Grid2D.square(1.0, 401)
    for name, params in (("linear", (1.0, 0.0)), ("quadratic", (1.0, 0.0))):
        sp = make_superpotential(name, params, grid)
        aux = build_aux_system(sp, 5)
        op = build_transmute(sp.ax)
        x = grid.gx.nodes
        for k in range(6):
            got = op.along_x(x**k)
            rel = np.max(np.abs(got - aux.phi[k])) / np.max(np.abs(aux.phi[k]))
            assert rel <= 1e-2, (name, k, rel)


def test_transmute_convergence_ratio():
    def rel_err(n):
        grid = Grid2D.square(1.0, n)
        sp = make_superpotential("linear", (1.0, 0.0), grid)
        op = build_transmute(sp.ax)
        x = grid.gx.nodes
        return np.max(np.abs(op.along_x(x) - np.sinh(x))) / np.max(np.abs(np.sinh(x)))

    assert 3.5 <= rel_err(401) / rel_err(801) <= 4.5


def _antiderivative_form(t_op, profile, f, df):
    """exp(-chi) * (int_0^x exp(chi) T[f'] + f(0)), with ``df`` the samples of f'."""
    grid = profile.grid
    weighted = np.exp(profile.chi) * t_op.along_x(df)
    return np.exp(-profile.chi) * (cumulative_integral(grid, weighted, grid.center)
                                   + f[grid.center])


@pytest.mark.parametrize("n", [61, 201])
@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                          ("quadratic", (1.0, -0.5))])
def test_ttilde_matches_antiderivative_form(name, params, n):
    # the companion, the plain build on the flipped profile, against its
    # antiderivative form through the plain operator.  The cap is 50 h^2
    # max(1, M), the truncation of the two second-order constructions, plus
    # their rounding 2 eps (n - 1) M, with M the largest magnitude of the form:
    # the running trapezoid sum carries up to 2 (n - 1) u M (u = eps / 2), the
    # Volterra product (n - 1) u M more
    sp = make_superpotential(name, params, Grid2D.square(1.0, n))
    for profile in (sp.ax, sp.ay):
        t_op = build_transmute(profile)
        tt_op = build_transmute(profile.flipped())
        x = profile.grid.nodes
        for k in range(4):
            f = x**k
            df = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            via_anti = _antiderivative_form(t_op, profile, f, df)
            magnitude = float(np.max(np.abs(via_anti)))
            cap = (50.0 * profile.grid.h**2 * max(1.0, magnitude)
                   + 2.0 * np.finfo(float).eps * (n - 1) * magnitude)
            gap = float(np.max(np.abs(tt_op.along_x(f) - via_anti)))
            assert gap <= cap, (profile.grid, k, gap, cap)


@pytest.mark.parametrize("n", [21, 201, 401])
@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (1.0, -1.0)),
                                          ("quadratic", (1.0, -0.5))])
def test_build_transmute_2d_on_a_tiny_grid(name, params, n):
    # half-width 1e-20: h^2 is far below eps
    sp = make_superpotential(name, params, Grid2D.square(1e-20, n))
    build_transmute_2d(sp)


def test_ttilde_powers_match_tilde_system():
    grid = Grid2D.square(1.0, 401)
    sp = make_superpotential("quadratic", (1.0, 0.0), grid)
    aux = build_aux_system(sp, 4)
    op = build_transmute(sp.ax.flipped())
    x = grid.gx.nodes
    for k in range(5):
        got = op.along_x(x**k)
        rel = np.max(np.abs(got - aux.phi_t[k])) / np.max(np.abs(aux.phi_t[k]))
        assert rel <= 1e-2, (k, rel)


def test_intertwining_with_weighted_derivative(sp_linear):
    # d/dx (e^chi Ttilde f) = e^chi T f' and d/dx (e^-chi T f) = e^-chi Ttilde f'
    from vekua.grid import _first_derivative

    ax = sp_linear.ax
    grid = ax.grid
    t_op = build_transmute(ax)
    tt_op = build_transmute(ax.flipped())
    x = grid.nodes
    f = x**3 - 0.5 * x
    df = 3 * x**2 - 0.5
    up = np.exp(ax.chi)
    down = np.exp(-ax.chi)
    lhs1 = _first_derivative(up * tt_op.along_x(f), grid.h, axis=0)
    rhs1 = up * t_op.along_x(df)
    assert np.max(np.abs(lhs1 - rhs1)[2:-2]) <= 200 * H2
    lhs2 = _first_derivative(down * t_op.along_x(f), grid.h, axis=0)
    rhs2 = down * tt_op.along_x(df)
    assert np.max(np.abs(lhs2 - rhs2)[2:-2]) <= 200 * H2


def test_integral_counterpart_of_intertwining(sp_linear):
    # e^chi Ttilde int f = int e^chi T f and e^-chi T int f = int e^-chi Ttilde f
    ax = sp_linear.ax
    grid = ax.grid
    t_op = build_transmute(ax)
    tt_op = build_transmute(ax.flipped())
    x = grid.nodes
    f = np.cos(2.0 * x) + x
    anti = cumulative_integral(grid, f, grid.center)
    up = np.exp(ax.chi)
    down = np.exp(-ax.chi)
    lhs1 = up * tt_op.along_x(anti)
    rhs1 = cumulative_integral(grid, up * t_op.along_x(f), grid.center)
    assert np.max(np.abs(lhs1 - rhs1)) <= 100 * H2
    lhs2 = down * t_op.along_x(anti)
    rhs2 = cumulative_integral(grid, down * tt_op.along_x(f), grid.center)
    assert np.max(np.abs(lhs2 - rhs2)) <= 100 * H2


# ------------------------------------------------------------- 2-D operators

def test_t0_identity_for_zero_chi(grid201):
    sp = make_superpotential("zero", (), grid201)
    t2d = build_transmute_2d(sp)
    z = grid201.zmesh()
    w = z**2 + 1j * z
    np.testing.assert_allclose(t2d.t0(w), w, atol=1e-12)
    np.testing.assert_allclose(t2d.t1(w), w, atol=1e-12)


def _assert_solves_once_per_distinct_potential(sp, solves, monkeypatch):
    calls = []
    solve = transmutation.solve_goursat

    def counted(profile):
        calls.append(profile)
        return solve(profile)

    monkeypatch.setattr(transmutation, "solve_goursat", counted)
    t2d = build_transmute_2d(sp)
    assert len(calls) == solves
    calls.clear()
    # one solve each, of the profile built on, nothing shared; a companion is
    # the plain build on the flipped profile
    profiles = (sp.ax, sp.ay, sp.ax.flipped(), sp.ay.flipped())
    independent = [build_transmute(profile) for profile in profiles]
    assert [p.potential_key for p in calls] == [p.potential_key for p in profiles]
    monkeypatch.undo()
    shared = (t2d.tx, t2d.ty, t2d.tx_tilde, t2d.ty_tilde)
    for got, want in zip(shared, independent):
        assert np.array_equal(got.matrix.view(np.uint64), want.matrix.view(np.uint64))
    z = sp.grid.zmesh()
    w = (1.0 + 0.5j) * z**3 - 0.3j * z + np.exp(-np.abs(z) ** 2)
    t0, t1 = t2d.t0_t1(w)
    assert np.array_equal(t0, t2d.t0(w))
    assert np.array_equal(t1, t2d.t1(w))


@pytest.mark.parametrize(
    "name, params, solves",
    [("zero", (), 1), ("linear", (0.5, -1.0), 2), ("linear", (1.0, -1.0), 1),
     ("quadratic", (1.0, -0.5), 4), ("quadratic", (0.5, 0.5), 2)],
)
def test_builds_solve_once_per_distinct_potential(name, params, solves, monkeypatch):
    # a linear axis and its flip share q = c1^2; equal axes share theirs
    sp = make_superpotential(name, params, Grid2D.square(1.0, 41))
    _assert_solves_once_per_distinct_potential(sp, solves, monkeypatch)


def _tabulated(chi1, chi2):
    # 33 nodes on [-1, 1]: the spacing 1/16 and every node are exact, so the
    # stencils of a linear table are exact and its flip keeps q bit for bit
    grid = Grid2D.square(1.0, 33)
    x = grid.gx.nodes
    return make_superpotential("tabulated", (), grid, chi1_table=chi1(x), chi2_table=chi2(x))


@pytest.mark.parametrize(
    "build, solves",
    [(lambda: _tabulated(lambda x: 0.5 * x, lambda x: -x), 2),
     (lambda: _tabulated(lambda x: 0.5 * x**2, lambda x: -0.25 * x**2), 4),
     (lambda: make_superpotential("linear", (-0.0, 0.0), Grid2D.square(1.0, 41)), 1),
     (lambda: make_superpotential("zero", (), Grid2D(Grid1D(1.0, 41), Grid1D(2.0, 41))), 2)],
    ids=["tabulated-linear", "tabulated-quadratic", "linear-signed-zeros",
         "zero-two-half-widths"],
)
def test_sharing_key_is_exact(build, solves, monkeypatch):
    # a linear table's flip shares its axis's solve, a quadratic table's does
    # not (the stencil's chi'' changes sign); -0 and +0 slopes give q = 0 alike;
    # equal potentials on different intervals are different kernels
    _assert_solves_once_per_distinct_potential(build(), solves, monkeypatch)


def test_build_transmute_2d_peak_memory():
    # the four solves of quadratic (1, -0.5) hold at most eight tables of the
    # characteristic square at a time, (2n - 1)^2 doubles each
    n = 201
    sp = make_superpotential("quadratic", (1.0, -0.5), Grid2D.square(1.0, n))
    tracemalloc.start()
    try:
        build_transmute_2d(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n - 1) ** 2 * 8


@pytest.mark.parametrize("name, params, held", [("quadratic", (1.0, -0.5), 0),
                                                ("linear", (0.5, -1.0), 1)])
def test_build_holds_a_kernel_only_until_its_last_profile_is_dressed(name, params, held,
                                                                     monkeypatch):
    # quadratic (1, -0.5) has four distinct potentials, so each solve starts
    # with no kernel alive; the x kernel of linear (0.5, -1) waits for its
    # flip, dressed after the y axis is solved
    sp = make_superpotential(name, params, Grid2D(Grid1D(1.0, 41), Grid1D(0.5, 29)))
    kernels = []  # weak references: the spy must not keep a kernel alive
    alive_at_solve = []
    solve = transmutation.solve_goursat

    def spy(profile):
        alive_at_solve.append(sum(ref() is not None for ref in kernels))
        gk = solve(profile)
        kernels.append(weakref.ref(gk))
        return gk

    monkeypatch.setattr(transmutation, "solve_goursat", spy)
    t2d = build_transmute_2d(sp)
    assert max(alive_at_solve) == held
    assert all(ref() is None for ref in kernels)
    monkeypatch.undo()
    # each operator from its own solve, every kernel held to the end
    profiles = (sp.ax, sp.ay, sp.ax.flipped(), sp.ay.flipped())
    solved = [solve_goursat(p) for p in profiles]
    for op, profile, gk in zip((t2d.tx, t2d.ty, t2d.tx_tilde, t2d.ty_tilde), profiles, solved):
        want = transmutation._volterra_matrix(
            profile.grid, build_kernel_with_h(gk, profile.h_param))
        assert op.matrix.tobytes() == want.tobytes()
        assert op.defects == gk.defects


def _reachable(obj):
    """Every object reachable from ``obj`` through vekua instances, containers
    and the bases of array views."""
    seen, stack, found = set(), [obj], []
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        found.append(item)
        if isinstance(item, np.ndarray):
            if item.base is not None:
                stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif type(item).__module__.startswith("vekua."):
            stack.extend(vars(item).values())
    return found


@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                          ("quadratic", (1.0, -0.5))])
def test_built_operators_hold_no_square_array_besides_their_matrices(name, params):
    sp = make_superpotential(name, params, Grid2D(Grid1D(1.0, 41), Grid1D(0.5, 29)))
    t2d = build_transmute_2d(sp)
    for op in (t2d.tx, t2d.ty, t2d.tx_tilde, t2d.ty_tilde):
        reachable = _reachable(op)
        assert not any(isinstance(o, transmutation.GoursatKernel) for o in reachable)
        arrays = [o for o in reachable if isinstance(o, np.ndarray) and o.ndim > 1]
        assert len(arrays) == 1 and arrays[0] is op.matrix
        assert op.matrix.shape == (op.grid.n, op.grid.n)
        assert len(op.defects) > 0 and all(isinstance(d, float) for d in op.defects)


def test_t0_t1_and_both_are_one_construction(monkeypatch):
    sp = make_superpotential("quadratic", (1.0, -0.5), Grid2D(Grid1D(1.0, 31), Grid1D(0.5, 21)))
    t2d = build_transmute_2d(sp)
    z = sp.grid.zmesh()
    w = (1.0 + 0.5j) * z**3 - 0.3j * z + np.exp(-np.abs(z) ** 2)
    # the construction they replaced: real and imaginary images, then re + 1j * im
    want = {
        "t0": (t2d.tx.along_x(t2d.ty.along_y(w.real))
               + 1j * t2d.tx_tilde.along_x(t2d.ty_tilde.along_y(w.imag))),
        "t1": (t2d.tx_tilde.along_x(t2d.ty.along_y(w.real))
               + 1j * t2d.tx.along_x(t2d.ty_tilde.along_y(w.imag))),
    }
    products = []
    for method in ("along_x", "along_y"):
        def counted(self, f, method=getattr(transmutation.TransmuteOp, method)):
            products.append(self)
            return method(self, f)
        monkeypatch.setattr(transmutation.TransmuteOp, method, counted)
    got = {}
    for name in ("t0", "t1", "t0_t1"):
        products.clear()
        got[name] = getattr(t2d, name)(w)
        got[name + "_products"] = len(products)
    assert (got["t0_products"], got["t1_products"], got["t0_t1_products"]) == (4, 4, 6)
    for name, image in (("t0", got["t0"]), ("t1", got["t1"]),
                        ("t0", got["t0_t1"][0]), ("t1", got["t0_t1"][1])):
        assert np.array_equal(image.view(np.uint64), want[name].view(np.uint64)), name


def test_t0_maps_powers_to_formal_powers(t2d_quad, table_quad, sp_quad):
    z = sp_quad.grid.zmesh()
    for n in range(5):
        for a in (1.0, 1j):
            got = t2d_quad.t0(a * z**n)
            want = table_quad.power(n, a)
            assert np.max(np.abs(got - want)) <= 300 * H2, (n, a)


def test_t1_maps_powers_to_successor_powers(t2d_quad, table_quad, sp_quad):
    z = sp_quad.grid.zmesh()
    succ = table_quad.successor()
    for n in range(5):
        for a in (1.0, 1j):
            got = t2d_quad.t1(a * z**n)
            want = succ.power(n, a)
            assert np.max(np.abs(got - want)) <= 300 * H2, (n, a)


def test_axis_operators_commute(t2d_quad, grid201):
    x, y = grid201.meshes()
    f = (x**2 + y) * np.exp(-(x**2 + y**2))
    ab = t2d_quad.tx.along_x(t2d_quad.ty.along_y(f))
    ba = t2d_quad.ty.along_y(t2d_quad.tx.along_x(f))
    assert np.max(np.abs(ab - ba)) <= 1e-12


def test_commuting_diagram_differential(t2d_quad, sp_quad):
    grid = sp_quad.grid
    x, y = grid.meshes()
    w = (x**2 - y) * np.exp(-(x**2 + y**2)) + 1j * (x * y + 0.3 * y**2)
    wzb = d_zbar(grid, w)
    wz = d_z(grid, w)
    checks = [
        ops.vekua_v(sp_quad, t2d_quad.t0(w)) - t2d_quad.t1(wzb),
        ops.vekua_v1(sp_quad, t2d_quad.t1(w)) - t2d_quad.t0(wzb),
        ops.vekua_vbar(sp_quad, t2d_quad.t0(w)) - t2d_quad.t1(wz),
        ops.vekua_v1bar(sp_quad, t2d_quad.t1(w)) - t2d_quad.t0(wz),
    ]
    for resid in checks:
        assert interior_max(resid, margin=2) <= 300 * H2


def test_commuting_diagram_integral(t2d_quad, sp_quad):
    grid = sp_quad.grid
    x, y = grid.meshes()
    w = (x + 0.5 * y**2) + 1j * (y - x**2)
    anti = lpath_complex(grid, w)
    r1 = fg_integral(sp_quad.successor(), t2d_quad.t0(w)) - t2d_quad.t1(anti)
    r2 = fg_integral(sp_quad, t2d_quad.t1(w)) - t2d_quad.t0(anti)
    assert interior_max(r1, margin=1) <= 300 * H2
    assert interior_max(r2, margin=1) <= 300 * H2


def test_laplacian_corollary(t2d_quad, sp_quad):
    grid = sp_quad.grid
    x, y = grid.meshes()
    w = (x**3 - y**2) * np.exp(-(x**2 + y**2)) + 1j * (x * y)
    lap = laplacian(grid, w)
    hp = ops.h_diag(sp_quad, ops.project(t2d_quad.t0(w)))
    plap = ops.project(t2d_quad.t0(lap))
    assert interior_max(hp[0] + plap[0], margin=2) <= 300 * H2
    assert interior_max(hp[1] + plap[1], margin=2) <= 300 * H2
    h1p = ops.h1(sp_quad, ops.project(t2d_quad.t1(w)))
    plap1 = ops.project(t2d_quad.t1(lap))
    assert interior_max(h1p[0] + plap1[0], margin=2) <= 300 * H2
    assert interior_max(h1p[1] + plap1[1], margin=2) <= 300 * H2


def test_asymmetric_grid_supported():
    grid = Grid2D(Grid1D(1.0, 141), Grid1D(0.8, 101))
    sp = make_superpotential("quadratic", (1.0, 0.5), grid)
    t2d = build_transmute_2d(sp)
    table = assemble_formal_powers(sp, 3)
    z = grid.zmesh()
    h2 = grid.hmax**2
    for n in range(4):
        assert np.max(np.abs(t2d.t0(z**n) - table.power(n, 1.0))) <= 300 * h2
