import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vekua.grid
from vekua.errors import GridShapeError
from vekua.grid import (
    Grid1D,
    Grid2D,
    _cumulative_trapezoid,
    _first_derivative,
    _second_derivative,
    cumulative_integral,
    d_x,
    d_y,
    d_z,
    d_zbar,
    interior,
    interior_max,
    laplacian,
    lpath_complex,
    lpath_field,
)
from vekua.verification import RunConfig, run_battery


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


# ---------------------------------------------------------------- grids

def test_grid_requires_odd_node_count():
    with pytest.raises(ValueError):
        Grid1D(1.0, 200)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 201)
    for half_width in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid1D(half_width, 5)


@pytest.mark.parametrize("half_width, n", [(1e308, 5), (5e-324, 5)], ids=["overflow", "underflow"])
def test_grid_refuses_a_spacing_that_is_not_positive_and_finite(half_width, n):
    # 2 * 1e308 overflows: h = inf and the nodes would read -inf, nan, inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"half_width {half_width} with {n} nodes gives spacing")
        with pytest.raises(ValueError, match=message):
            Grid1D(half_width, n)


@pytest.mark.parametrize("n", [21.9, 21.0, True, "21", None])
def test_grid_refuses_a_node_count_that_is_not_an_integer(n):
    # 21.9 would give a grid whose n reads 21.9 while it has 22 nodes
    with pytest.raises(ValueError, match="node count must be an integer"):
        Grid1D(1.0, n)


def test_grid_takes_numpy_integer_node_counts():
    assert np.array_equal(Grid1D(1.0, np.int64(21)).nodes, Grid1D(1.0, 21).nodes)


def test_grid_nodes_symmetric_about_zero():
    g = Grid1D(1.5, 31)
    assert g.nodes[g.center] == 0.0
    np.testing.assert_array_equal(g.nodes + g.nodes[::-1], np.zeros(g.n))
    assert abs(g.h * (g.n - 1) - 2 * g.half_width) <= 1e-12 * g.half_width


# ---------------------------------------------------- cumulative integral

def test_cumulative_integral_constant_exact():
    g = Grid1D(0.5, 101)  # [-0.5, 0.5]
    f = np.ones(g.n)
    out = cumulative_integral(g, f, origin_index=g.center)
    np.testing.assert_allclose(out, g.nodes, rtol=0, atol=1e-15)


def test_cumulative_integral_affine_exact():
    g = Grid1D(1.0, 51)
    out = cumulative_integral(g, g.nodes, origin_index=g.center)
    np.testing.assert_allclose(out, g.nodes**2 / 2.0, rtol=0, atol=1e-15)


def test_cumulative_integral_exponential_oracle():
    # closed form: int_0^1 exp(-2s) ds = (1 - exp(-2)) / 2
    g = Grid1D(1.0, 201)
    f = np.exp(-2.0 * g.nodes)
    out = cumulative_integral(g, f, origin_index=g.center)
    oracle = (1.0 - math.exp(-2.0)) / 2.0
    assert oracle == pytest.approx(0.43233235838169365, abs=1e-16)
    assert out[-1] == pytest.approx(oracle, abs=1e-4)


def test_cumulative_integral_shape_error():
    g = Grid1D(1.0, 11)
    with pytest.raises(GridShapeError):
        cumulative_integral(g, np.ones(10))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=11, max_size=11),
    st.lists(st.floats(-10, 10), min_size=11, max_size=11),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_cumulative_integral_linear(fa, fb, alpha, beta):
    g = Grid1D(1.0, 11)
    fa, fb = np.asarray(fa), np.asarray(fb)
    lhs = cumulative_integral(g, alpha * fa + beta * fb)
    rhs = alpha * cumulative_integral(g, fa) + beta * cumulative_integral(g, fb)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=21, max_size=21), st.integers(0, 20))
def test_cumulative_integral_additive_over_subintervals(samples, split):
    g = Grid1D(1.0, 21)
    f = np.asarray(samples)
    from_left = cumulative_integral(g, f, origin_index=0)
    from_split = cumulative_integral(g, f, origin_index=split)
    # F_0(x) - F_0(split) = F_split(x)
    recombined = from_left - from_left[split]
    scale = max(1.0, np.max(np.abs(from_left)))
    assert np.max(np.abs(recombined - from_split)) <= 1e-13 * scale


def _samples(n, kind, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n + 2))
    return f + 1j * rng.standard_normal(f.shape) if kind == "complex" else f


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 5, 201, 801])
def test_cumulative_integral_is_scipys_trapezoid_bit_for_bit(n, kind):
    from scipy.integrate import cumulative_trapezoid

    g = Grid1D(1.3, n)
    f = _samples(n, kind, n)
    for axis, y in ((0, f), (1, f.T), (0, f[:, 1])):
        for origin in sorted({0, g.center, n - 1, n // 3}):
            acc = cumulative_trapezoid(y, dx=g.h, initial=0.0, axis=axis)
            want = acc - np.take(acc, [origin], axis=axis)
            got = cumulative_integral(g, y, origin, axis=axis)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (axis, origin)


# ------------------------------------------------------------ derivatives

def test_dx_quadratic_exact(grid):
    x, _ = grid.meshes()
    out = d_x(grid, x**2)
    np.testing.assert_allclose(interior(out), interior(2 * x), atol=1e-12)


def test_dx_constant_zero(grid):
    out = d_x(grid, np.ones(grid.shape))
    np.testing.assert_array_equal(out, np.zeros(grid.shape))


def test_dx_sine_oracle(grid):
    x, _ = grid.meshes()
    err = interior_max(d_x(grid, np.sin(x)) - np.cos(x))
    assert err <= 2e-5


def test_dy_matches_dx_transposed(grid):
    x, y = grid.meshes()
    f = np.sin(x) * np.cos(y) + x * y**2
    np.testing.assert_allclose(d_y(grid, f), d_x(grid, f.T).T, atol=1e-14)


def test_wirtinger_on_holomorphic(grid):
    z = grid.zmesh()
    assert interior_max(d_zbar(grid, z)) <= 1e-13
    np.testing.assert_allclose(interior(d_z(grid, z)), np.ones(grid.shape)[1:-1, 1:-1], atol=1e-13)
    assert interior_max(d_zbar(grid, z**2)) <= 1e-12


def test_wirtinger_on_antiholomorphic(grid):
    z = grid.zmesh()
    np.testing.assert_allclose(interior(d_zbar(grid, np.conj(z))), np.ones(grid.shape)[1:-1, 1:-1], atol=1e-13)


def test_wirtinger_x_squared(grid):
    x, _ = grid.meshes()
    np.testing.assert_allclose(interior(d_zbar(grid, x**2 + 0j)), interior(x + 0j), atol=1e-12)


def test_laplacian_paraboloid_exact(grid):
    x, y = grid.meshes()
    out = laplacian(grid, x**2 + y**2)
    np.testing.assert_allclose(interior(out), 4.0 * np.ones(grid.shape)[1:-1, 1:-1], atol=1e-10)


def test_laplacian_harmonic_exact(grid):
    x, y = grid.meshes()
    assert interior_max(laplacian(grid, x**2 - y**2)) <= 1e-10


def test_laplacian_product_sine_oracle(grid):
    x, y = grid.meshes()
    f = np.sin(x) * np.sin(y)
    err = interior_max(laplacian(grid, f) + 2.0 * f)
    assert err <= 5e-5


@pytest.mark.parametrize("op", [d_x, d_z, laplacian])
def test_convergence_order(op):
    def residual(n):
        g = Grid2D.square(1.0, n)
        x, y = g.meshes()
        f = np.exp(x) * np.sin(2 * y) + x**3 * y
        if op is d_x:
            exact = np.exp(x) * np.sin(2 * y) + 3 * x**2 * y
        elif op is d_z:
            exact = 0.5 * (np.exp(x) * np.sin(2 * y) + 3 * x**2 * y) - 0.5j * (
                2 * np.exp(x) * np.cos(2 * y) + x**3
            )
        else:
            exact = np.exp(x) * np.sin(2 * y) + 6 * x * y - 4 * np.exp(x) * np.sin(2 * y)
        return interior_max(op(g, f) - exact, margin=2)

    coarse, fine = residual(101), residual(201)
    assert 3.5 <= coarse / fine <= 4.5


def _layouts(f):
    """The same samples as views with other strides, and a 1-D cut."""
    views = {"c": f, "transposed": f.T, "reversed": f[::-1, ::-1], "column": f[:, 1]}
    if np.iscomplexobj(f):
        views.update(real=f.real, imag=f.T.imag)
    return views


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5, 21, 201, 401])
def test_stencils_are_the_textbook_expressions_bit_for_bit(n, kind):
    h = 2.0 / (n - 1)
    for layout, f in _layouts(_samples(n, kind, 7 * n)[:, :n]).items():
        for axis in range(f.ndim):
            fm = np.moveaxis(f, axis, 0)
            d1 = np.empty_like(fm)
            d1[1:-1] = (fm[2:] - fm[:-2]) / (2.0 * h)
            d1[0] = (-3.0 * fm[0] + 4.0 * fm[1] - fm[2]) / (2.0 * h)
            d1[-1] = (3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3]) / (2.0 * h)
            d2 = np.empty_like(fm)
            d2[1:-1] = (fm[2:] - 2.0 * fm[1:-1] + fm[:-2]) / (h * h)
            if n >= 4:
                d2[0] = (2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3]) / (h * h)
                d2[-1] = (2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4]) / (h * h)
            else:  # 3 nodes: the central value is replicated
                d2[0] = d2[-1] = d2[1]
            got1, got2 = _first_derivative(f, h, axis), _second_derivative(f, h, axis)
            assert got1.dtype == got2.dtype == f.dtype
            assert np.array_equal(got1, np.moveaxis(d1, 0, axis)), (layout, axis)
            assert np.array_equal(got2, np.moveaxis(d2, 0, axis)), (layout, axis)


# ------------------------------------------------------ division oracle
# The kernels with every division by the step left to numpy's division, which
# divides a complex array by a real scalar with Smith's quotient.  The shipped
# kernels multiply a complex array by the reciprocal instead; the values must
# be the same, and a real array must keep its bits.

def _oracle_first_derivative(f, h, axis):
    f = np.asarray(f)
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, np.float64))
    step = int(np.prod(f.shape[axis + 1:]))
    ff, mid = f.reshape(-1), out.reshape(-1)[step:f.size - step]
    np.subtract(ff[2 * step:], ff[:f.size - 2 * step], out=mid)
    mid /= 2.0 * h
    fm = f.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    om[0] = (-3.0 * fm[0] + 4.0 * fm[1] - fm[2]) / (2.0 * h)
    om[-1] = (3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3]) / (2.0 * h)
    return out


def _oracle_second_derivative(f, h, axis):
    f = np.asarray(f)
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, np.float64))
    step = int(np.prod(f.shape[axis + 1:]))
    ff, mid = f.reshape(-1), out.reshape(-1)[step:f.size - step]
    h2 = h * h
    np.multiply(ff[step:f.size - step], 2.0, out=mid)
    np.subtract(ff[2 * step:], mid, out=mid)
    mid += ff[:f.size - 2 * step]
    mid /= h2
    fm = f.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    if f.shape[axis] >= 4:
        om[0] = (2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3]) / h2
        om[-1] = (2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4]) / h2
    else:
        om[0] = om[1]
        om[-1] = om[1]
    return out


def _oracle_cumulative_trapezoid(y, h, origin_index, axis, out):
    ym = y.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    om[0] = 0.0
    body = om[1:]
    np.add(ym[1:], ym[:-1], out=body)
    body *= h
    body /= 2.0
    if body.ndim == 1:
        np.cumsum(body, out=body)
    else:
        for k in range(1, len(body)):
            np.add(body[k - 1], body[k], out=body[k])
    om -= om[origin_index].copy()
    return out


_ORACLES = {
    "_first_derivative": _oracle_first_derivative,
    "_second_derivative": _oracle_second_derivative,
    "_cumulative_trapezoid": _oracle_cumulative_trapezoid,
}


def _oracle_layouts(n, kind):
    """C-order, F-order, strided and 1-D samples of magnitudes 1e-8..1e8,
    with 5 % exact zeros in each real part."""
    rng = np.random.default_rng(n)

    def part():
        x = rng.standard_normal((2 * n, 3 * n)) * 10.0 ** rng.uniform(-8, 8, (2 * n, 3 * n))
        x[rng.random(x.shape) < 0.05] = 0.0
        return x

    base = part() + 1j * part() if kind == "complex" else part()
    c = np.ascontiguousarray(base[:n, :n + 2])
    return {"c": c, "f": np.asfortranarray(c), "strided": base[::2, ::3], "column": c[:, 1]}


def _same_values(got, want):
    """Equal values; for a real array also equal bits (the sign of zero)."""
    if got.dtype != want.dtype:
        return False
    if np.iscomplexobj(want):
        return np.array_equal(got, want)
    return np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5, 21, 201])
def test_kernels_equal_the_division_oracle(n, kind):
    # 1/0.0123 and 1/(2 * 0.0123) are not exact in binary
    for h in (0.0123, 2.0 / (n - 1)):
        for layout, f in _oracle_layouts(n, kind).items():
            for axis in range(f.ndim):
                where = (layout, axis, h)
                assert _same_values(_first_derivative(f, h, axis),
                                    _oracle_first_derivative(f, h, axis)), where
                assert _same_values(_second_derivative(f, h, axis),
                                    _oracle_second_derivative(f, h, axis)), where
                m = f.shape[axis]
                if m % 2:  # a Grid1D has an odd node count
                    g = Grid1D(h * (m - 1) / 2, m)
                    want = np.empty(f.shape, dtype=np.result_type(f.dtype, np.float64))
                    _oracle_cumulative_trapezoid(f, g.h, g.center, axis, want)
                    assert _same_values(cumulative_integral(g, f, axis=axis), want), where


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 5, 21, 201, 801])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trapezoid_into_a_reused_out_equals_the_row_loop(n, kind):
    # the out array of a Picard sweep is reused: whatever it holds must not
    # reach the result, be scaled (1.7e308 * 2.9 overflows) or raise a
    # warning.  C layout along axis 1 takes the flattened path; "seams" holds
    # 1e308 at both ends of every row seam, a sum that overflows only across
    # the seam, so it takes the row-wise path and must stay silent.  "tiny"
    # has subnormal sums and products, and -0 in its first rows and columns
    layouts = _oracle_layouts(n, kind)
    del layouts["column"]
    tiny = layouts["c"] * 1e-306
    tiny[:2] = tiny[:, :2] = -5e-324
    layouts["tiny"] = tiny
    seams = layouts["c"].copy()
    seams[:, 0] = seams[:, -1] = 1e308
    layouts["seams"] = seams
    for layout, f in layouts.items():
        for axis, h in ((1, 0.0123),) if layout == "seams" else ((0, 0.0123), (1, 2.9)):
            m = f.shape[axis]
            for origin in sorted({0, m // 2, m - 1}):
                want = np.empty(f.shape, dtype=f.dtype)
                _oracle_cumulative_trapezoid(f, h, origin, axis, want)
                for fill in (np.nan, np.inf, -np.inf, 1.7e308):
                    got = np.full(f.shape, fill, dtype=f.dtype)
                    _cumulative_trapezoid(f, h, origin, axis, got)
                    assert _same_values(got, want), (layout, axis, origin, fill)


@pytest.mark.parametrize("family, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                            ("quadratic", (1.0, -0.5))])
def test_battery_rows_equal_those_of_the_division_oracle(family, params, monkeypatch):
    cfg = RunConfig(n1=61, n2=61, sp_name=family, sp_params=params)
    shipped = run_battery(cfg)
    # every module that imported a kernel runs the oracle in its place
    for name, oracle in _ORACLES.items():
        kernel = getattr(vekua.grid, name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "vekua"]:
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, oracle)
    assert run_battery(cfg) == shipped


# ---------------------------------------------------------- path integrals

def test_lpath_gradient_reconstruction(grid):
    x, y = grid.meshes()
    phi = x**2 + y**2
    grad = d_zbar(grid, phi)
    rebuilt = lpath_field(grid, np.real(grad), np.imag(grad))
    assert np.max(np.abs(rebuilt - phi)) <= 1e-10


def test_lpath_zero_integrand(grid):
    zeros = np.zeros(grid.shape)
    np.testing.assert_array_equal(lpath_field(grid, zeros, zeros), zeros)


def test_lpath_exponential_oracle(grid):
    x, y = grid.meshes()
    phi = np.exp(x + y)
    grad = d_zbar(grid, phi)
    rebuilt = lpath_field(grid, np.real(grad), np.imag(grad))
    assert np.max(np.abs(rebuilt - (phi - 1.0))) <= 5e-4


def test_lpath_complex_polynomial(grid):
    z = grid.zmesh()
    out = lpath_complex(grid, np.ones(grid.shape, dtype=complex))
    np.testing.assert_allclose(out, z, atol=1e-12)
    out2 = lpath_complex(grid, 2.0 * z)
    np.testing.assert_allclose(out2, z**2, atol=1e-10)
