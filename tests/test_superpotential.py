import numpy as np
import pytest

from vekua.grid import Grid1D, Grid2D, _first_derivative, _second_derivative
from vekua.superpotential import AxisProfile, generating_pair, make_superpotential


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def quad(grid):
    return make_superpotential("quadratic", (1.0, 1.0), grid)


def test_zero_family(grid):
    sp = make_superpotential("zero", (), grid)
    assert np.all(sp.ax.chi[:, None] + sp.ay.chi[None, :] == 0)
    assert np.all(sp.u0() == 0)
    assert np.all(sp.u2() == 0)
    p11, p22 = sp.matrix_potential()
    assert np.all(p11 == 0) and np.all(p22 == 0)


def test_quadratic_family_symbolic(grid, quad):
    x, y = grid.meshes()
    chi = quad.ax.chi[:, None] + quad.ay.chi[None, :]
    np.testing.assert_allclose(chi, (x**2 + y**2) / 2, atol=1e-14)
    np.testing.assert_allclose(quad.u0(), x**2 + y**2 - 2.0, atol=1e-13)
    np.testing.assert_allclose(quad.u2(), x**2 + y**2 + 2.0, atol=1e-13)


def test_linear_family_hand_derivative(grid):
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    x, _ = grid.meshes()
    np.testing.assert_allclose(sp.ax.chi[:, None] + sp.ay.chi[None, :], x, atol=1e-14)
    # q1 = (chi1')^2 + chi1'' = 1
    np.testing.assert_allclose(sp.ax.q, np.ones(grid.gx.n), atol=1e-14)
    np.testing.assert_allclose(sp.u0(), np.ones(grid.shape), atol=1e-14)
    np.testing.assert_allclose(sp.u2(), np.ones(grid.shape), atol=1e-14)


def test_unknown_family(grid):
    with pytest.raises(ValueError, match="unknown superpotential family"):
        make_superpotential("cubic", (1.0,), grid)


def test_param_arity(grid):
    with pytest.raises(ValueError, match="'quadratic' takes 2 parameters, got 1"):
        make_superpotential("quadratic", (1.0,), grid)
    with pytest.raises(ValueError, match="'zero' takes 0 parameters, got 1"):
        make_superpotential("zero", (1.0,), grid)
    zeros = np.zeros(grid.gx.n), np.zeros(grid.gy.n)
    with pytest.raises(ValueError, match="'tabulated' takes 0 parameters, got 3"):
        make_superpotential("tabulated", (5, 7, 9), grid, *zeros)


@pytest.mark.parametrize(
    "name, params", [("zero", ()), ("linear", (0.5, -1.0)), ("quadratic", (1.0, -0.5))]
)
def test_negated_parameters_give_the_flipped_axes(name, params):
    # the catalog is linear in its parameters, so -p describes -chi exactly
    grid = Grid2D.square(1.0, 61)
    plain = make_superpotential(name, params, grid)
    negated = make_superpotential(name, tuple(-p for p in params), grid)
    char_nodes = Grid1D(1.0, 2 * 61 - 1).nodes
    for axis in ("ax", "ay"):
        flipped, want = getattr(plain, axis).flipped(), getattr(negated, axis)
        for samples in ("chi", "dchi", "d2chi"):
            assert np.array_equal(getattr(flipped, samples), getattr(want, samples))
        assert np.array_equal(flipped.q_at(char_nodes), want.q_at(char_nodes))
        assert flipped.h_param == want.h_param


def test_tabulated_roundtrip(grid):
    chi1 = np.sinh(grid.gx.nodes) * 0.3
    chi2 = 0.2 * grid.gy.nodes**2
    sp = make_superpotential("tabulated", (), grid, chi1_table=chi1, chi2_table=chi2)
    np.testing.assert_allclose(sp.ax.dchi, 0.3 * np.cosh(grid.gx.nodes), atol=5e-5)
    # off the nodes the potential is the linear interpolant of its samples
    mid = grid.gx.nodes[:-1] + grid.gx.h / 2
    np.testing.assert_allclose(sp.ax.q_at(mid), 0.5 * (sp.ax.q[:-1] + sp.ax.q[1:]), atol=1e-12)


def test_tabulated_derivatives_are_the_stencils_of_the_samples(grid):
    chi1 = 0.5 * grid.gx.nodes**2
    chi2 = -0.25 * grid.gy.nodes**2
    sp = make_superpotential("tabulated", (), grid, chi1_table=chi1, chi2_table=chi2)
    for profile, samples in ((sp.ax, chi1), (sp.ay, chi2)):
        dchi = _first_derivative(samples, profile.grid.h, axis=0)
        d2chi = _second_derivative(samples, profile.grid.h, axis=0)
        # bit for bit, the sign of zero included
        assert np.array_equal(profile.dchi.view(np.uint64), dchi.view(np.uint64))
        assert np.array_equal(profile.d2chi.view(np.uint64), d2chi.view(np.uint64))


def test_tabulated_second_derivative_is_second_order_at_the_ends():
    # chi = log cosh s has chi'' = sech^2 s, which no stencil reproduces exactly
    errors = []
    for n in (61, 121, 241):
        axis = Grid1D(1.0, n)
        profile = AxisProfile(axis, chi=np.log(np.cosh(axis.nodes)))
        exact = 1.0 / np.cosh(axis.nodes) ** 2
        errors.append(max(abs(profile.d2chi[k] - exact[k]) for k in (0, -1)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_axis_profile_takes_exactly_one_definition(grid):
    samples = 0.5 * grid.gx.nodes**2
    with pytest.raises(ValueError, match="exactly one of chi and poly"):
        AxisProfile(grid.gx, chi=samples, poly=(0.0, 1.0))
    with pytest.raises(ValueError, match="exactly one of chi and poly"):
        AxisProfile(grid.gx)
    # the two definitions of chi = s^2/2 agree on the nodes
    poly, table = AxisProfile(grid.gx, poly=(0.0, 1.0)), AxisProfile(grid.gx, chi=samples)
    assert np.array_equal(poly.chi, table.chi)
    np.testing.assert_allclose(table.dchi, poly.dchi, atol=1e-13)
    np.testing.assert_allclose(table.d2chi, poly.d2chi, atol=1e-11)


def test_superpotential_grid_is_that_of_its_axes(grid):
    sp = make_superpotential("linear", (0.5, -1.0), grid)
    assert sp.grid.gx is sp.ax.grid is grid.gx and sp.grid.gy is sp.ay.grid is grid.gy


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_and_samples_are_refused(grid, bad):
    with pytest.raises(ValueError, match="parameters must be finite"):
        make_superpotential("linear", (0.5, bad), grid)
    chi = np.zeros(grid.gx.n)
    chi[3] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        make_superpotential("tabulated", (), grid, chi1_table=np.zeros(grid.gx.n), chi2_table=chi)


def test_tabulated_rejects_nonzero_origin(grid):
    chi1 = np.full(grid.gx.n, 0.5)
    with pytest.raises(ValueError, match="vanish"):
        make_superpotential("tabulated", (), grid, chi1_table=chi1, chi2_table=np.zeros(grid.gy.n))


@pytest.mark.parametrize("polys, shared", [
    ([(1.5, 0.0), (-1.5, 0.0), (1.5, -0.0), (-1.5, -0.0)], True),
    ([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)], True),
    ([(0.0, 1.0), (-0.0, 1.0)], True),
    ([(1.5, 1.0), (-1.5, -1.0)], False),  # q = c2 + (c1 + c2 s)^2 is not even in c2
])
def test_potential_key_names_the_bits_of_q(polys, shared):
    # equal keys give bit-equal q on every point the Goursat solve samples,
    # the ends of the interval and past them included
    grid = Grid1D(1.0, 21)
    u = grid.refined().nodes
    s = np.concatenate([u[:, None] + u[None, :], [[-0.0, 0.0, -3.0, 3.0]]], axis=None)
    profiles = [AxisProfile(grid, poly=p) for p in polys]
    keys = {p.potential_key for p in profiles}
    assert len(keys) == (1 if shared else len(profiles))
    if shared:
        want = profiles[0].q_at(s).view(np.uint64)
        for p in profiles:
            assert np.array_equal(p.q_at(s).view(np.uint64), want)
    # tabulated, the samples of q name it, never equal to a poly key; the
    # half-width is part of every key
    table = AxisProfile(grid, chi=profiles[-1].chi)
    assert table.potential_key != profiles[-1].potential_key
    assert table.potential_key == AxisProfile(grid, chi=table.chi.copy()).potential_key
    assert AxisProfile(Grid1D(2.0, 21), poly=polys[0]).potential_key not in keys


def test_u0_of_flipped_chi_is_u2(grid, quad):
    flipped = make_superpotential("quadratic", (-1.0, -1.0), grid)
    np.testing.assert_array_equal(flipped.u0(), quad.u2())


def test_generating_pair_nondegenerate(grid, quad):
    f, g = generating_pair(quad)
    assert np.min(np.abs(np.imag(np.conj(f) * g))) > 0
    np.testing.assert_allclose(f, quad.exp_chi(1.0), atol=0)
    np.testing.assert_allclose(g, 1j * quad.exp_chi(-1.0), atol=0)


@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (0.5, -1.0)),
                                          ("linear", (-0.0, 2.0)), ("quadratic", (1.0, -0.5)),
                                          ("tabulated", ())])
def test_successor_has_period_two_exactly(grid, name, params):
    # the successor of the successor has axis profiles with the same bytes
    x, y = grid.gx.nodes, grid.gy.nodes
    tables = ({"chi1_table": np.log(np.cosh(x)), "chi2_table": -0.7 * np.log(np.cosh(y))}
              if name == "tabulated" else {})
    sp = make_superpotential(name, params, grid, **tables)
    twice = sp.successor().successor()
    for got, want in ((twice.ax, sp.ax), (twice.ay, sp.ay)):
        for attr in ("chi", "dchi", "d2chi"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
    # the successor flips chi1 alone (by value: a flipped poly profile
    # evaluates its negated coefficients, so a zero may change sign)
    once = sp.successor()
    assert np.array_equal(once.ax.chi, -sp.ax.chi)
    assert once.ay is sp.ay


@pytest.mark.parametrize("name, params", [("zero", ()), ("linear", (0.5, -1.0))])
def test_derived_fields_are_built_once_and_read_only(grid, name, params):
    sp = make_superpotential(name, params, grid)
    for method in (sp.dz_chi, sp.dzbar_chi, sp.u0, sp.u2):
        field = method()
        assert method() is field
        with pytest.raises(ValueError):
            field[0, 0] = 1.0
    p11, p22 = sp.matrix_potential()
    assert sp.matrix_potential()[0] is p11
    for field in (p11, p22):
        with pytest.raises(ValueError):
            field[0, 0] = 1.0
    # exp_chi depends on its exponents and is a fresh writable array each call
    assert sp.exp_chi(1.0) is not sp.exp_chi(1.0)
    sp.exp_chi(1.0)[0, 0] = 0.0
