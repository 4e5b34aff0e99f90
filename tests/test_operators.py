import warnings

import numpy as np
import pytest

import vekua.operators as ops
from vekua.conjugate import conjugate_from_w1, conjugate_from_w2
from vekua.corpus import corpus_scale, smooth_corpus
from vekua.errors import KernelMembershipError
from vekua.expansion import fit_formal_polynomial
from vekua.formal_powers import assemble_formal_powers
from vekua.grid import Grid2D, d_z, d_zbar, interior_max, laplacian
from vekua.superpotential import make_superpotential


@pytest.fixture(scope="module")
def grid():
    return Grid2D.square(1.0, 201)


@pytest.fixture(scope="module")
def quad(grid):
    return make_superpotential("quadratic", (1.0, 1.0), grid)


@pytest.fixture(scope="module")
def zero_sp(grid):
    return make_superpotential("zero", (), grid)


@pytest.fixture(scope="module")
def corpus(grid):
    return list(smooth_corpus(grid))


H2 = 1e-4  # h^2 on the default 201-node grid


def test_q_minus_annihilates_zero_mode(grid):
    sp = make_superpotential("linear", (1.0, 0.0), grid)
    mode = sp.exp_chi(-1.0)
    assert interior_max(ops.q_op(sp, 1, -1, mode)) <= 1e-4


def test_q_reduces_to_derivative_for_zero_chi(grid, zero_sp):
    x, y = grid.meshes()
    f = x**2 * y
    np.testing.assert_allclose(ops.q_op(zero_sp, 1, +1, f), -2 * x * y, atol=1e-10)
    np.testing.assert_allclose(ops.q_op(zero_sp, 2, -1, f), x**2, atol=1e-10)


def test_commutator_q_minus_q_plus(grid, quad):
    # [q_i^-, q_j^+] = 2 d_i d_j chi; on f = 1 with quadratic chi this is diag(2, 2)
    f = np.ones(grid.shape)
    for i in (1, 2):
        for j in (1, 2):
            lhs = ops.q_op(quad, i, -1, ops.q_op(quad, j, +1, f)) - ops.q_op(
                quad, j, +1, ops.q_op(quad, i, -1, f)
            )
            expected = 2.0 if i == j else 0.0
            np.testing.assert_allclose(lhs, expected * f, atol=1e-10)


def test_p_is_epsilon_contraction(grid, quad, corpus):
    f = np.real(corpus[0][1])
    np.testing.assert_array_equal(ops.p_op(quad, 1, +1, f), ops.q_op(quad, 2, -1, f))
    np.testing.assert_array_equal(ops.p_op(quad, 2, -1, f), -ops.q_op(quad, 1, +1, f))


def test_h0_zero_mode(grid, quad):
    assert interior_max(ops.h0(quad, quad.exp_chi(-1.0)), margin=2) <= 1e-3


def test_h2_zero_mode(grid, quad):
    assert interior_max(ops.h2(quad, quad.exp_chi(1.0)), margin=2) <= 1e-3


def test_h0_is_minus_laplacian_for_zero_chi(grid, zero_sp):
    x, y = grid.meshes()
    out = ops.h0(zero_sp, x**2 + y**2)
    np.testing.assert_allclose(out[1:-1, 1:-1], -4.0, atol=1e-10)


def test_vekua_annihilates_generating_pair(grid, quad):
    assert interior_max(ops.vekua_v(quad, quad.exp_chi(1.0) + 0j)) <= 10 * H2
    assert interior_max(ops.vekua_v(quad, 1j * quad.exp_chi(-1.0))) <= 10 * H2


def test_vekua_v1_annihilates_successor_pair(grid, quad):
    from vekua.superpotential import generating_pair

    f1, g1 = generating_pair(quad, 1)
    assert interior_max(ops.vekua_v1(quad, f1)) <= 10 * H2
    assert interior_max(ops.vekua_v1(quad, g1)) <= 10 * H2


def test_vekua_reduces_to_dzbar(grid, zero_sp):
    z = grid.zmesh()
    assert interior_max(ops.vekua_v(zero_sp, z**2)) <= 1e-12


def test_conjugation_identity_exact(grid, quad, corpus):
    # C V = Vbar C nodewise
    for _, w in corpus:
        lhs = np.conj(ops.vekua_v(quad, w))
        rhs = ops.vekua_vbar(quad, np.conj(w))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)
        lhs1 = np.conj(ops.vekua_v1(quad, w))
        rhs1 = ops.vekua_v1bar(quad, np.conj(w))
        np.testing.assert_allclose(lhs1, rhs1, atol=1e-13)


def test_bers_derivative_trivial_cases(grid, zero_sp, quad):
    z = grid.zmesh()
    np.testing.assert_allclose(
        ops.vekua_vbar(zero_sp, z**2)[1:-1, 1:-1], 2 * z[1:-1, 1:-1], atol=1e-10
    )
    assert interior_max(ops.vekua_vbar(quad, quad.exp_chi(1.0) + 0j)) <= 10 * H2


def test_projection_roundtrip(grid):
    w = np.full(grid.shape, 1.0 + 2.0j)
    c1, c2 = ops.project(w)
    np.testing.assert_array_equal(c1, 2.0 * np.ones(grid.shape))
    np.testing.assert_array_equal(c2, np.ones(grid.shape))


def test_darboux_kills_constants_for_zero_chi(grid, zero_sp):
    v = (np.ones(grid.shape), np.ones(grid.shape))
    out = ops.darboux(zero_sp, v)
    assert interior_max(out[0]) == 0.0
    assert interior_max(out[1]) == 0.0


def test_darboux_projection_identities(grid, quad, corpus):
    # DP = 2 P Vbar and companions hold exactly for the discrete operators
    for _, w in corpus:
        pw = ops.project(w)
        scale = corpus_scale(grid, w)
        checks = [
            (ops.darboux(quad, pw), ops.project(2.0 * ops.vekua_vbar(quad, w))),
            (ops.darboux_adjoint(quad, pw), ops.project(-2.0 * ops.vekua_v1(quad, w))),
            (ops.pseudo_darboux(quad, pw), ops.project(2.0 * ops.vekua_v1bar(quad, w))),
            (ops.pseudo_darboux_adjoint(quad, pw), ops.project(-2.0 * ops.vekua_v(quad, w))),
        ]
        for got, want in checks:
            assert interior_max(got[0] - want[0]) <= 1e-13 * scale
            assert interior_max(got[1] - want[1]) <= 1e-13 * scale


def test_darboux_factorization(grid, quad, corpus):
    for _, w in corpus:
        v = (np.real(w), np.imag(w))
        scale = max(corpus_scale(grid, v[0]), corpus_scale(grid, v[1]))
        dd = ops.darboux_adjoint(quad, ops.darboux(quad, v))
        hv = ops.h_diag(quad, v)
        assert interior_max(dd[0] - hv[0], margin=2) <= 100 * H2 * scale
        assert interior_max(dd[1] - hv[1], margin=2) <= 100 * H2 * scale
        dd1 = ops.darboux(quad, ops.darboux_adjoint(quad, v))
        h1v = ops.h1(quad, v)
        assert interior_max(dd1[0] - h1v[0], margin=2) <= 100 * H2 * scale
        assert interior_max(dd1[1] - h1v[1], margin=2) <= 100 * H2 * scale


def test_pseudo_darboux_factorization(grid, quad, corpus):
    _, w = corpus[0]
    v = (np.real(w), np.imag(w))
    scale = max(corpus_scale(grid, v[0]), corpus_scale(grid, v[1]))
    lhs = ops.pseudo_darboux(quad, ops.pseudo_darboux_adjoint(quad, v))
    hv = ops.h_diag(quad, v)
    assert interior_max(lhs[0] - hv[0], margin=2) <= 100 * H2 * scale
    assert interior_max(lhs[1] - hv[1], margin=2) <= 100 * H2 * scale
    lhs1 = ops.pseudo_darboux_adjoint(quad, ops.pseudo_darboux(quad, v))
    h1t = ops.h1(quad, v)
    assert interior_max(lhs1[0] - h1t[0], margin=2) <= 100 * H2 * scale
    assert interior_max(lhs1[1] - h1t[1], margin=2) <= 100 * H2 * scale


def test_nilpotency(grid, quad, corpus):
    for _, w in corpus:
        f = np.real(w)
        scale = corpus_scale(grid, f)
        s1 = sum(ops.p_op(quad, k, +1, ops.q_op(quad, k, -1, f)) for k in (1, 2))
        s2 = sum(ops.q_op(quad, k, +1, ops.p_op(quad, k, -1, f)) for k in (1, 2))
        assert interior_max(s1, margin=2) <= 100 * H2 * scale
        assert interior_max(s2, margin=2) <= 100 * H2 * scale


def test_intertwining_relations(grid, quad, corpus):
    f = np.real(corpus[0][1])
    scale = corpus_scale(grid, f)
    for i in (1, 2):
        # H1 is diagonal for separable chi: only the k = i term of each sum remains
        r1 = ops.h0(quad, ops.q_op(quad, i, +1, f)) - ops.q_op(
            quad, i, +1, ops.h1_element(quad, i, f)
        )
        r2 = ops.q_op(quad, i, -1, ops.h0(quad, f)) - ops.h1_element(
            quad, i, ops.q_op(quad, i, -1, f)
        )
        r3 = ops.h2(quad, ops.p_op(quad, i, +1, f)) - ops.p_op(
            quad, i, +1, ops.h1_element(quad, i, f)
        )
        r4 = ops.p_op(quad, i, -1, ops.h2(quad, f)) - ops.h1_element(
            quad, i, ops.p_op(quad, i, -1, f)
        )
        for r in (r1, r2, r3, r4):
            assert interior_max(r, margin=2) <= 100 * H2 * scale


def test_factorization_through_vekua_operators(grid, quad, corpus):
    for _, w in corpus:
        scale = corpus_scale(grid, w)
        pw = ops.project(w)
        hp = ops.h_diag(quad, pw)
        inner = ops.project(4.0 * ops.vekua_v1(quad, ops.vekua_vbar(quad, w)))
        assert interior_max(hp[0] + inner[0], margin=2) <= 100 * H2 * scale
        assert interior_max(hp[1] + inner[1], margin=2) <= 100 * H2 * scale
        inner2 = ops.project(4.0 * ops.vekua_v1bar(quad, ops.vekua_v(quad, w)))
        assert interior_max(hp[0] + inner2[0], margin=2) <= 100 * H2 * scale
        h1p = ops.h1(quad, pw)
        inner3 = ops.project(4.0 * ops.vekua_vbar(quad, ops.vekua_v1(quad, w)))
        assert interior_max(h1p[0] + inner3[0], margin=2) <= 100 * H2 * scale
        h1tp = ops.h1(quad, pw)
        inner4 = ops.project(4.0 * ops.vekua_v(quad, ops.vekua_v1bar(quad, w)))
        assert interior_max(h1tp[0] + inner4[0], margin=2) <= 100 * H2 * scale


def test_identity_residuals_shrink_at_order_two():
    def residual(n):
        g = Grid2D.square(1.0, n)
        sp = make_superpotential("quadratic", (1.0, 1.0), g)
        x, y = g.meshes()
        w = (x**3 - y + 1) * np.exp(-(x**2 + y**2)) + 1j * (x * y**2)
        v = (np.real(w), np.imag(w))
        dd = ops.darboux_adjoint(sp, ops.darboux(sp, v))
        hv = ops.h_diag(sp, v)
        return max(
            interior_max(dd[0] - hv[0], margin=2), interior_max(dd[1] - hv[1], margin=2)
        )

    assert 3.5 <= residual(101) / residual(201) <= 4.5


def test_one_kernel_check_serves_the_fit_and_both_conjugates():
    # chi = 0: ker h0 = ker h2 = harmonic fields, so every caller of
    # require_kernel must accept the same member and reject the same
    # non-member, here on a coarse grid where an absolute cap cannot tell
    grid = Grid2D.square(1.0, 21)
    sp = make_superpotential("zero", (), grid)
    table = assemble_formal_powers(sp, 3)
    x, y = grid.meshes()
    callers = (
        lambda f: fit_formal_polynomial(sp, f, table, "ker_h0", 3),
        lambda f: fit_formal_polynomial(sp, f, table, "ker_h2", 3),
        lambda f: conjugate_from_w1(sp, f),
        lambda f: conjugate_from_w2(sp, f),
    )
    for call in callers:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(np.exp(x) * np.cos(y))
        with pytest.raises(KernelMembershipError, match="is not in ker h"):
            call(np.exp(x * y))


@pytest.mark.parametrize("n", [21, 201])
def test_kernel_check_accepts_members_of_any_amplitude(n):
    # A x has no truncation error: its residual is rounding, about eps A / h^2,
    # which a cap of 50 h^2 T alone refused from A = 1e10 (n = 201)
    sp = make_superpotential("zero", (), Grid2D.square(1.0, n))
    x, y = sp.grid.meshes()
    for amplitude in 10.0 ** np.arange(8, 17):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (amplitude * x, amplitude * (x**2 - y**2)):
                ops.require_kernel(sp, ops.h0, f, "member")
                ops.require_kernel(sp, ops.h2, f, "member")
        for f in (np.exp(x * y), amplitude * np.exp(x * y)):
            with pytest.raises(KernelMembershipError, match="is not in ker h0"):
                ops.require_kernel(sp, ops.h0, f, "non-member")


@pytest.mark.parametrize("node", [(30, 20), (0, 5)])
def test_kernel_check_rejects_non_finite_fields(node):
    # one NaN node, inside the margin-2 interior (its residual is NaN, which
    # no cap comparison rejects) or on the boundary (outside the residual's
    # reach): neither the fit nor a conjugate may return a non-finite result
    sp = make_superpotential("linear", (0.5, -1.0), Grid2D.square(1.0, 61))
    table = assemble_formal_powers(sp, 3)
    member = table.power(2, 1.0)
    callers = (
        lambda f: fit_formal_polynomial(sp, np.imag(f), table, "ker_h0", 3),
        lambda f: fit_formal_polynomial(sp, np.real(f), table, "ker_h2", 3),
        lambda f: conjugate_from_w1(sp, np.real(f)),
        lambda f: conjugate_from_w2(sp, np.imag(f)),
    )
    for value in (np.nan, np.inf):
        spoilt = member.copy()
        spoilt[node] = complex(value, value)
        for call in callers:
            with pytest.raises(KernelMembershipError, match="non-finite"):
                call(spoilt)


def test_coarse_grid_kernel_members_raise_no_warning():
    # the largest member reading in the envelope behind KERNEL_WARN: degree-6
    # powers of linear (-1, -1) at n = 21 (Im Z^6(1) reads 13.3 h^2 T)
    sp = make_superpotential("linear", (-1.0, -1.0), Grid2D.square(1.0, 21))
    table = assemble_formal_powers(sp, 6)
    for z in (table.z_one[6], table.z_i[6]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_formal_polynomial(sp, np.imag(z), table, "ker_h0", 6)
            conjugate_from_w2(sp, np.imag(z))
            fit_formal_polynomial(sp, np.real(z), table, "ker_h2", 6)
            conjugate_from_w1(sp, np.real(z))


def _fresh_coefficient_oracles():
    """The operators with every coefficient field built afresh on each call,
    written with the same expressions (and the same temporaries)."""

    def dz_chi(sp):
        return 0.5 * (sp.ax.dchi[:, None] - 1j * sp.ay.dchi[None, :])

    def dzbar_chi(sp):
        return 0.5 * (sp.ax.dchi[:, None] + 1j * sp.ay.dchi[None, :])

    def u0(sp):
        return (sp.ax.dchi**2 - sp.ax.d2chi)[:, None] + (sp.ay.dchi**2 - sp.ay.d2chi)[None, :]

    def u2(sp):
        return (sp.ax.dchi**2 + sp.ax.d2chi)[:, None] + (sp.ay.dchi**2 + sp.ay.d2chi)[None, :]

    def h1(sp, v):
        u = u0(sp)
        p11 = u + 2.0 * sp.ax.d2chi[:, None]
        p22 = u + 2.0 * sp.ay.d2chi[None, :]
        c1, c2 = v
        return (
            -laplacian(sp.grid, c1) + p11 * c1,
            -laplacian(sp.grid, c2) + p22 * c2,
        )

    return {
        "vekua_v": lambda sp, w: d_zbar(sp.grid, w) - dzbar_chi(sp) * np.conj(w),
        "vekua_vbar": lambda sp, w: d_z(sp.grid, w) - dz_chi(sp) * np.conj(w),
        "vekua_v1": lambda sp, w: d_zbar(sp.grid, w) + dz_chi(sp) * np.conj(w),
        "vekua_v1bar": lambda sp, w: d_z(sp.grid, w) + dzbar_chi(sp) * np.conj(w),
        "h0": lambda sp, f: -laplacian(sp.grid, f) + u0(sp) * np.asarray(f),
        "h2": lambda sp, f: -laplacian(sp.grid, f) + u2(sp) * np.asarray(f),
        "h1": h1,
    }


def _bits(a):
    a = np.asarray(a)
    return (a.view(float) if np.iscomplexobj(a) else a).view(np.uint64)


@pytest.mark.parametrize(
    "name, params", [("zero", ()), ("linear", (0.5, -1.0)), ("quadratic", (1.0, -0.5))]
)
def test_operators_on_built_once_fields_are_bit_for_bit(grid, corpus, name, params):
    sp = make_superpotential(name, params, grid)
    table = assemble_formal_powers(sp, 3)
    fields = [w for _, w in corpus] + [table.power(3, 1.0 - 0.5j), table.power_succ(2, 1j)]
    oracles = _fresh_coefficient_oracles()
    for _ in range(2):  # the second round reads every coefficient from the memo
        for w in fields:
            for op in ("vekua_v", "vekua_vbar", "vekua_v1", "vekua_v1bar"):
                got = getattr(ops, op)(sp, w)
                np.testing.assert_array_equal(_bits(got), _bits(oracles[op](sp, w)), err_msg=op)
            for op in ("h0", "h2"):
                for f in (w.real, w.imag):
                    got = getattr(ops, op)(sp, f)
                    np.testing.assert_array_equal(_bits(got), _bits(oracles[op](sp, f)), err_msg=op)
            pair = (w.real, w.imag)
            for got, want in zip(ops.h1(sp, pair), oracles["h1"](sp, pair)):
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg="h1")
