"""Exact relations under the maps that carry solutions to solutions.

Each relation holds for the discrete operators bit for bit or to rounding,
so a fault far below the O(h^2) truncation error that the battery's caps
allow still breaks it:

* the successor: chi1 -> -chi1 turns the main construction into the
  successor one (powers, generating pair, pair integral, T1, V1 and V1bar);
* chi -> -chi: if W solves the main Vekua equation for chi, iW solves it
  for -chi;
* the transpose T(x, y) = (y, x): conj(W o T) solves it for chi o T;
* the L-path integral's exact inverse: on each leg the difference quotients
  are the trapezoid averages of the integrand.
"""

import numpy as np
import pytest

import vekua.formal_powers as formal_powers
import vekua.operators as ops
from vekua.corpus import corpus_scale, smooth_corpus
from vekua.formal_powers import _PowerStack, assemble_formal_powers, fg_integral
from vekua.grid import Grid1D, Grid2D, _second_derivative, lpath_complex
from vekua.superpotential import Superpotential, generating_pair, make_superpotential
from vekua.transmutation import Transmute2D, build_transmute_2d

EPS = np.finfo(float).eps
GRIDS = {"61x61": Grid2D.square(1.0, 61),
         "121x59": Grid2D(Grid1D(1.0, 121), Grid1D(0.5, 59))}
COEFFICIENTS = (1.0, 1j, 0.3 - 0.7j)
SYMMETRIC = [("linear", (0.5, -1.0)), ("quadratic", (1.0, -0.5))]


def _superpotential(name, params, grid):
    if name == "tabulated":
        return make_superpotential(name, (), grid, chi1_table=np.log(np.cosh(grid.gx.nodes)),
                                   chi2_table=-0.7 * np.log(np.cosh(grid.gy.nodes)))
    return make_superpotential(name, params, grid)


def _bits(a):
    a = np.ascontiguousarray(a)
    return (a.view(float) if np.iscomplexobj(a) else a).view(np.uint64)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _odd_pair(sp):
    """The second pair of the period-two sequence, written out for ``sp``."""
    return sp.exp_chi(-1.0, 1.0), 1j * sp.exp_chi(1.0, -1.0)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("name, params", [
    ("zero", ()), ("linear", (0.5, -1.0)), ("linear", (-0.0, 2.0)),
    ("quadratic", (1.0, -0.5)), ("tabulated", ())])
def test_successor_is_the_main_construction_on_the_flipped_chi1(name, params, grid,
                                                                monkeypatch):
    sp = _superpotential(name, params, grid)
    spt = sp.successor()
    table = assemble_formal_powers(sp, 6)
    # the successor powers, wired by hand: the main factors with phi and phi_t swapped
    aux = table.aux
    by_hand_one = _PowerStack((aux.phi_t, aux.psi), (aux.phi, aux.psi_t), False)
    by_hand_i = _PowerStack((aux.phi, aux.psi_t), (aux.phi_t, aux.psi), True)
    for n in range(7):
        for a in COEFFICIENTS:
            want = a.real * by_hand_one[n] + a.imag * by_hand_i[n]
            _assert_same_bits(table.successor().power(n, a), want)
            _assert_same_bits(table.power_succ(n, a), want)
    for got, want in zip(generating_pair(spt), _odd_pair(sp)):
        _assert_same_bits(got, want)
    t2d = build_transmute_2d(sp)
    # T0 of the successor, from its own profiles and from the operators of sp
    t0_succ = (build_transmute_2d(spt).t0,
               Transmute2D(spt, t2d.tx_tilde, t2d.ty, t2d.tx, t2d.ty_tilde).t0)
    for w in [w for _, w in smooth_corpus(grid)] + [table.power(3, 0.3 - 0.7j)]:
        t1 = t2d.t1(w)
        for t0 in t0_succ:
            _assert_same_bits(t0(w), t1)
        _assert_same_bits(ops.vekua_v(spt, w), ops.vekua_v1(sp, w))
        _assert_same_bits(ops.vekua_vbar(spt, w), ops.vekua_v1bar(sp, w))
        got = fg_integral(spt, w)
        with monkeypatch.context() as m:
            m.setattr(formal_powers, "generating_pair", _odd_pair)
            _assert_same_bits(got, fg_integral(sp, w))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("name, params", SYMMETRIC)
def test_chi_to_minus_chi_maps_solutions_exactly(name, params, grid):
    sp = make_superpotential(name, params, grid)
    flipped = Superpotential(sp.ax.flipped(), sp.ay.flipped())
    table, table_f = assemble_formal_powers(sp, 6), assemble_formal_powers(flipped, 6)
    for n in range(7):
        for a in COEFFICIENTS:
            assert np.array_equal(table_f.power(n, a), 1j * table.power(n, -1j * a)), (n, a)
    t2d = build_transmute_2d(sp)
    # the operators of -chi are those of chi in another order: no new solve
    t2d_f = Transmute2D(flipped, t2d.tx_tilde, t2d.ty_tilde, t2d.tx, t2d.ty)
    for _, w in smooth_corpus(grid):
        assert np.array_equal(ops.vekua_v(flipped, 1j * w), 1j * ops.vekua_v(sp, w))
        assert np.array_equal(t2d_f.t0(w), 1j * t2d.t0(-1j * w))


def _transposed(sp):
    """chi o T: the two axis profiles, and so their grids, swapped."""
    return Superpotential(sp.ay, sp.ax)


def _h0_transpose_gap(sp):
    """max |H0_{chi o T}[f o T] - H0_chi[f] o T| over the real and imaginary
    parts f of the corpus fields, each over the corpus scale of f."""
    sp_t = _transposed(sp)
    worst = 0.0
    for _, w in smooth_corpus(sp.grid):
        for f in (w.real, w.imag):
            gap = np.max(np.abs(ops.h0(sp_t, f.T) - ops.h0(sp, f).T))
            worst = max(worst, gap / corpus_scale(sp.grid, f))
    return worst


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("name, params", SYMMETRIC)
def test_transpose_maps_solutions_to_rounding(name, params, grid):
    sp = make_superpotential(name, params, grid)
    assert _h0_transpose_gap(sp) == 0.0
    # V_{chi o T}[conj(W o T)] = i conj(V_chi[W]) o T; at most 0.33 eps measured
    sp_t = _transposed(sp)
    for _, w in smooth_corpus(grid):
        want = 1j * np.conj(ops.vekua_v(sp, w)).T
        gap = np.max(np.abs(ops.vekua_v(sp_t, np.conj(w.T)) - want))
        assert gap <= 2.0 * EPS * corpus_scale(grid, w)


@pytest.mark.parametrize("name, params", SYMMETRIC)
def test_transpose_relation_fails_a_small_laplacian_fault(name, params, monkeypatch):
    # the Laplacian's y part x (1 + 1e-5): at n = 61 every row of the battery
    # passes under this fault on both families, while the H0 transpose
    # relation reads 2.3e-5 (0 on correct code)
    def faulty(grid, f):
        f = grid.check(f)
        lap = _second_derivative(f, grid.gx.h, axis=0)
        lap += (1.0 + 1e-5) * _second_derivative(f, grid.gy.h, axis=1)
        return lap

    monkeypatch.setattr(ops, "laplacian", faulty)
    sp = make_superpotential(name, params, GRIDS["61x61"])
    assert _h0_transpose_gap(sp) > 1e-5


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
def test_lpath_integral_has_an_exact_inverse(grid):
    # each difference of n-term cumulative sums rounds to about eps max|F|,
    # and dividing by h scales that by about n: 0.56 n eps measured on 61x61
    # and 0.45 n eps on 121x59, relative to max|w|
    _, j0 = grid.center
    for _, w in smooth_corpus(grid):
        lp = lpath_complex(grid, w)
        x_leg = np.diff(lp[:, j0]) / grid.gx.h - 0.5 * (w[:-1, j0] + w[1:, j0])
        y_leg = np.diff(lp, axis=1) / grid.gy.h - 0.5j * (w[:, :-1] + w[:, 1:])
        bound = 2.0 * max(grid.shape) * EPS * np.max(np.abs(w))
        assert np.max(np.abs(x_leg)) <= bound
        assert np.max(np.abs(y_leg)) <= bound
