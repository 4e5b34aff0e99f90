"""One-shot verification battery over every operator identity.

The battery is the registry :data:`CHECKS`: one :class:`Check` per report
row, in report order, each naming the relation it tests, the function that
measures it on one resolution, its cap model (which decides whether it is
also measured on the refinement, spacing halved), whether the ratio window
applies, and which superpotential families it covers.
:func:`run_battery` is one loop over the registry; nothing else lists the
checks, and the registry is the only source of caps: a run's configuration
names the grid and the superpotential, nothing else.

Claims of the source paper's abstract, with the rows that measure them:
factorization by one Vekua and one Bers derivative operator
(``factorization``, ``supercharge_factorization``); solutions of a Vekua
equation and of its Bers derivative give ground states (``ground_state_h``,
``ground_state_h1``, which takes the successor's n Z1^{n-1}(a) as the
Bers derivative of Z^n(a): no row forms it); the Darboux and pseudo-Darboux
transformations are Bers derivatives (``darboux_projection``); completeness of
the ground states (no row yet); the separable case through transmutation
operators (``transmute_powers``, ``t0_t1_powers``, ``diagram_differential``,
``diagram_integral``); the Hamiltonian components tied to the Laplacian
(``diagram_laplacian``).  The other rows check what these rest on.

A measure yields each residual it computes (each component of a pair on
its own); :func:`run_battery` takes their maximum as the row's residual at
each resolution.  A NaN residual makes that maximum NaN, and a NaN fails
both the cap and the ratio window, so a non-finite value is never dropped.

Each resolution is a level that holds only what its next residual reads
(see :class:`_Level`).  The rows measured on the smooth corpus (a
``per_field`` :class:`Check`) share one pass over it: the level makes one
field at a time, with its images (T0 w, T1 w) when it measures a diagram
row, every corpus row it measures takes its residuals of that field, and the
field and its images are dropped before the next field is made; each row
then reads its residuals, as floats, from that pass.

Cap models:

* ``h2_cap``: the cap is that multiple of h^2 (times a per-field scale where
  the identity is measured on the smooth corpus), the truncation error of
  the second-order stencils and quadratures.  Only these rows have an order
  to measure, so only they are also measured on the refinement.
* ``abs_cap``: a fixed absolute cap, for checks whose error does not scale
  with h (a coefficient recovered by an exact self-fit, a commutation that
  holds to rounding).
* neither: the measurement returns ``(residual, cap)``, a bound it works out
  itself (the Taylor round-trip's stencil-noise bar), instead of yielding
  residuals.

Ratio window: a second-order scheme shrinks a truncation residual by about 4
when the spacing halves, so for checks with ``ratio_window`` the coarse/fine
ratio must also lie in :data:`RATIO_WINDOW`.  Some identities hold exactly
for the discrete operators (pure stencil algebra, e.g. the projection
intertwining of the Darboux matrices); their residuals sit at rounding
level, where an order of convergence is undefined.  A coarse residual at or
below :data:`RATIO_FLOOR` is therefore reported as "exact": the refined
level is not measured, the ratio column reads ``exact`` and the window is
not applied.

A measurement that raises :class:`~vekua.errors.KernelMembershipError` (its
own input left the kernel it needs), on either resolution, is a failing row
whose note carries the error, whose residual, cap and ratio read ``nan``
(``null`` in the JSON report, as every non-finite number) and whose refined
level, if not yet measured, is not measured; non-convergence still
propagates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import conjugate as conj
from . import operators as ops
from .corpus import corpus_scale, smooth_corpus
from .errors import ConfigError, KernelMembershipError
from .expansion import evaluate_series, fit_formal_polynomial, taylor_coefficients
from .formal_powers import (
    FormalPowerTable,
    assemble_formal_powers,
    fg_integral,
)
from .grid import (
    Grid1D,
    Grid2D,
    d_z,
    d_zbar,
    interior_max,
    laplacian,
    lpath_complex,
)
from .superpotential import Superpotential, make_superpotential
from .transmutation import Transmute2D, build_transmute_2d

__all__ = ["RunConfig", "Row", "Check", "CHECKS", "checks_for", "run_battery",
           "render_report", "rows_to_json"]

RATIO_WINDOW = (3.5, 4.5)
RATIO_FLOOR = 1e-11  # coarse residuals below this are machine-exact identities
N_MAX = 6  # highest formal-power degree the battery builds


@dataclass
class RunConfig:
    """Grid and superpotential of one run, and the one place they are built.

    Each builder refuses what it cannot build with a
    :class:`~vekua.errors.ConfigError`: :meth:`grid` the half-widths and node
    counts :class:`~vekua.grid.Grid1D` refuses, :meth:`superpotential` the
    family, parameters or samples :func:`~vekua.superpotential.make_superpotential`
    refuses, and :meth:`formal_powers` a table that overflows to a non-finite
    value.  The CLI builds its subcommands through them, and
    :func:`run_battery` its configured grid.  The CLI builds the record from
    these defaults and its flags alone.  Caps live in :data:`CHECKS` only."""

    half_width1: float = 1.0
    half_width2: float = 1.0
    n1: int = 201
    n2: int = 201
    sp_name: str = "zero"
    sp_params: tuple[float, ...] = ()

    def grid(self) -> Grid2D:
        try:
            return Grid2D(Grid1D(self.half_width1, self.n1), Grid1D(self.half_width2, self.n2))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def superpotential(self, grid: Grid2D, **tables) -> Superpotential:
        """The configured family on ``grid``; ``tables`` are the tabulated
        family's ``chi1_table`` and ``chi2_table`` samples."""
        try:
            return make_superpotential(self.sp_name, self.sp_params, grid, **tables)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def formal_powers(self, sp: Superpotential, n_max: int) -> FormalPowerTable:
        """The formal-power table of ``sp`` up to ``n_max``, refused without a
        numpy warning if it overflows to a non-finite value: an overflow of the
        1-D systems before any power is assembled, and otherwise a non-finite
        power of it or its successor, found by assembling and checking each."""
        params = ",".join(map(str, self.sp_params)) or "none"
        overflow = ConfigError(f"--sp {self.sp_name} with --params {params} overflows the "
                               f"formal powers up to degree {n_max} to a non-finite value on "
                               "this grid")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                table = assemble_formal_powers(sp, n_max)
                succ = table.successor()
            except OverflowError as exc:
                raise overflow from exc
            # a power is assembled as it is read, so the scan holds one degree at a time
            stacks = (table.z_one, table.z_i, succ.z_one, succ.z_i)
            finite = all(np.isfinite(stack[n]).all()
                         for n in range(n_max + 1) for stack in stacks)
        if not finite:
            raise overflow
        return table


@dataclass
class Row:
    name: str
    tag: str
    grid: str
    residual: float
    cap: float
    ratio: float | None
    ratio_checked: bool
    passed: bool
    note: str = ""


class _Level:
    """Everything the checks need at one resolution, each built on first use.

    A level measures ``checks`` and holds only what their next residual
    reads: the superpotential, the formal-power table (1-D systems, fit
    designs and the successor table), the four axis operators (matrices and
    defects), the self-fit, and the corpus rows' residuals as floats.  No
    corpus field, nor its transmuted images, outlives the residuals taken
    from it (:attr:`corpus_residuals`).
    """

    def __init__(self, cfg: RunConfig, grid: Grid2D, checks: list["Check"]):
        self.cfg = cfg
        self.grid = grid
        self.checks = checks
        self.h2_unit = grid.hmax**2

    @cached_property
    def sp(self) -> Superpotential:
        return self.cfg.superpotential(self.grid)

    @cached_property
    def table(self) -> FormalPowerTable:
        return assemble_formal_powers(self.sp, N_MAX)

    @cached_property
    def t2d(self) -> Transmute2D:
        return build_transmute_2d(self.sp)

    @cached_property
    def corpus_residuals(self) -> dict[str, list[float] | str]:
        """The residuals of each corpus row this level measures, by row name,
        or the message of the :class:`~vekua.errors.KernelMembershipError`
        that stopped the row.

        One pass over the corpus serves every such row: it makes one field
        at a time, each row takes its residuals of that field through its
        per-field measure, and the field is dropped, with its (T0 w, T1 w) if
        a diagram row built them, before the next field is made.  A row whose
        measure raises is not measured on the later fields; the other rows
        go on."""
        measures = {check.name: check.measure for check in self.checks if check.per_field}
        residuals: dict[str, list[float] | str] = {name: [] for name in measures}
        for _, w in smooth_corpus(self.grid):
            fld = _CorpusField(self, w)
            for name, measure in measures.items():
                if isinstance(residuals[name], str):
                    continue
                try:
                    residuals[name].extend(measure(self, fld))
                except KernelMembershipError as exc:
                    residuals[name] = str(exc)
            del w, fld  # before the next field is made
        return residuals

    def residuals(self, check: "Check"):
        """What ``check.measure`` gives on this level; a corpus row's
        residuals come from :attr:`corpus_residuals`, and a corpus row stopped
        there raises its error again."""
        if not check.per_field:
            return check.measure(self)
        residuals = self.corpus_residuals[check.name]
        if isinstance(residuals, str):
            raise KernelMembershipError(residuals)
        return residuals

    @cached_property
    def self_fit(self):
        """(n, fit): Im Z^n(i), n = 3, fitted in the ker h0 basis."""
        n_slot = 3
        target = np.imag(self.table.z_i[n_slot])
        fit = fit_formal_polynomial(self.sp, target, self.table, "ker_h0", degree=4)
        return n_slot, fit


class _CorpusField:
    """One smooth corpus field of a level, with its scales and its images
    (T0 w, T1 w), each computed on first use and dropped with the field."""

    def __init__(self, level: _Level, w: np.ndarray):
        self.level = level
        self.w = w

    @cached_property
    def scale(self) -> float:
        return corpus_scale(self.level.grid, self.w)

    @cached_property
    def scale_re(self) -> float:
        return corpus_scale(self.level.grid, np.real(self.w))

    @cached_property
    def scale_im(self) -> float:
        return corpus_scale(self.level.grid, np.imag(self.w))

    @cached_property
    def images(self) -> tuple[np.ndarray, np.ndarray]:
        return self.level.t2d.t0_t1(self.w)


# -- residual measurements: each yields its scale-normalized residuals, and the
# row's residual is their maximum (see :func:`_worst`).  A corpus row's
# measure yields those of one corpus field (see :attr:`_Level.corpus_residuals`) --

def _res_zero_mode(level: _Level, op, sign: float):
    sp = level.sp
    mode = sp.exp_chi(sign)
    yield interior_max(op(sp, mode), margin=2) / max(1.0, float(np.max(np.abs(mode))))


def _res_vekua_powers(level: _Level, op, table: FormalPowerTable):
    for n in range(6):
        for stack in (table.z_one, table.z_i):  # Z^n(1), then Z^n(i)
            yield interior_max(op(level.sp, stack[n]), margin=2)


def _res_ground_state_h(level: _Level):
    sp, table = level.sp, level.table
    for n in range(5):
        for stack in (table.z_one, table.z_i):
            for g in ops.h_diag(sp, ops.project(stack[n])):
                yield interior_max(g, margin=2)


def _res_ground_state_h1(level: _Level):
    sp, table = level.sp, level.table.successor()
    for n in range(1, 5):
        for stack in (table.z_one, table.z_i):
            deriv = n * stack[n - 1]
            for g in ops.h1(sp, ops.project(deriv)):
                yield interior_max(g, margin=2)


def _component_gaps(combine, got, want, scale: float):
    """interior_max(combine(a, b)) / scale for each component pair of ``got``
    and ``want``.  A measure passes each (got, want) pair as it builds it, so
    the pair is freed once its residuals are taken, before the next is built."""
    for a, b in zip(got, want):
        yield interior_max(combine(a, b), margin=2) / scale


def _res_darboux_projection(level: _Level, fld: _CorpusField):
    sp, w, scale = level.sp, fld.w, fld.scale
    pairs = (
        (ops.darboux, 2.0, ops.vekua_vbar),
        (ops.darboux_adjoint, -2.0, ops.vekua_v1),
        (ops.pseudo_darboux, 2.0, ops.vekua_v1bar),
        (ops.pseudo_darboux_adjoint, -2.0, ops.vekua_v),
    )
    pw = ops.project(w)
    for darboux, c, vekua in pairs:
        yield from _component_gaps(np.subtract, darboux(sp, pw),
                                   ops.project(c * vekua(sp, w)), scale)


def _res_factorization(level: _Level, fld: _CorpusField):
    sp, w, scale = level.sp, fld.w, fld.scale
    # H P (resp. H1 P) against -4 P of each product of two Vekua operators
    groups = (
        (ops.h_diag, ((ops.vekua_v1, ops.vekua_vbar), (ops.vekua_v1bar, ops.vekua_v))),
        (ops.h1, ((ops.vekua_vbar, ops.vekua_v1), (ops.vekua_v, ops.vekua_v1bar))),
    )
    pw = ops.project(w)
    for hamiltonian, products in groups:
        left = hamiltonian(sp, pw)
        for outer, inner in products:
            yield from _component_gaps(np.add, left,
                                       ops.project(4.0 * outer(sp, inner(sp, w))), scale)


def _res_intertwining(level: _Level, fld: _CorpusField):
    sp, f, scale = level.sp, np.real(fld.w), fld.scale_re
    h0f, h2f = ops.h0(sp, f), ops.h2(sp, f)
    for i in (1, 2):
        # H1 is diagonal for separable chi, so each sum over k is its k = i term
        h1f = ops.h1_element(sp, i, f)
        r1 = ops.h0(sp, ops.q_op(sp, i, +1, f)) - ops.q_op(sp, i, +1, h1f)
        r2 = ops.q_op(sp, i, -1, h0f) - ops.h1_element(sp, i, ops.q_op(sp, i, -1, f))
        r3 = ops.h2(sp, ops.p_op(sp, i, +1, f)) - ops.p_op(sp, i, +1, h1f)
        r4 = ops.p_op(sp, i, -1, h2f) - ops.h1_element(sp, i, ops.p_op(sp, i, -1, f))
        for r in (r1, r2, r3, r4):
            yield interior_max(r, margin=2) / scale


def _res_supercharge_factorization(level: _Level, fld: _CorpusField):
    sp = level.sp
    # D^+ D = H and D D^+ = H1, and the same for the pseudo-Darboux pair
    groups = (
        (ops.h_diag, ((ops.darboux_adjoint, ops.darboux),
                      (ops.pseudo_darboux, ops.pseudo_darboux_adjoint))),
        (ops.h1, ((ops.darboux, ops.darboux_adjoint),
                  (ops.pseudo_darboux_adjoint, ops.pseudo_darboux))),
    )
    v = (np.real(fld.w), np.imag(fld.w))
    scale = max(fld.scale_re, fld.scale_im)
    for hamiltonian, products in groups:
        want = hamiltonian(sp, v)
        for outer, inner in products:
            yield from _component_gaps(np.subtract, outer(sp, inner(sp, v)), want, scale)


def _res_nilpotency(level: _Level, fld: _CorpusField):
    sp, f, scale = level.sp, np.real(fld.w), fld.scale_re
    for outer, inner in ((ops.p_op, ops.q_op), (ops.q_op, ops.p_op)):
        s = sum(outer(sp, k, +1, inner(sp, k, -1, f)) for k in (1, 2))
        yield interior_max(s, margin=2) / scale


def _res_transmute_powers(level: _Level):
    phi = level.table.aux.phi
    t_x = level.t2d.tx
    x = level.sp.grid.gx.nodes
    for k in range(6):
        got = t_x.along_x(x**k)
        want = phi[k]
        yield float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _res_t0_t1_powers(level: _Level):
    main, succ = level.table, level.table.successor()
    z = level.sp.grid.zmesh()
    for n in range(5):
        for a, z0, z1 in ((1.0, main.z_one, succ.z_one), (1j, main.z_i, succ.z_i)):
            t0, t1 = level.t2d.t0_t1(a * z**n)
            yield float(np.max(np.abs(t0 - z0[n])))
            yield float(np.max(np.abs(t1 - z1[n])))


# -- the diagram rows, on a corpus field's images (T0 w, T1 w) --

def _diagram_differential(level: _Level, fld: _CorpusField):
    sp = level.sp
    t0w, t1w = fld.images
    # V T0 w = T1 dzbar w and V1 T1 w = T0 dzbar w; the same with d_z for the
    # conjugate operators
    pairs = ((d_zbar, ops.vekua_v, ops.vekua_v1), (d_z, ops.vekua_vbar, ops.vekua_v1bar))
    for deriv, v0, v1 in pairs:
        t0_d, t1_d = level.t2d.t0_t1(deriv(sp.grid, fld.w))
        yield from _component_gaps(np.subtract, (v0(sp, t0w), v1(sp, t1w)),
                                   (t1_d, t0_d), fld.scale)


def _diagram_integral(level: _Level, fld: _CorpusField):
    sp = level.sp
    t0w, t1w = fld.images
    # the first pair integral's work arrays come and go before the images of
    # int w are built, and each image goes once its residual is taken
    first = fg_integral(sp.successor(), t0w)
    t0_anti, t1_anti = level.t2d.t0_t1(lpath_complex(sp.grid, fld.w))
    first -= t1_anti
    del t1_anti
    yield interior_max(first, margin=1) / fld.scale
    del first
    yield interior_max(fg_integral(sp, t1w) - t0_anti, margin=1) / fld.scale


def _diagram_laplacian(level: _Level, fld: _CorpusField):
    sp = level.sp
    t0w, t1w = fld.images
    t0_lap, t1_lap = level.t2d.t0_t1(laplacian(sp.grid, fld.w))
    pairs = [
        (ops.h_diag(sp, ops.project(t0w)), ops.project(t0_lap)),
        (ops.h1(sp, ops.project(t1w)), ops.project(t1_lap)),
    ]
    for left, lap in pairs:
        for a, b in zip(left, lap):
            yield interior_max(a + b, margin=2) / fld.scale


def _res_conjugate(level: _Level):
    sp, table = level.sp, level.table
    z = table.z_one[1]
    result = conj.conjugate_from_w1(sp, np.real(z))
    _, resid = conj.fit_gauge(sp, result.partner, np.imag(z), kernel=0)
    yield resid


def _res_fit_self_residual(level: _Level):
    yield level.self_fit[1].residual_max


def _res_fit_self_coefficients(level: _Level):
    n_slot, fit = level.self_fit
    coef = fit.coefficients.copy()
    unit = fit.coefficient(n_slot, "i")
    coef[2 * n_slot + 1] = 0.0
    yield abs(unit - 1.0)
    yield float(np.max(np.abs(coef)))


def _res_taylor_roundtrip(level: _Level):
    sp, table = level.sp, level.table
    n = 3
    w = table.z_one[n]
    coeffs = taylor_coefficients(sp, w, degree=4)
    series = evaluate_series(coeffs, table)
    # the half-radius box: each axis loses a quarter of its intervals at both ends
    sub = tuple(slice((n - 1) // 4, n - (n - 1) // 4) for n in sp.grid.shape)
    resid = float(np.max(np.abs((series - w)[sub])))
    bound = 10.0 * level.h2_unit
    for m, u in enumerate(coeffs.uncertainty):
        basis = np.abs(table.z_one[m][sub]) + np.abs(table.z_i[m][sub])
        bound += u * float(np.max(basis))
    return resid, bound


def _res_analytic_limit(level: _Level):
    table = level.table
    z = level.sp.grid.zmesh()
    for n in range(N_MAX + 1):
        yield interior_max(table.z_one[n] - z**n, margin=1)


def _res_t_commute(level: _Level, fld: _CorpusField):
    t2d, f, scale = level.t2d, np.real(fld.w), fld.scale_re
    # its own products, not the field's images: the residual is the rounding-level
    # difference between the two orders of the axis products
    ab = t2d.tx.along_x(t2d.ty.along_y(f))
    ba = t2d.ty.along_y(t2d.tx.along_x(f))
    yield float(np.max(np.abs(ab - ba))) / scale


@dataclass(frozen=True)
class Check:
    """One battery row: what it measures, its cap model and its ratio policy.

    ``measure`` yields the residuals of one resolution; the row's residual is
    their maximum, NaN if any is NaN, and a NaN residual fails the row.  A
    ``per_field`` row is measured on the smooth corpus: its ``measure`` takes
    the level and one corpus field and yields that field's residuals, and the
    level's one pass over the corpus (:attr:`_Level.corpus_residuals`) gathers
    them over every field.
    Exactly one cap model applies: ``h2_cap`` (multiple of h^2), ``abs_cap``
    (fixed), or neither, in which case ``measure`` returns ``(residual,
    cap)``; no run configuration overrides it.  Only an ``h2_cap`` row is also
    measured on the refinement.  ``families`` limits the check to those
    superpotential families; ``None`` covers all.
    """

    name: str
    tag: str
    measure: Callable
    h2_cap: float | None = None
    abs_cap: float | None = None
    ratio_window: bool = False
    families: tuple[str, ...] | None = None
    per_field: bool = False
    note: str = ""


CHECKS: tuple[Check, ...] = (
    Check("zero_mode_h0", "H0[exp(-chi)] = 0", lambda lv: _res_zero_mode(lv, ops.h0, -1.0),
          h2_cap=10.0),
    Check("zero_mode_h2", "H2[exp(chi)] = 0", lambda lv: _res_zero_mode(lv, ops.h2, 1.0),
          h2_cap=10.0),
    Check("vekua_main_powers", "V[Z^n(a)] = 0, n<=5", h2_cap=100.0, ratio_window=True,
          measure=lambda lv: _res_vekua_powers(lv, ops.vekua_v, lv.table)),
    Check("vekua_succ_powers", "V1[Z1^n(a)] = 0, n<=5", h2_cap=100.0, ratio_window=True,
          measure=lambda lv: _res_vekua_powers(lv, ops.vekua_v1, lv.table.successor())),
    Check("ground_state_h", "H P[Z^n(a)] = 0, n<=4", _res_ground_state_h, h2_cap=200.0),
    Check("ground_state_h1", "H1 P[dZ^n(a)] = 0, n<=4", _res_ground_state_h1, h2_cap=200.0),
    Check("darboux_projection", "DP = 2P Vbar (+3 companions)", _res_darboux_projection,
          h2_cap=100.0, ratio_window=True, per_field=True),
    Check("factorization", "HP = -4P V1 Vbar (+3 companions)", _res_factorization,
          h2_cap=100.0, ratio_window=True, per_field=True),
    Check("intertwining", "H0 qi+ = sum_k qk+ H1_ki (4 forms)", _res_intertwining,
          h2_cap=100.0, ratio_window=True, per_field=True),
    Check("supercharge_factorization", "Dadj D = H, D Dadj = H1, pseudo variants",
          _res_supercharge_factorization, h2_cap=100.0, ratio_window=True, per_field=True),
    Check("nilpotency", "sum_k pk+ qk- = 0 = sum_k qk+ pk-", _res_nilpotency,
          h2_cap=100.0, ratio_window=True, per_field=True),
    # relative error; equals 1e-2 at axis spacing 5e-3
    Check("transmute_powers", "T1[x^k] = phi_k, k<=5 (relative)", _res_transmute_powers,
          h2_cap=400.0, ratio_window=True),
    Check("t0_t1_powers", "T0[a z^n] = Z^n(a), T1[a z^n] = Z1^n(a), n<=4", _res_t0_t1_powers,
          h2_cap=300.0, ratio_window=True),
    Check("diagram_differential", "V T0 = T1 dzbar (+3 companions)", _diagram_differential,
          h2_cap=300.0, ratio_window=True, per_field=True),
    Check("diagram_integral", "pair-int T0[w] = T1[int w] (+ swap)", _diagram_integral,
          h2_cap=300.0, ratio_window=True, per_field=True),
    Check("diagram_laplacian", "H P T0 = -P T0 lap, H1 P T1 = -P T1 lap", _diagram_laplacian,
          h2_cap=300.0, ratio_window=True, per_field=True),
    Check("conjugate_reconstruction", "Im Z^1(1) from Re Z^1(1), gauge-fitted", _res_conjugate,
          h2_cap=50.0, ratio_window=True),
    Check("fit_self_residual", "self-fit of a basis member", _res_fit_self_residual,
          h2_cap=10.0),
    Check("fit_self_coefficients", "unit on-slot, zero off-slot", _res_fit_self_coefficients,
          abs_cap=1e-6),
    Check("taylor_roundtrip", "series(coefficients(Z^3)) on half-radius box",
          _res_taylor_roundtrip, note="cap is the reported stencil-noise bound"),
    Check("transmute_commute", "T1 T2 = T2 T1", _res_t_commute, abs_cap=1e-12,
          per_field=True),
    # Z^n(1) - z^n is the O(h^2) trapezoid error of the 1-D systems: 33-39 h^2 at n = 41..201
    Check("analytic_limit", "Z^n(1) = z^n for vanishing superpotential, n<=6",
          _res_analytic_limit, h2_cap=50.0, ratio_window=True, families=("zero",)),
)


def checks_for(sp_name: str) -> list[Check]:
    """The registry entries that cover a superpotential family, in report order."""
    return [c for c in CHECKS if c.families is None or sp_name in c.families]


def _worst(residuals) -> float:
    """The largest of a measure's residuals, or NaN if any is NaN."""
    return float(np.max(np.fromiter(residuals, float)))


def _measure_level(level: _Level, measure: Callable) -> dict:
    """``measure(check, level)`` for each check of the level in registry order,
    or its "not measured: ..." note."""
    results: dict[str, object] = {}
    for check in level.checks:
        try:
            results[check.name] = measure(check, level)
        except KernelMembershipError as exc:
            # the message, not the exception: its traceback would hold the level
            results[check.name] = f"not measured: {exc}"
    return results


def _measure_coarse(check: Check, level: _Level) -> tuple[float, float]:
    """(residual, cap) of a check on the configured grid."""
    if check.h2_cap is not None:
        return _worst(level.residuals(check)), check.h2_cap * level.h2_unit
    if check.abs_cap is not None:
        return _worst(level.residuals(check)), check.abs_cap
    return level.residuals(check)


def run_battery(cfg: RunConfig) -> list[Row]:
    """Measure every registered identity at the configured grid and its refinement.

    One level is alive at a time: every check runs on the configured grid, that
    level is released, and the refinement is built for the ``h2_cap`` rows whose
    coarse residual is not exact.  Checks run, and rows come back, in registry
    order.

    The configured grid is input from outside, refused like every other
    subcommand's input: a grid, family or formal-power table of it that
    :class:`RunConfig` cannot build raises its
    :class:`~vekua.errors.ConfigError` before any check is measured, and so
    does a grid whose refinement :class:`~vekua.grid.Grid1D` refuses.  The
    refinement is derived from it: its formal powers are the library's plain
    assembly, whose errors propagate as raised (an ``OverflowError``, say)."""
    checks = checks_for(cfg.sp_name)
    grid = cfg.grid()
    try:
        fine_grid = grid.refined()
    except ValueError as exc:  # a squared spacing that is normal until it is quartered
        raise ConfigError(f"the refinement of this grid: {exc}") from exc
    level = _Level(cfg, grid, checks)
    level.table = cfg.formal_powers(level.sp, N_MAX)
    coarse = _measure_level(level, _measure_coarse)
    del level  # the refinement is built with no coarse array alive
    # a NaN residual is not exact
    to_refine = [c for c in checks if c.h2_cap is not None
                 and not isinstance(coarse[c.name], str) and not coarse[c.name][0] <= RATIO_FLOOR]
    fine = _measure_level(_Level(cfg, fine_grid, to_refine),
                          lambda check, level: _worst(level.residuals(check)))
    grid_label = f"{cfg.n1}x{cfg.n2}"
    rows: list[Row] = []
    for check in checks:
        # a "not measured" note from either level
        note = fine.get(check.name, coarse[check.name])
        if isinstance(note, str):
            rows.append(Row(check.name, check.tag, grid_label, np.nan, np.nan, np.nan,
                            check.ratio_window, False, note))
            continue
        residual, cap = coarse[check.name]
        ratio = None
        if check.name in fine:
            # max keeps its first argument when that is NaN, so is the ratio
            ratio = residual / max(fine[check.name], np.finfo(float).tiny)
        passed = residual <= cap
        if check.ratio_window and ratio is not None:
            passed = passed and (RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1])
        rows.append(Row(check.name, check.tag, grid_label, residual, cap, ratio,
                        check.ratio_window, passed, check.note))
    return rows


def render_report(rows: list[Row], cfg: RunConfig) -> str:
    head = (
        f"verification report\n"
        f"grid [{-cfg.half_width1},{cfg.half_width1}]x[{-cfg.half_width2},{cfg.half_width2}] "
        f"n=({cfg.n1},{cfg.n2}), refined ({2 * cfg.n1 - 1},{2 * cfg.n2 - 1})\n"
        f"superpotential {cfg.sp_name} {list(cfg.sp_params)}\n"
    )
    lines = [head]
    name_w = max(len(r.name) for r in rows) + 2
    tag_w = max(len(r.tag) for r in rows) + 2
    lines.append(
        f"{'identity':<{name_w}}{'relation':<{tag_w}}{'grid':<10}"
        f"{'residual':<14}{'cap':<14}{'ratio':<10}verdict"
    )
    for r in rows:
        ratio = f"{r.ratio:.2f}" if r.ratio is not None else "exact"
        lines.append(
            f"{r.name:<{name_w}}{r.tag:<{tag_w}}{r.grid:<10}"
            f"{r.residual:<14.3e}{r.cap:<14.3e}{ratio:<10}"
            f"{'pass' if r.passed else 'FAIL'}"
        )
    n_fail = sum(not r.passed for r in rows)
    lines.append("")
    lines.append(f"{len(rows)} identities, {n_fail} failing")
    return "\n".join(lines) + "\n"


def _json_number(value: float | None) -> float | None:
    """``value``, or ``None`` (``null``) if absent or not finite, as strict JSON requires."""
    return value if value is not None and np.isfinite(value) else None


def rows_to_json(rows: list[Row]) -> str:
    payload = [
        {
            "identity": r.name,
            "tag": r.tag,
            "grid": r.grid,
            "residual": _json_number(r.residual),
            "cap": _json_number(r.cap),
            "ratio": _json_number(r.ratio),
            "ratio_checked": r.ratio_checked,
            "verdict": "pass" if r.passed else "fail",
            "note": r.note,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
