"""One-shot verification battery over every operator identity.

The battery is the registry :data:`CHECKS`: one :class:`Check` per report
row, in report order, each naming the relation it tests, the function that
measures it on one resolution, its cap model (which decides whether it is
also measured on the refinement, spacing halved), whether the ratio window
applies, and which superpotential families it covers.
:func:`run_battery` is one loop over the registry; nothing else lists the
checks, and the registry is the only source of caps: a run's configuration
names the grid and the superpotential, nothing else.

A measure yields each residual it computes (each component of a pair on
its own); :func:`run_battery` takes their maximum as the row's residual at
each resolution.  A NaN residual makes that maximum NaN, and a NaN fails
both the cap and the ratio window, so a non-finite value is never dropped.

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

Evaluation order: the battery holds one resolution at a time.  It builds
the configured grid's superpotential and formal-power table through
:class:`RunConfig`, which refuses what it cannot build, so a refused
configuration measures nothing.  It then measures every check on that grid,
releases that level, and only then builds the refinement, on which it
measures the rows left to refine.  On each level the checks that read the
formal-power table (``Check.reads_table``) run first.  The table holds its
1-D systems and the last power each of its four stacks assembled; a power is
assembled from the 1-D systems when it is read, so a row that starts again
from degree zero assembles each degree again, with the same bits.  The table,
and the self-fit built from it, are then released before the other checks
run, among them those that build the smooth corpus and its transmuted images.  Within
each group checks run in registry order, and rows are always reported in
registry order: the order changes which arrays are alive together, not what
any row computes.
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
        power, found by assembling and checking each in turn."""
        params = ",".join(map(str, self.sp_params)) or "none"
        overflow = ConfigError(f"--sp {self.sp_name} with --params {params} overflows the "
                               f"formal powers up to degree {n_max} to a non-finite value on "
                               "this grid")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                table = assemble_formal_powers(sp, n_max)
            except OverflowError as exc:
                raise overflow from exc
            # a power is assembled as it is read, so the scan holds one degree at a time
            stacks = (table.z_one, table.z_i, table.z1_one, table.z1_i)
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
    """Everything the checks need at one resolution, each built on first use."""

    def __init__(self, cfg: RunConfig, grid: Grid2D):
        self.cfg = cfg
        self.grid = grid
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
    def corpus(self) -> list["_CorpusField"]:
        return [_CorpusField(self.grid, w) for _, w in smooth_corpus(self.grid)]

    @cached_property
    def images(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(T0[w], T1[w]) of each corpus field, shared by the diagram checks."""
        return [self.t2d.t0_t1(fld.w) for fld in self.corpus]

    @cached_property
    def self_fit(self):
        """(n, fit): Im Z^n(i), n = 3, fitted in the ker h0 basis."""
        n_slot = 3
        target = np.imag(self.table.z_i[n_slot])
        fit = fit_formal_polynomial(self.sp, target, self.table, "ker_h0", degree=4)
        return n_slot, fit

    def release_table(self) -> None:
        """Drop the formal-power table (its 1-D systems, the powers its stacks
        keep and its memoized designs) and the self-fit built from it; a later
        reader rebuilds them."""
        self.__dict__.pop("table", None)
        self.__dict__.pop("self_fit", None)


class _CorpusField:
    """One smooth corpus field with its scales, each computed on first use."""

    def __init__(self, grid: Grid2D, w: np.ndarray):
        self.grid = grid
        self.w = w

    @cached_property
    def scale(self) -> float:
        return corpus_scale(self.grid, self.w)

    @cached_property
    def scale_re(self) -> float:
        return corpus_scale(self.grid, np.real(self.w))

    @cached_property
    def scale_im(self) -> float:
        return corpus_scale(self.grid, np.imag(self.w))


# -- residual measurements: each yields its scale-normalized residuals, and the
# row's residual is their maximum (see :func:`_worst`) --

def _res_zero_mode(level: _Level, op, sign: float):
    sp = level.sp
    mode = sp.exp_chi(sign)
    yield interior_max(op(sp, mode), margin=2) / max(1.0, float(np.max(np.abs(mode))))


def _res_vekua_powers(level: _Level, successor: bool):
    sp, table = level.sp, level.table
    for n in range(6):
        for a in (1.0, 1j):
            if successor:
                yield interior_max(ops.vekua_v1(sp, table.power_succ(n, a)), margin=2)
            else:
                yield interior_max(ops.vekua_v(sp, table.power(n, a)), margin=2)


def _res_ground_state_h(level: _Level):
    sp, table = level.sp, level.table
    for n in range(5):
        for a in (1.0, 1j):
            for g in ops.h_diag(sp, ops.project(table.power(n, a))):
                yield interior_max(g, margin=2)


def _res_ground_state_h1(level: _Level):
    sp, table = level.sp, level.table
    for n in range(1, 5):
        for a in (1.0, 1j):
            deriv = n * table.power_succ(n - 1, a)
            for g in ops.h1(sp, ops.project(deriv)):
                yield interior_max(g, margin=2)


def _res_darboux_projection(level: _Level):
    sp = level.sp
    for fld in level.corpus:
        w, scale = fld.w, fld.scale
        pw = ops.project(w)
        pairs = [
            (ops.darboux(sp, pw), ops.project(2.0 * ops.vekua_vbar(sp, w))),
            (ops.darboux_adjoint(sp, pw), ops.project(-2.0 * ops.vekua_v1(sp, w))),
            (ops.pseudo_darboux(sp, pw), ops.project(2.0 * ops.vekua_v1bar(sp, w))),
            (ops.pseudo_darboux_adjoint(sp, pw), ops.project(-2.0 * ops.vekua_v(sp, w))),
        ]
        for got, want in pairs:
            for a, b in zip(got, want):
                yield interior_max(a - b, margin=2) / scale


def _res_factorization(level: _Level):
    sp = level.sp
    for fld in level.corpus:
        w, scale = fld.w, fld.scale
        pw = ops.project(w)
        h, h1 = ops.h_diag(sp, pw), ops.h1(sp, pw)
        combos = [
            (h, ops.vekua_v1(sp, ops.vekua_vbar(sp, w))),
            (h, ops.vekua_v1bar(sp, ops.vekua_v(sp, w))),
            (h1, ops.vekua_vbar(sp, ops.vekua_v1(sp, w))),
            (h1, ops.vekua_v(sp, ops.vekua_v1bar(sp, w))),
        ]
        for left, inner in combos:
            for a, b in zip(left, ops.project(4.0 * inner)):
                yield interior_max(a + b, margin=2) / scale


def _res_intertwining(level: _Level):
    sp = level.sp
    for fld in level.corpus:
        f, scale = np.real(fld.w), fld.scale_re
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


def _res_supercharge_factorization(level: _Level):
    sp = level.sp
    for fld in level.corpus:
        v = (np.real(fld.w), np.imag(fld.w))
        scale = max(fld.scale_re, fld.scale_im)
        h, h1 = ops.h_diag(sp, v), ops.h1(sp, v)
        combos = [
            (ops.darboux_adjoint(sp, ops.darboux(sp, v)), h),
            (ops.darboux(sp, ops.darboux_adjoint(sp, v)), h1),
            (ops.pseudo_darboux(sp, ops.pseudo_darboux_adjoint(sp, v)), h),
            (ops.pseudo_darboux_adjoint(sp, ops.pseudo_darboux(sp, v)), h1),
        ]
        for got, want in combos:
            for a, b in zip(got, want):
                yield interior_max(a - b, margin=2) / scale


def _res_nilpotency(level: _Level):
    sp = level.sp
    for fld in level.corpus:
        f, scale = np.real(fld.w), fld.scale_re
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
    sp, table = level.sp, level.table
    z = sp.grid.zmesh()
    for n in range(5):
        for a in (1.0, 1j):
            t0, t1 = level.t2d.t0_t1(a * z**n)
            yield float(np.max(np.abs(t0 - table.power(n, a))))
            yield float(np.max(np.abs(t1 - table.power_succ(n, a))))


def _res_diagram_differential(level: _Level):
    sp = level.sp
    grid = sp.grid
    t2d = level.t2d
    for fld, (t0w, t1w) in zip(level.corpus, level.images):
        w, scale = fld.w, fld.scale
        t0_wzb, t1_wzb = t2d.t0_t1(d_zbar(grid, w))
        t0_wz, t1_wz = t2d.t0_t1(d_z(grid, w))
        rs = [
            ops.vekua_v(sp, t0w) - t1_wzb,
            ops.vekua_v1(sp, t1w) - t0_wzb,
            ops.vekua_vbar(sp, t0w) - t1_wz,
            ops.vekua_v1bar(sp, t1w) - t0_wz,
        ]
        for r in rs:
            yield interior_max(r, margin=2) / scale


def _res_diagram_integral(level: _Level):
    sp = level.sp
    grid = sp.grid
    t2d = level.t2d
    for fld, (t0w, t1w) in zip(level.corpus, level.images):
        scale = fld.scale
        t0_anti, t1_anti = t2d.t0_t1(lpath_complex(grid, fld.w))
        yield interior_max(fg_integral(sp, 1, t0w) - t1_anti, margin=1) / scale
        yield interior_max(fg_integral(sp, 0, t1w) - t0_anti, margin=1) / scale


def _res_diagram_laplacian(level: _Level):
    sp = level.sp
    grid = sp.grid
    t2d = level.t2d
    for fld, (t0w, t1w) in zip(level.corpus, level.images):
        scale = fld.scale
        t0_lap, t1_lap = t2d.t0_t1(laplacian(grid, fld.w))
        pairs = [
            (ops.h_diag(sp, ops.project(t0w)), ops.project(t0_lap)),
            (ops.h1(sp, ops.project(t1w)), ops.project(t1_lap)),
        ]
        for left, lap in pairs:
            for a, b in zip(left, lap):
                yield interior_max(a + b, margin=2) / scale


def _res_conjugate(level: _Level):
    sp, table = level.sp, level.table
    w1 = np.real(table.power(1, 1.0))
    result = conj.conjugate_from_w1(sp, w1)
    _, resid = conj.fit_gauge(sp, result.partner, np.imag(table.power(1, 1.0)), kernel=0)
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
    w = table.power(n, 1.0)
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
        yield interior_max(table.power(n, 1.0) - z**n, margin=1)


def _res_t_commute(level: _Level):
    t2d = level.t2d
    for fld in level.corpus:
        f, scale = np.real(fld.w), fld.scale_re
        # its own products, not the shared images: the residual is the rounding-level
        # difference between the two orders of the axis products
        ab = t2d.tx.along_x(t2d.ty.along_y(f))
        ba = t2d.ty.along_y(t2d.tx.along_x(f))
        yield float(np.max(np.abs(ab - ba))) / scale


@dataclass(frozen=True)
class Check:
    """One battery row: what it measures, its cap model and its ratio policy.

    ``measure`` yields the residuals of one resolution; the row's residual is
    their maximum, NaN if any is NaN, and a NaN residual fails the row.
    Exactly one cap model applies: ``h2_cap`` (multiple of h^2), ``abs_cap``
    (fixed), or neither, in which case ``measure`` returns ``(residual,
    cap)``; no run configuration overrides it.  Only an ``h2_cap`` row is also
    measured on the refinement.  ``families`` limits the check to those
    superpotential families; ``None`` covers all.  ``reads_table`` marks a
    measure that reads the formal-power table or the self-fit: on each level
    these run before the table is released, the others after (see the module
    docstring).  A stale flag costs a rebuild of the table, never a wrong row.
    """

    name: str
    tag: str
    measure: Callable
    h2_cap: float | None = None
    abs_cap: float | None = None
    ratio_window: bool = False
    families: tuple[str, ...] | None = None
    reads_table: bool = False
    note: str = ""


CHECKS: tuple[Check, ...] = (
    Check("zero_mode_h0", "H0[exp(-chi)] = 0", lambda lv: _res_zero_mode(lv, ops.h0, -1.0),
          h2_cap=10.0),
    Check("zero_mode_h2", "H2[exp(chi)] = 0", lambda lv: _res_zero_mode(lv, ops.h2, 1.0),
          h2_cap=10.0),
    Check("vekua_main_powers", "V[Z^n(a)] = 0, n<=5",
          lambda lv: _res_vekua_powers(lv, successor=False), h2_cap=100.0, ratio_window=True,
          reads_table=True),
    Check("vekua_succ_powers", "V1[Z1^n(a)] = 0, n<=5",
          lambda lv: _res_vekua_powers(lv, successor=True), h2_cap=100.0, ratio_window=True,
          reads_table=True),
    Check("ground_state_h", "H P[Z^n(a)] = 0, n<=4", _res_ground_state_h, h2_cap=200.0,
          reads_table=True),
    Check("ground_state_h1", "H1 P[dZ^n(a)] = 0, n<=4", _res_ground_state_h1, h2_cap=200.0,
          reads_table=True),
    Check("darboux_projection", "DP = 2P Vbar (+3 companions)", _res_darboux_projection,
          h2_cap=100.0, ratio_window=True),
    Check("factorization", "HP = -4P V1 Vbar (+3 companions)", _res_factorization,
          h2_cap=100.0, ratio_window=True),
    Check("intertwining", "H0 qi+ = sum_k qk+ H1_ki (4 forms)", _res_intertwining,
          h2_cap=100.0, ratio_window=True),
    Check("supercharge_factorization", "Dadj D = H, D Dadj = H1, pseudo variants",
          _res_supercharge_factorization, h2_cap=100.0, ratio_window=True),
    Check("nilpotency", "sum_k pk+ qk- = 0 = sum_k qk+ pk-", _res_nilpotency,
          h2_cap=100.0, ratio_window=True),
    # relative error; equals 1e-2 at axis spacing 5e-3
    Check("transmute_powers", "T1[x^k] = phi_k, k<=5 (relative)", _res_transmute_powers,
          h2_cap=400.0, ratio_window=True, reads_table=True),
    Check("t0_t1_powers", "T0[a z^n] = Z^n(a), T1[a z^n] = Z1^n(a), n<=4", _res_t0_t1_powers,
          h2_cap=300.0, reads_table=True),
    Check("diagram_differential", "V T0 = T1 dzbar (+3 companions)", _res_diagram_differential,
          h2_cap=300.0),
    Check("diagram_integral", "pair-int T0[w] = T1[int w] (+ swap)", _res_diagram_integral,
          h2_cap=300.0),
    Check("diagram_laplacian", "H P T0 = -P T0 lap, H1 P T1 = -P T1 lap",
          _res_diagram_laplacian, h2_cap=300.0),
    Check("conjugate_reconstruction", "Im Z^1(1) from Re Z^1(1), gauge-fitted", _res_conjugate,
          h2_cap=50.0, reads_table=True),
    Check("fit_self_residual", "self-fit of a basis member", _res_fit_self_residual,
          h2_cap=10.0, reads_table=True),
    Check("fit_self_coefficients", "unit on-slot, zero off-slot", _res_fit_self_coefficients,
          abs_cap=1e-6, reads_table=True),
    Check("taylor_roundtrip", "series(coefficients(Z^3)) on half-radius box",
          _res_taylor_roundtrip, reads_table=True, note="cap is the reported stencil-noise bound"),
    Check("transmute_commute", "T1 T2 = T2 T1", _res_t_commute, abs_cap=1e-12),
    # Z^n(1) - z^n is the O(h^2) trapezoid error of the 1-D systems: 33-39 h^2 at n = 41..201
    Check("analytic_limit", "Z^n(1) = z^n for vanishing superpotential, n<=6",
          _res_analytic_limit, h2_cap=50.0, ratio_window=True, families=("zero",),
          reads_table=True),
)


def checks_for(sp_name: str) -> list[Check]:
    """The registry entries that cover a superpotential family, in report order."""
    return [c for c in CHECKS if c.families is None or sp_name in c.families]


def _worst(residuals) -> float:
    """The largest of a measure's residuals, or NaN if any is NaN."""
    return float(np.max(np.fromiter(residuals, float)))


def _measure_level(level: _Level, checks: list[Check], measure: Callable) -> dict:
    """``measure(check, level)`` for each check, or its "not measured: ..." note:
    the table readers first, then, with the table released, the rest."""
    results: dict[str, object] = {}
    for reads_table in (True, False):
        for check in checks:
            if check.reads_table == reads_table:
                try:
                    results[check.name] = measure(check, level)
                except KernelMembershipError as exc:
                    # the message, not the exception: its traceback would hold the level
                    results[check.name] = f"not measured: {exc}"
        level.release_table()
    return results


def _measure_coarse(check: Check, level: _Level) -> tuple[float, float]:
    """(residual, cap) of a check on the configured grid."""
    if check.h2_cap is not None:
        return _worst(check.measure(level)), check.h2_cap * level.h2_unit
    if check.abs_cap is not None:
        return _worst(check.measure(level)), check.abs_cap
    return check.measure(level)


def run_battery(cfg: RunConfig) -> list[Row]:
    """Measure every registered identity at the configured grid and its refinement.

    One level is alive at a time: every check runs on the configured grid, that
    level is released, and the refinement is built for the ``h2_cap`` rows whose
    coarse residual is not exact.  On each level the table readers run first
    (see :func:`_measure_level`).  Rows come back in registry order.

    The configured grid is input from outside, refused like every other
    subcommand's input: a grid, family or formal-power table of it that
    :class:`RunConfig` cannot build raises its
    :class:`~vekua.errors.ConfigError` before any check is measured.  The
    refinement is derived from it: its formal powers are the library's plain
    assembly, whose errors propagate as raised (an ``OverflowError``, say)."""
    checks = checks_for(cfg.sp_name)
    level = _Level(cfg, cfg.grid())
    level.table = cfg.formal_powers(level.sp, N_MAX)
    coarse = _measure_level(level, checks, _measure_coarse)
    del level  # the refinement is built with no coarse array alive
    # a NaN residual is not exact
    to_refine = [c for c in checks if c.h2_cap is not None
                 and not isinstance(coarse[c.name], str) and not coarse[c.name][0] <= RATIO_FLOOR]
    fine = _measure_level(_Level(cfg, cfg.grid().refined()), to_refine,
                          lambda check, level: _worst(check.measure(level)))
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
