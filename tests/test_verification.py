import dataclasses
import json
import math
import tracemalloc
import weakref
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

import vekua.formal_powers as formal_powers
import vekua.operators as ops
import vekua.verification as verification
from vekua.cli import main
from vekua.corpus import corpus_scale, smooth_corpus
from vekua.errors import ConfigError, KernelMembershipError, NonConvergenceError
from vekua.formal_powers import fg_integral
from vekua.grid import d_z, d_zbar, interior_max, laplacian, lpath_complex
from vekua.superpotential import Superpotential
from vekua.verification import (
    RATIO_FLOOR,
    RATIO_WINDOW,
    Row,
    RunConfig,
    _Level,
    _worst,
    checks_for,
    render_report,
    rows_to_json,
    run_battery,
)

N = 61
FAMILIES = {"zero": (), "linear": (0.5, -1.0), "quadratic": (1.0, -0.5)}
QUADRATIC = RunConfig(n1=N, n2=N, sp_name="quadratic", sp_params=FAMILIES["quadratic"])


@pytest.fixture(scope="module")
def batteries():
    return {
        name: run_battery(RunConfig(n1=N, n2=N, sp_name=name, sp_params=params))
        for name, params in FAMILIES.items()
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_battery_passes_every_row(batteries, family):
    failing = [r.name for r in batteries[family] if not r.passed]
    assert failing == []


@pytest.mark.parametrize("family", FAMILIES)
def test_rows_follow_the_registry(batteries, family):
    names = [r.name for r in batteries[family]]
    assert names == [c.name for c in checks_for(family)]


WINDOWED_ROWS = ("t0_t1_powers", "diagram_differential", "diagram_integral",
                 "diagram_laplacian", "conjugate_reconstruction")


@pytest.mark.parametrize("family", FAMILIES)
def test_transmutation_and_conjugate_rows_carry_the_ratio_window(batteries, family):
    rows = {r.name: r for r in batteries[family]}
    for name in WINDOWED_ROWS:
        row = rows[name]
        assert row.ratio_checked and row.passed, name
        # the window applies wherever the row has an order to measure
        if row.ratio is not None:
            assert RATIO_WINDOW[0] <= row.ratio <= RATIO_WINDOW[1], name


def _interleaved_battery(cfg):
    """The battery with both levels alive throughout and each row measured on
    the coarse level, then on the refinement, in registry order: the order
    ``run_battery`` replaced, kept as a reference for its rows."""
    coarse = _Level(cfg, cfg.grid(), checks_for(cfg.sp_name))
    fine = _Level(cfg, cfg.grid().refined(), checks_for(cfg.sp_name))
    grid_label = f"{cfg.n1}x{cfg.n2}"
    rows = []
    for check in checks_for(cfg.sp_name):
        ratio = None
        try:
            if check.h2_cap is not None:
                residual, cap = _worst(coarse.residuals(check)), check.h2_cap * coarse.h2_unit
                if not residual <= RATIO_FLOOR:
                    ratio = residual / max(_worst(fine.residuals(check)), np.finfo(float).tiny)
            elif check.abs_cap is not None:
                residual, cap = _worst(coarse.residuals(check)), check.abs_cap
            else:
                residual, cap = coarse.residuals(check)
        except KernelMembershipError as exc:
            rows.append(Row(check.name, check.tag, grid_label, np.nan, np.nan, np.nan,
                            check.ratio_window, False, f"not measured: {exc}"))
            continue
        passed = residual <= cap
        if check.ratio_window and ratio is not None:
            passed = passed and (RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1])
        rows.append(Row(check.name, check.tag, grid_label, residual, cap, ratio,
                        check.ratio_window, passed, check.note))
    return rows


def _assert_same_reports(rows, reference, cfg):
    assert rows_to_json(rows) == rows_to_json(reference)
    assert render_report(rows, cfg) == render_report(reference, cfg)


@pytest.mark.parametrize("family", FAMILIES)
def test_level_order_keeps_every_row(batteries, family):
    cfg = RunConfig(n1=N, n2=N, sp_name=family, sp_params=FAMILIES[family])
    _assert_same_reports(batteries[family], _interleaved_battery(cfg), cfg)


def test_level_order_keeps_every_row_on_a_non_square_grid():
    cfg = RunConfig(half_width1=1.0, half_width2=0.5, n1=N, n2=41,
                    sp_name="quadratic", sp_params=FAMILIES["quadratic"])
    _assert_same_reports(run_battery(cfg), _interleaved_battery(cfg), cfg)


@pytest.mark.parametrize("family", FAMILIES)
def test_battery_holds_one_level_and_one_table_at_a_time(family, monkeypatch):
    levels = []  # weak references: a spy must not keep a level alive
    assemblies = []  # nodes per x axis of each level that assembled its table

    def alive():
        return sum(ref() is not None for ref in levels)

    class SpyLevel(verification._Level):
        def __init__(self, cfg, grid, checks):
            assert alive() == 0
            super().__init__(cfg, grid, checks)
            levels.append(weakref.ref(self))

    assemble = verification.assemble_formal_powers

    def spy_assemble(sp, n_max):
        assert alive() == 1
        assemblies.append(sp.grid.gx.n)
        return assemble(sp, n_max)

    monkeypatch.setattr(verification, "_Level", SpyLevel)
    monkeypatch.setattr(verification, "assemble_formal_powers", spy_assemble)
    run_battery(RunConfig(n1=N, n2=N, sp_name=family, sp_params=FAMILIES[family]))
    assert len(levels) == 2
    assert assemblies == [N, 2 * N - 1]


CORPUS_ROWS = ("darboux_projection", "factorization", "intertwining",
               "supercharge_factorization", "nilpotency", "diagram_differential",
               "diagram_integral", "diagram_laplacian", "transmute_commute")


def _mesh_corpus(grid):
    """The smooth corpus built on the two full coordinate meshes, every field
    at once, with its scales: the construction the axis-node fields replaced."""
    x, y = grid.meshes()
    bump = np.exp(-(x**2 + y**2))
    fields = [
        (1.0 + x + 0.5 * x * y) * bump + 1j * (x**2 - y + 0.5) * bump,
        (x**3 - 3.0 * x * y**2) + 1j * (3.0 * x**2 * y - y**3 + x),
        (x - 0.3 * y**2) * bump + 1j * (y + 0.25 * x**2 - x * y) * bump,
    ]
    return [SimpleNamespace(w=w, scale=corpus_scale(grid, w),
                            scale_re=corpus_scale(grid, np.real(w)),
                            scale_im=corpus_scale(grid, np.imag(w))) for w in fields]


def _row_major_corpus_residuals(level):
    """Every corpus row measured row by row over the whole corpus, with every
    field and its (T0 w, T1 w) built first and held throughout: the order the
    level's field-major pass replaced, kept as the reference for its
    residuals."""
    sp, grid, t2d = level.sp, level.grid, level.t2d
    corpus = _mesh_corpus(grid)
    images = [t2d.t0_t1(fld.w) for fld in corpus]

    def gaps(combine, got, want, scale):
        for a, b in zip(got, want):
            yield interior_max(combine(a, b), margin=2) / scale

    def darboux_projection():
        pairs = ((ops.darboux, 2.0, ops.vekua_vbar), (ops.darboux_adjoint, -2.0, ops.vekua_v1),
                 (ops.pseudo_darboux, 2.0, ops.vekua_v1bar),
                 (ops.pseudo_darboux_adjoint, -2.0, ops.vekua_v))
        for fld in corpus:
            pw = ops.project(fld.w)
            for darboux, c, vekua in pairs:
                yield from gaps(np.subtract, darboux(sp, pw),
                                ops.project(c * vekua(sp, fld.w)), fld.scale)

    def factorization():
        groups = (
            (ops.h_diag, ((ops.vekua_v1, ops.vekua_vbar), (ops.vekua_v1bar, ops.vekua_v))),
            (ops.h1, ((ops.vekua_vbar, ops.vekua_v1), (ops.vekua_v, ops.vekua_v1bar))),
        )
        for fld in corpus:
            pw = ops.project(fld.w)
            for hamiltonian, products in groups:
                left = hamiltonian(sp, pw)
                for outer, inner in products:
                    yield from gaps(np.add, left,
                                    ops.project(4.0 * outer(sp, inner(sp, fld.w))), fld.scale)

    def intertwining():
        for fld in corpus:
            f, scale = np.real(fld.w), fld.scale_re
            h0f, h2f = ops.h0(sp, f), ops.h2(sp, f)
            for i in (1, 2):
                h1f = ops.h1_element(sp, i, f)
                r1 = ops.h0(sp, ops.q_op(sp, i, +1, f)) - ops.q_op(sp, i, +1, h1f)
                r2 = ops.q_op(sp, i, -1, h0f) - ops.h1_element(sp, i, ops.q_op(sp, i, -1, f))
                r3 = ops.h2(sp, ops.p_op(sp, i, +1, f)) - ops.p_op(sp, i, +1, h1f)
                r4 = ops.p_op(sp, i, -1, h2f) - ops.h1_element(sp, i, ops.p_op(sp, i, -1, f))
                for r in (r1, r2, r3, r4):
                    yield interior_max(r, margin=2) / scale

    def supercharge_factorization():
        groups = (
            (ops.h_diag, ((ops.darboux_adjoint, ops.darboux),
                          (ops.pseudo_darboux, ops.pseudo_darboux_adjoint))),
            (ops.h1, ((ops.darboux, ops.darboux_adjoint),
                      (ops.pseudo_darboux_adjoint, ops.pseudo_darboux))),
        )
        for fld in corpus:
            v = (np.real(fld.w), np.imag(fld.w))
            scale = max(fld.scale_re, fld.scale_im)
            for hamiltonian, products in groups:
                want = hamiltonian(sp, v)
                for outer, inner in products:
                    yield from gaps(np.subtract, outer(sp, inner(sp, v)), want, scale)

    def nilpotency():
        for fld in corpus:
            f = np.real(fld.w)
            for outer, inner in ((ops.p_op, ops.q_op), (ops.q_op, ops.p_op)):
                total = sum(outer(sp, k, +1, inner(sp, k, -1, f)) for k in (1, 2))
                yield interior_max(total, margin=2) / fld.scale_re

    def differential():
        pairs = ((d_zbar, ops.vekua_v, ops.vekua_v1), (d_z, ops.vekua_vbar, ops.vekua_v1bar))
        for fld, (t0w, t1w) in zip(corpus, images):
            for deriv, v0, v1 in pairs:
                t0_d, t1_d = t2d.t0_t1(deriv(grid, fld.w))
                for a, b in zip((v0(sp, t0w), v1(sp, t1w)), (t1_d, t0_d)):
                    yield interior_max(a - b, margin=2) / fld.scale

    def integral():
        for fld, (t0w, t1w) in zip(corpus, images):
            t0_anti, t1_anti = t2d.t0_t1(lpath_complex(grid, fld.w))
            yield interior_max(fg_integral(sp.successor(), t0w) - t1_anti,
                               margin=1) / fld.scale
            yield interior_max(fg_integral(sp, t1w) - t0_anti, margin=1) / fld.scale

    def laplacian_row():
        for fld, (t0w, t1w) in zip(corpus, images):
            t0_lap, t1_lap = t2d.t0_t1(laplacian(grid, fld.w))
            pairs = [
                (ops.h_diag(sp, ops.project(t0w)), ops.project(t0_lap)),
                (ops.h1(sp, ops.project(t1w)), ops.project(t1_lap)),
            ]
            for left, lap in pairs:
                for a, b in zip(left, lap):
                    yield interior_max(a + b, margin=2) / fld.scale

    def transmute_commute():
        for fld in corpus:
            f = np.real(fld.w)
            ab = t2d.tx.along_x(t2d.ty.along_y(f))
            ba = t2d.ty.along_y(t2d.tx.along_x(f))
            yield float(np.max(np.abs(ab - ba))) / fld.scale_re

    measures = (darboux_projection, factorization, intertwining, supercharge_factorization,
                nilpotency, differential, integral, laplacian_row, transmute_commute)
    return {name: list(measure()) for name, measure in zip(CORPUS_ROWS, measures)}


def test_corpus_rows_are_the_per_field_checks():
    assert [c.name for c in checks_for("zero") if c.per_field] == list(CORPUS_ROWS)


@pytest.mark.parametrize("half_width2, n2", [(1.0, N), (0.5, 41)], ids=["61x61", "61x41"])
@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_pass_equals_the_row_major_measures_bit_for_bit(family, half_width2, n2):
    cfg = RunConfig(half_width2=half_width2, n1=N, n2=n2, sp_name=family,
                    sp_params=FAMILIES[family])
    for grid in (cfg.grid(), cfg.grid().refined()):
        want = _row_major_corpus_residuals(_Level(cfg, grid, checks_for(family)))
        got = _Level(cfg, grid, checks_for(family)).corpus_residuals
        assert list(got) == list(want)
        for name, residuals in want.items():
            assert len(residuals) > 0
            assert np.array(got[name]).view(np.uint64).tolist() == \
                np.array(residuals).view(np.uint64).tolist(), name


def _spied_checks(names, calls):
    """The per-field checks named in ``names``, in registry order, each
    recording its name in ``calls`` whenever its measure is called."""
    def spy(check):
        def measure(level, fld):
            calls.append(check.name)
            return check.measure(level, fld)
        return dataclasses.replace(check, measure=measure)

    return [spy(c) for c in checks_for("quadratic") if c.per_field and c.name in names]


@pytest.mark.parametrize("names", [
    ("diagram_integral",),
    tuple(name for name in CORPUS_ROWS if name != "darboux_projection"),
    ("factorization", "nilpotency"),
], ids=["one-diagram-row", "no-darboux-projection", "no-diagram-row"])
def test_corpus_pass_measures_only_the_rows_of_its_level(names, monkeypatch):
    calls = []
    alive = []  # weak references to each field made and to its images

    def one_field_at_a_time(grid):
        for name, w in smooth_corpus(grid):
            assert all(ref() is None for ref in alive), "a field outlived its residuals"
            alive.append(weakref.ref(w))
            yield name, w

    images = verification._CorpusField.images
    built = []

    def counted(fld):
        t0w, t1w = images.func(fld)
        built.append(None)
        alive.extend((weakref.ref(t0w), weakref.ref(t1w)))
        return t0w, t1w

    counted_images = cached_property(counted)
    counted_images.__set_name__(verification._CorpusField, "images")
    monkeypatch.setattr(verification._CorpusField, "images", counted_images)
    monkeypatch.setattr(verification, "smooth_corpus", one_field_at_a_time)
    level = _Level(QUADRATIC, QUADRATIC.grid().refined(), _spied_checks(names, calls))
    assert list(level.corpus_residuals) == list(names)
    assert all(len(level.corpus_residuals[name]) > 0 for name in names)
    # one call per row and field, field by field
    assert calls == list(names) * 3
    assert all(ref() is None for ref in alive)
    # a field's images are built once, and only for a level with a diagram row
    diagram = any(name.startswith("diagram_") for name in names)
    assert len(built) == (3 if diagram else 0)
    assert ("t2d" in level.__dict__) == (diagram or "transmute_commute" in names)


def test_kernel_membership_error_on_one_field_stops_only_its_row(batteries, monkeypatch):
    factorization = next(c.measure for c in verification.CHECKS if c.name == "factorization")
    fields = []

    def refuse_the_second_field(level, fld):
        fields.append(None)
        if len(fields) == 2:
            raise KernelMembershipError("synthetic: not in ker h")
        yield from factorization(level, fld)

    monkeypatch.setattr(verification, "CHECKS", tuple(
        dataclasses.replace(c, measure=refuse_the_second_field) if c.name == "factorization"
        else c for c in verification.CHECKS))
    rows = run_battery(QUADRATIC)
    # the coarse level's pass stops the row at its second field and measures
    # its third field for the other rows; the refinement does not measure it
    assert len(fields) == 2
    assert [r.name for r in rows] == [r.name for r in batteries["quadratic"]]
    for row, before in zip(rows, batteries["quadratic"]):
        if row.name != "factorization":
            assert row == before
            continue
        assert row.note == "not measured: synthetic: not in ker h"
        assert math.isnan(row.residual) and math.isnan(row.cap) and math.isnan(row.ratio)
        assert not row.passed


def test_battery_traced_peak_at_101_nodes():
    # the refinement holds one corpus field at a time, with its images, and
    # one Goursat kernel while it builds its operators: 9.8 MiB traced for the
    # quadratic family, so the bound leaves a margin of about an eighth.  The
    # level read 11.6 MiB when it held all three corpus fields and both
    # coordinate meshes, and 17.2 MiB when it also held the six corpus images
    # and the operators their kernels
    cfg = RunConfig(n1=101, n2=101, sp_name="quadratic", sp_params=FAMILIES["quadratic"])
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already traces this process")
    tracemalloc.start()
    try:
        run_battery(cfg)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 11.0, f"traced peak {peak:.1f} MiB"


def test_refused_refinement_reads_not_measured_in_its_place(batteries, monkeypatch):
    conjugate_from_w1 = verification.conj.conjugate_from_w1

    def refuse_on_the_refinement(sp, w1):
        if sp.grid.gx.n == 2 * N - 1:
            raise KernelMembershipError("synthetic: not in ker h2")
        return conjugate_from_w1(sp, w1)

    monkeypatch.setattr(verification.conj, "conjugate_from_w1", refuse_on_the_refinement)
    rows = run_battery(QUADRATIC)
    assert [r.name for r in rows] == [r.name for r in batteries["quadratic"]]
    for row, before in zip(rows, batteries["quadratic"]):
        if row.name != "conjugate_reconstruction":
            assert row == before
            continue
        assert row.note == "not measured: synthetic: not in ker h2"
        assert math.isnan(row.residual) and math.isnan(row.cap) and math.isnan(row.ratio)
        assert not row.passed


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupt_potential_fails_only_zero_mode_h0(family, monkeypatch, tmp_path):
    # mutant: U0 shifted by +1.  Only the two zero-mode rows run: with the
    # full registry the shifted potential also rejects the self-fit target
    # as outside ker h0, which aborts the battery
    u0 = Superpotential.u0
    monkeypatch.setattr(Superpotential, "u0", lambda sp: u0(sp) + 1.0)
    monkeypatch.setattr(verification, "CHECKS", tuple(
        c for c in verification.CHECKS if c.name in ("zero_mode_h0", "zero_mode_h2")))
    cfg = RunConfig(n1=N, n2=N, sp_name=family, sp_params=FAMILIES[family])
    assert {r.name for r in run_battery(cfg) if not r.passed} == {"zero_mode_h0"}
    params = ",".join(map(str, FAMILIES[family]))
    argv = ["verify", "--sp", family, f"--params={params}", "--nodes", str(N),
            "--out", str(tmp_path)]
    assert main(argv) == 1


def _refuse_constant(token):
    # strict JSON has no NaN, Infinity or -Infinity
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupt_potential_fails_rows_of_the_full_registry(family, monkeypatch, tmp_path):
    # the same mutant with every check: the self-fit target leaves ker h0, and
    # the rows that fit it fail with the error in their note instead of
    # aborting the battery
    u0 = Superpotential.u0
    monkeypatch.setattr(Superpotential, "u0", lambda sp: u0(sp) + 1.0)
    params = ",".join(map(str, FAMILIES[family]))
    argv = ["verify", "--sp", family, f"--params={params}", "--nodes", str(N),
            "--out", str(tmp_path)]
    assert main(argv) == 1
    rows = json.loads((tmp_path / "verification_report.json").read_text(),
                      parse_constant=_refuse_constant)
    assert [r["identity"] for r in rows] == [c.name for c in checks_for(family)]
    verdicts = {r["identity"]: r["verdict"] for r in rows}
    assert {"zero_mode_h0", "fit_self_residual", "fit_self_coefficients"} <= {
        name for name, verdict in verdicts.items() if verdict == "fail"}
    report = (tmp_path / "verification_report.txt").read_text().splitlines()
    for name in ("fit_self_residual", "fit_self_coefficients"):
        (row,) = [r for r in rows if r["identity"] == name]
        assert row["note"].startswith("not measured: ") and "not in ker h0" in row["note"]
        assert row["residual"] is row["cap"] is row["ratio"] is None
        (line,) = [line for line in report if line.startswith(name + " ")]
        assert "exact" not in line and line.endswith("FAIL")


def _spoil_one_output(monkeypatch, name, nodes, call):
    """Mutant: the ``call``-th output of ``ops.<name>`` on the grid of ``nodes``
    nodes per axis carries a NaN at its centre node; every other output is
    unchanged."""
    original = getattr(ops, name)
    calls = []

    def spoilt(sp, f):
        out = original(sp, f)
        if sp.grid.gx.n == nodes:
            calls.append(None)
            if len(calls) == call:
                out = out.copy()
                out[nodes // 2, nodes // 2] = np.nan
        return out

    monkeypatch.setattr(ops, name, spoilt)


def _only_checks(monkeypatch, *names):
    monkeypatch.setattr(verification, "CHECKS", tuple(
        c for c in verification.CHECKS if c.name in names))


def test_nan_at_one_node_of_one_power_fails_its_row(monkeypatch):
    # the 12th V output of the coarse level is V[Z^5(i)], the row's last
    _only_checks(monkeypatch, "vekua_main_powers")
    _spoil_one_output(monkeypatch, "vekua_v", N, 12)
    (row,) = run_battery(QUADRATIC)
    assert math.isnan(row.residual) and not row.passed


def test_nan_in_h2_fails_ground_state_h(monkeypatch, tmp_path):
    # H2 acts on the second half of every diag(H0, H2) pair of the row
    _only_checks(monkeypatch, "ground_state_h")
    _spoil_one_output(monkeypatch, "h2", N, 1)
    argv = ["verify", "--sp", "quadratic", "--params=1,-0.5", "--nodes", str(N),
            "--out", str(tmp_path)]
    assert main(argv) == 1
    (row,) = json.loads((tmp_path / "verification_report.json").read_text())
    assert row["identity"] == "ground_state_h"
    assert row["residual"] is None and row["verdict"] == "fail"


def test_nan_on_the_refinement_alone_fails_the_ratio_window(monkeypatch):
    _only_checks(monkeypatch, "vekua_main_powers")
    _spoil_one_output(monkeypatch, "vekua_v", 2 * N - 1, 12)
    (row,) = run_battery(QUADRATIC)
    assert row.residual <= row.cap
    assert math.isnan(row.ratio) and not row.passed


def test_non_convergence_still_exits_3(monkeypatch, tmp_path):
    def fail(sp):
        raise NonConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(verification, "build_transmute_2d", fail)
    argv = ["verify", "--sp", "zero", "--nodes", "21", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert not (tmp_path / "verification_report.json").exists()


def test_cli_verify_zero_exits_zero(tmp_path):
    assert main(["verify", "--sp", "zero", "--nodes", str(N), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verification_report.json").exists()


def test_cli_verify_assembles_each_level_once(monkeypatch, tmp_path):
    # every assembly of a formal-power table reaches build_aux_system through
    # this module global, whichever module imported assemble_formal_powers
    build_aux_system = formal_powers.build_aux_system
    assembled = []

    def spy(sp, n_max):
        assembled.append(sp.grid.gx.n)
        return build_aux_system(sp, n_max)

    monkeypatch.setattr(formal_powers, "build_aux_system", spy)
    argv = ["verify", "--sp", "quadratic", "--params=1,-0.5", "--nodes", str(N),
            "--out", str(tmp_path)]
    assert main(argv) == 0
    # the main table of each level, then its successor's
    assert assembled == [N, N, 2 * N - 1, 2 * N - 1]


@pytest.mark.parametrize("family", FAMILIES)
def test_cli_verify_passes_on_a_non_square_grid(family, tmp_path):
    # n1 more than twice n2: the Taylor round trip's box is cut per axis
    params = ",".join(map(str, FAMILIES[family]))
    argv = ["verify", "--sp", family, f"--params={params}", "--nodes", "121", "59",
            "--out", str(tmp_path)]
    assert main(argv) == 0


def test_cli_verify_ends_with_an_exit_code_on_a_small_non_square_grid(tmp_path):
    argv = ["verify", "--sp", "zero", "--nodes", "61", "29", "--out", str(tmp_path)]
    assert isinstance(main(argv), int)


@pytest.mark.parametrize("nodes", [("5", "21"), ("41", "9")])
def test_cli_verify_refuses_a_grid_too_coarse_for_the_taylor_round_trip(nodes, tmp_path,
                                                                        capsys):
    argv = ["verify", "--sp", "quadratic", "--params=1,-0.5", "--nodes", *nodes,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error (GridShapeError): stencil noise ")
    assert err.endswith("use a finer grid for degree 4\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, argv, message", [
    (RunConfig(n1=21, n2=21, sp_name="linear", sp_params=(400.0, 1.0)),
     ["--sp", "linear", "--params", "400,1", "--nodes", "21"],
     "--sp linear with --params 400.0,1.0 overflows the formal powers up to degree 6 to a "
     "non-finite value on this grid"),
    (RunConfig(half_width1=1e308, half_width2=1e308, n1=5, n2=5),
     ["--half-width", "1e308", "--nodes", "5"],
     "half_width 1e+308 with 5 nodes gives spacing h = inf, whose square inf is not a "
     "positive normal double"),
    # h^2 = 4e-308 is normal, and its quarter on the refinement is not
    (RunConfig(half_width1=2e-153, half_width2=2e-153, n1=21, n2=21),
     ["--half-width", "2e-153", "--nodes", "21"],
     "the refinement of this grid: half_width 2e-153 with 41 nodes gives spacing h = 1e-154, "
     "whose square 1e-308 is not a positive normal double"),
    (RunConfig(n1=21, n2=21, sp_name="linear"), ["--sp", "linear", "--nodes", "21"],
     "family 'linear' takes 2 parameters, got 0"),
], ids=["overflowing-powers", "overflowing-spacing", "subnormal-refined-spacing",
        "missing-params"])
def test_battery_refuses_a_configuration_it_cannot_build(cfg, argv, message, monkeypatch,
                                                         tmp_path, capsys):
    def no_measure(*args):
        raise AssertionError("a check was measured")

    monkeypatch.setattr(verification, "_measure_level", no_measure)
    with pytest.raises(ConfigError) as refused:
        run_battery(cfg)
    assert str(refused.value) == message
    # the text the CLI prints is the battery's own
    assert main(["verify", *argv, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "o").exists()
