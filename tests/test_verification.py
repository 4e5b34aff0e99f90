import json
import math

import numpy as np
import pytest

import vekua.operators as ops
import vekua.verification as verification
from vekua.cli import main
from vekua.errors import NonConvergenceError
from vekua.superpotential import Superpotential
from vekua.verification import RunConfig, checks_for, run_battery

N = 61
FAMILIES = {"zero": (), "linear": (0.5, -1.0), "quadratic": (1.0, -0.5)}


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


QUADRATIC = RunConfig(n1=N, n2=N, sp_name="quadratic", sp_params=FAMILIES["quadratic"])


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
