import dataclasses

import pytest

from vekua.cli import main
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
def test_corrupt_potential_fails_only_zero_mode_h0(family):
    cfg = RunConfig(n1=N, n2=N, sp_name=family, sp_params=FAMILIES[family], corrupt_u0=True)
    assert {r.name for r in run_battery(cfg) if not r.passed} == {"zero_mode_h0"}


def test_tolerance_override_moves_only_its_cap(batteries):
    base = batteries["linear"]
    cfg = RunConfig(n1=N, n2=N, sp_name="linear", sp_params=FAMILIES["linear"],
                    tolerances={"factorization": 7.0})
    rows = run_battery(cfg)
    h2 = cfg.grid().hmax ** 2
    for row, ref in zip(rows, base, strict=True):
        if row.name == "factorization":
            assert row.cap == 7.0 * h2 != ref.cap
        else:
            assert dataclasses.astuple(row) == dataclasses.astuple(ref)


def test_cli_verify_zero_exits_zero(tmp_path):
    assert main(["verify", "--sp", "zero", "--nodes", str(N), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verification_report.json").exists()
