import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vekua
from vekua.cli import main
from vekua.errors import ConfigError
from vekua.fields_io import (
    read_field_csv,
    read_grid_meta,
    write_field_csv,
    write_grid_meta,
)
from vekua.grid import Grid1D, Grid2D


@pytest.fixture()
def small_grid():
    return Grid2D(Grid1D(1.0, 21), Grid1D(1.0, 21))


def test_field_csv_roundtrip(tmp_path, small_grid):
    x, y = small_grid.meshes()
    values = np.exp(x) * np.cos(y) + 1j * (x - y) / 3.0
    path = tmp_path / "field.csv"
    write_field_csv(path, small_grid, values)
    grid2, back = read_field_csv(path)
    assert grid2.shape == small_grid.shape
    np.testing.assert_array_equal(back, values)  # 17 significant digits round-trip
    header = path.read_text().splitlines()[0]
    assert header == "x,y,re,im"


def test_grid_meta_roundtrip(tmp_path, small_grid):
    path = tmp_path / "grid.json"
    write_grid_meta(path, small_grid)
    grid2 = read_grid_meta(path)
    assert grid2.gx.n == 21 and grid2.gy.half_width == 1.0
    record = json.loads(path.read_text())
    assert set(record) == {"a1", "a2", "n1", "n2"}


def test_read_rejects_even_grid(tmp_path):
    lines = ["x,y,re,im"]
    for x in (-1.0, 1.0):
        for y in (-1.0, 1.0):
            lines.append(f"{x},{y},0,0")
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_field_csv(path)


def _write_sample_field(tmp_path, n=21):
    grid = Grid2D.square(1.0, n)
    z = grid.zmesh()
    path = tmp_path / "input.csv"
    write_field_csv(path, grid, z**2)
    return grid, path


def test_cli_transmute_identity_for_zero_chi(tmp_path):
    grid, inp = _write_sample_field(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "transmute",
            "--sp",
            "zero",
            "--input",
            str(inp),
            "--op",
            "T0",
            "--out",
            str(out),
            "--dump-kernel",
        ]
    )
    assert code == 0
    _, result = read_field_csv(out / "transmuted.csv")
    _, original = read_field_csv(inp)
    np.testing.assert_allclose(result, original, atol=1e-12)
    assert (out / "kernel_x.csv").read_text().splitlines()[0] == "x,t,K"


def test_cli_formal_powers_zero_chi(tmp_path):
    out = tmp_path / "fp"
    code = main(
        [
            "formal-powers",
            "--sp",
            "zero",
            "--nodes",
            "21",
            "--n-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "power_seq0_a1_n3.csv" in manifest["files"]
    grid, z3 = read_field_csv(out / "power_seq0_a1_n3.csv")
    z = grid.zmesh()
    assert np.max(np.abs(z3 - z**3)) <= grid.hmax**2


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(
            ["formal-powers", "--sp", "quadratic", "--params", "1,1", "--nodes", "21",
             "--n-max", "2", "--out", str(out)]
        )
        assert code == 0
    for name in ("power_seq0_a1_n2.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_conjugate(tmp_path):
    grid = Grid2D.square(1.0, 21)
    x, y = grid.meshes()
    inp = tmp_path / "w1.csv"
    write_field_csv(inp, grid, x.astype(complex))
    out = tmp_path / "conj"
    code = main(
        ["conjugate", "--sp", "zero", "--input", str(inp), "--direction", "2to0",
         "--out", str(out)]
    )
    assert code == 0
    _, partner = read_field_csv(out / "partner.csv")
    np.testing.assert_allclose(np.real(partner), y, atol=1e-6)
    assert (out / "conjugate_report.txt").exists()


def test_cli_expand(tmp_path):
    grid = Grid2D.square(1.0, 21)
    x, y = grid.meshes()
    inp = tmp_path / "target.csv"
    write_field_csv(inp, grid, (x**2 - y**2).astype(complex))
    out = tmp_path / "fit"
    code = main(
        ["expand", "--sp", "zero", "--input", str(inp), "--basis", "ker_h0",
         "--degree", "3", "--out", str(out)]
    )
    assert code == 0
    text = (out / "expansion.txt").read_text()
    assert "residual_max" in text
    assert (out / "fit_residual.csv").exists()


def test_cli_usage_error_exit_code():
    assert main(["transmute", "--input", "missing.csv", "--nonsense"]) == 2


def test_cli_config_error_exit_code(tmp_path):
    grid, inp = _write_sample_field(tmp_path)
    code = main(
        ["transmute", "--sp", "tabulated", "--input", str(inp), "--out", str(tmp_path / "x")]
    )
    assert code == 2  # tabulated family without table files


@pytest.mark.parametrize(
    "config, flags",
    [
        (None, ["--sp", "linear", "--params", "a,b"]),
        ({"grid": {"n1": "abc"}}, []),
        ({"tolerances": {"zero_mode_hO": 20.0}}, []),  # typo of zero_mode_h0
        (None, ["--sp", "linear"]),  # family without its parameters
    ],
    ids=["params-not-numeric", "config-not-numeric", "tolerance-unknown", "params-missing"],
)
def test_cli_malformed_input_exit_code(tmp_path, capsys, config, flags):
    argv = ["verify", "--nodes", "21", "--out", str(tmp_path / "out"), *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_env_output_override(tmp_path, monkeypatch):
    grid, inp = _write_sample_field(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("VEKUA_OUTDIR", str(target))
    code = main(
        ["transmute", "--sp", "zero", "--input", str(inp), "--out", str(tmp_path / "ignored")]
    )
    assert code == 0
    assert (target / "transmuted.csv").exists()


def test_cli_config_file(tmp_path):
    grid, inp = _write_sample_field(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"superpotential": {"name": "zero", "params": []}}))
    out = tmp_path / "cfgout"
    code = main(
        ["transmute", "--config", str(cfg), "--input", str(inp), "--out", str(out)]
    )
    assert code == 0


def test_cli_entry_point_runs():
    # the child imports the same vekua as this process, installed or not
    src = str(Path(vekua.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "vekua.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "formal-powers" in proc.stdout
