import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vekua
import vekua.cli as cli
from vekua.cli import build_parser, main
from vekua.errors import (
    ConfigError,
    GridShapeError,
    KernelMembershipError,
)
from vekua.fields_io import (
    read_axis_table,
    read_field_csv,
    write_field_csv,
    write_grid_meta,
)
from vekua.grid import Grid1D, Grid2D
from vekua.superpotential import catalog_names


@pytest.fixture()
def small_grid():
    return Grid2D(Grid1D(1.0, 21), Grid1D(1.0, 21))


def test_field_csv_roundtrip(tmp_path, small_grid):
    x, y = small_grid.meshes()
    values = np.exp(x) * np.cos(y) + 1j * (x - y) / 3.0
    values[0, :4] = [complex(-0.0, 5e-324), complex(-5e-324, -0.0), 1e300 - 1e-300j, 0.1]
    path = tmp_path / "field.csv"
    write_field_csv(path, small_grid, values)
    grid2, back = read_field_csv(path)
    assert grid2.shape == small_grid.shape
    # 17 significant digits round-trip bit for bit, signed zeros and subnormals too
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))
    header = path.read_text().splitlines()[0]
    assert header == "x,y,re,im"


def test_field_csv_golden_bytes(tmp_path):
    values = np.array([[complex(-0.0, 5e-324), complex(1e300, 0.1), complex(0.1, -1e300)],
                       [complex(0.0, -0.0), complex(-5e-324, 1.0), complex(1 / 3, 2.5)],
                       [complex(-2.5e-310, 1e22), complex(123456789.0, -0.1), complex(-0.0, -0.0)]])
    path = tmp_path / "field.csv"
    write_field_csv(path, Grid2D.square(1.0, 3), values)
    assert path.read_bytes() == (
        b"x,y,re,im\r\n"
        b"-1,-1,-0,4.9406564584124654e-324\r\n"
        b"-1,0,1.0000000000000001e+300,0.10000000000000001\r\n"
        b"-1,1,0.10000000000000001,-1.0000000000000001e+300\r\n"
        b"0,-1,0,-0\r\n"
        b"0,0,-4.9406564584124654e-324,1\r\n"
        b"0,1,0.33333333333333331,2.5\r\n"
        b"1,-1,-2.5000000000000171e-310,1e+22\r\n"
        b"1,0,123456789,-0.10000000000000001\r\n"
        b"1,1,-0,-0\r\n"
    )


# the cells of one data row, spelt as a hand-written export might
_CELL_SPELLINGS = ("-1", " -1.0 ", '"-1"', '" -1e0"', "-1.", "-.1e1", "+0", "-0", "0.0",
                   "5e-324", "1E300", "0.1", "-2.5e-310", "+1e22", " 0.33333333333333331\t")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_field_csv_parses_cells_as_float_does(tmp_path, newline):
    grid = Grid2D.square(1.0, 3)
    lines, want = ["x, y ,re,im,note"], []
    for k, (x, y) in enumerate(zip(*(m.ravel() for m in grid.meshes()))):
        re, im = _CELL_SPELLINGS[k], _CELL_SPELLINGS[-1 - k]
        want.append(complex(float(re.strip('"')), float(im.strip('"'))))
        extra = ["", ",7", ",text,more"][k % 3]  # ragged trailing columns
        lines.append(f'{x:.17g},"{y:.17g}",{re},{im}{extra}')
        if k % 4 == 0:
            lines.append("")
    path = tmp_path / "field.csv"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    _, back = read_field_csv(path)
    np.testing.assert_array_equal(back.ravel().view(np.uint64),
                                  np.array(want).view(np.uint64))


def test_grid_meta_roundtrip(tmp_path, small_grid):
    path = tmp_path / "grid.json"
    write_grid_meta(path, small_grid)
    assert json.loads(path.read_text()) == {"a1": 1.0, "a2": 1.0, "n1": 21, "n2": 21}


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


def _kernel_csv_oracle(gk) -> bytes:
    """The kernel CSV cell by cell: header, then x,t,K per node pair, LF-ended."""
    nodes = gk.axis_grid.nodes
    n = len(nodes)
    lines = ["x,t,K"]
    for k in range(n):
        for l in range(min(k, n - 1 - k), max(k, n - 1 - k) + 1):
            cells = (nodes[k], nodes[l], gk.axis_values[k, l])
            lines.append(",".join(format(v, ".17g") for v in cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("op", ["T0", "T1d-tilde", "T2d"])
def test_cli_kernel_dump_bytes(tmp_path, op):
    from vekua.superpotential import make_superpotential
    from vekua.transmutation import build_transmute, build_transmute_2d, build_transmute_tilde

    _, inp = _write_sample_field(tmp_path, n=11)
    out = tmp_path / "out"
    argv = ["transmute", "--sp", "quadratic", "--params=1,-0.5", "--input", str(inp),
            "--op", op, "--out", str(out), "--dump-kernel"]
    assert main(argv) == 0
    sp = make_superpotential("quadratic", (1.0, -0.5), read_field_csv(inp)[0])
    if op == "T0":
        t2d = build_transmute_2d(sp)
        kernels = {"x": t2d.tx, "y": t2d.ty}
    elif op == "T1d-tilde":
        kernels = {"x": build_transmute_tilde(sp.ax)}
    else:
        kernels = {"y": build_transmute(sp.ay)}
    assert sorted(p.name for p in out.glob("kernel_*.csv")) == [f"kernel_{k}.csv" for k in kernels]
    for label, t in kernels.items():
        assert (out / f"kernel_{label}.csv").read_bytes() == _kernel_csv_oracle(t.kernel)


def _write_axis_table(path, grid, samples, label):
    rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.nodes, samples))
    path.write_text(f"x,{label}\n" + rows)


@pytest.mark.parametrize("op", ["T1d", "T2d-tilde"])
def test_cli_transmute_tabulated_converges_to_the_catalog_family(tmp_path, op):
    # quadratic (1, -0.5) as tables: its chi' and chi'' stencils are exact for a
    # quadratic, so the gap to the catalog run is the O(h^2) interpolation of q
    # between the nodes, which the characteristic grid reads at half steps
    from vekua.verification import RATIO_WINDOW

    gaps = []
    for n in (21, 41):
        work = tmp_path / f"n{n}"
        work.mkdir()
        grid, inp = _write_sample_field(work, n)
        _write_axis_table(work / "chi1.csv", grid.gx, 0.5 * grid.gx.nodes**2, "chi1")
        _write_axis_table(work / "chi2.csv", grid.gy, -0.25 * grid.gy.nodes**2, "chi2")
        common = ["transmute", "--input", str(inp), "--op", op]
        tabulated = ["--sp", "tabulated", "--chi1-file", str(work / "chi1.csv"),
                     "--chi2-file", str(work / "chi2.csv"), "--out", str(work / "tab")]
        assert main(common + tabulated) == 0
        assert main(common + ["--sp", "quadratic", "--params=1,-0.5",
                              "--out", str(work / "poly")]) == 0
        _, got = read_field_csv(work / "tab" / "transmuted.csv")
        _, want = read_field_csv(work / "poly" / "transmuted.csv")
        gaps.append(float(np.max(np.abs(got - want))))
    assert gaps[1] > 0.0
    assert RATIO_WINDOW[0] <= gaps[0] / gaps[1] <= RATIO_WINDOW[1], gaps


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


@pytest.mark.parametrize("direction", ["2to0", "0to2"])
def test_cli_conjugate(tmp_path, direction):
    # for chi = 0 the partners are harmonic conjugates: x -> y and y -> x
    grid = Grid2D.square(1.0, 21)
    x, y = grid.meshes()
    given, partner_want = (x, y) if direction == "2to0" else (y, x)
    inp = tmp_path / "w.csv"
    write_field_csv(inp, grid, given.astype(complex))
    out = tmp_path / "conj"
    code = main(
        ["conjugate", "--sp", "zero", "--input", str(inp), "--direction", direction,
         "--out", str(out)]
    )
    assert code == 0
    _, partner = read_field_csv(out / "partner.csv")
    np.testing.assert_allclose(np.real(partner), partner_want, atol=1e-6)
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
    "flags",
    [
        ["--sp", "linear", "--params", "a,b"],
        ["--sp", "linear"],  # family without its parameters
        ["--sp", "linear", "--params", "nan,1"],
        ["--half-width", "nan"],
        ["--half-width", "1", "0"],
        ["--nodes", "21", "31", "41"],  # the third value was dropped without a word
    ],
    ids=["params-not-numeric", "params-missing", "params-not-finite", "half-width-not-finite",
         "half-width-zero", "nodes-three-values"],
)
def test_cli_malformed_input_exit_code(tmp_path, capsys, flags):
    argv = ["verify", "--nodes", "21", "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 2
    _one_line_error(capsys, "config error: ")
    assert not (tmp_path / "out").exists()


# data row 5 (file line 6) of a valid 21 x 21 field CSV, spoilt three ways,
# and what the error names
_SPOILT_ROWS = {
    "nan-cell": (lambda cells: cells[:2] + ["nan", "0"], "non-finite value in data row 5"),
    "short-row": (lambda cells: cells[:3], "input.csv:6: malformed row (IndexError"),
    "word-cell": (lambda cells: cells[:2] + ["abc", "0"], "input.csv:6: malformed row (ValueError"),
    # float() takes these two, but they are no plain numbers: refused, never misread
    "underscore-cell": (lambda cells: cells[:2] + ["1_0", "0"],
                        "input.csv:6: malformed row (ValueError: could not convert string to "
                        "float: '1_0')"),
    "fullwidth-digit-cell": (lambda cells: cells[:2] + ["\uff11", "0"],
                             "input.csv:6: malformed row (ValueError"),
}


def _write_spoilt_field(tmp_path, kind):
    _, path = _write_sample_field(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = ",".join(_SPOILT_ROWS[kind][0](lines[5].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return path


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "row, message",
    [("0,inf", "non-finite value in data row 3"), ("0,nan", "non-finite value in data row 3"),
     ("0", r"chi1\.csv:4: malformed row")],
    ids=["inf", "nan", "short"],
)
def test_read_axis_table_rejects_spoilt_row(tmp_path, row, message):
    grid = Grid1D(1.0, 5)
    rows = [f"{x:.17g},0" for x in grid.nodes]
    rows[2] = row
    path = tmp_path / "chi1.csv"
    path.write_text("x,chi1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_axis_table(path, grid, "chi1")


@pytest.mark.parametrize("kind", sorted(_SPOILT_ROWS))
def test_cli_transmute_rejects_spoilt_csv(tmp_path, capsys, kind):
    path = _write_spoilt_field(tmp_path, kind)
    argv = ["transmute", "--sp", "zero", "--input", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert _SPOILT_ROWS[kind][1] in _one_line_error(capsys, "config error: ")
    assert not (tmp_path / "o" / "transmuted.csv").exists()


@pytest.mark.parametrize("order, row", [("y-major", 2), ("duplicated-row", 7)])
def test_rows_out_of_x_major_order_exit_2(tmp_path, capsys, order, row):
    grid = Grid2D.square(1.0, 5)
    x, y = grid.meshes()
    path = tmp_path / "input.csv"
    write_field_csv(path, grid, x + 2j * y)
    header, *data = path.read_text().splitlines()
    if order == "y-major":
        data = [data[5 * j + i] for i in range(5) for j in range(5)]
    else:
        data[6] = data[5]  # node (x1, y1) is missing, (x1, y0) twice
    path.write_text("\n".join([header, *data]) + "\n")
    message = f"data row {row} is out of x-major order"
    with pytest.raises(ConfigError, match=message):
        read_field_csv(path)
    argv = ["transmute", "--sp", "zero", "--input", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert message in _one_line_error(capsys, "config error: ")


@pytest.fixture(scope="module")
def exit_2_inputs(tmp_path_factory):
    """x^2 + y^2 on the 3, 21 and 101 node grids and exp(xy) on the 21 node
    grid (in neither kernel for chi = 0), and a zero chi table on 21 nodes."""
    fields = {f"sq{n}": (n, lambda x, y: x**2 + y**2) for n in (3, 21, 101)}
    fields["expxy21"] = (21, lambda x, y: np.exp(x * y))
    paths = {}
    for label, (n, f) in fields.items():
        grid = Grid2D.square(1.0, n)
        path = tmp_path_factory.mktemp("fields") / f"{label}.csv"
        write_field_csv(path, grid, f(*grid.meshes()).astype(complex))
        paths[label] = str(path)
    path = tmp_path_factory.mktemp("tables") / "chi0_21.csv"
    path.write_text("s,chi\n" + "".join(f"{s:.17g},0\n" for s in Grid1D(1.0, 21).nodes))
    paths["chi0_21"] = str(path)
    # x nodes -1.5e308, 0, 1.5e308: symmetric and uniform, but 2 * a1 overflows
    path = tmp_path_factory.mktemp("fields") / "huge3.csv"
    path.write_text("x,y,re,im\n" + "".join(f"{x},{y},0,0\n" for x in (-1.5e308, 0, 1.5e308)
                                             for y in (-1, 0, 1)))
    paths["huge3"] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["formal-powers", "--sp", "zero", "--nodes", "21", "--n-max", "-1"], "config error: "),
        (["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h2", "--degree", "-1"],
         "config error: "),
        (["expand", "--sp", "zero", "--input", "{sq101}", "--basis", "ker_h0"],
         "domain error (KernelMembershipError): "),
        (["expand", "--sp", "zero", "--input", "{sq3}", "--basis", "ker_h2"],
         "domain error (GridShapeError): "),
        (["conjugate", "--sp", "zero", "--input", "{sq101}", "--direction", "2to0"],
         "domain error (KernelMembershipError): "),
        # exp(xy) has Laplacian (x^2 + y^2) exp(xy); on a coarse grid the cap
        # must still see that against the size of f_xx, f_yy
        (["expand", "--sp", "zero", "--input", "{expxy21}", "--basis", "ker_h0"],
         "domain error (KernelMembershipError): "),
        (["conjugate", "--sp", "zero", "--input", "{expxy21}", "--direction", "2to0"],
         "domain error (KernelMembershipError): "),
        (["transmute", "--sp", "tabulated", "--params", "1,2", "--input", "{sq21}",
          "--chi1-file", "{chi0_21}", "--chi2-file", "{chi0_21}"],
         "config error: family 'tabulated' takes 0 parameters, got 2"),
        # these subcommands run on the grid of --input and take no grid flags
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--nodes", "301"],
         "usage error: vekua: unrecognized arguments: --nodes 301"),
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--nodes", "4"],
         "usage error: vekua: unrecognized arguments: --nodes 4"),
        (["conjugate", "--sp", "zero", "--input", "{sq21}", "--direction", "2to0",
          "--half-width", "7"], "usage error: vekua: unrecognized arguments: --half-width 7"),
        (["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h0", "--nodes", "21"],
         "usage error: vekua: unrecognized arguments: --nodes 21"),
        # verify refuses tabulated, so it takes no chi files
        (["verify", "--nodes", "21", "--chi1-file", "{chi0_21}"],
         "usage error: vekua: unrecognized arguments: --chi1-file"),
        (["formal-powers", "--sp", "zero", "--half-width", "1", "2", "3"],
         "config error: --half-width takes one value or two, got 3"),
        # a non-finite coefficient would write power_custom_n* tables of nan/inf
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a1", "nan"],
         "config error: --a1 must be finite, got nan"),
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a1", "inf"],
         "config error: --a1 must be finite, got inf"),
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a2=-inf"],
         "config error: --a2 must be finite, got -inf"),
        # 2 * a1 overflows, so the node spacing would be inf
        (["verify", "--half-width", "1e308", "--nodes", "5"],
         "config error: half_width 1e+308 with 5 nodes gives spacing h = inf"),
        (["transmute", "--sp", "zero", "--input", "{huge3}"],
         "config error: {huge3}:x: half_width 1.5e+308 with 3 nodes gives spacing h = inf"),
        # a run's values come from the flags alone
        (["verify", "--nodes", "21", "--config", "cfg.json"],
         "usage error: vekua: unrecognized arguments: --config cfg.json"),
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--config", "cfg.json"],
         "usage error: vekua: unrecognized arguments: --config cfg.json"),
    ],
    ids=["formal-powers-negative-n-max", "expand-negative-degree", "expand-not-in-kernel",
         "expand-grid-too-small", "conjugate-not-in-kernel", "expand-exp-xy-coarse",
         "conjugate-exp-xy-coarse", "transmute-tabulated-with-params", "transmute-nodes",
         "transmute-even-nodes", "conjugate-half-width", "expand-nodes", "verify-chi1-file",
         "formal-powers-three-half-widths", "formal-powers-a1-nan", "formal-powers-a1-inf",
         "formal-powers-a2-minus-inf", "verify-spacing-overflows",
         "transmute-input-spacing-overflows", "verify-config", "transmute-config"],
)
def test_cli_domain_and_usage_errors_exit_2(tmp_path, capsys, exit_2_inputs, argv, prefix):
    argv = [a.format(**exit_2_inputs) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    _one_line_error(capsys, prefix.format(**exit_2_inputs))
    # only a domain error is found after the output directory is made
    assert prefix.startswith("domain error") or not (tmp_path / "o").exists()


@pytest.mark.parametrize("error", [KernelMembershipError, GridShapeError])
def test_cli_maps_every_domain_error_to_exit_2(tmp_path, capsys, monkeypatch, error):
    def fail(sp):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "build_transmute_2d", fail)
    _, inp = _write_sample_field(tmp_path)
    assert main(["transmute", "--sp", "zero", "--input", str(inp),
                 "--out", str(tmp_path / "o")]) == 2
    assert _one_line_error(capsys, f"domain error ({error.__name__}): ").endswith(
        "synthetic failure\n"
    )


def test_cli_sp_choices_are_the_catalog():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for name, sub in subcommands.items():
        (sp_action,) = [a for a in sub._actions if a.dest == "sp_name"]
        assert tuple(sp_action.choices) == catalog_names(), name


def _child_env():
    # a child process imports the same vekua as this process, installed or not
    src = str(Path(vekua.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vekua.cli", "--help"], capture_output=True, text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "formal-powers" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs numpy only; importing scipy would add most of the start-up time
    code = "import sys, vekua.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_formal_powers_custom_coefficient(tmp_path):
    out = tmp_path / "fp"
    argv = ["formal-powers", "--sp", "linear", "--params", "0.5,-1", "--nodes", "21",
            "--n-max", "2", "--a1", "0.5", "--a2", "-1", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["custom_coefficient"] == [0.5, -1.0]
    for n in range(3):
        assert f"power_custom_n{n}.csv" in manifest["files"]
        _, custom = read_field_csv(out / f"power_custom_n{n}.csv")
        _, z_one = read_field_csv(out / f"power_seq0_a1_n{n}.csv")
        _, z_i = read_field_csv(out / f"power_seq0_ai_n{n}.csv")
        # Z^n(a) = a1 Z^n(1) + a2 Z^n(i) for a = a1 + i a2
        np.testing.assert_array_equal(custom, 0.5 * z_one + -1.0 * z_i)
