"""Command-line surface.

Subcommands: ``formal-powers`` (emit sampled power tables), ``transmute``
(apply a transmutation operator to a field CSV), ``conjugate`` (construct
the metaharmonic partner of a kernel element), ``expand`` (collocation fit
in the formal-power basis) and ``verify`` (full identity battery at two
resolutions).

Every subcommand reads one :class:`~vekua.verification.RunConfig`: the
dataclass defaults, then the ``--config`` JSON file, then the flags.  Every
key of the file is optional::

    {"grid": {"a1": 1.0, "a2": 1.0, "n1": 201, "n2": 201},
     "superpotential": {"name": "linear", "params": [0.5, -1.0]},
     "tolerances": {"factorization": 150.0}}

``tolerances`` maps the name of a battery check whose cap is a multiple of
h^2 (a check with an ``h2_cap`` in :data:`vekua.verification.CHECKS`) to a
positive multiple of h^2 that replaces that cap.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical non-convergence.  Exit 2 covers unknown flags; an unreadable
config or input file; a non-numeric ``--params`` or config value; an even
or too small node count; a tolerance name without an h^2 cap, or a
tolerance that is not positive and finite; an unknown family or a wrong
parameter count for it.  Identical configuration yields byte-identical
outputs; the output directory defaults to ``--out`` and can be overridden
with the ``VEKUA_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import conjugate as conj
from .errors import ConfigError, NonConvergenceError
from .expansion import evaluate_fit, fit_formal_polynomial
from .fields_io import (
    read_axis_table,
    read_field_csv,
    write_field_csv,
    write_grid_meta,
)
from .formal_powers import assemble_formal_powers
from .grid import Grid2D
from .superpotential import catalog_names, make_superpotential
from .transmutation import build_transmute, build_transmute_2d, build_transmute_tilde
from .verification import RunConfig, run_battery, render_report, write_report

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--half-width", type=float, nargs="+", metavar="A",
                        help="rectangle half-widths (one value or a1 a2)")
    parser.add_argument("--nodes", type=int, nargs="+", metavar="N",
                        help="odd node counts (one value or n1 n2)")
    parser.add_argument("--sp", dest="sp_name",
                        choices=catalog_names(),
                        help="superpotential family")
    parser.add_argument("--params", help="comma-separated family parameters")
    parser.add_argument("--chi1-file", type=Path, help="CSV x,chi1 for the tabulated family")
    parser.add_argument("--chi2-file", type=Path, help="CSV y,chi2 for the tabulated family")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")


# config-file "grid" keys: RunConfig field and conversion
_GRID_KEYS = {"a1": ("half_width1", float), "a2": ("half_width2", float),
              "n1": ("n1", int), "n2": ("n2", int)}


def _load_config(args) -> RunConfig:
    fields = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        try:
            grid = raw.get("grid", {})
            for key, (name, convert) in _GRID_KEYS.items():
                if key in grid:
                    fields[name] = convert(grid[key])
            sp = raw.get("superpotential", {})
            if "name" in sp:
                fields["sp_name"] = sp["name"]
            fields["sp_params"] = tuple(float(p) for p in sp.get("params", ()))
            fields["tolerances"] = {k: float(v) for k, v in raw.get("tolerances", {}).items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config {args.config}: {exc}") from exc
    if args.half_width:
        vals = args.half_width
        fields["half_width1"] = vals[0]
        fields["half_width2"] = vals[1] if len(vals) > 1 else vals[0]
    if args.nodes:
        vals = args.nodes
        fields["n1"] = vals[0]
        fields["n2"] = vals[1] if len(vals) > 1 else vals[0]
    if args.sp_name:
        fields["sp_name"] = args.sp_name
    if args.params is not None:
        text = args.params.strip()
        try:
            fields["sp_params"] = tuple(float(p) for p in text.split(",")) if text else ()
        except ValueError as exc:
            raise ConfigError(f"--params must be comma-separated numbers: {exc}") from exc
    return RunConfig(**fields)


def _build_sp(cfg: RunConfig, args, grid: Grid2D):
    tables = {}
    if cfg.sp_name == "tabulated":
        if args.chi1_file is None or args.chi2_file is None:
            raise ConfigError("tabulated family needs --chi1-file and --chi2-file")
        tables["chi1_table"] = read_axis_table(args.chi1_file, grid.gx, "chi1")
        tables["chi2_table"] = read_axis_table(args.chi2_file, grid.gy, "chi2")
    try:
        return make_superpotential(cfg.sp_name, cfg.sp_params, grid, **tables)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    override = os.environ.get("VEKUA_OUTDIR")
    out = Path(override) if override else args.out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_formal_powers(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid()
    sp = _build_sp(cfg, args, grid)
    out = _out_dir(args)
    table = assemble_formal_powers(sp, args.n_max)
    write_grid_meta(out / "grid.json", grid)
    manifest = {"superpotential": {"name": cfg.sp_name, "params": list(cfg.sp_params)},
                "n_max": args.n_max, "files": []}
    families = (
        ("seq0_a1", table.z_one),
        ("seq0_ai", table.z_i),
        ("seq1_a1", table.z1_one),
        ("seq1_ai", table.z1_i),
    )
    for label, block in families:
        for n in range(args.n_max + 1):
            name = f"power_{label}_n{n}.csv"
            write_field_csv(out / name, grid, block[n])
            manifest["files"].append(name)
    if args.a1 != 1.0 or args.a2 != 0.0:
        a = complex(args.a1, args.a2)
        for n in range(args.n_max + 1):
            name = f"power_custom_n{n}.csv"
            write_field_csv(out / name, grid, table.power(n, a))
            manifest["files"].append(name)
        manifest["custom_coefficient"] = [args.a1, args.a2]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['files'])} power tables to {out}")
    return EXIT_OK


def _cmd_transmute(args) -> int:
    cfg = _load_config(args)
    in_grid, values = read_field_csv(args.input)
    grid = in_grid
    sp = _build_sp(cfg, args, grid)
    out = _out_dir(args)
    if args.op in ("T0", "T1"):
        t2d = build_transmute_2d(sp)
        result = t2d.t0(values) if args.op == "T0" else t2d.t1(values)
        kernels = {"x": t2d.tx, "y": t2d.ty}
    else:
        profile = sp.ax if args.op in ("T1d", "T1d-tilde") else sp.ay
        axis = 0 if args.op in ("T1d", "T1d-tilde") else 1
        if args.op.endswith("tilde"):
            op = build_transmute_tilde(profile)
        else:
            op = build_transmute(profile)
        result = op.along_x(values) if axis == 0 else op.along_y(values)
        kernels = {("x" if axis == 0 else "y"): op}
    write_field_csv(out / "transmuted.csv", grid, result)
    write_grid_meta(out / "grid.json", grid)
    if args.dump_kernel:
        for label, op in kernels.items():
            gk = op.kernel
            nodes = gk.axis_grid.nodes
            lines = ["x,t,K"]
            for k, xk in enumerate(nodes):
                lo, hi = min(k, len(nodes) - 1 - k), max(k, len(nodes) - 1 - k)
                for l in range(lo, hi + 1):
                    lines.append(
                        f"{format(xk, '.17g')},{format(nodes[l], '.17g')},"
                        f"{format(gk.axis_values[k, l], '.17g')}"
                    )
            (out / f"kernel_{label}.csv").write_text("\n".join(lines) + "\n")
    print(f"applied {args.op}, output in {out}")
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    cfg = _load_config(args)
    grid, values = read_field_csv(args.input)
    sp = _build_sp(cfg, args, grid)
    out = _out_dir(args)
    target = np.real(values)
    if args.direction == "2to0":
        result = conj.conjugate_from_w1(sp, target)
    else:
        result = conj.conjugate_from_w2(sp, target)
    write_field_csv(out / "partner.csv", grid, result.partner.astype(complex))
    report = (
        f"direction {args.direction}\n"
        f"gauge_constant {result.gauge_constant:.17g}\n"
        f"vekua_residual {result.vekua_residual:.17g}\n"
    )
    (out / "conjugate_report.txt").write_text(report)
    print(report, end="")
    return EXIT_OK


def _cmd_expand(args) -> int:
    cfg = _load_config(args)
    grid, values = read_field_csv(args.input)
    sp = _build_sp(cfg, args, grid)
    out = _out_dir(args)
    table = assemble_formal_powers(sp, args.degree)
    fit = fit_formal_polynomial(sp, np.real(values), table, args.basis, args.degree)
    recon = evaluate_fit(fit, table)
    write_field_csv(out / "fit_residual.csv", grid, (np.real(values) - recon).astype(complex))
    lines = [
        f"basis {fit.basis_kind}",
        f"degree {fit.degree}",
        f"residual_max {fit.residual_max:.17g}",
        f"residual_rms {fit.residual_rms:.17g}",
        f"rank {fit.rank}",
        "coefficients (n, unit, value):",
    ]
    for n in range(fit.degree + 1):
        lines.append(f"  {n} 1 {fit.coefficient(n, 'one'):.17g}")
        lines.append(f"  {n} i {fit.coefficient(n, 'i'):.17g}")
    (out / "expansion.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines[:5]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    cfg.corrupt_u0 = args.corrupt_potential
    if cfg.sp_name == "tabulated":
        raise ConfigError("verify runs on catalog families (the battery refines the grid)")
    _build_sp(cfg, args, cfg.grid())  # unknown family or parameter count: exit 2, not 1
    rows = run_battery(cfg)
    out = _out_dir(args)
    write_report(rows, cfg, out)
    print(render_report(rows, cfg), end="")
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"FAILED identities: {', '.join(r.name for r in failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vekua",
        description="Formal powers, SUSY operator algebra and transmutation operators "
        "for the main Vekua equation with separable superpotentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formal-powers", help="emit sampled formal-power tables as CSV")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--a1", type=float, default=1.0, help="real part of the coefficient")
    p.add_argument("--a2", type=float, default=0.0, help="imaginary part of the coefficient")
    p.set_defaults(func=_cmd_formal_powers)

    p = sub.add_parser("transmute", help="apply a transmutation operator to a field CSV")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument(
        "--op",
        choices=("T0", "T1", "T1d", "T2d", "T1d-tilde", "T2d-tilde"),
        default="T0",
        help="T0/T1 are the 2-D operators; T1d/T2d the 1-D ones along x/y",
    )
    p.add_argument("--dump-kernel", action="store_true", help="write triangular kernel CSVs")
    p.set_defaults(func=_cmd_transmute)

    p = sub.add_parser("conjugate", help="metaharmonic partner of a kernel element")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--direction", choices=("2to0", "0to2"), required=True)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("expand", help="collocation fit in the formal-power basis")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--basis", choices=("ker_h0", "ker_h2"), required=True)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="run the full identity battery at two resolutions")
    _add_common(p)
    p.add_argument(
        "--corrupt-potential",
        action="store_true",
        help="testing aid: shift U0 by +1 so the zero-mode identity must fail",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize other codes
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
