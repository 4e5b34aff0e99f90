"""Command-line surface.

Subcommands: ``formal-powers`` (emit sampled power tables), ``transmute``
(apply a transmutation operator to a field CSV), ``conjugate`` (construct
the metaharmonic partner of a kernel element), ``expand`` (collocation fit
in the formal-power basis) and ``verify`` (full identity battery at two
resolutions).

Every subcommand reads one :class:`~vekua.verification.RunConfig`: the
dataclass defaults, overridden by the flags.  Only ``formal-powers`` and
``verify`` build their grid, from ``--half-width`` and ``--nodes``;
``transmute``, ``conjugate`` and ``expand`` run on the grid of ``--input``.
``verify`` runs catalog families only, so it takes no
``--chi1-file``/``--chi2-file``.  Caps are not settable; they come from
:data:`vekua.verification.CHECKS`.

Exit codes: 0 success, 1 verification failure, 2 usage/config error, 3
numerical non-convergence.  Exit 2 covers unknown flags (a grid flag where
the grid comes from ``--input``, a chi file flag on ``verify``); an
unreadable input file; a non-numeric ``--params``; a node count that is not
an odd integer >= 3; a half-width that is not positive and finite, or whose
node spacing is not; an unknown family, a wrong parameter count for it
(``tabulated`` takes none) or a non-finite parameter; an ``--n-max`` or
``--degree`` below 0 or from 1030 on, where the binomial C(n, n // 2)
exceeds the largest double; a non-finite ``--a1`` or ``--a2``; a family,
grid or coefficient whose formal powers (``formal-powers``, ``expand``, and
``verify`` up to the battery's degree) or ``power_custom`` tables overflow
to a non-finite value; a finite input field whose ``transmute`` image,
``conjugate`` partner or Vekua residual, or ``expand`` fit coefficients,
residual norms or residual field overflow to a non-finite value; an input
CSV with a short row, a non-numeric cell or a non-finite value; field CSV
rows out of x-major order, or x or y nodes whose spacing overflows; and a
domain error of the input: a field outside the kernel the subcommand needs
(``KernelMembershipError``: it has a non-finite value, its h0 or h2
residual or one of f_xx, f_yy and U f overflows, or the residual is not
within 50 h^2 times the largest of 1, |f_xx|, |f_yy| and |U f| plus its
rounding 24 eps max|f| / h^2, see :func:`vekua.operators.require_kernel`)
or a grid too small for the stencils (``GridShapeError``); and any other
overflow the library raises (``OverflowError``, e.g. the formal powers of
the battery's refinement).  Each prints one line to stderr.  A degree from
1030 on is refused before any assembly, and formal powers whose 1-D power
systems overflow are refused before the 2-D binomial assembly.  A run that
exits 2 or 3 leaves no ``--out`` directory behind: each subcommand makes it
only once its results exist.  Identical flags yield byte-identical outputs.
Each output file is created new (see :func:`vekua.fields_io.open_output`),
so a run into a directory that holds an earlier run's outputs replaces them
rather than writing through them.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

import numpy as np

from . import conjugate as conj
from .errors import (
    ConfigError,
    GridShapeError,
    KernelMembershipError,
    NonConvergenceError,
)
from .expansion import evaluate_fit, fit_formal_polynomial
from .fields_io import (
    open_output,
    read_axis_table,
    read_field_csv,
    write_field_csv,
    write_grid_meta,
)
from .formal_powers import assemble_formal_powers
from .grid import Grid2D
from .superpotential import Superpotential, catalog_names, make_superpotential
from .transmutation import build_transmute, build_transmute_2d, build_transmute_tilde
from .verification import N_MAX, RunConfig, run_battery, render_report, write_report

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

# errors of the input's mathematics rather than of its syntax; exit 2
_DOMAIN_ERRORS = (KernelMembershipError, GridShapeError)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors print one stderr line and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"usage error: {self.prog}: {message}\n")


def _add_common(parser: argparse.ArgumentParser, grid_flags: bool, table_flags: bool):
    if grid_flags:
        parser.add_argument("--half-width", type=float, nargs="+", metavar="A",
                            help="rectangle half-widths (one value or a1 a2)")
        parser.add_argument("--nodes", type=int, nargs="+", metavar="N",
                            help="odd node counts (one value or n1 n2)")
    parser.add_argument("--sp", dest="sp_name", choices=catalog_names(),
                        help="superpotential family")
    parser.add_argument("--params", help="comma-separated family parameters")
    if table_flags:
        parser.add_argument("--chi1-file", type=Path, help="CSV x,chi1 for the tabulated family")
        parser.add_argument("--chi2-file", type=Path, help="CSV y,chi2 for the tabulated family")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _load_config(args, own_grid: bool) -> RunConfig:
    """The dataclass defaults, overridden by the flags; the grid flags exist
    only where the subcommand builds its own grid (``own_grid``)."""
    fields = {}
    if own_grid:  # one value sets both axes
        for flag, vals, keys in (("--half-width", args.half_width, ("half_width1", "half_width2")),
                                 ("--nodes", args.nodes, ("n1", "n2"))):
            if vals and len(vals) > 2:
                raise ConfigError(f"{flag} takes one value or two, got {len(vals)}")
            fields.update(zip(keys, (vals or []) * 2))
    if args.sp_name:
        fields["sp_name"] = args.sp_name
    if args.params is not None:
        text = args.params.strip()
        try:
            fields["sp_params"] = tuple(float(p) for p in text.split(",")) if text else ()
        except ValueError as exc:
            raise ConfigError(f"--params must be comma-separated numbers: {exc}") from exc
    return RunConfig(**fields)


def _non_negative(flag: str, value: int) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be non-negative, got {value}")


def _finite(flag: str, value: float) -> None:
    if not np.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _build(cfg: RunConfig, args, grid: Grid2D | None = None) -> tuple[Grid2D, Superpotential]:
    """The run's grid (``grid``, else the config's) and superpotential; a
    value the grid or the family refuses is a config error."""
    try:
        if grid is None:
            grid = cfg.grid()
        tables = {}
        if cfg.sp_name == "tabulated":
            if args.chi1_file is None or args.chi2_file is None:
                raise ConfigError("tabulated family needs --chi1-file and --chi2-file")
            tables["chi1_table"] = read_axis_table(args.chi1_file, grid.gx, "chi1")
            tables["chi2_table"] = read_axis_table(args.chi2_file, grid.gy, "chi2")
        return grid, make_superpotential(cfg.sp_name, cfg.sp_params, grid, **tables)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _assemble(cfg: RunConfig, sp: Superpotential, n_max: int, a1: float = 1.0,
              a2: float = 0.0):
    """The formal-power table of ``sp`` up to ``n_max`` and, for a coefficient
    a1 + i a2 other than 1, the powers a1 Z^n(1) + a2 Z^n(i) (else an empty
    list).  A degree whose largest binomial C(n, n // 2) exceeds the largest
    double (n >= 1030), and a family or a coefficient that overflows the
    powers to a non-finite value, are config errors, raised before any output
    exists and without a numpy warning; the degree before any assembly, and
    an overflow of the 1-D systems before the 2-D one."""
    # C(n, n // 2) never decreases in n and first exceeds a double at n = 1030,
    # so comparing at min(n, 1030) is exact and builds no larger integer
    top = min(n_max, 1030)
    if comb(top, top // 2) > sys.float_info.max:
        raise ConfigError(f"degree {n_max}: binomial C({n_max}, {n_max // 2}) overflows a double")
    params = ",".join(map(str, cfg.sp_params)) or "none"
    overflow = ConfigError(f"--sp {cfg.sp_name} with --params {params} overflows the formal "
                           f"powers up to degree {n_max} to a non-finite value on this grid")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            table = assemble_formal_powers(sp, n_max)
        except OverflowError as exc:
            raise overflow from exc
        custom = []
        if a1 != 1.0 or a2 != 0.0:
            custom = [table.power(n, complex(a1, a2)) for n in range(n_max + 1)]
    if not all(np.isfinite(b).all() for b in (table.z_one, table.z_i, table.z1_one, table.z1_i)):
        raise overflow
    if not all(np.isfinite(c).all() for c in custom):
        raise ConfigError(f"--a1 {a1} and --a2 {a2} overflow the power_custom "
                          "tables to a non-finite value")
    return table, custom


def _cmd_formal_powers(args) -> int:
    _non_negative("--n-max", args.n_max)
    _finite("--a1", args.a1)
    _finite("--a2", args.a2)
    cfg = _load_config(args, own_grid=True)
    grid, sp = _build(cfg, args)
    table, custom = _assemble(cfg, sp, args.n_max, args.a1, args.a2)
    out = _out_dir(args)
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
    if custom:
        for n, power in enumerate(custom):
            name = f"power_custom_n{n}.csv"
            write_field_csv(out / name, grid, power)
            manifest["files"].append(name)
        manifest["custom_coefficient"] = [args.a1, args.a2]
    with open_output(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['files'])} power tables to {out}")
    return EXIT_OK


def _write_kernel_csv(path: Path, gk) -> None:
    """The undressed Goursat kernel K (no slope parameter h) of ``gk`` as CSV:
    the header ``x,t,K``, then one LF-ended line per node pair
    (x_k, t_l) with l from min(k, n-1-k) to max(k, n-1-k), x outer, every
    number written as ``format(v, ".17g")``; one ``write`` per x-row."""
    nodes = gk.axis_grid.nodes
    n = len(nodes)
    # each node is formatted once; line (k, l) is x_k + tails[l], K filled in by %
    tails = [f",{format(t, '.17g')},%.17g\n" for t in nodes]
    with open_output(path, newline="") as fh:
        fh.write("x,t,K\n")
        for k, x in enumerate(nodes):
            lo, hi = min(k, n - 1 - k), max(k, n - 1 - k)
            head = format(x, ".17g")
            cells = tuple(gk.axis_values[k, lo:hi + 1].tolist())
            fh.write((head + head.join(tails[lo:hi + 1])) % cells)


def _cmd_transmute(args) -> int:
    cfg = _load_config(args, own_grid=False)
    grid, values = read_field_csv(args.input)
    _, sp = _build(cfg, args, grid)
    if args.op in ("T0", "T1"):
        t2d = build_transmute_2d(sp)
        apply = t2d.t0 if args.op == "T0" else t2d.t1
        kernels = {"x": t2d.tx, "y": t2d.ty}
    else:
        along_x = args.op in ("T1d", "T1d-tilde")
        build = build_transmute_tilde if args.op.endswith("tilde") else build_transmute
        op = build(sp.ax if along_x else sp.ay)
        apply = op.along_x if along_x else op.along_y
        kernels = {"x" if along_x else "y": op}
    with np.errstate(over="ignore", invalid="ignore"):
        result = apply(values)
    if not np.isfinite(result).all():
        raise ConfigError(f"the --op {args.op} image of {args.input} overflows to a "
                          "non-finite value")
    out = _out_dir(args)
    write_field_csv(out / "transmuted.csv", grid, result)
    write_grid_meta(out / "grid.json", grid)
    if args.dump_kernel:
        for label, op in kernels.items():
            _write_kernel_csv(out / f"kernel_{label}.csv", op.kernel)
    print(f"applied {args.op}, output in {out}")
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    cfg = _load_config(args, own_grid=False)
    grid, values = read_field_csv(args.input)
    _, sp = _build(cfg, args, grid)
    target = np.real(values)
    with np.errstate(over="ignore", invalid="ignore"):
        if args.direction == "2to0":
            result = conj.conjugate_from_w1(sp, target)
        else:
            result = conj.conjugate_from_w2(sp, target)
    if not (np.isfinite(result.partner).all() and np.isfinite(result.vekua_residual)):
        raise ConfigError(f"the --direction {args.direction} partner of {args.input} or its "
                          "Vekua residual overflows to a non-finite value")
    out = _out_dir(args)
    write_field_csv(out / "partner.csv", grid, result.partner.astype(complex))
    report = (
        f"direction {args.direction}\n"
        f"gauge_constant {result.gauge_constant:.17g}\n"
        f"vekua_residual {result.vekua_residual:.17g}\n"
    )
    with open_output(out / "conjugate_report.txt") as fh:
        fh.write(report)
    print(report, end="")
    return EXIT_OK


def _cmd_expand(args) -> int:
    _non_negative("--degree", args.degree)
    cfg = _load_config(args, own_grid=False)
    grid, values = read_field_csv(args.input)
    _, sp = _build(cfg, args, grid)
    table, _ = _assemble(cfg, sp, args.degree)
    with np.errstate(over="ignore", invalid="ignore"):
        fit = fit_formal_polynomial(sp, np.real(values), table, args.basis, args.degree)
        residual = np.real(values) - evaluate_fit(fit, table)
    if not all(np.isfinite(a).all() for a in (fit.coefficients, fit.residual_max,
                                                fit.residual_rms, residual)):
        raise ConfigError(f"the --basis {args.basis} fit of {args.input} or its residual "
                          "overflows to a non-finite value")
    out = _out_dir(args)
    write_field_csv(out / "fit_residual.csv", grid, residual.astype(complex))
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
    with open_output(out / "expansion.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines[:5]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load_config(args, own_grid=True)
    if cfg.sp_name == "tabulated":
        raise ConfigError("verify runs on catalog families (the battery refines the grid)")
    # a grid, family or formal powers the battery cannot build: exit 2, not 1
    _, sp = _build(cfg, args)
    _assemble(cfg, sp, N_MAX)
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
    parser = _Parser(
        prog="vekua",
        description="Formal powers, SUSY operator algebra and transmutation operators "
        "for the main Vekua equation with separable superpotentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formal-powers", help="emit sampled formal-power tables as CSV")
    _add_common(p, grid_flags=True, table_flags=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--a1", type=float, default=1.0, help="real part of the coefficient")
    p.add_argument("--a2", type=float, default=0.0, help="imaginary part of the coefficient")
    p.set_defaults(func=_cmd_formal_powers)

    p = sub.add_parser("transmute", help="apply a transmutation operator to a field CSV")
    _add_common(p, grid_flags=False, table_flags=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument(
        "--op",
        choices=("T0", "T1", "T1d", "T2d", "T1d-tilde", "T2d-tilde"),
        default="T0",
        help="T0/T1 are the 2-D operators; T1d/T2d the 1-D ones along x/y",
    )
    p.add_argument("--dump-kernel", action="store_true",
                   help="write the undressed Goursat kernel K as CSV: T0/T1 that of the plain "
                   "x and y ops, a 1-D op that of the op applied (-tilde: flipped potential)")
    p.set_defaults(func=_cmd_transmute)

    p = sub.add_parser("conjugate", help="metaharmonic partner of a kernel element")
    _add_common(p, grid_flags=False, table_flags=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--direction", choices=("2to0", "0to2"), required=True)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("expand", help="collocation fit in the formal-power basis")
    _add_common(p, grid_flags=False, table_flags=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--basis", choices=("ker_h0", "ker_h2"), required=True)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="run the full identity battery at two resolutions")
    _add_common(p, grid_flags=True, table_flags=False)
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
    except _DOMAIN_ERRORS as exc:
        print(f"domain error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:  # e.g. the formal powers of the battery's refinement
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
