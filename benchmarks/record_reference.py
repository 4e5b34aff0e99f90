"""Record the references that the benchmark's correctness gate compares against.

Battery: ``run_battery`` at n=201 for the zero family and for every
(alpha, beta) in ``inputs.PARAM_LATTICE`` squared of the linear and quadratic
families.  Each row keeps its coarse residual, cap, coarse/fine ratio and
verdict, written to reference/battery_n201.json.

Transmute: for the linear and quadratic families at every lattice pair,
the 2-D transmutation at n=401.  It keeps the outputs of its four axis
operators (tx, ty, tx_tilde, ty_tilde) on the axis basis s^a exp(-s^2),
a = 0, 1, 2, at every ``TRANSMUTE_STRIDE``-th node, and the largest error
of T0/T1[a z^k] against the formal powers Z^k(a) (k <= 4, a in {1, i})
with its cap.  Written to reference/transmute_n401.json.

Rerun it only when a change to ``vekua`` is meant to move these values, and
say so with the change:

    PYTHONPATH=src python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

import inputs
from workloads import (
    BATTERY_REFERENCE,
    HALF_WIDTH,
    T0_T1_POWERS_CAP,
    TRANSMUTE_REFERENCE,
    TRANSMUTE_STRIDE,
    reference_key,
)

BATTERY_N = 201
TRANSMUTE_N = 401
AXIS_DEGREES = sorted({d for pair in inputs.SMOOTH_MONOMIALS for d in pair})
POWERS_MAX = 4


def lattice_cases(families):
    return [(family, params) for family in families
            for params in itertools.product(inputs.PARAM_LATTICE, repeat=2)]


def record_battery() -> None:
    from vekua.verification import RunConfig, run_battery

    batteries = {}
    for family, params in [("zero", ())] + lattice_cases(("linear", "quadratic")):
        rows = run_battery(RunConfig(half_width1=HALF_WIDTH, half_width2=HALF_WIDTH,
                                     n1=BATTERY_N, n2=BATTERY_N, sp_name=family,
                                     sp_params=params))
        batteries[reference_key(family, params)] = {
            r.name: {"residual": float(r.residual), "cap": float(r.cap),
                     "ratio": None if r.ratio is None else float(r.ratio),
                     "passed": bool(r.passed)}
            for r in rows
        }
        failing = [r.name for r in rows if not r.passed]
        print(f"battery {family} {list(params)}: {len(rows)} rows, failing {failing}",
              file=sys.stderr)
    _write(BATTERY_REFERENCE, {"n": BATTERY_N, "half_width": HALF_WIDTH, "batteries": batteries})


def record_transmute() -> None:
    from vekua.formal_powers import assemble_formal_powers
    from vekua.grid import Grid2D
    from vekua.superpotential import make_superpotential
    from vekua.transmutation import build_transmute_2d

    grid = Grid2D.square(HALF_WIDTH, TRANSMUTE_N)
    nodes = grid.gx.nodes
    x, y = grid.meshes()
    z = x + 1j * y
    cap = T0_T1_POWERS_CAP * grid.hmax**2
    cases = {}
    for family, params in lattice_cases(("linear", "quadratic")):
        sp = make_superpotential(family, params, grid)
        t2d = build_transmute_2d(sp)
        table = assemble_formal_powers(sp, POWERS_MAX)
        error = max(
            max(float(np.max(np.abs(t2d.t0(a * z**k) - table.power(k, a)))),
                float(np.max(np.abs(t2d.t1(a * z**k) - table.power_succ(k, a)))))
            for k in range(POWERS_MAX + 1)
            for a in (1.0, 1j)
        )
        outputs = {
            name: [(op.matrix @ inputs.axis_basis(nodes, a))[::TRANSMUTE_STRIDE].tolist()
                   for a in AXIS_DEGREES]
            for name, op in (("tx", t2d.tx), ("ty", t2d.ty), ("tx_tilde", t2d.tx_tilde),
                             ("ty_tilde", t2d.ty_tilde))
        }
        cases[reference_key(family, params)] = {
            "t0_t1_powers_error": error, "t0_t1_powers_cap": cap, "outputs": outputs}
        print(f"transmute {family} {list(params)}: T0/T1 powers error {error:.3e} "
              f"(cap {cap:.3e})", file=sys.stderr)
    _write(TRANSMUTE_REFERENCE, {"n": TRANSMUTE_N, "half_width": HALF_WIDTH,
                                 "stride": TRANSMUTE_STRIDE, "axis_degrees": AXIS_DEGREES,
                                 "cases": cases})


def _write(path, record) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def main() -> int:
    record_battery()
    record_transmute()
    return 0


if __name__ == "__main__":
    sys.exit(main())
