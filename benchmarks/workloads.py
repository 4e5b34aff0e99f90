"""The three benchmark workloads.

A workload draws its seeded inputs and loads its references (``prepare``,
untimed), builds the state its requests share (``build``; only
``stream-201`` has any), then hands the runner one *pass*: a fixed list of
operations.  Each operation makes its input arrays from the drawn seeds
(untimed), makes one public call into ``vekua`` (timed) and checks the
output (untimed).  Inputs and checks record no spans in the traced run, and
expected values are worked out inside the check, so no large array outlives
its operation.

Every call goes through a module attribute looked up at call time
(``vekua.verification.run_battery``, not a name bound at import), so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs

BENCH_DIR = Path(__file__).resolve().parent
BATTERY_REFERENCE = BENCH_DIR / "reference" / "battery_n201.json"
TRANSMUTE_REFERENCE = BENCH_DIR / "reference" / "transmute_n401.json"
HALF_WIDTH = 1.0
# Caps, in units of h^2, that the battery applies to the same relations
# (vekua.verification.DEFAULT_CAPS at the commit the benchmark was defined).
T0_T1_POWERS_CAP = 300.0
CONJUGATE_CAP = 50.0
# Self-fit of formal-power combinations must return the seeded coefficients
# to this relative accuracy (the battery's fit_self_coefficients cap).
FIT_COEFFICIENT_TOL = 1e-6
# Two evaluations of the same operator on the same field, summed in another
# order, may differ by rounding only (relative to the field's maximum).
ROUNDING_TOL = 1e-12
# A battery residual, coarse or refined, may differ from its recorded
# reference by rounding only: relative 1e-12, and at least 1e-9 of the cap
# (about 1e-11) for rows whose residual is itself rounding.  The battery is
# bit-for-bit reproducible across BLAS thread counts on the machine the
# reference was recorded on.
REFERENCE_REL = 1e-12
REFERENCE_CAP_SHARE = 1e-9
# The transmute reference keeps every TRANSMUTE_STRIDE-th node of each axis.
TRANSMUTE_STRIDE = 10


@dataclass
class Failure:
    reason: str
    known: bool = False  # reproduces a failure recorded in the reference


@dataclass
class Op:
    label: str
    call: Callable[..., Any]  # timed: call(*inputs())
    check: Callable[..., Failure | None]  # untimed: check(result, *inputs())
    inputs: Callable[[], tuple] = tuple  # untimed: the call's arguments


def _vekua(module: str):
    return importlib.import_module(f"vekua.{module}")


def _non_finite(*arrays) -> bool:
    return not all(np.all(np.isfinite(a)) for a in arrays)


def _load_reference(path: Path, n: int) -> dict | None:
    if not path.is_file():
        return None
    record = json.loads(path.read_text())
    if record["n"] != n or record["half_width"] != HALF_WIDTH:
        return None
    return record


def reference_key(family: str, params) -> str:
    return f"{family}{[float(p) for p in params]}"


class Workload:
    name = ""
    default_n = 0

    def __init__(self, seed: int, n: int | None):
        self.n = n or self.default_n
        self.rng = np.random.default_rng(seed)
        self.extras: dict = {}  # per-layer values that are not spans
        self.gate_errors: list[str] = []  # reference problems found while preparing

    def describe(self) -> dict:
        return {"n": self.n}

    def setup_code(self) -> str:
        """Python source a fresh interpreter runs to get ready for the workload."""
        return "import vekua.cli\n"

    def prepare(self, workdir: Path) -> None:
        """Seeded inputs and references; untimed."""

    def build(self) -> None:
        """The state the operations share, as ``setup_code`` builds it."""

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops()[:1]


class VerifyWorkload(Workload):
    """``run_battery`` for the zero, linear and quadratic families."""

    name = "verify-201"
    default_n = 201

    def __init__(self, seed, n):
        super().__init__(seed, n)
        self.families = (
            ("zero", ()),
            ("linear", inputs.lattice_params(self.rng)),
            ("quadratic", inputs.lattice_params(self.rng)),
        )
        self.reference = {}

    def describe(self):
        return {"n": self.n, "families": [[f, list(p)] for f, p in self.families],
                "param_lattice": list(inputs.PARAM_LATTICE)}

    def prepare(self, workdir):
        record = _load_reference(BATTERY_REFERENCE, self.n)
        if record is None:
            self.gate_errors.append(f"no battery reference recorded for n={self.n}")
        else:
            self.reference = record["batteries"]

    def pass_ops(self):
        return [
            Op(f"{family}{list(params)}", self._battery_call(family, params),
               self._battery_check(family, params))
            for family, params in self.families
        ]

    def _battery_call(self, family, params):
        def call():
            verification = _vekua("verification")
            cfg = verification.RunConfig(half_width1=HALF_WIDTH, half_width2=HALF_WIDTH,
                                         n1=self.n, n2=self.n, sp_name=family, sp_params=params)
            return verification.run_battery(cfg)

        return call

    def _battery_check(self, family, params):
        ref = self.reference.get(reference_key(family, params))

        def check(rows):
            headroom = max(r.residual / r.cap for r in rows)
            self.extras[f"verification.worst_headroom.{family}"] = headroom
            self.extras["verification.worst_headroom"] = max(
                self.extras.get("verification.worst_headroom", 0.0), headroom)
            bad = [r.name for r in rows if not np.isfinite(r.residual)]
            if bad:
                return Failure(f"non-finite residuals: {bad}")
            failing = {r.name for r in rows if not r.passed}
            if ref is None:
                return Failure(f"FAIL rows {sorted(failing)}; no reference") if failing else None
            drifted = [msg for r in rows if (msg := _battery_drift(r, ref.get(r.name)))]
            drifted += [f"{name}: missing" for name in ref.keys() - {r.name for r in rows}]
            if drifted:
                return Failure(f"residuals off the reference: {drifted}")
            if failing:
                known = {name for name, row in ref.items() if not row["passed"]}
                return Failure(f"FAIL rows {sorted(failing)}", known=failing <= known)
            return None

        return check


def _battery_drift(row, ref) -> str | None:
    """Why a battery row differs from its reference by more than rounding, or None."""
    if ref is None:
        return f"{row.name}: not in the reference"

    def off(value, want):
        return abs(value - want) > REFERENCE_REL * abs(want) + REFERENCE_CAP_SHARE * row.cap

    if off(row.cap, ref["cap"]):
        return f"{row.name}: cap {row.cap:.17g} != {ref['cap']:.17g}"
    if off(row.residual, ref["residual"]):
        return f"{row.name}: residual {row.residual:.17g} != {ref['residual']:.17g}"
    if (row.ratio is None) != (ref["ratio"] is None):
        return f"{row.name}: coarse/fine ratio {row.ratio} != {ref['ratio']}"
    if row.ratio is not None:
        fine, want = row.residual / row.ratio, ref["residual"] / ref["ratio"]
        if off(fine, want):
            return f"{row.name}: refined residual {fine:.17g} != {want:.17g}"
    return None


class TransmuteCliWorkload(Workload):
    """In-process ``vekua transmute`` on seeded field CSVs at n=401."""

    name = "transmute-cli-401"
    default_n = 401
    OPS = ("T0", "T1", "T1d", "T2d-tilde")

    def __init__(self, seed, n):
        super().__init__(seed, n)
        self.families = (("linear", inputs.lattice_params(self.rng)),
                         ("quadratic", inputs.lattice_params(self.rng)))
        self.coefficients = {family: inputs.smooth_coefficients(self.rng)
                             for family, _ in self.families}
        self.csv = {}
        self.reference = {}

    def describe(self):
        return {"n": self.n, "families": [[f, list(p)] for f, p in self.families],
                "ops": list(self.OPS), "param_lattice": list(inputs.PARAM_LATTICE)}

    def prepare(self, workdir):
        self.workdir = workdir
        grid = _vekua("grid").Grid2D.square(HALF_WIDTH, self.n)
        x, y = grid.meshes()
        self.samples = grid.gx.nodes[::TRANSMUTE_STRIDE]
        record = _load_reference(TRANSMUTE_REFERENCE, self.n)
        if record is None:
            self.gate_errors.append(f"no transmute reference recorded for n={self.n}")
        for family, params in self.families:
            path = workdir / f"input-{family}.csv"
            inputs.write_field_csv(path, x, y,
                                   inputs.smooth_field(self.coefficients[family], x, y))
            self.csv[family] = path
            case = record["cases"].get(reference_key(family, params)) if record else None
            if case is None:
                continue
            if not case["t0_t1_powers_error"] <= case["t0_t1_powers_cap"]:
                self.gate_errors.append(
                    f"{family}: recorded T0/T1[a z^k] error {case['t0_t1_powers_error']:.3e} "
                    f"exceeds its cap {case['t0_t1_powers_cap']:.3e}")
            self.reference[family] = {name: np.array(v) for name, v in case["outputs"].items()}

    def pass_ops(self):
        # families alternate, so a slow spell of the machine hits both alike
        return [
            Op(f"{family}:{op}", self._cli_call(family, params, op), self._cli_check(family, op))
            for op in self.OPS
            for family, params in self.families
        ]

    def _out(self, family, op) -> Path:
        return self.workdir / f"out-{family}-{op}"

    def _cli_call(self, family, params, op):
        argv = ["transmute", "--input", str(self.csv[family]), "--sp", family,
                "--params=" + ",".join(repr(p) for p in params), "--op", op,
                "--out", str(self._out(family, op))]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _vekua("cli").main(argv)
            return code, err.getvalue()

        return call

    def _expected(self, family, op) -> np.ndarray:
        """The output on the sampled nodes, from the recorded 1-D operator outputs.

        Each smooth-field term c f_a(x) f_b(y) maps to c (X f_a)(x) (Y f_b)(y);
        T0 and T1 send real and imaginary parts through different operator pairs.
        """
        ref, s = self.reference[family], self.samples
        want = np.zeros((len(s), len(s)), dtype=complex)
        for c, (a, b) in zip(self.coefficients[family], inputs.SMOOTH_MONOMIALS):
            if op == "T0":
                want += (c.real * np.outer(ref["tx"][a], ref["ty"][b])
                         + 1j * c.imag * np.outer(ref["tx_tilde"][a], ref["ty_tilde"][b]))
            elif op == "T1":
                want += (c.real * np.outer(ref["tx_tilde"][a], ref["ty"][b])
                         + 1j * c.imag * np.outer(ref["tx"][a], ref["ty_tilde"][b]))
            elif op == "T1d":
                want += c * np.outer(ref["tx"][a], inputs.axis_basis(s, b))
            else:  # T2d-tilde
                want += c * np.outer(inputs.axis_basis(s, a), ref["ty_tilde"][b])
        return want

    def _cli_check(self, family, op):
        def check(result):
            code, stderr = result
            if code != 0:
                return Failure(f"exit {code}: {stderr.strip()}")
            got = inputs.read_field_values(self._out(family, op) / "transmuted.csv",
                                           (self.n, self.n))
            if _non_finite(got):
                return Failure("non-finite output")
            if family not in self.reference:
                return None  # reported once as a gate error
            want = self._expected(family, op)
            err = float(np.max(np.abs(got[::TRANSMUTE_STRIDE, ::TRANSMUTE_STRIDE] - want)))
            bound = ROUNDING_TOL * max(1.0, float(np.max(np.abs(want))))
            if not err <= bound:
                return Failure(f"output off the reference by {err:.3e} > {bound:.3e}")
            return None

        return check


class StreamWorkload(Workload):
    """One set-up, then a stream of apply/conjugate/fit/Taylor requests reusing it."""

    name = "stream-201"
    default_n = 201
    N_MAX = 6
    # One pass runs every input variant once through the request cycle.
    VARIANTS = 8
    # Every request kind in equal share.  Four of the seven are T0/T1
    # applications, the cheapest kind, so op_p50_ms is set by them; the
    # Taylor requests, the costliest, set op_tail_ms.
    CYCLE = ("t0_power", "conjugate", "t1_power", "fit", "t0_smooth", "taylor", "t1_smooth")

    def __init__(self, seed, n):
        super().__init__(seed, n)
        self.params = inputs.uniform_params(self.rng)

    def describe(self):
        return {"n": self.n, "family": "quadratic", "params": list(self.params),
                "n_max": self.N_MAX, "cycle": list(self.CYCLE), "variants": self.VARIANTS}

    def setup_code(self):
        return (
            "from vekua.grid import Grid2D\n"
            "from vekua.superpotential import make_superpotential\n"
            "from vekua.formal_powers import assemble_formal_powers\n"
            "from vekua.transmutation import build_transmute_2d\n"
            f"sp = make_superpotential('quadratic', {self.params!r}, "
            f"Grid2D.square({HALF_WIDTH!r}, {self.n}))\n"
            f"table = assemble_formal_powers(sp, {self.N_MAX})\n"
            "t2d = build_transmute_2d(sp)\n"
        )

    def prepare(self, workdir):
        self.requests = [[(kind, self._draw(kind)) for kind in self.CYCLE]
                         for _ in range(self.VARIANTS)]

    def build(self):
        grid = _vekua("grid").Grid2D.square(HALF_WIDTH, self.n)
        self.sp = _vekua("superpotential").make_superpotential("quadratic", self.params, grid)
        self.table = _vekua("formal_powers").assemble_formal_powers(self.sp, self.N_MAX)
        self.t2d = _vekua("transmutation").build_transmute_2d(self.sp)
        self.meshes = grid.meshes()

    def _draw(self, kind):
        """The seeds of one request: small values from which its arrays are made."""
        rng = self.rng
        if kind.endswith("power"):
            return int(rng.integers(0, 5)), inputs.unit_coefficient(rng)
        if kind.endswith("smooth"):
            return inputs.smooth_coefficients(rng)
        if kind == "conjugate":
            return inputs.power_coefficients(rng, inputs.CONJUGATE_DEGREE)
        if kind == "fit":
            coef = inputs.power_coefficients(rng, inputs.FIT_DEGREE)
            coef[0] = 1j * coef[0].imag  # Im Z^0(1) = 0: that slot is structurally empty
            return coef
        return inputs.power_coefficients(rng, inputs.TAYLOR_DEGREE - 1)

    def _member(self, coef) -> np.ndarray:
        return inputs.power_combination(self.table, coef)

    def pass_ops(self):
        return [
            self._apply(kind, v, seeds) if kind[:2] in ("t0", "t1") else
            getattr(self, f"_{kind}")(v, seeds)
            for v, variant in enumerate(self.requests)
            for kind, seeds in variant
        ]

    def _apply(self, kind, v, seeds):
        method = kind[:2]  # t0 or t1
        powers = kind.endswith("power")

        def make():
            x, y = self.meshes
            if powers:
                n, a = seeds
                return (a * (x + 1j * y) ** n,)
            return (inputs.smooth_field(seeds, x, y),)

        def check(got, w):
            if _non_finite(got):
                return Failure("non-finite output")
            t2d = self.t2d
            if powers:
                n, a = seeds
                want = self.table.power(n, a) if method == "t0" else self.table.power_succ(n, a)
                bound = T0_T1_POWERS_CAP * self.sp.grid.hmax**2
            else:
                re_x, im_x = (t2d.tx, t2d.tx_tilde) if method == "t0" else (t2d.tx_tilde, t2d.tx)
                want = (re_x.along_x(t2d.ty.along_y(w.real))
                        + 1j * im_x.along_x(t2d.ty_tilde.along_y(w.imag)))
                bound = ROUNDING_TOL * max(1.0, float(np.max(np.abs(want))))
            err = float(np.max(np.abs(got - want)))
            if not err <= bound:
                return Failure(f"off by {err:.3e} > {bound:.3e}")
            return None

        return Op(f"{kind}#{v}", lambda w: getattr(self.t2d, method)(w), check, make)

    def _conjugate(self, v, coef):
        def check(result, w1):
            if _non_finite(result.partner) or not np.isfinite(result.vekua_residual):
                return Failure("non-finite partner")
            # the partner is fixed up to c * exp(-chi): fit c, then compare
            mode = self.sp.exp_chi(-1.0)
            diff = self._member(coef).imag - result.partner
            c = float(np.sum(mode * diff) / np.sum(mode * mode))
            err = float(np.max(np.abs((diff - c * mode)[1:-1, 1:-1])))
            bound = CONJUGATE_CAP * self.sp.grid.hmax**2 * max(1.0, float(np.sum(np.abs(coef))))
            if not err <= bound:
                return Failure(f"partner off by {err:.3e} > {bound:.3e}")
            return None

        return Op(f"conjugate#{v}",
                  lambda w1: _vekua("conjugate").conjugate_from_w1(self.sp, w1), check,
                  lambda: (self._member(coef).real,))

    def _fit(self, v, coef):
        expected = np.column_stack([coef.real, coef.imag]).ravel()
        bound = FIT_COEFFICIENT_TOL * max(1.0, float(np.max(np.abs(expected))))

        def check(fit, target):
            got = np.asarray(fit.coefficients)
            if _non_finite(got) or got.shape != expected.shape:
                return Failure(f"bad coefficients {got.shape}")
            err = float(np.max(np.abs(got - expected)))
            if not err <= bound:
                return Failure(f"coefficients off by {err:.3e} > {bound:.3e}")
            return None

        def call(target):
            return _vekua("expansion").fit_formal_polynomial(
                self.sp, target, self.table, "ker_h0", inputs.FIT_DEGREE)

        return Op(f"fit#{v}", call, check, lambda: (self._member(coef).imag,))

    def _taylor(self, v, coef):
        expected = np.append(coef, 0.0)

        def check(coeffs, w):
            got = np.asarray(coeffs.values)
            if _non_finite(got) or got.shape != expected.shape:
                return Failure(f"bad coefficients {got.shape}")
            err = np.abs(got - expected)
            over = err > np.asarray(coeffs.uncertainty) + ROUNDING_TOL
            if np.any(over):
                return Failure(f"coefficients outside their noise bars: {err[over]}")
            return None

        return Op(f"taylor#{v}", lambda w: _vekua("expansion").taylor_coefficients(
            self.sp, w, inputs.TAYLOR_DEGREE), check, lambda: (self._member(coef),))

    def warmup_ops(self):
        return self.pass_ops()[: len(self.CYCLE)]


WORKLOADS = {w.name: w for w in (VerifyWorkload, TransmuteCliWorkload, StreamWorkload)}
