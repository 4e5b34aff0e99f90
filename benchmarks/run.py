"""Benchmark of the ``vekua`` toolkit: one workload per process, one closed-loop caller.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-201 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``verify-201``: ``run_battery`` for the zero, linear and quadratic families
  at n=201; (alpha, beta) of linear and quadratic are drawn by the seed from
  ``inputs.PARAM_LATTICE`` = {-1, -0.5, 0.5, 1}^2.
* ``transmute-cli-401``: in-process ``vekua transmute`` (ops T0, T1, T1d,
  T2d-tilde) for the linear and quadratic families on seeded field CSVs at
  n=401; (alpha, beta) drawn from the same lattice.
* ``stream-201``: one set-up (quadratic superpotential at n=201, formal
  powers to degree 6, 2-D transmutation; (alpha, beta) uniform in [-1, 1]),
  then a stream of requests that reuse it: T0 and T1 on a z^n and on smooth
  fields, conjugate, fit and Taylor, each of the seven kinds in equal share.

A pass is the workload's fixed list of operations.  ``--trace 0`` warms up
untimed (the first operation; for ``stream-201`` the first request cycle),
then repeats whole passes, and starts another only while it is expected to
end within ``--seconds`` (at least one pass always runs).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over 5 fresh interpreters of the wall time, measured
  from this process, to run the workload's set-up (``import vekua.cli``; for
  ``stream-201`` also the shared builds) and exit.
* ``wall_s``: median wall time of one pass; making inputs and checking
  outputs are excluded.
* ``op_p50_ms``: median latency of one public call, over all passes.
* ``op_tail_ms``: the highest of p90, p99, p99.9, ... of that latency with
  at least ten calls beyond it.  With fewer than 100 calls there is no such
  percentile; the latency of the slowest operation of the pass (its median
  over the passes) is reported instead.  The rule used and the call count
  are printed and kept in result.json.
* ``peak_rss_mb``: peak resident memory of this process.  Apart from
  ``vekua``'s own arrays it holds only the seeds of the inputs: each
  operation makes its input arrays just before its call and its check works
  out the expected values, so neither outlives the operation.  For
  ``stream-201`` the shared build is part of the peak.

``--trace 1`` warms up with one whole pass, then runs the workload's shared
build (only ``stream-201`` has one) and one pass untraced, then both again
with every public function wrapped by ``tracing.Tracer``, and prints the
per-layer metrics (``tracing.PER_LAYER``).  ``trace.wall_s`` and ``trace.untraced_wall_s`` are
the two build-plus-pass times, so on ``stream-201`` the Goursat, Picard,
build and assemble layers show the set-up that ``setup_s`` times;
``trace.overhead_s`` is their difference.

Every operation's output is checked (see ``workloads.py``).  An operation
fails when it raises, exits non-zero, returns non-finite values or falls
outside its reference bound; a battery call with a FAIL row fails too.  The
references in reference/ were recorded by record_reference.py at the commit
the benchmark was defined.  A failure that reproduces one recorded in
reference/battery_n201.json is counted in ``failed`` but does not make
``correct`` false; any other failure does.

Artifacts go to ``.bench_out/<workload>-seed<seed>-trace<t>/``: result.json
(run environment, per-operation records, metrics) and, for traced runs,
spans.json.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-201", "transmute-cli-401", "stream-201"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="override the grid size (smoke tests only; no battery reference)")
    return parser.parse_args(argv)


def _blas_env() -> dict:
    """Environment with no more BLAS threads than usable cores."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = env.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(threads, nproc))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("VEKUA_OUTDIR", None)
    return env


def _run_environment(args, workload) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        try:
            fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            threads = int(fn())
        except (OSError, AttributeError):
            threads = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "inputs": workload.describe(),
    }


def _measure_setup(code: str, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return samples


class Runner:
    """Runs passes of one workload and keeps a record of every operation."""

    def __init__(self, workload, tracer=None):
        from workloads import Failure

        self.workload = workload
        self.tracer = tracer
        self.records = []
        self._failure = Failure

    def run_op(self, op, timed=True) -> tuple[float, float]:
        """(latency, untimed time spent making inputs and checking) of one operation."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.records)
        failure = None
        untimed = perf_counter()
        with self._untraced():
            args = op.inputs()
        untimed = perf_counter() - untimed
        start = perf_counter()
        try:
            result = op.call(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            latency = perf_counter() - start
            failure = self._failure(f"raised {type(exc).__name__}: {exc}")
        else:
            latency = perf_counter() - start
        check_start = perf_counter()
        if failure is None:
            with self._untraced():
                failure = op.check(result, *args)
        untimed += perf_counter() - check_start
        if timed:
            self.records.append({
                "op": op.label,
                "latency_s": latency,
                "failed": failure is not None,
                "known": bool(failure and failure.known),
                "reason": failure.reason if failure else "",
            })
        return latency, untimed

    def _untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def run_pass(self, ops) -> tuple[float, float]:
        """(wall time without inputs and checks, wall time with them) of one pass."""
        start = perf_counter()
        untimed = 0.0
        for op in ops:
            untimed += self.run_op(op)[1]
        total = perf_counter() - start
        return total - untimed, total

    def run_build_and_pass(self, ops) -> float:
        """Wall time of the workload's shared build plus one pass (inputs and checks excluded)."""
        if self.tracer is not None:
            self.tracer.op = -1  # spans of the shared build belong to no operation
        start = perf_counter()
        self.workload.build()
        build = perf_counter() - start
        return build + self.run_pass(ops)[0]

    def run_for(self, seconds: float) -> list[float]:
        ops = self.workload.pass_ops()
        walls, totals = [], []
        start = perf_counter()
        while True:
            wall, total = self.run_pass(ops)
            walls.append(wall)
            totals.append(total)
            if perf_counter() - start + statistics.median(totals) > seconds:
                return walls


def _tail(records: list[dict]) -> tuple[float, str]:
    """Highest of p90, p99, p99.9, ... with at least TAIL_BEYOND calls beyond it.

    A run with fewer than 100 calls has no such percentile; its tail is the
    slowest operation of the pass, each operation taken as the median of its
    latencies over the passes.
    """
    ordered = sorted(r["latency_s"] for r in records)
    n = len(ordered)
    best = None
    for percentile in TAIL_PERCENTILES:
        k = math.ceil(percentile / 100.0 * n) - 1  # order statistic of the percentile
        if n - 1 - k >= TAIL_BEYOND:
            best = (ordered[k], f"p{percentile:g} of {n} calls ({n - 1 - k} beyond)")
    if best is None:
        by_op = {}
        for r in records:
            by_op.setdefault(r["op"], []).append(r["latency_s"])
        slowest = max(by_op, key=lambda op: statistics.median(by_op[op]))
        best = (statistics.median(by_op[slowest]),
                f"{n} calls, too few for p90 with {TAIL_BEYOND} beyond: median of the "
                f"slowest operation ({slowest}, {len(by_op[slowest])} calls)")
    return best


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "vekua" / "__init__.py").is_file():
        print(f"benchmark: no vekua sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    env = _blas_env()
    # must precede the first numpy import of this process
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    os.environ.pop("VEKUA_OUTDIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.n)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = out_dir / "work"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    work_dir.mkdir(parents=True)
    try:
        setup_samples = _measure_setup(workload.setup_code(), env)
        record = {"environment": _run_environment(args, workload),
                  "setup_samples_s": setup_samples}
        workload.prepare(work_dir)
        workload.build()
        runner = Runner(workload)
        ops = workload.pass_ops()
        # the traced run compares two single passes, so it warms up with a whole one
        for op in workload.warmup_ops() if args.trace == 0 else ops:
            runner.run_op(op, timed=False)
        if args.trace == 0:
            walls = runner.run_for(args.seconds)
            latencies = [r["latency_s"] for r in runner.records]
            tail, tail_rule = _tail(runner.records)
            values = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(walls),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = _metric_block(values, END_TO_END_UNITS)
            record.update(pass_walls_s=walls, tail_rule=tail_rule)
        else:
            untraced_wall = runner.run_build_and_pass(ops)
            tracer = tracing.Tracer()
            tracer.install()
            runner.tracer = tracer
            tracer.recording = True
            try:
                traced_wall = runner.run_build_and_pass(ops)
            finally:
                tracer.recording = False
                tracer.uninstall()
            values = tracing.layer_metrics(tracer, traced_wall, untraced_wall, workload.extras)
            metrics = _metric_block(values, dict(tracing.PER_LAYER))
            (out_dir / "spans.json").write_text(json.dumps(tracer.spans_record()))
            tail_rule = None
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r["failed"]]
    unexpected = [r for r in failed if not r["known"]]
    correct = not unexpected and not workload.gate_errors
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    record.update(result, operations=records, gate_errors=workload.gate_errors,
                  computed_metrics=sorted(tracing.COMPUTED & set(metrics)))
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    env_rec = record["environment"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} inputs {json.dumps(env_rec['inputs'])}")
    print(f"python {env_rec['python']} numpy {env_rec['numpy']} scipy {env_rec['scipy']} "
          f"{env_rec['blas']} threads {env_rec['blas_threads']} nproc {env_rec['nproc']}")
    for name, metric in metrics.items():
        note = f"  [{tail_rule}]" if name == "op_tail_ms" else (
            "  [computed]" if name in tracing.COMPUTED else "")
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'ops':<40} {len(records)}")
    print(f"{'ops_failed':<40} {len(failed)} ({len(failed) - len(unexpected)} reproduce "
          f"failures recorded in the reference, {len(unexpected)} unexpected)")
    seen = set()
    for r in failed:
        key = (r["op"], r["reason"])
        if key not in seen:
            seen.add(key)
            print(f"  failed {r['op']}{' (known)' if r['known'] else ''}: {r['reason']}")
    for error in workload.gate_errors:
        print(f"  reference error: {error}")
    print(f"{'correct':<40} {str(correct).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
