"""Smoke test of the benchmark itself: every workload at a tiny grid, both modes.

Asserts the output contract (last line is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``) and that every metric
BENCHMARK.json names is emitted with its unit.  Correctness verdicts are not
asserted: no battery or transmute reference is recorded at n=21.  The six runs start
together and are collected per test, so the module costs about one run's
wall time per core.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def runs():
    procs = {
        (workload, trace): subprocess.Popen(
            [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--n", "21"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }
    results = {}
    try:
        for key, proc in procs.items():
            out, err = proc.communicate(timeout=170)
            results[key] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(runs, workload, trace):
    code, out, err = runs[(workload, trace)]
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
