"""The benchmark pipeline at its tiny size: what perfbench/run.py reads of drqp
(solvers, operators, the network) still runs and passes its correctness gate.

perfbench/smoke.py checks the benchmark itself and times a sleep to 10 ms,
too tight for a test suite; this runs only the two benchmark workloads, and
rhs-train once more traced, for the network's and the solvers' spans.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    # run.py writes its records next to perfbench/, so it runs on a copy
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", ["rhs-train", "portfolio-drgd"])
def test_tiny_workload_passes_its_gate(checkout, workload):
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "1", "--trace", "0", "--seed", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    # DR-GD's converged solves meet the KKT bound DR's tolerance certifies
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert record["shortfalls"] == {} and record["drgd_kkt_ratio"] <= 1.0, record


def test_traced_run_reads_every_net_span(checkout):
    # train calls forward, backward and adam_step through the module, where the
    # tracer wraps them: a refactor that bypasses those names zeroes a span.
    # So do the solver spans and counters: the tracer wraps report.dr_solve,
    # report.drgd_solve, solvers.quality and solvers.project_cone_dual.
    # sparse.solve.calls wraps Factorization.solve, which no dense DR block
    # calls, and reads 0 by design
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "rhs-train",
         "--size", "tiny", "--seconds", "1", "--trace", "1", "--seed", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in ("net.samples", "net.forward.train_ms", "net.backward.ms", "net.adam.us",
                 "net.forward.infer_ms", "solvers.dr.iters", "solvers.drgd.iters",
                 "solvers.warm.iters", "model.quality.calls", "model.project.calls"):
        assert metrics[name]["value"] > 0, name
