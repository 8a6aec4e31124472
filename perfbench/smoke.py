"""Smoke check of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and asserts that
every end-to-end metric is printed with its unit, that the result line
carries exactly the metrics BENCHMARK.json declares, that only the traced
run records spans, that the correctness gate fails corrupted solutions, and
that the reference-speed timer probes inside a call and leaves the probes'
time out.
Last, it checks that the benchmark exits nonzero without a result where
drqp's sources are absent.  Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import run as bench

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def invoke(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def run_tiny(workload: str, trace: int) -> tuple[list, dict, dict]:
    proc = invoke(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stdout}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return lines, record, json.loads(lines[-1])


def check_result(result: dict, declared: list, where: str) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(got)} != declared {sorted(want)}"


def check_workload(workload: str, spec: dict) -> None:
    lines, record, result = run_tiny(workload, 0)
    printed = {}
    for line in lines:
        m = re.match(r"(\S+)\s+(-?[0-9.e+-]+|nan) (\S+)", line)
        if m:
            printed[m.group(1)] = m.group(3)
    for name, unit in bench.END_TO_END.items():
        assert printed.get(name) == unit, f"{workload}: {name} not printed in {unit}"
    check_result(result, spec["end_to_end"], f"{workload} untraced")
    assert record["spans"] == 0, f"{workload}: the untraced run recorded spans"

    _, record, result = run_tiny(workload, 1)
    check_result(result, spec["per_layer"], f"{workload} traced")
    assert record["spans"] > 0, f"{workload}: the traced run recorded no spans"
    print(f"ok {workload}")


def check_gate() -> None:
    import pipeline
    from drqp import datagen, report, solvers

    wl = pipeline.TINY["rhs-train"]
    datas = report.prepare_data(datagen.generate(wl.spec()))
    data = datas[0]
    cfg = solvers.SolverConfig(tol_fixed_point=pipeline.SOLVE_TOL)
    cold = solvers.dr_solve(data, cfg)

    gate = pipeline.Gate()
    gate.solve("solve.dr", data, cold)
    assert gate.correct, gate.reasons
    gate.solve("solve.dr", data, replace(cold, x=cold.x + 1e-3))
    gate.solve("solve.dr", data, replace(cold, status="max_iter"))
    gate.label(data, (cold.x, cold.y))  # a 1e-6 solution is no 1e-9 label
    gd = solvers.drgd_solve(data, cfg)
    gate.solve("solve.drgd", data, replace(gd, x=gd.x + 1e-3))
    bad = replace(cold, metrics=replace(cold.metrics, objective=cold.metrics.objective + 1.0))
    gate.solved(data, cold, gd, bad)
    gate.captured("eval", [("dr", data, cold), ("warm", data, bad)])
    assert not gate.correct
    assert gate.reasons == {"solve.dr:kkt": 1, "solve.dr:max_iter": 1, "label:kkt": 1,
                            "solve.drgd:kkt": 1, "solve.warm:objective_mismatch": 1,
                            "eval.warm:objective_mismatch": 1}, gate.reasons
    assert gate.failed == 6
    print("ok gate rejects corrupted solutions")


def check_speed() -> None:
    """Probes run inside a timed call, and their time is in neither figure."""
    import pipeline

    speed = pipeline.Speed()
    with speed.periodic():
        _, wall, ref = speed.timed(time.sleep, 0.5)
    probes = [end - start for start, end in speed.marks]
    inside = probes[1:-1]  # the first ran before the call, the last after it
    assert inside, "no probe inside a 0.5-s call"
    # the sleep keeps its deadline, so the probes inside it shorten the rest
    assert abs(wall + sum(inside) - 0.5) < 0.01, f"wall {wall:.4f} s, probes {inside}"
    assert wall * pipeline.REF_S / max(probes) <= ref <= wall * pipeline.REF_S / min(probes)
    print(f"ok speed: {len(inside)} probes inside, wall {wall:.4f} s, reference {ref:.4f} s")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = invoke(bare, "rhs-train", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode not in (0, None) and not proc.stdout.strip(), proc.stdout
    print("ok fails without drqp's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench.import_program() is not None
    import pipeline
    assert {w["name"] for w in spec["workloads"]} <= set(pipeline.WORKLOADS)
    assert list(pipeline.TINY) == list(pipeline.WORKLOADS)
    for name in pipeline.WORKLOADS:
        check_workload(name, spec)
    check_gate()
    check_speed()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
