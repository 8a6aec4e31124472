"""Benchmark of the drqp pipeline: one workload, run in this process.

    python3 perfbench/run.py --workload rhs-train --seed 0 --seconds 30 --trace 0

Runs generate -> label -> write/read -> prepare -> compare -> train -> eval
through drqp's public API, repeatedly until --seconds have passed, checks
every solution, and prints each metric by name and unit, a run record, and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, times
taken as medians over the untraced passes' repetitions, each at the
reference speed of pipeline.Speed; with --trace 1 they are the per-layer
ones, medians over traced passes, alternated with untraced passes to give
the tracing overhead.  Exit status: 0 when every
output is correct, 1 when one is not, 2 when drqp cannot be imported from
src/ next to this directory.
"""

from __future__ import annotations

import os

# one BLAS thread: the operators are small, and a second thread on a shared
# two-core machine adds more noise than speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
HELD_OUT_SEED = 7

# the thirteen end-to-end metrics, all measured with tracing off
END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "label_s": "s", "io_s": "s",
    "compare_s": "s", "train_s": "s", "eval_s": "s",
    "dr_solve_ms.p50": "ms", "drgd_solve_ms.p50": "ms", "warm_solve_ms.p50": "ms",
    "warm_iter_reduction": "ratio", "failed_frac": "ratio", "peak_rss_mb": "MB",
}
# Printed but not in the result line: failed_frac is 0 on every correct run
# (the result line carries it as failed/attempted), and warm_iter_reduction
# is about 0 and of either sign on portfolio-drgd, where a bound relative
# to the median means nothing.  Both are exact for a given commit and seed.
GATED = [m for m in END_TO_END if m not in ("failed_frac", "warm_iter_reduction")]
# end-to-end stage metrics and the pipeline stages whose times they add up
STAGE_METRICS = {"setup_s": ("generate", "prepare"), "label_s": ("label",),
                 "io_s": ("write", "read"), "compare_s": ("compare",),
                 "train_s": ("train",), "eval_s": ("eval",)}

PER_LAYER_UNITS = {"ms": "ms", "us": "us", "s": "s", "mb": "MB", "calls": "count",
                   "samples": "count", "iters": "count", "frac": "ratio"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1].rsplit("_", 1)[-1]
    return PER_LAYER_UNITS[suffix]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help=f"the network's training seed; {HELD_OUT_SEED} is the "
                         "held-out seed on which claims are confirmed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload's code path in seconds")
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import drqp
    except ImportError as exc:
        print(f"error: cannot import drqp from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(drqp.__file__).resolve().is_relative_to(src):
        print(f"error: drqp was imported from {drqp.__file__}, not {src}", file=sys.stderr)
        return None
    return drqp


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and its value."""
    import numpy as np
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(samples) * (100 - p) / 100 >= 10:
            best = p
    return (best, float(np.percentile(samples, best))) if best else (None, None)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "commit": commit, "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        return 2
    import pipeline
    import tracing

    workloads = pipeline.TINY if args.size == "tiny" else pipeline.WORKLOADS
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    gate = pipeline.Gate()
    clock = time.perf_counter
    t0 = clock()
    tracer = tracing.Tracer(args.workload, t0) if args.trace else None
    passes, layers = [], []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    speed = pipeline.Speed()
    stages = pipeline.Stages(speed)
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            stages = pipeline.Stages(speed, repeat=not traced)
            start = clock()
            # the traced pass runs no probes inside its spans
            with nullcontext() if traced else speed.periodic():
                out = pipeline.run_pass(wl, args.seed, workdir, gate, stages,
                                        (lambda: tracing.instrumented(tracer)) if traced
                                        else nullcontext)
            out["traced"], out["wall_s"] = traced, clock() - start
            out["stages"], out["walls"] = stages.times, stages.walls
            if traced:
                layers.append(tracing.layer_metrics(tracer, out["bundle_bytes"]))
                tracer.reset_totals()
            gc.collect()  # so the peak RSS does not depend on when a cycle was freed
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            passes.append(out)
            enough = len(passes) >= (2 if tracer else 1)
            longest = max(p["wall_s"] for p in passes)
            if enough and clock() - t0 + longest > args.seconds:
                break
    except Exception as exc:  # recorded by name; the run is then reported as failed
        gate.exception(stages.current, exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(passes, gate)
    record = {
        "workload": args.workload, "size": args.size, "env": environment(args.seed),
        "passes": len(passes), "traced_passes": len(layers),
        "seconds": clock() - t0,
        "stage_s": [{k: round(statistics.median(v), 6) for k, v in p["stages"].items()}
                    for p in passes],
        "stage_wall_s": [{k: round(statistics.median(v), 6) for k, v in p["walls"].items()}
                         for p in passes],
        "reference_loop_ms": reference_loop_record(speed.probe_ms(), pipeline.REF_S),
        "peak_rss_mb": [round(p["peak_rss_mb"], 1) for p in passes],
        "properties": passes[0]["properties"] if passes else None,
        "failures": dict(gate.reasons), "shortfalls": dict(gate.shortfalls),
        "drgd_kkt_ratio": gate.drgd_kkt_ratio,
        "spans": len(tracer.spans) if tracer else 0,
        "untraced_attributes": sorted(tracer.missing) if tracer else [],
    }
    stem = OUT / f"{args.workload}-seed{args.seed}"
    with open(stem.with_suffix(".record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print(f"== {args.workload} ({args.size}) seed {args.seed}: {len(passes)} passes, "
          f"{len(layers)} traced, {record['seconds']:.1f} s")
    for name, (value, extra) in e2e.items():
        print(f"{name:22s} {value:.6g} {END_TO_END[name]}{extra}")
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, (v, _) in e2e.items() if k in GATED}
    if tracer:
        per_layer = {}
        if layers:
            per_layer = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
            base = sum(stage_medians(p for p in passes if not p["traced"]).values())
            hot = sum(stage_medians(p for p in passes if p["traced"]).values())
            per_layer["trace.overhead_frac"] = hot / base - 1.0
        for name, value in per_layer.items():
            print(f"{name:26s} {value:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


def reference_loop_record(probes: list, ref_s: float) -> dict:
    """How long the reference loop took over the run, in ms."""
    out = {"reference": 1e3 * ref_s, "probes": len(probes)}
    if len(probes) > 1:
        deciles = statistics.quantiles(probes, n=10)
        out.update(p10=round(deciles[0], 4), p50=round(deciles[4], 4), p90=round(deciles[8], 4))
    return out


def stage_medians(passes) -> dict:
    """Stage name -> the median of its repetitions over the given passes."""
    times = {}
    for p in passes:
        for name, reps in p["stages"].items():
            times.setdefault(name, []).extend(reps)
    return {name: statistics.median(reps) for name, reps in times.items()}


def end_to_end(passes, gate) -> dict:
    """name -> (value, printed note); empty when no untraced pass finished.

    Every time is at the reference speed (pipeline.Speed), and is the median
    of its repetitions over the run's untraced passes.  A per-instance
    latency is the median of that instance's repetitions; its .p50 is the
    median over the instances.
    """
    base = [p for p in passes if not p["traced"]]
    if not base:
        return {}
    med = stage_medians(base)
    out = {"pipeline_s": (sum(med.values()), "")}
    for name, parts in STAGE_METRICS.items():
        reps = sum(len(p["stages"][part]) for p in base for part in parts)
        out[name] = (sum(med[part] for part in parts), f"  (median of {reps} timings)")
    out["warm_iter_reduction"] = (statistics.median(p["warm_iter_reduction"] for p in base), "")
    for name in ("dr_solve_ms", "drgd_solve_ms", "warm_solve_ms"):
        per_instance = {}
        for p in base:
            for i, times in p["samples"][name].items():
                per_instance.setdefault(i, []).extend(times)
        samples = [t for times in per_instance.values() for t in times]
        pct, value = tail(samples)
        note = (f"  ({len(per_instance)} instances, {len(samples)} samples"
                + (f", p{pct:g} {value:.6g} ms)" if pct else ", too few for a tail percentile)"))
        out[name + ".p50"] = (statistics.median(statistics.median(t)
                                                for t in per_instance.values()), note)
    out["failed_frac"] = (gate.failed / max(gate.attempted, 1),
                          f"  ({gate.failed} of {gate.attempted} solves)")
    # after the first pass, which is untraced: one pipeline in a fresh process,
    # as the CLI runs it; later passes add only the allocator's fragmentation,
    # so the peak over the run would grow with the number of passes
    out["peak_rss_mb"] = (passes[0]["peak_rss_mb"], "  (after the first pass)")
    return {k: out[k] for k in END_TO_END}


if __name__ == "__main__":
    sys.exit(main())
