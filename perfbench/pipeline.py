"""Workloads, one pass of the CLI pipeline, and the correctness gate."""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import signal
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import drqp.datagen as datagen
import drqp.net as net
import drqp.report as report
import drqp.solvers as solvers
from drqp.model import project_cone_dual, quality
from drqp.solvers import SolverConfig

LABEL_TOL = 1e-9
SOLVE_TOL = 1e-6
# Every workload's QP data and split are fixed, as in the criterion-8
# protocol: family seed 0, split seed 0.  The cost of a solve is set by the
# conditioning of its operator, and a qp_rhs bundle has one operator for all
# its instances, so bundles drawn from seeds 0-4 need 262 to 540 mean DR
# iterations; no run length makes such runs agree within a 25 % bound.  The
# workload seed is the network's training seed, the one criterion 8 varies.
DATA_SEED = 0
MIN_STAGE_S = 0.25
MAX_REPS = 30
MIN_SAMPLES = 3
# DR-GD's converged status certifies no KKT residual (see Gate); at the
# workloads' sizes its solves land at up to about 3.8 times the DR bound, and
# one above this multiple of it fails
DRGD_KKT_FACTOR = 10.0


@dataclass(frozen=True)
class Workload:
    family: str
    size: int          # n for the QP families, k for portfolio
    count: int
    split: tuple       # train, val, test
    epochs: int

    def spec(self) -> datagen.GenSpec:
        key = "k" if self.family == datagen.PORTFOLIO else "n"
        return datagen.GenSpec(family=self.family, count=self.count,
                               seed=DATA_SEED, **{key: self.size})


WORKLOADS = {
    "rhs-train": Workload(datagen.QP_RHS, 50, 34, (20, 4, 10), 30),
    "perturbed-large": Workload(datagen.QP_PERTURBED, 520, 3, (1, 1, 1), 15),
    "portfolio-drgd": Workload(datagen.PORTFOLIO, 5, 6, (2, 1, 3), 50),
}

# same code paths in seconds, for the smoke check
TINY = {
    "rhs-train": Workload(datagen.QP_RHS, 10, 6, (2, 2, 2), 2),
    "perturbed-large": Workload(datagen.QP_PERTURBED, 40, 3, (1, 1, 1), 1),
    "portfolio-drgd": Workload(datagen.PORTFOLIO, 2, 4, (2, 1, 1), 1),
}


def train_config(wl: Workload, seed: int) -> net.TrainConfig:
    """Criterion-8 network and schedule; patience = epochs turns early stopping off."""
    return net.TrainConfig(learning_rate=1e-5, escalated_lr=1e-4,
                           escalation_patience=3, escalation_min_delta=1e-3,
                           batch_size=1, layers=4, embed=8, seed=seed,
                           max_epochs=wl.epochs, patience=wl.epochs,
                           eta_prior=None)


# -- correctness gate ---------------------------------------------------------

def kkt_bound(data, tol: float) -> float:
    """KKT residual certified by a DR fixed-point residual of tol.

    With u~ = (I+M)^-1 (w - q) and u = proj(2u~ - w), the residual of the
    inclusion 0 in Mu + q + N(u) is (I - M)(u - u~), so its infinity norm is
    at most (1 + ||M||) tol <= (2 + sigma_max(I+M)) tol.
    """
    return tol * (2.0 + data.sigma_max)


def kkt_error(data, x, y) -> float:
    m = quality(data.cqp, x, y)
    return max(m.max_viol, m.dual_residual_inf)


class Gate:
    """Counts attempted solves and every failure, by name.

    A solve fails when its status is not ``converged``, when its KKT
    residual exceeds the bound its tolerance certifies, or when a warm
    start lands on another objective value than the cold solve.  An
    exception raised by the program counts as one failed operation.

    DR-GD's ``converged`` status only bounds its fixed-point residual; its
    resolvent is inexact, so no KKT bound follows from it.  Its KKT error
    is recorded as a ratio to the DR bound (``drgd_kkt_ratio``); solves
    above the bound are counted under ``shortfalls``, and solves above
    DRGD_KKT_FACTOR times the bound fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.shortfalls = Counter()
        self.drgd_kkt_ratio = 0.0

    def _fail(self, reasons) -> None:
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    def exception(self, stage: str, exc: BaseException) -> None:
        traceback.print_exception(exc)
        self.attempted += 1
        self._fail([f"{stage}:exception:{type(exc).__name__}"])

    def label_exclusions(self, excluded) -> None:
        for _, status in excluded:
            self._fail([f"label:{status}"])

    def label(self, data, lab) -> None:
        self.attempted += 1
        if lab is not None:  # a missing label was counted by label_exclusions
            err = kkt_error(data, lab[0], lab[1])
            self._fail([] if err <= kkt_bound(data, LABEL_TOL) else ["label:kkt"])

    def check(self, where: str, data, status: str, err: float, extra=()) -> None:
        """One solve at SOLVE_TOL with KKT residual err; extra holds the caller's findings."""
        self.attempted += 1
        reasons = [] if status == "converged" else [f"{where}:{status}"]
        reasons += extra
        bound = kkt_bound(data, SOLVE_TOL)
        if not np.isfinite(err):
            reasons.append(f"{where}:non_finite")
        elif where.endswith("drgd"):
            self.drgd_kkt_ratio = max(self.drgd_kkt_ratio, err / bound)
            if err > DRGD_KKT_FACTOR * bound:
                reasons.append(f"{where}:kkt")
            elif err > bound:
                self.shortfalls[f"{where}:kkt_above_bound"] += 1
        elif err > bound:
            reasons.append(f"{where}:kkt")
        self._fail(reasons)

    def solve(self, where: str, data, rep, extra=()) -> None:
        self.check(where, data, rep.status, kkt_error(data, rep.x, rep.y), extra)

    def objective(self, where: str, data, cold: float, warm: float, ref) -> list:
        """Warm and cold objectives must agree; ref is a solution (x, y) for the scale."""
        # two points whose KKT residuals are at most eps differ in objective
        # by about eps * (||x||_1 + ||y||_1) at most; allow a factor of ten
        scale = 1.0 + np.abs(ref[0]).sum() + np.abs(ref[1]).sum()
        ok = abs(warm - cold) <= 10.0 * kkt_bound(data, SOLVE_TOL) * scale
        return [] if ok else [f"{where}:objective_mismatch"]

    def captured(self, stage: str, solves) -> None:
        """Every solve a report stage made, as (kind, data, SolveReport) in call order.

        A warm solve is held to the objective of the cold solve of the same
        data that came before it, as run_eval makes them.
        """
        cold = {}
        for kind, data, rep in solves:
            extra = ()
            if kind == "warm":
                ref = cold[id(data)]
                extra = self.objective(f"{stage}.warm", data, ref.metrics.objective,
                                       rep.metrics.objective, (ref.x, ref.y))
            elif kind == "dr":
                cold[id(data)] = rep
            self.solve(f"{stage}.{kind}", data, rep, extra)

    def solved(self, data, cold, gd, warm) -> None:
        self.solve("solve.dr", data, cold)
        self.solve("solve.drgd", data, gd)
        self.solve("solve.warm", data, warm,
                   self.objective("solve.warm", data, cold.metrics.objective,
                                  warm.metrics.objective, (cold.x, cold.y)))

    @property
    def correct(self) -> bool:
        return self.failed == 0


@contextmanager
def capture_solves(solves: list):
    """Append (kind, data, report) to solves for every solve report.* makes.

    kind is dr, warm or drgd.  Wraps the attributes through which report
    calls the solvers, over any tracing wrapper, and restores them after.
    """
    originals = {name: getattr(report, name) for name in ("dr_solve", "drgd_solve")}

    def wrap(name):
        fn = originals[name]

        def wrapper(data, cfg, warm=None):
            rep = fn(data, cfg, warm=warm)
            kind = "drgd" if name == "drgd_solve" else "dr" if warm is None else "warm"
            solves.append((kind, data, rep))
            return rep
        return wrapper

    for name in originals:
        setattr(report, name, wrap(name))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(report, name, fn)


# -- machine speed ------------------------------------------------------------

# Seconds the reference loop takes at the reference speed: the fast state of
# a two-core x86-64 virtual machine with Python 3.11 and numpy 2.4.
REF_S = 0.0047
# while a call is timed, the reference loop also runs this often within it
PROBE_PERIOD_S = 0.2
# a probe older than this no longer tells the speed of the next timed call
PROBE_STALE_S = 0.05

_REF_VEC = np.linspace(0.0, 1.0, 100)
_REF_MAT = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 64


def reference_loop() -> float:
    """A fixed mix of small vector operations, a small matrix product and
    Python-level JSON work, like drqp's own; it calls nothing of drqp's."""
    a = _REF_VEC.copy()
    s = 0.0
    for i in range(800):
        a = a * 0.999 + 0.001
        b = _REF_MAT @ a[:64]
        s += float(b[i % 64])
    return s + len(json.dumps([round(x, 6) for x in a.tolist()] * 8))


class Speed:
    """Times calls at a fixed reference speed, from a reference loop run
    before, after and, every PROBE_PERIOD_S, during each timed call.

    A shared virtual machine switches between speeds 1.5 to 1.9 times
    apart, for seconds to minutes at a time, and slows every kind of work
    alike: the reference loop and a drqp solve run back to back slow down
    together.  The probes cut a timed call into segments; a segment of w
    wall seconds between two probes that took p1 and p2 counts as
    w * REF_S / mean(p1, p2) seconds, the time it takes at the reference
    speed.  The probes inside a call run from a SIGALRM handler, between
    two of the program's bytecodes, and their own time is left out of both
    the wall and the reference time.
    """

    def __init__(self):
        self.marks = []      # (start, end) of every probe, in order
        self._busy = False

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        clock = time.perf_counter
        start = clock()
        reference_loop()
        self.marks.append((start, clock()))
        self._busy = False

    @contextmanager
    def periodic(self):
        """Probe every PROBE_PERIOD_S for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """fn(*args) -> (result, wall seconds, seconds at the reference speed)."""
        clock = time.perf_counter
        if not self.marks or clock() - self.marks[-1][1] > PROBE_STALE_S:
            self.probe()
        first = len(self.marks) - 1
        start = clock()
        out = fn(*args)
        end = clock()
        self.probe()
        wall = ref = 0.0
        seg_start, prev = start, self.marks[first]
        for mark in self.marks[first + 1:]:
            seg = max(0.0, min(mark[0], end) - seg_start)
            wall += seg
            ref += seg * 2.0 * REF_S / (prev[1] - prev[0] + mark[1] - mark[0])
            seg_start, prev = mark[1], mark
        return out, wall, ref

    def probe_ms(self) -> list:
        return [1e3 * (end - start) for start, end in self.marks]


# -- one pass ---------------------------------------------------------------

class Stages:
    """Time of every repetition of each pipeline stage, at the reference
    speed (``times``) and on the wall clock (``walls``); names the stage an
    exception came from.

    A stage that takes less than MIN_STAGE_S is repeated until its
    repetitions add up to that (at most MAX_REPS times): a 30-ms stage
    timed once is mostly noise.  Traced passes run every stage once, so
    their call counts are exact.
    """

    def __init__(self, speed: Speed, repeat: bool = True):
        self.speed = speed
        self.times = {}
        self.walls = {}
        self.current = None
        self.repeat = repeat

    def once(self, name, fn):
        return self._run(name, fn, None, 1)

    def repeated(self, name, fn, fresh=None):
        """fn() or, with fresh, fn(fresh()) with fresh() untimed."""
        return self._run(name, fn, fresh, MAX_REPS if self.repeat else 1)

    def _run(self, name, fn, fresh, max_reps):
        times = self.times.setdefault(name, [])
        walls = self.walls.setdefault(name, [])
        first = None
        while True:
            self.current = name
            arg = () if fresh is None else (fresh(),)
            out, wall, ref = self.speed.timed(fn, *arg)
            walls.append(wall)
            times.append(ref)
            if len(times) == 1:
                first = out
            if sum(walls) >= MIN_STAGE_S or len(walls) >= max_reps:
                return first


def warm_solve(data, params, cfg: SolverConfig):
    """The warm path run_eval takes: forward, cone projection of the dual
    block, equality-dual completion, warm dr_solve."""
    xh, yh, _ = net.forward(data, params)
    u = project_cone_dual(np.concatenate([xh, yh]), data.cone)
    u = report.complete_zero_cone_dual(data, u)
    return solvers.dr_solve(data, cfg, warm=solvers.warm_start_from_solution(
        data, u[:data.n], u[data.n:]))


def solve_one(speed: Speed, data, warm_data, params, cfg: SolverConfig):
    """One new instance solved cold by DR and DR-GD, then warm-started by the net.

    data and warm_data are two never-solved copies of the instance, so the
    cold and the warm dr_solve each include the factorization.  Times each
    solve as a caller of the public API sees it, at the reference speed:
    returns (report, seconds) for each.
    """
    cold, _, t_cold = speed.timed(solvers.dr_solve, data, cfg)
    gd, _, t_gd = speed.timed(solvers.drgd_solve, data, cfg)
    warm, _, t_warm = speed.timed(warm_solve, warm_data, params, cfg)
    return (cold, t_cold), (gd, t_gd), (warm, t_warm)


def run_pass(wl: Workload, seed: int, workdir: Path, gate: Gate,
             stages: Stages, traced=nullcontext) -> dict:
    """generate -> label -> write/read -> prepare -> compare -> train -> eval,
    then one-at-a-time solves of the test split for the per-instance latencies,
    repeated on fresh copies until there are MIN_SAMPLES of each.

    traced() wraps the pipeline stages, not the latency solves.  The stage
    times are in stages.times; out["samples"] maps each latency to
    {test instance: [milliseconds per repetition, at the reference speed]}.
    """
    with traced():
        params, test_datas, out = _pipeline(wl, seed, workdir, gate, stages)
    cfg = SolverConfig(tol_fixed_point=SOLVE_TOL)
    stages.current = "solve"
    names = ("dr_solve_ms", "drgd_solve_ms", "warm_solve_ms")
    out["samples"] = samples = {name: {} for name in names}
    solved = 0
    while solved < MIN_SAMPLES:
        pairs = zip(copy.deepcopy(test_datas), copy.deepcopy(test_datas))
        for i, (data, warm_data) in enumerate(pairs):
            (cold, t_cold), (gd, t_gd), (warm, t_warm) = solve_one(
                stages.speed, data, warm_data, params, cfg)
            gate.solved(data, cold, gd, warm)
            for name, t in zip(names, (t_cold, t_gd, t_warm)):
                samples[name].setdefault(i, []).append(1e3 * t)
            solved += 1
    return out


def _pipeline(wl, seed, workdir, gate, stages):
    cfg = SolverConfig(tol_fixed_point=SOLVE_TOL)
    bundle = stages.repeated("generate", lambda: datagen.generate(wl.spec()))
    bundle, excluded = stages.repeated(
        "label", lambda: datagen.label_bundle(bundle, tol_label=LABEL_TOL))
    gate.label_exclusions(excluded)
    bundle = stages.once("split", lambda: datagen.split_bundle(bundle, wl.split,
                                                                seed=DATA_SEED))
    path = workdir / "bundle"
    stages.repeated("write", lambda: datagen.write_bundle(bundle, path))
    bundle_bytes = sum(f.stat().st_size for f in path.iterdir())
    bundle = stages.repeated("read", lambda: datagen.read_bundle(path))
    shutil.rmtree(path)
    datas = stages.repeated("prepare", lambda: report.prepare_data(bundle))
    for data, lab in zip(datas, bundle.labels):
        gate.label(data, lab)
    solves = []
    with capture_solves(solves):
        compared = stages.once(
            "compare", lambda: report.run_compare(datas, tol=SOLVE_TOL, steps_list=(1,)))
    gate.captured("compare", solves)
    result = stages.repeated("train", lambda: net.train(
        datas, bundle.labels, bundle.split["train"], bundle.split["val"],
        train_config(wl, seed)))
    test = bundle.split["test"]
    # never solved, so a deep copy of it is freshly prepared data
    test_datas = stages.once("eval_prepare", lambda: report.prepare_data(bundle, test))
    solves = []
    with capture_solves(solves):
        evaluated = stages.repeated(
            "eval", lambda fresh: report.run_eval(
                fresh, [bundle.labels[i] for i in test], result.params, cfg),
            fresh=lambda: copy.deepcopy(test_datas))
    gate.captured("eval", solves)

    return result.params, test_datas, {
        "warm_iter_reduction": evaluated.iteration_ratio,
        "bundle_bytes": bundle_bytes,
        "properties": workload_properties(datas, compared, evaluated),
    }


def _operator_key(data) -> str:
    K = data.I_plus_M
    h = hashlib.sha256()
    for arr in (K.indptr, K.indices, K.values):
        h.update(arr.tobytes())
    return h.hexdigest()


def _factor_path(data) -> str:
    # dr_solve caches its factorization on the data; a later layout may not
    F = getattr(data, "_factorization", None)
    if F is None or not hasattr(F, "_inv"):
        return "unknown"
    return "dense-inverse" if F._inv is not None else "superlu"


def workload_properties(datas, compared, evaluated) -> dict:
    """The exact-count properties a later change that helps only some inputs quotes."""
    sigmas = [d.sigma_max for d in datas]
    rows = evaluated.rows
    return {
        "instances": len(datas),
        "N": sorted({d.size for d in datas}),
        "nnz_I_plus_M": sorted({d.I_plus_M.nnz for d in datas}),
        "distinct_operators": f"{len({_operator_key(d) for d in datas})}/{len(datas)}",
        "sigma_max": {"min": min(sigmas), "max": max(sigmas)},
        "factor_path": dict(Counter(_factor_path(d) for d in datas)),
        "mean_iterations": {
            "dr": float(np.mean([r.dr_iterations for r in compared.rows])),
            "drgd": float(np.mean([r.drgd_iterations for r in compared.rows])),
            "eval_cold": float(np.mean([r.cold_iterations for r in rows])),
            "eval_warm": float(np.mean([r.warm_iterations for r in rows])),
        },
    }
