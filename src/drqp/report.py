"""Benchmark runners and report emission (comparison, warm-start evaluation)."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .datagen import DatasetBundle
from .model import (MonotoneData, assemble_inclusion, l2_distance, project_cone_dual,
                    to_conic)
from .net import NetParams, forward
from .solvers import SolverConfig, dr_solve, drgd_solve, warm_start_from_solution
from .sparse import spmv


def prepare_data(bundle: DatasetBundle, indices=None) -> list:
    """Assemble MonotoneData for the selected instances (all by default).

    Instances with the same (P, A) share one Operator.
    """
    idx = range(len(bundle)) if indices is None else indices
    operators = {}
    return [assemble_inclusion(to_conic(bundle.instances[i]), operators) for i in idx]


# -- Algorithm 1 vs Algorithm 2 comparison -----------------------------------

@dataclass
class ComparisonRow:
    instance: int
    dr_objective: float
    dr_max_eq: float
    dr_max_ineq: float
    dr_iterations: int
    dr_status: str
    drgd_objective: float
    drgd_max_eq: float
    drgd_max_ineq: float
    drgd_iterations: int
    drgd_status: str

    @property
    def ratio(self) -> float:
        return self.drgd_iterations / self.dr_iterations


@dataclass
class ComparisonReport:
    rows: list
    multistep: dict  # steps_per_iter -> list of iteration counts

    @property
    def iteration_ratio(self) -> float:
        dr = np.mean([r.dr_iterations for r in self.rows])
        gd = np.mean([r.drgd_iterations for r in self.rows])
        return float(gd / dr)

    def mean_iterations(self, steps: int):
        return float(np.mean(self.multistep[steps]))


def run_compare(datas: list, tol: float = 1e-6, steps_list=(1,),
                max_iter: int = 200_000) -> ComparisonReport:
    """Run dr_solve and drgd_solve (per steps_per_iter) on each instance."""
    rows = []
    # one key, so one solve, per distinct value; the first fills the drgd_ columns
    multistep = {s: [] for s in steps_list}
    for i, data in enumerate(datas):
        cfg = SolverConfig(tol_fixed_point=tol, max_iter=max_iter)
        dr = dr_solve(data, cfg)
        gd_first = None
        for s in multistep:
            gd = drgd_solve(data, replace(cfg, steps_per_iter=s))
            multistep[s].append(gd.iterations)
            if gd_first is None:
                gd_first = gd
        rows.append(ComparisonRow(
            instance=i,
            dr_objective=dr.metrics.objective, dr_max_eq=dr.metrics.max_eq_viol,
            dr_max_ineq=dr.metrics.max_ineq_viol, dr_iterations=dr.iterations,
            dr_status=dr.status,
            drgd_objective=gd_first.metrics.objective,
            drgd_max_eq=gd_first.metrics.max_eq_viol,
            drgd_max_ineq=gd_first.metrics.max_ineq_viol,
            drgd_iterations=gd_first.iterations, drgd_status=gd_first.status,
        ))
    return ComparisonReport(rows=rows, multistep=multistep)


# -- warm-start evaluation ----------------------------------------------------

@dataclass
class WarmStartRow:
    instance: int
    cold_iterations: int
    warm_iterations: int
    cold_time: Optional[float]  # None when the cold solve came from a cache
    warm_time: float
    inference_time: float
    objective: float
    max_viol: float
    l2_to_reference: Optional[float]
    cold_status: str
    warm_status: str

    @property
    def failed(self) -> bool:
        return self.cold_status == "error" or self.warm_status == "error"


@dataclass
class WarmStartReport:
    rows: list
    residual_histories: Optional[dict] = None  # instance -> (cold, warm) lists

    def _ok(self) -> list:
        """The rows every ratio averages over; the ratios are None when empty."""
        return [r for r in self.rows if not r.failed]

    @property
    def iteration_ratio(self) -> Optional[float]:
        """Headline ratio-of-means: 1 - mean(warm) / mean(cold)."""
        ok = self._ok()
        if not ok:
            return None
        return float(1.0 - np.mean([r.warm_iterations for r in ok])
                     / np.mean([r.cold_iterations for r in ok]))

    @property
    def iteration_ratio_per_instance(self) -> Optional[float]:
        """Mean of per-instance reduction ratios (secondary column)."""
        ratios = [1.0 - r.warm_iterations / r.cold_iterations for r in self._ok()]
        return float(np.mean(ratios)) if ratios else None

    @property
    def time_ratio(self) -> Optional[float]:
        """1 - mean(warm + inference) / mean(cold); None if a cold time is unknown.

        inference_time holds every step of the warm path before its solve, so
        the ratio charges the warm start with all it costs.
        """
        ok = self._ok()
        if not ok or any(r.cold_time is None for r in ok):
            return None
        return float(1.0 - np.mean([r.warm_time + r.inference_time for r in ok])
                     / np.mean([r.cold_time for r in ok]))


def complete_zero_cone_dual(data: MonotoneData, u: np.ndarray) -> np.ndarray:
    """Least-squares completion of the zero-cone (equality) dual block.

    Given a predicted primal-dual point, re-solves the equality multipliers
    to minimize the stationarity residual ||P x + A' y + c|| while keeping
    the primal block and the nonnegative dual block fixed. Predictions tend
    to localize well on the primal and active-set blocks; the unsigned
    equality multipliers are cheap to recover exactly from those, so this
    consistently tightens warm starts. The least-squares operator, the
    pseudo-inverse of the equality block of A', is cached on the operator.
    """
    n, m0 = data.n, data.cone.m_zero
    if m0 == 0:
        return u
    r = spmv(data.operator.M, u)[:n] + data.q[:n]      # P x + A' y + c
    out = u.copy()
    out[n:n + m0] -= data.operator.equality_pinv(m0) @ r
    return out


def run_eval(datas: list, labels: list, params: NetParams,
             cfg: SolverConfig = SolverConfig(),
             cold_cache: Optional[list] = None) -> WarmStartReport:
    """Cold vs network-warm-started dr_solve on each instance.

    The prediction's dual part is cone-projected and its equality multipliers
    are least-squares-completed before warm-start injection. Cold and warm
    runs share an identical SolverConfig; only the initial state differs.
    inference_time covers the whole warm path before the warm solve:
    forward pass, projection, completion and warm-state construction.
    With cfg.record_history the report holds both residual histories.
    cold_cache, when given, reuses precomputed cold SolveReports; their
    cold_time is then None.
    """
    rows = []
    histories = {} if cfg.record_history else None
    for i, data in enumerate(datas):
        if cold_cache is not None:
            cold = cold_cache[i]
            cold_time = None
        else:
            t0 = time.perf_counter()
            cold = dr_solve(data, cfg)
            cold_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        xh, yh, _ = forward(data, params)
        u_pred = project_cone_dual(np.concatenate([xh, yh]), data.cone)
        u_pred = complete_zero_cone_dual(data, u_pred)
        warm_state = warm_start_from_solution(data, u_pred[:data.n], u_pred[data.n:])
        inference_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = dr_solve(data, cfg, warm=warm_state)
        warm_time = time.perf_counter() - t0
        ref = labels[i] if labels is not None else None
        l2 = None if ref is None else l2_distance(xh, yh, ref)
        rows.append(WarmStartRow(
            instance=i, cold_iterations=cold.iterations,
            warm_iterations=warm.iterations, cold_time=cold_time,
            warm_time=warm_time, inference_time=inference_time,
            objective=warm.metrics.objective, max_viol=warm.metrics.max_viol,
            l2_to_reference=l2, cold_status=cold.status, warm_status=warm.status,
        ))
        if cfg.record_history:
            histories[i] = (cold.residual_history, warm.residual_history)
    return WarmStartReport(rows=rows, residual_histories=histories)


# -- emission -----------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def table(header: list, rows: list, fmt: str) -> str:
    """Render rows under header as CSV or as a Markdown table."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


COMPARISON_HEADER = [f.name for f in fields(ComparisonRow)] + ["ratio"]
WARMSTART_HEADER = [f.name for f in fields(WarmStartRow)]


def comparison_table(report: ComparisonReport, fmt: str = "csv") -> str:
    rows = [[getattr(r, name) for name in COMPARISON_HEADER] for r in report.rows]
    return table(COMPARISON_HEADER, rows, fmt)


def multistep_table(report: ComparisonReport, fmt: str = "csv") -> str:
    header = ["steps_per_iter", "mean_iterations"]
    rows = [[s, report.mean_iterations(s)] for s in sorted(report.multistep)]
    return table(header, rows, fmt)


def warmstart_table(report: WarmStartReport, fmt: str = "csv") -> str:
    rows = [[getattr(r, name) for name in WARMSTART_HEADER] for r in report.rows]
    return table(WARMSTART_HEADER, rows, fmt)


def warmstart_summary(report: WarmStartReport, fmt: str = "csv") -> str:
    header = ["iteration_ratio", "iteration_ratio_per_instance", "time_ratio"]
    rows = [[report.iteration_ratio, report.iteration_ratio_per_instance,
             report.time_ratio]]
    return table(header, rows, fmt)


def residual_history_csv(report: WarmStartReport) -> str:
    """Plot-ready long format: (instance_id, start, iter, residual) rows."""
    rows = []
    for i in sorted(report.residual_histories or {}):
        for start, history in zip(("cold", "warm"), report.residual_histories[i]):
            rows += [[i, start, k, r] for k, r in enumerate(history or [])]
    return table(["instance_id", "start", "iter", "residual"], rows, "csv")


def training_log_csv(log: list) -> str:
    """One row per net.EpochLog; best_flag is 1 for an epoch that improved."""
    rows = [[e.epoch, e.train_loss, e.val_loss, int(e.best), e.learning_rate]
            for e in log]
    return table(["epoch", "train_loss", "val_loss", "best_flag", "learning_rate"],
                 rows, "csv")
