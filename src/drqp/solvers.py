"""Douglas-Rachford splitting and its gradient-step variant (DR-GD)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import MonotoneData, QualityMetrics, project_cone_dual, quality
from .sparse import Factorization, spmv

_DIVERGENCE_LIMIT = 1e12
SAFEGUARD_RHO = 0.99  # the step-size cap's fraction of 1 / sigma_max^2


@dataclass(frozen=True)
class SolverConfig:
    tol_fixed_point: float = 1e-6
    max_iter: int = 200_000
    fixed_eta: Optional[float] = None  # None steps at the cap; else min(fixed_eta, cap)
    steps_per_iter: int = 1
    record_history: bool = False

    def __post_init__(self):
        if not (0 < self.tol_fixed_point < math.inf):
            raise ValueError("tol_fixed_point must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.steps_per_iter < 1:
            raise ValueError("steps_per_iter must be >= 1")
        if self.fixed_eta is not None and not (0 < self.fixed_eta < math.inf):
            raise ValueError("fixed_eta must be positive and finite")


@dataclass
class IterateState:
    u_tilde: np.ndarray
    u: np.ndarray
    w: np.ndarray


@dataclass
class SolveReport:
    status: str  # "converged" | "max_iter" | "error"
    iterations: int
    state: IterateState
    x: np.ndarray
    y: np.ndarray
    metrics: QualityMetrics
    residual_history: Optional[list] = None
    step_sizes: Optional[list] = None
    message: str = ""


def step_size_cap(data: MonotoneData) -> float:
    """Safeguard cap SAFEGUARD_RHO / sigma_max(I+M)^2.

    sym(I+M) >= I because P is PSD, so the strong-monotonicity constant is
    at least 1 and the cap keeps the reflected gradient map nonexpansive.
    """
    return SAFEGUARD_RHO / data.sigma_max ** 2


def warm_start_from_solution(data: MonotoneData, x: np.ndarray,
                             y: np.ndarray) -> IterateState:
    """Iterate state whose first linear solve reproduces the injected point."""
    u_hat = np.concatenate([np.asarray(x, dtype=np.float64),
                            np.asarray(y, dtype=np.float64)])
    if u_hat.shape != (data.size,):
        raise ValueError("warm start dimension mismatch")
    w0 = spmv(data.I_plus_M, u_hat) + data.q
    return IterateState(u_tilde=u_hat.copy(),
                        u=project_cone_dual(u_hat, data.cone),
                        w=w0)


def _freeze(data: MonotoneData, ut, u, w, status: str, iterations: int,
            history, message: str = "") -> SolveReport:
    """The report of one row of the block, with copies of its iterates."""
    u = u.copy()
    x, y = u[:data.n], u[data.n:]
    return SolveReport(status=status, iterations=iterations,
                       state=IterateState(ut.copy(), u, w.copy()), x=x, y=y,
                       metrics=quality(data.cqp, x, y), residual_history=history,
                       message=message)


# a huge but finite iterate may overflow to inf or NaN in the residual, the
# resolvent or a frozen row's quality; the divergence test turns that into
# status "error", so no warning is raised for it
@np.errstate(over="ignore", invalid="ignore")
def _iterate(datas: list, cfg: SolverConfig, warms: list, resolvent) -> list:
    """The DR iteration shared by both solvers, on a block of instances.

    Row i of the B x N state arrays is instance datas[i]; all rows have one
    size and one cone, and one operator or one distinct dense operator per
    row. resolvent(R, UT, rows) returns the next u_tilde block, per row an
    exact or approximate solution of (I+M) u_tilde = r started from the
    current one; rows are the positions in datas of the rows still
    iterating. Projection, w-update, residual and stopping rules are common.
    A row that converges, diverges or reaches max_iter is frozen into its
    own SolveReport and dropped from the block; reports come back in the
    order of datas.
    """
    cone, tol = datas[0].cone, cfg.tol_fixed_point
    rows = np.arange(len(datas))
    Q = np.stack([d.q for d in datas])
    zero = np.zeros(Q.shape[1])
    UT = np.stack([zero if s is None else s.u_tilde for s in warms])
    W = np.stack([zero if s is None else s.w for s in warms])
    histories = [[] for _ in datas] if cfg.record_history else None
    active_histories = histories
    reports = [None] * len(datas)
    # an upper bound on max|W| over the rows; inf forces the full check
    w_bound = math.inf
    for k in range(1, cfg.max_iter + 1):
        UT = resolvent(W - Q, UT, rows)
        # the reflection 2 UT - W, formed in a fresh array (UT + UT is 2 UT
        # exactly, without a scalar operand) and projected in place
        U = UT + UT
        U -= W
        project_cone_dual(U.T, cone, in_place=True)
        dW = U - UT
        W += dW
        # per-row residuals as floats: cheaper than array reductions at small B
        resid = [math.sqrt(r2) for r2 in np.vecdot(dW, dW).tolist()]
        if histories is not None:
            for h, r in zip(active_histories, resid):
                h.append(r)
        # Each |W| entry grows by at most its row's residual, so while the
        # bound stays below half the limit no row can diverge; a NaN or inf
        # residual makes the sum, and so the bound, fail the test. Taking
        # max|W| every iteration instead costs about 13 % of a one-row
        # iteration.
        w_bound += sum(resid)
        if min(resid) > tol and w_bound <= 0.5 * _DIVERGENCE_LIMIT:
            continue
        resid = np.array(resid)
        w_max = np.abs(W).max(axis=1)
        # the negated comparisons are also true for NaN and inf
        error = ~np.isfinite(resid) | ~(w_max <= _DIVERGENCE_LIMIT)
        done = error | (resid <= tol)
        keep = ~done
        w_bound = float(w_max.max(initial=0.0, where=keep))
        if not done.any():
            continue
        for j in np.flatnonzero(done):
            i = rows[j]
            reports[i] = _freeze(datas[i], UT[j], U[j], W[j],
                                 "error" if error[j] else "converged", k,
                                 None if histories is None else histories[i],
                                 "divergent iterate" if error[j] else "")
        rows, UT, U, W, Q = rows[keep], UT[keep], U[keep], W[keep], Q[keep]
        if histories is not None:
            active_histories = [histories[i] for i in rows]
        if not rows.size:
            break
    for j, i in enumerate(rows):
        reports[i] = _freeze(datas[i], UT[j], U[j], W[j], "max_iter", cfg.max_iter,
                             None if histories is None else histories[i])
    return reports


# bytes of operators one stacked block may hold as its (B, N, N) stack; a
# larger group is split into several stacked blocks
_STACK_BYTES = 64 << 20


def _by_operator(datas: list, cfg: SolverConfig, warms, gradient: bool) -> list:
    """Solve datas in blocks of one size and cone; reports in input order.

    Instances that share an operator iterate as one 2-D block. Instances
    whose operator is theirs alone and on the dense path (a dense inverse
    for DR, a dense channel pair for DR-GD) are stacked by size and cone, at
    most _STACK_BYTES of operators to a block; a SuperLU or sparse operator
    of one instance runs alone.
    """
    warms = [None] * len(datas) if warms is None else warms
    if len(warms) != len(datas):
        raise ValueError("warms must hold one entry per instance")
    groups, stacks = {}, {}
    for i, data in enumerate(datas):
        groups.setdefault((data.operator, data.cone), []).append(i)
    for key, idx in list(groups.items()):
        data = datas[idx[0]]
        dense = (isinstance(data.operator.channel_operator[0], np.ndarray) if gradient
                 else data.operator.factorization.kind == "dense-inverse")
        if len(idx) == 1 and dense:
            stacks.setdefault((data.size, data.cone), []).extend(groups.pop(key))
    blocks = [(idx, False) for idx in groups.values()]
    for idx in stacks.values():
        per = max(1, _STACK_BYTES // (8 * datas[idx[0]].size ** 2))
        chunks = [idx[s:s + per] for s in range(0, len(idx), per)]
        blocks += [(chunk, len(chunk) > 1) for chunk in chunks]
    reports = [None] * len(datas)
    for idx, stacked in blocks:
        group = [datas[i] for i in idx]
        steps = [[] for _ in idx] if gradient and cfg.record_history else None
        if gradient:
            resolvent = _gradient_steps(group, cfg, steps, stacked)
        elif stacked:
            inverses = _Stack(Factorization.stack([d.operator.factorization for d in group]))
            resolvent = lambda R, UT, rows: Factorization.solve_stacked(
                inverses.at(rows)[0], R)
        else:
            solve = group[0].operator.factorization.solve
            resolvent = lambda R, UT, rows: solve(R)
        for j, rep in enumerate(_iterate(group, cfg, [warms[i] for i in idx], resolvent)):
            if steps is not None:
                rep.step_sizes = steps[j]
            reports[idx[j]] = rep
    return reports


class _Stack:
    """The per-row arrays of a stacked block (operators, step sizes), which
    shrink to the rows still iterating when rows drop, and only then."""

    def __init__(self, *arrays):
        self.rows, self.arrays = np.arange(len(arrays[0])), arrays

    def at(self, rows: np.ndarray) -> tuple:
        if len(rows) != len(self.rows):
            keep = np.isin(self.rows, rows)
            self.rows, self.arrays = rows, tuple(a[keep] for a in self.arrays)
        return self.arrays


def _gradient_steps(group: list, cfg: SolverConfig, steps, stacked: bool):
    """cfg.steps_per_iter gradient steps on 0.5||(I+M)v - r||^2 per row, on
    the channel pair of the row's operator: the shared pair of a 2-D block,
    or on a stacked block a (B, N, N) stack of dense K, with each row's own
    step size as a (B, 1) column; steps, when given, records each row's step
    sizes."""
    etas = [cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
            for cap in (step_size_cap(d) for d in group)]
    if stacked:
        stack = _Stack(np.stack([d.operator.channel_operator[0] for d in group]),
                       np.array(etas)[:, None])
    else:
        K, Kt = group[0].operator.channel_operator

    def gradient_steps(R, UT, rows):
        if stacked:  # each row's own K and step size
            Ks, eta = stack.at(rows)
            Kts = Ks.transpose(0, 2, 1)
        else:
            eta = etas[0]
        for _ in range(cfg.steps_per_iter):
            if stacked:  # row i times Kt[i], then K[i]: batched vector-matrix products
                T = np.matmul(np.matmul(UT[:, None], Kts) - R[:, None], Ks)[:, 0]
            else:
                T = (UT @ Kt - R) @ K
            tt = np.vecdot(T, T).tolist()
            T *= eta
            # the sum is NaN when any entry is; the unmasked step saves about
            # 14 % of a DR-GD iteration over the masked one
            if min(tt) > 0.0 and sum(tt) >= 0.0:
                UT = UT - T
                stepped = rows
            else:
                # a row whose gradient vanished (its subproblem is solved
                # exactly) or is not finite keeps its iterate
                ok = np.array(tt) > 0.0
                UT = np.where(ok[:, None], UT - T, UT)
                stepped = rows[ok]
            if steps is not None:
                for i in stepped:
                    steps[i].append(etas[i])
        return UT

    return gradient_steps


def dr_solve_batch(datas: list, cfg: SolverConfig = SolverConfig(),
                   warms: Optional[list] = None) -> list:
    """dr_solve for many instances, one report each in input order.

    Each block has one size and cone, and one operator or one distinct
    dense operator per row. Rows that share an operator make each iteration
    one multi-right-hand-side solve, and their iterates equal dr_solve's up
    to rounding; rows with a dense inverse of their own are stacked, one
    batched product per iteration, and equal dr_solve's bit for bit. Every
    row stops on its own, with the status and iteration count its dr_solve
    gives.
    """
    return _by_operator(datas, cfg, warms, gradient=False)


def drgd_solve_batch(datas: list, cfg: SolverConfig = SolverConfig(),
                     warms: Optional[list] = None) -> list:
    """drgd_solve for many instances, in the blocks of dr_solve_batch; a
    stacked block holds each row's dense channel pair and steps each row with
    its own step size.

    No pipeline stage calls it yet: compare and eval solve one instance at a
    time.
    """
    return _by_operator(datas, cfg, warms, gradient=True)


def dr_solve(data: MonotoneData, cfg: SolverConfig = SolverConfig(),
             warm: Optional[IterateState] = None) -> SolveReport:
    """Douglas-Rachford splitting with a single reusable factorization of I+M."""
    return dr_solve_batch([data], cfg, [warm])[0]


def drgd_solve(data: MonotoneData, cfg: SolverConfig = SolverConfig(),
               warm: Optional[IterateState] = None) -> SolveReport:
    """DR splitting with the linear solve replaced by gradient steps.

    Each outer iteration takes cfg.steps_per_iter gradient steps on the
    least-squares subproblem at the safeguard cap, or at cfg.fixed_eta when
    that is smaller, then applies the same projection and w updates as
    dr_solve. No factorization is performed; the steps use the operator's
    channel pair (dense I+M up to model._DENSE_LIMIT). An exact line search
    clipped at the cap would step at the cap too: its step
    ||t||^2/||Kt||^2 >= 1/sigma_max^2 is never below it.
    """
    return drgd_solve_batch([data], cfg, [warm])[0]
