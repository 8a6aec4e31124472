"""Douglas-Rachford splitting and its gradient-step variant (DR-GD)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (MonotoneData, QualityMetrics, check_counts, check_positive,
                    project_cone_dual, quality)
from .sparse import spmv

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
        check_positive(self, "tol_fixed_point")
        check_counts(self, "max_iter", "steps_per_iter")
        check_positive(self, "fixed_eta", optional=True)


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
def _iterate(datas: list, cfg: SolverConfig, warms: list, bind, per_row: list) -> list:
    """The DR iteration shared by both solvers, on a block of instances.

    Row i of the B x N blocks is instance datas[i]; all rows have one size
    and one cone, and one operator or one distinct dense operator per row.
    The state is one (2, B, N) array S: S[0] the u_tilde block and S[1] the
    w block, each contiguous, so at B = 1 a row's [u_tilde | w] is one
    vector. bind(S, Q, rows), called at the start and after each cut, binds
    the resolvent to buffers of the block's shape: a call that writes into
    S[0] per row an exact or approximate solution of (I+M) u_tilde = w - q
    started from the current one. Q holds q of the rows still iterating,
    rows their positions in datas, per_row the block's other per-row arrays
    (a stack of operators, DR-GD's eta qK), read through the closure. Then
    five ufunc calls form the reflection, its projection and the w-step, and
    the residual is one np.dot on one row, one np.vecdot and a list of
    floats on several. A row that converges, diverges or reaches max_iter is
    frozen into its own SolveReport and cut from the block, Q and per_row;
    reports come back in the order of datas.
    """
    cone, tol = datas[0].cone, cfg.tol_fixed_point
    rows = np.arange(len(datas))
    Q = np.stack([d.q for d in datas])
    S = np.zeros((2,) + Q.shape)
    for j, s in enumerate(warms):
        if s is not None:
            S[:, j] = s.u_tilde, s.w
    U, dW = np.empty_like(Q), np.empty_like(Q)
    histories = [[] for _ in datas] if cfg.record_history else None
    reports = [None] * len(datas)
    # an upper bound on max|W| over the rows; inf forces the full check
    w_bound, k = math.inf, 0
    while rows.size and k < cfg.max_iter:
        resolve, (UT, W) = bind(S, Q, rows), S
        # the dual columns of the reflection U, which the cone projection clips
        dual = U[:, U.shape[1] - cone.m_nonneg:]
        dw = dW[0] if rows.size == 1 else None
        active_histories = None if histories is None else [histories[i] for i in rows]
        for k in range(k + 1, cfg.max_iter + 1):
            resolve()
            # the reflection 2 UT - W (UT + UT is 2 UT exactly, without a
            # scalar operand), projected in place, and the w-step
            np.add(UT, UT, U)
            U -= W
            np.maximum(dual, 0.0, out=dual)
            np.subtract(U, UT, dW)
            W += dW
            # Each |W| entry grows by at most its row's residual, so while
            # the bound stays below half the limit no row can diverge; a NaN
            # or inf residual makes the sum, and so the bound, fail the test.
            # Taking max|W| every iteration instead costs about 13 % of a
            # one-row iteration.
            if dw is not None:
                r = math.sqrt(np.dot(dw, dw))
                if active_histories is not None:
                    active_histories[0].append(r)
                w_bound += r
                if r > tol and w_bound <= 0.5 * _DIVERGENCE_LIMIT:
                    continue
                resid = [r]
            else:
                # per-row residuals as floats: cheaper than array reductions at small B
                resid = [math.sqrt(r2) for r2 in np.vecdot(dW, dW).tolist()]
                if active_histories is not None:
                    for h, r in zip(active_histories, resid):
                        h.append(r)
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
            # compress keeps S in (2, B, N) order; S[:, keep] would not
            rows, S, U, dW, Q = rows[keep], S.compress(keep, axis=1), U[keep], dW[keep], Q[keep]
            per_row[:] = [a[keep] for a in per_row]
            break
    UT, W = S
    for j, i in enumerate(rows):
        reports[i] = _freeze(datas[i], UT[j], U[j], W[j], "max_iter", cfg.max_iter,
                             None if histories is None else histories[i])
    return reports


# bytes of operators one stacked block may hold: a (B, N, N) stack of
# inverses for DR, a (B, 2N, N) stack of gradient operators for DR-GD; a
# larger group is split into several stacked blocks
_STACK_BYTES = 64 << 20


def _by_operator(datas: list, cfg: SolverConfig, warms, gradient: bool) -> list:
    """Solve datas in blocks of one size and cone; reports in input order.

    Instances that share an operator iterate as one 2-D block (DR solves it
    with Factorization.solve). Instances whose operator is theirs alone and
    on the dense path (a dense inverse for DR, a dense channel pair for
    DR-GD) are stacked by size and cone, one batched product per step, at most
    _STACK_BYTES of operators to a block (8 N^2 bytes a row for DR, 16 N^2
    for DR-GD); a SuperLU or sparse operator of one instance runs alone.
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
    row_bytes = 16 if gradient else 8
    for idx in stacks.values():
        per = max(1, _STACK_BYTES // (row_bytes * datas[idx[0]].size ** 2))
        chunks = [idx[s:s + per] for s in range(0, len(idx), per)]
        blocks += [(chunk, len(chunk) > 1) for chunk in chunks]
    reports = [None] * len(datas)
    for idx, stacked in blocks:
        group, per_row = [datas[i] for i in idx], []
        steps = [[] for _ in idx] if gradient and cfg.record_history else None
        bind = (_gradient_steps(group, cfg, steps, stacked, per_row) if gradient
                else _linear_solves(group, stacked, per_row))
        for j, rep in enumerate(_iterate(group, cfg, [warms[i] for i in idx], bind, per_row)):
            if steps is not None:
                rep.step_sizes = steps[j]
            reports[idx[j]] = rep
    return reports


def _linear_solves(group: list, stacked: bool, per_row: list):
    """DR's resolvent binder: w - q into a buffer R, then u_tilde from the
    shared operator's Factorization.solve or, on a stacked block, row i times
    its own inverse's transpose (as solve() multiplies it), one batched
    product over the stack of inverses in per_row."""
    if stacked:
        per_row.append(np.stack([d.operator.factorization.inverse for d in group]))
    solve = group[0].operator.factorization.solve

    def bind(S, Q, rows):
        (UT, W), R = S, np.empty_like(Q)
        if stacked:
            UT3, inverses_t = UT[:, None], per_row[0].transpose(0, 2, 1)
            return lambda: np.matmul(np.subtract(W, Q, R)[:, None], inverses_t, UT3)
        return lambda: solve(np.subtract(W, Q, R), out=UT)

    return bind


def _gradient_steps(group: list, cfg: SolverConfig, steps, stacked: bool, per_row: list):
    """DR-GD's resolvent binder: cfg.steps_per_iter gradient steps on
    0.5||(I+M)v - (w - q)||^2 per row, at the row's step size eta, written
    into u_tilde with w held fixed.

    On a dense channel pair each step is one matmul into a buffer T,
    eta T = [u_tilde | w] (eta G) + eta qK, with eta G the operator's
    gradient_operator(eta): the shared array itself on a 2-D block, a
    (B, 2N, N) stack of each row's own on a stacked block. [u_tilde | w] is
    a view of S on one row, a buffer refilled each step on several. eta qK
    is formed once per block, as -[0 | q] (eta G): the product a step forms,
    so a row at u_tilde = 0, w = q (its subproblem solved exactly) gets
    T = 0 exactly. Per-row arrays go to per_row. The CSR pair above
    model._DENSE_LIMIT takes the two sparse products (u_tilde K' - r) K. A
    row whose gradient vanished or is not finite keeps its iterate; steps,
    when given, records each row's step sizes.
    """
    etas = [cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
            for cap in (step_size_cap(d) for d in group)]
    N = group[0].size
    K, Kt = group[0].operator.channel_operator
    dense = isinstance(K, np.ndarray)
    if dense:
        if stacked:  # each row's own, written straight into its slice
            G = np.empty((len(group), 2 * N, N))
            for d, eta, G_row in zip(group, etas, G):
                d.operator.gradient_operator(eta, out=G_row)
        else:
            G = group[0].operator.gradient_operator(etas[0])
        Z = np.concatenate([np.zeros((len(group), N)),
                            np.stack([d.q for d in group])], axis=1)
        per_row += [-np.matmul(Z[:, None], G)[:, 0], G] if stacked else [-(Z @ G)]
        shared = None if stacked else G  # a stack only in per_row, so cuts free it

    def bind(S, Q, rows):
        (UT, W), T, B = S, np.empty_like(Q), len(rows)
        t, i = (T[0], rows[0]) if B == 1 else (None, None)
        if dense:  # eta qK and, stacked, each row's own eta G
            QK, G_rows = per_row if stacked else (per_row[0], shared)
            X = S.transpose(1, 0, 2).reshape(B, 2 * N)  # at B = 1 a view of S
            XA, TA = (X[:, None], T[:, None]) if stacked else (X, T)

        def gradient_steps():
            for _ in range(cfg.steps_per_iter):
                if dense:
                    if B > 1:
                        np.copyto(X.reshape(B, 2, N), S.transpose(1, 0, 2))
                    np.matmul(XA, G_rows, TA)
                    np.add(T, QK, T)
                else:
                    np.multiply((UT @ Kt - (W - Q)) @ K, etas[0], out=T)
                if t is not None:
                    # a gradient that vanished (the subproblem is solved
                    # exactly) or is not finite leaves the iterate
                    if np.dot(t, t) > 0.0:
                        np.subtract(UT, T, UT)
                        if steps is not None:
                            steps[i].append(etas[i])
                    continue
                tt = np.vecdot(T, T).tolist()
                # the sum is NaN when any entry is; the unmasked step saves
                # about 14 % of a DR-GD iteration over the masked one
                if min(tt) > 0.0 and sum(tt) >= 0.0:
                    np.subtract(UT, T, UT)
                    stepped = rows
                else:
                    ok = np.array(tt) > 0.0
                    np.subtract(UT, T, out=UT, where=ok[:, None])
                    stepped = rows[ok]
                if steps is not None:
                    for j in stepped:
                        steps[j].append(etas[j])

        return gradient_steps

    return bind


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
    shared block steps with its operator's gradient_operator(eta) itself, a
    stacked block with a (B, 2N, N) stack of each row's own (16 N^2 bytes a
    row against _STACK_BYTES), and each row equals its drgd_solve bit for bit.

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
    dr_solve. No factorization is performed. Up to model._DENSE_LIMIT a
    step is one product of [u_tilde | w] with the operator's eta [K'K; -K]
    plus eta qK, equal in exact arithmetic to eta (K u_tilde - (w - q))' K,
    with a rounding floor near
    eps sigma_max^2 ||u_tilde||; above it the two CSR products. An exact
    line search clipped at the cap would step at the cap too: its step
    ||t||^2/||Kt||^2 >= 1/sigma_max^2 is never below it.
    """
    return drgd_solve_batch([data], cfg, [warm])[0]
