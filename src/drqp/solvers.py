"""Douglas-Rachford splitting and its gradient-step variant (DR-GD)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (MonotoneData, QualityMetrics, check_counts, check_positive,
                    project_cone_dual, quality)
from .sparse import aligned_empty, spmv

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
    message: str = ""


def step_size_cap(data: MonotoneData) -> float:
    """Safeguard cap SAFEGUARD_RHO / sigma_max(I+M)^2.

    sym(I+M) >= I because P is PSD, so the strong-monotonicity constant is
    at least 1 and the cap keeps the reflected gradient map nonexpansive.
    """
    return SAFEGUARD_RHO / data.operator.sigma_max ** 2


def warm_start_from_solution(data: MonotoneData, x: np.ndarray,
                             y: np.ndarray) -> IterateState:
    """Iterate state whose first linear solve reproduces the injected point."""
    u_hat = np.concatenate([np.asarray(x, dtype=np.float64),
                            np.asarray(y, dtype=np.float64)])
    if u_hat.shape != (data.size,):
        raise ValueError("warm start dimension mismatch")
    w0 = spmv(data.operator.I_plus_M, u_hat) + data.q
    return IterateState(u_tilde=u_hat.copy(),
                        u=project_cone_dual(u_hat, data.cone),
                        w=w0)


# iterations per chunk: the stop test runs once per chunk, so a row computes
# up to CHUNK - 1 iterations past its stop, which its report drops
CHUNK = 16
# at most this many bytes of u_tilde, w and dW per chunk, so that a block of
# many rows keeps its chunk in cache (34 rows of N = 100: 6 iterations)
_CHUNK_BYTES = 512 << 10


def _chunk_length(low: float, decay: float, tol: float) -> int:
    """The iterations, at most CHUNK, until a residual at low that decays by
    decay (its log) per iteration reaches tol: a chunk of that length ends
    near the next stop, so a block computes few iterations past it."""
    return max(1, min(CHUNK, math.ceil(math.log(tol / low) / decay))) if decay < 0 else CHUNK


# a huge but finite iterate may overflow to inf or NaN in the residual, the
# resolvent or a frozen row's quality, and a stopped row runs on to the end of
# its chunk; the stop test turns that into status "error", so no warning is
# raised for it
@np.errstate(over="ignore", invalid="ignore")
def _iterate(datas: list, cfg: SolverConfig, warms: list, bind, per_row: list) -> list:
    """The DR iteration shared by both solvers, on a block of instances.

    Row i of the B x N blocks is instance datas[i]; all rows have one size
    and one cone, and one operator or one distinct dense operator per row.
    Iterations run in chunks of at most C = CHUNK (fewer when the slots of
    many rows would pass _CHUNK_BYTES) over (C + 1, 2, B, N) slots S, S[j, 0]
    a u_tilde block and S[j, 1] a w block, so at B = 1 a slot's
    [u_tilde | w] is one vector. Iteration j of a chunk reads slot j and
    writes slot j + 1 and its w-step into dW[j]. bind(S, UT, W, Q), with UT
    and W the lists of S[:, 0] and S[:, 1], called at the start and after
    each cut, gives resolve: resolve(j) writes into UT[j + 1] per row an
    exact or approximate solution of (I+M) u_tilde = W[j] - q started from
    UT[j]. Q holds q of the rows still iterating, rows their positions in
    datas, per_row the block's other per-row arrays (a stack of operators),
    read through the closure.

    The reflection, projection and w-step are four calls on
    dw = u - u_tilde, u = Pi(2 u_tilde - w): dw = u_tilde - w, which Pi
    leaves on the free columns, then max(dw, -u_tilde) on the nonnegative
    dual ones, then w + dw (the DR fixed-point step, Eckstein & Bertsekas
    1992). u itself is formed only for the slot a row is frozen from, and
    its report's w as the w-step w + (u - u_tilde) from there, so that the
    reported state meets that identity exactly; the w carried on differs
    from it at rounding.

    The stop test runs once per chunk, on every residual from one np.vecdot
    over dW. Each |W| entry grows by at most its row's residual, so while a
    bound on max|W| stays below half the limit no row can diverge; past it
    max|W| of every iterate decides. A row stops at its first iteration
    whose residual is not finite or whose max|W| passes the limit ("error"),
    or whose residual is at most tol ("converged"), as with a test after
    every iteration. The chunk ends at the first stop of any row, the
    stopped rows are frozen from its slot and cut from the block, Q and
    per_row, and the others go on from that slot. So they compute the
    iterations after the stop again, in the block without the stopped rows
    (a shared operator's product rounds by block size), and every report is
    bit for bit the one of a test after every iteration. The next chunk's
    length is the iterations until the smallest residual, decaying as over
    the last chunk, reaches tol, so a block computes few iterations past a
    stop. Reports come back in the order of datas.
    """
    cone, tol = datas[0].cone, cfg.tol_fixed_point
    dual = slice(datas[0].size - cone.m_nonneg, None)  # the nonnegative dual columns
    rows = np.arange(len(datas))
    Q = np.stack([d.q for d in datas])
    start = np.zeros((2,) + Q.shape)  # the next chunk's slot 0
    for j, warm in enumerate(warms):
        if warm is not None:
            start[:, j] = warm.u_tilde, warm.w
    histories = [[] for _ in datas] if cfg.record_history else None
    reports = [None] * len(datas)
    # an upper bound on max|W| over the rows (NaN if a w is, which forces
    # the full test)
    w_bound, k = float(np.abs(start[1]).max()), 0
    # the smallest residual of the last chunk and its log decay per iteration
    low_before, decay, length = math.nan, 0.0, CHUNK
    while True:
        # slots for as many iterations as _CHUNK_BYTES of u_tilde, w and dW hold
        C = min(CHUNK, max(1, _CHUNK_BYTES // (24 * Q.size)))
        S, dW = np.empty((C + 1, 2) + Q.shape), np.empty((C,) + Q.shape)
        S[0] = start
        UT, W = list(S[:, 0]), list(S[:, 1])
        resolve, neg = bind(S, UT, W, Q), np.empty((len(Q), cone.m_nonneg))
        # iteration j's (u_tilde, w, dw, next w, dual columns of u_tilde and dw)
        views = list(zip(UT[1:], W, dW, W[1:], S[1:, 0, :, dual], dW[:, :, dual]))
        while True:
            n = min(length, C, cfg.max_iter - k)
            for j in range(n):
                resolve(j)
                ut, w, dw, w_next, ut_dual, dw_dual = views[j]
                np.subtract(ut, w, dw)
                np.negative(ut_dual, neg)
                np.maximum(dw_dual, neg, out=dw_dual)
                np.add(w, dw, w_next)
            resid = np.sqrt(np.vecdot(dW[:n], dW[:n]))  # (n, B)
            # as floats: cheaper than two array reductions on a few rows; the
            # sum is NaN if any residual is, and the negated comparisons are
            # also true for NaN and inf
            flat = resid.ravel().tolist()
            total, low, stop = sum(flat), min(flat), None
            if low > tol and w_bound + total <= 0.5 * _DIVERGENCE_LIMIT:
                w_bound += total
            else:
                w_max = np.abs(S[1:n + 1, 1]).max(axis=2)
                error = ~np.isfinite(resid) | ~(w_max <= _DIVERGENCE_LIMIT)
                done = error | (resid <= tol)
                # the chunk ends at its first stop, so every row computed
                # after it is computed again in the block without the
                # stopped rows, as without chunks
                if done.any():
                    n = int(done.any(axis=1).argmax()) + 1
                error, stop = error[n - 1], done[n - 1]
                w_bound = float(w_max[n - 1].max(initial=0.0, where=~stop))
            k += n
            if histories is not None:
                for i, h in zip(rows.tolist(), resid[:n].T.tolist()):
                    histories[i] += h
            if k == cfg.max_iter or (stop is not None and stop.any()):
                break
            if low_before > low:
                decay = math.log(low / low_before) / n
            low_before, length = low, _chunk_length(low, decay, tol)
            S[0] = S[n]
        # freeze the rows that end at slot n; the rest go on from it in a
        # block of their own
        ends = np.ones(len(rows), bool) if k == cfg.max_iter else stop
        for j in np.flatnonzero(ends):
            i, ut, w = rows[j], S[n, 0, j].copy(), S[n - 1, 1, j]
            u = project_cone_dual(ut + ut - w, cone)
            status = "max_iter" if stop is None or not stop[j] else (
                "error" if error[j] else "converged")
            x, y = u[:datas[i].n], u[datas[i].n:]
            reports[i] = SolveReport(
                status=status, iterations=k,
                state=IterateState(ut, u, w + (u - ut)),
                x=x, y=y, metrics=quality(datas[i].cqp, x, y),
                residual_history=None if histories is None else histories[i],
                message="divergent iterate" if status == "error" else "")
        keep = ~ends
        if not keep.any():
            return reports
        low_before = float(resid[n - 1, keep].min())
        length = _chunk_length(low_before, decay, tol)
        rows, Q, start = rows[keep], Q[keep], S[n][:, keep]
        per_row[:] = [a[keep] for a in per_row]


# bytes of operators one stacked block may hold: a (B, N, N) stack of
# inverses for DR, a (B, N, 2N) stack of step operators for DR-GD; a
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
        if gradient:
            etas = [cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
                    for cap in (step_size_cap(d) for d in group)]
            bind = _gradient_steps(group, cfg, etas, stacked, per_row)
        else:
            bind = _linear_solves(group, stacked, per_row)
        for j, rep in enumerate(_iterate(group, cfg, [warms[i] for i in idx], bind,
                                         per_row)):
            reports[idx[j]] = rep
    return reports


def _linear_solves(group: list, stacked: bool, per_row: list):
    """DR's resolvent binder: w - q into a buffer R, then u_tilde. One row
    with a dense inverse takes the GEMV np.dot(inverse, r, u_tilde), bound
    once per block; shared rows and SuperLU take Factorization.solve; a
    stacked block takes one batched product over the stack of inverses in
    per_row, the same GEMV per row."""
    if stacked:
        per_row.append(np.stack([d.operator.factorization.inverse for d in group]))
    factorization = group[0].operator.factorization
    solve, inverse = factorization.solve, factorization.inverse

    def bind(S, UT, W, Q):
        R = np.empty_like(Q)
        if stacked:
            UT3, inverses_t = list(S[:, 0, :, None]), per_row[0].transpose(0, 2, 1)
            return lambda j: np.matmul(np.subtract(W[j], Q, R)[:, None], inverses_t,
                                       UT3[j + 1])
        if len(Q) == 1 and inverse is not None:
            q, r, UT1, W1 = Q[0], R[0], list(S[:, 0, 0]), list(S[:, 1, 0])
            return lambda j: np.dot(inverse, np.subtract(W1[j], q, r), UT1[j + 1])
        return lambda j: solve(np.subtract(W[j], Q, R), out=UT[j + 1])

    return bind


def _gradient_steps(group: list, cfg: SolverConfig, etas: list, stacked: bool,
                    per_row: list):
    """DR-GD's resolvent binder: cfg.steps_per_iter gradient steps on
    0.5||(I+M)v - (w - q)||^2 per row, at the row's step size in etas, from
    slot j's u_tilde into slot j + 1's with w held at slot j's.

    On a dense channel pair each step is one product and one add,
    u_tilde' = A' x + c for x = [u_tilde | w], with A' = [I - eta K'K | eta K']
    the operator's row-major (N, 2N) step_operator(eta). One row takes the
    GEMV np.dot(A', x); the rows X of a shared block take X @ A'.T on the
    shared array; a stacked block takes one GEMV per row, np.matmul over a
    (B, N, 2N) stack of each row's own A' in per_row. x is a view of a slot
    on one row, a buffer refilled each step on several; a step after the
    first reads slot j + 1, whose w is first set to slot j's.
    c = -A' [0 | q] is formed at each bind by the product a step forms, so
    a row at u_tilde = 0, w = q (its subproblem solved exactly) steps to
    u_tilde' = 0 exactly. The CSR pair above model._DENSE_LIMIT takes the
    two sparse products u_tilde - eta (u_tilde K' - r) K.
    """
    N, steps = group[0].size, cfg.steps_per_iter
    K, Kt = group[0].operator.channel_operator
    dense = isinstance(K, np.ndarray)
    if dense and stacked:  # each row's own, written straight into its slice
        per_row.append(aligned_empty((len(group), N, 2 * N)))
        for d, eta, At_row in zip(group, etas, per_row[0]):
            d.operator.step_operator(eta, out=At_row)
    # a shared block's A' is its operator's own; only a stack, cut as rows stop, is per-row
    shared = group[0].operator.step_operator(etas[0]) if dense and not stacked else None

    def bind(S, UT, W, Q):
        B, C = len(Q), len(S) - 1
        T = np.empty((B, N))  # a step's product
        # step m of iteration j reads slot j (m = 0) or j + 1
        sources = [[j + (m > 0) for m in range(steps)] for j in range(C)]
        if not dense:
            def resolve_csr(j):
                if steps > 1:
                    np.copyto(W[j + 1], W[j])
                for src in sources[j]:
                    np.multiply((UT[src] @ Kt - (W[src] - Q)) @ K, etas[0], out=T)
                    np.subtract(UT[src], T, UT[j + 1])

            return resolve_csr
        At = per_row[0] if stacked else shared
        if B == 1:  # each slot's [u_tilde | w] is a view of S
            X = list(S.reshape(C + 1, 1, 2 * N))
        else:  # one buffer, refilled from slot src as [u_tilde | w] rows
            X = [np.empty((B, 2 * N))] * (C + 1)
            rows_of, slots = X[0].reshape(B, 2, N), list(S.transpose(0, 2, 1, 3))
        # product(*operands(x, out)): the step product of the rows x into out;
        # one row's np.dot gives it the bits of a stacked block's GEMV (tests pin it)
        if stacked:
            product, operands = np.matmul, lambda x, out: (At, x[..., None], out[..., None])
        elif B == 1:
            product, operands = np.dot, lambda x, out: (At, x[0], out[0])
        else:
            product, operands = np.dot, lambda x, out: (x, At.T, out)
        c = np.empty((B, N))  # -A' [0 | q] as A' [0 | -q], which rounds to its negative
        product(*operands(np.concatenate([np.zeros_like(Q), -Q], axis=1), c))
        plan = [[(src, operands(X[src], T)) for src in srcs] for srcs in sources]

        def resolve(j):
            if steps > 1:
                np.copyto(W[j + 1], W[j])
            for src, args in plan[j]:
                if B > 1:
                    np.copyto(rows_of, slots[src])
                product(*args)
                np.add(T, c, UT[j + 1])

        return resolve

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
    shared block steps with its operator's step_operator(eta) itself, a
    stacked block with a (B, N, 2N) stack of each row's own (16 N^2 bytes a
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
    step is one GEMV of the operator's row-major step operator
    A' = [I - eta K'K | eta K'] with [u_tilde | w], plus c = -A' [0 | q],
    equal in exact arithmetic to u_tilde - eta K'(K u_tilde - (w - q)), with
    a rounding floor near eps sigma_max^2 ||u_tilde||; above it the two CSR
    products. An exact
    line search clipped at the cap would step at the cap too: its step
    ||t||^2/||Kt||^2 >= 1/sigma_max^2 is never below it.
    """
    return drgd_solve_batch([data], cfg, [warm])[0]
