"""Independent references that tests check the solvers against: the exact
line-search step, the Wolfe conditions, the DR-GD operator composition, a
dense Ruiz equilibration, DR's and DR-GD's steps and scales, an eager
one-instance DR and DR-GD loop and the textbook DR and DR-GD loops.

No solver calls them; each is written from its definition, with dense
matrices or the operator's CSR product and its cached transpose, or, for
eager_loop, with the arithmetic dr_solve and drgd_solve must reproduce bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from drqp.model import MonotoneData, project_cone_dual
from drqp.solvers import SAFEGUARD_RHO, SolverConfig, step_size_cap
from drqp.sparse import Factorization, SparseMatrix, spmv


def exact_linesearch_step(t: np.ndarray, data: MonotoneData) -> float:
    """Exact minimizer of f along -t for f(v) = 0.5||(I+M)v - r||^2.

    eta* = ||t||^2 / ||(I+M)t||^2; for this quadratic the exact step
    satisfies both Wolfe conditions (c1 <= 1/2; the new gradient is
    orthogonal to t).
    """
    tt = float(t @ t)
    if tt == 0.0:
        raise ValueError("exact_linesearch_step: t is zero (already converged)")
    Kt = spmv(data.I_plus_M, t)
    return tt / float(Kt @ Kt)


@dataclass(frozen=True)
class WolfeResult:
    sufficient_decrease: bool
    curvature: bool
    decrease_lhs: float
    decrease_rhs: float
    curvature_lhs: float
    curvature_rhs: float

    @property
    def passed(self) -> bool:
        return self.sufficient_decrease and self.curvature


def wolfe_check(data: MonotoneData, w: np.ndarray, u_tilde: np.ndarray,
                u_tilde_next: np.ndarray, eta: float,
                c1: float = 1e-4, c2: float = 0.9) -> WolfeResult:
    """Evaluate both Wolfe conditions for f(v) = 0.5||(I+M)v - (w-q)||^2."""
    if not (0 < c1 < 0.5 < c2 < 1):
        raise ValueError("require 0 < c1 < 1/2 < c2 < 1")
    K = data.I_plus_M
    r = w - data.q

    def grad(v):
        return K._csr_t @ (spmv(K, v) - r)

    def f(v):
        e = spmv(K, v) - r
        return 0.5 * float(e @ e)

    g0 = grad(u_tilde)
    g1 = grad(u_tilde_next)
    gg = float(g0 @ g0)
    dec_lhs = f(u_tilde) - f(u_tilde_next)
    dec_rhs = c1 * eta * gg
    cur_lhs = float(g1 @ g0)
    cur_rhs = c2 * gg
    return WolfeResult(
        sufficient_decrease=bool(dec_lhs >= dec_rhs),
        curvature=bool(cur_lhs <= cur_rhs),
        decrease_lhs=dec_lhs, decrease_rhs=dec_rhs,
        curvature_lhs=cur_lhs, curvature_rhs=cur_rhs,
    )


def dr_operator_apply(data: MonotoneData, eta: float, u_tilde_prev: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """One fixed-step DR-GD w-update via the Cayley/reflection composition.

    T(w) = (1/2) (Id + C(2*Phi - Id)) w with C the Cayley operator of the
    normal cone (C = 2*Pi_C - Id) and Phi the gradient-step map.
    """
    K = data.I_plus_M
    phi = (u_tilde_prev - eta * (K._csr_t @ spmv(K, u_tilde_prev))
           + eta * (K._csr_t @ (w - data.q)))
    refl = 2.0 * phi - w
    cayley = 2.0 * project_cone_dual(refl, data.cone) - refl
    return 0.5 * (w + cayley)


def _w_step(ut: np.ndarray, w: np.ndarray, data: MonotoneData) -> np.ndarray:
    """dw = u - u_tilde for u = Pi(2 u_tilde - w), in the solvers' four
    calls: u_tilde - w, and max(dw, -u_tilde) on the nonnegative dual
    coordinates."""
    dw = ut - w
    dual = dw[..., data.size - data.cone.m_nonneg:]
    np.maximum(dual, -ut[..., data.size - data.cone.m_nonneg:], out=dual)
    return dw


def ruiz(M: np.ndarray, passes: int = 10) -> np.ndarray:
    """s of modified Ruiz equilibration of the dense M: each of the passes
    sets s <- s / sqrt(column maxima of |s_i M_ij s_j|), a zero column's
    maximum taken as 1."""
    absM, s = np.abs(M), np.ones(len(M))
    for _ in range(passes):
        peak = (s[:, None] * absM * s[None, :]).max(axis=0)
        s = s / np.sqrt(np.where(peak > 0.0, peak, 1.0))
    return s


def equilibrates(data: MonotoneData) -> bool:
    """Whether some column of the dense I+M has 2-norm^2 > 2, the gate of
    both solvers' equilibration."""
    K = data.I_plus_M.to_dense()
    return bool((K * K).sum(axis=0).max() > 2.0)


def sms(data: MonotoneData, s: np.ndarray) -> np.ndarray:
    """The dense SMS, S = diag(s)."""
    return s[:, None] * data.operator.M.to_dense() * s[None, :]


def equilibrated(data: MonotoneData, alpha: float, s: np.ndarray) -> np.ndarray:
    """The dense I + alpha SMS, S = diag(s)."""
    return np.eye(data.size) + alpha * sms(data, s)


def dr_scale(data: MonotoneData) -> tuple:
    """(alpha, s, b) of a DR solve, from the dense matrices: where the
    operator equilibrates, s of ruiz(M), alpha the largest column 2-norm of
    SMS and b = alpha min(largest row abs-sum, Frobenius norm) of SMS, a
    bound on ||alpha SMS||; else (1, None, 1)."""
    if not equilibrates(data):
        return 1.0, None, 1.0
    s = ruiz(data.operator.M.to_dense())
    SMS = sms(data, s)
    alpha = math.sqrt((SMS * SMS).sum(axis=0).max())
    return alpha, s, alpha * min(np.abs(SMS).sum(axis=1).max(), np.linalg.norm(SMS, "fro"))


def stop_factor(b: float) -> float:
    """min(1, 2 / (1 + b)): with b >= ||alpha SMS||, a residual of alpha
    min(s) tol times it bounds an exact resolvent's KKT residual by 2 tol."""
    return min(1.0, 2.0 / (1.0 + b))


def step_operator_of(K: np.ndarray, eta: float) -> np.ndarray:
    """[I - eta K'K | eta K'], the DR-GD step operator as its definition
    writes it."""
    Kt = K.T.copy()
    return np.concatenate([np.eye(len(K)) - eta * (Kt @ Kt.T), eta * Kt], axis=1)


def step_and_scale(data: MonotoneData, cfg: SolverConfig) -> tuple:
    """(eta, alpha, s) of a DR-GD solve. At the default step on an operator
    that equilibrates: s of ruiz(M), alpha = (sigma^2 - 1)^(-1/2)
    for sigma = sigma_max(I + SMS) when sigma^2 > 2, else 1, and eta the cap
    SAFEGUARD_RHO / sigma_max(I + alpha SMS)^2, the 2-norms dense. Otherwise
    s is None, alpha 1, and eta the cap on I+M itself, or min(fixed_eta,
    cap) with cfg.fixed_eta. The operator equilibrates as equilibrates()
    says."""
    cap = step_size_cap(data)
    if cfg.fixed_eta is not None:
        return min(cfg.fixed_eta, cap), 1.0, None
    if not equilibrates(data):
        return cap, 1.0, None
    s = ruiz(data.operator.M.to_dense())
    s2 = np.linalg.norm(equilibrated(data, 1.0, s), 2) ** 2
    alpha = 1.0 if s2 <= 2.0 else (s2 - 1.0) ** -0.5
    return SAFEGUARD_RHO / np.linalg.norm(equilibrated(data, alpha, s), 2) ** 2, alpha, s


def _stop(resid: float, w: np.ndarray, tol: float):
    """The status after an iteration with this residual and w, or None."""
    if not math.isfinite(resid) or not (np.abs(w).max() <= 1e12):
        return "error"
    return "converged" if resid <= tol else None


@np.errstate(over="ignore", invalid="ignore")
def eager_loop(data: MonotoneData, cfg: SolverConfig, warm=None, gradient=False):
    """DR, or DR-GD with gradient, on one instance in the arithmetic
    dr_solve and drgd_solve must reproduce bit for bit, with a stop test
    after every iteration: (status, iterations, u_tilde, u, w, residual
    history).

    Both run on v = u / s, the inclusion equilibrated by S = diag(s) and
    scaled by alpha: (eta, alpha, s) of step_and_scale for DR-GD, (alpha,
    s, b) of dr_scale for DR, b = 1 for DR-GD. A warm state enters as
    v_tilde = u_tilde / s and w_v = v_tilde + (alpha s)(w - u_tilde). DR's
    v_tilde is the Factorization of the dense I + alpha SMS solving w_v -
    (alpha s) q; a DR-GD step is v_tilde' = A' [v_tilde | w_v] + c, one
    GEMV, with A' = step_operator_of(I + alpha SMS, eta) and c = -A' [0 |
    (alpha s) q]. Then dw = v - v_tilde as _w_step forms it and w_v += dw.
    The last iteration's v = Pi(2 v_tilde - w_v) and w' = w_v + (v -
    v_tilde) are returned as u_tilde = s v_tilde, u = s v and w = u_tilde +
    (w' - v_tilde) / (alpha s). An iteration ends in "error" when its
    residual is not finite or max|w_v| passes 1e12, in "converged" when the
    residual is at most tol alpha min(s) stop_factor(b). Without s the
    iteration runs on I+M itself, DR with its operator's Factorization,
    DR-GD with I+M's step operator, and no map runs.
    """
    N, q, tol = data.size, data.q, cfg.tol_fixed_point
    if gradient:
        (eta, alpha, s), b = step_and_scale(data, cfg), 1.0
        K = data.I_plus_M.to_dense() if s is None else equilibrated(data, alpha, s)
        At = step_operator_of(K, eta)
    else:
        alpha, s, b = dr_scale(data)
        F = data.operator.factorization if s is None else Factorization(
            SparseMatrix.from_dense(equilibrated(data, alpha, s)))
    if s is not None:
        a_s = alpha * s
        q, tol = a_s * q, tol * (a_s.min() * stop_factor(b))
    if gradient:
        c = -np.dot(At, np.concatenate([np.zeros(N), q]))
    z = np.zeros(N)  # neither iterate is written in place
    ut, w = (z, z) if warm is None else (warm.u_tilde.copy(), warm.w.copy())
    if s is not None:
        ut, w = ut / s, ut / s + a_s * (w - ut)
    history = []
    for k in range(1, cfg.max_iter + 1):
        if gradient:
            for _ in range(cfg.steps_per_iter):
                ut = np.dot(At, np.concatenate([ut, w])) + c
        else:
            ut = F.solve(w - q)
        u = project_cone_dual(ut + ut - w, data.cone)
        out = ut, u, w + (u - ut)
        dw = _w_step(ut, w, data)
        w = w + dw
        history.append(math.sqrt(np.dot(dw, dw)))
        status = _stop(history[-1], w, tol)
        if status is not None:
            break
    else:
        status, k = "max_iter", cfg.max_iter
    return (status, k) + _report_out(out, s, alpha) + (history,)


def _report_out(state: tuple, s, alpha: float) -> tuple:
    """(u_tilde, u, w) of the iterates (v_tilde, v, w_v) on v = u / s:
    u_tilde = s v_tilde, u = s v and w = u_tilde + (w_v - v_tilde) / (alpha
    s); the state itself without s."""
    if s is None:
        return state
    v_tilde, v, w = state
    ut = s * v_tilde
    return ut, s * v, ut + (w - v_tilde) / (alpha * s)


@np.errstate(over="ignore", invalid="ignore")
def textbook_loop(data: MonotoneData, cfg: SolverConfig, warm=None, gradient=False):
    """DR, or DR-GD with gradient, on one instance as the textbook writes it,
    with the stop test of eager_loop after every iteration: (status,
    iterations, u_tilde, u, w, residual history).

    u_tilde solves K u_tilde = w - q, or takes cfg.steps_per_iter steps
    u_tilde -= eta K'(K u_tilde - (w - q)). With s of step_and_scale, or of
    dr_scale for DR, the iteration runs on v = u / s, as eager_loop's does,
    with K = I + alpha SMS and q = (alpha s) q: DR solves with the dense
    K by np.linalg.solve, DR-GD applies it through I+M's CSR pair, Kv = v +
    alpha s ((I+M)(s v) - s v) and K'v = v + alpha s ((I+M)'(s v) - s v).
    Then u = Pi(2 u_tilde - w), dw = u - u_tilde and w += dw. The maps in
    and out and the stop test are eager_loop's. Without s, K = I+M and DR
    solves with its operator's Factorization.
    """
    K = data.I_plus_M
    if gradient:
        (eta, alpha, s), b = step_and_scale(data, cfg), 1.0
    else:
        alpha, s, b = dr_scale(data)
    q, tol = data.q, cfg.tol_fixed_point

    def product(mat, v):
        return mat @ v if s is None else v + alpha * (s * (mat @ (s * v) - s * v))

    z = np.zeros(data.size)
    ut, w = (z.copy(), z.copy()) if warm is None else (warm.u_tilde.copy(), warm.w.copy())
    if s is not None:
        q, tol = alpha * s * q, tol * ((alpha * s).min() * stop_factor(b))
        ut, w = ut / s, ut / s + alpha * s * (w - ut)
    history = []
    for k in range(1, cfg.max_iter + 1):
        r = w - q
        if gradient:
            for _ in range(cfg.steps_per_iter):
                ut = ut - eta * product(K._csr_t, product(K._csr, ut) - r)
        elif s is None:
            ut = data.operator.factorization.solve(r)
        else:
            ut = np.linalg.solve(equilibrated(data, alpha, s), r)
        u = project_cone_dual(2.0 * ut - w, data.cone)
        dw = u - ut
        w = w + dw
        history.append(math.sqrt(dw @ dw))
        status = _stop(history[-1], w, tol)
        if status is not None:
            break
    else:
        status, k = "max_iter", cfg.max_iter
    return (status, k) + _report_out((ut, u, w), s, alpha) + (history,)
