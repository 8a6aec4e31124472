"""Independent references that tests check the solvers against: the exact
line-search step, the Wolfe conditions, the DR-GD operator composition, an
eager one-instance DR and DR-GD loop and the textbook DR and DR-GD loops.

No solver calls them; each is written from its definition, with the
operator's CSR product and its cached transpose, or, for eager_loop, with the
arithmetic dr_solve and drgd_solve must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from drqp.model import MonotoneData, project_cone_dual
from drqp.solvers import SAFEGUARD_RHO, SolverConfig, step_size_cap
from drqp.sparse import spmv


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


def step_and_scale(data: MonotoneData, cfg: SolverConfig) -> tuple:
    """(eta, alpha) of a DR-GD solve: at the default step, the cap
    SAFEGUARD_RHO / sigma_max(I + alpha M)^2 of the operator's scaled
    operator, on the inclusion scaled by its resolvent_scale alpha; with
    cfg.fixed_eta, min(fixed_eta, step_size_cap) on I+M itself, alpha = 1."""
    if cfg.fixed_eta is None:
        op = data.operator
        return SAFEGUARD_RHO / op.scaled.sigma_max ** 2, op.resolvent_scale
    return min(cfg.fixed_eta, step_size_cap(data)), 1.0


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

    DR's u_tilde is Factorization.solve(w - q). DR-GD runs on the inclusion
    scaled by alpha of step_and_scale: a warm w enters as (1 - alpha)
    u_tilde + alpha w, and a step is u_tilde' = A' [u_tilde | w] + c with A'
    the dense row-major step_operator(eta) of the scaled operator (of the
    operator itself at alpha = 1), one GEMV, and c = -A' [0 | alpha q]. Then dw = u - u_tilde as _w_step forms it and
    w += dw. The last iteration's u = Pi(2 u_tilde - w) and w' = w + (u -
    u_tilde) are returned, w' as u_tilde + (w' - u_tilde) / alpha. An
    iteration ends in "error" when its residual is not finite or max|w|
    passes 1e12, in "converged" when the residual is at most alpha tol. At
    alpha = 1 no map runs.
    """
    N, alpha = data.size, 1.0
    if gradient:
        eta, alpha = step_and_scale(data, cfg)
        At = (data.operator.scaled if alpha != 1.0 else data.operator).step_operator(eta)
        c = -np.dot(At, np.concatenate([np.zeros(N), alpha * data.q]))
    z = np.zeros(N)  # neither iterate is written in place
    ut, w = (z, z) if warm is None else (warm.u_tilde.copy(), warm.w.copy())
    tol = alpha * cfg.tol_fixed_point
    if alpha != 1.0:
        w = (1.0 - alpha) * ut + alpha * w
    history = []
    for k in range(1, cfg.max_iter + 1):
        if gradient:
            for _ in range(cfg.steps_per_iter):
                ut = np.dot(At, np.concatenate([ut, w])) + c
        else:
            ut = data.operator.factorization.solve(w - data.q)
        u = project_cone_dual(ut + ut - w, data.cone)
        w_out = w + (u - ut)
        if alpha != 1.0:
            w_out = ut + (w_out - ut) / alpha
        dw = _w_step(ut, w, data)
        w = w + dw
        history.append(math.sqrt(np.dot(dw, dw)))
        status = _stop(history[-1], w, tol)
        if status is not None:
            return status, k, ut, u, w_out, history
    return "max_iter", cfg.max_iter, ut, u, w_out, history


@np.errstate(over="ignore", invalid="ignore")
def textbook_loop(data: MonotoneData, cfg: SolverConfig, warm=None, gradient=False):
    """DR, or DR-GD with gradient, on one instance as the textbook writes it,
    with the stop test of eager_loop after every iteration: (status,
    iterations, u_tilde, u, w, residual history).

    u_tilde solves (I+M) u_tilde = w - q, or takes cfg.steps_per_iter steps
    u_tilde -= eta T, T = K_a'(K_a u_tilde - (w - alpha q)), K_a = (1 - alpha)
    I + alpha (I+M) with (eta, alpha) of step_and_scale, through the CSR
    products; then u = Pi(2 u_tilde - w), dw = u - u_tilde and w += dw. A
    warm w enters as (1 - alpha) u_tilde + alpha w, the stop test is at
    alpha tol, and w leaves as u_tilde + (w - u_tilde) / alpha.
    """
    K = data.I_plus_M
    eta, alpha = step_and_scale(data, cfg) if gradient else (None, 1.0)
    z = np.zeros(data.size)
    ut, w = (z.copy(), z.copy()) if warm is None else (warm.u_tilde.copy(), warm.w.copy())
    if alpha != 1.0:
        w = (1.0 - alpha) * ut + alpha * w
    history = []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        r = w - alpha * data.q
        if gradient:
            for _ in range(cfg.steps_per_iter):
                Kut = (1.0 - alpha) * ut + alpha * spmv(K, ut)
                T = (1.0 - alpha) * (Kut - r) + alpha * (K._csr_t @ (Kut - r))
                ut = ut - eta * T
        else:
            ut = data.operator.factorization.solve(r)
        u = project_cone_dual(2.0 * ut - w, data.cone)
        dw = u - ut
        w = w + dw
        history.append(math.sqrt(dw @ dw))
        status = _stop(history[-1], w, alpha * cfg.tol_fixed_point)
        if status is not None:
            iters = k
            break
    else:
        status = "max_iter"
    return status, iters, ut, u, w if alpha == 1.0 else ut + (w - ut) / alpha, history
