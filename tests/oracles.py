"""Independent references that tests check the solvers against: the exact
line-search step, the Wolfe conditions, the DR-GD operator composition, an
eager one-instance DR-GD loop and the textbook DR and DR-GD loops.

No solver calls them; each is written from its definition, with the
operator's CSR product and its cached transpose, or, for drgd_loop, with the
arithmetic drgd_solve must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from drqp.model import MonotoneData, project_cone_dual
from drqp.solvers import SolverConfig, step_size_cap
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


def _stop(resid: float, w: np.ndarray, tol: float):
    """The status after an iteration with this residual and w, or None."""
    if not math.isfinite(resid) or not (np.abs(w).max() <= 1e12):
        return "error"
    return "converged" if resid <= tol else None


@np.errstate(over="ignore", invalid="ignore")
def drgd_loop(data: MonotoneData, cfg: SolverConfig, warm=None):
    """DR-GD on one instance with a stop test after every iteration:
    (status, iterations, u_tilde, u, w, residual history).

    A step is u_tilde' = A' [u_tilde | w] + c with A' the operator's dense
    row-major step_operator(eta), one GEMV, and c = -A' [0 | q]; then
    dw = u - u_tilde as _w_step forms it and w += dw. The last iteration's
    u = Pi(2 u_tilde - w) and w + (u - u_tilde) are returned. An iteration
    ends in "error" when its residual is not finite or max|w| passes 1e12,
    in "converged" when the residual is at most tol.
    """
    cap = step_size_cap(data)
    eta = cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
    At, N = data.operator.step_operator(eta), data.size
    c = -np.dot(At, np.concatenate([np.zeros(N), data.q]))
    state = np.zeros((2, 1, N))
    if warm is not None:
        state[:, 0] = warm.u_tilde, warm.w
    x, (ut, w) = state.reshape(2 * N), state  # x = [u_tilde | w], a view
    history = []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        for _ in range(cfg.steps_per_iter):
            ut[0] = np.dot(At, x) + c
        u = project_cone_dual((ut + ut - w)[0], data.cone)
        w_out = w[0] + (u - ut[0])
        dw = _w_step(ut[0], w[0], data)
        w += dw
        history.append(math.sqrt(np.dot(dw, dw)))
        status = _stop(history[-1], w, cfg.tol_fixed_point)
        if status is not None:
            iters = k
            break
    else:
        status = "max_iter"
    return status, iters, ut[0].copy(), u, w_out, history


@np.errstate(over="ignore", invalid="ignore")
def textbook_loop(data: MonotoneData, cfg: SolverConfig, warm=None, gradient=False):
    """DR, or DR-GD with gradient, on one instance as the textbook writes it,
    with the stop test of drgd_loop after every iteration: (status,
    iterations, u_tilde, u, w, residual history).

    u_tilde solves (I+M) u_tilde = w - q, or takes cfg.steps_per_iter steps
    u_tilde -= eta T, T = K'(K u_tilde - (w - q)), through the CSR products;
    then u = Pi(2 u_tilde - w), dw = u - u_tilde and w += dw.
    """
    K = data.I_plus_M
    cap = step_size_cap(data)
    eta = cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
    z = np.zeros(data.size)
    ut, w = (z.copy(), z.copy()) if warm is None else (warm.u_tilde.copy(), warm.w.copy())
    history = []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        r = w - data.q
        if gradient:
            for _ in range(cfg.steps_per_iter):
                ut = ut - eta * (K._csr_t @ (spmv(K, ut) - r))
        else:
            ut = data.operator.factorization.solve(r)
        u = project_cone_dual(2.0 * ut - w, data.cone)
        dw = u - ut
        w = w + dw
        history.append(math.sqrt(dw @ dw))
        status = _stop(history[-1], w, cfg.tol_fixed_point)
        if status is not None:
            iters = k
            break
    else:
        status = "max_iter"
    return status, iters, ut, u, w, history
