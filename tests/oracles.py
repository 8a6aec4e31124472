"""Independent references that tests check the solvers against: the exact
line-search step, the Wolfe conditions, the DR-GD operator composition and
an eager one-instance DR-GD loop.

No solver calls them; each is written from its definition, with the
operator's CSR product and its cached transpose, or, for the loop, with the
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


@np.errstate(over="ignore", invalid="ignore")
def drgd_loop(data: MonotoneData, cfg: SolverConfig, warm=None):
    """DR-GD on one instance with a stop test after every iteration and a
    gradient test before every step: (status, iterations, u_tilde, u, w,
    residual history, step sizes).

    A step is eta T = [u_tilde | w] (eta G) + eta qK with eta G the
    operator's dense gradient_operator(eta) and eta qK = -[0 | q] (eta G),
    taken only when np.dot(t, t) > 0. An iteration ends in "error" when its
    residual is not finite or max|w| passes 1e12, in "converged" when the
    residual is at most tol.
    """
    cap = step_size_cap(data)
    eta = cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
    G, N = data.operator.gradient_operator(eta), data.size
    qk = -(np.concatenate([np.zeros(N), data.q])[None] @ G)
    state = np.zeros((2, 1, N))
    if warm is not None:
        state[:, 0] = warm.u_tilde, warm.w
    x, (ut, w) = state.reshape(1, 2 * N), state  # x = [u_tilde | w], a view
    history, steps = [], []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        for _ in range(cfg.steps_per_iter):
            t = x @ G + qk
            if np.dot(t[0], t[0]) > 0.0:
                ut -= t
                steps.append(eta)
        u = project_cone_dual((ut + ut - w)[0], data.cone)
        dw = u - ut[0]
        w += dw
        resid = math.sqrt(np.dot(dw, dw))
        history.append(resid)
        if not math.isfinite(resid) or not (np.abs(w).max() <= 1e12):
            status, iters = "error", k
            break
        if resid <= cfg.tol_fixed_point:
            status, iters = "converged", k
            break
    return status, iters, ut[0].copy(), u, w[0].copy(), history, steps
