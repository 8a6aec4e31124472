"""Douglas-Rachford splitting and its gradient-step variant (DR-GD)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import MonotoneData, QualityMetrics, project_cone_dual, quality
from .sparse import spmv, spmv_t

EXACT_LINE_SEARCH = "exact-line-search"
FIXED_STEP = "fixed"

_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class SolverConfig:
    tol_fixed_point: float = 1e-6
    max_iter: int = 200_000
    step_mode: str = EXACT_LINE_SEARCH
    fixed_eta: Optional[float] = None
    steps_per_iter: int = 1
    safeguard_rho: float = 0.99
    record_history: bool = False

    def __post_init__(self):
        if self.tol_fixed_point <= 0:
            raise ValueError("tol_fixed_point must be positive")
        if not (0 < self.safeguard_rho < 1):
            raise ValueError("safeguard_rho must lie in (0, 1)")
        if self.steps_per_iter < 1:
            raise ValueError("steps_per_iter must be >= 1")
        if self.step_mode not in (EXACT_LINE_SEARCH, FIXED_STEP):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")
        if self.step_mode == FIXED_STEP and self.fixed_eta is None:
            raise ValueError("fixed step mode requires fixed_eta")


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


def step_size_cap(data: MonotoneData, rho: float = 0.99) -> float:
    """Safeguard cap rho / sigma_max(I+M)^2.

    sym(I+M) >= I because P is PSD, so the strong-monotonicity constant is
    at least 1 and the cap keeps the reflected gradient map nonexpansive.
    """
    return rho / data.sigma_max ** 2


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
        return spmv_t(K, spmv(K, v) - r)

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
    normal cone (C = 2*Pi_C - Id) and Phi the gradient-step map. Exists as an
    independent oracle for the solver's iteration.
    """
    K = data.I_plus_M
    phi = (u_tilde_prev - eta * spmv_t(K, spmv(K, u_tilde_prev))
           + eta * spmv_t(K, w - data.q))
    refl = 2.0 * phi - w
    cayley = 2.0 * project_cone_dual(refl, data.cone) - refl
    return 0.5 * (w + cayley)


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


def _init_state(data: MonotoneData, warm: Optional[IterateState]) -> IterateState:
    if warm is not None:
        return IterateState(warm.u_tilde.copy(), warm.u.copy(), warm.w.copy())
    z = np.zeros(data.size)
    return IterateState(z.copy(), z.copy(), z.copy())


def _iterate(data: MonotoneData, cfg: SolverConfig, warm: Optional[IterateState],
             resolvent) -> SolveReport:
    """The DR iteration shared by both solvers.

    resolvent(r, u_tilde) returns the next u_tilde, an exact or approximate
    solution of (I+M) u_tilde = r started from the current one; projection,
    w-update, residual and stopping rules are common.
    """
    st = _init_state(data, warm)
    history = [] if cfg.record_history else None
    status, iters, message = "max_iter", cfg.max_iter, ""
    for k in range(1, cfg.max_iter + 1):
        st.u_tilde = resolvent(st.w - data.q, st.u_tilde)
        st.u = project_cone_dual(2.0 * st.u_tilde - st.w, data.cone)
        dw = st.u - st.u_tilde
        st.w = st.w + dw
        resid = math.sqrt(dw @ dw)
        if history is not None:
            history.append(resid)
        # one reduction: the negated comparison is also true for NaN and inf
        if not math.isfinite(resid) or not (np.abs(st.w).max() <= _DIVERGENCE_LIMIT):
            status, iters, message = "error", k, "divergent iterate"
            break
        if resid <= cfg.tol_fixed_point:
            status, iters = "converged", k
            break
    x = st.u[:data.n]
    y = st.u[data.n:]
    return SolveReport(status=status, iterations=iters, state=st, x=x, y=y,
                       metrics=quality(data.cqp, x, y), residual_history=history,
                       message=message)


def dr_solve(data: MonotoneData, cfg: SolverConfig = SolverConfig(),
             warm: Optional[IterateState] = None) -> SolveReport:
    """Douglas-Rachford splitting with a single reusable factorization of I+M."""
    F = data.factorization
    return _iterate(data, cfg, warm, lambda r, ut: F.solve(r))


def drgd_solve(data: MonotoneData, cfg: SolverConfig = SolverConfig(),
               warm: Optional[IterateState] = None) -> SolveReport:
    """DR splitting with the linear solve replaced by gradient steps.

    Each outer iteration takes cfg.steps_per_iter gradient steps on the
    least-squares subproblem, the step size coming from exact line search or
    a fixed value and clipped at the safeguard cap, then applies the same
    projection and w updates as dr_solve. No factorization is performed.
    The exact line-search step is never below the cap, so that mode steps
    at the cap.
    """
    K = data.I_plus_M
    cap = step_size_cap(data, cfg.safeguard_rho)
    steps = [] if cfg.record_history else None

    def gradient_steps(r, ut):
        for _ in range(cfg.steps_per_iter):
            t = spmv_t(K, spmv(K, ut) - r)
            if not float(t @ t) > 0.0:
                break  # gradient vanished; the subproblem is solved exactly
            if cfg.step_mode == FIXED_STEP:
                eta = min(cfg.fixed_eta, cap)
            else:
                # exact step ||t||^2/||Kt||^2 >= 1/sigma^2 >= rho/sigma_max^2 = cap
                eta = cap
            ut = ut - eta * t
            if steps is not None:
                steps.append(eta)
        return ut

    report = _iterate(data, cfg, warm, gradient_steps)
    report.step_sizes = steps
    return report
