import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_standard, inclusion_of
from drqp.datagen import GenSpec, generate, label_bundle
from drqp.model import project_cone_dual
from drqp.net import init_params
from drqp.report import prepare_data, run_eval
from drqp import model, solvers
from drqp.solvers import (CHUNK, IterateState, SolverConfig, dr_solve, dr_solve_batch,
                          drgd_solve, drgd_solve_batch, step_size_cap,
                          warm_start_from_solution)
from drqp.sparse import Factorization, spmv
from oracles import (dr_operator_apply, drgd_loop, exact_linesearch_step, textbook_loop,
                     wolfe_check)


def fixed_cfg(data, frac=0.5, **kw):
    eta = frac * step_size_cap(data)
    return SolverConfig(fixed_eta=eta, **kw), eta


class TestSolverConfig:
    def test_wolfe_constant_order_enforced(self, tiny_data):
        ut = np.zeros(tiny_data.size)
        with pytest.raises(ValueError):
            wolfe_check(tiny_data, tiny_data.q, ut, ut, 0.0, c1=0.6)
        with pytest.raises(ValueError):
            wolfe_check(tiny_data, tiny_data.q, ut, ut, 0.0, c2=0.4)

    def test_positive_tol(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_fixed_point=0.0)

    def test_steps_per_iter_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(steps_per_iter=0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_positive(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            SolverConfig(max_iter=max_iter)

    @pytest.mark.parametrize("field", ["max_iter", "steps_per_iter"])
    @pytest.mark.parametrize("value", [10.5, 1.5, 2.0, "3", True])
    def test_counts_are_integers(self, field, value):
        # a float count used to pass construction and fail inside range()
        with pytest.raises(ValueError, match=f"{field} must be >= 1 and an integer"):
            SolverConfig(**{field: value})
        assert getattr(SolverConfig(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("field", ["tol_fixed_point", "fixed_eta"])
    def test_bool_is_not_positive(self, field):
        # 0 < True < inf, yet a bool is no tolerance or step size
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolverConfig(**{field: True})

    @pytest.mark.parametrize("eta", [0.0, -0.1, float("nan"), float("inf")])
    def test_fixed_eta_positive_and_finite(self, eta):
        # a zero step stops at once with "converged"; a negative one diverges
        with pytest.raises(ValueError, match="fixed_eta must be positive and finite"):
            SolverConfig(fixed_eta=eta)


class TestDrSolve:
    def test_one_var_qp(self, one_var_data):
        rep = dr_solve(one_var_data, SolverConfig())
        assert rep.status == "converged"
        assert rep.x[0] == pytest.approx(1.0, abs=1e-5)
        assert rep.y[0] == pytest.approx(1.0, abs=1e-5)

    def test_unconstrained(self):
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0], A=np.zeros((0, 2)),
                            b=[], G=np.zeros((0, 2)), h=[],
                            l=np.full(2, -np.inf), u=np.full(2, np.inf))
        rep = dr_solve(inclusion_of(qp))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.x, np.zeros(2), atol=1e-6)

    def test_converged_means_residual_below_tol(self, tiny_data):
        cfg = SolverConfig(record_history=True)
        rep = dr_solve(tiny_data, cfg)
        assert rep.status == "converged"
        assert rep.residual_history[-1] <= cfg.tol_fixed_point

    def test_max_iter_status(self, tiny_data):
        rep = dr_solve(tiny_data, SolverConfig(max_iter=2))
        assert rep.status == "max_iter"
        assert rep.iterations == 2

    def test_quality_at_termination(self, desk_datas):
        cfg = SolverConfig()
        for data in desk_datas[:5]:
            rep = dr_solve(data, cfg)
            assert rep.status == "converged"
            assert rep.metrics.max_viol <= 100 * cfg.tol_fixed_point
            assert rep.metrics.dual_residual_inf <= 100 * cfg.tol_fixed_point


class TestDrgdSolve:
    def test_one_var_qp(self, one_var_data):
        rep = drgd_solve(one_var_data, SolverConfig())
        assert rep.status == "converged"
        assert rep.x[0] == pytest.approx(1.0, abs=1e-4)
        assert rep.y[0] == pytest.approx(1.0, abs=1e-4)

    def test_matches_dr_objective(self, desk_datas):
        for data in desk_datas[:5]:
            a = dr_solve(data, SolverConfig())
            b = drgd_solve(data, SolverConfig())
            assert b.status == "converged"
            assert b.metrics.objective == pytest.approx(a.metrics.objective,
                                                        abs=1e-3)

    def test_multistep_reduces_iterations(self, desk_datas):
        data = desk_datas[0]
        one = drgd_solve(data, SolverConfig(steps_per_iter=1))
        ten = drgd_solve(data, SolverConfig(steps_per_iter=10))
        assert ten.iterations <= one.iterations * 1.02

    def test_step_sizes_respect_cap(self, tiny_data):
        # a solve steps through [I - eta K'K | eta K'] with eta = min(fixed_eta,
        # 0.99 / sigma_max^2), cached on the operator for that eta alone
        op, cap = tiny_data.operator, step_size_cap(tiny_data)
        assert cap == 0.99 / tiny_data.sigma_max ** 2
        K = op.channel_operator[0]
        for fixed, eta in ((None, cap), (0.5 * cap, 0.5 * cap), (4.0 * cap, cap)):
            drgd_solve(tiny_data, SolverConfig(max_iter=5, fixed_eta=fixed))
            assert list(op._step_operators) == [eta]
            assert np.array_equal(op._step_operators[eta], np.concatenate(
                [np.eye(len(K)) - eta * (K.T @ K), eta * K.T], axis=1))

    def test_u_stays_in_cone(self, desk_datas):
        data = desk_datas[1]
        rep = drgd_solve(data, SolverConfig(max_iter=50))
        tail = data.size - data.cone.m_nonneg
        assert np.all(rep.state.u[tail:] >= 0.0)

    def test_w_update_identity(self, tiny_data):
        # one fixed-eta iteration from a random state: w+ - w == u+ - u~+
        rng = np.random.default_rng(0)
        cfg, eta = fixed_cfg(tiny_data, max_iter=1)
        w0 = rng.standard_normal(tiny_data.size)
        ut0 = rng.standard_normal(tiny_data.size)
        warm = IterateState(u_tilde=ut0, u=project_cone_dual(ut0, tiny_data.cone),
                            w=w0)
        rep = drgd_solve(tiny_data, cfg, warm=warm)
        np.testing.assert_array_equal(
            rep.state.w, w0 + (rep.state.u - rep.state.u_tilde))


@pytest.mark.parametrize("solve", [dr_solve, drgd_solve])
@pytest.mark.parametrize("bad", [np.nan, 1e13])
def test_divergence_guard(tiny_data, solve, bad):
    z = np.zeros(tiny_data.size)
    w = z.copy()
    w[0] = bad
    rep = solve(tiny_data, SolverConfig(), warm=IterateState(z, z.copy(), w))
    assert rep.status == "error"
    assert rep.message == "divergent iterate"
    assert rep.iterations == 1


class TestExactLinesearch:
    def test_identity_operator(self):
        qp = build_standard(P=np.zeros((1, 1)), c=[0.0], A=np.zeros((0, 1)),
                            b=[], G=np.zeros((0, 1)), h=[],
                            l=[-np.inf], u=[np.inf])
        data = inclusion_of(qp)  # I + M = I for P=0, no constraints
        assert exact_linesearch_step(np.array([1.0]), data) == pytest.approx(1.0)

    def test_scaled_identity(self):
        qp = build_standard(P=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=[],
                            G=np.zeros((0, 1)), h=[],
                            l=[-np.inf], u=[np.inf])
        data = inclusion_of(qp)  # I + M = diag(2)
        assert exact_linesearch_step(np.array([1.0]), data) == pytest.approx(0.25)

    def test_zero_direction_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            exact_linesearch_step(np.zeros(tiny_data.size), tiny_data)

    def test_minimizes_along_direction(self, tiny_data):
        # 1-D scan oracle: no probe step beats the closed form
        rng = np.random.default_rng(1)
        K = tiny_data.I_plus_M

        def f(ut, rhs):
            r = spmv(K, ut) - rhs
            return 0.5 * (r @ r)

        for _ in range(10):
            ut = rng.standard_normal(tiny_data.size)
            rhs = rng.standard_normal(tiny_data.size)
            t = K._csr_t @ (spmv(K, ut) - rhs)
            star = (t @ t) / (spmv(K, t) @ spmv(K, t))
            best = f(ut - star * t, rhs)
            for eta in rng.uniform(0.0, 3.0 * star, 50):
                assert best <= f(ut - eta * t, rhs) + 1e-12


    @pytest.mark.parametrize("spec", [
        GenSpec(family="qp_rhs", count=3, seed=4, n=12),
        GenSpec(family="qp_perturbed", count=3, seed=4, n=12),
        GenSpec(family="portfolio", count=3, seed=4, k=2),
    ], ids=lambda spec: spec.family)
    def test_never_below_cap(self, spec):
        # why DR-GD's exact line-search mode steps at the cap
        rng = np.random.default_rng(5)
        for data in prepare_data(generate(spec)):
            cap = step_size_cap(data)
            for _ in range(50):
                t = rng.standard_normal(data.size)
                assert exact_linesearch_step(t, data) >= cap


class TestWolfeCheck:
    def _random_pair(self, data, rng):
        w = rng.standard_normal(data.size)
        ut = rng.standard_normal(data.size)
        t = data.I_plus_M._csr_t @ (spmv(data.I_plus_M, ut) - (w - data.q))
        return w, ut, t

    def test_exact_step_passes(self, tiny_data):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w, ut, t = self._random_pair(tiny_data, rng)
            eta = exact_linesearch_step(t, tiny_data)
            res = wolfe_check(tiny_data, w, ut, ut - eta * t, eta)
            assert res.passed

    def test_zero_step_boundary(self, tiny_data):
        # eta = 0: sufficient decrease holds with equality (0 >= 0); the
        # curvature inequality g+.g <= c2 |g|^2 cannot hold at an unchanged
        # iterate with a nonzero gradient, so only the decrease leg is checked
        rng = np.random.default_rng(3)
        w, ut, _ = self._random_pair(tiny_data, rng)
        res = wolfe_check(tiny_data, w, ut, ut, 0.0)
        assert res.sufficient_decrease
        assert res.decrease_lhs == 0.0 and res.decrease_rhs == 0.0

    def test_huge_step_fails_decrease(self, tiny_data):
        rng = np.random.default_rng(4)
        failures = 0
        for _ in range(10):
            w, ut, t = self._random_pair(tiny_data, rng)
            eta = 100.0 * step_size_cap(tiny_data)
            res = wolfe_check(tiny_data, w, ut, ut - eta * t, eta)
            if not res.sufficient_decrease:
                failures += 1
        assert failures == 10


class TestDrOperatorApply:
    def test_matches_one_fixed_iteration(self, tiny_data):
        rng = np.random.default_rng(5)
        cfg, eta = fixed_cfg(tiny_data, max_iter=1)
        for _ in range(50):
            w = rng.standard_normal(tiny_data.size)
            ut = rng.standard_normal(tiny_data.size)
            warm = IterateState(u_tilde=ut,
                                u=project_cone_dual(ut, tiny_data.cone), w=w)
            rep = drgd_solve(tiny_data, cfg, warm=warm)
            oracle = dr_operator_apply(tiny_data, eta, ut, w)
            np.testing.assert_allclose(rep.state.w, oracle, atol=1e-12)

    def test_full_space_hand_expansion(self):
        # no constraints: C is all of R^n, the reflection is the identity,
        # so T(w) = w + Phi(w) - w = Phi(w)
        qp = build_standard(P=np.diag([1.0, 2.0]), c=[0.5, -0.5],
                            A=np.zeros((0, 2)), b=[], G=np.zeros((0, 2)), h=[],
                            l=np.full(2, -np.inf), u=np.full(2, np.inf))
        data = inclusion_of(qp)
        rng = np.random.default_rng(6)
        K = data.I_plus_M.to_dense()
        eta = 0.5 * step_size_cap(data)
        for _ in range(10):
            w = rng.standard_normal(2)
            ut = rng.standard_normal(2)
            phi = ut - eta * K.T @ (K @ ut - (w - data.q))
            np.testing.assert_allclose(dr_operator_apply(data, eta, ut, w),
                                       phi, atol=1e-13)

    def test_eta_zero_substitution(self, tiny_data):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(tiny_data.size)
        ut = rng.standard_normal(tiny_data.size)
        out = dr_operator_apply(tiny_data, 0.0, ut, w)
        expected = w + project_cone_dual(2 * ut - w, tiny_data.cone) - ut
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_nonexpansive_under_cap(self, desk_datas):
        rng = np.random.default_rng(8)
        for data in desk_datas[:3]:
            eta = step_size_cap(data)
            K = data.I_plus_M
            ut = rng.standard_normal(data.size)

            def reflected_phi(w):
                phi = ut - eta * (K._csr_t @ (spmv(K, ut) - (w - data.q)))
                return 2 * phi - w

            for _ in range(30):
                w1 = rng.standard_normal(data.size)
                w2 = rng.standard_normal(data.size)
                lhs = np.linalg.norm(reflected_phi(w1) - reflected_phi(w2))
                assert lhs <= np.linalg.norm(w1 - w2) * (1 + 1e-10)


class TestWarmStart:
    def test_exact_optimum_converges_fast(self, one_var_data):
        warm = warm_start_from_solution(one_var_data, np.array([1.0]),
                                        np.array([1.0]))
        rep = dr_solve(one_var_data, SolverConfig(), warm=warm)
        assert rep.status == "converged"
        assert rep.iterations <= 3

    def test_zero_start_gives_w_equals_q(self, tiny_data):
        n, m = tiny_data.n, tiny_data.m
        warm = warm_start_from_solution(tiny_data, np.zeros(n), np.zeros(m))
        np.testing.assert_allclose(warm.w, tiny_data.q, atol=1e-15)

    def test_first_solve_reproduces_injection(self, tiny_data):
        rng = np.random.default_rng(9)
        u_hat = rng.standard_normal(tiny_data.size)
        warm = warm_start_from_solution(tiny_data, u_hat[:tiny_data.n],
                                        u_hat[tiny_data.n:])
        fac = Factorization(tiny_data.I_plus_M)
        np.testing.assert_allclose(fac.solve(warm.w - tiny_data.q), u_hat,
                                   atol=1e-10)

    def test_warm_reduces_iterations(self, desk_datas):
        data = desk_datas[2]
        cold = dr_solve(data, SolverConfig())
        label = dr_solve(data, SolverConfig(tol_fixed_point=1e-9))
        warm = warm_start_from_solution(data, label.x, label.y)
        rep = dr_solve(data, SolverConfig(), warm=warm)
        assert rep.iterations < cold.iterations


# -- batched solves ------------------------------------------------------------

BATCH_SOLVERS = {"dr": (dr_solve, dr_solve_batch), "drgd": (drgd_solve, drgd_solve_batch)}


def assert_same_report(batched, single, atol=1e-12):
    assert batched.status == single.status
    assert batched.iterations == single.iterations
    assert batched.message == single.message
    for name in ("u_tilde", "u", "w"):
        np.testing.assert_allclose(getattr(batched.state, name),
                                   getattr(single.state, name), rtol=0, atol=atol)
    np.testing.assert_allclose(batched.x, single.x, rtol=0, atol=atol)
    assert (batched.residual_history is None) == (single.residual_history is None)
    if single.residual_history is not None:
        np.testing.assert_allclose(batched.residual_history, single.residual_history,
                                   rtol=0, atol=atol)


def assert_identical(batched, single):
    """Byte for byte: status, iterations, iterates, residual history."""
    assert (batched.status, batched.iterations, batched.message) == (
        single.status, single.iterations, single.message)
    for name in ("u_tilde", "u", "w"):
        assert getattr(batched.state, name).tobytes() == getattr(single.state, name).tobytes()
    got, ref = batched.residual_history, single.residual_history
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.fixture(scope="module")
def distinct_datas():
    """Instances with one operator each: portfolio (N=23) and qp_perturbed
    (N=24) rows, interleaved."""
    pf = prepare_data(generate(GenSpec(family="portfolio", count=3, seed=3, k=1)))
    pt = prepare_data(generate(GenSpec(family="qp_perturbed", count=3, seed=3, n=12)))
    return [pf[0], pt[0], pf[1], pt[1], pf[2], pt[2]]


@pytest.fixture(scope="module")
def rhs_datas():
    return prepare_data(generate(GenSpec(family="qp_rhs", count=6, seed=11, n=16)))


def short_warms(datas):
    """Warm states from three DR iterations; every other row starts cold."""
    return [dr_solve(d, SolverConfig(max_iter=3)).state if i % 2 else None
            for i, d in enumerate(datas)]


def vector_loop(data, cfg, warm=None, gradient=False):
    """The one-instance DR loop the block driver replaced, in the solvers'
    arithmetic, as the reference: (status, iterations, u_tilde, u, w,
    residual history). A DR-GD step is A' [u_tilde | w] + c, one GEMV, with
    A' the operator's row-major step_operator(eta) and c = -A' [0 | q]; the
    w-step is dw = u_tilde - w, max(dw, -u_tilde) on the nonnegative dual
    entries, and the w returned is the last one's w + (u - u_tilde)."""
    N, tail = data.size, data.size - data.cone.m_nonneg
    if gradient:
        cap = step_size_cap(data)
        At = data.operator.step_operator(cap if cfg.fixed_eta is None
                                         else min(cfg.fixed_eta, cap))
        c = -np.dot(At, np.concatenate([np.zeros(N), data.q]))
    z = np.zeros(N)
    ut, u, w = (z.copy(), z.copy(), z.copy()) if warm is None else (
        warm.u_tilde.copy(), warm.u.copy(), warm.w.copy())
    history = []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        if gradient:
            for _ in range(cfg.steps_per_iter):
                ut = np.dot(At, np.concatenate([ut, w])) + c
        else:
            ut = data.operator.factorization.solve(w - data.q)
        u = project_cone_dual(2.0 * ut - w, data.cone)
        w_out = w + (u - ut)
        dw = ut - w
        dw[tail:] = np.maximum(dw[tail:], -ut[tail:])
        w = w + dw
        resid = float(np.sqrt(dw @ dw))
        history.append(resid)
        if not np.isfinite(resid) or not (np.abs(w).max() <= 1e12):
            status, iters = "error", k
            break
        if resid <= cfg.tol_fixed_point:
            status, iters = "converged", k
            break
    return status, iters, ut, u, w_out, history


class TestBatch:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_row_dr_equals_vector_loop(self, rhs_datas, warm):
        # same arithmetic as the replaced loop, so bit for bit, with and
        # without the history (a one-row iteration records nothing without it)
        warms = short_warms(rhs_datas) if warm else [None] * len(rhs_datas)
        for record_history in (True, False):
            cfg = SolverConfig(record_history=record_history)
            for data, w in zip(rhs_datas, warms):
                rep = dr_solve(data, cfg, warm=w)
                status, iters, ut, u, wv, history = vector_loop(data, cfg, w)
                assert (rep.status, rep.iterations) == (status, iters)
                for got, ref in zip((rep.state.u_tilde, rep.state.u, rep.state.w),
                                    (ut, u, wv)):
                    assert got.tobytes() == ref.tobytes()
                assert rep.residual_history == (history if record_history else None)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_one_row_drgd_near_vector_loop(self, rhs_datas, steps):
        # dense products in place of spmv change only the rounding
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        for data in rhs_datas:
            rep = drgd_solve(data, cfg)
            status, iters, ut, u, w, history = textbook_loop(data, cfg, gradient=True)
            assert (rep.status, rep.iterations) == (status, iters)
            np.testing.assert_allclose(rep.state.w, w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rep.residual_history, history, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 3, 10])
    @pytest.mark.parametrize("mode", ["exact", "fixed", "capped"])
    def test_one_row_drgd_product_near_vector_loop(self, distinct_datas, steps, mode):
        # one product [u_tilde | w] [I - eta K'K; eta K] + c per step, in
        # place of u_tilde - eta (K u_tilde - r)' K, changes only the rounding
        for data in distinct_datas:
            cap = step_size_cap(data)
            fixed = {"exact": {}, "fixed": dict(fixed_eta=0.5 * cap),
                     "capped": dict(fixed_eta=4.0 * cap)}[mode]
            cfg = SolverConfig(steps_per_iter=steps, record_history=True, **fixed)
            rep = drgd_solve(data, cfg)
            status, iters, ut, u, w, _ = textbook_loop(data, cfg, gradient=True)
            assert (rep.status, rep.iterations) == (status, iters)
            for got, ref in zip((rep.state.u_tilde, rep.state.u, rep.state.w),
                                (ut, u, w)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("mode", ["exact", "fixed", "capped"])
    def test_rows_match_one_row_solves(self, rhs_datas, solver, warm, steps, mode):
        single, batch = BATCH_SOLVERS[solver]
        cap = step_size_cap(rhs_datas[0])
        fixed = {"exact": {}, "fixed": dict(fixed_eta=0.5 * cap),
                 "capped": dict(fixed_eta=4.0 * cap)}[mode]
        cfg = SolverConfig(steps_per_iter=steps, record_history=True, **fixed)
        warms = short_warms(rhs_datas) if warm else [None] * len(rhs_datas)
        reports = batch(rhs_datas, cfg, warms)
        assert len(reports) == len(rhs_datas)
        for data, w, rep in zip(rhs_datas, warms, reports):
            assert rep.status == "converged"
            assert_same_report(rep, single(data, cfg, warm=w))

    def test_mixed_families_in_input_order(self, monkeypatch):
        calls = []
        factorization = model.Factorization
        monkeypatch.setattr(model, "Factorization",
                            lambda K: calls.append(K) or factorization(K))
        rhs = prepare_data(generate(GenSpec(family="qp_rhs", count=4, seed=2, n=10)))
        pf = prepare_data(generate(GenSpec(family="portfolio", count=2, seed=2, k=1)))
        datas = [rhs[0], pf[0], rhs[1], rhs[2], pf[1], rhs[3]]
        reports = dr_solve_batch(datas, SolverConfig(record_history=True))
        assert len(calls) == 3  # one qp_rhs operator, two portfolio operators
        for data, rep in zip(datas, reports):
            assert_same_report(rep, dr_solve(data, SolverConfig(record_history=True)))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_nan_row_fails_alone(self, rhs_datas, solver):
        single, batch = BATCH_SOLVERS[solver]
        z = np.zeros(rhs_datas[0].size)
        w = z.copy()
        w[3] = np.nan
        warms = [None] * len(rhs_datas)
        warms[2] = IterateState(z, z.copy(), w)
        cfg = SolverConfig(record_history=True)
        reports = batch(rhs_datas, cfg, warms)
        assert reports[2].status == "error"
        assert reports[2].iterations == 1
        assert reports[2].message == "divergent iterate"
        _, _, ut, _, _, _ = vector_loop(rhs_datas[2], cfg, warms[2], gradient=solver == "drgd")
        np.testing.assert_array_equal(reports[2].state.u_tilde, ut)
        for i, (data, rep) in enumerate(zip(rhs_datas, reports)):
            if i != 2:
                assert_same_report(rep, single(data, cfg))

    @pytest.mark.parametrize("steps", [1, 3])
    def test_vanished_gradient_row_takes_no_step(self, rhs_datas, steps):
        # u_tilde = 0 and w = q make the first subproblem solved exactly: its
        # steps land on u_tilde = 0 bit for bit, alone and in the shared block
        z = np.zeros(rhs_datas[0].size)
        warms = [None] * len(rhs_datas)
        warms[1] = IterateState(z, z.copy(), rhs_datas[1].q.copy())
        first = SolverConfig(steps_per_iter=steps, max_iter=1)
        for rep in (drgd_solve(rhs_datas[1], first, warm=warms[1]),
                    drgd_solve_batch(rhs_datas, first, warms)[1]):
            assert rep.state.u_tilde.tobytes() == z.tobytes()
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        reports = drgd_solve_batch(rhs_datas, cfg, warms)
        for data, w, rep in zip(rhs_datas, warms, reports):
            assert_same_report(rep, drgd_solve(data, cfg, warm=w))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_rows_reaching_max_iter(self, rhs_datas, solver):
        single, batch = BATCH_SOLVERS[solver]
        counts = sorted(single(d, SolverConfig()).iterations for d in rhs_datas)
        cfg = SolverConfig(max_iter=counts[len(counts) // 2], record_history=True)
        reports = batch(rhs_datas, cfg)
        assert {r.status for r in reports} == {"converged", "max_iter"}
        for data, rep in zip(rhs_datas, reports):
            one = single(data, cfg)
            if one.status == "max_iter":
                assert rep.status == "max_iter"
                assert rep.iterations == cfg.max_iter
            assert_same_report(rep, one)

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_row_frozen_early_keeps_state(self, rhs_datas, solver):
        # row 1 starts at its solution and stops first; the iterations the
        # other rows take after it must leave its report as it was frozen
        single, batch = BATCH_SOLVERS[solver]
        cfg = SolverConfig(record_history=True)
        warms = [None] * len(rhs_datas)
        warms[1] = single(rhs_datas[1], cfg).state
        reports = batch(rhs_datas, cfg, warms)
        others = [r.iterations for i, r in enumerate(reports) if i != 1]
        assert reports[1].iterations < min(others)
        for data, w, rep in zip(rhs_datas, warms, reports):
            assert_same_report(rep, single(data, cfg, warm=w))
        arrays = [a for r in reports for a in (r.state.u_tilde, r.state.u, r.state.w)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_superlu_resolvent_matches_inverse(self, monkeypatch, warm):
        # above Factorization._DENSE_LIMIT the DR loop solves through SuperLU;
        # one-row and batched solves there must match the dense-inverse run
        from drqp.sparse import Factorization
        bundle = generate(GenSpec(family="qp_rhs", count=4, seed=11, n=16))
        dense = prepare_data(bundle)
        assert dense[0].operator.factorization.inverse is not None  # factorized here, lazily
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
        lu = prepare_data(bundle)
        assert lu[0].operator.factorization.inverse is None
        cfg = SolverConfig(record_history=True)
        warms = short_warms(dense) if warm else [None] * len(dense)
        batched = dr_solve_batch(lu, cfg, warms)
        for d, l, w, rep in zip(dense, lu, warms, batched):
            ref = dr_solve(d, cfg, warm=w)
            assert_same_report(dr_solve(l, cfg, warm=w), ref)
            assert_same_report(rep, ref)

    def test_warms_length_checked(self, rhs_datas):
        with pytest.raises(ValueError):
            dr_solve_batch(rhs_datas, SolverConfig(), [None])

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("mode", ["exact", "fixed", "capped", "mixed"])
    def test_stacked_rows_identical_to_one_row_solves(self, distinct_datas, solver,
                                                      warm, steps, mode):
        # every row has its own dense operator: portfolio rows form one
        # stacked block and qp_perturbed rows another, each row bit for bit
        # its one-row solve; "mixed" caps some rows' fixed step and not others
        single, batch = BATCH_SOLVERS[solver]
        caps = sorted(step_size_cap(d) for d in distinct_datas)
        fixed = {"exact": {}, "fixed": dict(fixed_eta=0.5 * caps[0]),
                 "capped": dict(fixed_eta=4.0 * caps[-1]),
                 "mixed": dict(fixed_eta=caps[len(caps) // 2])}[mode]
        warms = short_warms(distinct_datas) if warm else [None] * len(distinct_datas)
        for record_history in (True, False):
            cfg = SolverConfig(steps_per_iter=steps, record_history=record_history, **fixed)
            reports = batch(distinct_datas, cfg, warms)
            assert len(reports) == len(distinct_datas)
            for data, w, rep in zip(distinct_datas, warms, reports):
                assert rep.status == "converged"
                assert_identical(rep, single(data, cfg, warm=w))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_huge_finite_row_ends_in_error(self, distinct_datas, solver):
        # a warm start at 1e200 overflows the residual to inf; under the
        # suite's RuntimeWarning-as-error filter it must end in "error",
        # alone and as a stacked row beside a normal row, whose report stays
        # its one-row report byte for byte
        single, batch = BATCH_SOLVERS[solver]
        datas = distinct_datas[0::2][:2]  # two portfolio rows, one stacked block
        huge = warm_start_from_solution(datas[0], np.full(datas[0].n, 1e200),
                                        np.full(datas[0].m, 1e200))
        cfg = SolverConfig(record_history=True)
        reports = batch(datas, cfg, [huge, None])
        for rep in (single(datas[0], cfg, warm=huge), reports[0]):
            assert (rep.status, rep.iterations, rep.message) == (
                "error", 1, "divergent iterate")
        assert_identical(reports[1], single(datas[1], cfg))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_stacked_nan_row_fails_alone(self, distinct_datas, solver):
        single, batch = BATCH_SOLVERS[solver]
        z = np.zeros(distinct_datas[2].size)
        w = z.copy()
        w[3] = np.nan
        warms = [None] * len(distinct_datas)
        warms[2] = IterateState(z, z.copy(), w)
        for record_history in (True, False):
            cfg = SolverConfig(record_history=record_history)
            reports = batch(distinct_datas, cfg, warms)
            assert (reports[2].status, reports[2].iterations, reports[2].message) == (
                "error", 1, "divergent iterate")
            for data, w, rep in zip(distinct_datas, warms, reports):
                assert_identical(rep, single(data, cfg, warm=w))

    @pytest.mark.parametrize("record_history", [True, False], ids=["history", "no-history"])
    def test_one_row_drgd_from_nan_state(self, distinct_datas, record_history):
        # a NaN in w makes the step's product NaN, and the residual ends the
        # row in "error" at its first iteration, with the eager loop's u_tilde
        data = distinct_datas[2]
        z = np.zeros(data.size)
        w = z.copy()
        w[3] = np.nan
        cfg = SolverConfig(record_history=record_history)
        rep = drgd_solve(data, cfg, warm=IterateState(z, z.copy(), w))
        assert (rep.status, rep.iterations, rep.message) == ("error", 1, "divergent iterate")
        assert np.isnan(rep.state.u_tilde).any()
        np.testing.assert_array_equal(rep.state.u_tilde,
                                      drgd_loop(data, cfg, IterateState(z, z.copy(), w))[2])
        if record_history:
            assert len(rep.residual_history) == 1 and math.isnan(rep.residual_history[0])

    @pytest.mark.parametrize("steps", [1, 3])
    def test_stacked_vanished_gradient_row(self, distinct_datas, steps):
        z = np.zeros(distinct_datas[0].size)
        warms = [None] * len(distinct_datas)
        warms[2] = IterateState(z, z.copy(), distinct_datas[2].q.copy())
        first = SolverConfig(steps_per_iter=steps, max_iter=1)
        assert drgd_solve_batch(distinct_datas, first, warms)[2].state.u_tilde.tobytes() \
            == z.tobytes()
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        reports = drgd_solve_batch(distinct_datas, cfg, warms)
        for data, w, rep in zip(distinct_datas, warms, reports):
            assert_identical(rep, drgd_solve(data, cfg, warm=w))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_stacked_rows_reaching_max_iter(self, distinct_datas, solver):
        # rows leave the stacks as they converge, the rest at max_iter
        single, batch = BATCH_SOLVERS[solver]
        counts = sorted(single(d, SolverConfig()).iterations for d in distinct_datas)
        cfg = SolverConfig(max_iter=counts[len(counts) // 2], record_history=True)
        reports = batch(distinct_datas, cfg)
        assert {r.status for r in reports} == {"converged", "max_iter"}
        for data, rep in zip(distinct_datas, reports):
            assert_identical(rep, single(data, cfg))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_mixed_blocks_in_input_order(self, monkeypatch, solver):
        # shared-operator rows, stacked singleton rows, a SuperLU (and sparse
        # channel pair) singleton and a row of another size and cone
        single, batch = BATCH_SOLVERS[solver]
        calls = []
        factorization = model.Factorization
        monkeypatch.setattr(model, "Factorization",
                            lambda K: calls.append(K) or factorization(K))
        rhs = prepare_data(generate(GenSpec(family="qp_rhs", count=3, seed=2, n=10)))
        pf = prepare_data(generate(GenSpec(family="portfolio", count=4, seed=2, k=1)))
        other = prepare_data(generate(GenSpec(family="qp_perturbed", count=1, seed=2, n=8)))
        with monkeypatch.context() as m:
            m.setattr(Factorization, "_DENSE_LIMIT", 0)
            m.setattr(model, "_DENSE_LIMIT", 0)
            assert pf[3].operator.factorization.kind == "superlu"
            assert not isinstance(pf[3].operator.channel_operator[0], np.ndarray)
        datas = [pf[0], rhs[0], pf[3], other[0], pf[1], rhs[1], pf[2], rhs[2]]
        cfg = SolverConfig(record_history=True)
        reports = batch(datas, cfg)
        if solver == "dr":
            assert len(calls) == 6  # one per distinct operator
        for data, rep in zip(datas, reports):
            if data in rhs:
                assert_same_report(rep, single(data, cfg))
            else:
                assert_identical(rep, single(data, cfg))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_stack_byte_budget_splits_blocks(self, monkeypatch, distinct_datas, solver):
        # a stacked row holds 8 N^2 bytes for DR (its inverse) and 16 N^2 for
        # DR-GD (its [K'K; -K])
        single, batch = BATCH_SOLVERS[solver]
        row_bytes = {"dr": 8, "drgd": 16}[solver]
        cfg = SolverConfig(record_history=True, max_iter=300)
        whole = batch(distinct_datas, cfg)
        sizes = []
        iterate = solvers._iterate
        monkeypatch.setattr(solvers, "_iterate",
                            lambda datas, *a: sizes.append(len(datas)) or iterate(datas, *a))
        # room for two rows of the larger size: blocks of 2 and 1 per family
        N = max(d.size for d in distinct_datas)
        monkeypatch.setattr(solvers, "_STACK_BYTES", 2 * row_bytes * N * N)
        split = batch(distinct_datas, cfg)
        assert sorted(sizes) == [1, 1, 2, 2]
        for a, b in zip(split, whole):
            assert_identical(a, b)
        if solver == "drgd":  # DR's room for two rows holds one DR-GD row
            sizes.clear()
            monkeypatch.setattr(solvers, "_STACK_BYTES", 2 * 8 * N * N)
            for a, b in zip(batch(distinct_datas, cfg), whole):
                assert_identical(a, b)
            assert sizes == [1] * len(distinct_datas)


# -- chunked stop tests against loops that test after every iteration --------

def assert_is_loop(rep, loop, record_history):
    """rep equals an eager loop's (status, iterations, u_tilde, u, w,
    history) byte for byte."""
    status, iters, ut, u, w, history = loop
    assert (rep.status, rep.iterations) == (status, iters)
    assert rep.message == ("divergent iterate" if status == "error" else "")
    for got, ref in zip((rep.state.u_tilde, rep.state.u, rep.state.w), (ut, u, w)):
        assert got.tobytes() == ref.tobytes()
    assert (rep.residual_history is None) == (not record_history)
    if record_history:  # bytes, so that a NaN residual compares too
        assert np.array(rep.residual_history).tobytes() == np.array(history).tobytes()


def infeasible_data(gap=5e10):
    """min x^2 / 2 s.t. x >= gap and x <= -gap: w grows by about 2 gap an
    iteration, so DR and DR-GD end in "error" part-way through a chunk."""
    return inclusion_of(build_standard(P=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=[],
                                       G=[[-1.0], [1.0]], h=[-gap, -gap],
                                       l=[-np.inf], u=[np.inf]))


class TestChunks:
    @pytest.mark.parametrize("max_iter", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 200_000])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("record_history", [True, False], ids=["history", "no-history"])
    def test_one_row_solves_equal_eager_loops(self, distinct_datas, rhs_datas, max_iter,
                                              steps, record_history):
        cfg = SolverConfig(max_iter=max_iter, steps_per_iter=steps,
                           record_history=record_history)
        for data in distinct_datas[:2] + rhs_datas[:1]:
            assert_is_loop(drgd_solve(data, cfg), drgd_loop(data, cfg), record_history)
            assert_is_loop(dr_solve(data, cfg), vector_loop(data, cfg), record_history)

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    @pytest.mark.parametrize("at", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_stop_at_chunk_edges(self, distinct_datas, solver, at):
        # a tol equal to the residual of iteration `at`, below every earlier
        # one, stops the solve there: the first chunk's last iteration, the
        # one before it and the first of the next chunk
        single, _ = BATCH_SOLVERS[solver]
        data = distinct_datas[1]
        history = single(data, SolverConfig(max_iter=at, record_history=True)).residual_history
        assert history[at - 1] < min(history[:at - 1])
        cfg = SolverConfig(tol_fixed_point=history[at - 1], record_history=True)
        rep = single(data, cfg)
        assert (rep.status, rep.iterations) == ("converged", at)
        loop = drgd_loop(data, cfg) if solver == "drgd" else vector_loop(data, cfg)
        assert_is_loop(rep, loop, True)

    @pytest.mark.parametrize("warm", [0.0, 6e11], ids=["cold", "huge-warm"])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_divergence_mid_chunk(self, warm, steps):
        # w grows past the limit at an iteration that is not a chunk's last:
        # the row ends in "error" there, byte for byte the eager loop's
        data = infeasible_data()
        z = np.zeros(data.size)
        start = IterateState(z, z.copy(), np.full(data.size, warm))
        for record_history in (True, False):
            cfg = SolverConfig(steps_per_iter=steps, record_history=record_history)
            dr, gd = dr_solve(data, cfg, warm=start), drgd_solve(data, cfg, warm=start)
            for rep in (dr, gd):
                assert rep.status == "error" and rep.iterations % CHUNK not in (0, 1)
            assert_is_loop(dr, vector_loop(data, cfg, start), record_history)
            assert_is_loop(gd, drgd_loop(data, cfg, start), record_history)

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("record_history", [True, False], ids=["history", "no-history"])
    def test_stacked_rows_equal_eager_loop(self, distinct_datas, steps, record_history):
        # a stacked block holding a row whose first gradient vanishes and a
        # NaN warm row; every row is the eager loop's, byte for byte
        z = np.zeros(distinct_datas[0].size)
        w = z.copy()
        w[3] = np.nan
        warms = [None] * len(distinct_datas)
        warms[2] = IterateState(z, z.copy(), distinct_datas[2].q.copy())
        warms[4] = IterateState(z, z.copy(), w)
        cfg = SolverConfig(steps_per_iter=steps, record_history=record_history)
        reports = drgd_solve_batch(distinct_datas, cfg, warms)
        assert reports[4].status == "error"
        for data, start, rep in zip(distinct_datas, warms, reports):
            assert_is_loop(rep, drgd_loop(data, cfg, start), record_history)


@pytest.mark.parametrize("solver, steps", [("dr", 1), ("drgd", 1), ("drgd", 3)])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("block", ["one-row", "shared", "stacked"])
def test_solves_near_textbook_loop(rhs_datas, distinct_datas, solver, steps, warm, block):
    # the four-call w-step, the affine DR-GD step and the chunked stop test
    # change only the rounding of u = Pi(2 u_tilde - w), dw = u - u_tilde,
    # u_tilde -= eta K'(K u_tilde - (w - q)): one row, a block sharing its
    # operator, a stacked block of operators of their own
    single, batch = BATCH_SOLVERS[solver]
    datas = distinct_datas if block == "stacked" else rhs_datas
    warms = short_warms(datas) if warm else [None] * len(datas)
    cfg = SolverConfig(steps_per_iter=steps, record_history=True)
    reports = ([single(d, cfg, warm=w) for d, w in zip(datas, warms)] if block == "one-row"
               else batch(datas, cfg, warms))
    for data, w, rep in zip(datas, warms, reports):
        status, iters, *ref = textbook_loop(data, cfg, w, gradient=solver == "drgd")
        assert (rep.status, rep.iterations) == (status, iters) == ("converged", iters)
        got = (rep.state.u_tilde, rep.state.u, rep.state.w, rep.residual_history)
        for a, b in zip(got, ref):
            assert np.max(np.abs(np.subtract(a, b))) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("dense_limit", [1024, 0], ids=["inverse", "superlu"])
def test_solved_instance_copies(monkeypatch, dense_limit):
    # a solved instance holds its operator's factorization; a deep copy and a
    # pickle round trip of it solve exactly as the original does
    monkeypatch.setattr(Factorization, "_DENSE_LIMIT", dense_limit)
    data = prepare_data(generate(GenSpec(family="qp_rhs", count=1, seed=4, n=10)))[0]
    cfg = SolverConfig(record_history=True)
    ref = dr_solve(data, cfg)
    assert data.operator.factorization.kind == ("dense-inverse" if dense_limit else "superlu")
    B = np.random.default_rng(0).standard_normal((3, data.size))
    for other in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert other.operator.factorization is not data.operator.factorization
        assert other.operator.factorization.kind == data.operator.factorization.kind
        np.testing.assert_array_equal(other.operator.factorization.solve(B),
                                      data.operator.factorization.solve(B))
        assert_same_report(dr_solve(other, cfg), ref, atol=0)


def test_drgd_sparse_channel_pair_matches_dense(monkeypatch):
    # above model._DENSE_LIMIT DR-GD steps on the CSR pair instead of dense I+M;
    # a fixed step below both caps keeps the comparison free of sigma_max
    spec = GenSpec(family="qp_rhs", count=3, seed=5, n=12)
    dense = prepare_data(generate(spec))  # one shared operator
    assert isinstance(dense[0].operator.channel_operator[0], np.ndarray)
    cfg = SolverConfig(fixed_eta=0.5 * step_size_cap(dense[0]),
                       steps_per_iter=2, record_history=True)
    monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
    sparse = prepare_data(generate(spec))
    assert not isinstance(sparse[0].operator.channel_operator[0], np.ndarray)
    for d, s in zip(dense, sparse):
        assert_same_report(drgd_solve(s, cfg), drgd_solve(d, cfg))
    for d, s in zip(drgd_solve_batch(dense, cfg), drgd_solve_batch(sparse, cfg)):
        assert_same_report(s, d)


def test_gradient_operator_one_scaled_copy(monkeypatch):
    # a DR-GD solve leaves its operator one step operator [I - eta K'K | eta K'],
    # for the last eta it stepped at; DR-only stages (label, eval) never ask
    # for it, nor does the CSR pair
    asked = []
    step_operator = model.Operator.step_operator
    monkeypatch.setattr(model.Operator, "step_operator",
                        lambda op, eta, out=None: asked.append(op)
                        or step_operator(op, eta, out))
    bundle = generate(GenSpec(family="portfolio", count=2, seed=4, k=1))
    datas = prepare_data(bundle)
    label_bundle(bundle)
    run_eval(datas, None, init_params(1, 2), SolverConfig(max_iter=50))
    dr_solve_batch(datas, SolverConfig(max_iter=50))
    assert asked == []
    op, cfg = datas[0].operator, SolverConfig(max_iter=50, record_history=True)

    def assert_holds(eta):  # one (N, 2N) array, [I - eta K'K | eta K'] bit for bit
        K = op.channel_operator[0]
        assert list(op._step_operators) == [eta]
        At = op._step_operators[eta]
        assert At.shape == (len(K), 2 * len(K))
        assert np.array_equal(At, np.concatenate(
            [np.eye(len(K)) - eta * (K.T @ K), eta * K.T], axis=1))

    drgd_solve(datas[0], cfg)
    assert_holds(step_size_cap(datas[0]))
    # another step size replaces the array; the solve equals a fresh operator's
    fixed = replace(cfg, fixed_eta=0.5 * step_size_cap(datas[0]))
    assert_identical(drgd_solve(datas[0], fixed), drgd_solve(prepare_data(bundle)[0], fixed))
    assert_holds(fixed.fixed_eta)
    drgd_solve_batch(datas, cfg)
    assert asked[-2:] == [d.operator for d in datas]
    asked.clear()
    monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
    drgd_solve_batch(prepare_data(bundle), cfg)
    assert asked == []


def test_step_operators_are_row_major(monkeypatch, rhs_datas, distinct_datas):
    # the cached step operator of a shared block, and each slice a stacked
    # block writes with out=, is the C-contiguous (N, 2N) [I - eta K'K | eta K'],
    # bit for bit, the operand of one row-major GEMV per row; the cached one
    # starts on a 64-byte boundary, as the GEMV reads it fastest
    written = []
    step_operator = model.Operator.step_operator
    monkeypatch.setattr(model.Operator, "step_operator",
                        lambda op, eta, out=None: written.append((op, eta, out))
                        or step_operator(op, eta, out))
    cfg = SolverConfig(max_iter=20)
    drgd_solve_batch(rhs_datas, cfg)
    drgd_solve_batch(distinct_datas, cfg)
    outs = [(op, eta, out) for op, eta, out in written if out is not None]
    assert [op for op, _, _ in outs] == [d.operator for d in distinct_datas[::2]
                                         + distinct_datas[1::2]]
    op = rhs_datas[0].operator
    cached = [(op, eta, At) for eta, At in op._step_operators.items()]
    assert [eta for _, eta, _ in cached] == [step_size_cap(rhs_datas[0])]
    assert cached[0][2].ctypes.data % 64 == 0
    for op, eta, At in cached + outs:
        K, N = op.channel_operator[0], op.size
        assert At.shape == (N, 2 * N) and At.flags.c_contiguous
        assert np.array_equal(At, np.concatenate(
            [np.eye(N) - eta * (K.T @ K), eta * K.T], axis=1))


def test_one_row_dense_dr_binds_its_inverse(monkeypatch, rhs_datas, distinct_datas):
    # one row with a dense inverse steps by np.dot on the C-ordered inverse
    # (64-byte aligned), bound once per block, and so does each row of a
    # stacked block: no Factorization.solve call per iteration; a shared
    # block and SuperLU still solve through it
    inverse = rhs_datas[0].operator.factorization.inverse
    assert inverse.flags.c_contiguous and inverse.ctypes.data % 64 == 0
    calls = []
    solve = Factorization.solve
    monkeypatch.setattr(Factorization, "solve",
                        lambda fac, b, out=None: calls.append(len(b)) or solve(fac, b, out))
    cfg = SolverConfig(max_iter=40)
    for data in (rhs_datas[0], distinct_datas[0], distinct_datas[1]):
        assert dr_solve(data, cfg).iterations > 1
    dr_solve_batch(distinct_datas, cfg)
    assert calls == []
    dr_solve_batch(rhs_datas, cfg)
    assert calls and calls[0] == len(rhs_datas)
    calls.clear()
    monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
    data = prepare_data(generate(GenSpec(family="qp_rhs", count=1, seed=11, n=16)))[0]
    assert data.operator.factorization.kind == "superlu"
    assert 1 < dr_solve(data, cfg).iterations <= len(calls)


def test_drgd_solve_peak_memory():
    # with K and sigma_max cached, a DR-GD solve holds one (2N, N) array:
    # its operator's eta [K'K; -K], built without temporaries (16 N^2 bytes);
    # 20 N^2 leaves room for the block's vectors but not for a second copy
    data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=6, k=20)))[0]
    data.operator.channel_operator, data.operator.sigma_max
    N = data.size
    tracemalloc.start()
    try:
        drgd_solve(data, SolverConfig(max_iter=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * N * N <= peak < 20 * N * N


def test_drgd_slots_do_not_grow_with_max_iter():
    # a solve keeps CHUNK + 1 slots of [u_tilde | w], CHUNK rows of dW and
    # of T and one U: 2,000 iterations peak where 20 do, up to those slots
    data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=6, k=20)))[0]
    drgd_solve(data, SolverConfig(max_iter=1))  # builds K, sigma_max and eta [K'K; -K]
    peaks = {}
    for max_iter in (20, 2000):
        tracemalloc.start()
        try:
            assert drgd_solve(data, SolverConfig(max_iter=max_iter)).iterations == max_iter
            peaks[max_iter] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= peaks[20] + CHUNK * 5 * data.size * 8


def test_stacked_drgd_holds_each_operator_once():
    # a stacked block used to hold each row's eta [K'K; -K] twice, cached on
    # its operator and copied into the (B, 2N, N) stack: 32.7 N^2 bytes a row
    # at the peak, and 16.4 N^2 a row still held by the operators afterwards
    datas = prepare_data(generate(GenSpec(family="portfolio", count=4, seed=6, k=10)))
    for data in datas:
        data.operator.channel_operator, data.operator.sigma_max
    N, B = datas[0].size, len(datas)
    tracemalloc.start()
    try:
        reports = drgd_solve_batch(datas, SolverConfig(max_iter=20))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * N * N * B
    assert held < N * N * B
    for data, rep in zip(datas, reports):
        one = drgd_solve(data, SolverConfig(max_iter=20))
        np.testing.assert_array_equal(rep.state.u_tilde, one.state.u_tilde)
        np.testing.assert_array_equal(rep.state.w, one.state.w)
