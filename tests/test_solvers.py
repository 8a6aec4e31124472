import copy
import pickle

import numpy as np
import pytest

from conftest import build_standard, inclusion_of
from drqp.datagen import GenSpec, generate
from drqp.model import project_cone_dual
from drqp.report import prepare_data
from drqp import model, solvers
from drqp.solvers import (IterateState, SolverConfig, dr_operator_apply,
                          dr_solve, dr_solve_batch, drgd_solve, drgd_solve_batch,
                          exact_linesearch_step, step_size_cap,
                          warm_start_from_solution, wolfe_check)
from drqp.sparse import Factorization, spmv, spmv_t


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
        cfg = SolverConfig(record_history=True, max_iter=500)
        rep = drgd_solve(tiny_data, cfg)
        cap = step_size_cap(tiny_data)
        assert all(0 < s <= cap + 1e-15 for s in rep.step_sizes)

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
            t = spmv_t(K, spmv(K, ut) - rhs)
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
        t = spmv_t(data.I_plus_M, spmv(data.I_plus_M, ut) - (w - data.q))
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
                phi = ut - eta * spmv_t(K, spmv(K, ut) - (w - data.q))
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
    assert (batched.step_sizes is None) == (single.step_sizes is None)
    if single.step_sizes is not None:
        assert len(batched.step_sizes) == len(single.step_sizes)
        np.testing.assert_allclose(batched.step_sizes, single.step_sizes, rtol=0,
                                   atol=atol)


def assert_identical(batched, single):
    """Byte for byte: status, iterations, iterates, residual history, steps."""
    assert (batched.status, batched.iterations, batched.message) == (
        single.status, single.iterations, single.message)
    for name in ("u_tilde", "u", "w"):
        assert getattr(batched.state, name).tobytes() == getattr(single.state, name).tobytes()
    for name in ("residual_history", "step_sizes"):
        got, ref = getattr(batched, name), getattr(single, name)
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
    """The one-instance DR loop the block driver replaced, as the reference:
    (status, iterations, u_tilde, u, w, residual history, step sizes)."""
    K = data.I_plus_M
    cap = step_size_cap(data)
    eta = cap if cfg.fixed_eta is None else min(cfg.fixed_eta, cap)
    z = np.zeros(data.size)
    ut, u, w = (z.copy(), z.copy(), z.copy()) if warm is None else (
        warm.u_tilde.copy(), warm.u.copy(), warm.w.copy())
    history, steps = [], []
    status, iters = "max_iter", cfg.max_iter
    for k in range(1, cfg.max_iter + 1):
        r = w - data.q
        if gradient:
            for _ in range(cfg.steps_per_iter):
                t = spmv_t(K, spmv(K, ut) - r)
                if not float(t @ t) > 0.0:
                    break
                ut = ut - eta * t
                steps.append(eta)
        else:
            ut = data.operator.factorization.solve(r)
        u = project_cone_dual(2.0 * ut - w, data.cone)
        dw = u - ut
        w = w + dw
        resid = float(np.sqrt(dw @ dw))
        history.append(resid)
        if not np.isfinite(resid) or not (np.abs(w).max() <= 1e12):
            status, iters = "error", k
            break
        if resid <= cfg.tol_fixed_point:
            status, iters = "converged", k
            break
    return status, iters, ut, u, w, history, steps


class TestBatch:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_row_dr_equals_vector_loop(self, rhs_datas, warm):
        # same arithmetic as the replaced loop, so bit for bit
        cfg = SolverConfig(record_history=True)
        warms = short_warms(rhs_datas) if warm else [None] * len(rhs_datas)
        for data, w in zip(rhs_datas, warms):
            rep = dr_solve(data, cfg, warm=w)
            status, iters, ut, u, wv, history, _ = vector_loop(data, cfg, w)
            assert (rep.status, rep.iterations) == (status, iters)
            for got, ref in zip((rep.state.u_tilde, rep.state.u, rep.state.w),
                                (ut, u, wv)):
                assert got.tobytes() == ref.tobytes()
            assert rep.residual_history == history

    @pytest.mark.parametrize("steps", [1, 3])
    def test_one_row_drgd_near_vector_loop(self, rhs_datas, steps):
        # dense products in place of spmv change only the rounding
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        for data in rhs_datas:
            rep = drgd_solve(data, cfg)
            status, iters, ut, u, w, history, step_sizes = vector_loop(
                data, cfg, gradient=True)
            assert (rep.status, rep.iterations) == (status, iters)
            assert rep.step_sizes == step_sizes
            np.testing.assert_allclose(rep.state.w, w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rep.residual_history, history, rtol=0,
                                       atol=1e-12)

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
        # DR-GD takes no step along a non-finite gradient
        _, _, ut, _, _, _, step_sizes = vector_loop(rhs_datas[2], cfg, warms[2],
                                                    gradient=solver == "drgd")
        np.testing.assert_array_equal(reports[2].state.u_tilde, ut)
        if solver == "drgd":
            assert reports[2].step_sizes == step_sizes == []
        for i, (data, rep) in enumerate(zip(rhs_datas, reports)):
            if i != 2:
                assert_same_report(rep, single(data, cfg))

    @pytest.mark.parametrize("steps", [1, 3])
    def test_vanished_gradient_row_takes_no_step(self, rhs_datas, steps):
        # u_tilde = 0 and w = q make the first subproblem solved exactly
        z = np.zeros(rhs_datas[0].size)
        warms = [None] * len(rhs_datas)
        warms[1] = IterateState(z, z.copy(), rhs_datas[1].q.copy())
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        reports = drgd_solve_batch(rhs_datas, cfg, warms)
        one = drgd_solve(rhs_datas[1], cfg, warm=warms[1])
        assert len(one.step_sizes) == steps * (one.iterations - 1)
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
        assert dense[0].operator.factorization._inv is not None  # factorized here, lazily
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
        lu = prepare_data(bundle)
        assert lu[0].operator.factorization._inv is None
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
        cfg = SolverConfig(steps_per_iter=steps, record_history=True, **fixed)
        warms = short_warms(distinct_datas) if warm else [None] * len(distinct_datas)
        reports = batch(distinct_datas, cfg, warms)
        assert len(reports) == len(distinct_datas)
        for data, w, rep in zip(distinct_datas, warms, reports):
            assert rep.status == "converged"
            assert_identical(rep, single(data, cfg, warm=w))

    @pytest.mark.parametrize("solver", BATCH_SOLVERS)
    def test_stacked_nan_row_fails_alone(self, distinct_datas, solver):
        single, batch = BATCH_SOLVERS[solver]
        z = np.zeros(distinct_datas[2].size)
        w = z.copy()
        w[3] = np.nan
        warms = [None] * len(distinct_datas)
        warms[2] = IterateState(z, z.copy(), w)
        cfg = SolverConfig(record_history=True)
        reports = batch(distinct_datas, cfg, warms)
        assert (reports[2].status, reports[2].iterations) == ("error", 1)
        if solver == "drgd":
            assert reports[2].step_sizes == []
        for data, w, rep in zip(distinct_datas, warms, reports):
            assert_identical(rep, single(data, cfg, warm=w))

    @pytest.mark.parametrize("steps", [1, 3])
    def test_stacked_vanished_gradient_row(self, distinct_datas, steps):
        z = np.zeros(distinct_datas[0].size)
        warms = [None] * len(distinct_datas)
        warms[2] = IterateState(z, z.copy(), distinct_datas[2].q.copy())
        cfg = SolverConfig(steps_per_iter=steps, record_history=True)
        reports = drgd_solve_batch(distinct_datas, cfg, warms)
        assert len(reports[2].step_sizes) == steps * (reports[2].iterations - 1)
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
        single, batch = BATCH_SOLVERS[solver]
        cfg = SolverConfig(record_history=True, max_iter=300)
        whole = batch(distinct_datas, cfg)
        sizes = []
        init = solvers._Stack.__init__
        monkeypatch.setattr(solvers._Stack, "__init__",
                            lambda self, *a: sizes.append(len(a[0])) or init(self, *a))
        # room for two operators of the larger size: blocks of 2 and 1 per family
        N = max(d.size for d in distinct_datas)
        monkeypatch.setattr(solvers, "_STACK_BYTES", 2 * 8 * N * N)
        split = batch(distinct_datas, cfg)
        assert set(sizes) == {2}
        for a, b in zip(split, whole):
            assert_identical(a, b)


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
