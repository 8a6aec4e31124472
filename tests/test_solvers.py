import copy
import dataclasses
import hashlib
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from conftest import build_standard, inclusion_of
from drqp.datagen import GenSpec, generate, label_bundle
from drqp.model import project_cone_dual
from drqp.net import init_params
from drqp.report import prepare_data, run_eval
from drqp import model, solvers
from drqp.solvers import (CHUNK, IterateState, SolverConfig, dr_solve, dr_solve_batch,
                          drgd_solve, drgd_solve_batch, step_size_cap,
                          warm_start_from_solution)
from drqp.sparse import Factorization, SparseMatrix, spmv
from oracles import (dr_operator_apply, dr_scale, eager_loop, equilibrated, equilibrates,
                     exact_linesearch_step, ruiz, sms, step_and_scale, step_operator_of,
                     textbook_loop, wolfe_check)


def defined_step_operator(data, cfg):
    """(eta, [I - eta K'K | eta K']) of a DR-GD solve of data under cfg, by
    the definitions: K = I + alpha SMS with (eta, alpha, s) of
    step_and_scale, or I+M itself without s."""
    eta, alpha, s = step_and_scale(data, cfg)
    K = data.I_plus_M.to_dense() if s is None else equilibrated(data, alpha, s)
    return eta, step_operator_of(K, eta)


def forbid_sparse_matrices(m):
    """Make building a SparseMatrix or any scipy sparse matrix raise, through
    the monkeypatch m."""
    def built(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")
    m.setattr(SparseMatrix, "__init__", built)
    m.setattr(scipy.sparse._base._spbase, "__init__", built)


def huge_hessian_probe():
    """qp_rhs (n = 20, seed 0) with P scaled by 1e6: sigma_max(I+M) about 190,262."""
    qp = generate(GenSpec(family="qp_rhs", count=1, seed=0, n=20)).instances[0]
    P = qp.P
    qp = replace(qp, P=SparseMatrix(P.nrows, P.ncols, P.indptr, P.indices, P.values * 1e6))
    return model.assemble_inclusion(model.to_conic(qp))


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
        # a fixed step is min(fixed_eta, 0.99 / sigma_max^2) on I+M itself; the
        # default one 0.99 / sigma_max(I + alpha SMS)^2 on the operator's scaled
        # operator. A solve steps through [I - eta K'K | eta K'], cached for
        # that eta alone on the operator K it steps on
        op, cap = tiny_data.operator, step_size_cap(tiny_data)
        assert cap == 0.99 / tiny_data.sigma_max ** 2
        assert op.equilibration is not None  # sigma_max^2 > 2 here
        scaled_cap = step_size_cap(tiny_data.scaled())
        assert scaled_cap == 0.99 / op.scaled.sigma_max ** 2
        for fixed, on, eta in ((None, op.scaled, scaled_cap), (0.5 * cap, op, 0.5 * cap),
                               (4.0 * cap, op, cap)):
            cfg = SolverConfig(max_iter=5, fixed_eta=fixed)
            defined_eta, At = defined_step_operator(tiny_data, cfg)
            assert defined_eta == eta
            drgd_solve(tiny_data, cfg)
            assert list(on._step_operators) == [eta]
            assert np.array_equal(on._step_operators[eta], At)

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


def kkt_error(rep):
    return max(rep.metrics.max_viol, rep.metrics.dual_residual_inf)


class TestResolventScale:
    """DR-GD's default step on the inclusion equilibrated by S = diag(s) and
    scaled by alpha = (sigma_max(I + SMS)^2 - 1)^(-1/2), where
    sigma_max(I+M)^2 > 2."""

    @pytest.mark.parametrize("spec", [
        GenSpec(family="qp_rhs", count=3, seed=0, n=50),
        GenSpec(family="qp_rhs", count=3, seed=4, n=12),
        GenSpec(family="qp_perturbed", count=3, seed=0, n=30),
        GenSpec(family="qp_perturbed", count=3, seed=4, n=12),
    ], ids=lambda spec: f"{spec.family}-n{spec.n}")
    def test_one_on_the_qp_families(self, spec):
        # sigma_max(I+M) is about 1.21 there: these rows iterate on I+M itself
        for data in prepare_data(generate(spec)):
            assert data.sigma_max ** 2 <= 2.0
            assert data.operator.equilibration is None
            assert data.operator.resolvent_scale == 1.0
            assert data.operator.scaled is data.operator
            assert data.scaled() is data
            assert data.operator.scaled_resolvent is None
            assert data.scaled(resolvent=True) is data

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_portfolio_scale_and_kkt(self, k):
        cfg = SolverConfig()
        for data in prepare_data(generate(GenSpec(family="portfolio", count=3, seed=0, k=k))):
            op, N, M = data.operator, data.size, data.operator.M.to_dense()
            # s is Ruiz on |M| from the CSR arrays, bit for bit the dense one;
            # alpha the resolvent scale of I + SMS
            s, alpha = op.equilibration, op.resolvent_scale
            assert np.array_equal(s, ruiz(M))
            eta, a, _ = step_and_scale(data, cfg)
            assert a == alpha and 0.0 < alpha <= 1.0
            SMS = s[:, None] * M * s[None, :]
            assert np.linalg.norm(alpha * SMS, 2) <= 1.0
            # the scaled operator's I + alpha SMS and alpha SMS are their
            # definitions bit for bit, and it is cached
            scaled = op.scaled
            assert scaled is op.scaled and scaled.n == op.n
            assert np.array_equal(scaled.I_plus_M.to_dense(), equilibrated(data, alpha, s))
            assert np.array_equal(scaled.M.to_dense(), alpha * SMS)
            assert scaled.sigma_max <= 2.0
            assert step_size_cap(data.scaled()) == eta
            # the scaled row: (alpha s) q on the scaled operator, with s and
            # the problem's cqp
            row = data.scaled()
            assert row.operator is scaled and row.scale == alpha and row.diag is s
            assert row.cqp is data.cqp
            assert np.array_equal(row.q, alpha * s * data.q)
            assert row.scaled() is row
            rep = drgd_solve(data, cfg)
            assert rep.status == "converged"
            assert kkt_error(rep) <= (2.0 + data.sigma_max) * cfg.tol_fixed_point
            assert kkt_error(rep) <= 2.0 * cfg.tol_fixed_point

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scale_builds_no_operator(self, monkeypatch, k):
        # sigma_max(I + SMS) is the 2-norm of the dense scatter, with no
        # SparseMatrix or scipy matrix built, and alpha is bit for bit the one
        # of SMS's operator; above model._DENSE_LIMIT that operator's svds gives it
        for data in prepare_data(generate(GenSpec(family="portfolio", count=3, seed=0, k=k))):
            op = data.operator
            with monkeypatch.context() as m:
                forbid_sparse_matrices(m)
                alpha = op.resolvent_scale
            s2 = op._equilibrated(1.0).sigma_max ** 2
            assert alpha == (1.0 if s2 <= 2.0 else (s2 - 1.0) ** -0.5)
            fresh = model.assemble_inclusion(data.cqp).operator
            with monkeypatch.context() as m:
                m.setattr(model, "_DENSE_LIMIT", 0)
                m.setattr(model, "_dense_identity_plus", None)
                assert fresh.resolvent_scale == pytest.approx(alpha, rel=1e-12)

    def test_ruiz_keeps_one_on_a_zero_column(self):
        # a column holding only an explicit zero, and one with no entry, keep s = 1
        M = SparseMatrix.from_triplets(4, 4, np.array([0, 1, 2]), np.array([1, 0, 2]),
                                       np.array([4.0, -4.0, 0.0]))
        op = model.Operator(M, SparseMatrix.from_dense(np.eye(4) + M.to_dense()), 2)
        assert op.sigma_max ** 2 > 2.0
        assert np.array_equal(op.equilibration, ruiz(M.to_dense()))
        assert op.equilibration.tolist() == [0.5, 0.5, 1.0, 1.0]

    @pytest.mark.parametrize("solve", [dr_solve, drgd_solve])
    def test_huge_hessian_probe_converges(self, solve):
        # qp_rhs with P scaled by 1e6 (sigma_max(I+M) about 190,262): on I+M
        # scaled by alpha alone DR-GD, and on I+M itself DR, ended in max_iter
        # at 200,000 iterations with a max violation of 0.033; equilibrated
        # both converge (DR-GD in about 260 iterations, DR in about 340)
        data = huge_hessian_probe()
        assert data.sigma_max > 1e5
        cfg = SolverConfig()
        rep = solve(data, cfg)
        assert rep.status == "converged" and rep.iterations <= 1000
        assert kkt_error(rep) <= 2.0 * cfg.tol_fixed_point

    def test_rows_sharing_an_operator_share_its_scaled_one(self, monkeypatch):
        # two right-hand sides on one portfolio operator: their scaled rows
        # share one scaled operator, so they iterate as one shared block
        cqp = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=0, k=2)))[0].cqp
        operators = {}
        datas = [model.assemble_inclusion(c, operators) for c in (cqp, replace(cqp, c=-cqp.c))]
        assert datas[0].operator is datas[1].operator
        assert datas[0].scaled().operator is datas[1].scaled().operator is datas[0].operator.scaled
        sizes = []
        iterate = solvers._iterate
        monkeypatch.setattr(solvers, "_iterate",
                            lambda group, *a: sizes.append(len(group)) or iterate(group, *a))
        cfg = SolverConfig(record_history=True)
        reports = drgd_solve_batch(datas, cfg)
        assert sizes == [2]
        for data, rep in zip(datas, reports):
            assert rep.status == "converged"
            assert_same_report(rep, drgd_solve(data, cfg))

    def test_restart_continues_the_iteration(self):
        # k iterations, then k more from the report's state, are 2k iterations:
        # a report's state leaves in I+M's convention and a warm state enters
        # the equilibrated one, and the two maps are inverse
        data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=0, k=2)))[0]
        assert data.operator.equilibration is not None
        for steps in (1, 3):
            cfg = SolverConfig(max_iter=150, steps_per_iter=steps)
            first = drgd_solve(data, cfg)
            second = drgd_solve(data, cfg, warm=first.state)
            whole = drgd_solve(data, replace(cfg, max_iter=300))
            assert first.status == second.status == whole.status == "max_iter"
            for name in ("u_tilde", "u", "w"):
                a, b = getattr(second.state, name), getattr(whole.state, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_portfolio_k20_converges(self):
        # a step on I+M itself (0.99 / 17.6^2) ends in max_iter at 200,000
        # iterations, on I+M scaled by alpha alone it converged in about
        # 70,000; on the equilibrated inclusion it takes about 12,000
        data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=0, k=20)))[0]
        cfg = SolverConfig()
        rep = drgd_solve(data, cfg)
        assert rep.status == "converged" and rep.iterations <= 20_000
        assert kkt_error(rep) <= (2.0 + data.sigma_max) * cfg.tol_fixed_point


class TestEquilibratedDr:
    """DR on the inclusion equilibrated by S = diag(s), the operator's Ruiz
    equilibration, and scaled by alpha, the largest column 2-norm of SMS,
    where some column of I+M has 2-norm^2 > 2."""

    @pytest.mark.parametrize("k, count", [(1, 3), (2, 3), (5, 3), (20, 2)])
    def test_portfolio_reports_meet_the_kkt_bound(self, k, count):
        # one row, a stacked block and a label at 1e-9: each converges with a
        # KKT residual of at most 2 tol; the scale and bound are their
        # definitions, from the dense matrices
        bundle = generate(GenSpec(family="portfolio", count=count, seed=0, k=k))
        datas = prepare_data(bundle)
        for data in datas:
            r = data.operator.scaled_resolvent
            alpha, s, b = dr_scale(data)
            assert np.array_equal(s, data.operator.equilibration)
            assert r.scale == alpha and r.bound == pytest.approx(b, rel=1e-12)
            assert np.linalg.norm(alpha * sms(data, s), 2) <= r.bound
            row = data.scaled(resolvent=True)
            assert row.operator is r and row.scale == alpha and row.bound == r.bound
            assert row.diag is data.operator.equilibration and row.scaled() is row
            assert np.array_equal(row.q, alpha * s * data.q)
        cfg = SolverConfig()
        for rep in [dr_solve(d, cfg) for d in datas] + dr_solve_batch(datas, cfg):
            assert rep.status == "converged"
            assert kkt_error(rep) <= 2.0 * cfg.tol_fixed_point
        labeled, excluded = label_bundle(bundle)
        assert excluded == []
        for data, (x, y) in zip(datas, labeled.labels):
            metrics = model.quality(data.cqp, x, y)
            assert max(metrics.max_viol, metrics.dual_residual_inf) <= 2e-9

    @staticmethod
    def fresh(case):
        """Data on a fresh operator: portfolio k = case (seed 0), or the P x
        1e6 probe."""
        if case == "probe":
            return huge_hessian_probe()
        return prepare_data(generate(GenSpec(family="portfolio", count=1, seed=0, k=case)))[0]

    @staticmethod
    def assembled(op, alpha):
        """The sparse I + alpha SMS of op, as the SuperLU route builds it."""
        (rows, values), N = op._sms(), op.size
        return model._identity_plus(N, rows, op.M.indices, alpha * values)

    @pytest.mark.parametrize("case", [1, 2, 5, 20, "probe"])
    def test_dense_resolvent_builds_no_sparse_matrix(self, monkeypatch, case):
        # up to Factorization._DENSE_LIMIT, I + alpha SMS is scattered into
        # the array getrf reads, with no SparseMatrix or scipy matrix built:
        # that array and the inverse are the assembled matrix's bit for bit
        op = self.fresh(case).operator
        with monkeypatch.context() as m:
            forbid_sparse_matrices(m)
            r = op.scaled_resolvent
        K = self.assembled(op, r.scale)
        (rows, values), N = op._sms(), op.size
        dense = model._dense_identity_plus(N, rows, op.M.indices, r.scale * values)
        assert dense.flags.f_contiguous
        assert dense.tobytes("F") == K._csr.toarray(order="F").tobytes("F")
        assert r.factorization.kind == "dense-inverse"
        assert r.factorization.inverse.tobytes() == Factorization(K).inverse.tobytes()

    def test_superlu_route_assembles_the_sparse_matrix(self, monkeypatch):
        # above Factorization._DENSE_LIMIT no dense array is scattered: SuperLU
        # factorizes the assembled I + alpha SMS, and DR converges on it
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
        monkeypatch.setattr(model, "_dense_identity_plus", None)
        data = self.fresh(5)
        r = data.operator.scaled_resolvent
        assert r.factorization.kind == "superlu"
        K = self.assembled(data.operator, r.scale)
        assert model.matrix_key(r.factorization._A) == model.matrix_key(K)
        b = np.random.default_rng(0).standard_normal((2, data.size))
        assert r.factorization.solve(b).tobytes() == Factorization(K).solve(b).tobytes()
        cfg = SolverConfig()
        rep = dr_solve(data, cfg)
        assert rep.status == "converged"
        assert kkt_error(rep) <= 2.0 * cfg.tol_fixed_point

    @pytest.mark.parametrize("spec", [
        GenSpec(family="qp_rhs", count=1, seed=0, n=16),
        GenSpec(family="qp_rhs", count=1, seed=0, n=50),
        GenSpec(family="qp_rhs", count=1, seed=0, n=200),
        GenSpec(family="qp_perturbed", count=2, seed=0, n=12),
        GenSpec(family="qp_perturbed", count=2, seed=0, n=50),
        GenSpec(family="qp_perturbed", count=1, seed=0, n=520),
        GenSpec(family="portfolio", count=2, seed=0, k=1),
        GenSpec(family="portfolio", count=2, seed=0, k=2),
        GenSpec(family="portfolio", count=2, seed=0, k=5),
        GenSpec(family="portfolio", count=1, seed=0, k=20),
    ], ids=lambda spec: f"{spec.family}-{spec.k if spec.family == 'portfolio' else spec.n}")
    def test_gate_decides_as_sigma_max(self, spec):
        # the column 2-norm test decides as the dense 2-norm test would
        for data in prepare_data(generate(spec)):
            sigma2 = np.linalg.norm(data.I_plus_M.to_dense(), 2) ** 2
            assert equilibrates(data) == (sigma2 > 2.0)
            assert (data.operator.equilibration is not None) == (sigma2 > 2.0)
            assert (spec.family == "portfolio") == (sigma2 > 2.0)

    def test_columns_below_the_gate_stay_unequilibrated(self):
        # P = 0.3 [[1, 1], [1, 1]] + 0.05 I and one inequality with a small
        # row: every column of I+M has 2-norm^2 <= 1.93, but sigma_max(I+M)^2
        # >= 1.65^2; neither solver equilibrates, both run on I+M as the eager
        # loop does
        data = inclusion_of(build_standard(P=0.3 * np.ones((2, 2)) + 0.05 * np.eye(2),
                                           c=[1.0, -2.0], A=np.zeros((0, 2)), b=[],
                                           G=[[0.1, 0.0]], h=[-5.0],
                                           l=[-np.inf] * 2, u=[np.inf] * 2))
        K = data.I_plus_M.to_dense()
        assert (K * K).sum(axis=0).max() <= 2.0 < np.linalg.norm(K, 2) ** 2
        op = data.operator
        assert op.equilibration is None and op.scaled_resolvent is None
        assert op.scaled is op and data.scaled() is data
        assert data.scaled(resolvent=True) is data
        cfg = SolverConfig(record_history=True)
        for solve, gradient in ((dr_solve, False), (drgd_solve, True)):
            rep = solve(data, cfg)
            assert rep.status == "converged"
            assert_is_loop(rep, eager_loop(data, cfg, gradient=gradient), True)


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
                status, iters, ut, u, wv, history = eager_loop(data, cfg, w)
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
        ut = eager_loop(rhs_datas[2], cfg, warms[2], gradient=solver == "drgd")[2]
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
        loop = eager_loop(data, cfg, IterateState(z, z.copy(), w), gradient=True)
        np.testing.assert_array_equal(rep.state.u_tilde, loop[2])
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
            # on the equilibrated operator that each solver iterates pf[3] on
            if solver == "dr":
                assert pf[3].scaled(resolvent=True).operator.factorization.kind == "superlu"
            else:
                assert not isinstance(pf[3].scaled().operator.channel_operator[0], np.ndarray)
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
            assert_is_loop(drgd_solve(data, cfg), eager_loop(data, cfg, gradient=True),
                           record_history)
            assert_is_loop(dr_solve(data, cfg), eager_loop(data, cfg), record_history)

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
        loop = eager_loop(data, cfg, gradient=solver == "drgd")
        assert_is_loop(rep, loop, True)

    @pytest.mark.parametrize("warm", [0.0, 4e11], ids=["cold", "huge-warm"])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_divergence_mid_chunk(self, warm, steps):
        # w grows past the limit at an iteration that is not a chunk's last:
        # the row ends in "error" there, byte for byte the eager loop's. Both
        # solvers iterate on the equilibrated inclusion, where a warm w enters
        # as (alpha s)(w - u_tilde): at DR's alpha = sqrt(3) the huge warm
        # start is above half the limit from the start, and 7e11 would pass
        # it at the first iteration
        data = infeasible_data()
        z = np.zeros(data.size)
        start = IterateState(z, z.copy(), np.full(data.size, warm))
        for record_history in (True, False):
            cfg = SolverConfig(steps_per_iter=steps, record_history=record_history)
            dr, gd = dr_solve(data, cfg, warm=start), drgd_solve(data, cfg, warm=start)
            for rep in (dr, gd):
                assert rep.status == "error" and rep.iterations % CHUNK not in (0, 1)
            assert_is_loop(dr, eager_loop(data, cfg, start), record_history)
            assert_is_loop(gd, eager_loop(data, cfg, start, gradient=True), record_history)

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
            assert_is_loop(rep, eager_loop(data, cfg, start, gradient=True), record_history)


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



# -- every solve path pinned bit for bit ----------------------------------------

def solve_digest(sparse=False):
    """sha256 over the status, iterations, message, u_tilde, u, w, x, y,
    metrics and history of every report of DR and DR-GD: one row, a shared
    block, stacked blocks and a mixed batch (shared, stacked and another
    size), cold and warm, steps 1 and 3, a fixed step capped on some rows,
    history on and off; then label_bundle's labels.

    Four digests, by name: "all" of every report and label; "dr" of the DR
    reports and labels of the rows that are not equilibrated (all but the
    portfolio rows), which DR iterates on I+M itself; "drgd" of every DR-GD
    report; "unscaled" of the DR-GD reports of rows that iterate on I+M
    itself, every fixed-step run and each default-step row that is not
    equilibrated.

    sparse (both dense limits at 0) leaves the stacked blocks out and stops
    at tol 1e-3 or 150 iterations: the CSR pair's DR-GD steps cost about
    70 us each, and every row there runs alone or in its shared block."""
    hashes = {name: hashlib.sha256() for name in ("all", "dr", "drgd", "unscaled")}

    def update(rep, *names):
        history = b"none" if rep.residual_history is None else np.array(
            rep.residual_history, dtype=float).tobytes()
        parts = [repr((rep.status, rep.iterations, rep.message,
                       dataclasses.astuple(rep.metrics))).encode() + history]
        parts += [a.tobytes() for a in (rep.state.u_tilde, rep.state.u, rep.state.w,
                                        rep.x, rep.y)]
        for name in ("all",) + names:
            for part in parts:
                hashes[name].update(part)

    rhs = prepare_data(generate(GenSpec(family="qp_rhs", count=6, seed=11, n=16)))
    pf = prepare_data(generate(GenSpec(family="portfolio", count=3, seed=3, k=1)))
    pt = prepare_data(generate(GenSpec(family="qp_perturbed", count=3, seed=3, n=12)))
    other = prepare_data(generate(GenSpec(family="qp_perturbed", count=1, seed=2, n=8)))
    distinct = [pf[0], pt[0], pf[1], pt[1], pf[2], pt[2]]
    mixed = [pf[0], rhs[0], other[0], pt[0], pf[1], rhs[1], pf[2]]
    caps = sorted(step_size_cap(d) for d in distinct)
    limits = dict(tol_fixed_point=1e-3, max_iter=150) if sparse else {}
    for solver, runs in (("dr", [(1, None)]),
                         ("drgd", [(1, None), (3, None), (1, caps[len(caps) // 2])])):
        single, batch = BATCH_SOLVERS[solver]
        for (steps, fixed_eta), record_history in zip(runs * 2, [True] * 3 + [False] * 3):
            cfg = SolverConfig(steps_per_iter=steps, fixed_eta=fixed_eta,
                               record_history=record_history, **limits)
            for datas in (rhs, mixed) if sparse else (rhs, distinct, mixed):
                plain = [d.operator.equilibration is None for d in datas]
                names = [(("dr",) if p else ()) if solver == "dr" else ("drgd", "unscaled") if (
                    fixed_eta is not None or p) else ("drgd",) for p in plain]
                for warms in ([None] * len(datas), short_warms(datas)):
                    for d, w, part in zip(datas, warms, names):
                        update(single(d, cfg, warm=w), *part)
                    for rep, part in zip(batch(datas, cfg, warms), names):
                        update(rep, *part)
    for family, kw in (("qp_rhs", dict(n=16)), ("portfolio", dict(k=1))):
        bundle, excluded = label_bundle(generate(GenSpec(family=family, count=4, seed=5, **kw)))
        assert excluded == []
        for x, y in bundle.labels:
            for name in ("all", "dr") if family == "qp_rhs" else ("all",):
                hashes[name].update(x.tobytes() + y.tobytes())
    return {name: h.hexdigest() for name, h in hashes.items()}


# solve_digest with both dense limits at their defaults and at 0 (numpy
# 2.4.6, scipy-openblas 0.3.31, x86-64, one BLAS thread). "unscaled" is as at
# the one-product-per-row resolvents; "dr" and "drgd" were recorded when DR
# still iterated on I+M for every row and are unchanged by DR's equilibrated
# inclusion. "all" is re-pinned whenever the portfolio rows' DR or default
# DR-GD changes, last when DR moved to the equilibrated inclusion. The eager
# and textbook loops and test_drgd_sparse_channel_pair_matches_dense check
# those reports apart from it
SOLVE_DIGESTS = {
    "dense": {
        "all": "500dd939b4ce4571c331dc5f9dc21d4b0e6219c3e2f174049c5a447d90debba2",
        "dr": "3bd001dcbb74a1786157816ee52eda8498866eb83400a185ff157fba2ba92995",
        "drgd": "9172e8f8649827cc2866f068a1600d54ca6b94d2b7ff61a2c1bbad3447ddd007",
        "unscaled": "9927b302b6dc06934765dbbe7d34905623201fe0366c0e690c62bfc32dada599",
    },
    "sparse": {
        "all": "63d9af026eb5f7cb8c0eeb863d635b15c0b007e52611edc561ea1fd211e97713",
        "dr": "62ade528ef36ac28b0835bbe60688c353901b551f1044115402afa52a6f486f6",
        "drgd": "8ef3432abaeca9209fddb73c3e5c5600b122d950c64df07457ca32c50d9df702",
        "unscaled": "4d436aee763954547169598f561cac566cfac7be28f65be82a70a4bfd3919232",
    },
}


@pytest.mark.parametrize("limits", list(SOLVE_DIGESTS))
def test_every_solve_path_is_pinned(monkeypatch, limits):
    # "sparse" sets both dense limits to 0: SuperLU for DR, the CSR pair for DR-GD
    if limits == "sparse":
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
        monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
    assert solve_digest(sparse=limits == "sparse") == SOLVE_DIGESTS[limits]


@pytest.mark.parametrize("case", ["inverse", "superlu", "drgd"])
def test_solved_instance_copies(monkeypatch, case):
    # a solved instance holds its operator's factorization, or after a DR-GD
    # solve of an equilibrated operator its s and scaled operator with that
    # one's sigma_max, channel pair and step operator; a deep copy and a
    # pickle round trip of it carry those along and solve exactly as the
    # original does
    if case == "drgd":
        data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=4, k=1)))[0]
        cfg = SolverConfig(record_history=True)
        ref = drgd_solve(data, cfg)
        scaled = vars(data.operator)["scaled"]
        assert scaled is not data.operator and scaled._step_operators
        for other in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            s = vars(other.operator)["equilibration"]
            assert s is not data.operator.equilibration
            assert np.array_equal(s, data.operator.equilibration)
            copied = vars(other.operator)["scaled"]
            assert copied is not scaled and list(copied._step_operators) == list(
                scaled._step_operators)
            assert_identical(drgd_solve(other, cfg), ref)
        return
    monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 1024 if case == "inverse" else 0)
    data = prepare_data(generate(GenSpec(family="qp_rhs", count=1, seed=4, n=10)))[0]
    cfg = SolverConfig(record_history=True)
    ref = dr_solve(data, cfg)
    assert data.operator.factorization.kind == ("dense-inverse" if case == "inverse"
                                                else "superlu")
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
    # the default step on portfolio rows (equilibrated) runs on the scaled
    # operator, whose CSR pair and svds sigma_max (and alpha) round apart from
    # its dense K and 2-norm: statuses and iteration counts stay, iterates
    # within 1e-12
    specs = [GenSpec(family="portfolio", count=2, seed=3, k=1),
             GenSpec(family="portfolio", count=2, seed=0, k=2)]
    defaults = [SolverConfig(steps_per_iter=steps) for steps in (1, 2)]

    def default_solves(datas):  # one row and batched, at each default
        for default in defaults:
            yield from (drgd_solve(d, default) for d in datas)
            yield from drgd_solve_batch(datas, default)

    pf_dense = [r for pf in specs for r in default_solves(prepare_data(generate(pf)))]
    monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
    sparse = prepare_data(generate(spec))
    assert not isinstance(sparse[0].operator.channel_operator[0], np.ndarray)
    for d, s in zip(dense, sparse):
        assert_same_report(drgd_solve(s, cfg), drgd_solve(d, cfg))
    for d, s in zip(drgd_solve_batch(dense, cfg), drgd_solve_batch(sparse, cfg)):
        assert_same_report(s, d)
    pf_sparse = []
    for pf in specs:
        datas = prepare_data(generate(pf))
        assert all(d.operator.equilibration is not None for d in datas)
        assert not isinstance(datas[0].operator.scaled.channel_operator[0], np.ndarray)
        pf_sparse += default_solves(datas)
    assert len(pf_sparse) == len(pf_dense) == 16
    for s, d in zip(pf_sparse, pf_dense):
        assert (s.status, s.iterations) == (d.status, d.iterations)
        assert s.status == "converged"
        for a, b in zip((s.state.u_tilde, s.state.u, s.state.w),
                        (d.state.u_tilde, d.state.u, d.state.w)):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_gradient_operator_one_scaled_copy(monkeypatch):
    # a DR-GD solve leaves the operator it steps on (the scaled one at the
    # default step, I+M itself at a fixed one) one step operator [I - eta
    # K'K | eta K'], for the last eta it stepped at; DR-only stages
    # (label, eval) never ask for it, nor does the CSR pair
    asked = []
    step_operator = model.Operator.step_operator
    monkeypatch.setattr(model.Operator, "step_operator",
                        lambda op, eta, out=None: asked.append(op) or step_operator(op, eta, out))
    bundle = generate(GenSpec(family="portfolio", count=2, seed=4, k=1))
    datas = prepare_data(bundle)
    label_bundle(bundle)
    run_eval(datas, None, init_params(1, 2), SolverConfig(max_iter=50))
    dr_solve_batch(datas, SolverConfig(max_iter=50))
    assert asked == []
    op, cfg = datas[0].operator, SolverConfig(max_iter=50, record_history=True)

    def assert_holds(on, cfg):  # one (N, 2N) [I - eta K'K | eta K'], bit for bit
        eta, At = defined_step_operator(datas[0], cfg)
        assert list(on._step_operators) == [eta]
        assert np.array_equal(on._step_operators[eta], At)

    drgd_solve(datas[0], cfg)
    assert op.equilibration is not None
    assert_holds(op.scaled, cfg)
    assert op._step_operators == {}
    # a fixed step steps on I+M; the solve equals a fresh operator's
    fixed = replace(cfg, fixed_eta=0.5 * step_size_cap(datas[0]))
    assert_identical(drgd_solve(datas[0], fixed), drgd_solve(prepare_data(bundle)[0], fixed))
    assert_holds(op, fixed)
    # another step size replaces the array
    quarter = replace(fixed, fixed_eta=0.25 * step_size_cap(datas[0]))
    drgd_solve(datas[0], quarter)
    assert_holds(op, quarter)
    drgd_solve_batch(datas, cfg)
    assert asked[-2:] == [d.operator.scaled for d in datas]
    asked.clear()
    monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
    drgd_solve_batch(prepare_data(bundle), cfg)
    assert asked == []


def test_step_operators_are_row_major(monkeypatch, rhs_datas, distinct_datas):
    # the cached step operator of a shared block, and each slice a stacked
    # block writes with out=, is the C-contiguous (N, 2N) [I - eta K'K |
    # eta K'], bit for bit, the operand of one row-major GEMV per row; the
    # cached one starts on a 64-byte boundary, as the GEMV reads it fastest.
    # Each stacked row steps on its own scaled operator: equilibrated on the
    # portfolio rows, the operator itself on the qp_perturbed ones
    written = []
    step_operator = model.Operator.step_operator
    monkeypatch.setattr(model.Operator, "step_operator",
                        lambda op, eta, out=None: written.append((op, eta, out))
                        or step_operator(op, eta, out))
    cfg = SolverConfig(max_iter=20)
    drgd_solve_batch(rhs_datas, cfg)
    drgd_solve_batch(distinct_datas, cfg)
    outs = [(eta, out) for _, eta, out in written if out is not None]
    rows = distinct_datas[::2] + distinct_datas[1::2]
    assert [op for op, _, out in written if out is not None] == [d.operator.scaled for d in rows]
    assert [d.operator.equilibration is not None for d in rows] == [True] * 3 + [False] * 3
    data = rhs_datas[0]
    assert data.operator.scaled is data.operator
    cached = list(data.operator._step_operators.items())
    assert [eta for eta, _ in cached] == [step_size_cap(data)]
    assert cached[0][1].ctypes.data % 64 == 0
    for d, (eta, At) in zip([data] + rows, cached + outs):
        N = d.size
        assert At.shape == (N, 2 * N) and At.flags.c_contiguous
        ref_eta, ref = defined_step_operator(d, cfg)
        assert eta == ref_eta and np.array_equal(At, ref)


def test_one_row_dense_dr_binds_its_inverse(monkeypatch, rhs_datas, distinct_datas):
    # every dense DR block multiplies by the C-ordered inverse (64-byte
    # aligned), or a stack of the rows' own, bound once per block: one row, a
    # shared block and a stacked block call no Factorization.solve; SuperLU
    # calls it once per iteration, on the whole block
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
    dr_solve_batch(rhs_datas, cfg)
    assert calls == []
    monkeypatch.setattr(Factorization, "_DENSE_LIMIT", 0)
    datas = prepare_data(generate(GenSpec(family="qp_rhs", count=3, seed=11, n=16)))
    assert datas[0].operator.factorization.kind == "superlu"
    assert dr_solve(datas[0], cfg).status == "max_iter"
    assert calls == [1] * cfg.max_iter
    calls.clear()
    assert {r.status for r in dr_solve_batch(datas, cfg)} == {"max_iter"}
    assert calls == [3] * cfg.max_iter


def test_drgd_solve_peak_memory():
    # with the scaled operator's K and sigma_max cached, a DR-GD solve holds
    # one (N, 2N) array: its [I - eta K'K | eta K'], built without
    # temporaries (16 N^2 bytes); 20 N^2 leaves room for the block's vectors
    # but not for a second copy
    data = prepare_data(generate(GenSpec(family="portfolio", count=1, seed=6, k=20)))[0]
    data.operator.scaled.channel_operator, data.operator.scaled.sigma_max
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
    drgd_solve(data, SolverConfig(max_iter=1))  # builds the scaled K, sigma_max and A'
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
        data.operator.scaled.channel_operator, data.operator.scaled.sigma_max
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
