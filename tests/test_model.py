import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import build_standard, inclusion_of, one_var_qp
from drqp import model
from drqp.datagen import GenSpec, generate, label_bundle
from drqp.model import (ConeSpec, ConicQP, Operator, assemble_inclusion,
                        l2_distance, project_cone_dual, quality, read_instance,
                        to_conic, write_instance)
from drqp.report import complete_zero_cone_dual, prepare_data
from drqp.sparse import DimensionError, SparseMatrix


def _unbounded(n):
    return np.full(n, -np.inf), np.full(n, np.inf)


class TestStandardQP:
    def test_asymmetric_p_rejected(self):
        l, u = _unbounded(2)
        with pytest.raises(ValueError):
            build_standard(P=[[1.0, 1.0], [0.0, 1.0]], c=[0.0, 0.0],
                           A=np.zeros((0, 2)), b=[], G=np.zeros((0, 2)), h=[],
                           l=l, u=u)

    def test_indefinite_p_rejected(self):
        l, u = _unbounded(2)
        with pytest.raises(ValueError):
            build_standard(P=[[-1.0, 0.0], [0.0, 1.0]], c=[0.0, 0.0],
                           A=np.zeros((0, 2)), b=[], G=np.zeros((0, 2)), h=[],
                           l=l, u=u)

    def test_asymmetric_p_rejected_by_conic_qp(self):
        # a ConicQP built from a P that no StandardQP checked checks it itself,
        # and a failing P raises every time
        P = SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]])
        A = SparseMatrix.from_dense(np.zeros((0, 2)))
        for _ in range(2):
            with pytest.raises(ValueError, match="symmetric"):
                ConicQP(P=P, c=np.zeros(2), A=A, b=np.zeros(0),
                        cone=ConeSpec(m_zero=0, m_nonneg=0))

    def test_p_checked_once(self, monkeypatch):
        qp = one_var_qp()
        calls = []
        transpose = SparseMatrix.transpose
        monkeypatch.setattr(SparseMatrix, "transpose",
                            lambda mat: calls.append(mat) or transpose(mat))
        cqp = to_conic(qp)
        assert cqp.P is qp.P
        assert calls == []

    def test_bounds_order_checked(self):
        with pytest.raises(ValueError):
            build_standard(P=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=[],
                           G=np.zeros((0, 1)), h=[], l=[1.0], u=[-1.0])

    @pytest.mark.parametrize("change", [
        dict(c=[np.nan]), dict(c=[np.inf]), dict(b=[-np.inf]), dict(h=[np.nan]),
        dict(l=[np.nan]), dict(u=[np.nan]), dict(l=[np.inf], u=[np.inf]),
        dict(l=[-np.inf], u=[-np.inf]), dict(P=[[np.inf]]), dict(A=[[np.nan]]),
        dict(G=[[-np.inf]])],
        ids=["c-nan", "c-inf", "b-inf", "h-nan", "l-nan", "u-nan", "l-inf", "u-minus-inf",
             "P-inf", "A-nan", "G-minus-inf"])
    def test_non_finite_data_rejected(self, change):
        # a NaN c read back from a file used to solve to "error"; l = +inf
        # was dropped by to_conic as if x had no lower bound; an infinite
        # matrix entry failed only in the factorization, after labeling began
        kw = dict(P=[[1.0]], c=[0.0], A=[[1.0]], b=[1.0], G=[[1.0]], h=[2.0],
                  l=[-1.0], u=[3.0])
        problem = ("l <= u" if {"l", "u"} & set(change) else
                   "P, A_eq and G must be finite" if {"P", "A", "G"} & set(change) else
                   "c, b_eq and h must be finite")
        with pytest.raises(ValueError, match=re.escape(problem)):
            build_standard(**(kw | change))

    def test_objective(self):
        qp = one_var_qp()
        assert qp.objective(np.array([2.0])) == pytest.approx(2.0)


class TestToConic:
    def test_equalities_only(self):
        l, u = _unbounded(2)
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0],
                            A=[[1.0, 1.0]], b=[1.0],
                            G=np.zeros((0, 2)), h=[], l=l, u=u)
        cqp = to_conic(qp)
        assert cqp.cone == ConeSpec(m_zero=1, m_nonneg=0)
        np.testing.assert_array_equal(cqp.A.to_dense(), [[1.0, 1.0]])
        np.testing.assert_array_equal(cqp.b, [1.0])

    def test_bound_rows_counted(self):
        # l=[0,-inf], u=[1,inf]: finite bounds give rows -x1<=0 and x1<=1
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0],
                            A=np.zeros((0, 2)), b=[], G=np.zeros((0, 2)), h=[],
                            l=[0.0, -np.inf], u=[1.0, np.inf])
        cqp = to_conic(qp)
        assert cqp.cone.m_nonneg == 2
        assert cqp.cone.m_zero == 0

    @pytest.mark.parametrize("family, kw", [
        ("qp_rhs", dict(n=12)), ("qp_perturbed", dict(n=12)), ("portfolio", dict(k=3)),
    ])
    def test_conic_rows_counted_without_transform(self, family, kw):
        qps = generate(GenSpec(family=family, count=2, seed=5, **kw)).instances
        boxed = build_standard(P=np.eye(3), c=np.zeros(3), A=np.ones((1, 3)), b=[1.0],
                               G=np.ones((2, 3)), h=[2.0, 3.0], l=[-1.0, -np.inf, 0.0],
                               u=[1.0, np.inf, np.inf])
        for qp in qps + [boxed]:
            assert qp.conic_rows == to_conic(qp).m
        assert boxed.conic_rows == 6

    def test_boxed_instance_row_enumeration(self):
        # n=4, 2 equalities, 2 inequalities, full box: 2 + 2 + 8 conic rows
        rng = np.random.default_rng(0)
        qp = build_standard(P=np.diag(rng.uniform(0.5, 2.0, 4)),
                            c=rng.standard_normal(4),
                            A=rng.standard_normal((2, 4)), b=np.zeros(2),
                            G=rng.standard_normal((2, 4)), h=np.ones(2),
                            l=-np.ones(4), u=np.ones(4))
        cqp = to_conic(qp)
        assert cqp.cone == ConeSpec(m_zero=2, m_nonneg=10)
        # blocks in order: equalities, inequalities, lower bounds, upper bounds
        np.testing.assert_array_equal(cqp.A.to_dense(), np.vstack(
            [qp.A_eq.to_dense(), qp.G.to_dense(), -np.eye(4), np.eye(4)]))
        np.testing.assert_array_equal(cqp.b, np.concatenate(
            [qp.b_eq, qp.h, np.ones(4), np.ones(4)]))

    def test_bound_row_signs(self):
        # -x <= -l rows and x <= u rows, checked entrywise
        qp = build_standard(P=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=[],
                            G=np.zeros((0, 1)), h=[], l=[-2.0], u=[3.0])
        cqp = to_conic(qp)
        # the lower-bound row, then the upper-bound row
        np.testing.assert_array_equal(cqp.A.to_dense(), [[-1.0], [1.0]])
        np.testing.assert_array_equal(cqp.b, [2.0, 3.0])

    def test_objective_preserved(self):
        rng = np.random.default_rng(1)
        qp = build_standard(P=np.diag(rng.uniform(0.5, 2.0, 3)),
                            c=rng.standard_normal(3),
                            A=rng.standard_normal((1, 3)), b=[0.5],
                            G=rng.standard_normal((2, 3)), h=np.ones(2),
                            l=-np.ones(3), u=np.ones(3))
        cqp = to_conic(qp)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert cqp.objective(x) == pytest.approx(qp.objective(x), rel=1e-13)


class TestAssembleInclusion:
    def test_block_structure(self):
        l, u = _unbounded(2)
        qp = build_standard(P=np.zeros((2, 2)), c=[0.0, 0.0],
                            A=np.eye(2), b=[0.0, 0.0],
                            G=np.zeros((0, 2)), h=[], l=l, u=u)
        data = inclusion_of(qp)
        expected = np.block([[np.zeros((2, 2)), np.eye(2)],
                             [-np.eye(2), np.zeros((2, 2))]])
        np.testing.assert_array_equal(data.operator.M.to_dense(), expected)
        np.testing.assert_array_equal(data.I_plus_M.to_dense(),
                                      np.eye(4) + expected)

    def test_q_concatenation(self):
        l, u = _unbounded(1)
        qp = build_standard(P=[[0.0]], c=[1.0], A=[[1.0], [2.0]], b=[2.0, 3.0],
                            G=np.zeros((0, 1)), h=[], l=l, u=u)
        data = inclusion_of(qp)
        np.testing.assert_array_equal(data.q, [1.0, 2.0, 3.0])

    def test_dense_assembly_oracle(self):
        rng = np.random.default_rng(2)
        P = np.diag(rng.uniform(0.5, 2.0, 3))
        A = rng.standard_normal((2, 3))
        l, u = _unbounded(3)
        qp = build_standard(P=P, c=rng.standard_normal(3), A=A,
                            b=rng.standard_normal(2),
                            G=np.zeros((0, 3)), h=[], l=l, u=u)
        data = inclusion_of(qp)
        oracle = np.block([[P, A.T], [-A, np.zeros((2, 2))]])
        np.testing.assert_allclose(data.operator.M.to_dense(), oracle, rtol=1e-14)

    def test_sigma_max_cached(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 3))
        l, u = _unbounded(3)
        qp = build_standard(P=np.eye(3), c=np.zeros(3), A=A, b=np.zeros(2),
                            G=np.zeros((0, 3)), h=[], l=l, u=u)
        data = inclusion_of(qp)
        truth = np.linalg.svd(data.I_plus_M.to_dense(), compute_uv=False)[0]
        assert data.sigma_max == pytest.approx(truth, abs=1e-6)
        assert data.sigma_max >= 1.0  # sym(I+M) >= I


class TestOperatorAssembly:
    @staticmethod
    def assemble_matches_bmat(P, A):
        """Operator.assemble(P, A), checked byte for byte against M and I+M
        built by scipy's block and sum kernels."""
        op = Operator.assemble(P, A)
        M = sp.bmat([[P._csr, A._csr.T], [-A._csr, None]], format="csr")
        refs = (SparseMatrix.from_scipy(M),
                SparseMatrix.from_scipy(sp.identity(M.shape[0], format="csr") + M))
        assert op.n == P.nrows
        for got, ref in zip((op.M, op.I_plus_M), refs):
            assert got.shape == ref.shape
            for name in ("indptr", "indices", "values"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        return op

    @pytest.mark.parametrize("family, kw", [
        ("qp_rhs", dict(n=12)), ("qp_perturbed", dict(n=12)), ("portfolio", dict(k=3)),
    ])
    def test_families(self, family, kw):
        bundle = generate(GenSpec(family=family, count=3, seed=5, **kw))
        if family == "portfolio":
            assert all(qp.G.nrows == 0 for qp in bundle.instances)
        for qp in bundle.instances:
            cqp = to_conic(qp)
            self.assemble_matches_bmat(cqp.P, cqp.A)

    def test_no_constraint_rows(self):
        l, u = _unbounded(3)
        qp = build_standard(P=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]],
                            c=[1.0, -1.0, 0.0], A=np.zeros((0, 3)), b=[],
                            G=np.zeros((0, 3)), h=[], l=l, u=u)
        cqp = to_conic(qp)
        assert cqp.m == 0
        self.assemble_matches_bmat(cqp.P, cqp.A)

    def test_stored_zeros(self):
        # stored zeros (-0.0 once A is negated) and a P diagonal of -1 that
        # I+M cancels: the entries a sparse sum leaves out of I+M
        P = SparseMatrix(3, 3, [0, 2, 3, 5], [0, 2, 1, 0, 2], [0.0, 1.0, -1.0, 1.0, 4.0])
        A = SparseMatrix(2, 3, [0, 2, 3], [0, 1, 2], [0.0, 2.0, -3.0])
        op = self.assemble_matches_bmat(P, A)
        assert op.M.nnz == 11 and op.I_plus_M.nnz == 10
        assert (op.M.values == 0).sum() == 3 and (op.I_plus_M.values != 0).all()


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestOperator:
    def test_shared_within_a_call(self):
        rhs = generate(GenSpec(family="qp_rhs", count=5, seed=1, n=10))
        datas = prepare_data(rhs)
        assert len({id(d.operator) for d in datas}) == 1
        assert len({d.q.tobytes() for d in datas}) == 5
        # each call builds its own operators
        assert prepare_data(rhs, [0])[0].operator is not datas[0].operator
        portfolio = generate(GenSpec(family="portfolio", count=3, seed=1, k=2))
        assert len({id(d.operator) for d in prepare_data(portfolio)}) == 3

    def test_shared_operator_shares_conic_A(self):
        # one A object per operator, so quality's cached transpose of A is
        # built once; the metrics are those of each instance's own A
        bundle = generate(GenSpec(family="qp_rhs", count=5, seed=1, n=10))
        datas = prepare_data(bundle)
        assert len({id(d.cqp.A) for d in datas}) == 1
        rng = np.random.default_rng(0)
        for data, qp in zip(datas, bundle.instances):
            own = to_conic(qp)
            assert own.A is not data.cqp.A
            x, y = rng.standard_normal(data.n), rng.standard_normal(data.m)
            ref = quality(own, x, y)
            assert quality(data.cqp, x, y) == ref
            dual = own.P._csr @ x + own.A._csr.T @ y + own.c
            assert ref.dual_residual_inf == float(np.abs(dual).max())

    def test_no_power_iteration_and_one_factorization(self, monkeypatch):
        # below the dense limit sigma_max is the dense 2-norm, without svds
        svds_calls = _count_calls(monkeypatch, model.spla, "svds")
        factorizations = _count_calls(monkeypatch, model, "Factorization")
        for spec, distinct in ((GenSpec(family="qp_rhs", count=4, seed=2, n=10), 1),
                               (GenSpec(family="portfolio", count=3, seed=2, k=2), 3)):
            bundle = generate(spec)
            datas = prepare_data(bundle)
            assert factorizations == []
            labeled, excluded = label_bundle(bundle)
            assert excluded == []
            assert len(factorizations) == distinct
            factorizations.clear()
            assert all(d.sigma_max > 1.0 for d in datas)
        assert svds_calls == []

    def test_equality_pinv_once_per_zero_cone_size(self, monkeypatch):
        pinvs = _count_calls(monkeypatch, np.linalg, "pinv")
        datas = prepare_data(generate(GenSpec(family="qp_rhs", count=4, seed=2, n=10)))
        rng = np.random.default_rng(0)
        for data in datas + datas:
            complete_zero_cone_dual(data, rng.standard_normal(data.size))
        assert len(pinvs) == 1
        # the same (P, A) with another zero-cone split shares the operator
        # but gets its own pseudo-inverse
        cqp, n = datas[0].cqp, datas[0].n
        m0 = cqp.cone.m_zero
        split = ConicQP(P=cqp.P, c=cqp.c, A=cqp.A, b=cqp.b,
                        cone=ConeSpec(m_zero=m0 - 1, m_nonneg=cqp.cone.m_nonneg + 1))
        operators = {}
        a, b = assemble_inclusion(cqp, operators), assemble_inclusion(split, operators)
        assert a.operator is b.operator
        for data in (a, b, a, b):
            complete_zero_cone_dual(data, rng.standard_normal(data.size))
        assert len(pinvs) == 3
        At = a.operator.M.to_dense()[:n, n:n + m0]
        np.testing.assert_allclose(a.operator.equality_pinv(m0), np.linalg.pinv(At),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.operator.equality_pinv(m0 - 1),
                                   np.linalg.pinv(At[:, :m0 - 1]), rtol=0, atol=1e-12)
        assert len(pinvs) == 5  # the two references above

    def test_sigma_max_not_below_svd(self, desk_datas, tiny_data):
        portfolio = prepare_data(generate(GenSpec(family="portfolio", count=2,
                                                  seed=3, k=2)))
        for data in [tiny_data, *desk_datas[:3], *portfolio]:
            truth = np.linalg.svd(data.I_plus_M.to_dense(), compute_uv=False)[0]
            assert data.sigma_max >= truth * (1.0 - 1e-12)

    @pytest.mark.parametrize("converged", [True, False])
    def test_sigma_max_above_dense_limit(self, desk_datas, tiny_data, monkeypatch,
                                         converged):
        # above the dense limit one svds call gives sigma_max to 1e-12 of the
        # SVD, the same bits on every fresh operator; should ARPACK not
        # converge, the bound sqrt(||K||_1 ||K||_inf) stands in
        monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
        if not converged:
            def no_convergence(*args, **kwargs):
                raise model.spla.ArpackNoConvergence("no convergence", [], [])
            monkeypatch.setattr(model.spla, "svds", no_convergence)
        portfolio = prepare_data(generate(GenSpec(family="portfolio", count=2,
                                                  seed=3, k=2)))
        for cqp in [d.cqp for d in (tiny_data, *desk_datas[:3], *portfolio)]:
            data = assemble_inclusion(cqp)
            K = data.I_plus_M.to_dense()
            truth = np.linalg.svd(K, compute_uv=False)[0]
            if converged:
                assert data.sigma_max == pytest.approx(truth, rel=1e-12)
                assert assemble_inclusion(cqp).sigma_max == data.sigma_max
            else:
                bound = math.sqrt(np.linalg.norm(K, 1) * np.linalg.norm(K, np.inf))
                assert data.sigma_max == pytest.approx(bound, rel=1e-15)
                assert data.sigma_max >= truth


class TestProjectConeDual:
    def test_all_free_unchanged(self):
        v = np.array([-1.0, 2.0, -3.0])
        out = project_cone_dual(v, ConeSpec(m_zero=2, m_nonneg=0))
        np.testing.assert_array_equal(out, v)

    def test_nonneg_block(self):
        v = np.array([-1.0, 0.0, 2.0])
        out = project_cone_dual(v, ConeSpec(m_zero=0, m_nonneg=3))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_mixed_blocks(self):
        # n=1 primal coordinate, then one free dual, then one nonneg dual
        v = np.array([-5.0, -5.0, -5.0])
        out = project_cone_dual(v, ConeSpec(m_zero=1, m_nonneg=1))
        np.testing.assert_array_equal(out, [-5.0, -5.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        spec = ConeSpec(m_zero=2, m_nonneg=3)
        for _ in range(20):
            v = rng.standard_normal(8)
            once = project_cone_dual(v, spec)
            np.testing.assert_array_equal(project_cone_dual(once, spec), once)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(5)
        spec = ConeSpec(m_zero=1, m_nonneg=4)
        for _ in range(50):
            a = rng.standard_normal(7)
            b = rng.standard_normal(7)
            da = project_cone_dual(a, spec) - project_cone_dual(b, spec)
            assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-15

    def test_rowwise_matches_vector_version(self):
        rng = np.random.default_rng(6)
        spec = ConeSpec(m_zero=2, m_nonneg=3)
        V = rng.standard_normal((8, 4))
        out = project_cone_dual(V, spec)
        for j in range(4):
            np.testing.assert_array_equal(out[:, j],
                                          project_cone_dual(V[:, j], spec))


class TestQuality:
    def test_optimum_has_tiny_residuals(self):
        # min 1/2 x^2 s.t. x >= 1: x*=1, dual y*=1 on the row -x <= -1
        cqp = to_conic(one_var_qp())
        m = quality(cqp, np.array([1.0]), np.array([1.0]))
        assert m.max_viol <= 1e-12
        assert m.dual_residual_inf <= 1e-12
        assert abs(m.complementarity) <= 1e-12
        assert m.objective == pytest.approx(0.5)

    def test_unconstrained_zero(self):
        l, u = _unbounded(2)
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0], A=np.zeros((0, 2)),
                            b=[], G=np.zeros((0, 2)), h=[], l=l, u=u)
        cqp = to_conic(qp)
        m = quality(cqp, np.zeros(2), np.zeros(0))
        assert m.objective == 0.0
        assert m.dual_residual_inf == 0.0

    def test_violations_match_cone_membership(self):
        rng = np.random.default_rng(7)
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0],
                            A=[[1.0, 0.0]], b=[1.0],
                            G=[[0.0, 1.0]], h=[0.0],
                            l=np.full(2, -np.inf), u=np.full(2, np.inf))
        cqp = to_conic(qp)
        # x = (1, -1): equality exact, inequality slack = 1 >= 0 -> in-cone
        m = quality(cqp, np.array([1.0, -1.0]), np.zeros(2))
        assert m.max_eq_viol <= 1e-12 and m.max_ineq_viol <= 1e-12
        # x = (0, 1): equality off by 1, inequality violated by 1
        m = quality(cqp, np.array([0.0, 1.0]), np.zeros(2))
        assert m.max_eq_viol == pytest.approx(1.0)
        assert m.max_ineq_viol == pytest.approx(1.0)

    def test_reference_distance(self):
        l2 = l2_distance(np.array([2.0]), np.array([1.0]),
                         (np.array([1.0]), np.array([1.0])))
        assert l2 == pytest.approx(1.0)


    @pytest.mark.parametrize("reference", [(np.zeros(1), np.zeros(1)),
                                           (np.zeros(3), np.zeros(3))])
    def test_reference_of_another_shape_rejected(self, reference):
        # a reference of one entry was broadcast: 2.236 instead of an error
        with pytest.raises(DimensionError):
            l2_distance(np.ones(3), np.ones(2), reference)

    def test_reference_distance_does_not_overflow(self):
        # ||(1e200, ..., 1e200)|| is finite although its square is not
        x = np.full(10, 1e200)
        with np.errstate(over="raise"):
            l2 = l2_distance(x, np.zeros(0), (np.zeros(10), np.zeros(0)))
        assert l2 == pytest.approx(math.sqrt(10) * 1e200, rel=1e-14)
        with np.errstate(over="raise"):
            l2 = l2_distance(np.array([1e200]), np.array([1.0]),
                             (np.array([0.0]), np.array([1.0])))
        assert l2 == pytest.approx(1e200, rel=1e-14)


class TestInstanceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        qp = build_standard(P=np.diag(rng.uniform(0.5, 2.0, 3)),
                            c=rng.standard_normal(3),
                            A=rng.standard_normal((1, 3)),
                            b=rng.standard_normal(1),
                            G=rng.standard_normal((2, 3)),
                            h=rng.standard_normal(2) + 2.0,
                            l=[-1.0, -np.inf, 0.0], u=[1.0, np.inf, np.inf])
        labels = (rng.standard_normal(3), rng.standard_normal(6))  # 1 + 2 + 3 conic rows
        path = tmp_path / "inst.json"
        write_instance(path, qp, labels=labels)
        back, back_labels = read_instance(path)
        for name in ("P", "A_eq", "G"):
            np.testing.assert_array_equal(getattr(back, name).to_dense(),
                                          getattr(qp, name).to_dense())
        for name in ("c", "b_eq", "h", "l", "u"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(qp, name))
        np.testing.assert_array_equal(back_labels[0], labels[0])
        np.testing.assert_array_equal(back_labels[1], labels[1])

    def test_infinite_bounds_survive(self, tmp_path):
        qp = one_var_qp()
        path = tmp_path / "inst.json"
        write_instance(path, qp)
        back, back_labels = read_instance(path)
        assert back_labels is None
        assert back.l[0] == -np.inf and back.u[0] == np.inf

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(Exception):
            read_instance(path)

    @pytest.mark.parametrize("literal, problem", [
        ("NaN", "non-finite number NaN"), ("Infinity", "non-finite number Infinity"),
        ("-Infinity", "non-finite number -Infinity"), ("1e999", "c, b_eq and h must be finite")],
        ids=["NaN", "Infinity", "minus-Infinity", "1e999"])
    def test_non_finite_number_in_file_rejected(self, tmp_path, literal, problem):
        # json.load accepts NaN and Infinity by default, and 1e999 overflows to inf
        path = tmp_path / "inst.json"
        write_instance(path, one_var_qp())
        doc = json.loads(path.read_text())
        doc["c"] = ["C"]
        path.write_text(json.dumps(doc).replace('"C"', literal))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(problem)):
            read_instance(path)

    def test_label_of_wrong_length_rejected(self, tmp_path):
        # read_instance used to read back any label length; only read_bundle checked it
        l, u = _unbounded(2)
        qp = build_standard(P=np.eye(2), c=[0.0, 0.0], A=np.zeros((0, 2)), b=[],
                            G=[[-1.0, 0.0]], h=[-1.0], l=l, u=u)
        path = tmp_path / "inst.json"
        write_instance(path, qp, labels=(np.zeros(2), np.zeros(1)))
        doc = json.loads(path.read_text())
        doc["labels"]["x"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*labels must hold x "
                           "of length 2 and y of length 1"):
            read_instance(path)

    def test_non_finite_label_in_file_rejected(self, tmp_path):
        # a label of 1e999 read back as inf, and training reported val loss inf
        path = tmp_path / "inst.json"
        write_instance(path, one_var_qp(), labels=(np.ones(1), np.ones(1)))
        doc = json.loads(path.read_text())
        doc["labels"]["x"] = ["X"]
        path.write_text(json.dumps(doc).replace('"X"', "1e999"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed instance file: labels must be finite")):
            read_instance(path)

    def test_non_finite_matrix_value_in_file_rejected(self, tmp_path):
        # 1e999 overflows to inf, which used to surface only in the factorization
        path = tmp_path / "inst.json"
        write_instance(path, one_var_qp())
        doc = json.loads(path.read_text())
        doc["G"]["values"] = ["V"]
        path.write_text(json.dumps(doc).replace('"V"', "1e999"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed instance file: matrix values must be finite")):
            read_instance(path)

    def test_matrix_reference_without_table_rejected(self, tmp_path):
        # an index into a bundle's matrix table names nothing in a standalone file
        path = tmp_path / "inst.json"
        write_instance(path, one_var_qp())
        doc = json.loads(path.read_text())
        doc["P"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed instance file: matrix reference 0 is not an index "
                "into a matrix table of 0 entries")):
            read_instance(path)

    @pytest.mark.parametrize("version", [2, None, "1"])
    def test_unsupported_version_named(self, tmp_path, version):
        path = tmp_path / "inst.json"
        write_instance(path, one_var_qp())
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed instance file: unsupported version {version!r}, "
                "expected 1")):
            read_instance(path)
