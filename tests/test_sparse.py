import copy
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from drqp import model
from drqp.model import Operator
from drqp.sparse import (DimensionError, Factorization, SingularMatrixError,
                         SparseMatrix, spmv)


def random_sparse(rng, nrows, ncols, density=0.5):
    dense = rng.standard_normal((nrows, ncols))
    dense[rng.random((nrows, ncols)) > density] = 0.0
    return SparseMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        mat = SparseMatrix.from_dense(dense)
        assert mat.shape == (3, 3)
        assert mat.nnz == 4
        np.testing.assert_array_equal(mat.to_dense(), dense)

    def test_identity(self):
        mat = SparseMatrix.from_dense(np.eye(3))
        np.testing.assert_array_equal(mat.indptr, [0, 1, 2, 3])
        np.testing.assert_array_equal(mat.indices, [0, 1, 2])
        np.testing.assert_array_equal(mat.to_dense(), np.eye(3))

    def test_diagonal(self):
        # a zero on the diagonal stays out of the pattern
        mat = SparseMatrix.from_dense(np.diag([2.0, 0.0, 4.0]))
        np.testing.assert_array_equal(mat.indices, [0, 2])
        np.testing.assert_array_equal(mat.to_dense(), np.diag([2.0, 0.0, 4.0]))

    def test_offsets_length_checked(self):
        with pytest.raises(ValueError):
            SparseMatrix(nrows=2, ncols=2, indptr=np.array([0, 1]),
                         indices=np.array([0]), values=np.array([1.0]))

    def test_duplicate_entries_rejected(self):
        # two entries in row 0, both at column 0
        with pytest.raises(ValueError):
            SparseMatrix(nrows=1, ncols=2, indptr=np.array([0, 2]),
                         indices=np.array([0, 0]), values=np.array([1.0, 2.0]))

    def test_duplicate_after_empty_row_rejected(self):
        # row 0 is empty, so the first row start is 0; row 1 repeats column 1
        with pytest.raises(ValueError, match="row 1:"):
            SparseMatrix(nrows=3, ncols=2, indptr=np.array([0, 0, 2, 3]),
                         indices=np.array([1, 1, 0]), values=np.ones(3))

    def test_decrease_across_row_boundary_accepted(self):
        # rows may start at a lower column than the previous row ended
        for indptr in ([0, 2, 2, 3, 3], [0, 0, 2, 3, 3], [0, 2, 3, 3, 3]):
            mat = SparseMatrix(nrows=4, ncols=3, indptr=np.array(indptr),
                               indices=np.array([0, 2, 1]), values=np.ones(3))
            assert mat.nnz == 3

    def test_row_order_matches_loop_reference(self):
        # the per-row loop the vectorized check replaced, as the oracle
        def first_bad_row(indptr, indices):
            for i in range(len(indptr) - 1):
                if np.any(np.diff(indices[indptr[i]:indptr[i + 1]]) <= 0):
                    return i
            return None

        rng = np.random.default_rng(11)
        for _ in range(300):
            nrows = int(rng.integers(1, 6))
            lengths = rng.integers(0, 4, nrows)
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            indices = rng.integers(0, 4, indptr[-1])
            bad = first_bad_row(indptr, indices)
            if bad is None:
                SparseMatrix(nrows, 4, indptr, indices, np.ones(indptr[-1]))
            else:
                with pytest.raises(ValueError, match=f"row {bad}:"):
                    SparseMatrix(nrows, 4, indptr, indices, np.ones(indptr[-1]))

    def test_column_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(nrows=1, ncols=2, indptr=np.array([0, 1]),
                         indices=np.array([2]), values=np.array([1.0]))

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(0)
        mat, dense = random_sparse(rng, 5, 3)
        np.testing.assert_array_equal(mat.transpose().to_dense(), dense.T)

    def test_copies_stay_immutable_and_consistent(self):
        # copies of a matrix whose CSR backend is cached: read-only arrays, and
        # products and dense views that agree with them
        mat = SparseMatrix.from_dense(np.eye(3))
        spmv(mat, np.ones(3))
        for c in (copy.copy(mat), copy.deepcopy(mat), pickle.loads(pickle.dumps(mat))):
            assert not any(a.flags.writeable for a in (c.indptr, c.indices, c.values))
            with pytest.raises(ValueError):
                c.values[0] = 5.0
            np.testing.assert_array_equal(spmv(c, np.ones(3)), np.ones(3))
            np.testing.assert_array_equal(c.to_dense(), np.eye(3))


class TestSpmv:
    def test_identity_apply(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(spmv(SparseMatrix.from_dense(np.eye(3)), x), x)

    def test_zero_matrix(self):
        mat = SparseMatrix.from_dense(np.zeros((2, 3)))
        np.testing.assert_array_equal(spmv(mat, np.ones(3)), np.zeros(2))

    def test_hand_example(self):
        mat = SparseMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(spmv(mat, np.ones(2)), [3.0, 7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            spmv(SparseMatrix.from_dense(np.eye(3)), np.ones(2))

    def test_transpose_identity(self):
        x = np.array([4.0, 5.0])
        np.testing.assert_array_equal(
            spmv(SparseMatrix.from_dense(np.eye(2)).transpose(), x), x)

    def test_transpose_hand_example(self):
        mat = SparseMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(spmv(mat.transpose(), np.ones(2)), [4.0, 6.0])

    def test_transpose_against_dense_oracle(self):
        rng = np.random.default_rng(1)
        mat, dense = random_sparse(rng, 5, 3)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(spmv(mat.transpose(), y), dense.T @ y, rtol=1e-13)

    def test_transpose_dimension_mismatch(self):
        # the 3 x 2 transpose of a 2 x 3 matrix takes vectors of length 2
        with pytest.raises(DimensionError):
            spmv(SparseMatrix.from_dense(np.ones((2, 3))).transpose(), np.ones(3))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mat, _ = random_sparse(rng, 6, 4)
            x = rng.standard_normal(4)
            y = rng.standard_normal(6)
            lhs = spmv(mat.transpose(), y) @ x
            rhs = y @ spmv(mat, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestFactorize:
    def test_identity_solve(self):
        fac = Factorization(SparseMatrix.from_dense(np.eye(2)))
        np.testing.assert_array_equal(fac.solve(np.array([5.0, -2.0])),
                                      [5.0, -2.0])

    def test_diagonal_solve(self):
        fac = Factorization(SparseMatrix.from_dense(np.diag([2.0, 4.0])))
        np.testing.assert_allclose(fac.solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        mat = SparseMatrix.from_dense(dense)
        fac = Factorization(mat)
        for _ in range(5):
            b = rng.standard_normal(8)
            x = fac.solve(b)
            res = np.linalg.norm(dense @ x - b) / max(1.0, np.linalg.norm(b))
            assert res <= 1e-10

    def test_recover_known_solution(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        mat = SparseMatrix.from_dense(dense)
        fac = Factorization(mat)
        x = rng.standard_normal(10)
        np.testing.assert_allclose(fac.solve(spmv(mat, x)), x, rtol=1e-8)

    def test_reusable_across_rhs(self):
        fac = Factorization(SparseMatrix.from_dense(np.diag([1.0, 3.0])))
        np.testing.assert_allclose(fac.solve(np.array([1.0, 3.0])), [1.0, 1.0])
        np.testing.assert_allclose(fac.solve(np.array([2.0, 9.0])), [2.0, 3.0])

    @pytest.mark.parametrize("dense_limit", [1024, 0], ids=["inverse", "superlu"])
    def test_block_solve_matches_vectors(self, monkeypatch, dense_limit):
        from drqp.sparse import Factorization
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", dense_limit)
        rng = np.random.default_rng(12)
        mat, dense = random_sparse(rng, 30, 30)
        fac = Factorization(SparseMatrix.from_dense(dense + 10 * np.eye(30)))
        assert (fac.inverse is None) == (dense_limit == 0)
        B = rng.standard_normal((5, 30))
        X = fac.solve(B)
        assert X.shape == (5, 30)
        for b, x in zip(B, X):
            np.testing.assert_allclose(x, fac.solve(b), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(fac.solve(B[:1])[0], fac.solve(B[0]))
        for bad in (np.ones((5, 29)), np.ones(29), np.ones((2, 5, 30))):
            with pytest.raises(DimensionError):
                fac.solve(bad)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            Factorization(SparseMatrix.from_dense(np.array([[1.0, 1.0],
                                                            [1.0, 1.0]])))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            Factorization(SparseMatrix.from_dense(np.ones((2, 3))))

    @pytest.mark.parametrize("dense", [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-15]],  # pivot ratio 1.1e-15
        [[1.0, 0.0], [0.0, 1e-14]],  # pivot ratio exactly 1e-14
        [[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["zero", "ratio-1e-15", "ratio-1e-14", "exact-3x3"])
    def test_numerically_singular_raises_on_dense_path(self, dense):
        mat = SparseMatrix.from_dense(dense)
        assert mat.nrows <= Factorization._DENSE_LIMIT
        with pytest.raises(SingularMatrixError):
            Factorization(mat)

    @pytest.mark.parametrize("dense_limit", [1024, 0], ids=["inverse", "superlu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, monkeypatch, dense_limit, bad):
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", dense_limit)
        dense = np.eye(3) + 0.1
        dense[1, 2] = bad
        with pytest.raises(SingularMatrixError, match="non-finite"):
            Factorization(SparseMatrix.from_dense(dense))

    def test_ill_conditioned_band_takes_superlu(self):
        # a pivot ratio in (1e-14, 1e-10] is not singular, but too small for an
        # explicit inverse: the dense path hands the matrix to SuperLU
        rng = np.random.default_rng(6)
        dense = np.zeros((9, 9))
        dense[:8, :8] = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        dense[8, 8] = 1e-12
        mat = SparseMatrix.from_dense(dense)
        u = np.abs(np.diag(scipy.linalg.lu_factor(dense)[0]))
        assert 1e-14 < u.min() / u.max() <= 1e-10
        fac = Factorization(mat)
        assert fac.kind == "superlu"
        for _ in range(5):
            b = rng.standard_normal(9)
            x = fac.solve(b)
            assert np.linalg.norm(dense @ x - b) / max(1.0, np.linalg.norm(b)) <= 1e-10
        X = fac.solve(rng.standard_normal((3, 9)))
        assert X.shape == (3, 9)

    @pytest.mark.parametrize("dense_limit", [1024, 0], ids=["inverse", "superlu"])
    def test_kind(self, monkeypatch, dense_limit):
        monkeypatch.setattr(Factorization, "_DENSE_LIMIT", dense_limit)
        fac = Factorization(SparseMatrix.from_dense(np.diag([1.0, 3.0])))
        assert fac.kind == ("dense-inverse" if dense_limit else "superlu")
        with pytest.raises(AttributeError):
            fac.kind = "superlu"


class TestSigmaMax:
    """Operator.sigma_max above the dense limit, where one ARPACK svds call
    gives it; it reads only I_plus_M, so any square matrix can stand in."""

    @pytest.fixture(autouse=True)
    def _above_dense_limit(self, monkeypatch):
        monkeypatch.setattr(model, "_DENSE_LIMIT", 0)

    @staticmethod
    def sigma_max(dense):
        K = SparseMatrix.from_dense(dense)
        return Operator(M=K, I_plus_M=K, n=K.nrows).sigma_max

    def test_identity(self):
        assert self.sigma_max(np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert self.sigma_max(np.diag([1.0, 3.0])) == pytest.approx(3.0, rel=1e-12)

    def test_against_svd_oracle(self):
        dense = np.random.default_rng(6).standard_normal((10, 10))
        truth = np.linalg.svd(dense, compute_uv=False)[0]
        assert self.sigma_max(dense) == pytest.approx(truth, rel=1e-12)

    def test_deterministic(self):
        _, dense = random_sparse(np.random.default_rng(7), 6, 6)
        assert self.sigma_max(dense) == self.sigma_max(dense)

    def test_upper_bound_character(self):
        rng = np.random.default_rng(8)
        _, dense = random_sparse(rng, 7, 7)
        sigma = self.sigma_max(dense)
        for _ in range(20):
            x = rng.standard_normal(7)
            assert sigma >= np.linalg.norm(dense @ x) / np.linalg.norm(x) * (1 - 1e-12)

    def test_non_convergence_flagged(self, monkeypatch):
        # ARPACK allowed one restart does not converge on a 50 x 50 matrix;
        # the bound sqrt(||K||_1 ||K||_inf) stands in
        svds = model.spla.svds
        monkeypatch.setattr(model.spla, "svds", lambda *a, **kw: svds(*a, maxiter=1, **kw))
        dense = np.random.default_rng(9).standard_normal((50, 50))
        bound = math.sqrt(np.linalg.norm(dense, 1) * np.linalg.norm(dense, np.inf))
        assert self.sigma_max(dense) == pytest.approx(bound, rel=1e-15)
        assert bound >= np.linalg.svd(dense, compute_uv=False)[0]
