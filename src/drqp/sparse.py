"""Sparse CSR matrices, their product, and a reusable LU factorization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


_PSD_PROBES = 20
_PSD_TOL = 1e-10


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class SingularMatrixError(ValueError):
    """Matrix is structurally or numerically singular."""


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix.

    Row offsets must be non-decreasing with length nrows+1; column indices
    must be strictly increasing within each row, so duplicate entries are
    rejected at construction.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionError("negative matrix dimension")
        if indptr.shape != (self.nrows + 1,):
            raise DimensionError("indptr must have length nrows+1")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("row offsets must start at 0 and be non-decreasing")
        if indices.shape[0] != indptr[-1] or values.shape[0] != indptr[-1]:
            raise ValueError("index/value count must equal last row offset")
        if indices.size and (indices.min() < 0 or indices.max() >= self.ncols):
            raise ValueError("column index out of range")
        # a step from entry k to entry k+1 must increase unless entry k+1
        # starts a row; row starts of empty rows at 0 or nnz bound no step
        step_ok = np.diff(indices) > 0
        starts = indptr[1:-1]
        step_ok[starts[(starts > 0) & (starts < indices.size)] - 1] = True
        bad = np.flatnonzero(~step_ok)
        if bad.size:
            i = int(np.searchsorted(indptr, bad[0] + 1, side="right")) - 1
            raise ValueError(
                f"row {i}: column indices must be strictly increasing "
                "(duplicates are rejected)"
            )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        values.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.shape[1], csr.indptr.copy(),
                   csr.indices.copy(), csr.data.copy())

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError("dense input must be 2-D")
        return cls.from_scipy(sp.csr_matrix(arr))

    @classmethod
    def from_triplets(cls, nrows: int, ncols: int, rows, cols, vals,
                      drop_zeros: bool = False) -> "SparseMatrix":
        """CSR from int64 row and column arrays and a float64 value array, duplicates
        summed; drop_zeros leaves out entries that are or sum to zero, as scipy does."""
        key = rows * ncols + cols
        order = np.argsort(key, kind="stable")  # runs of sorted keys merge fast
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        key, vals = key[order][first], np.add.reduceat(vals[order], first)
        if drop_zeros:
            key, vals = key[vals != 0], vals[vals != 0]
        indptr = np.bincount(key // ncols + 1, minlength=nrows + 1).cumsum()
        return cls(nrows, ncols, indptr, key % ncols, vals)

    # -- copies: the matrix is immutable, so a deep copy is the matrix itself;
    # a pickle or shallow copy rebuilds it through the validating constructor

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (SparseMatrix, (self.nrows, self.ncols, self.indptr, self.indices,
                               self.values))

    # -- cached backends ---------------------------------------------------

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.indices, self.indptr), shape=(self.nrows, self.ncols)
        )

    @cached_property
    def _csr_t(self) -> sp.csr_matrix:
        return self._csr.T.tocsr()

    @cached_property
    def dense(self) -> np.ndarray:
        """The dense matrix, read-only and cached, so deep copies share it as
        they share _csr; to_dense() gives a writable copy."""
        arr = self._csr.toarray()
        arr.setflags(write=False)
        return arr

    # -- problem checks ----------------------------------------------------

    @cached_property
    def psd_checked(self) -> bool:
        """Exact symmetry and _PSD_PROBES seeded PSD probes, as a quadratic
        term must pass; True, or ValueError.

        Only a pass is cached: a matrix shared by many problems is checked
        once, and a failing one raises on every access.
        """
        # exact structural + value comparison against the transpose
        Pt = self.transpose()
        if not (np.array_equal(self.indptr, Pt.indptr)
                and np.array_equal(self.indices, Pt.indices)
                and np.array_equal(self.values, Pt.values)):
            raise ValueError("P must be exactly symmetric")
        rng = np.random.default_rng(0)
        for _ in range(_PSD_PROBES):
            x = rng.standard_normal(self.ncols)
            if x @ (self._csr @ x) < -_PSD_TOL * (x @ x):
                raise ValueError("P failed the PSD probe check")
        return True

    # -- queries -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self._csr_t)


def spmv(A: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product A @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise DimensionError(f"spmv: x has shape {x.shape}, expected ({A.ncols},)")
    return A._csr @ x


def aligned_empty(shape: tuple) -> np.ndarray:
    """np.empty(shape) from a 64-byte boundary, where OpenBLAS's GEMV reads rows fastest."""
    raw = np.empty(math.prod(shape) + 8)
    return raw[-raw.ctypes.data % 64 // 8:][:math.prod(shape)].reshape(shape)


class Factorization:
    """Reusable LU factorization of a square nonsingular matrix A, a
    SparseMatrix or a dense float64 array: a dense LAPACK LU and the explicit
    inverse built from it, so solve() is one BLAS product, up to _DENSE_LIMIT
    and above a pivot ratio of 1e-10; SuperLU otherwise, which alone turns a
    dense A (left as it is) into a SparseMatrix. inverse is that C-ordered,
    64-byte aligned inverse, or None on the SuperLU path. DR multiplies by it
    directly, bound once per block, and calls solve() only on SuperLU's.

    solve() is re-entrant for distinct right-hand sides and satisfies
    ||Ax - b|| / max(1, ||b||) <= 1e-10 for well-conditioned A.
    """

    # below this order, the inverse beats the SuperLU call overhead on
    # desk-scale systems
    _DENSE_LIMIT = 1024

    def __init__(self, A: SparseMatrix | np.ndarray):
        dense = isinstance(A, np.ndarray)
        if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError("factorize: matrix must be square")
        if not np.all(np.isfinite(A if dense else A.values)):
            raise SingularMatrixError("matrix has non-finite entries")
        self.shape, self.inverse, self._lu = A.shape, None, None
        if 0 < A.shape[0] <= self._DENSE_LIMIT:
            lu, piv, _ = lapack.dgetrf(A if dense else A._csr.toarray(order="F"),
                                       overwrite_a=not dense)
            if _inverse_safe(np.diagonal(lu)):
                # getrs against I, C-ordered: how np.linalg.inv builds its inverse
                inv = lapack.dgetrs(lu, piv, np.eye(A.shape[0], order="F"), overwrite_b=True)[0]
                self.inverse = aligned_empty(inv.shape)
                self.inverse[...] = inv
                return
        self._A = A = SparseMatrix.from_dense(A) if dense else A
        try:
            self._lu = spla.splu(A._csr.tocsc())
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrixError(str(exc)) from exc
        _inverse_safe(self._lu.U.diagonal())

    @property
    def kind(self) -> str:
        """How solve() works: "dense-inverse" or "superlu"."""
        return "dense-inverse" if self.inverse is not None else "superlu"

    def __reduce__(self):  # SuperLU does not pickle: such a copy factorizes A again
        return (Factorization, (self._A,)) if self._lu is not None else super().__reduce__()

    def solve(self, b: np.ndarray, out=None) -> np.ndarray:
        """x with A x = b for a vector b, or for each row of a B x n block;
        written into out, an array of b's shape, when given."""
        b = np.asarray(b, dtype=np.float64)
        n = self.shape[0]
        if b.ndim not in (1, 2) or b.shape[-1] != n:
            raise DimensionError(f"solve: b has shape {b.shape}, expected ({n},) or (B, {n})")
        if self.inverse is not None:
            return np.matmul(b, self.inverse.T, out=out)
        if out is None:
            return self._lu.solve(b.T).T
        out[...] = self._lu.solve(b.T).T
        return out


def _inverse_safe(u_diag: np.ndarray) -> bool:
    """True when an LU's pivot ratio allows an inverse (> 1e-10); raises at <= 1e-14."""
    du = np.abs(u_diag)
    if du.size and du.min() <= du.max() * 1e-14:
        raise SingularMatrixError("numerically singular matrix")
    return bool(du.size) and du.min() > du.max() * 1e-10

