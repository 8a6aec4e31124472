"""Problem representations, conic transformation, cone projection, and quality metrics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import sparse
from .sparse import DimensionError, Factorization, SparseMatrix, aligned_empty

INF = float("inf")


def check_counts(obj, *names: str, least: int = 1, optional: bool = False) -> None:
    """Raise ValueError naming the first field that is not an integer >= least;
    a bool is no count."""
    for name in names:
        value = getattr(obj, name)
        if not (optional and value is None) and (
                not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                or value < least):
            raise ValueError(f"{name} must be >= {least} and an integer")


def check_positive(obj, *names: str, optional: bool = False) -> None:
    """Raise ValueError naming the first field that is not positive and finite;
    a bool is no number."""
    for name in names:
        value = getattr(obj, name)
        if not (optional and value is None) and (isinstance(value, bool)
                                                 or not (0 < value < INF)):
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ConeSpec:
    """Product cone: zero cone block first, then nonnegative cone block."""

    m_zero: int
    m_nonneg: int

    def __post_init__(self):
        if self.m_zero < 0 or self.m_nonneg < 0:
            raise ValueError("cone block sizes must be nonnegative")

    @property
    def m(self) -> int:
        return self.m_zero + self.m_nonneg


@dataclass(frozen=True)
class StandardQP:
    """QP with equalities, inequalities and box bounds.

    minimize 0.5 x'Px + c'x  s.t.  A_eq x = b_eq, G x <= h, l <= x <= u.
    Bound entries may be +-inf.
    """

    P: SparseMatrix
    c: np.ndarray
    A_eq: SparseMatrix
    b_eq: np.ndarray
    G: SparseMatrix
    h: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        n = self.P.nrows
        for name in ("c", "b_eq", "h", "l", "u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.P.ncols != n:
            raise DimensionError("P must be square")
        if self.c.shape != (n,):
            raise DimensionError("c length must equal n")
        if self.A_eq.ncols != n or self.G.ncols != n:
            raise DimensionError("constraint matrices must have n columns")
        if self.b_eq.shape != (self.A_eq.nrows,) or self.h.shape != (self.G.nrows,):
            raise DimensionError("right-hand side length mismatch")
        if self.l.shape != (n,) or self.u.shape != (n,):
            raise DimensionError("bounds must have length n")
        if not np.isfinite(np.concatenate([self.c, self.b_eq, self.h])).all():
            raise ValueError("c, b_eq and h must be finite")
        if not all(np.isfinite(mat.values).all() for mat in (self.P, self.A_eq, self.G)):
            raise ValueError("P, A_eq and G must be finite")
        # false for a NaN bound, and for l = +inf or u = -inf, which to_conic
        # would drop as if the side were unbounded
        if not ((self.l <= self.u) & (self.l < INF) & (self.u > -INF)).all():
            raise ValueError("l <= u must hold elementwise, with l < inf, u > -inf and no NaN")
        self.P.psd_checked  # raises unless P is symmetric PSD; cached on P

    @property
    def n(self) -> int:
        return self.P.nrows

    @property
    def conic_rows(self) -> int:
        """The row count m of to_conic's A: equalities, inequalities and finite bounds."""
        return (self.A_eq.nrows + self.G.nrows
                + int(np.isfinite(self.l).sum() + np.isfinite(self.u).sum()))

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.P._csr @ x) + self.c @ x)


@dataclass(frozen=True)
class ConicQP:
    """Conic-form QP: minimize 0.5 x'Px + c'x  s.t.  Ax + s = b, s in cone."""

    P: SparseMatrix
    c: np.ndarray
    A: SparseMatrix
    b: np.ndarray
    cone: ConeSpec

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        n = self.P.nrows
        if self.P.ncols != n or self.c.shape != (n,):
            raise DimensionError("P/c dimensions inconsistent")
        if self.A.ncols != n or self.b.shape != (self.A.nrows,):
            raise DimensionError("A/b dimensions inconsistent")
        if self.cone.m != self.A.nrows:
            raise DimensionError("cone size must equal row count of A")
        self.P.psd_checked  # raises unless P is symmetric PSD; cached on P

    @property
    def n(self) -> int:
        return self.P.nrows

    @property
    def m(self) -> int:
        return self.A.nrows

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.P._csr @ x) + self.c @ x)


def to_conic(qp: StandardQP) -> ConicQP:
    """Transform a StandardQP into conic form.

    The rows of A are, in order: the equalities (the zero-cone block), then
    the inequalities, the finite lower bounds as -x_i <= -l_i and the finite
    upper bounds as x_i <= u_i (the nonnegative block). Rows with infinite
    bounds are dropped.
    """
    n = qp.n
    eye = sp.identity(n, format="csr")
    blocks = []
    rhs = []

    m_zero = qp.A_eq.nrows
    if m_zero:
        blocks.append(qp.A_eq._csr)
        rhs.append(qp.b_eq)

    if qp.G.nrows:
        blocks.append(qp.G._csr)
        rhs.append(qp.h)

    lb_rows = np.flatnonzero(np.isfinite(qp.l))
    if lb_rows.size:
        blocks.append(-eye[lb_rows])
        rhs.append(-qp.l[lb_rows])

    ub_rows = np.flatnonzero(np.isfinite(qp.u))
    if ub_rows.size:
        blocks.append(eye[ub_rows])
        rhs.append(qp.u[ub_rows])

    if blocks:
        A = SparseMatrix.from_scipy(sp.vstack(blocks, format="csr"))
        b = np.concatenate(rhs)
    else:
        A = SparseMatrix(0, n, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                         np.zeros(0))
        b = np.zeros(0)

    cone = ConeSpec(m_zero=m_zero, m_nonneg=A.nrows - m_zero)
    return ConicQP(P=qp.P, c=qp.c, A=A, b=b, cone=cone)


# Largest operator order for which the network's channel products use a
# dense copy of I+M and sigma_max is the exact dense 2-norm.
_DENSE_LIMIT = 2048
# passes of Operator.equilibration: 5, 10, 15 and 25 gave 2,604, 2,512, 2,514
# and 2,513 mean DR-GD iterations, and 104.5, 106.5, 106.5 and 106.5 mean DR
# iterations, on portfolio k=5 (data seed 0, 6 instances)
_RUIZ_PASSES = 10


def _identity_plus(N: int, rows, cols, vals) -> SparseMatrix:
    """I plus the order-N matrix of these triplets, zeros dropped as a sparse
    sum drops them."""
    eye = np.arange(N)
    return SparseMatrix.from_triplets(N, N, np.r_[rows, eye], np.r_[cols, eye],
                                      np.r_[vals, np.ones(N)], drop_zeros=True)


def _dense_identity_plus(N: int, rows, cols, vals) -> np.ndarray:
    """_identity_plus(...).to_dense() bit for bit in Fortran order; one triplet to a place."""
    Kt = np.zeros((N, N))  # C-ordered, so its transpose is K in Fortran order
    Kt[cols, rows] += vals  # 0 + -0.0 is 0, as a dropped zero is
    Kt.reshape(-1)[::N + 1] += 1.0
    return Kt.T


@dataclass(frozen=True, eq=False)
class Operator:
    """K = I+M for one (P, A), with M = [[P, A'], [-A, 0]].

    Everything derived from K is computed on first use and cached, so
    problems that share an Operator share its factorization, channel
    products, sigma_max, equilibration, DR-GD's resolvent scale and scaled
    operator, DR's scaled resolvent, equality-block pseudo-inverses and DR-GD
    step operator (for one step size at a time).
    """

    M: SparseMatrix
    I_plus_M: SparseMatrix
    n: int  # order of P: u = (x; y) has x = u[:n]
    # zero-cone size -> pseudo-inverse of the equality block, see equality_pinv
    _equality_pinvs: dict = field(default_factory=dict, init=False, repr=False)
    # step size -> its DR-GD step operator, for the last one asked for only
    _step_operators: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def assemble(cls, P: SparseMatrix, A: SparseMatrix) -> "Operator":
        n, N = P.nrows, P.nrows + A.nrows
        # triplets of P, A' and -A
        rows_A = np.repeat(np.arange(n, N), np.diff(A.indptr))
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(P.indptr)), A.indices, rows_A])
        cols = np.concatenate([P.indices, rows_A, A.indices])
        vals = np.concatenate([P.values, A.values, -A.values])
        return cls._of_triplets(N, n, rows, cols, vals)

    @classmethod
    def _of_triplets(cls, N: int, n: int, rows, cols, vals) -> "Operator":
        """The operator of the order-N M with these triplets."""
        return cls(SparseMatrix.from_triplets(N, N, rows, cols, vals),
                   _identity_plus(N, rows, cols, vals), n)

    @property
    def size(self) -> int:
        return self.I_plus_M.nrows

    @cached_property
    def factorization(self) -> Factorization:
        """Factorization of I+M, computed on first use and reused by every DR
        solve on it; DR on an equilibrated operator uses scaled_resolvent's."""
        return Factorization(self.I_plus_M)

    @cached_property
    def channel_operator(self):
        """(K, K') for products of I+M with (n+m) x d channel arrays.

        Dense up to _DENSE_LIMIT, where BLAS beats sparse dispatch overhead on
        desk-scale problems; the cached CSR pair above it.
        """
        if self.size <= _DENSE_LIMIT:
            K = self.I_plus_M.dense
            return K, K.T
        return self.I_plus_M._csr, self.I_plus_M._csr_t

    def step_operator(self, eta: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A' = [I - eta K'K | eta K'], the (N, 2N) row-major operator of a
        DR-GD step: A' [u_tilde | w] - A' [0 | q] = u_tilde - eta K'(K u_tilde
        - (w - q)), one GEMV per step on one row.

        Built without temporaries, on DR-GD solves of an operator with a
        dense channel pair: K' goes into the right half and K'K, the product
        of that half with its transpose, into the left. Never for the CSR
        pair above _DENSE_LIMIT, where K'K of a sparse K fills in. Without
        out it is cached for the last eta asked for only; with out, a
        C-ordered (N, 2N) array such as one slice of a stack, it is written
        there and not cached.
        """
        if out is None and eta in self._step_operators:
            return self._step_operators[eta]
        K, N = self.channel_operator[0], self.size
        if out is None:
            self._step_operators.clear()
            out = self._step_operators[eta] = aligned_empty((N, 2 * N))
        left, right = out[:, :N], out[:, N:]
        np.copyto(right, K.T)
        np.matmul(right, right.T, out=left)
        left *= -eta
        out.reshape(-1)[::2 * N + 1] += 1.0
        right *= eta
        return out

    @cached_property
    def sigma_max(self) -> float:
        """The largest singular value of I+M, for the step-size caps
        rho / sigma_max^2, or an upper bound on it.

        The exact dense 2-norm up to _DENSE_LIMIT. Above it one ARPACK svds
        call from a seeded start vector; should ARPACK not converge, the
        bound sqrt(||K||_1 ||K||_inf), which is never below the true value.
        """
        if self.size <= _DENSE_LIMIT:
            return float(np.linalg.norm(self.I_plus_M.dense, 2))
        K = self.I_plus_M._csr
        v0 = np.random.default_rng(0).standard_normal(self.size)
        try:
            return float(spla.svds(K, k=1, v0=v0, return_singular_vectors=False)[0])
        except spla.ArpackNoConvergence:
            absK = abs(K)
            return float(math.sqrt(absK.sum(axis=0).max() * absK.sum(axis=1).max()))

    @cached_property
    def equilibration(self) -> Optional[np.ndarray]:
        """s of _RUIZ_PASSES passes of modified Ruiz equilibration of |M|
        (Ruiz 2001; OSQP scales [[P, A'], [A, 0]] so) where some column of
        I+M has 2-norm^2 > 2, else None: each pass divides s by the square
        roots of the column maxima of |s_i M_ij s_j|, a zero column's by 1.

        The gate implies sigma_max(I+M)^2 > 2 with no SVD, and decides as it
        on every generated family. |M| is symmetric, so column j's maximum is
        row j's (s_k |M_jk|) s_j, bit for bit the dense (s_i |M_ij|) s_j.
        """
        K, M, N = self.I_plus_M, self.M, self.size
        if np.bincount(K.indices, K.values ** 2, N).max(initial=0.0) <= 2.0:
            return None
        lengths = np.diff(M.indptr)
        rows, starts = np.repeat(np.arange(N), lengths), M.indptr[:-1][lengths > 0]
        absM, peak, s = np.abs(M.values), np.ones(N), np.ones(N)
        for _ in range(_RUIZ_PASSES):
            peak[lengths > 0] = np.maximum.reduceat(s[M.indices] * absM * s[rows], starts)
            s /= np.sqrt(np.where(peak > 0.0, peak, 1.0))
        return s

    def _sms(self) -> tuple:
        """(rows, values) of SMS, S = diag(equilibration), on M's CSR pattern."""
        M, s = self.M, self.equilibration
        rows = np.repeat(np.arange(self.size), np.diff(M.indptr))
        return rows, s[rows] * M.values * s[M.indices]

    def _equilibrated(self, alpha: float) -> "Operator":
        """The operator of alpha SMS."""
        rows, values = self._sms()
        return Operator._of_triplets(self.size, self.n, rows, self.M.indices, alpha * values)

    @cached_property
    def resolvent_scale(self) -> float:
        """alpha = (sigma^2 - 1)^(-1/2) for sigma = sigma_max(I + SMS) when
        sigma^2 > 2, else 1: DR-GD's scale, whose rows carry the bound
        ||alpha SMS|| <= 1 shown below; 1 where not equilibrated. sigma is the
        2-norm of the dense I + SMS up to _DENSE_LIMIT, with no operator built.

        0 in Mu + q + N(u) and 0 in alpha SMS v + alpha Sq + N(v), u = Sv,
        have the same solutions for every alpha > 0 and positive diagonal S,
        as N(u) is a product of cones of single coordinates. For unit x,
        ||(I+SMS)x||^2 = 1 + 2 x'SPSx + ||SMSx||^2 >= 1 + ||SMSx||^2 (the
        skew part drops out of x'SMSx), so ||alpha SMS|| <= 1 and
        sigma_max(I + alpha SMS) <= 2; an upper bound in place of sigma keeps
        both.
        """
        if self.equilibration is None:
            return 1.0
        (rows, sms), N = self._sms(), self.size
        s2 = (self._equilibrated(1.0).sigma_max if N > _DENSE_LIMIT else float(
            np.linalg.norm(_dense_identity_plus(N, rows, self.M.indices, sms), 2))) ** 2
        return 1.0 if s2 <= 2.0 else (s2 - 1.0) ** -0.5

    @cached_property
    def scaled(self) -> "Operator":
        """The operator of the inclusion DR-GD's default step iterates on:
        alpha SMS and I + alpha SMS, S = diag(equilibration) and alpha =
        resolvent_scale, with everything derived from it cached on it; self
        where the operator is not equilibrated. DR's is scaled_resolvent."""
        if self.equilibration is None:
            return self
        return self._equilibrated(self.resolvent_scale)

    @cached_property
    def scaled_resolvent(self) -> Optional["Resolvent"]:
        """DR's inclusion 0 in alpha SMS v + alpha Sq + N(v), S =
        diag(equilibration), kept as the factorization of I + alpha SMS,
        alpha and bound alone (None where not equilibrated): alpha the largest
        column 2-norm of SMS, a lower bound on ||SMS||, and bound = alpha
        min(max row abs-sum, Frobenius norm) of SMS >= ||alpha SMS||. I + alpha
        SMS is scattered dense up to Factorization._DENSE_LIMIT, assembled above."""
        if self.equilibration is None:
            return None
        (rows, sms), N, cols = self._sms(), self.size, self.M.indices
        alpha = math.sqrt(np.bincount(cols, sms ** 2, N).max())
        bound = alpha * min(np.bincount(rows, np.abs(sms), N).max(), math.sqrt(sms @ sms))
        # the class's own limit: tests may stand a function in for model.Factorization
        build = _dense_identity_plus if N <= sparse.Factorization._DENSE_LIMIT else _identity_plus
        return Resolvent(Factorization(build(N, rows, cols, alpha * sms)), alpha, bound)

    def equality_pinv(self, m_zero: int) -> np.ndarray:
        """Pseudo-inverse of the equality block A_eq' of M (rows :n, columns
        n:n+m_zero), the least-squares operator of the zero-cone dual
        completion; computed on first use for each zero-cone size.

        Singular values up to eps * max(shape) times the largest count as
        zero, the cutoff of np.linalg.lstsq with rcond=None.
        """
        pinv = self._equality_pinvs.get(m_zero)
        if pinv is None:
            At = self.M._csr[:self.n, self.n:self.n + m_zero].toarray()
            pinv = np.linalg.pinv(At, rtol=np.finfo(np.float64).eps * max(At.shape))
            self._equality_pinvs[m_zero] = pinv
        return pinv


@dataclass(frozen=True, eq=False)
class Resolvent:
    """The factorization of I + scale SMS, with bound >= ||scale SMS||: the
    operator of a row of MonotoneData.scaled(resolvent=True)."""

    factorization: Factorization
    scale: float
    bound: float


@dataclass(frozen=True, eq=False)
class MonotoneData:
    """Assembled monotone-inclusion data for a conic QP: the operator
    K = I+M, q = (c; b) and the cone.

    Everything else derived from K is read from the operator, which problems
    with the same (P, A) may share; I_plus_M and sigma_max are forwarded.
    A row of scaled() iterates on its problem's inclusion equilibrated by
    diag and scaled by scale, and bound >= ||scale SMS|| sets its stop.
    """

    operator: Operator
    q: np.ndarray
    cone: ConeSpec
    n: int
    m: int
    cqp: ConicQP
    scale: float = 1.0
    diag: Optional[np.ndarray] = None  # s of a scaled() row: u = s * its own u
    bound: float = 1.0

    @property
    def size(self) -> int:
        return self.n + self.m

    def scaled(self, resolvent: bool = False) -> "MonotoneData":
        """This row on 0 in alpha SMS v + alpha Sq + N(v), u = Sv, with S =
        diag(s) the operator's equilibration: (alpha s) q, scale alpha and
        diag s, with the original cqp, so quality() and reports describe the
        problem itself: DR-GD's on operator.scaled at resolvent_scale and
        bound 1, or DR's (resolvent) on operator.scaled_resolvent at its
        scale and bound. The row itself where the operator is not
        equilibrated, or when it is scaled already."""
        op = self.operator
        if self.diag is not None or op.equilibration is None:
            return self
        s, r = op.equilibration, op.scaled_resolvent if resolvent else None
        target, alpha, bound = (r, r.scale, r.bound) if r else (op.scaled, op.resolvent_scale, 1.0)
        return replace(self, operator=target, q=alpha * s * self.q, scale=alpha, diag=s,
                       bound=bound)

    @property
    def I_plus_M(self) -> SparseMatrix:
        return self.operator.I_plus_M

    @property
    def sigma_max(self) -> float:
        return self.operator.sigma_max


def matrix_key(mat: SparseMatrix) -> tuple:
    """A key that two matrices share exactly when their shapes and bytes are equal."""
    return (mat.nrows, mat.ncols) + tuple(a.tobytes() for a in (mat.indptr, mat.indices,
                                                                 mat.values))


def assemble_inclusion(cqp: ConicQP, operators: Optional[dict] = None) -> MonotoneData:
    """Build the monotone-inclusion data of a conic QP.

    operators, when given, holds the operators already built by the caller
    for other problems, each with the conic A it was built from; a problem
    with the same (P, A) as one of them shares its Operator and its A object
    (so quality's cached transpose of A serves them all), and a new one is
    added to it.
    """
    operators = {} if operators is None else operators
    key = (matrix_key(cqp.P), matrix_key(cqp.A))
    if key not in operators:
        operators[key] = (Operator.assemble(cqp.P, cqp.A), cqp.A)
    operator, A = operators[key]
    if A is not cqp.A:
        cqp = replace(cqp, A=A)
    return MonotoneData(operator=operator, q=np.concatenate([cqp.c, cqp.b]),
                        cone=cqp.cone, n=cqp.n, m=cqp.m, cqp=cqp)


def project_cone_dual(v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Project u = (x; y) onto R^n x dual-cone: identity on free coordinates,
    max(0, .) on coordinates dual to the nonnegative block.

    v is a vector or an (n+m) x d channel array, projected row-wise.
    """
    out = np.array(v, dtype=np.float64)
    dual = out[out.shape[0] - spec.m_nonneg:]
    np.maximum(dual, 0.0, out=dual)
    return out


@dataclass(frozen=True)
class QualityMetrics:
    objective: float
    max_eq_viol: float
    max_ineq_viol: float
    dual_residual_inf: float
    complementarity: float

    @property
    def max_viol(self) -> float:
        return max(self.max_eq_viol, self.max_ineq_viol)


def l2_distance(x: np.ndarray, y: np.ndarray,
                reference: tuple[np.ndarray, np.ndarray]) -> float:
    """Euclidean distance from (x, y) to the reference (x*, y*), which must
    have their shapes.

    The scaled BLAS norm cannot overflow while the distance itself is finite.
    """
    xs, ys = reference
    if np.shape(xs) != np.shape(x) or np.shape(ys) != np.shape(y):
        raise DimensionError("l2_distance: reference shape mismatch")
    return float(scipy.linalg.norm(np.concatenate([x - xs, y - ys]), check_finite=False))


def quality(cqp: ConicQP, x: np.ndarray, y: np.ndarray) -> QualityMetrics:
    """KKT-based solution quality of a primal-dual pair (x, y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (cqp.n,) or y.shape != (cqp.m,):
        raise DimensionError("quality: x/y dimension mismatch")
    s = cqp.b - cqp.A._csr @ x
    mz = cqp.cone.m_zero
    s_eq, s_in = s[:mz], s[mz:]
    max_eq = float(np.abs(s_eq).max()) if s_eq.size else 0.0
    max_in = float(np.abs(np.minimum(s_in, 0.0)).max()) if s_in.size else 0.0
    dual = cqp.P._csr @ x + cqp.A._csr_t @ y + cqp.c
    comp = float(abs(s_in @ y[mz:])) if s_in.size else 0.0
    return QualityMetrics(
        objective=cqp.objective(x),
        max_eq_viol=max_eq,
        max_ineq_viol=max_in,
        dual_residual_inf=float(np.abs(dual).max()) if dual.size else 0.0,
        complementarity=comp,
    )


# -- instance file format ---------------------------------------------------
#
# Text document (JSON) holding n, m1, m2, the three matrices P, A_eq and G
# as (offsets, indices, values) triplets, vectors, bounds with "inf"/"-inf"
# sentinels and optional reference labels. In a bundle's instance files each
# matrix is instead an index into the matrix table of the bundle's manifest.
# Floats round-trip bit-exactly through repr.

FORMAT_VERSION = 1


def matrix_to_doc(A: SparseMatrix) -> dict:
    return {
        "nrows": A.nrows,
        "ncols": A.ncols,
        "offsets": A.indptr.tolist(),
        "indices": A.indices.tolist(),
        "values": A.values.tolist(),
    }


def matrix_from_doc(doc, matrices: dict, table=()) -> SparseMatrix:
    """The matrix of a matrix document, or of an index into table, the
    matrices of a bundle's manifest; a document equal to a matrix in
    matrices, by shape and bytes, is that object, and a new one is added."""
    if not isinstance(doc, dict):
        if type(doc) is not int or not 0 <= doc < len(table):
            raise ValueError(f"matrix reference {doc!r} is not an index into a matrix "
                             f"table of {len(table)} entries")
        return table[doc]
    parts = (np.asarray(doc["offsets"], dtype=np.int64),
             np.asarray(doc["indices"], dtype=np.int64),
             np.asarray(doc["values"], dtype=np.float64))
    # matrix_key of the matrix these parts make
    key = (doc["nrows"], doc["ncols"]) + tuple(a.tobytes() for a in parts)
    if key not in matrices:
        if not np.isfinite(parts[2]).all():  # an overflowed literal such as 1e999
            raise ValueError("matrix values must be finite")
        matrices[key] = SparseMatrix(doc["nrows"], doc["ncols"], *parts)
    return matrices[key]


def _bounds_to_doc(v: np.ndarray) -> list:
    return ["inf" if x == INF else "-inf" if x == -INF else x for x in v.tolist()]


def _bounds_from_doc(lst: list) -> np.ndarray:
    return np.array([INF if x == "inf" else -INF if x == "-inf" else float(x)
                     for x in lst], dtype=np.float64)


def instance_to_doc(qp: StandardQP,
                    labels: Optional[tuple[np.ndarray, np.ndarray]] = None,
                    matrix_doc=matrix_to_doc) -> dict:
    """The instance document; matrix_doc gives the entry of each of P, A_eq
    and G: its matrix document, or a bundle's index into its matrix table."""
    return {
        "format_version": FORMAT_VERSION,
        "n": qp.n,
        "m1": qp.A_eq.nrows,
        "m2": qp.G.nrows,
        "P": matrix_doc(qp.P),
        "c": qp.c.tolist(),
        "A_eq": matrix_doc(qp.A_eq),
        "b_eq": qp.b_eq.tolist(),
        "G": matrix_doc(qp.G),
        "h": qp.h.tolist(),
        "l": _bounds_to_doc(qp.l),
        "u": _bounds_to_doc(qp.u),
        "labels": None if labels is None else {
            "x": labels[0].tolist(),
            "y": labels[1].tolist(),
        },
    }


def instance_from_doc(doc: dict, matrices: Optional[dict] = None, table=()):
    """(StandardQP, labels or None) of an instance document; labels must hold
    x of length n and y of the conic row count.

    matrices, when given, holds the matrices already read by the caller; a
    matrix equal to one of them, by shape and bytes, is that object, so
    instances read into one dict share it (and P's checks run once), and a
    new one is added to it. A matrix given as an index is that entry of
    table, the matrix table of the bundle the document belongs to.
    """
    matrices = {} if matrices is None else matrices
    qp = StandardQP(
        P=matrix_from_doc(doc["P"], matrices, table),
        c=np.asarray(doc["c"], dtype=np.float64),
        A_eq=matrix_from_doc(doc["A_eq"], matrices, table),
        b_eq=np.asarray(doc["b_eq"], dtype=np.float64),
        G=matrix_from_doc(doc["G"], matrices, table),
        h=np.asarray(doc["h"], dtype=np.float64),
        l=_bounds_from_doc(doc["l"]),
        u=_bounds_from_doc(doc["u"]),
    )
    labels = None
    if doc.get("labels") is not None:
        labels = (np.asarray(doc["labels"]["x"], dtype=np.float64),
                  np.asarray(doc["labels"]["y"], dtype=np.float64))
        if labels[0].shape != (qp.n,) or labels[1].shape != (qp.conic_rows,):
            raise ValueError(f"labels must hold x of length {qp.n} and y of length "
                             f"{qp.conic_rows}, the conic row count")
        if not np.isfinite(np.concatenate(labels)).all():
            raise ValueError("labels must be finite")
    return qp, labels


def write_instance(path, qp: StandardQP, labels=None) -> None:
    write_json(path, instance_to_doc(qp, labels))


def read_instance(path, matrices: Optional[dict] = None, table=()):
    """instance_from_doc of the file at path; matrices and table as there. A
    malformed file raises ValueError naming path."""
    return read_json(path, "instance file", lambda doc: instance_from_doc(doc, matrices, table),
                     (FORMAT_VERSION,))


def write_json(path, doc) -> None:
    """Write doc to path as compact strict JSON with sorted keys and a final
    newline; a non-finite float raises ValueError before the file is opened."""
    # dumps takes json's C encoder (without indent), dump its pure-Python one
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def read_json(path, what: str, parse, versions: tuple, key: str = "format_version"):
    """parse(doc) of the strict JSON object at path whose key holds one of
    versions; malformed JSON (its message names line and column), the
    NaN/Infinity tokens json accepts by default, another version (named with
    the versions expected), or a KeyError, AttributeError, TypeError or
    ValueError from parse is one ValueError naming path and what; OSError
    passes."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            version = doc.get(key)
            # by type and value: True == 1 and 2.0 == 2, but neither is a version
            if not any(type(version) is type(v) and version == v for v in versions):
                raise ValueError(f"unsupported version {version!r}, expected "
                                 + " or ".join(map(repr, versions)))
            return parse(doc)
        except KeyError as exc:
            raise ValueError(f"{path}: malformed {what}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed {what}: {exc}") from exc
