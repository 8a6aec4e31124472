import numpy as np
import pytest

from drqp.datagen import GenSpec, generate
from drqp.model import (ConeSpec, StandardQP, assemble_inclusion, to_conic)
from drqp.report import prepare_data
from drqp.sparse import SparseMatrix


def build_standard(P, c, A, b, G, h, l, u) -> StandardQP:
    return StandardQP(P=SparseMatrix.from_dense(np.asarray(P, dtype=float)),
                      c=np.asarray(c, dtype=float),
                      A_eq=SparseMatrix.from_dense(np.asarray(A, dtype=float)),
                      b_eq=np.asarray(b, dtype=float),
                      G=SparseMatrix.from_dense(np.asarray(G, dtype=float)),
                      h=np.asarray(h, dtype=float),
                      l=np.asarray(l, dtype=float),
                      u=np.asarray(u, dtype=float))


def one_var_qp() -> StandardQP:
    """min 1/2 x^2  s.t.  x >= 1.  KKT: x* = 1, multiplier on (-x <= -1) is 1."""
    return build_standard(P=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=[],
                          G=[[-1.0]], h=[-1.0],
                          l=[-np.inf], u=[np.inf])


def inclusion_of(qp: StandardQP):
    cqp = to_conic(qp)
    return assemble_inclusion(cqp)


@pytest.fixture(scope="session")
def one_var_data():
    return inclusion_of(one_var_qp())


@pytest.fixture(scope="session")
def desk_datas():
    """Ten small QP(RHS)-family instances shared across solver tests."""
    bundle = generate(GenSpec(family="qp_rhs", count=10, seed=7, n=20))
    return prepare_data(bundle)


@pytest.fixture(scope="session")
def tiny_data():
    """A 3-var / 2-constraint instance (n + m = 5) for oracle-level checks."""
    rng = np.random.default_rng(3)
    P = np.diag(rng.uniform(0.5, 2.0, 3))
    c = rng.standard_normal(3)
    A = rng.standard_normal((1, 3))
    G = rng.standard_normal((1, 3))
    x0 = rng.uniform(-0.5, 0.5, 3)
    qp = build_standard(P, c, A, A @ x0, G, G @ x0 + 1.0,
                        l=np.full(3, -np.inf), u=np.full(3, np.inf))
    return inclusion_of(qp)
