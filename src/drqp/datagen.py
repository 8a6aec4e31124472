"""Seeded generators for the synthetic QP families, labeling, splits, and I/O."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .model import (INF, StandardQP, SparseMatrix, assemble_inclusion, check_counts,
                    check_positive, instance_to_doc, matrix_from_doc, matrix_key,
                    matrix_to_doc, read_instance, read_json, to_conic, write_json)
from .solvers import SolverConfig, dr_solve_batch

QP_RHS = "qp_rhs"
QP_PERTURBED = "qp_perturbed"
PORTFOLIO = "portfolio"

FAMILIES = (QP_RHS, QP_PERTURBED, PORTFOLIO)

# 2: each distinct matrix once, in the manifest's matrix table, which the
# instance files index; 1: every matrix inline in its instance file
MANIFEST_VERSION = 2


@dataclass(frozen=True)
class GenSpec:
    family: str
    count: int
    seed: int = 0
    n: Optional[int] = None      # QP families: variable count (even)
    k: Optional[int] = None      # portfolio: factor count
    perturbation: float = 0.1    # half-width for qp_perturbed factors
    margin: float = 1.0          # inequality feasibility margin

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        check_counts(self, "count", "n", "k", optional=True)
        # factors U[1-w, 1+w] stay positive; h keeps a positive margin on the witness box
        if isinstance(self.perturbation, bool) or not (0 <= self.perturbation < 1):
            raise ValueError("perturbation must lie in [0, 1)")
        check_positive(self, "margin")
        if self.family in (QP_RHS, QP_PERTURBED):
            if self.n is None or self.n < 2 or self.n % 2:
                raise ValueError("QP families need even n >= 2")
        elif self.k is None:
            raise ValueError("portfolio needs k >= 1")


@dataclass
class DatasetBundle:
    family: str
    instances: list
    labels: Optional[list]       # (x*, y*) per instance, or None per entry
    split: Optional[dict]        # {"train": idx, "val": idx, "test": idx}
    seed: int
    spec: Optional[GenSpec] = None

    def __post_init__(self):
        if not self.instances:
            raise ValueError("a bundle needs at least one instance")
        if self.labels is not None and len(self.labels) != len(self.instances):
            raise ValueError("labels length must match instances")
        if self.split is not None:
            if set(self.split) != {"train", "val", "test"}:
                raise ValueError("split must hold exactly the sets train, val and test")
            all_idx = [i for v in self.split.values() for i in v]
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       and 0 <= i < len(self) for i in all_idx):
                raise ValueError(f"split indices must be integers in [0, {len(self)})")
            if len(set(all_idx)) != len(all_idx):
                raise ValueError("split sets must be disjoint")

    def __len__(self) -> int:
        return len(self.instances)


def _sparsify(rng, dense: np.ndarray, density: float = 0.5) -> np.ndarray:
    mask = rng.random(dense.shape) < density
    out = dense * mask
    # keep every row nonempty so constraints stay meaningful
    for i in range(out.shape[0]):
        if not out[i].any():
            j = rng.integers(out.shape[1])
            out[i, j] = dense[i, j] if dense[i, j] != 0 else 1.0
    return out


def _row_normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


# Block scalings for the QP families.  Keeping sigma_max(I + M) close to 1
# puts a single exact-line-search gradient step close to the full resolvent
# solve, so the gradient-step solver tracks the splitting solver instead of
# trailing it by an order of magnitude.  Finite box bounds would reinsert
# identity rows into the conic constraint block and push sigma_max back
# above 1.8 regardless of scaling, so the QP families leave x unbounded.
_P_SCALE = 0.1
_A_SCALE = 0.15
# Linear-cost scale.  Half of _P_SCALE keeps the optimizer magnitudes modest
# (||u*|| a few units) so warm-start regression targets are well scaled,
# without touching sigma_max(I + M), which depends only on P and the
# constraint blocks.
_C_SCALE = 0.05
# Half-width of the witness-point box that parameterizes the equality RHS
# family.  It sets how far optimizers move across the family and therefore
# how hard the warm-start regression task is.
_RHS_HALFWIDTH = 0.3


def _qp_base(spec: GenSpec, rng):
    """Shared base instance for the QP families.

    P is diagonal with entries ~ U[0.5, 2] scaled by _P_SCALE; A_eq and G are
    50%-sparse Gaussians with rows normalized to length _A_SCALE
    (conditioning); x is unbounded. h is set so every x in [-0.5, 0.5]^n is
    strictly feasible, via the L1 bound |Gx| <= 0.5*|G|.sum(axis=1).
    """
    n = spec.n
    m1 = m2 = n // 2
    P = np.diag(rng.uniform(0.5, 2.0, n)) * _P_SCALE
    c = rng.standard_normal(n) * _C_SCALE
    A = _row_normalize(_sparsify(rng, rng.standard_normal((m1, n)))) * _A_SCALE
    G = _row_normalize(_sparsify(rng, rng.standard_normal((m2, n)))) * _A_SCALE
    h = 0.5 * np.abs(G).sum(axis=1) + spec.margin * _A_SCALE
    l = np.full(n, -np.inf)
    u = np.full(n, np.inf)
    return P, c, A, G, h, l, u


def _build_qp(P, c, A, b, G, h, l, u) -> StandardQP:
    return StandardQP(P=SparseMatrix.from_dense(P), c=c,
                      A_eq=SparseMatrix.from_dense(A), b_eq=b,
                      G=SparseMatrix.from_dense(G), h=h, l=l, u=u)


def gen_qp_rhs(spec: GenSpec) -> DatasetBundle:
    """Family parameterized only by the equality right-hand side.

    A single base instance per seed; each sample draws a witness point
    x0 uniform in the witness box and sets b_eq = A_eq x0, so every sample is feasible
    by construction and differs from the others only in b_eq.
    """
    rng = np.random.default_rng(spec.seed)
    P, c, A, G, h, l, u = _qp_base(spec, rng)
    # one matrix object each, so P's symmetry and PSD checks run once
    Ps, As, Gs = (SparseMatrix.from_dense(mat) for mat in (P, A, G))
    instances = []
    for _ in range(spec.count):
        x0 = rng.uniform(-_RHS_HALFWIDTH, _RHS_HALFWIDTH, spec.n)
        instances.append(StandardQP(P=Ps, c=c, A_eq=As, b_eq=A @ x0, G=Gs,
                                    h=h, l=l, u=u))
    return DatasetBundle(family=QP_RHS, instances=instances, labels=None,
                         split=None, seed=spec.seed, spec=spec)


def gen_qp_perturbed(spec: GenSpec) -> DatasetBundle:
    """Family with every nonzero of the base data perturbed multiplicatively.

    Factors are U[1-w, 1+w] per nonzero; P stays diagonal with its diagonal
    floored at 1e-6 (PSD preserved), and b_eq is re-centered on a sampled
    witness point so feasibility survives the perturbation.
    """
    rng = np.random.default_rng(spec.seed)
    P, c, A, G, h, l, u = _qp_base(spec, rng)
    w = spec.perturbation
    instances = []
    for _ in range(spec.count):
        def fac(shape):
            return rng.uniform(1.0 - w, 1.0 + w, shape)
        Ps = P * np.where(P != 0, fac(P.shape), 1.0)
        Ps = 0.5 * (Ps + Ps.T)
        np.fill_diagonal(Ps, np.maximum(np.diag(Ps), 1e-6))
        cs = c * fac(c.shape)
        As = A * np.where(A != 0, fac(A.shape), 1.0)
        Gs = G * np.where(G != 0, fac(G.shape), 1.0)
        hs = h * fac(h.shape)
        x0 = rng.uniform(-_RHS_HALFWIDTH, _RHS_HALFWIDTH, spec.n)
        bs = As @ x0
        hs = np.maximum(hs, Gs @ x0 + 1e-3)  # witness stays strictly feasible
        instances.append(_build_qp(Ps, cs, As, bs, Gs, hs, l, u))
    return DatasetBundle(family=QP_PERTURBED, instances=instances, labels=None,
                         split=None, seed=spec.seed, spec=spec)


def gen_portfolio(spec: GenSpec) -> DatasetBundle:
    """Factor-model portfolio QPs over variables z = (x, y), x the holdings.

    Objective x'Dx + y'y - mu'x / gamma encoded as 0.5 z'Pz + c'z with
    P = 2 blkdiag(D, I_k), c = (-mu/gamma; 0); equalities y = F'x and
    1'x = 1; bounds x >= 0 with y free. gamma = 1.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.k
    n_assets = 10 * k
    nz = n_assets + k
    instances = []
    for _ in range(spec.count):
        F = _sparsify(rng, rng.standard_normal((n_assets, k)))
        D = rng.uniform(0.0, np.sqrt(k), n_assets)
        mu = rng.standard_normal(n_assets)
        P = np.diag(np.concatenate([2.0 * D, 2.0 * np.ones(k)]))
        c = np.concatenate([-mu, np.zeros(k)])
        A = np.zeros((k + 1, nz))
        A[:k, :n_assets] = F.T
        A[:k, n_assets:] = -np.eye(k)
        A[k, :n_assets] = 1.0
        b = np.zeros(k + 1)
        b[k] = 1.0
        G = np.zeros((0, nz))
        h = np.zeros(0)
        l = np.concatenate([np.zeros(n_assets), np.full(k, -INF)])
        u = np.full(nz, INF)
        instances.append(_build_qp(P, c, A, b, G, h, l, u))
    return DatasetBundle(family=PORTFOLIO, instances=instances, labels=None,
                         split=None, seed=spec.seed, spec=spec)


def generate(spec: GenSpec) -> DatasetBundle:
    return {QP_RHS: gen_qp_rhs, QP_PERTURBED: gen_qp_perturbed,
            PORTFOLIO: gen_portfolio}[spec.family](spec)


def label_bundle(bundle: DatasetBundle, tol_label: float = 1e-9):
    """Label every instance with a high-accuracy reference solution.

    Returns (labeled bundle, exclusions), exclusions listing (index, status)
    for instances the reference solver failed to converge on. Failed
    instances keep a None label. Instances with the same (P, A) share one
    Operator, so each distinct operator is factorized once. dr_solve_batch
    solves them in blocks of one size and cone: one operator, or one
    distinct dense operator per row.
    """
    cfg = SolverConfig(tol_fixed_point=tol_label, max_iter=500_000)
    operators = {}
    datas = [assemble_inclusion(to_conic(qp), operators) for qp in bundle.instances]
    labels = []
    exclusions = []
    for i, report in enumerate(dr_solve_batch(datas, cfg)):
        if report.status == "converged":
            labels.append((report.x, report.y))
        else:
            labels.append(None)
            exclusions.append((i, report.status))
    return replace(bundle, labels=labels), exclusions


def split_bundle(bundle: DatasetBundle, sizes: tuple[int, int, int],
                 seed: int = 0) -> DatasetBundle:
    """Seeded disjoint train/val/test split."""
    n_train, n_val, n_test = sizes
    if min(sizes) < 0:
        raise ValueError("split sizes must be nonnegative")
    total = n_train + n_val + n_test
    if total > len(bundle):
        raise ValueError(f"split sizes {sizes} oversubscribe {len(bundle)} instances")
    perm = np.random.default_rng(seed).permutation(len(bundle))
    split = {
        "train": np.sort(perm[:n_train]).tolist(),
        "val": np.sort(perm[n_train:n_train + n_val]).tolist(),
        "test": np.sort(perm[n_train + n_val:total]).tolist(),
    }
    return replace(bundle, split=split)


def _instance_name(i: int) -> str:
    return f"instance_{i:04d}.json"


def write_bundle(bundle: DatasetBundle, path) -> None:
    """One JSON file per instance plus a manifest with the file list, the
    split and the matrix table: each distinct matrix (by shape and bytes)
    once, which the instance files name by index. Instance files of an
    earlier bundle in path that the manifest does not list are deleted;
    other files are left alone."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    table, index = [], {}  # matrix documents; matrix_key -> index into table

    def reference(mat: SparseMatrix) -> int:
        key = matrix_key(mat)
        if key not in index:
            index[key] = len(table)
            table.append(matrix_to_doc(mat))
        return index[key]

    for i, qp in enumerate(bundle.instances):
        labels = bundle.labels[i] if bundle.labels is not None else None
        write_json(path / _instance_name(i), instance_to_doc(qp, labels, reference))
    write_json(path / "manifest.json", {
        "format_version": MANIFEST_VERSION,
        "family": bundle.family,
        "seed": bundle.seed,
        "spec": None if bundle.spec is None else asdict(bundle.spec),
        "split": bundle.split,
        "instances": [{"file": _instance_name(i)} for i in range(len(bundle))],
        "matrices": table,
    })
    for stale in path.glob("instance_*.json"):
        number = stale.name[len("instance_"):-len(".json")]
        if (number.isdigit() and int(number) >= len(bundle)
                and stale.name == _instance_name(int(number))):
            stale.unlink()


def _bundle_from_manifest(doc, matrices: dict):
    """The bundle a manifest describes, its instances still the file names,
    and its matrix table read into matrices (empty at version 1)."""
    spec = None if doc.get("spec") is None else GenSpec(**doc["spec"])
    bundle = DatasetBundle(family=doc["family"],
                           instances=[entry["file"] for entry in doc["instances"]],
                           labels=None, split=doc.get("split"), seed=doc["seed"], spec=spec)
    entries = doc["matrices"] if doc["format_version"] == MANIFEST_VERSION else []
    return bundle, [matrix_from_doc(entry, matrices) for entry in entries]


def read_bundle(path) -> DatasetBundle:
    """The bundle write_bundle wrote at path, or one of manifest version 1;
    a malformed manifest or instance file, or a label of the wrong length,
    raises ValueError naming that file."""
    path = Path(path)
    matrices = {}  # equal matrices are read into one object
    bundle, table = read_json(path / "manifest.json", "manifest",
                              lambda doc: _bundle_from_manifest(doc, matrices),
                              (1, MANIFEST_VERSION))
    instances, labels = zip(*(read_instance(path / name, matrices, table)
                              for name in bundle.instances))
    any_labels = any(lab is not None for lab in labels)
    return replace(bundle, instances=list(instances),
                   labels=list(labels) if any_labels else None)
