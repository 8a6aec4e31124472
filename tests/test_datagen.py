import io
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from drqp.datagen import (DatasetBundle, GenSpec, gen_portfolio, gen_qp_perturbed,
                          gen_qp_rhs, generate, label_bundle, read_bundle,
                          split_bundle, write_bundle)
from drqp import datagen
from drqp.model import (instance_to_doc, matrix_key, matrix_to_doc, quality, to_conic,
                        write_instance, write_json)
from drqp.report import prepare_data
from drqp.solvers import SolverConfig, dr_solve
from drqp.sparse import SparseMatrix


def small_spec(family="qp_rhs", count=4, seed=0, **kw):
    return GenSpec(family=family, count=count, seed=seed, n=kw.pop("n", 8), **kw)


class TestGenSpec:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(family="qp_rhs", count=1, seed=0, n=7)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            GenSpec(family="qp_rhs", count=0, seed=0, n=8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate(GenSpec(family="lp", count=1, seed=0, n=8))


class TestQpRhs:
    def test_only_rhs_varies(self):
        bundle = gen_qp_rhs(small_spec())
        base = bundle.instances[0]
        for inst in bundle.instances[1:]:
            for name in ("P", "A_eq", "G"):
                np.testing.assert_array_equal(getattr(inst, name).to_dense(),
                                              getattr(base, name).to_dense())
            for name in ("c", "h", "l", "u"):
                np.testing.assert_array_equal(getattr(inst, name),
                                              getattr(base, name))
            assert not np.array_equal(inst.b_eq, base.b_eq)

    def test_all_instances_solvable(self):
        bundle = gen_qp_rhs(small_spec(count=6))
        for data in prepare_data(bundle):
            assert dr_solve(data, SolverConfig()).status == "converged"

    def test_seed_determinism(self):
        a = gen_qp_rhs(small_spec(seed=3))
        b = gen_qp_rhs(small_spec(seed=3))
        for x, y in zip(a.instances, b.instances):
            np.testing.assert_array_equal(x.b_eq, y.b_eq)
            np.testing.assert_array_equal(x.P.values, y.P.values)

    def test_matrices_shared_and_checked_once(self, monkeypatch):
        # P's symmetry check transposes it once per matrix object
        checks = []
        transpose = SparseMatrix.transpose
        monkeypatch.setattr(SparseMatrix, "transpose",
                            lambda mat: checks.append(mat) or transpose(mat))
        spec = small_spec(count=5, seed=4)
        bundle = gen_qp_rhs(spec)
        assert len(checks) == 1
        for name in ("P", "A_eq", "G"):
            assert len({id(getattr(inst, name)) for inst in bundle.instances}) == 1
        # the data equal one freshly built StandardQP per instance, byte for byte
        rng = np.random.default_rng(spec.seed)
        P, c, A, G, h, l, u = datagen._qp_base(spec, rng)
        for inst in bundle.instances:
            x0 = rng.uniform(-datagen._RHS_HALFWIDTH, datagen._RHS_HALFWIDTH, spec.n)
            ref = datagen._build_qp(P, c, A, A @ x0, G, h, l, u)
            for name in ("P", "A_eq", "G"):
                for part in ("indptr", "indices", "values"):
                    assert (getattr(getattr(inst, name), part).tobytes()
                            == getattr(getattr(ref, name), part).tobytes())
            for name in ("c", "b_eq", "h", "l", "u"):
                assert getattr(inst, name).tobytes() == getattr(ref, name).tobytes()

    def test_sizes(self):
        bundle = gen_qp_rhs(small_spec(n=10))
        inst = bundle.instances[0]
        assert inst.n == 10
        assert inst.A_eq.shape == (5, 10)
        assert inst.G.shape == (5, 10)


class TestQpPerturbed:
    def test_zero_width_reproduces_base(self):
        spec = small_spec(family="qp_perturbed", perturbation=0.0)
        bundle = gen_qp_perturbed(spec)
        first = bundle.instances[0]
        for inst in bundle.instances[1:]:
            np.testing.assert_allclose(inst.P.to_dense(), first.P.to_dense(),
                                       rtol=1e-15)
            np.testing.assert_allclose(inst.G.to_dense(), first.G.to_dense(),
                                       rtol=1e-15)
            np.testing.assert_allclose(inst.c, first.c, rtol=1e-15)

    def test_sparsity_pattern_preserved(self):
        bundle = gen_qp_perturbed(small_spec(family="qp_perturbed"))
        base = bundle.instances[0]
        for inst in bundle.instances[1:]:
            assert np.array_equal(inst.A_eq.to_dense() != 0,
                                  base.A_eq.to_dense() != 0)
            assert np.array_equal(inst.G.to_dense() != 0,
                                  base.G.to_dense() != 0)

    def test_all_instances_solvable(self):
        bundle = gen_qp_perturbed(small_spec(family="qp_perturbed", count=5))
        for data in prepare_data(bundle):
            assert dr_solve(data, SolverConfig()).status == "converged"


class TestPortfolio:
    def test_objective_encoding(self):
        spec = GenSpec(family="portfolio", count=2, seed=0, k=2)
        bundle = gen_portfolio(spec)
        rng = np.random.default_rng(1)
        for inst in bundle.instances:
            n_assets = 10 * 2
            P = inst.P.to_dense()
            D = 0.5 * P[:n_assets, :n_assets]
            mu = -inst.c[:n_assets]
            for _ in range(5):
                x = rng.standard_normal(n_assets)
                y = rng.standard_normal(2)
                z = np.concatenate([x, y])
                direct = x @ D @ x + y @ y - mu @ x
                assert inst.objective(z) == pytest.approx(direct, rel=1e-12)

    def test_structure(self):
        bundle = gen_portfolio(GenSpec(family="portfolio", count=1, seed=0, k=2))
        inst = bundle.instances[0]
        assert inst.n == 11 * 2
        assert inst.A_eq.shape == (3, 22)  # y = F'x rows plus budget row
        cqp = to_conic(inst)
        assert cqp.cone.m_zero == 3
        assert cqp.cone.m_nonneg == 20  # x >= 0 only; y free

    def test_uniform_feasible(self):
        bundle = gen_portfolio(GenSpec(family="portfolio", count=1, seed=2, k=3))
        inst = bundle.instances[0]
        n_assets = 30
        x = np.full(n_assets, 1.0 / n_assets)
        A = inst.A_eq.to_dense()
        F_t = A[:3, :n_assets]  # rows encode F'x - y = 0
        y = F_t @ x
        z = np.concatenate([x, y])
        np.testing.assert_allclose(A @ z, inst.b_eq, atol=1e-12)

    def test_symmetric_optimum(self):
        # mu = 0, D = I, F = 0: by symmetry x* = uniform, y* = 0
        from conftest import build_standard, inclusion_of
        A = np.zeros((2, 11))
        A[0, 10] = -1.0        # F'x - y = 0 with F = 0
        A[1, :10] = 1.0        # budget row
        qp = build_standard(P=np.eye(11) * 2.0, c=np.zeros(11),
                            A=A, b=[0.0, 1.0],
                            G=np.zeros((0, 11)), h=[],
                            l=np.concatenate([np.zeros(10), [-np.inf]]),
                            u=np.full(11, np.inf))
        rep = dr_solve(inclusion_of(qp), SolverConfig())
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.x[:10], np.full(10, 0.1), atol=1e-4)
        assert abs(rep.x[10]) <= 1e-4

    def test_active_set_oracle_k1(self):
        # brute-force the simplex-constrained QP over active sets of x >= 0
        bundle = gen_portfolio(GenSpec(family="portfolio", count=1, seed=4, k=1))
        inst = bundle.instances[0]
        rep = dr_solve(prepare_data_single(inst), SolverConfig(tol_fixed_point=1e-9))
        assert rep.status == "converged"
        best = brute_force_portfolio(inst)
        np.testing.assert_allclose(rep.x, best, atol=1e-5)


def prepare_data_single(inst):
    from drqp.model import assemble_inclusion
    cqp = to_conic(inst)
    return assemble_inclusion(cqp)


def brute_force_portfolio(inst):
    """Enumerate active sets of x >= 0 for the k=1 factor model via KKT."""
    import itertools
    n = inst.n
    P = inst.P.to_dense()
    c = inst.c
    A = inst.A_eq.to_dense()
    b = inst.b_eq
    best, best_obj = None, np.inf
    for r in range(10):  # at most 9 of 10 assets clamped to zero
        for zeros in itertools.combinations(range(10), r):
            free = [i for i in range(n) if i not in zeros]
            nf = len(free)
            KKT = np.zeros((nf + len(b), nf + len(b)))
            KKT[:nf, :nf] = P[np.ix_(free, free)]
            KKT[:nf, nf:] = A[:, free].T
            KKT[nf:, :nf] = A[:, free]
            rhs = np.concatenate([-c[free], b])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            z = np.zeros(n)
            z[free] = sol[:nf]
            if np.any(z[:10] < -1e-9):
                continue
            obj = inst.objective(z)
            if obj < best_obj:
                best_obj, best = obj, z
    return best


class TestLabeling:
    def test_labels_pass_quality(self):
        bundle = gen_qp_rhs(small_spec(count=3))
        bundle, excluded = label_bundle(bundle)
        assert excluded == []
        for inst, (x, y) in zip(bundle.instances, bundle.labels):
            cqp = to_conic(inst)
            m = quality(cqp, x, y)
            scale = max(1.0, np.linalg.norm(cqp.b, np.inf))
            assert m.max_viol <= 10 * 1e-9 * scale
            assert m.dual_residual_inf <= 1e-6

    def test_labels_match_one_row_solves(self):
        # labeling solves instances that share an operator as one block
        bundle = generate(small_spec(count=5, seed=6))
        labeled, _ = label_bundle(bundle, tol_label=1e-9)
        cfg = SolverConfig(tol_fixed_point=1e-9, max_iter=500_000)
        for data, (x, y) in zip(prepare_data(bundle), labeled.labels):
            rep = dr_solve(data, cfg)
            np.testing.assert_allclose(x, rep.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(y, rep.y, rtol=0, atol=1e-12)

    def test_one_var_label_closed_form(self):
        from conftest import one_var_qp
        bundle = DatasetBundle(family="qp_rhs", instances=[one_var_qp()],
                               labels=None, split=None, seed=0)
        bundle, _ = label_bundle(bundle)
        x, y = bundle.labels[0]
        assert x[0] == pytest.approx(1.0, abs=1e-8)
        assert y[0] == pytest.approx(1.0, abs=1e-8)

    def test_relabel_idempotent(self):
        bundle = gen_qp_rhs(small_spec(count=2))
        a, _ = label_bundle(bundle)
        b, _ = label_bundle(a)
        for (xa, ya), (xb, yb) in zip(a.labels, b.labels):
            np.testing.assert_allclose(xa, xb, atol=1e-9)


class TestSplit:
    def test_exact_partition(self):
        bundle = gen_qp_rhs(small_spec(count=10))
        out = split_bundle(bundle, (6, 2, 2), seed=0)
        all_idx = sorted(out.split["train"] + out.split["val"] +
                         out.split["test"])
        assert all_idx == list(range(10))

    def test_all_distinct_small(self):
        bundle = gen_qp_rhs(small_spec(count=3))
        out = split_bundle(bundle, (1, 1, 1), seed=0)
        idx = {out.split["train"][0], out.split["val"][0],
               out.split["test"][0]}
        assert len(idx) == 3

    def test_seed_determinism(self):
        bundle = gen_qp_rhs(small_spec(count=10))
        a = split_bundle(bundle, (6, 2, 2), seed=4)
        b = split_bundle(bundle, (6, 2, 2), seed=4)
        assert a.split == b.split

    def test_oversubscription_rejected(self):
        bundle = gen_qp_rhs(small_spec(count=4))
        with pytest.raises(ValueError):
            split_bundle(bundle, (3, 2, 2), seed=0)


class TestBundleFiles:
    def test_round_trip(self, tmp_path):
        bundle = gen_qp_rhs(small_spec(count=3))
        bundle, _ = label_bundle(bundle)
        bundle = split_bundle(bundle, (1, 1, 1), seed=0)
        write_bundle(bundle, tmp_path / "b")
        back = read_bundle(tmp_path / "b")
        assert back.family == bundle.family
        assert back.split == bundle.split
        assert back.seed == bundle.seed
        for a, b in zip(bundle.instances, back.instances):
            np.testing.assert_array_equal(a.b_eq, b.b_eq)
            np.testing.assert_array_equal(a.P.values, b.P.values)
        for (xa, ya), (xb, yb) in zip(bundle.labels, back.labels):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_manifest_records_split(self, tmp_path):
        import json
        bundle = split_bundle(gen_qp_rhs(small_spec(count=3)), (1, 1, 1),
                              seed=0)
        write_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert "split" in manifest

    def test_write_read_write_identical_bytes(self, tmp_path):
        bundle = gen_qp_rhs(small_spec(count=2))
        write_bundle(bundle, tmp_path / "a")
        write_bundle(read_bundle(tmp_path / "a"), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert (tmp_path / "b" / f.name).read_bytes() == f.read_bytes()

    def test_files_match_streaming_encoder(self, tmp_path):
        # the one-shot dumps gives the bytes json.dump streams, for the
        # instance documents that index the matrix table and for the manifest
        bundle = split_bundle(label_bundle(gen_portfolio(small_spec(
            family="portfolio", count=3, n=None, k=2)))[0], (1, 1, 1), seed=0)
        write_bundle(bundle, tmp_path / "b")

        def streamed(doc) -> bytes:
            buf = io.StringIO()
            json.dump(doc, buf, sort_keys=True)
            buf.write("\n")
            return buf.getvalue().encode()

        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert (tmp_path / "b" / "manifest.json").read_bytes() == streamed(manifest)
        table = manifest["matrices"]
        for i, qp in enumerate(bundle.instances):
            doc = instance_to_doc(qp, bundle.labels[i],
                                  lambda mat: table.index(matrix_to_doc(mat)))
            assert (tmp_path / "b" / f"instance_{i:04d}.json").read_bytes() == streamed(doc)

    def test_size_grows_by_less_than_a_matrix_copy_per_instance(self, tmp_path):
        # qp_rhs instances share P, A_eq and G, which every instance file
        # used to repeat: the bundle grew by count copies of them
        sizes = []
        for count in (2, 6):
            write_bundle(gen_qp_rhs(small_spec(count=count, n=20)), tmp_path / str(count))
            sizes.append(sum(f.stat().st_size for f in (tmp_path / str(count)).iterdir()))
        qp = gen_qp_rhs(small_spec(count=1, n=20)).instances[0]
        copy = len(json.dumps([matrix_to_doc(mat) for mat in (qp.P, qp.A_eq, qp.G)]))
        assert (sizes[1] - sizes[0]) / 4 < copy

    @pytest.mark.parametrize("family, entries", [("qp_rhs", 3), ("qp_perturbed", 3 * 4)])
    def test_matrix_table_holds_each_distinct_matrix_once(self, tmp_path, family, entries):
        bundle = generate(small_spec(family=family))
        write_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert len(manifest["matrices"]) == entries
        refs = set()
        for i, qp in enumerate(bundle.instances):
            doc = json.loads((tmp_path / "b" / f"instance_{i:04d}.json").read_text())
            for name in ("P", "A_eq", "G"):
                assert manifest["matrices"][doc[name]] == matrix_to_doc(getattr(qp, name))
                refs.add(doc[name])
        assert refs == set(range(entries))

    def test_version_1_bundle_reads_back_bit_for_bit(self, tmp_path):
        # manifest version 1 has no matrix table: every instance file holds
        # its matrices inline, as a standalone instance file does
        bundle = split_bundle(label_bundle(gen_qp_rhs(small_spec(count=3)))[0], (1, 1, 1),
                              seed=0)
        path = tmp_path / "v1"
        path.mkdir()
        names = [f"instance_{i:04d}.json" for i in range(len(bundle))]
        for name, qp, labels in zip(names, bundle.instances, bundle.labels):
            write_instance(path / name, qp, labels)
        write_json(path / "manifest.json", {
            "format_version": 1, "family": bundle.family, "seed": bundle.seed,
            "spec": asdict(bundle.spec), "split": bundle.split,
            "instances": [{"file": name} for name in names]})
        back = read_bundle(path)
        assert (back.family, back.seed, back.spec, back.split) \
            == (bundle.family, bundle.seed, bundle.spec, bundle.split)
        for qp, orig in zip(back.instances, bundle.instances):
            for name in ("P", "A_eq", "G"):
                assert matrix_key(getattr(qp, name)) == matrix_key(getattr(orig, name))
            for name in ("c", "b_eq", "h", "l", "u"):
                assert getattr(qp, name).tobytes() == getattr(orig, name).tobytes()
        for (x, y), (xo, yo) in zip(back.labels, bundle.labels):
            assert (x.tobytes(), y.tobytes()) == (xo.tobytes(), yo.tobytes())
        assert len({id(qp.P) for qp in back.instances}) == 1

    @pytest.mark.parametrize("ref", [3, -1, True, 1.0, "0", None],
                             ids=["out-of-range", "negative", "bool", "float", "string", "null"])
    def test_bad_matrix_reference_names_the_file(self, tmp_path, ref):
        write_bundle(gen_qp_rhs(small_spec(count=2)), tmp_path / "b")
        path = tmp_path / "b" / "instance_0001.json"
        doc = json.loads(path.read_text())
        doc["A_eq"] = ref
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed instance file: "
                                                       f"matrix reference {ref!r} is not an "
                                                       "index into a matrix table of 3")):
            read_bundle(tmp_path / "b")

    def test_unsupported_manifest_version_named(self, tmp_path):
        write_bundle(gen_qp_rhs(small_spec(count=2)), tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["format_version"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed manifest: unsupported version 3, expected 1 or 2")):
            read_bundle(tmp_path / "b")

    @pytest.mark.parametrize("family, distinct", [("qp_rhs", 1), ("qp_perturbed", 4)])
    def test_read_shares_matrices(self, tmp_path, monkeypatch, family, distinct):
        write_bundle(generate(small_spec(family=family)), tmp_path / "b")
        # P's symmetry check transposes it once per matrix object
        checks = []
        transpose = SparseMatrix.transpose
        monkeypatch.setattr(SparseMatrix, "transpose",
                            lambda mat: checks.append(mat) or transpose(mat))
        back = read_bundle(tmp_path / "b")
        assert len(checks) == distinct
        for name in ("P", "A_eq", "G"):
            assert len({id(getattr(qp, name)) for qp in back.instances}) == distinct
