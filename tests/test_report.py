import csv
import io
import time
import warnings

import numpy as np
import pytest

from conftest import build_standard, inclusion_of
from drqp import net, report, solvers
from drqp.datagen import GenSpec, generate, label_bundle
from drqp.report import (WarmStartReport, WarmStartRow, comparison_table,
                         complete_zero_cone_dual, multistep_table, prepare_data,
                         residual_history_csv, run_compare, run_eval,
                         warmstart_summary, warmstart_table)
from drqp.solvers import SolverConfig, dr_solve, step_size_cap


@pytest.fixture(scope="module")
def labeled_bundle():
    bundle = generate(GenSpec(family="qp_rhs", count=4, seed=11, n=10))
    bundle, _ = label_bundle(bundle)
    return bundle


class TestRunCompare:
    def test_row_per_instance(self, labeled_bundle):
        datas = prepare_data(labeled_bundle)
        rep = run_compare(datas, steps_list=(1, 2))
        assert len(rep.rows) == len(datas)
        assert set(rep.multistep) == {1, 2}
        assert all(r.dr_status == "converged" for r in rep.rows)

    def test_objectives_agree(self, labeled_bundle):
        rep = run_compare(prepare_data(labeled_bundle))
        for r in rep.rows:
            assert r.drgd_objective == pytest.approx(r.dr_objective, abs=1e-3)

    def test_multistep_column_matches_first(self, labeled_bundle):
        rep = run_compare(prepare_data(labeled_bundle), steps_list=(1, 5))
        assert rep.multistep[1] == [r.drgd_iterations for r in rep.rows]

    def test_each_distinct_steps_value_solved_once(self, labeled_bundle, monkeypatch):
        # a repeated --steps value once solved every instance again and
        # averaged the doubled list
        datas = prepare_data(labeled_bundle)
        calls = []

        def counting(data, cfg, **kw):
            calls.append(cfg.steps_per_iter)
            return solvers.drgd_solve(data, cfg, **kw)

        monkeypatch.setattr(report, "drgd_solve", counting)
        rep = run_compare(datas, steps_list=(1, 1, 2))
        assert calls == [1, 2] * len(datas)
        assert list(rep.multistep) == [1, 2]
        assert rep.multistep[1] == [r.drgd_iterations for r in rep.rows]
        assert all(len(v) == len(datas) for v in rep.multistep.values())


class TestRunEval:
    def test_emulation_checkpoint_reduces_iterations(self, labeled_bundle):
        datas = prepare_data(labeled_bundle)
        params = net.emulation_params(datas[0], 0.5 * step_size_cap(datas[0]),
                                      L=4)
        rep = run_eval(datas, labeled_bundle.labels, params, SolverConfig())
        assert len(rep.rows) == len(datas)
        for r in rep.rows:
            assert not r.failed
            assert r.warm_iterations <= r.cold_iterations
            assert r.inference_time > 0

    def test_trained_free_l2_column(self, labeled_bundle):
        datas = prepare_data(labeled_bundle)
        params = net.init_params(2, 4, seed=0)
        rep = run_eval(datas, None, params, SolverConfig())
        assert all(r.l2_to_reference is None for r in rep.rows)

    def test_ratio_bounded_above_by_one(self, labeled_bundle):
        datas = prepare_data(labeled_bundle)
        params = net.init_params(2, 4, seed=0)
        rep = run_eval(datas, labeled_bundle.labels, params, SolverConfig())
        assert rep.iteration_ratio <= 1.0
        assert rep.iteration_ratio_per_instance <= 1.0

    def test_cached_cold_solves_leave_time_ratio_unknown(self, labeled_bundle):
        datas = prepare_data(labeled_bundle, [0, 1])
        params = net.init_params(1, 2, seed=0)
        cold = [dr_solve(d, SolverConfig()) for d in datas]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_eval(datas, None, params, SolverConfig(), cold_cache=cold)
            assert rep.time_ratio is None
        assert all(r.cold_time is None for r in rep.rows)
        summary = list(csv.reader(io.StringIO(warmstart_summary(rep, "csv"))))
        assert summary[1][2] == ""

    def test_histories_recorded(self, labeled_bundle):
        datas = prepare_data(labeled_bundle, [0])
        params = net.init_params(1, 2, seed=0)
        rep = run_eval(datas, None, params, SolverConfig(record_history=True))
        cold, warm = rep.residual_histories[0]
        assert len(cold) > 0 and len(warm) > 0


    @pytest.mark.parametrize("step", ["forward", "project_cone_dual",
                                      "complete_zero_cone_dual",
                                      "warm_start_from_solution"])
    def test_inference_time_covers_warm_path(self, labeled_bundle, monkeypatch, step):
        # every step before the warm solve is charged to inference_time
        delay = 0.02
        fn = getattr(report, step)

        def slowed(*args):
            time.sleep(delay)
            return fn(*args)
        monkeypatch.setattr(report, step, slowed)
        datas = prepare_data(labeled_bundle, [0, 1])
        rep = run_eval(datas, None, net.init_params(1, 2, seed=0), SolverConfig())
        assert all(r.inference_time >= delay for r in rep.rows)


def lstsq_completion(data, u):
    """The completion by np.linalg.lstsq on the dense equality block."""
    n, m0 = data.n, data.cone.m_zero
    M = data.operator.M.to_dense()
    delta = np.linalg.lstsq(M[:n, n:n + m0], -(M[:n] @ u + data.q[:n]), rcond=None)[0]
    out = u.copy()
    out[n:n + m0] += delta
    return out


def rank_deficient_data():
    """Three equality rows of rank two: the first two are equal."""
    rng = np.random.default_rng(5)
    A = np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    x0 = rng.uniform(-0.5, 0.5, 4)
    G = rng.standard_normal((2, 4))
    return inclusion_of(build_standard(P=np.diag(rng.uniform(0.5, 2.0, 4)),
                                       c=rng.standard_normal(4), A=A, b=A @ x0,
                                       G=G, h=G @ x0 + 1.0, l=np.full(4, -np.inf),
                                       u=np.full(4, np.inf)))


class TestCompletion:
    @pytest.mark.parametrize("spec", [
        GenSpec(family="qp_rhs", count=3, seed=2, n=12),
        GenSpec(family="qp_perturbed", count=3, seed=2, n=12),
        GenSpec(family="portfolio", count=3, seed=2, k=2),
    ], ids=lambda spec: spec.family)
    def test_matches_lstsq(self, spec):
        rng = np.random.default_rng(0)
        for data in prepare_data(generate(spec)):
            u = rng.standard_normal(data.size)
            out = complete_zero_cone_dual(data, u)
            np.testing.assert_allclose(out, lstsq_completion(data, u), rtol=0, atol=1e-12)
            # only the equality multipliers move
            keep = np.r_[:data.n, data.n + data.cone.m_zero:data.size]
            assert out[keep].tobytes() == u[keep].tobytes()

    def test_rank_deficient_equalities(self):
        data = rank_deficient_data()
        assert np.linalg.matrix_rank(data.operator.M.to_dense()[:4, 4:7]) == 2
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(data.size)
            np.testing.assert_allclose(complete_zero_cone_dual(data, u),
                                       lstsq_completion(data, u), rtol=0, atol=1e-12)

    def test_no_equalities_is_identity(self, one_var_data):
        u = np.array([0.5, 2.0])
        assert complete_zero_cone_dual(one_var_data, u) is u


class TestTables:
    def _fake_warmstart(self):
        rows = [WarmStartRow(instance=i, cold_iterations=100,
                             warm_iterations=60, cold_time=0.1, warm_time=0.05,
                             inference_time=0.001, objective=1.0, max_viol=0.0,
                             l2_to_reference=0.1, cold_status="converged",
                             warm_status="converged") for i in range(2)]
        return WarmStartReport(rows=rows,
                               residual_histories={0: ([1.0, 0.5], [0.5])})

    def test_markdown_matches_csv_data(self, labeled_bundle):
        rep = run_compare(prepare_data(labeled_bundle))
        parsed = list(csv.reader(io.StringIO(comparison_table(rep, "csv"))))
        md_lines = comparison_table(rep, "markdown").strip().splitlines()
        # markdown body rows carry the same cells as the CSV rows
        body = [[c.strip() for c in line.strip("|").split("|")]
                for line in md_lines[2:]]
        assert body == parsed[1:]

    def test_warmstart_ratio_value(self):
        rep = self._fake_warmstart()
        assert rep.iteration_ratio == pytest.approx(0.4)
        table = warmstart_summary(rep, "csv")
        assert "0.4" in table

    def test_residual_history_long_format(self):
        rep = self._fake_warmstart()
        rows = list(csv.reader(io.StringIO(residual_history_csv(rep))))
        assert rows[0] == ["instance_id", "start", "iter", "residual"]
        assert len(rows) == 4  # 2 cold + 1 warm + header

    def test_ratios_unknown_when_every_row_failed(self):
        rep = self._fake_warmstart()
        rep.rows = rep.rows[:1]
        rep.rows[0].warm_status = "error"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rep.iteration_ratio is None
            assert rep.iteration_ratio_per_instance is None
            assert rep.time_ratio is None
            summary = list(csv.reader(io.StringIO(warmstart_summary(rep, "csv"))))
        assert summary[1] == ["", "", ""]

    def test_empty_report_header_only(self):
        rep = WarmStartReport(rows=[])
        text = warmstart_table(rep, "csv")
        assert len(text.strip().splitlines()) == 1

    def test_multistep_table_row_per_steps(self, labeled_bundle):
        rep = run_compare(prepare_data(labeled_bundle), steps_list=(1, 2, 5))
        lines = multistep_table(rep, "csv").strip().splitlines()
        assert len(lines) == 4
