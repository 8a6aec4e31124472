"""End-to-end acceptance checks, one test per criterion.

Each test pins its tolerances explicitly and is numbered to match the
criterion it certifies. Runtime-budgeted tests assert wall-clock limits.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from drqp import net
from drqp.datagen import (GenSpec, generate, label_bundle, read_bundle,
                          split_bundle, write_bundle)
from drqp.model import ConeSpec, project_cone_dual
from drqp.report import prepare_data, run_compare, run_eval
from drqp.solvers import (IterateState, SolverConfig, dr_operator_apply,
                          dr_solve, drgd_solve, exact_linesearch_step,
                          step_size_cap, wolfe_check)
from drqp.sparse import spmv, spmv_t


def desk_instances(count, seed=0, n=50):
    return prepare_data(generate(GenSpec(family="qp_rhs", count=count,
                                         seed=seed, n=n)))


@pytest.fixture(scope="module")
def twenty_desk():
    return desk_instances(20)


@pytest.fixture(scope="module")
def comparison(twenty_desk):
    """Shared Alg.1/Alg.2 sweep over the 20 desk instances (criteria 4, 5)."""
    start = time.perf_counter()
    report = run_compare(twenty_desk, tol=1e-6, steps_list=(1, 2, 5, 10))
    return report, time.perf_counter() - start


def test_criterion_01_operator_oracle_equivalence():
    start = time.perf_counter()
    datas = desk_instances(10, seed=1, n=20)
    rng = np.random.default_rng(0)
    for data in datas:
        eta = 0.5 * step_size_cap(data)
        cfg = SolverConfig(fixed_eta=eta, max_iter=1,
                           tol_fixed_point=1e-300)
        for _ in range(100):
            w = rng.standard_normal(data.size)
            ut = rng.standard_normal(data.size)
            warm = IterateState(u_tilde=ut,
                                u=project_cone_dual(ut, data.cone), w=w)
            rep = drgd_solve(data, cfg, warm=warm)
            oracle = dr_operator_apply(data, eta, ut, w)
            assert np.max(np.abs(rep.state.w - oracle)) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_02_exact_step_satisfies_wolfe():
    datas = desk_instances(10, seed=2, n=20)
    rng = np.random.default_rng(0)
    failures = 0
    for trial in range(1000):
        data = datas[trial % len(datas)]
        w = rng.standard_normal(data.size)
        ut = rng.standard_normal(data.size)
        t = spmv_t(data.I_plus_M, spmv(data.I_plus_M, ut) - (w - data.q))
        eta = exact_linesearch_step(t, data)
        res = wolfe_check(data, w, ut, ut - eta * t, eta, c1=1e-4, c2=0.9)
        failures += not res.passed
    assert failures == 0


def test_criterion_03_nonexpansive_under_cap():
    datas = desk_instances(10, seed=3, n=20)
    rng = np.random.default_rng(0)
    for data in datas:
        eta = 0.99 / data.sigma_max ** 2
        K = data.I_plus_M
        ut = rng.standard_normal(data.size)

        def reflected(w):
            phi = ut - eta * spmv_t(K, spmv(K, ut) - (w - data.q))
            return 2.0 * phi - w

        for _ in range(100):
            w1 = rng.standard_normal(data.size)
            w2 = rng.standard_normal(data.size)
            lhs = np.linalg.norm(reflected(w1) - reflected(w2))
            assert lhs <= np.linalg.norm(w1 - w2) * (1.0 + 1e-10)


def test_criterion_04_convergence_parity(comparison):
    report, elapsed = comparison
    assert elapsed < 300.0
    for row in report.rows:
        assert row.dr_status == "converged"
        assert row.drgd_status == "converged"
        assert abs(row.drgd_objective - row.dr_objective) <= 1e-3
        assert max(row.drgd_max_eq, row.drgd_max_ineq) <= 1e-5
    assert 1.0 <= report.iteration_ratio <= 2.0


def test_criterion_05_multistep_trend(comparison):
    report, _ = comparison
    means = [report.mean_iterations(s) for s in (1, 2, 5, 10)]
    for a, b in zip(means, means[1:]):
        assert b <= a * 1.02


def test_criterion_06_emulation():
    start = time.perf_counter()
    datas = desk_instances(10, seed=4, n=20)
    for data in datas:
        eta = 0.5 * step_size_cap(data)
        params = net.emulation_params(data, eta, L=4)
        xh, yh, _ = net.forward(data, params)
        u0 = project_cone_dual(-data.q, data.cone)
        start_state = IterateState(u_tilde=np.zeros(data.size), u=u0,
                                   w=data.q + u0)
        cfg = SolverConfig(fixed_eta=eta, max_iter=4,
                           tol_fixed_point=1e-300)
        rep = drgd_solve(data, cfg, warm=start_state)
        assert np.max(np.abs(np.concatenate([xh, yh]) - rep.state.u)) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_07_gradient_fidelity():
    # n + m = 12: 6 variables, 3 equalities, 3 inequalities
    data = desk_instances(1, seed=5, n=6)[0]
    assert data.size == 12
    params = net.init_params(2, 4, seed=0, scheme="random")
    rng = np.random.default_rng(1)
    label = (rng.standard_normal(data.n), rng.standard_normal(data.m))
    _, _, cache = net.forward(data, params)
    grads = net.backward(data, params, cache, label)

    h = 1e-5
    worst = 0.0
    base = params.vector
    for k in range(base.size):
        orig = base[k]
        base[k] = orig + h
        xp, yp, _ = net.forward(data, params)
        fp = net.loss([(xp, yp)], [label])
        base[k] = orig - h
        xm, ym, _ = net.forward(data, params)
        fm = net.loss([(xm, ym)], [label])
        base[k] = orig
        fd = (fp - fm) / (2.0 * h)
        if abs(fd) < 1e-8 and abs(grads[k]) < 1e-8:
            continue
        worst = max(worst, abs(grads[k] - fd) / max(abs(fd), 1e-12))
    assert worst <= 1e-4


@pytest.fixture(scope="module")
def trained_runs():
    """Criterion-8 protocol: desk QP(RHS) n=50, 40/8/20, d=8, L=4,
    lr 1e-5 escalated to 1e-4, three seeds; also collects the every-5-epoch
    (val loss, eval ratio) samples that criterion 9 consumes."""
    start = time.perf_counter()
    bundle = generate(GenSpec(family="qp_rhs", count=68, seed=0, n=50))
    bundle, excluded = label_bundle(bundle)
    assert excluded == []
    bundle = split_bundle(bundle, (40, 8, 20), seed=0)
    datas = prepare_data(bundle)
    test_datas = [datas[i] for i in bundle.split["test"]]
    test_labels = [bundle.labels[i] for i in bundle.split["test"]]
    solver_cfg = SolverConfig(tol_fixed_point=1e-6)
    cold_cache = [dr_solve(d, solver_cfg) for d in test_datas]

    runs = []
    for seed in (0, 1, 2):
        cfg = net.TrainConfig(learning_rate=1e-5, escalated_lr=1e-4,
                              escalation_patience=3, escalation_min_delta=1e-3,
                              batch_size=1, layers=4, embed=8, seed=seed,
                              max_epochs=1400, patience=1400, eta_prior=None)
        samples = []

        def callback(epoch, params, val_loss):
            if epoch % 5 == 0:
                rep = run_eval(test_datas, test_labels, params, solver_cfg,
                               cold_cache=cold_cache)
                samples.append((val_loss, rep.iteration_ratio))

        result = net.train(datas, bundle.labels, bundle.split["train"],
                           bundle.split["val"], cfg, epoch_callback=callback)
        final = run_eval(test_datas, test_labels, result.params, solver_cfg,
                         cold_cache=cold_cache)
        runs.append((final.iteration_ratio, samples))
    return runs, time.perf_counter() - start


@pytest.mark.slow
def test_criterion_08_warm_start_gain(trained_runs):
    runs, elapsed = trained_runs
    assert elapsed < 900.0
    passing = sum(ratio >= 0.20 for ratio, _ in runs)
    assert passing >= 2, f"ratios: {[round(r, 3) for r, _ in runs]}"


@pytest.mark.slow
def test_criterion_09_loss_ratio_comovement(trained_runs):
    runs, _ = trained_runs
    for _, samples in runs:
        neg_loss = [-v for v, _ in samples]
        ratios = [r for _, r in samples]
        assert spearmanr(neg_loss, ratios).statistic > 0.0


def test_criterion_10_determinism_and_round_trips(tmp_path):
    spec = GenSpec(family="qp_rhs", count=6, seed=0, n=10)
    bundle = split_bundle(label_bundle(generate(spec))[0], (3, 1, 2), seed=0)
    again = split_bundle(label_bundle(generate(spec))[0], (3, 1, 2), seed=0)
    write_bundle(bundle, tmp_path / "a")
    write_bundle(again, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert (tmp_path / "b" / f.name).read_bytes() == f.read_bytes()

    back = read_bundle(tmp_path / "a")
    assert back.split == bundle.split
    for inst, orig in zip(back.instances, bundle.instances):
        np.testing.assert_array_equal(inst.P.values, orig.P.values)
        np.testing.assert_array_equal(inst.b_eq, orig.b_eq)
        np.testing.assert_array_equal(inst.l, orig.l)
    for (xa, ya), (xb, yb) in zip(back.labels, bundle.labels):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    params = net.init_params(2, 4, seed=3, scheme="random")
    net.save_checkpoint(params, tmp_path / "m.json")
    net.save_checkpoint(net.load_checkpoint(tmp_path / "m.json"),
                        tmp_path / "m2.json")
    assert (tmp_path / "m.json").read_bytes() == \
        (tmp_path / "m2.json").read_bytes()


class TestCriterion11InvariantSuite:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(0)
        data = desk_instances(1, seed=6, n=10)[0]
        for _ in range(100):
            x = rng.standard_normal(data.size)
            y = rng.standard_normal(data.size)
            lhs = spmv_t(data.I_plus_M, y) @ x
            rhs = y @ spmv(data.I_plus_M, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_projection_idempotent_and_lipschitz(self):
        rng = np.random.default_rng(1)
        spec = ConeSpec(m_zero=3, m_nonneg=4)
        for _ in range(100):
            a = rng.standard_normal(10)
            b = rng.standard_normal(10)
            pa = project_cone_dual(a, spec)
            np.testing.assert_array_equal(project_cone_dual(pa, spec), pa)
            assert np.linalg.norm(pa - project_cone_dual(b, spec)) \
                <= np.linalg.norm(a - b) + 1e-15

    def test_w_update_identity(self):
        data = desk_instances(1, seed=7, n=10)[0]
        rng = np.random.default_rng(2)
        eta = 0.5 * step_size_cap(data)
        cfg = SolverConfig(fixed_eta=eta, max_iter=1,
                           tol_fixed_point=1e-300)
        for _ in range(20):
            w = rng.standard_normal(data.size)
            ut = rng.standard_normal(data.size)
            warm = IterateState(u_tilde=ut,
                                u=project_cone_dual(ut, data.cone), w=w)
            rep = drgd_solve(data, cfg, warm=warm)
            np.testing.assert_array_equal(
                rep.state.w, w + (rep.state.u - rep.state.u_tilde))

    def test_u_in_cone_per_iteration(self):
        data = desk_instances(1, seed=8, n=10)[0]
        tail = data.size - data.cone.m_nonneg
        for iters in (1, 5, 20, 100):
            for solve in (dr_solve, drgd_solve):
                rep = solve(data, SolverConfig(max_iter=iters))
                assert np.all(rep.state.u[tail:] >= 0.0)

    def test_portfolio_objective_encoding(self):
        bundle = generate(GenSpec(family="portfolio", count=3, seed=9, k=2))
        rng = np.random.default_rng(3)
        for inst in bundle.instances:
            P = inst.P.to_dense()
            D = 0.5 * P[:20, :20]
            mu = -inst.c[:20]
            for _ in range(10):
                x = rng.standard_normal(20)
                y = rng.standard_normal(2)
                z = np.concatenate([x, y])
                direct = x @ D @ x + y @ y - mu @ x
                assert abs(inst.objective(z) - direct) \
                    <= 1e-12 * max(1.0, abs(direct))
