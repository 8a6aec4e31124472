import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import build_standard, inclusion_of
from drqp import model, net
from drqp.model import project_cone_dual
from drqp.solvers import (IterateState, SolverConfig, drgd_solve,
                          step_size_cap)


def emulation_start(data):
    """The state the net's layer-0 initialization corresponds to."""
    u0 = project_cone_dual(-data.q, data.cone)
    return IterateState(u_tilde=np.zeros(data.size), u=u0, w=data.q + u0)


def drgd_trace(data, eta, iters, steps_per_iter=1):
    cfg = SolverConfig(step_mode="fixed", fixed_eta=eta, max_iter=iters,
                       tol_fixed_point=1e-300, steps_per_iter=steps_per_iter)
    return drgd_solve(data, cfg, warm=emulation_start(data))


def masked_sigmoid(z):
    """The boolean-mask form net._sigmoid replaced, as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_bit_identical_to_masked_form(self):
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 745.2, -745.2,
                 709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324, tiny, -tiny,
                 1e308, -1e308]
        rng = np.random.default_rng(0)
        z = np.concatenate([edges, np.linspace(-800.0, 800.0, 200_001),
                            rng.standard_normal(200_000)
                            * np.exp(rng.uniform(-50.0, 7.0, 200_000))])
        with np.errstate(over="ignore"):
            assert net._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
            Z = z[:200_000].reshape(-1, 8)  # gates are (n+m) x d
            assert net._sigmoid(Z).tobytes() == masked_sigmoid(Z).tobytes()

    def test_nan_stays_nan(self):
        out = net._sigmoid(np.array([np.nan, -np.nan, 0.0]))
        assert np.isnan(out[:2]).all() and out[2] == 0.5


class TestInitParams:
    def test_zero_noise_is_identity(self):
        params = net.init_params(2, 4, seed=0, noise_std=0.0)
        for layer in params.layers:
            np.testing.assert_array_equal(layer.U_ut, np.eye(4))
            np.testing.assert_array_equal(layer.V_ut, np.eye(4))
            np.testing.assert_array_equal(layer.W_w, np.eye(4))
            # gate biases ladder across channels at init
            np.testing.assert_array_equal(layer.b_eta, np.linspace(-1.0, 3.0, 4))
        np.testing.assert_array_equal(params.p_out, np.full(4, 0.25))

    def test_seed_determinism(self):
        a = net.init_params(3, 8, seed=5)
        b = net.init_params(3, 8, seed=5)
        for name, val in a.named_parameters():
            np.testing.assert_array_equal(val, b.get(name))

    def test_random_scheme_differs(self):
        a = net.init_params(2, 4, seed=0, scheme="random")
        assert not np.allclose(a.layers[0].U_ut, np.eye(4), atol=0.5)

    def test_eta_prior_positive_required(self):
        with pytest.raises(ValueError):
            net.init_params(2, 4, eta_prior=0.0)


class TestForward:
    def test_trivial_problem_outputs_zero(self):
        qp = build_standard(P=np.zeros((2, 2)), c=[0.0, 0.0],
                            A=np.zeros((0, 2)), b=[], G=np.zeros((0, 2)), h=[],
                            l=np.full(2, -np.inf), u=np.full(2, np.inf))
        data = inclusion_of(qp)  # q = 0, so every initial state is 0
        params = net.init_params(2, 4, noise_std=0.0)
        xh, yh, _ = net.forward(data, params)
        np.testing.assert_array_equal(xh, np.zeros(2))
        np.testing.assert_array_equal(yh, np.zeros(0))

    def test_projection_rows_nonnegative(self, tiny_data):
        params = net.init_params(3, 4, seed=1, scheme="random")
        _, _, cache = net.forward(tiny_data, params)
        tail = tiny_data.size - tiny_data.cone.m_nonneg
        for layer in cache.layers:
            assert np.all(layer.u_out[tail:, :] >= 0.0)

    def test_non_finite_raises_with_layer(self, tiny_data):
        params = net.init_params(2, 4, seed=2)
        params.layers[1].U_ut[0, 0] = np.inf
        with pytest.raises(net.NonFiniteActivationError) as err:
            net.forward(tiny_data, params)
        assert err.value.layer == 1


class TestEmulation:
    def test_single_layer_hand_iteration(self, one_var_data):
        data = one_var_data
        eta = 0.5 * step_size_cap(data)
        params = net.emulation_params(data, eta, L=1)
        xh, yh, _ = net.forward(data, params)
        # hand-compute one fixed-step iteration from the net's start state
        K = data.I_plus_M.to_dense()
        start = emulation_start(data)
        g = K.T @ (K @ start.u_tilde - (start.w - data.q))
        ut1 = start.u_tilde - eta * g
        u1 = project_cone_dual(2 * ut1 - start.w, data.cone)
        np.testing.assert_allclose(np.concatenate([xh, yh]), u1, atol=1e-14)

    def test_four_layers_match_solver_trace(self, desk_datas):
        for data in desk_datas[:5]:
            eta = 0.5 * step_size_cap(data)
            params = net.emulation_params(data, eta, L=4)
            xh, yh, _ = net.forward(data, params)
            rep = drgd_trace(data, eta, 4)
            np.testing.assert_allclose(np.concatenate([xh, yh]), rep.state.u,
                                       atol=1e-12)

    def test_multistep_emulation(self, tiny_data):
        eta = 0.4 * step_size_cap(tiny_data)
        params = net.emulation_params(tiny_data, eta, L=3)
        params.unroll_steps = 5
        xh, yh, _ = net.forward(tiny_data, params)
        rep = drgd_trace(tiny_data, eta, 3, steps_per_iter=5)
        np.testing.assert_allclose(np.concatenate([xh, yh]), rep.state.u,
                                   atol=1e-12)

    def test_eta_out_of_range_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            net.emulation_params(tiny_data, 0.0, L=2)
        with pytest.raises(ValueError):
            net.emulation_params(tiny_data, 10 * step_size_cap(tiny_data), L=2)


class TestLoss:
    def test_zero_at_labels(self):
        preds = [(np.ones(3), np.zeros(2))]
        assert net.loss(preds, preds) == 0.0

    def test_single_sample_arithmetic(self):
        pred = [(np.array([1.0, 1.0]), np.zeros(2))]
        label = [(np.array([0.0, 0.0]), np.zeros(2))]
        assert net.loss(pred, label) == pytest.approx(1.0)

    def test_mean_over_batch(self):
        preds = [(np.array([np.sqrt(2.0)]), np.zeros(1)),
                 (np.array([2.0]), np.zeros(1))]
        labels = [(np.zeros(1), np.zeros(1)), (np.zeros(1), np.zeros(1))]
        assert net.loss(preds, labels) == pytest.approx(0.5 * (2.0 + 4.0) / 2)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = [(rng.standard_normal(3), rng.standard_normal(2))
                 for _ in range(4)]
        labels = [(rng.standard_normal(3), rng.standard_normal(2))
                  for _ in range(4)]
        perm = [2, 0, 3, 1]
        assert net.loss(preds, labels) == pytest.approx(
            net.loss([preds[i] for i in perm], [labels[i] for i in perm]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            net.loss([(np.zeros(1), np.zeros(1))], [])


class TestBackward:
    def _fd_check(self, data, params, label, rtol=1e-4, h=1e-5):
        _, _, cache = net.forward(data, params)
        grads = net.backward(data, params, cache, label)
        worst = 0.0
        for name, _ in params.named_parameters():
            g = grads[name]
            base = params.get(name)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = base[idx]
                base[idx] = orig + h
                xp, yp, _ = net.forward(data, params)
                fp = net.loss([(xp, yp)], [label])
                base[idx] = orig - h
                xm, ym, _ = net.forward(data, params)
                fm = net.loss([(xm, ym)], [label])
                base[idx] = orig
                fd = (fp - fm) / (2 * h)
                if abs(fd) < 1e-8 and abs(g[idx]) < 1e-8:
                    continue
                worst = max(worst, abs(g[idx] - fd) / max(abs(fd), 1e-12))
        return worst

    def test_finite_difference_small_net(self, tiny_data):
        rng = np.random.default_rng(1)
        params = net.init_params(2, 4, seed=3, scheme="random")
        label = (rng.standard_normal(tiny_data.n),
                 rng.standard_normal(tiny_data.m))
        assert self._fd_check(tiny_data, params, label) <= 1e-4

    def test_finite_difference_multistep(self, tiny_data):
        rng = np.random.default_rng(2)
        params = net.init_params(2, 3, seed=4, scheme="random",
                                 unroll_steps=3)
        label = (rng.standard_normal(tiny_data.n),
                 rng.standard_normal(tiny_data.m))
        assert self._fd_check(tiny_data, params, label) <= 1e-4

    def test_sparse_operator_matches_dense(self, tiny_data, monkeypatch):
        # above the dense limit the same products run on the CSR pair of I+M
        rng = np.random.default_rng(6)
        params = net.init_params(2, 4, seed=6, scheme="random", unroll_steps=2)
        label = (rng.standard_normal(tiny_data.n),
                 rng.standard_normal(tiny_data.m))
        runs = []
        for limit in (tiny_data.size, 0):
            monkeypatch.setattr(model, "_DENSE_LIMIT", limit)
            data = model.assemble_inclusion(tiny_data.cqp)  # fresh operator cache
            xh, yh, cache = net.forward(data, params)
            runs.append((data, cache.out, net.backward(data, params, cache, label)))
        (dense, out_d, grads_d), (sparse, out_s, grads_s) = runs
        assert not sp.issparse(dense.channel_operator[0])
        assert sp.issparse(sparse.channel_operator[0])
        np.testing.assert_allclose(out_s, out_d, rtol=1e-12, atol=1e-14)
        for name in grads_d:
            np.testing.assert_allclose(grads_s[name], grads_d[name],
                                       rtol=1e-12, atol=1e-14)

    def test_zero_gradient_at_exact_prediction(self, tiny_data):
        params = net.init_params(2, 4, seed=5)
        xh, yh, cache = net.forward(tiny_data, params)
        grads = net.backward(tiny_data, params, cache, (xh, yh))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_bias_gradient_scalar_oracle(self):
        # 1x1 problem, d=1, L=1: the gate path collapses to scalars and the
        # b_eta adjoint can be written out by hand
        qp = build_standard(P=[[1.0]], c=[1.0], A=np.zeros((0, 1)), b=[],
                            G=np.zeros((0, 1)), h=[],
                            l=[-np.inf], u=[np.inf])
        data = inclusion_of(qp)
        params = net.init_params(1, 1, noise_std=0.0, eta_prior=0.05)
        layer = params.layers[0]
        label = (np.array([0.3]), np.zeros(0))
        xh, _, cache = net.forward(data, params)
        grads = net.backward(data, params, cache, label)

        K = 2.0  # I + M = 2 for P = 1, no constraints
        q = data.q[0]
        w0 = q  # u0 = max-free identity on the single primal row -> -q+...
        w0 = data.q[0] + (-data.q[0])  # u0 = Pi_C(-q) = -q on a free row
        ut0 = 0.0
        g0 = K * (K * ut0 - (w0 - q))
        eta_l = params.eta[0]
        # ut1 = -eta_l * sigmoid(b) * g0; loss = 1/2 (ut1*... - x*)^2 path
        b = params.layers[0].b_eta[0]  # ladder init: single channel sits at -1
        sig = 1.0 / (1.0 + np.exp(-b))
        ut1 = ut0 - eta_l * sig * g0
        u1 = 2 * ut1 - w0  # free row projection is the identity
        # output x = u1 * p_out, p_out = 1
        dL_du1 = (u1 - label[0][0])
        dL_dut1 = 2 * dL_du1
        hand = dL_dut1 * (-eta_l * g0) * sig * (1 - sig)
        assert grads["layers.0.b_eta"][0] == pytest.approx(hand, rel=1e-12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = net.init_params(1, 2, seed=0)
        before = params.copy()
        moments = net.AdamMoments.zeros(params)
        grads = np.zeros_like(params.vector)
        net.adam_step(params, grads, moments, 1, net.TrainConfig())
        for name, val in params.named_parameters():
            np.testing.assert_array_equal(val, before.get(name))

    def test_first_step_magnitude(self):
        params = net.init_params(1, 2, seed=0)
        before = params.copy()
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=1e-3)
        grads = np.full_like(params.vector, 2.0)
        net.adam_step(params, grads, moments, 1, cfg)
        delta = params.get("p_out") - before.get("p_out")
        np.testing.assert_allclose(delta, -cfg.learning_rate, rtol=1e-6)

    def test_quadratic_descent(self):
        # scalar simulation: min (p - 3)^2 via the same update rule
        params = net.init_params(1, 1, seed=0)
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=0.1)
        values = []
        for t in range(1, 101):
            p = params.get("p_out")[0]
            values.append((p - 3.0) ** 2)
            grads = net.NamedViews(np.zeros_like(params.vector), 1, 1)
            grads["p_out"][:] = np.array([2 * (p - 3.0)])
            net.adam_step(params, grads.vector, moments, t, cfg)
        assert values[-1] < values[10] < values[0]

    def test_matches_per_tensor_reference(self):
        # the flat update is the per-tensor update, element for element
        params = net.init_params(2, 3, seed=1, scheme="random")
        ref = {name: np.array(val) for name, val in params.named_parameters()}
        ref_m = {name: np.zeros_like(val) for name, val in ref.items()}
        ref_v = {name: np.zeros_like(val) for name, val in ref.items()}
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=1e-3)
        rng = np.random.default_rng(2)
        for t in range(1, 51):
            grads = net.NamedViews(
                10.0 ** rng.uniform(-8, 2, params.vector.size)
                * rng.choice([-1.0, 1.0], params.vector.size), params.L, params.d)
            net.adam_step(params, grads.vector, moments, t, cfg)
            bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
            for name, arr in ref.items():
                g, m, v = grads[name], ref_m[name], ref_v[name]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * g * g
                arr -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        for name, val in params.named_parameters():
            np.testing.assert_array_equal(val, ref[name])


class TestTrain:
    def _toy_problem(self, count=6):
        rng = np.random.default_rng(6)
        datas, labels = [], []
        for _ in range(count):
            P = np.diag(rng.uniform(0.5, 2.0, 2))
            c = rng.standard_normal(2)
            qp = build_standard(P=P, c=c, A=np.zeros((0, 2)), b=[],
                                G=np.zeros((0, 2)), h=[],
                                l=np.full(2, -np.inf), u=np.full(2, np.inf))
            datas.append(inclusion_of(qp))
            labels.append((np.linalg.solve(P, -c), np.zeros(0)))
        return datas, labels

    def test_loss_decreases(self):
        datas, labels = self._toy_problem()
        cfg = net.TrainConfig(max_epochs=30, patience=30, layers=2, embed=4,
                              learning_rate=1e-3, eta_prior=0.05, seed=0)
        result = net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        assert result.best_val_loss < result.log[0].val_loss

    def test_deterministic_log(self):
        datas, labels = self._toy_problem()
        cfg = net.TrainConfig(max_epochs=5, layers=1, embed=2, seed=1,
                              eta_prior=0.05)
        a = net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        b = net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        assert [(e.train_loss, e.val_loss) for e in a.log] == \
               [(e.train_loss, e.val_loss) for e in b.log]

    def test_early_stopping(self):
        datas, labels = self._toy_problem()
        # zero learning rate: nothing improves after epoch 1
        cfg = net.TrainConfig(max_epochs=50, patience=2, layers=1, embed=2,
                              learning_rate=1e-30, eta_prior=0.05, seed=0)
        result = net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        assert len(result.log) <= 4
        assert result.best_epoch == 1

    def test_lr_escalation(self):
        datas, labels = self._toy_problem()
        cfg = net.TrainConfig(max_epochs=12, patience=10, layers=1, embed=2,
                              learning_rate=1e-30, escalated_lr=1e-3,
                              escalation_patience=3, eta_prior=0.05, seed=0)
        result = net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        lrs = [e.learning_rate for e in result.log]
        assert lrs[0] == 1e-30
        assert 1e-3 in lrs

    def test_missing_labels_rejected(self):
        datas, labels = self._toy_problem()
        labels[1] = None
        with pytest.raises(ValueError):
            net.train(datas, labels, [0, 1], [2], net.TrainConfig())

    def test_empty_split_rejected(self):
        datas, labels = self._toy_problem()
        with pytest.raises(ValueError):
            net.train(datas, labels, [], [0], net.TrainConfig())


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        params = net.init_params(3, 5, seed=7, scheme="random",
                                 unroll_steps=2)
        path = tmp_path / "model.json"
        net.save_checkpoint(params, path)
        back = net.load_checkpoint(path)
        assert back.L == params.L and back.d == params.d
        assert back.unroll_steps == 2
        for name, val in params.named_parameters():
            np.testing.assert_array_equal(back.get(name), val)
        np.testing.assert_array_equal(back.eta, params.eta)

    def test_golden_file_round_trip(self, tmp_path):
        # net_v1.json pins the drqp-net-1 bytes and the mapping from
        # parameter names to the flat layout
        golden = Path(__file__).parent / "data" / "net_v1.json"
        back = net.load_checkpoint(golden)
        path = tmp_path / "model.json"
        net.save_checkpoint(back, path)
        assert path.read_bytes() == golden.read_bytes()
        fresh = net.init_params(2, 3, seed=7, scheme="random", unroll_steps=2)
        for name, val in back.named_parameters():
            np.testing.assert_array_equal(val, fresh.get(name))

    @pytest.mark.parametrize("case", [
        "not-object", "missing-layer-key", "extra-layer-key", "missing-key",
        "extra-key", "wrong-shape", "layer-count", "layer-not-object",
        "bad-unroll-steps"])
    def test_malformed_rejected(self, tmp_path, case):
        path = tmp_path / "model.json"
        net.save_checkpoint(net.init_params(2, 2, seed=0), path)
        doc = json.loads(path.read_text())
        layers = doc["layers"]
        if case == "not-object":
            doc = [doc]
        elif case == "missing-layer-key":
            del layers[0]["U_w"]
        elif case == "extra-layer-key":
            layers[0]["U_x"] = layers[0]["U_w"]
        elif case == "missing-key":
            del doc["p_out"]
        elif case == "extra-key":
            doc["extra"] = 1
        elif case == "wrong-shape":
            layers[1]["b_eta"] = [0.0]
        elif case == "layer-count":
            layers.pop()
        elif case == "layer-not-object":
            layers[0] = 5
        elif case == "bad-unroll-steps":
            doc["unroll_steps"] = "2"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            net.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = net.init_params(1, 2, seed=0)
        path = tmp_path / "model.json"
        net.save_checkpoint(params, path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(Exception):
            net.load_checkpoint(path)

    def test_width_mismatch_rejected(self, tmp_path):
        params = net.init_params(1, 4, seed=0)
        path = tmp_path / "model.json"
        net.save_checkpoint(params, path)
        with pytest.raises(ValueError):
            net.load_checkpoint(path, expect_d=8)

    def test_non_finite_rejected(self, tmp_path):
        params = net.init_params(1, 2, seed=0)
        path = tmp_path / "model.json"
        net.save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["p_out"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            net.load_checkpoint(path)

    def test_save_non_finite_raises(self, tmp_path):
        params = net.init_params(1, 2, seed=0)
        params.layers[0].U_w[0, 0] = np.inf
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            net.save_checkpoint(params, path)
        assert not path.exists()

    def test_version_mismatch_rejected(self, tmp_path):
        params = net.init_params(1, 2, seed=0)
        path = tmp_path / "model.json"
        net.save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["version"] = "someone-elses-format"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            net.load_checkpoint(path)


class TestTrainingLog:
    def test_csv_columns(self, tmp_path):
        log = [net.EpochLog(epoch=1, train_loss=0.5, val_loss=0.6, best=True,
                            learning_rate=1e-5)]
        path = tmp_path / "log.csv"
        net.write_training_log(path, log)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:5] == ["epoch", "train_loss", "val_loss",
                                           "best_flag", "learning_rate"]
        assert lines[1].startswith("1,")
        assert float(lines[1].split(",")[4]) == 1e-5
