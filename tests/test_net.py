import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import build_standard, inclusion_of
from drqp import model, net
from drqp.datagen import GenSpec, generate
from drqp.model import project_cone_dual
from drqp.report import prepare_data, training_log_csv
from drqp.solvers import (IterateState, SolverConfig, drgd_solve,
                          step_size_cap)


def emulation_start(data):
    """The state the net's layer-0 initialization corresponds to."""
    u0 = project_cone_dual(-data.q, data.cone)
    return IterateState(u_tilde=np.zeros(data.size), u=u0, w=data.q + u0)


def drgd_trace(data, eta, iters, steps_per_iter=1):
    cfg = SolverConfig(fixed_eta=eta, max_iter=iters,
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
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_random_scheme_differs(self):
        a = net.init_params(2, 4, seed=0, scheme="random")
        assert not np.allclose(a.layers[0].U_ut, np.eye(4), atol=0.5)

    def test_eta_prior_positive_required(self):
        with pytest.raises(ValueError):
            net.init_params(2, 4, eta_prior=0.0)


def _gen_spec(**kw):
    family = "portfolio" if "k" in kw else "qp_rhs"
    return GenSpec(**{"family": family, "count": 2, **({} if "k" in kw else {"n": 4}), **kw})


@pytest.mark.parametrize("build, field", [
    *[(net.TrainConfig, name) for name in ("batch_size", "max_epochs", "patience", "layers",
                                            "embed", "unroll_steps", "escalation_patience")],
    (_gen_spec, "count"), (_gen_spec, "n"), (_gen_spec, "k"),
    (net.init_params, "L"), (net.init_params, "d"),
])
@pytest.mark.parametrize("value", [2.0, 1.5, "3"])
def test_counts_are_integers(build, field, value):
    # a float count used to pass construction and die deep inside training,
    # generation or the parameter layout with a TypeError naming no field
    kw = {"L": 2, "d": 3} if build is net.init_params else {}
    with pytest.raises(ValueError, match=f"{field} must be >= [01] and an integer"):
        build(**{**kw, field: value})
    build(**{**kw, field: np.int64(2)})


@pytest.mark.parametrize("field, value, message", [
    *[("perturbation", v, r"perturbation must lie in \[0, 1\)")
      for v in (math.nan, math.inf, 1.0, -0.1)],
    *[("margin", v, "margin must be positive and finite")
      for v in (math.nan, math.inf, 0.0, -1.0)],
])
def test_generator_widths_are_checked(field, value, message):
    # perturbation=nan raised numpy's OverflowError inside generation, and
    # margin=nan generated instances whose h is NaN
    with pytest.raises(ValueError, match=message):
        _gen_spec(family="qp_perturbed", **{field: value})
    _gen_spec(family="qp_perturbed", perturbation=0.0, margin=0.5)


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


class TestForwardBlock:
    """A block forward's rows are forward's outputs, byte for byte."""

    @staticmethod
    def _assert_rows_equal(datas, params):
        block = net.forward_block(datas, params)
        assert len(block) == len(datas)
        for data, (xb, yb) in zip(datas, block):
            xh, yh, _ = net.forward(data, params)
            assert xb.tobytes() == xh.tobytes() and yb.tobytes() == yh.tobytes()

    @pytest.mark.parametrize("B", [1, 4])
    def test_rows_equal_one_instance_forwards(self, desk_datas, B):
        # d = 3 is no multiple of a BLAS tile width
        for d in (3, 8):
            self._assert_rows_equal(desk_datas[:B], net.init_params(3, d, seed=1))

    def test_unroll_steps(self, desk_datas):
        params = net.init_params(2, 4, seed=2, scheme="random", unroll_steps=2)
        self._assert_rows_equal(desk_datas[2:6], params)

    def test_sparse_operator(self, monkeypatch):
        monkeypatch.setattr(model, "_DENSE_LIMIT", 0)
        datas = prepare_data(generate(GenSpec(family="qp_rhs", count=4, seed=7, n=20)))
        assert sp.issparse(datas[0].operator.channel_operator[0])
        self._assert_rows_equal(datas, net.init_params(3, 5, seed=3))

    def test_distinct_operators_rejected(self, desk_datas, tiny_data):
        with pytest.raises(ValueError, match="share one operator"):
            net.forward_block([desk_datas[0], tiny_data], net.init_params(1, 2))

    def test_block_projects_every_instance(self, desk_datas):
        # every row of the dual block is projected, not just the last rows
        # of the stacked state
        params = net.init_params(2, 4, seed=4, scheme="random")
        tail = desk_datas[0].size - desk_datas[0].cone.m_nonneg
        for x, y in net.forward_block(desk_datas[:4], params):
            assert np.all(np.concatenate([x, y])[tail:] >= 0.0)


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


def reference_backward(data, params, cache, label):
    """Every term of every layer, the exactly-zero ones included, summed
    into a zero vector: the reference backward must equal bit for bit."""
    target = np.concatenate([np.asarray(v, dtype=np.float64) for v in label])
    K, Kt = data.operator.channel_operator
    free = data.n + data.cone.m_zero
    grad = np.zeros_like(params.vector)
    at = {name: s for name, s, _ in net.layout(params.L, params.d)}

    def add(name, g):
        grad[at[name]] += g.ravel()

    r = cache.out - target
    add("p_out", cache.layers[-1].u_out.T @ r)
    u_bar = np.outer(r, params.p_out)
    ut_bar = np.zeros_like(u_bar)
    w_bar = np.zeros_like(u_bar)
    for li in range(params.L - 1, -1, -1):
        lp, lc, pre = params.layers[li], cache.layers[li], f"layers.{li}."
        add(pre + "W_w", lc.w_in.T @ w_bar)
        add(pre + "W_u", lc.u_out.T @ w_bar)
        add(pre + "W_ut", -lc.ut_out.T @ w_bar)
        w_in_bar = w_bar @ lp.W_w.T
        u_bar = u_bar + w_bar @ lp.W_u.T
        ut_out_bar = ut_bar - w_bar @ lp.W_ut.T
        p_bar = u_bar.copy()
        p_bar[free:] *= lc.p_pre[free:] > 0
        add(pre + "V_ut", 2.0 * lc.ut_out.T @ p_bar)
        add(pre + "V_w", -lc.w_in.T @ p_bar)
        ut_out_bar = ut_out_bar + 2.0 * p_bar @ lp.V_ut.T
        w_in_bar = w_in_bar - p_bar @ lp.V_w.T
        eta = params.eta[li]
        gate_bar = np.zeros_like(lc.gate)
        wprime_bar = np.zeros_like(lc.w_in)
        cur = ut_out_bar
        for ut_cur, g in reversed(lc.inner):
            vt_bar = cur.copy()
            g_bar = -eta * lc.gate * cur
            gate_bar += -eta * g * cur
            Kg = K @ g_bar
            vt_bar += Kt @ Kg
            wprime_bar -= Kg
            add(pre + "U_ut", ut_cur.T @ vt_bar)
            cur = vt_bar @ lp.U_ut.T
        z_bar = gate_bar * lc.gate * (1.0 - lc.gate)
        add(pre + "U_eta", lc.w_in.T @ z_bar)
        add(pre + "b_eta", z_bar.sum(axis=0))
        w_in_bar = w_in_bar + z_bar @ lp.U_eta.T
        add(pre + "U_w", lc.w_in.T @ wprime_bar)
        w_in_bar = w_in_bar + wprime_bar @ lp.U_w.T
        ut_bar, w_bar, u_bar = cur, w_in_bar, np.zeros_like(u_bar)
    return grad


class TestBackward:
    def _fd_check(self, data, params, label, rtol=1e-4, h=1e-5):
        _, _, cache = net.forward(data, params)
        grads = net.backward(data, params, cache, label)
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
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-8 and abs(grads[k]) < 1e-8:
                continue
            worst = max(worst, abs(grads[k] - fd) / max(abs(fd), 1e-12))
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
        assert not sp.issparse(dense.operator.channel_operator[0])
        assert sp.issparse(sparse.operator.channel_operator[0])
        np.testing.assert_allclose(out_s, out_d, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(grads_s, grads_d, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("L,d,steps", [(1, 3, 1), (2, 4, 3), (4, 8, 1), (3, 5, 2)])
    def test_matches_unpruned_reference_bit_for_bit(self, desk_datas, L, d, steps):
        # skipping the terms that are exactly zero moves no bit of the rest
        params = net.init_params(L, d, seed=L + d, scheme="random", unroll_steps=steps)
        rng = np.random.default_rng(d)
        for data in desk_datas[:3]:
            label = (rng.standard_normal(data.n), rng.standard_normal(data.m))
            _, _, cache = net.forward(data, params)
            got = net.backward(data, params, cache, label)
            assert got.tobytes() == reference_backward(data, params, cache, label).tobytes()

    def test_dead_terms_are_exact_zeros(self, desk_datas):
        # the last layer's w_out feeds nothing, and layer 0's first gradient
        # step starts from u-tilde = 0
        params = net.init_params(3, 4, seed=7, scheme="random")
        data = desk_datas[0]
        label = (np.ones(data.n), np.ones(data.m))
        _, _, cache = net.forward(data, params)
        grads = net.NetParams(3, 4, params.eta,
                              vector=net.backward(data, params, cache, label))
        last = grads.layers[-1]
        for g in (last.W_w, last.W_u, last.W_ut, grads.layers[0].U_ut):
            assert g.tobytes() == np.zeros((4, 4)).tobytes()
        for g in (grads.layers[1].W_w, grads.layers[1].U_ut, grads.layers[0].W_u):
            assert np.all(g != 0.0)

    def test_zero_gradient_at_exact_prediction(self, tiny_data):
        params = net.init_params(2, 4, seed=5)
        xh, yh, cache = net.forward(tiny_data, params)
        grads = net.backward(tiny_data, params, cache, (xh, yh))
        np.testing.assert_array_equal(grads, np.zeros_like(grads))

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
        b_eta_grad = net.NetParams(1, 1, params.eta, vector=grads).layers[0].b_eta
        assert b_eta_grad[0] == pytest.approx(hand, rel=1e-12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = net.init_params(1, 2, seed=0)
        before = params.copy()
        moments = net.AdamMoments.zeros(params)
        grads = np.zeros_like(params.vector)
        net.adam_step(params, grads, moments, 1, net.TrainConfig())
        np.testing.assert_array_equal(params.vector, before.vector)

    def test_first_step_magnitude(self):
        params = net.init_params(1, 2, seed=0)
        before = params.copy()
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=1e-3)
        grads = np.full_like(params.vector, 2.0)
        net.adam_step(params, grads, moments, 1, cfg)
        delta = params.p_out - before.p_out
        np.testing.assert_allclose(delta, -cfg.learning_rate, rtol=1e-6)

    def test_quadratic_descent(self):
        # scalar simulation: min (p - 3)^2 via the same update rule
        params = net.init_params(1, 1, seed=0)
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=0.1)
        values = []
        for t in range(1, 101):
            p = params.p_out[0]
            values.append((p - 3.0) ** 2)
            grads = np.zeros_like(params.vector)
            net.NetParams(1, 1, params.eta, vector=grads).p_out[:] = 2 * (p - 3.0)
            net.adam_step(params, grads, moments, t, cfg)
        assert values[-1] < values[10] < values[0]

    def test_matches_per_tensor_reference(self):
        # the flat update is the per-tensor update, element for element
        params = net.init_params(2, 3, seed=1, scheme="random")
        tensors = net.layout(params.L, params.d)
        ref = {name: params.vector[s].reshape(shape).copy() for name, s, shape in tensors}
        ref_m = {name: np.zeros_like(val) for name, val in ref.items()}
        ref_v = {name: np.zeros_like(val) for name, val in ref.items()}
        moments = net.AdamMoments.zeros(params)
        cfg = net.TrainConfig(learning_rate=1e-3)
        b1, b2, eps = net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPS
        rng = np.random.default_rng(2)
        for t in range(1, 51):
            grads = (10.0 ** rng.uniform(-8, 2, params.vector.size)
                     * rng.choice([-1.0, 1.0], params.vector.size))
            net.adam_step(params, grads, moments, t, cfg)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for name, s, shape in tensors:
                g, m, v, arr = grads[s].reshape(shape), ref_m[name], ref_v[name], ref[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                arr -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
        for name, s, shape in tensors:
            np.testing.assert_array_equal(params.vector[s].reshape(shape), ref[name])


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

    def test_gradients_come_from_backward(self, monkeypatch):
        # one backward call per sample: one epoch at batch 1 over 4 samples
        datas, labels = self._toy_problem()
        calls = []
        backward = net.backward
        monkeypatch.setattr(net, "backward", lambda *a: calls.append(1) or backward(*a))
        cfg = net.TrainConfig(max_epochs=1, batch_size=1, layers=1, embed=2,
                              eta_prior=0.05)
        net.train(datas, labels, [0, 1, 2, 3], [4, 5], cfg)
        assert len(calls) == 4

    def test_block_validation_loss_in_val_order(self):
        # a val set over two operators: the logged loss sums the one-instance
        # forwards in val_idx order, not the blocks' order
        datas = [d for seed in (1, 2) for d in prepare_data(
            generate(GenSpec(family="qp_rhs", count=4, seed=seed, n=6)))]
        rng = np.random.default_rng(8)
        labels = [(rng.standard_normal(d.n), 10.0 ** rng.uniform(-3, 3) *
                   rng.standard_normal(d.m)) for d in datas]
        val_idx = [5, 1, 6, 2, 7, 3]
        cfg = net.TrainConfig(max_epochs=2, batch_size=1, layers=2, embed=3,
                              eta_prior=0.05, learning_rate=1e-3)
        seen = []

        def check(epoch, params, val_loss):
            preds = {i: net.forward(datas[i], params)[:2] for i in val_idx}
            in_order = net.loss([preds[i] for i in val_idx], [labels[i] for i in val_idx])
            grouped = [5, 6, 7, 1, 2, 3]  # the blocks' order: operator 1 first
            by_group = net.loss([preds[i] for i in grouped], [labels[i] for i in grouped])
            seen.append((val_loss, in_order, by_group))

        net.train(datas, labels, [0, 4], val_idx, cfg, epoch_callback=check)
        assert len({id(d.operator) for d in datas}) == 2
        for val_loss, in_order, by_group in seen:
            assert val_loss == in_order
        # the orders round apart, so the check above tells them apart
        assert any(in_order != by_group for _, in_order, by_group in seen)

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
        np.testing.assert_array_equal(back.vector, params.vector)
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
        np.testing.assert_array_equal(back.vector, fresh.vector)

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
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed checkpoint: unsupported version 'someone-elses-format', "
                "expected 'drqp-net-1'")):
            net.load_checkpoint(path)


class TestTrainingLog:
    def test_csv_columns(self):
        log = [net.EpochLog(epoch=1, train_loss=0.5, val_loss=0.6, best=True,
                            learning_rate=1e-5)]
        lines = training_log_csv(log).strip().splitlines()
        assert lines[0].split(",")[:5] == ["epoch", "train_loss", "val_loss",
                                           "best_flag", "learning_rate"]
        assert lines[1].startswith("1,")
        assert float(lines[1].split(",")[4]) == 1e-5
