"""Unrolled DR-GD network: forward pass, hand-derived adjoints, Adam training."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import MonotoneData, project_cone_dual
from .solvers import step_size_cap

CHECKPOINT_VERSION = "drqp-net-1"

ALGORITHM_CONSISTENT = "algorithm-consistent"
RANDOM = "random"


class NonFiniteActivationError(RuntimeError):
    def __init__(self, layer: int):
        super().__init__(f"non-finite activation in layer {layer}")
        self.layer = layer


@dataclass
class LayerParams:
    U_ut: np.ndarray   # mixes u-tilde before the gradient step, d x d
    U_w: np.ndarray    # mixes w into the least-squares target, d x d
    U_eta: np.ndarray  # gate weights, d x d
    b_eta: np.ndarray  # gate bias, broadcast over the n+m rows, (d,)
    V_ut: np.ndarray   # projection input mix for u-tilde, d x d
    V_w: np.ndarray    # projection input mix for w, d x d
    W_w: np.ndarray    # w-update mixes, d x d each
    W_u: np.ndarray
    W_ut: np.ndarray


@dataclass
class NetParams:
    """Learnable parameters plus fixed per-layer step priors eta."""

    L: int
    d: int
    layers: list
    p_out: np.ndarray  # final readout, (d,)
    eta: np.ndarray    # fixed step priors, (L,)
    unroll_steps: int = 1

    def __post_init__(self):
        if self.L < 1 or self.d < 1:
            raise ValueError("L and d must be >= 1")
        if len(self.layers) != self.L:
            raise ValueError("layer count mismatch")
        self.eta = np.asarray(self.eta, dtype=np.float64)
        self.p_out = np.asarray(self.p_out, dtype=np.float64)
        if self.eta.shape != (self.L,) or np.any(self.eta <= 0):
            raise ValueError("eta priors must be positive, one per layer")
        if self.p_out.shape != (self.d,):
            raise ValueError("p_out must have shape (d,)")
        for lp in self.layers:
            for name in ("U_ut", "U_w", "U_eta", "V_ut", "V_w", "W_w", "W_u", "W_ut"):
                if getattr(lp, name).shape != (self.d, self.d):
                    raise ValueError(f"{name} must be d x d")
            if lp.b_eta.shape != (self.d,):
                raise ValueError("b_eta must have shape (d,)")

    def named_parameters(self):
        """(name, array) pairs for every trainable tensor; eta is a fixed prior."""
        for i, lp in enumerate(self.layers):
            for name in ("U_ut", "U_w", "U_eta", "b_eta", "V_ut", "V_w",
                         "W_w", "W_u", "W_ut"):
                yield f"layers.{i}.{name}", getattr(lp, name)
        yield "p_out", self.p_out

    def copy(self) -> "NetParams":
        layers = [LayerParams(**{k: np.array(getattr(lp, k)) for k in
                                 ("U_ut", "U_w", "U_eta", "b_eta", "V_ut", "V_w",
                                  "W_w", "W_u", "W_ut")}) for lp in self.layers]
        return NetParams(self.L, self.d, layers, np.array(self.p_out),
                         np.array(self.eta), self.unroll_steps)

    def get(self, name: str) -> np.ndarray:
        obj = self
        for part in name.split("."):
            obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
        return obj

    def set_(self, name: str, value: np.ndarray) -> None:
        parts = name.split(".")
        obj = self
        for part in parts[:-1]:
            obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
        setattr(obj, parts[-1], value)


def init_params(L: int, d: int, seed: int = 0, scheme: str = ALGORITHM_CONSISTENT,
                eta_prior: float = 0.1, noise_std: float = 0.01,
                unroll_steps: int = 1) -> NetParams:
    """Initialize network parameters.

    algorithm-consistent: every square matrix is I plus small Gaussian noise,
    the gate biases ladder across channels, and the readout averages
    channels, so the untrained net averages fixed-step DR-GD iterations over
    a spread of step sizes. random: zero-mean Gaussians with variance 2/d.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(L):
        if scheme == ALGORITHM_CONSISTENT:
            def mat():
                return np.eye(d) + noise_std * rng.standard_normal((d, d))
            # gate-bias ladder: channels start with staggered effective step
            # sizes, so the readout can immediately combine short and long
            # gradient steps instead of waiting for symmetry breaking
            b_eta = np.linspace(-1.0, 3.0, d)
        elif scheme == RANDOM:
            def mat():
                return np.sqrt(2.0 / d) * rng.standard_normal((d, d))
            b_eta = np.sqrt(2.0 / d) * rng.standard_normal(d)
        else:
            raise ValueError(f"unknown init scheme {scheme!r}")
        layers.append(LayerParams(U_ut=mat(), U_w=mat(), U_eta=mat(), b_eta=b_eta,
                                  V_ut=mat(), V_w=mat(), W_w=mat(), W_u=mat(),
                                  W_ut=mat()))
    if scheme == ALGORITHM_CONSISTENT:
        p_out = np.full(d, 1.0 / d)
    else:
        p_out = np.sqrt(2.0 / d) * rng.standard_normal(d)
    return NetParams(L=L, d=d, layers=layers, p_out=p_out,
                     eta=np.full(L, float(eta_prior)), unroll_steps=unroll_steps)


def emulation_params(data: MonotoneData, eta: float, L: int) -> NetParams:
    """Parameters under which the net reproduces fixed-step DR-GD iterations.

    d = 1, all mixing scalars 1, zero gate weights so sigma(0) = 1/2, and a
    layer prior of 2*eta giving an effective step of exactly eta.
    """
    cap = step_size_cap(data)
    if not (0.0 < eta <= cap):
        raise ValueError(f"emulation eta must lie in (0, {cap:.3e}]")
    one = np.ones((1, 1))
    layers = [LayerParams(U_ut=one.copy(), U_w=one.copy(), U_eta=np.zeros((1, 1)),
                          b_eta=np.zeros(1), V_ut=one.copy(), V_w=one.copy(),
                          W_w=one.copy(), W_u=one.copy(), W_ut=one.copy())
              for _ in range(L)]
    return NetParams(L=L, d=1, layers=layers, p_out=np.ones(1),
                     eta=np.full(L, 2.0 * eta))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LayerCache:
    ut_in: np.ndarray
    w_in: np.ndarray
    wprime: np.ndarray
    z_gate: np.ndarray
    gate: np.ndarray
    inner: list          # per gradient step: (ut_cur, vt, g)
    p_pre: np.ndarray    # projection pre-activation
    u_out: np.ndarray
    ut_out: np.ndarray
    w_out: np.ndarray


@dataclass
class ForwardCache:
    unroll_steps: int
    q_mat: np.ndarray
    layers: list
    u_final: np.ndarray
    out: np.ndarray


def forward(data: MonotoneData, params: NetParams,
            unroll_steps: Optional[int] = None):
    """Run the unrolled network; returns (x_hat, y_hat, cache).

    States are (n+m) x d channel arrays. The initialization broadcasts q and
    the projection of -q across channels; each layer mixes channels, takes
    unroll_steps gated gradient steps on the least-squares target, projects,
    and updates w.
    """
    S = params.unroll_steps if unroll_steps is None else int(unroll_steps)
    if S < 1:
        raise ValueError("unroll_steps must be >= 1")
    K, Kt = data.channel_operator
    N, d = data.size, params.d
    Q = np.broadcast_to(data.q[:, None], (N, d)).copy()
    ut = np.zeros((N, d))
    u = project_cone_dual(-Q, data.cone)
    w = Q + u
    caches = []
    for li, lp in enumerate(params.layers):
        wprime = w @ lp.U_w - Q
        z_gate = w @ lp.U_eta + lp.b_eta
        gate = _sigmoid(z_gate)
        inner = []
        ut_cur = ut
        for _ in range(S):
            vt = ut_cur @ lp.U_ut
            g = Kt @ (K @ vt - wprime)
            inner.append((ut_cur, vt, g))
            ut_cur = vt - params.eta[li] * gate * g
        ut_out = ut_cur
        p_pre = 2.0 * (ut_out @ lp.V_ut) - w @ lp.V_w
        u_out = project_cone_dual(p_pre, data.cone)
        w_out = w @ lp.W_w + (u_out @ lp.W_u - ut_out @ lp.W_ut)
        if not np.all(np.isfinite(w_out)) or not np.all(np.isfinite(ut_out)):
            raise NonFiniteActivationError(li)
        caches.append(LayerCache(ut_in=ut, w_in=w, wprime=wprime, z_gate=z_gate,
                                 gate=gate, inner=inner, p_pre=p_pre, u_out=u_out,
                                 ut_out=ut_out, w_out=w_out))
        ut, w = ut_out, w_out
    out = caches[-1].u_out @ params.p_out
    cache = ForwardCache(unroll_steps=S, q_mat=Q, layers=caches,
                         u_final=caches[-1].u_out, out=out)
    return out[:data.n], out[data.n:], cache


def loss(preds: list, labels: list) -> float:
    """Mean over the batch of 0.5 (||x - x*||^2 + ||y - y*||^2)."""
    if len(preds) != len(labels) or not preds:
        raise ValueError("preds and labels must have equal nonzero length")
    total = 0.0
    for (xh, yh), (xs, ys) in zip(preds, labels):
        total += float(np.sum((xh - xs) ** 2) + np.sum((yh - ys) ** 2))
    return 0.5 * total / len(preds)


def _zero_grads(params: NetParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.named_parameters()}


def backward(data: MonotoneData, params: NetParams, cache: ForwardCache,
             label: tuple[np.ndarray, np.ndarray]) -> dict:
    """Exact reverse-mode gradients of 0.5 ||out - label||^2 for one sample.

    Returns a dict keyed like NetParams.named_parameters(). The projection
    adjoint is the active-set 0/1 mask on the nonnegative-dual rows, with
    subgradient 0 at exactly 0.
    """
    xs, ys = label
    target = np.concatenate([np.asarray(xs, dtype=np.float64),
                             np.asarray(ys, dtype=np.float64)])
    if target.shape != cache.out.shape:
        raise ValueError("label dimension mismatch")
    K, Kt = data.channel_operator
    free = data.n + data.cone.m_zero
    grads = _zero_grads(params)

    r = cache.out - target
    grads["p_out"] += cache.u_final.T @ r
    u_bar = np.outer(r, params.p_out)        # d(loss)/d(u_out of last layer)
    ut_bar = np.zeros_like(u_bar)
    w_bar = np.zeros_like(u_bar)

    for li in range(params.L - 1, -1, -1):
        lp = params.layers[li]
        lc = cache.layers[li]
        pre = f"layers.{li}."
        # w_out = w_in W_w + u_out W_u - ut_out W_ut
        grads[pre + "W_w"] += lc.w_in.T @ w_bar
        grads[pre + "W_u"] += lc.u_out.T @ w_bar
        grads[pre + "W_ut"] += -lc.ut_out.T @ w_bar
        w_in_bar = w_bar @ lp.W_w.T
        u_bar = u_bar + w_bar @ lp.W_u.T
        ut_out_bar = ut_bar - w_bar @ lp.W_ut.T
        # u_out = proj(p_pre); rows dual to the nonneg block mask at p_pre > 0
        p_bar = u_bar.copy()
        p_bar[free:] *= lc.p_pre[free:] > 0
        # p_pre = 2 ut_out V_ut - w_in V_w
        grads[pre + "V_ut"] += 2.0 * lc.ut_out.T @ p_bar
        grads[pre + "V_w"] += -lc.w_in.T @ p_bar
        ut_out_bar = ut_out_bar + 2.0 * p_bar @ lp.V_ut.T
        w_in_bar = w_in_bar - p_bar @ lp.V_w.T
        # inner gradient steps, reversed
        eta = params.eta[li]
        gate_bar = np.zeros_like(lc.gate)
        wprime_bar = np.zeros_like(lc.wprime)
        cur = ut_out_bar
        for (ut_cur, vt, g) in reversed(lc.inner):
            # ut_next = vt - eta * gate * g
            vt_bar = cur.copy()
            g_bar = -eta * lc.gate * cur
            gate_bar += -eta * g * cur
            # g = K'(K vt - wprime)
            Kg = K @ g_bar
            vt_bar += Kt @ Kg
            wprime_bar -= Kg
            # vt = ut_cur U_ut
            grads[pre + "U_ut"] += ut_cur.T @ vt_bar
            cur = vt_bar @ lp.U_ut.T
        ut_in_bar = cur
        # gate = sigmoid(z_gate); z_gate = w_in U_eta + b_eta
        z_bar = gate_bar * lc.gate * (1.0 - lc.gate)
        grads[pre + "U_eta"] += lc.w_in.T @ z_bar
        grads[pre + "b_eta"] += z_bar.sum(axis=0)
        w_in_bar = w_in_bar + z_bar @ lp.U_eta.T
        # wprime = w_in U_w - Q
        grads[pre + "U_w"] += lc.w_in.T @ wprime_bar
        w_in_bar = w_in_bar + wprime_bar @ lp.U_w.T
        # hand states to the previous layer
        ut_bar = ut_in_bar
        w_bar = w_in_bar
        u_bar = np.zeros_like(u_bar)
    return grads


# -- Adam -------------------------------------------------------------------

@dataclass
class AdamMoments:
    m: dict
    v: dict

    @classmethod
    def zeros(cls, params: NetParams) -> "AdamMoments":
        return cls(m=_zero_grads(params), v=_zero_grads(params))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    eta_prior: Optional[float] = 0.1  # None selects a cap-based prior per bundle
    unroll_steps: int = 1
    layers: int = 4
    embed: int = 128
    init_scheme: str = ALGORITHM_CONSISTENT
    init_noise_std: float = 0.01
    # optional escalation: bump the learning rate once after this many
    # non-improving epochs (None disables). An epoch counts as improving
    # only when val drops below the best by more than escalation_min_delta
    # relative, so vanishing per-epoch gains still register as a plateau.
    escalated_lr: Optional[float] = None
    escalation_patience: int = 3
    escalation_min_delta: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def adam_step(params: NetParams, grads: dict, moments: AdamMoments, t: int,
              cfg: TrainConfig, lr: Optional[float] = None) -> None:
    """In-place bias-corrected Adam update; deterministic."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    lr = cfg.learning_rate if lr is None else lr
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, arr in params.named_parameters():
        g = grads[name]
        m = moments.m[name]
        v = moments.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


# -- training loop ----------------------------------------------------------

@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    best: bool
    learning_rate: float


@dataclass
class TrainResult:
    params: NetParams
    log: list
    best_epoch: int
    best_val_loss: float


def _mean_loss(datas, labels, idx, params) -> float:
    preds = []
    for i in idx:
        xh, yh, _ = forward(datas[i], params)
        preds.append((xh, yh))
    return loss(preds, [labels[i] for i in idx])


def default_eta_prior(datas, rho: float = 0.9) -> float:
    """Cap-based step prior: the gate halves it, so 2x the tightest safe cap
    keeps the effective step inside every instance's safeguard."""
    return 2.0 * rho * min(step_size_cap(d) for d in datas)


def train(datas: list, labels: list, train_idx, val_idx, cfg: TrainConfig,
          epoch_callback: Optional[Callable] = None) -> TrainResult:
    """Mini-batch Adam training with early stopping on validation loss.

    datas are MonotoneData per instance, labels are (x*, y*) pairs. The
    parameters with the best validation loss are returned. epoch_callback
    (epoch, params, val_loss), when given, runs after each epoch.
    """
    train_idx = np.asarray(train_idx, dtype=int)
    val_idx = np.asarray(val_idx, dtype=int)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("train and validation splits must be nonempty")
    for i in np.concatenate([train_idx, val_idx]):
        if labels[i] is None:
            raise ValueError(f"instance {i} has no label; run labeling first")

    eta_prior = cfg.eta_prior
    if eta_prior is None:
        eta_prior = default_eta_prior([datas[i] for i in train_idx])
    params = init_params(cfg.layers, cfg.embed, seed=cfg.seed, scheme=cfg.init_scheme,
                         eta_prior=eta_prior, noise_std=cfg.init_noise_std,
                         unroll_steps=cfg.unroll_steps)
    moments = AdamMoments.zeros(params)
    rng = np.random.default_rng(cfg.seed)

    best = params.copy()
    best_val = np.inf
    best_epoch = 0
    since_improve = 0
    since_meaningful = 0
    lr = cfg.learning_rate
    step = 0
    log = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(train_idx)
        epoch_losses = []
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads = _zero_grads(params)
            preds = []
            for i in batch:
                xh, yh, cache = forward(datas[i], params)
                preds.append((xh, yh))
                for name, g in backward(datas[i], params, cache, labels[i]).items():
                    grads[name] += g
            for name in grads:
                grads[name] /= batch.size
            epoch_losses.append(loss(preds, [labels[i] for i in batch]))
            step += 1
            adam_step(params, grads, moments, step, cfg, lr=lr)
        val_loss = _mean_loss(datas, labels, val_idx, params)
        improved = val_loss < best_val
        meaningful = val_loss < best_val * (1.0 - cfg.escalation_min_delta)
        if improved:
            best_val = val_loss
            best = params.copy()
            best_epoch = epoch
        since_improve = 0 if improved else since_improve + 1
        since_meaningful = 0 if meaningful else since_meaningful + 1
        log.append(EpochLog(epoch=epoch, train_loss=float(np.mean(epoch_losses)),
                            val_loss=float(val_loss), best=improved,
                            learning_rate=lr))
        if epoch_callback is not None:
            epoch_callback(epoch, params, val_loss)
        if cfg.escalated_lr is not None and lr == cfg.learning_rate \
                and since_meaningful >= cfg.escalation_patience:
            lr = cfg.escalated_lr
            since_meaningful = 0
        elif since_improve >= cfg.patience:
            break
    return TrainResult(params=best, log=log, best_epoch=best_epoch,
                       best_val_loss=float(best_val))


def write_training_log(path, log: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "best_flag",
                         "learning_rate"])
        for row in log:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss),
                             int(row.best), repr(row.learning_rate)])


# -- checkpoints ------------------------------------------------------------

def save_checkpoint(params: NetParams, path) -> None:
    """Write params as strict JSON.

    Non-finite values raise ValueError before the file is opened, so no
    partial checkpoint is left behind.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "L": params.L,
        "d": params.d,
        "eta": params.eta.tolist(),
        "unroll_steps": params.unroll_steps,
        "p_out": params.p_out.tolist(),
        "layers": [
            {name: getattr(lp, name).tolist()
             for name in ("U_ut", "U_w", "U_eta", "b_eta", "V_ut", "V_w",
                          "W_w", "W_u", "W_ut")}
            for lp in params.layers
        ],
    }
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_checkpoint(path, expect_d: Optional[int] = None) -> NetParams:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt checkpoint: {exc.msg}") from exc
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: {doc.get('version')!r}")
    layers = [LayerParams(**{k: np.asarray(v, dtype=np.float64)
                             for k, v in ld.items()}) for ld in doc["layers"]]
    params = NetParams(L=doc["L"], d=doc["d"], layers=layers,
                       p_out=np.asarray(doc["p_out"], dtype=np.float64),
                       eta=np.asarray(doc["eta"], dtype=np.float64),
                       unroll_steps=doc["unroll_steps"])
    arrays = [arr for _, arr in params.named_parameters()] + [params.eta]
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise ValueError(f"{path}: checkpoint holds non-finite values")
    if expect_d is not None and params.d != expect_d:
        raise ValueError(f"checkpoint embedding size {params.d} != expected {expect_d}")
    return params
