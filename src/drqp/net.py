"""Unrolled DR-GD network: forward pass, hand-derived adjoints, Adam training."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .model import (MonotoneData, check_counts, check_positive, project_cone_dual,
                    read_json, write_json)
from .solvers import step_size_cap

CHECKPOINT_VERSION = "drqp-net-1"
_CHECKPOINT_KEYS = {"version", "L", "d", "eta", "unroll_steps", "p_out", "layers"}

ALGORITHM_CONSISTENT = "algorithm-consistent"
RANDOM = "random"


class NonFiniteActivationError(RuntimeError):
    def __init__(self, layer: int):
        super().__init__(f"non-finite activation in layer {layer}")
        self.layer = layer


LAYER_FIELDS = ("U_ut", "U_w", "U_eta", "b_eta", "V_ut", "V_w", "W_w", "W_u", "W_ut")


@functools.lru_cache(maxsize=None)
def layout(L: int, d: int) -> tuple:
    """(name, slice, shape) of every trainable parameter in the flat vector.

    The only place that knows the parameter order: layer by layer in
    LAYER_FIELDS order, then p_out. Per layer, the names are the checkpoint keys.
    """
    shapes = [(f"layers.{i}.{f}", (d,) if f == "b_eta" else (d, d))
              for i in range(L) for f in LAYER_FIELDS] + [("p_out", (d,))]
    entries, start = [], 0
    for name, shape in shapes:
        entries.append((name, slice(start, start + math.prod(shape)), shape))
        start += math.prod(shape)
    return tuple(entries)


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
    """Learnable parameters in one flat vector plus fixed per-layer step priors eta.

    The attributes layers (one LayerParams per layer) and p_out (the final
    readout, (d,)) hold reshaped views into vector, laid out by layout(L, d):
    writing through a view writes the vector.
    """

    L: int
    d: int
    eta: np.ndarray     # fixed step priors, (L,); not trained
    unroll_steps: int = 1
    vector: Optional[np.ndarray] = None  # trainable scalars in layout order; zeros if None

    def __post_init__(self):
        check_counts(self, "L", "d", "unroll_steps")
        self.eta = np.asarray(self.eta, dtype=np.float64)
        if self.eta.shape != (self.L,) or not np.all((0 < self.eta) & (self.eta < np.inf)):
            raise ValueError("eta priors must be positive and finite, one per layer")
        size = layout(self.L, self.d)[-1][1].stop
        self.vector = (np.zeros(size) if self.vector is None
                       else np.asarray(self.vector, dtype=np.float64))
        if self.vector.shape != (size,):
            raise ValueError(f"parameter vector must have shape ({size},)")
        views = {name: self.vector[s].reshape(shape)
                 for name, s, shape in layout(self.L, self.d)}
        self.layers = [LayerParams(**{f: views[f"layers.{i}.{f}"] for f in LAYER_FIELDS})
                       for i in range(self.L)]
        self.p_out = views["p_out"]

    def copy(self) -> "NetParams":
        return NetParams(self.L, self.d, self.eta.copy(), self.unroll_steps,
                         self.vector.copy())


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
    # an L that is not an integer gets no priors here, and NetParams names it
    eta = [float(eta_prior)] * L if isinstance(L, (int, np.integer)) else ()
    params = NetParams(L, d, eta=eta, unroll_steps=unroll_steps)
    for lp in params.layers:
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
        for f in LAYER_FIELDS:
            getattr(lp, f)[:] = b_eta if f == "b_eta" else mat()
    params.p_out[:] = (1.0 / d if scheme == ALGORITHM_CONSISTENT
                       else np.sqrt(2.0 / d) * rng.standard_normal(d))
    return params


def emulation_params(data: MonotoneData, eta: float, L: int) -> NetParams:
    """Parameters under which the net reproduces fixed-step DR-GD iterations.

    d = 1, all mixing scalars 1 (the noiseless algorithm-consistent init),
    zero gate weights so sigma(0) = 1/2, and a layer prior of 2*eta giving an
    effective step of exactly eta.
    """
    cap = step_size_cap(data)
    if not (0.0 < eta <= cap):
        raise ValueError(f"emulation eta must lie in (0, {cap:.3e}]")
    params = init_params(L, 1, noise_std=0.0, eta_prior=2.0 * eta)
    for lp in params.layers:
        lp.U_eta[...] = 0.0
        lp.b_eta[...] = 0.0
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, neither of which
    overflows, without masks: e = e^-|z| is the exponential of both branches.
    NaN stays NaN."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LayerCache:
    w_in: np.ndarray
    gate: np.ndarray
    inner: list          # per gradient step: (u-tilde before it, g)
    p_pre: np.ndarray    # projection pre-activation
    u_out: np.ndarray
    ut_out: np.ndarray


@dataclass
class ForwardCache:
    layers: list
    out: np.ndarray


def forward(data: MonotoneData, params: NetParams):
    """Run the unrolled network; returns (x_hat, y_hat, cache).

    States are (n+m) x d channel arrays. The initialization broadcasts q and
    the projection of -q across channels; each layer mixes channels, takes
    unroll_steps gated gradient steps on the least-squares target, projects,
    and updates w. An overflow raises NonFiniteActivationError, not warnings.
    """
    K, Kt = data.operator.channel_operator
    Q = np.repeat(data.q[:, None], params.d, axis=1)
    ut = np.zeros_like(Q)
    w = Q + project_cone_dual(-Q, data.cone)
    caches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for li, lp in enumerate(params.layers):
            wprime = w @ lp.U_w - Q
            gate = _sigmoid(w @ lp.U_eta + lp.b_eta)
            inner = []
            ut_out = ut
            for step in range(params.unroll_steps):
                if li == 0 and step == 0:
                    # u-tilde starts at 0, so vt = 0 U_ut and K vt are 0
                    vt, g = ut_out, Kt @ -wprime
                else:
                    vt = ut_out @ lp.U_ut
                    g = Kt @ (K @ vt - wprime)
                inner.append((ut_out, g))
                ut_out = vt - params.eta[li] * gate * g
            p_pre = 2.0 * (ut_out @ lp.V_ut) - w @ lp.V_w
            u_out = project_cone_dual(p_pre, data.cone)
            w_out = w @ lp.W_w + (u_out @ lp.W_u - ut_out @ lp.W_ut)
            if not np.isfinite(w_out).all() or not np.isfinite(ut_out).all():
                raise NonFiniteActivationError(li)
            caches.append(LayerCache(w_in=w, gate=gate, inner=inner,
                                     p_pre=p_pre, u_out=u_out, ut_out=ut_out))
            ut, w = ut_out, w_out
    out = caches[-1].u_out @ params.p_out
    return out[:data.n], out[data.n:], ForwardCache(layers=caches, out=out)


def loss(preds: list, labels: list) -> float:
    """Mean over the batch of 0.5 (||x - x*||^2 + ||y - y*||^2)."""
    if len(preds) != len(labels) or not preds:
        raise ValueError("preds and labels must have equal nonzero length")
    total = 0.0
    for (xh, yh), (xs, ys) in zip(preds, labels):
        total += float(np.sum((xh - xs) ** 2) + np.sum((yh - ys) ** 2))
    return 0.5 * total / len(preds)


def backward(data: MonotoneData, params: NetParams, cache: ForwardCache,
             label: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact reverse-mode gradient of 0.5 ||out - label||^2 for one sample.

    Returns one flat vector laid out like params.vector. The projection
    adjoint is the active-set 0/1 mask on the nonnegative-dual rows, with
    subgradient 0 at exactly 0.

    Only live terms are computed. The last layer's w_out and ut_out feed
    nothing, so its W_w, W_u and W_ut gradients stay 0; below it u_out feeds
    only w_out. Layer 0 starts from u-tilde = 0 and a w that no parameter
    moves, so nothing propagates out of it, and its first gradient step adds
    nothing to U_ut.
    """
    xs, ys = label
    target = np.concatenate([np.asarray(xs, dtype=np.float64),
                             np.asarray(ys, dtype=np.float64)])
    if target.shape != cache.out.shape:
        raise ValueError("label dimension mismatch")
    K, Kt = data.operator.channel_operator
    free = data.n + data.cone.m_zero
    zero = np.zeros((params.d, params.d))
    layer_grads = []    # per layer, from the last: field -> gradient

    r = cache.out - target
    p_out_grad = cache.layers[-1].u_out.T @ r
    p_bar = np.outer(r, params.p_out)        # d(loss)/d(u_out of the last layer)

    for li in range(params.L - 1, -1, -1):
        lp = params.layers[li]
        lc = cache.layers[li]
        gr = {"W_w": zero, "W_u": zero, "W_ut": zero, "U_ut": zero}
        last = li == params.L - 1
        if not last:
            # w_out = w_in W_w + u_out W_u - ut_out W_ut
            gr["W_w"] = lc.w_in.T @ w_bar
            gr["W_u"] = lc.u_out.T @ w_bar
            gr["W_ut"] = -lc.ut_out.T @ w_bar
            p_bar = w_bar @ lp.W_u.T
        # u_out = proj(p_pre); rows dual to the nonneg block mask at p_pre > 0
        p_bar[free:] *= lc.p_pre[free:] > 0
        # p_pre = 2 ut_out V_ut - w_in V_w
        gr["V_ut"] = 2.0 * lc.ut_out.T @ p_bar
        gr["V_w"] = -lc.w_in.T @ p_bar
        cur = 2.0 * p_bar @ lp.V_ut.T         # d(loss)/d(ut_out)
        if not last:
            cur = ut_bar - w_bar @ lp.W_ut.T + cur
        # inner gradient steps, reversed
        eta = params.eta[li]
        steps = len(lc.inner)
        for k in range(steps - 1, -1, -1):
            ut_cur, g = lc.inner[k]
            # ut_next = vt - eta * gate * g
            g_bar = -eta * lc.gate * cur
            step_gate_bar = -eta * g * cur
            # g = K'(K vt - wprime)
            Kg = K @ g_bar
            if k == steps - 1:
                gate_bar, wprime_bar = step_gate_bar, -Kg
            else:
                gate_bar += step_gate_bar
                wprime_bar -= Kg
            if li == 0 and k == 0:
                break  # ut_cur = 0 and nothing lies upstream
            vt_bar = cur + Kt @ Kg
            # vt = ut_cur U_ut
            U_ut_grad = ut_cur.T @ vt_bar
            gr["U_ut"] = U_ut_grad if k == steps - 1 else gr["U_ut"] + U_ut_grad
            cur = vt_bar @ lp.U_ut.T
        # gate = sigmoid(z_gate); z_gate = w_in U_eta + b_eta
        z_bar = gate_bar * lc.gate * (1.0 - lc.gate)
        gr["U_eta"] = lc.w_in.T @ z_bar
        gr["b_eta"] = z_bar.sum(axis=0)
        # wprime = w_in U_w - Q
        gr["U_w"] = lc.w_in.T @ wprime_bar
        layer_grads.append(gr)
        if li > 0:
            # hand states to the previous layer
            pv = p_bar @ lp.V_w.T
            w_in_bar = -pv if last else w_bar @ lp.W_w.T - pv
            w_bar = w_in_bar + z_bar @ lp.U_eta.T + wprime_bar @ lp.U_w.T
            ut_bar = cur
    # in layout order; + 0.0 turns a -0.0 into 0.0, as a sum into zeros does
    grad = np.concatenate([gr[f] for gr in reversed(layer_grads) for f in LAYER_FIELDS]
                          + [p_out_grad], axis=None)
    grad += 0.0
    return grad


# -- Adam -------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class AdamMoments:
    m: np.ndarray  # first and second moments, laid out like NetParams.vector
    v: np.ndarray

    @classmethod
    def zeros(cls, params: NetParams) -> "AdamMoments":
        return cls(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 2
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    eta_prior: Optional[float] = 0.1  # None selects a cap-based prior per bundle
    unroll_steps: int = 1
    layers: int = 4
    embed: int = 128
    # optional escalation: bump the learning rate once after this many
    # non-improving epochs (None disables). An epoch counts as improving
    # only when val drops below the best by more than escalation_min_delta
    # relative, so vanishing per-epoch gains still register as a plateau.
    escalated_lr: Optional[float] = None
    escalation_patience: int = 3
    escalation_min_delta: float = 0.0

    def __post_init__(self):
        check_positive(self, "learning_rate")
        check_positive(self, "escalated_lr", optional=True)
        check_counts(self, "batch_size", "max_epochs", "patience", "layers", "embed",
                     "unroll_steps")
        check_counts(self, "escalation_patience", least=0)
        if (isinstance(self.escalation_min_delta, bool)
                or not (0 <= self.escalation_min_delta < 1)):
            raise ValueError("escalation_min_delta must lie in [0, 1)")


def adam_step(params: NetParams, grads: np.ndarray, moments: AdamMoments, t: int,
              cfg: TrainConfig, lr: Optional[float] = None) -> None:
    """In-place bias-corrected Adam update of params.vector; deterministic.

    grads is a flat gradient vector laid out like params.vector.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    lr = cfg.learning_rate if lr is None else lr
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = moments.m, moments.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    params.vector -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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


def default_eta_prior(datas) -> float:
    """Cap-based step prior 2 * 0.9 * the tightest safe cap: the gate halves
    it, so the effective step stays inside every instance's safeguard."""
    return 2.0 * 0.9 * min(step_size_cap(d) for d in datas)


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
    params = init_params(cfg.layers, cfg.embed, seed=cfg.seed, eta_prior=eta_prior,
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
            grads, preds = None, []
            for i in batch:
                xh, yh, cache = forward(datas[i], params)
                preds.append((xh, yh))
                grad = backward(datas[i], params, cache, labels[i])
                grads = grad if grads is None else grads + grad
            if batch.size > 1:
                grads /= batch.size
            epoch_losses.append(loss(preds, [labels[i] for i in batch]))
            step += 1
            adam_step(params, grads, moments, step, cfg, lr=lr)
        val_loss = loss([forward(datas[i], params)[:2] for i in val_idx],
                        [labels[i] for i in val_idx])
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


# -- checkpoints ------------------------------------------------------------

def save_checkpoint(params: NetParams, path) -> None:
    """Write params as strict JSON.

    Non-finite values raise ValueError before the file is opened, so no
    partial checkpoint is left behind.
    """
    write_json(path, {
        "version": CHECKPOINT_VERSION,
        "L": params.L,
        "d": params.d,
        "eta": params.eta.tolist(),
        "unroll_steps": params.unroll_steps,
        "p_out": params.p_out.tolist(),
        "layers": [{f: getattr(lp, f).tolist() for f in LAYER_FIELDS}
                   for lp in params.layers],
    })


def _params_from_doc(doc) -> NetParams:
    if set(doc) != _CHECKPOINT_KEYS:
        raise ValueError(f"the keys must be {sorted(_CHECKPOINT_KEYS)}")
    check_counts(SimpleNamespace(**doc), "L", "d")  # before the layout is built from them
    L, d, layers = doc["L"], doc["d"], doc["layers"]
    if len(layers) != L:
        raise ValueError(f"{len(layers)} layers for L = {L}")
    arrays = {f"layers.{i}.{f}": v for i, ld in enumerate(layers)
              for f, v in dict(ld).items()}
    arrays["p_out"] = doc["p_out"]
    entries = layout(L, d)
    names = {name for name, _, _ in entries}
    if set(arrays) != names:
        raise ValueError(f"missing or unknown parameters {sorted(set(arrays) ^ names)}")
    parts = [np.asarray(arrays[name], dtype=np.float64) for name, _, _ in entries]
    for part, (name, _, shape) in zip(parts, entries):
        if part.shape != shape:
            raise ValueError(f"{name} has shape {part.shape}, expected {shape}")
    params = NetParams(L, d, doc["eta"], doc["unroll_steps"],
                       np.concatenate([part.ravel() for part in parts]))
    if not np.all(np.isfinite(params.vector)):
        raise ValueError("non-finite values")
    return params


def load_checkpoint(path) -> NetParams:
    """Read a checkpoint; anything malformed raises ValueError naming path."""
    return read_json(path, "checkpoint", _params_from_doc, (CHECKPOINT_VERSION,), key="version")
