"""Minimal dense + 1-D convolution network engine.

Two branches: an MLP over exogenous features and a CNN over a lag window of
the aggregate series, concatenated into a linear multi-output head.  Trained
with Adam on a squared loss carrying an extra penalty on the gap between the
summed outputs and the summed targets.  ``train_many`` trains networks of
one spec in lock-step as one stack with a leading model axis.
"""

import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError

_MAGIC = b"HIERCAST-NET-1\n"


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description.

    A branch is active when its input is non-empty: the MLP branch needs
    exog_dim > 0, the CNN branch needs window > 0.  At least one branch must
    be active.
    """

    out_dim: int
    exog_dim: int = 0
    window: int = 0
    mlp_widths: tuple = (64, 64, 64)
    conv_filters: tuple = (16, 16, 16, 16, 16, 16)
    kernel_size: int = 4

    def __post_init__(self):
        if self.out_dim < 1:
            raise ConfigError("out_dim must be >= 1")
        if self.exog_dim < 0 or self.window < 0:
            raise ConfigError("exog_dim and window must be >= 0")
        if not (self.has_mlp or self.has_cnn):
            raise ConfigError("network needs at least one active branch")
        if self.has_mlp and any(w < 1 for w in self.mlp_widths):
            raise ConfigError("mlp widths must be >= 1")
        if self.has_cnn and (self.kernel_size < 1 or any(f < 1 for f in self.conv_filters)):
            raise ConfigError("conv filters and kernel size must be >= 1")
        # a model file's JSON header gives lists
        object.__setattr__(self, "mlp_widths", tuple(self.mlp_widths))
        object.__setattr__(self, "conv_filters", tuple(self.conv_filters))

    @property
    def has_mlp(self):
        return self.exog_dim > 0 and len(self.mlp_widths) > 0

    @property
    def has_cnn(self):
        return self.window > 0 and len(self.conv_filters) > 0


@dataclass
class TrainConfig:
    alpha: float = 0.5            # loss mix between fit and sum terms
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.learning_rate < math.inf:     # NaN fails too
            raise ConfigError(f"lr (learning_rate) must be finite and > 0, "
                              f"got {self.learning_rate}")
        if min(self.batch_size, self.max_epochs) <= 0:
            raise ConfigError("batch_size, max_epochs must be positive")
        if self.patience < 0 or not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("bad patience or validation_fraction")


@dataclass
class Scaler:
    """Z-score statistics from the training split; outputs stay unscaled."""

    exog_mean: np.ndarray
    exog_std: np.ndarray
    win_mean: float = 0.0
    win_std: float = 1.0

    def __post_init__(self):
        self.exog_mean = np.asarray(self.exog_mean, dtype=float)
        self.exog_std = np.asarray(self.exog_std, dtype=float)

    @classmethod
    def fit(cls, exog, window):
        # zero exog columns give empty statistics; an empty window has none
        sd = exog.std(axis=0)
        if window.shape[1]:
            wmu = float(window.mean())
            wsd = float(window.std()) or 1.0
        else:
            wmu, wsd = 0.0, 1.0
        return cls(exog_mean=exog.mean(axis=0), exog_std=np.where(sd > 0, sd, 1.0),
                   win_mean=wmu, win_std=wsd)

    def transform(self, exog, window):
        ex = (exog - self.exog_mean) / self.exog_std if exog.shape[1] else exog
        wi = (window - self.win_mean) / self.win_std if window.shape[1] else window
        return ex, wi


@dataclass
class TrainedNetwork:
    spec: NetworkSpec
    params: list                  # weight arrays, layer order
    scaler: Scaler
    history: list = field(default_factory=list)   # (train_loss, val_loss)
    best_epoch: int = 0


def _shapes(spec: NetworkSpec) -> list:
    """Weight shapes in parameter order: MLP layers, then conv layers, then
    the head; each layer's weight, then its bias."""
    shapes, feature_dim = [], 0
    if spec.has_mlp:
        fan_in = spec.exog_dim
        for width in spec.mlp_widths:
            shapes += [(fan_in, width), (width,)]
            fan_in = width
        feature_dim += fan_in
    if spec.has_cnn:
        c_in = 1
        for f in spec.conv_filters:
            shapes += [(spec.kernel_size, c_in, f), (f,)]
            c_in = f
        feature_dim += spec.window * c_in
    return shapes + [(feature_dim, spec.out_dim), (spec.out_dim,)]


def _views(flat, shapes) -> list:
    """Arrays of the given shapes as views into one flat vector, in order;
    a (K, P) stack of flat vectors gives (K, *shape) views."""
    ends = np.cumsum([math.prod(s) for s in shapes])
    return [a.reshape(flat.shape[:-1] + s)
            for a, s in zip(np.split(flat, ends[:-1], axis=-1), shapes)]


def init_params(spec: NetworkSpec, rng) -> list:
    """He-uniform for ReLU layers, Glorot-uniform for the linear head."""
    shapes = _shapes(spec)
    params = []
    for w_shape, b_shape in zip(shapes[0::2], shapes[1::2]):
        fans = math.prod(w_shape[:-1])
        if len(params) == len(shapes) - 2:     # the head: fan-in + fan-out
            fans += w_shape[-1]
        lim = np.sqrt(6.0 / fans)
        params += [rng.uniform(-lim, lim, size=w_shape), np.zeros(b_shape)]
    return params


def _dense(x, W, b):
    """Dense layer with the signature of ``kernels.conv1d_same``; also on a
    stack of models' arrays with a leading model axis."""
    return x @ W + b[..., None, :]


def _dense_grad(x, W, gout):
    """Gradients (gx, gW, gb) of ``_dense``, like ``kernels.conv1d_same_grad``."""
    return gout @ W.mT, x.mT @ gout, gout.sum(axis=-2)


def _branches(spec, exog, window):
    """(input, layer, layer gradient, depth, whether the layer takes a
    stack) of each active branch, in parameter order.  The conv functions
    are looked up on every call, so a rebound ``kernels`` attribute (a
    tracer's wrapper) is the one used; they take one model's arrays."""
    branches = []
    if spec.has_mlp:
        branches.append((exog, _dense, _dense_grad, len(spec.mlp_widths), True))
    if spec.has_cnn:
        branches.append((window[..., None], kernels.conv1d_same,
                         kernels.conv1d_same_grad, len(spec.conv_filters), False))
    return branches


def _branch(x, weights, layer, keep):
    """x through ReLU(layer(x, W, b)) for each (W, b) in turn.  Returns the
    output and, with ``keep``, each layer's (input, weight)."""
    record = []
    for W, b in weights:
        if keep:
            record.append((x, W))
        x = np.maximum(layer(x, W, b), 0.0)
    return x, record


def _branch_grad(layer_grad, record, out, g):
    """Back through ``_branch`` given dLoss/d(its output): each layer's
    (gb, gW), last layer first.  A layer's ReLU mask is its output > 0."""
    grads = []
    for x, W in record[::-1]:
        g, gW, gb = layer_grad(x, W, g * (out > 0))
        grads += [gb, gW]
        out = x
    return grads


def _forward_cache(spec, params, exog, window, keep=True):
    """Forward pass of one model, or of a stack (a leading model axis on
    every array).  With ``keep`` it also returns what ``backward`` needs:
    per branch, the layer gradient, the layers' (input, weight) records and
    the branch output; without, the cache is None and no layer's arrays
    outlive the next layer (loss-only passes).

    A stack's conv branch runs one model at a time through all its layers,
    so that model's activations stay in cache from layer to layer."""
    layers = iter(zip(params[0::2], params[1::2]))
    stack = exog.ndim == 3
    parts, cache = [], []
    for x, layer, layer_grad, depth, takes_stack in _branches(spec, exog, window):
        weights = [next(layers) for _ in range(depth)]
        one_by_one = stack and not takes_stack
        if one_by_one:
            runs = [_branch(x[k], [(W[k], b[k]) for W, b in weights], layer, keep)
                    for k in range(len(x))]
            out, record = np.array([o for o, _ in runs]), [r for _, r in runs]
        else:
            out, record = _branch(x, weights, layer, keep)
        # a conv branch's (w, c) output rows become feature columns
        parts.append(out if layer is _dense else out.reshape(out.shape[:-2] + (-1,)))
        cache.append((layer_grad, record, out, one_by_one))
    feats = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    out = _dense(feats, *next(layers))
    return out, ((feats, cache) if keep else None)


def forward(spec, params, exog, window):
    """Batch forward pass; inputs are already scaled."""
    exog = np.atleast_2d(np.asarray(exog, dtype=float))
    window = np.atleast_2d(np.asarray(window, dtype=float))
    if spec.has_mlp and exog.shape[1] != spec.exog_dim:
        raise ConfigError(f"exog input has {exog.shape[1]} columns, spec wants {spec.exog_dim}")
    if spec.has_cnn and window.shape[1] != spec.window:
        raise ConfigError(f"window input has length {window.shape[1]}, spec wants {spec.window}")
    out, _ = _forward_cache(spec, params, exog, window, keep=False)
    return out


def backward(spec, params, cache, gout):
    """Gradients w.r.t. every weight array given dLoss/dOutput, collected
    back to front.  A stack's cache gives gradients with the leading model
    axis."""
    feats, branches = cache
    gfeats, gW, gb = _dense_grad(feats, params[-2], gout)
    grads = [gb, gW]
    for layer_grad, record, out, one_by_one in branches[::-1]:
        # the last branch's features are the last columns
        width = math.prod(out.shape[gfeats.ndim - 1:])
        g, gfeats = gfeats[..., -width:].reshape(out.shape), gfeats[..., :-width]
        if one_by_one:
            per_model = [_branch_grad(layer_grad, r, o, gk)
                         for r, o, gk in zip(record, out, g)]
            grads += [np.array(gs) for gs in zip(*per_model)]
        else:
            grads += _branch_grad(layer_grad, record, out, g)
    return grads[::-1]


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def coherence_loss(Y, Y_hat, alpha):
    """Mean squared fit error blended with a squared row-sum gap.

    (1/B) [ (1-alpha) sum_t ||Y_t - Yhat_t||^2
            + alpha   sum_t (1'Y_t - 1'Yhat_t)^2 ]

    (B, out) arrays give a float; a (K, B, out) stack gives each model's
    loss, computed with the same reductions.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Y_hat = np.atleast_2d(np.asarray(Y_hat, dtype=float))
    if Y.shape != Y_hat.shape:
        raise ConfigError(f"shape mismatch {Y.shape} vs {Y_hat.shape}")
    return _loss(Y - Y_hat, alpha)


def coherence_loss_grad(Y, Y_hat, alpha):
    """d coherence_loss / d Y_hat, for one model or a stack."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Y_hat = np.atleast_2d(np.asarray(Y_hat, dtype=float))
    return _loss_grad(Y - Y_hat, alpha)


def _loss(diff, alpha):
    """``coherence_loss`` from diff = Y - Y_hat."""
    fit = (diff * diff).sum(axis=(-2, -1))
    gap = diff.sum(axis=-1)
    gap2 = np.matmul(gap[..., None, :], gap[..., None])[..., 0, 0]
    loss = ((1.0 - alpha) * fit + alpha * gap2) / diff.shape[-2]
    return float(loss) if diff.ndim == 2 else loss


def _loss_grad(diff, alpha):
    """``coherence_loss_grad`` from diff = Y - Y_hat."""
    gap = diff.sum(axis=-1, keepdims=True)
    return (-2.0 * (1.0 - alpha) * diff - 2.0 * alpha * gap) / diff.shape[-2]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_init(params):
    return {
        "m": [np.zeros_like(p) for p in params],
        "v": [np.zeros_like(p) for p in params],
        "t": 0,
    }


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam update, in place."""
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _as_dataset(dataset):
    """(exog, windows, targets) as float arrays, the inputs as (N, -1)."""
    exog, windows, targets = (np.asarray(a, dtype=float) for a in dataset)
    N = targets.shape[0]
    return (exog if exog.ndim == 2 else exog.reshape(N, -1),
            windows if windows.ndim == 2 else windows.reshape(N, -1), targets)


def train_many(spec: NetworkSpec, datasets, configs) -> list:
    """Train one network per (exog (N,d), windows (N,w), targets (N,out))
    dataset, with ``configs[i]`` for dataset i, as one stack in lock-step.

    The datasets must have equal shapes and the configs may differ only in
    ``seed``, else ConfigError.  Each network splits off the chronological
    tail of its rows as validation, early-stops on it, and restores the
    weights of its best validation epoch.  ``history`` holds (mean minibatch
    loss, validation loss) per epoch; with no validation split, both are
    the training split's loss.

    Every network keeps its own scaler, initial weights, minibatch order,
    history and stop, and is computed with the float operations of training
    it alone, so no result depends on the rest of the stack.  Returns one
    entry per dataset: the ``TrainedNetwork``, or the ``NumericError`` that
    training it alone raises.
    """
    if not datasets or len(datasets) != len(configs):
        raise ConfigError(f"{len(datasets)} datasets for {len(configs)} configs")
    data = [_as_dataset(d) for d in datasets]
    shapes_in = {tuple(a.shape for a in d) for d in data}
    if len(shapes_in) > 1:
        raise ConfigError(f"stacked datasets differ in shape: {sorted(shapes_in)}")
    config = configs[0]
    if any(replace(c, seed=0) != replace(config, seed=0) for c in configs):
        raise ConfigError("stacked training configs may differ only in seed")
    K, N = len(data), data[0][2].shape[0]
    n_val = int(N * config.validation_fraction)
    n_train = N - n_val
    if n_train < 1:
        return [NumericError("empty training set after validation split")] * K

    scalers = [Scaler.fit(ex[:n_train], win[:n_train]) for ex, win, _ in data]
    scaled = [s.transform(ex, win) for s, (ex, win, _) in zip(scalers, data)]
    ex_s = np.stack([ex for ex, _ in scaled])
    win_s = np.stack([win for _, win in scaled])
    targets = np.stack([t for _, _, t in data])
    rngs = [np.random.default_rng(c.seed) for c in configs]
    shapes = _shapes(spec)
    flat = np.stack([np.concatenate([p.ravel() for p in init_params(spec, rng)])
                     for rng in rngs])
    params = _views(flat, shapes)
    state = adam_init([flat])
    live = list(range(K))          # stack row j trains model live[j]

    def full_loss(lo, hi):
        out, _ = _forward_cache(spec, params, ex_s[:, lo:hi], win_s[:, lo:hi],
                                keep=False)
        return coherence_loss(targets[:, lo:hi], out, config.alpha)

    best_loss, best_flat, best_epoch = [np.inf] * K, [None] * K, [0] * K
    history = [[] for _ in range(K)]
    entries = [None] * K
    for epoch in range(config.max_epochs):
        order = np.stack([rngs[k].permutation(n_train) for k in live])
        rows = np.arange(len(live))[:, None]
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            sel = order[:, start:start + config.batch_size]
            out, cache = _forward_cache(spec, params, ex_s[rows, sel], win_s[rows, sel])
            diff = targets[rows, sel] - out
            batch_losses.append(_loss(diff, config.alpha))
            grads = backward(spec, params, cache, _loss_grad(diff, config.alpha))
            grads = np.concatenate([g.reshape(len(live), -1) for g in grads], axis=1)
            adam_step([flat], [grads], state, config.learning_rate)
        val_losses = full_loss(n_train, N) if n_val else full_loss(0, n_train)
        batch_rows = np.array(batch_losses).T.copy()     # (models, batches)
        keep = []
        for j, k in enumerate(live):
            val_loss = float(val_losses[j])
            train_loss = float(np.mean(batch_rows[j])) if n_val else val_loss
            if not np.isfinite(train_loss) or not np.isfinite(val_loss):
                entries[k] = NumericError(
                    f"training diverged (non-finite loss) at epoch {epoch}")
                continue
            history[k].append((train_loss, val_loss))
            if val_loss < best_loss[k]:
                best_loss[k], best_flat[k], best_epoch[k] = val_loss, flat[j].copy(), epoch
            elif epoch - best_epoch[k] > config.patience:
                continue
            keep.append(j)
        if len(keep) < len(live):
            # drop the stopped models' rows from every per-model array
            flat, ex_s, win_s, targets = (a[keep] for a in (flat, ex_s, win_s, targets))
            params = _views(flat, shapes)
            state["m"], state["v"] = [state["m"][0][keep]], [state["v"][0][keep]]
            live = [live[j] for j in keep]
            if not live:
                break
    return [entries[k] or TrainedNetwork(
        spec=spec, params=_views(best_flat[k], shapes), scaler=scalers[k],
        history=history[k], best_epoch=best_epoch[k]) for k in range(K)]


def train(spec: NetworkSpec, dataset, config: TrainConfig) -> TrainedNetwork:
    """Train one network: ``train_many``'s stack of one.  Raises the
    NumericError of a network that fails to train."""
    net, = train_many(spec, [dataset], [config])
    if isinstance(net, NumericError):
        raise net
    return net


def predict(net: TrainedNetwork, exog, window):
    """Scale inputs with the stored statistics and run the network."""
    exog = np.atleast_2d(np.asarray(exog, dtype=float))
    window = np.atleast_2d(np.asarray(window, dtype=float))
    ex_s, win_s = net.scaler.transform(exog, window)
    return forward(net.spec, net.params, ex_s, win_s)


# ---------------------------------------------------------------------------
# Architecture grid search
# ---------------------------------------------------------------------------

def spec_grid(out_dim, exog_dim, window, n_conv=6, n_dense=3):
    """Every (filters, kernel, hidden) in {16, 32, 64} x {4, 8, 16} x
    {64, 128, 256}, lexicographic order."""
    return [NetworkSpec(out_dim=out_dim, exog_dim=exog_dim, window=window,
                        mlp_widths=(hid,) * n_dense,
                        conv_filters=(f,) * n_conv, kernel_size=k)
            for f, k, hid in itertools.product(
                (16, 32, 64), (4, 8, 16), (64, 128, 256))]


def grid_search(specs, dataset, config):
    """Train each candidate spec and keep the lowest validation loss.

    Candidates are evaluated in the given order; ties keep the earlier
    candidate, so passing a lexicographically sorted grid gives the
    smallest architecture on ties.  Returns (best_spec, best_network).
    """
    if not specs:
        raise ConfigError("empty architecture grid")
    best = None
    for i, spec in enumerate(specs):
        try:
            net = train(spec, dataset, config)
        except NumericError as exc:
            warnings.warn(f"grid cell {i} failed: {exc}")
            continue
        score = net.history[net.best_epoch][1]
        if best is None or score < best[0]:
            best = (score, spec, net)
    if best is None:
        raise NumericError("every architecture grid cell failed to train")
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Serialization: magic string, canonical JSON header, float64 LE arrays.
# ---------------------------------------------------------------------------

def save_network(net: TrainedNetwork, path):
    header = {
        "spec": asdict(net.spec),
        "scaler": asdict(net.scaler),
        "history": [[float(a), float(b)] for a, b in net.history],
        "best_epoch": net.best_epoch,
        "shapes": [list(p.shape) for p in net.params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"),
                      default=np.ndarray.tolist).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for p in net.params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_network(path) -> TrainedNetwork:
    """Read a ``save_network`` file.  A header that does not parse or whose
    shapes or scaler lengths are not its spec's, or a payload of the wrong
    length, is a ConfigError naming the path."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ConfigError(f"{path}: not a network weight file")
        n = int.from_bytes(fh.read(8), "little")
        try:
            header = json.loads(fh.read(n).decode())
            spec, scaler = NetworkSpec(**header["spec"]), Scaler(**header["scaler"])
            history = [tuple(h) for h in header["history"]]
            best_epoch = header["best_epoch"]
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise ConfigError(f"{path}: bad network header ({exc})") from None
        shapes = _shapes(spec)
        if header.get("shapes") != [list(s) for s in shapes]:
            raise ConfigError(f"{path}: header shapes do not match its spec {shapes}")
        if not scaler.exog_mean.shape == scaler.exog_std.shape == (spec.exog_dim,):
            raise ConfigError(f"{path}: scaler exog_mean/exog_std shapes {scaler.exog_mean.shape}/"
                              f"{scaler.exog_std.shape}, spec exog_dim {spec.exog_dim}")
        payload = fh.read()
    size = sum(math.prod(s) for s in shapes)
    if len(payload) != 8 * size:
        raise ConfigError(f"{path}: {len(payload)} bytes of weights, spec needs {8 * size}")
    flat = np.frombuffer(payload, dtype="<f8").astype(float)
    return TrainedNetwork(
        spec=spec, params=_views(flat, shapes),
        scaler=scaler, history=history, best_epoch=best_epoch,
    )
