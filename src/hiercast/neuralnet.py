"""Minimal dense + 1-D convolution network engine.

Two branches: an MLP over exogenous features and a CNN over a lag window of
the aggregate series, concatenated into a linear multi-output head.  Trained
with Adam on a squared loss carrying an extra penalty on the gap between the
summed outputs and the summed targets.
"""

import copy
import json
import warnings
from dataclasses import dataclass, field, asdict

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

    @property
    def has_mlp(self):
        return self.exog_dim > 0 and len(self.mlp_widths) > 0

    @property
    def has_cnn(self):
        return self.window > 0 and len(self.conv_filters) > 0

    @property
    def feature_dim(self):
        dim = 0
        if self.has_mlp:
            dim += self.mlp_widths[-1]
        if self.has_cnn:
            dim += self.window * self.conv_filters[-1]
        return dim


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
        if min(self.learning_rate, self.batch_size, self.max_epochs) <= 0:
            raise ConfigError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 0 or not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("bad patience or validation_fraction")


@dataclass
class Scaler:
    """Z-score statistics from the training split; outputs stay unscaled."""

    exog_mean: np.ndarray
    exog_std: np.ndarray
    win_mean: float = 0.0
    win_std: float = 1.0

    @classmethod
    def fit(cls, exog, window):
        if exog.shape[1]:
            mu = exog.mean(axis=0)
            sd = exog.std(axis=0)
            sd = np.where(sd > 0, sd, 1.0)
        else:
            mu = np.zeros(0)
            sd = np.ones(0)
        if window.shape[1]:
            wmu = float(window.mean())
            wsd = float(window.std()) or 1.0
        else:
            wmu, wsd = 0.0, 1.0
        return cls(exog_mean=mu, exog_std=sd, win_mean=wmu, win_std=wsd)

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


def init_params(spec: NetworkSpec, rng) -> list:
    """He-uniform for ReLU layers, Glorot-uniform for the linear head."""
    params = []
    if spec.has_mlp:
        fan_in = spec.exog_dim
        for width in spec.mlp_widths:
            lim = np.sqrt(6.0 / fan_in)
            params.append(rng.uniform(-lim, lim, size=(fan_in, width)))
            params.append(np.zeros(width))
            fan_in = width
    if spec.has_cnn:
        c_in = 1
        for f in spec.conv_filters:
            lim = np.sqrt(6.0 / (spec.kernel_size * c_in))
            params.append(rng.uniform(-lim, lim, size=(spec.kernel_size, c_in, f)))
            params.append(np.zeros(f))
            c_in = f
    lim = np.sqrt(6.0 / (spec.feature_dim + spec.out_dim))
    params.append(rng.uniform(-lim, lim, size=(spec.feature_dim, spec.out_dim)))
    params.append(np.zeros(spec.out_dim))
    return params


def _forward_cache(spec, params, exog, window, keep=True):
    """Forward pass.  With ``keep`` it also returns the per-layer inputs and
    pre-activations that ``backward`` needs; without, the cache is None and
    no layer's arrays outlive the next layer (loss-only passes)."""
    B = exog.shape[0] if spec.has_mlp else window.shape[0]
    idx = 0
    mlp_inputs, mlp_pre = [], []
    a = exog
    if spec.has_mlp:
        for _ in spec.mlp_widths:
            W, b = params[idx], params[idx + 1]
            idx += 2
            z = a @ W + b
            if keep:
                mlp_inputs.append(a)
                mlp_pre.append(z)
            a = np.maximum(z, 0.0)
    cnn_inputs, cnn_pre = [], []
    x = window[:, :, None] if spec.has_cnn else None
    if spec.has_cnn:
        for _ in spec.conv_filters:
            K, b = params[idx], params[idx + 1]
            idx += 2
            z = kernels.conv1d_same(x, K, b)
            if keep:
                cnn_inputs.append(x)
                cnn_pre.append(z)
            x = np.maximum(z, 0.0)
    parts = []
    if spec.has_mlp:
        parts.append(a)
    if spec.has_cnn:
        parts.append(x.reshape(B, -1))
    feats = np.concatenate(parts, axis=1)
    Wh, bh = params[idx], params[idx + 1]
    out = feats @ Wh + bh
    cache = (mlp_inputs, mlp_pre, cnn_inputs, cnn_pre, feats) if keep else None
    return out, cache


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
    """Gradients w.r.t. every weight array given dLoss/dOutput."""
    mlp_inputs, mlp_pre, cnn_inputs, cnn_pre, feats = cache
    grads = [None] * len(params)
    hi = len(params) - 2
    Wh = params[hi]
    grads[hi] = feats.T @ gout
    grads[hi + 1] = gout.sum(axis=0)
    gfeats = gout @ Wh.T

    off = 0
    if spec.has_mlp:
        ga = gfeats[:, :spec.mlp_widths[-1]]
        off = spec.mlp_widths[-1]
        base = 0
        for j in range(len(spec.mlp_widths) - 1, -1, -1):
            gz = ga * (mlp_pre[j] > 0)
            W = params[base + 2 * j]
            grads[base + 2 * j] = mlp_inputs[j].T @ gz
            grads[base + 2 * j + 1] = gz.sum(axis=0)
            ga = gz @ W.T
    if spec.has_cnn:
        B = feats.shape[0]
        gx = gfeats[:, off:].reshape(B, spec.window, spec.conv_filters[-1])
        base = 2 * len(spec.mlp_widths) if spec.has_mlp else 0
        for j in range(len(spec.conv_filters) - 1, -1, -1):
            gz = gx * (cnn_pre[j] > 0)
            K = params[base + 2 * j]
            gx, gk, gb = kernels.conv1d_same_grad(cnn_inputs[j], K, gz)
            grads[base + 2 * j] = gk
            grads[base + 2 * j + 1] = gb
    return grads


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def coherence_loss(Y, Y_hat, alpha):
    """Mean squared fit error blended with a squared row-sum gap.

    (1/B) [ (1-alpha) sum_t ||Y_t - Yhat_t||^2
            + alpha   sum_t (1'Y_t - 1'Yhat_t)^2 ]
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Y_hat = np.atleast_2d(np.asarray(Y_hat, dtype=float))
    if Y.shape != Y_hat.shape:
        raise ConfigError(f"shape mismatch {Y.shape} vs {Y_hat.shape}")
    B = Y.shape[0]
    diff = Y - Y_hat
    fit = float((diff * diff).sum())
    gap = diff.sum(axis=1)
    return ((1.0 - alpha) * fit + alpha * float(gap @ gap)) / B


def coherence_loss_grad(Y, Y_hat, alpha):
    """d coherence_loss / d Y_hat."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Y_hat = np.atleast_2d(np.asarray(Y_hat, dtype=float))
    B = Y.shape[0]
    diff = Y - Y_hat
    gap = diff.sum(axis=1, keepdims=True)
    return (-2.0 * (1.0 - alpha) * diff - 2.0 * alpha * gap) / B


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

def train(spec: NetworkSpec, dataset, config: TrainConfig) -> TrainedNetwork:
    """Train on (exog (N,d), windows (N,w), targets (N,out)).

    Splits off the chronological tail as validation, early-stops on it, and
    restores the weights of the best validation epoch.  Deterministic given
    the seed.
    """
    exog, windows, targets = (np.asarray(a, dtype=float) for a in dataset)
    N = targets.shape[0]
    if exog.ndim != 2:
        exog = exog.reshape(N, -1)
    if windows.ndim != 2:
        windows = windows.reshape(N, -1)
    n_val = int(N * config.validation_fraction)
    n_train = N - n_val
    if n_train < 1:
        raise NumericError("empty training set after validation split")

    scaler = Scaler.fit(exog[:n_train], windows[:n_train])
    ex_s, win_s = scaler.transform(exog, windows)

    rng = np.random.default_rng(config.seed)
    params = init_params(spec, rng)
    state = adam_init(params)

    def full_loss(lo, hi):
        out, _ = _forward_cache(spec, params, ex_s[lo:hi], win_s[lo:hi], keep=False)
        return coherence_loss(targets[lo:hi], out, config.alpha)

    best_loss = np.inf
    best_params = copy.deepcopy(params)
    best_epoch = 0
    bad = 0
    history = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            sel = order[start:start + config.batch_size]
            out, cache = _forward_cache(spec, params, ex_s[sel], win_s[sel])
            gout = coherence_loss_grad(targets[sel], out, config.alpha)
            grads = backward(spec, params, cache, gout)
            adam_step(params, grads, state, config.learning_rate)
        train_loss = full_loss(0, n_train)
        val_loss = full_loss(n_train, N) if n_val else train_loss
        if not np.isfinite(train_loss) or not np.isfinite(val_loss):
            raise NumericError(f"training diverged (non-finite loss) at epoch {epoch}")
        history.append((train_loss, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = copy.deepcopy(params)
            best_epoch = epoch
            bad = 0
        else:
            bad += 1
            if bad > config.patience:
                break
    return TrainedNetwork(
        spec=spec, params=best_params, scaler=scaler,
        history=history, best_epoch=best_epoch,
    )


def predict(net: TrainedNetwork, exog, window):
    """Scale inputs with the stored statistics and run the network."""
    exog = np.atleast_2d(np.asarray(exog, dtype=float))
    window = np.atleast_2d(np.asarray(window, dtype=float))
    ex_s, win_s = net.scaler.transform(exog, window)
    return forward(net.spec, net.params, ex_s, win_s)


def validation_loss(net: TrainedNetwork):
    if not net.history:
        raise NumericError("network has no training history")
    return net.history[net.best_epoch][1]


# ---------------------------------------------------------------------------
# Architecture grid search
# ---------------------------------------------------------------------------

def spec_grid(out_dim, exog_dim, window, filters_grid=(16, 32, 64),
              kernel_grid=(4, 8, 16), hidden_grid=(64, 128, 256),
              n_conv=6, n_dense=3):
    """All (filters, kernel, hidden) combinations, lexicographic order."""
    specs = []
    for f in sorted(filters_grid):
        for k in sorted(kernel_grid):
            for hid in sorted(hidden_grid):
                specs.append(NetworkSpec(
                    out_dim=out_dim, exog_dim=exog_dim, window=window,
                    mlp_widths=(hid,) * n_dense,
                    conv_filters=(f,) * n_conv, kernel_size=k,
                ))
    return specs


def grid_search(specs, dataset, config, trainer=train):
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
            net = trainer(spec, dataset, config)
        except NumericError as exc:
            warnings.warn(f"grid cell {i} failed: {exc}")
            continue
        score = validation_loss(net)
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
        "spec": {
            "out_dim": net.spec.out_dim,
            "exog_dim": net.spec.exog_dim,
            "window": net.spec.window,
            "mlp_widths": list(net.spec.mlp_widths),
            "conv_filters": list(net.spec.conv_filters),
            "kernel_size": net.spec.kernel_size,
        },
        "scaler": {
            "exog_mean": net.scaler.exog_mean.tolist(),
            "exog_std": net.scaler.exog_std.tolist(),
            "win_mean": net.scaler.win_mean,
            "win_std": net.scaler.win_std,
        },
        "history": [[float(a), float(b)] for a, b in net.history],
        "best_epoch": net.best_epoch,
        "shapes": [list(p.shape) for p in net.params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for p in net.params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_network(path) -> TrainedNetwork:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not a network weight file")
        n = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(n).decode())
        params = []
        for shape in header["shapes"]:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            params.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    spec = NetworkSpec(
        out_dim=header["spec"]["out_dim"],
        exog_dim=header["spec"]["exog_dim"],
        window=header["spec"]["window"],
        mlp_widths=tuple(header["spec"]["mlp_widths"]),
        conv_filters=tuple(header["spec"]["conv_filters"]),
        kernel_size=header["spec"]["kernel_size"],
    )
    scaler = Scaler(
        exog_mean=np.asarray(header["scaler"]["exog_mean"], dtype=float),
        exog_std=np.asarray(header["scaler"]["exog_std"], dtype=float),
        win_mean=header["scaler"]["win_mean"],
        win_std=header["scaler"]["win_std"],
    )
    return TrainedNetwork(
        spec=spec, params=params, scaler=scaler,
        history=[tuple(h) for h in header["history"]],
        best_epoch=header["best_epoch"],
    )
