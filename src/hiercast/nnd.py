"""Neural-network disaggregation: windowing, the train/disaggregate
two-step procedure, and the hierarchy-wide strategies (nnd1, nnd2 and
middle-out) behind one entry point, ``run``.

The network maps a lag window of a parent series plus child-level
exogenous/calendar features to all child series at once.  Published
forecast sets are re-aggregated from the bottom level, so they are exactly
coherent; the raw network violation is reported as a diagnostic.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import neuralnet
from .errors import ConfigError, DataError
from .evaluate import CVConfig
from .forecasters import Ets, Naive, SeasonalNaive, select_model
from .hierarchy import (SeriesPanel, aggregate, build_summing_matrix,
                        feature_matrix)
from .seeding import derive_seed


@dataclass(frozen=True)
class WindowConfig:
    w: int = 30          # lag window length; the current step is included
    hop: int = 1

    def __post_init__(self):
        if self.w < 1 or self.hop < 1:
            raise ConfigError("window length and hop must be >= 1")


@dataclass
class ArchConfig:
    """Architecture knobs for the disaggregation network."""

    hidden: int = 64
    n_dense: int = 3
    filters: int = 16
    n_conv: int = 6
    kernel_size: int = 4
    grid: bool = False               # grid-search spec_grid's F x K x H when True


@dataclass
class NndConfig:
    """Everything a hierarchy-wide NND run needs."""

    window: WindowConfig = field(default_factory=WindowConfig)
    train: neuralnet.TrainConfig = field(default_factory=neuralnet.TrainConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def make_windows(series, cfg: WindowConfig):
    """Sliding lag windows; the window for target index t covers
    t-w+1..t inclusive.  Returns (windows (n, w), target_indices)."""
    series = np.asarray(series, dtype=float).ravel()
    w = cfg.w
    if len(series) < w:
        raise DataError(f"series length {len(series)} shorter than window {w}")
    targets = np.arange(w - 1, len(series), cfg.hop)
    windows = sliding_window_view(series, w)[::cfg.hop].copy()
    return windows, targets


def train_nnd(panel: SeriesPanel, parent_id, child_ids, cfg: NndConfig,
              end=None, features=None) -> neuralnet.TrainedNetwork:
    """Step 1: fit the disaggregation network on observed history.

    Uses panel rows [0, end) (default: the whole panel).  The window input
    is the parent series, the target is the child vector at the window's
    last step, and the exogenous branch sees the child features at that
    step: rows of ``features``, which is ``feature_matrix(panel,
    child_ids)`` (built here when None).  Every window ends below ``end``
    and the features are built row by row, so rows from ``end`` on do not
    reach the model.
    """
    if features is None:
        features = feature_matrix(panel, child_ids)
    windows, t_idx = make_windows(panel.series(parent_id)[:end], cfg.window)
    feats = features[t_idx]
    targets = np.column_stack([panel.series(c)[t_idx] for c in child_ids])

    seed = derive_seed(cfg.seed, f"nnd:{parent_id}")
    tcfg = replace(cfg.train, seed=seed)
    arch = cfg.arch
    m = len(child_ids)
    d = feats.shape[1]
    if arch.grid:
        specs = neuralnet.spec_grid(
            out_dim=m, exog_dim=d, window=cfg.window.w,
            n_conv=arch.n_conv, n_dense=arch.n_dense,
        )
        return neuralnet.grid_search(specs, (feats, windows, targets), tcfg)[1]
    spec = neuralnet.NetworkSpec(
        out_dim=m, exog_dim=d, window=cfg.window.w,
        mlp_widths=(arch.hidden,) * arch.n_dense,
        conv_filters=(arch.filters,) * arch.n_conv,
        kernel_size=arch.kernel_size,
    )
    return neuralnet.train(spec, (feats, windows, targets), tcfg)


def disaggregate(net: neuralnet.TrainedNetwork, parent_forecast, features,
                 parent_history) -> np.ndarray:
    """Step 2: feed parent forecasts through the trained network.

    Step i's window is the tail of the actual history plus parent forecasts
    0..i; all h windows are cut up front and go through one ``predict``.
    Returns (h, n_children) in original scale.
    """
    parent_forecast = np.asarray(parent_forecast, dtype=float).ravel()
    if not np.all(np.isfinite(parent_forecast)):
        raise DataError("parent forecast contains non-finite values")
    h = len(parent_forecast)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] < h:
        raise DataError(f"need {h} feature rows, got {features.shape[0]}")
    hist = np.asarray(parent_history, dtype=float).ravel()
    w = net.spec.window
    if len(hist) < w - 1:
        raise DataError(f"insufficient history ({len(hist)}) to fill a window of {w}")
    series = np.concatenate([hist[len(hist) - w + 1:], parent_forecast])
    windows, _ = make_windows(series, WindowConfig(w=w))
    return neuralnet.predict(net, features[:h], windows)


def raw_violation(child_forecasts, parent_forecast):
    """Scale-normalized mean gap between summed children and the parent."""
    gap = np.abs(child_forecasts.sum(axis=1) - parent_forecast).mean()
    scale = np.abs(parent_forecast).mean()
    return float(gap / scale) if scale > 0 else float(gap)


# ---------------------------------------------------------------------------
# Hierarchy-wide strategies
# ---------------------------------------------------------------------------

def _root_forecast(panel, node_id, n_train, h, m_season):
    y = panel.series(node_id)[:n_train]
    cands = [Naive(), SeasonalNaive(m_season), Ets("hw", m_season)]
    fitted, _, _ = select_model(y, None, cands,
                                CVConfig.last_folds(n_train, h, m_season),
                                m_season=m_season)
    return fitted.forecast(h)


def _train_pair(panel, cfg, end, pair):
    """Train one (parent, children, features) pair's network on rows [0,
    end); a failure names the parent.  Module level, so a worker process
    can run it."""
    parent_id, child_ids, features = pair
    try:
        return train_nnd(panel, parent_id, child_ids, cfg, end, features)
    except Exception as exc:
        raise type(exc)(f"[node {parent_id}] {exc}") from exc


@dataclass
class NndResult:
    values: np.ndarray          # (h, M) coherent, canonical node order
    models: dict                # parent_id -> neuralnet.TrainedNetwork
    raw_violations: dict        # parent_id -> scale-normalized raw gap
    root_forecast: np.ndarray


def _pairs_below(hier, level):
    """(parent, children) for every non-leaf node from ``level`` down, in
    cascade order."""
    return [(node_id, tuple(hier.children(node_id)))
            for lv in range(level, hier.K - 1) for node_id in hier.level_ids(lv)]


def _cascade(panel, n_train, h, cfg, start_forecasts, pairs, m_season):
    """Train one network per (parent, children) pair, in up to ``cfg.jobs``
    worker processes (the networks do not depend on how many), then
    disaggregate from ``start_forecasts`` (node -> forecast, or None to
    select one) down the pairs in order.  The published set is
    re-aggregated from the bottom."""
    hier = panel.hierarchy
    if hier.K < 2:
        raise DataError("disaggregation needs at least 2 levels")
    if n_train + h > panel.T:
        raise DataError("test horizon extends past the panel")
    forecasts = {}
    for node_id, fc in start_forecasts.items():
        if fc is None:
            fc = _root_forecast(panel, node_id, n_train, h, m_season)
        forecasts[node_id] = np.asarray(fc, dtype=float)
    # built once per parent, for training and for disaggregation
    features = {node_id: feature_matrix(panel, child_ids)
                for node_id, child_ids in pairs}
    work = [(node_id, child_ids, features[node_id]) for node_id, child_ids in pairs]
    train = partial(_train_pair, panel, cfg, n_train)
    workers = min(cfg.jobs, len(pairs))
    if workers <= 1:
        nets = list(map(train, work))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawn, not fork: this process may run BLAS threads, and a forked
        # child would inherit the locks they hold
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            nets = list(pool.map(train, work))
    models = {parent_id: net for (parent_id, _), net in zip(pairs, nets)}
    violations = {}
    for node_id, child_ids in pairs:
        try:
            child_fc = disaggregate(
                models[node_id], forecasts[node_id],
                features[node_id][n_train:n_train + h],
                panel.series(node_id)[:n_train],
            )
        except Exception as exc:
            raise type(exc)(f"[node {node_id}] {exc}") from exc
        violations[node_id] = raw_violation(child_fc, forecasts[node_id])
        for j, child in enumerate(child_ids):
            forecasts[child] = child_fc[:, j]
    bottom = np.column_stack([forecasts[n] for n in hier.bottom_ids])
    return NndResult(
        values=aggregate(build_summing_matrix(hier), bottom),
        models=models,
        raw_violations=violations,
        root_forecast=forecasts.get(hier.root_id, np.zeros(h)),
    )


# strategy -> what it reads besides the panel, the split, the horizon and cfg
STRATEGIES = {"nnd1": (), "nnd2": (), "mo": ("middle_level",),
              "middle-out": ("middle_level",)}


def network_pairs(strategy, hier, middle_level=1):
    """The (parent, children) pair of each network ``strategy`` trains on
    ``hier``, in cascade order; the first pairs' parents start it."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown NND strategy {strategy!r} "
                          f"(choose from {', '.join(STRATEGIES)})")
    if strategy == "nnd1":
        return [(hier.root_id, tuple(hier.bottom_ids))]
    level = 0
    if "middle_level" in STRATEGIES[strategy]:
        level = middle_level
        if not 0 <= level <= hier.K - 2:
            raise DataError(f"middle level {level} must lie in [0, {hier.K - 2}]")
    return _pairs_below(hier, level)


def run(strategy, panel: SeriesPanel, n_train, h, cfg: NndConfig,
        middle_level=1, m_season=7, root_forecast=None) -> NndResult:
    """Forecast the hierarchy by ``strategy``, a key of ``STRATEGIES``.

    nnd1: one model from the root straight to the bottom level.  nnd2: one
    model per non-leaf node, cascaded level by level from the root.  mo
    (middle-out): model selection at ``middle_level``, the nnd2 cascade
    below it; from level 0 it is nnd2.  root_forecast: the root's forecast
    when the cascade starts there (selected when None).  Bottom forecasts
    are re-aggregated upward, so coherence is exact.
    """
    hier = panel.hierarchy
    pairs = network_pairs(strategy, hier, middle_level)
    parents = {node_id for node_id, _ in pairs}
    starts = {n: root_forecast if n == hier.root_id else None for n, _ in pairs
              if hier.parent_ids[hier.index(n)] not in parents}
    return _cascade(panel, n_train, h, cfg, starts, pairs, m_season)
