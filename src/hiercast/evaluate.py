"""Forecast accuracy metrics, expanding-window cross-validation, and
nonparametric rank tests over methods."""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HiercastError, NumericError


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def mase(actual, forecast, insample, m_season=1):
    """Mean absolute error scaled by the in-sample seasonal-naive MAE."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    insample = np.asarray(insample, dtype=float)
    if actual.shape != forecast.shape:
        raise ConfigError("actual and forecast lengths differ")
    T = len(insample)
    if T <= m_season:
        raise NumericError(f"insample length {T} <= seasonal period {m_season}")
    denom = np.abs(insample[m_season:] - insample[:-m_season]).mean()
    if denom == 0:
        raise NumericError("MASE denominator is zero (seasonally constant series)")
    return float(np.abs(actual - forecast).mean() / denom)


def smape(actual, forecast):
    """Symmetric MAPE, bounded above by 2."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape != forecast.shape:
        raise ConfigError("actual and forecast lengths differ")
    scale = np.abs(actual) + np.abs(forecast)
    if np.any(scale == 0):
        raise NumericError("SMAPE undefined: |actual|+|forecast| is zero at some step")
    return float((2.0 * np.abs(actual - forecast) / scale).mean())


# metric name -> score(actual, forecast, insample, m_season); the entries call
# mase and smape by module name, so a wrapper bound over either sees each call
SCORERS = {
    "mase": lambda actual, fc, insample, m_season: mase(actual, fc, insample, m_season),
    "smape": lambda actual, fc, insample, m_season: smape(actual, fc),
}


# ---------------------------------------------------------------------------
# Expanding-window cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVConfig:
    starting_window: int
    ending_window: int
    horizon: int
    step: int = 1

    def __post_init__(self):
        # each message names the forecast option that sets the field
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.starting_window < 2:
            raise ConfigError(f"cv_start (starting_window) must be >= 2, "
                              f"got {self.starting_window}")
        if self.step < 1:
            raise ConfigError(f"cv_step (step) must be >= 1, got {self.step}")
        if self.ending_window < self.starting_window:
            raise ConfigError(f"cv_end (ending_window) must be >= cv_start "
                              f"{self.starting_window}, got {self.ending_window}")

    @classmethod
    def last_folds(cls, n_train, h, m_season, start=None, end=None, step=None):
        """The folds given, else the last three h-step folds of n_train
        rows, none with fewer than two seasons plus one row of training.
        Raises ConfigError when n_train rows cannot hold the first fold."""
        if start is None:
            start = max(2 * m_season + 1, n_train - 3 * h)
        if end is None and h >= 1 and n_train - h < start:
            raise ConfigError(
                f"{n_train} training rows are too few for cross-validation at "
                f"horizon {h}: the first fold needs {start + h} "
                f"({start} to fit, {h} to score)")
        return cls(starting_window=start,
                   ending_window=n_train - h if end is None else end,
                   horizon=h, step=h if step is None else step)

    def fold_sizes(self, series_length):
        """Training sizes of all folds with a full test window available."""
        sizes = []
        n = self.starting_window
        while n <= self.ending_window and n + self.horizon <= series_length:
            sizes.append(n)
            n += self.step
        return sizes


def expanding_window_cv(y, X, fit, cfg: CVConfig, m_season=1):
    """Score a fit callable over expanding-window folds by MASE.

    ``fit(y_head, X_head)`` returns a forecaster fitted on one fold's
    training rows, with forecast(h, X_future).  Failing folds are skipped
    with a warning; if all folds fail a NumericError is raised.
    Returns (mean_score, fold_scores).
    """
    y = np.asarray(y, dtype=float)
    folds = cfg.fold_sizes(len(y))
    if not folds:
        raise ConfigError(
            f"no CV folds fit a series of length {len(y)} "
            f"(start {cfg.starting_window}, horizon {cfg.horizon})"
        )
    scores = []
    for n in folds:
        try:
            model = fit(y[:n], X[:n] if X is not None else None)
            fc = model.forecast(cfg.horizon, X[n:n + cfg.horizon] if X is not None else None)
            scores.append(mase(y[n:n + cfg.horizon], fc, y[:n], m_season))
        except ConfigError:
            raise
        except HiercastError as exc:
            warnings.warn(f"CV fold with training size {n} failed: {exc}")
    if not scores:
        raise NumericError("every CV fold failed")
    return float(np.mean(scores)), scores


# ---------------------------------------------------------------------------
# Friedman / Nemenyi rank tests
# ---------------------------------------------------------------------------

def _average_ranks(row):
    """Ascending ranks starting at 1; ties get the average rank."""
    order = np.argsort(row, kind="stable")
    ranks = np.empty(len(row))
    i = 0
    while i < len(row):
        j = i
        while j + 1 < len(row) and row[order[j + 1]] == row[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _damped_sum(term, ratios, damp, left):
    """term + term*r1 + term*r1*r2 + ... times damp**left, where one factor
    damp is applied each time the running sum passes 1 while any is left
    and the rest at the end, so the sum stays below 1 + max(ratios)."""
    total = term
    for ratio in ratios:
        term *= ratio
        total += term
        if total > 1.0 and left:
            term *= damp
            total *= damp
            left -= 1
    for _ in range(left):
        total *= damp
    return total


def chi2_sf(x, df):
    """Survival function of the chi-square distribution for a positive
    whole number df, as the finite sum of Abramowitz & Stegun 26.4.4-5.
    With h = x/2 it is exp(-h) * sum of h^j/j! over j < df/2 (even df), or
    erfc(sqrt(h)) + exp(-h) * sum of h^(j-1/2)/Gamma(j+1/2) over 1 <= j <=
    (df-1)/2 (odd df); each term is the one before times h/j or h/(j+1/2).
    No term is subtracted, so a tail far below 1e-16 keeps its digits.

    exp(-h) underflows to 0 past h ~ 745, before the tail does, so it is
    applied as ``steps`` equal factors exp(-h/steps) >= exp(-700): one
    multiplies the first term, the others are applied by ``_damped_sum``.
    ``steps`` is a power of two, so h/steps is exact; below h = 700 it is
    1, the one factor at the start.  Rounding can lift the sum past 1 by a
    few units in the last place, so it is capped there (a nan stays nan)."""
    if not (df >= 1 and float(df).is_integer()):
        raise ConfigError(f"chi-square degrees of freedom must be a positive "
                          f"whole number, got {df}")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    steps = 2 ** max(0, math.frexp(h / 700.0)[1])
    damp = math.exp(-h / steps)
    if df % 2 == 0:
        return min(_damped_sum(damp, [h / j for j in range(1, int(df) // 2)],
                               damp, steps - 1), 1.0)
    n = (int(df) - 1) // 2
    series = _damped_sum(2.0 * damp * math.sqrt(h / math.pi),
                         [h / (j + 0.5) for j in range(1, n)],
                         damp, steps - 1) if n else 0.0
    return min(math.erfc(math.sqrt(h)) + series, 1.0)


def friedman_test(errors):
    """Friedman rank test over an (N series x k methods) error matrix.

    Returns (statistic, p_value, mean_ranks); p-value from the chi-square
    approximation with k-1 degrees of freedom.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2:
        raise ConfigError("errors must be a 2-D (series x methods) matrix")
    N, k = errors.shape
    if N < 2 or k < 2:
        raise ConfigError(f"Friedman test needs N >= 2 and k >= 2, got {N} x {k}")
    ranks = np.vstack([_average_ranks(row) for row in errors])
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * N / (k * (k + 1)) * float((mean_ranks ** 2).sum()) - 3.0 * N * (k + 1)
    p_value = chi2_sf(stat, k - 1)
    return stat, p_value, mean_ranks


# Critical values q_alpha(k) for the Nemenyi test: studentized range
# statistic at infinite degrees of freedom divided by sqrt(2), as tabulated
# by Demsar (2006), "Statistical comparisons of classifiers over multiple
# data sets", extended to k = 20.
Q_TABLE = {
    0.05: [None, None, 1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031,
           3.102, 3.164, 3.219, 3.268, 3.313, 3.354, 3.391, 3.426,
           3.458, 3.489, 3.517, 3.544],
    0.10: [None, None, 1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780,
           2.855, 2.920, 2.978, 3.030, 3.077, 3.120, 3.159, 3.196,
           3.230, 3.261, 3.291, 3.319],
}


@dataclass
class NemenyiResult:
    methods: list
    mean_ranks: np.ndarray
    critical_distance: float
    intervals: list          # (low, high) per method, input order

    def sorted_methods(self):
        """Methods ascending by mean rank, as reported."""
        order = np.argsort(self.mean_ranks, kind="stable")
        return [self.methods[i] for i in order]

    def different(self, a, b):
        ia, ib = self.methods.index(a), self.methods.index(b)
        lo_a, hi_a = self.intervals[ia]
        lo_b, hi_b = self.intervals[ib]
        return hi_a < lo_b or hi_b < lo_a


def nemenyi_test(errors, methods=None, significance=0.05):
    """Post-hoc Nemenyi test: mean ranks, critical distance, rank intervals.

    Two methods are not significantly different iff their intervals
    [rank - CD/2, rank + CD/2] overlap.
    """
    errors = np.asarray(errors, dtype=float)
    N, k = errors.shape
    if significance not in Q_TABLE:
        raise ConfigError(f"no critical values for significance {significance}")
    if not 2 <= k <= 20:
        raise ConfigError(f"Nemenyi table covers 2 <= k <= 20 methods, got {k}")
    if methods is None:
        methods = [f"m{j}" for j in range(k)]
    _, _, mean_ranks = friedman_test(errors)
    q = Q_TABLE[significance][k]
    cd = q * math.sqrt(k * (k + 1) / (6.0 * N))
    intervals = [(float(r - cd / 2), float(r + cd / 2)) for r in mean_ranks]
    return NemenyiResult(
        methods=list(methods), mean_ranks=mean_ranks,
        critical_distance=cd, intervals=intervals,
    )


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Per-series scores plus per-level averages and rank-test summary."""

    methods: list
    metric: str
    series_scores: dict = field(default_factory=dict)   # node_id -> {method: score}
    series_levels: dict = field(default_factory=dict)   # node_id -> level
    flagged: dict = field(default_factory=dict)         # node_id -> reason (excluded)
    friedman: dict | None = None
    nemenyi: NemenyiResult | None = None

    def level_averages(self):
        """Mean score per (level, method), recomputed from per-series entries."""
        out = {}
        for node_id, scores in self.series_scores.items():
            lv = self.series_levels[node_id]
            for method, s in scores.items():
                out.setdefault(lv, {}).setdefault(method, []).append(s)
        return {
            lv: {m: float(np.mean(v)) for m, v in per.items()}
            for lv, per in sorted(out.items())
        }

    def run_rank_tests(self, significance=0.05):
        rows = []
        for node_id in sorted(self.series_scores):
            scores = self.series_scores[node_id]
            if all(m in scores for m in self.methods):
                rows.append([scores[m] for m in self.methods])
        if len(rows) < 2 or len(self.methods) < 2:
            raise ConfigError(
                "rank tests need at least 2 series and 2 methods with full scores"
            )
        errors = np.asarray(rows)
        stat, p, mean_ranks = friedman_test(errors)
        self.friedman = {
            "statistic": stat, "p_value": p,
            "mean_ranks": {m: float(r) for m, r in zip(self.methods, mean_ranks)},
        }
        self.nemenyi = nemenyi_test(errors, self.methods, significance)
        return self

    def to_json(self):
        doc = {
            "metric": self.metric,
            "methods": self.methods,
            "series": {
                n: {"level": self.series_levels[n], "scores": self.series_scores[n]}
                for n in sorted(self.series_scores)
            },
            "flagged": dict(sorted(self.flagged.items())),
            "level_averages": {
                str(lv) : per for lv, per in self.level_averages().items()
            },
        }
        if self.friedman is not None:
            doc["friedman"] = self.friedman
        if self.nemenyi is not None:
            doc["nemenyi"] = {
                "critical_distance": self.nemenyi.critical_distance,
                "intervals": {
                    m: list(iv) for m, iv in
                    zip(self.nemenyi.methods, self.nemenyi.intervals)
                },
                "sorted_methods": self.nemenyi.sorted_methods(),
            }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self):
        """Per-series table, one row per series, one column per method."""
        lines = ["series,level," + ",".join(self.methods)]
        for node_id in sorted(self.series_scores, key=lambda n: (self.series_levels[n], n)):
            scores = self.series_scores[node_id]
            cells = [f"{scores[m]:.6f}" if m in scores else "" for m in self.methods]
            lines.append(f"{node_id},{self.series_levels[node_id]}," + ",".join(cells))
        for lv, per in self.level_averages().items():
            cells = [f"{per[m]:.6f}" if m in per else "" for m in self.methods]
            lines.append(f"average_level_{lv},{lv}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def nemenyi_svg(result: NemenyiResult, width=640, row_h=28, margin=60):
    """Dot-and-interval plot of the Nemenyi ranks, best (lowest rank) on top."""
    order = np.argsort(result.mean_ranks, kind="stable")
    k = len(result.methods)
    height = 2 * margin + row_h * k
    lo = min(iv[0] for iv in result.intervals)
    hi = max(iv[1] for iv in result.intervals)
    span = hi - lo or 1.0

    def sx(r):
        return margin + (r - lo) / span * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="13">mean rank (CD = {result.critical_distance:.3f})</text>',
    ]
    for pos, i in enumerate(order):
        y = margin + row_h * (pos + 0.5)
        a, b = result.intervals[i]
        r = result.mean_ranks[i]
        parts.append(
            f'<line x1="{sx(a):.2f}" y1="{y:.2f}" x2="{sx(b):.2f}" y2="{y:.2f}" '
            'stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{sx(r):.2f}" cy="{y:.2f}" r="4" fill="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">{result.methods[i]} ({r:.2f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
