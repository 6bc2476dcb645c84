"""Base univariate/dynamic forecasting models and forecast combination.

Every forecaster exposes fit(y, X=None) -> self and
forecast(h, X_future=None) -> ndarray of length h.  Model selection picks
the candidate with the lowest expanding-window mean MASE.
"""

import copy

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels, neuralnet
from .errors import ConfigError, DataError, HiercastError, NumericError
from .evaluate import CVConfig, expanding_window_cv

_ETS_GRID = np.round(np.arange(0.1, 1.0001, 0.1), 10)
# every (alpha, beta[, gamma]) combination, alpha-major like nested loops
_HOLT_GRID = tuple(g.ravel() for g in np.meshgrid(_ETS_GRID, _ETS_GRID,
                                                   indexing="ij"))
_HW_GRID = tuple(g.ravel() for g in np.meshgrid(_ETS_GRID, _ETS_GRID, _ETS_GRID,
                                                 indexing="ij"))


def _first_min(sse):
    """The index a strict-``<`` scan in grid order keeps: the first minimum
    with NaNs skipped, or 0 when the first SSE is NaN."""
    if np.isnan(sse[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(sse), np.inf, sse)))


def _lags(y, p):
    """(len(y) - p, p) view: row i is y[i+p-1], ..., y[i], the p values
    before y[i+p], most recent first."""
    return sliding_window_view(y[:-1], p)[:, ::-1]


def _check_series(y):
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise DataError("empty series")
    if not np.all(np.isfinite(y)):
        raise DataError("series contains non-finite values")
    return y


class Naive:
    kind = "naive"

    def fit(self, y, X=None):
        y = _check_series(y)
        self.last_ = y[-1]
        return self

    def forecast(self, h, X_future=None):
        return np.full(h, self.last_)


class SeasonalNaive:
    kind = "snaive"

    def __init__(self, m_season):
        if m_season < 1:
            raise ConfigError("seasonal period must be >= 1")
        self.m_season = m_season

    def fit(self, y, X=None):
        y = _check_series(y)
        if len(y) < self.m_season:
            raise DataError(
                f"series length {len(y)} < seasonal period {self.m_season}"
            )
        self.season_ = y[-self.m_season:]
        return self

    def forecast(self, h, X_future=None):
        m = self.m_season
        return np.array([self.season_[i % m] for i in range(h)])


class Arx:
    """Autoregression with optional exogenous regressors, fit by least
    squares.  Lag order is chosen by AIC over 1..14 when not given;
    first differencing is applied when the lag-1 autocorrelation exceeds
    0.95 (unless d is fixed).  Regressors constant over the fit window (a
    month dummy of a month it does not contain) are dropped, for the
    forecast too.  Multi-step forecasts are recursive."""

    kind = "arx"

    def __init__(self, p=None, d=None):
        self.p = p
        self.d = d

    def fit(self, y, X=None):
        y = _check_series(y)
        if np.ptp(y) == 0.0:
            # degenerate flat series: nothing to regress on
            self.constant_ = y[-1]
            return self
        self.constant_ = None
        X = self._exog(X, len(y))

        d = self.d
        if d is None:
            sd = y.std()
            r1 = float(np.corrcoef(y[1:], y[:-1])[0, 1]) if sd > 0 else 0.0
            d = 1 if r1 > 0.95 else 0
        if d:
            z = np.diff(y)
            Xz = X[1:] if X is not None else None
            if np.ptp(z) == 0.0:
                # exactly linear series: constant drift, nothing to regress on
                self.constant_ = None
                self.drift_ = z[-1]
                self.y_last_ = y[-1]
                self.d_ = 1
                self.p_ = 0
                return self
        else:
            z = y
            Xz = X
        self.drift_ = None
        n_x = Xz.shape[1] if Xz is not None else 0

        if self.p is not None:
            orders = [self.p]
        else:
            orders = [p for p in range(1, 15)
                      if len(z) - p > p + n_x + 1]
            if not orders:
                raise DataError(f"series too short for ARX (length {len(y)})")
        best = None
        for p in orders:
            if len(z) - p <= p + n_x + 1:
                raise DataError(f"series too short for ARX lag order {p}")
            try:
                coef, sse, n_eff = self._ls_fit(z, Xz, p)
            except NumericError:
                # a fixed order must fit; during automatic order selection a
                # rank-deficient candidate is simply skipped
                if self.p is not None:
                    raise
                continue
            aic = n_eff * np.log(max(sse / n_eff, 1e-300)) + 2.0 * (p + n_x + 1)
            if best is None or aic < best[0]:
                best = (aic, p, coef)
        if best is None:
            raise NumericError("rank-deficient ARX design matrix at every lag order")
        _, self.p_, self.coef_ = best
        self.d_ = d
        self.z_tail_ = z[len(z) - self.p_:] if self.p_ else np.zeros(0)
        self.y_last_ = y[-1]
        return self

    def _exog(self, X, n):
        if X is None:
            return None
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] != n:
            raise DataError(f"exog rows {X.shape[0]} != series length {n}")
        # a constant column duplicates the intercept: rank-deficient at every order
        self.x_keep_ = np.ptp(X, axis=0) > 0
        X = X[:, self.x_keep_]
        return X if X.shape[1] else None

    def _ls_fit(self, z, Xz, p):
        rows = len(z) - p
        cols = [np.ones(rows), _lags(z, p)]
        if Xz is not None:
            cols.append(Xz[p:])
        A = np.column_stack(cols)
        b = z[p:]
        coef, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < A.shape[1]:
            raise NumericError("rank-deficient ARX design matrix")
        resid = b - A @ coef
        return coef, float(resid @ resid), rows

    def forecast(self, h, X_future=None):
        if h == 0:
            return np.zeros(0)
        if self.constant_ is not None:
            return np.full(h, self.constant_)
        if self.drift_ is not None:
            return self.y_last_ + self.drift_ * np.arange(1, h + 1)
        has_exog = len(self.coef_) > 1 + self.p_
        if has_exog:
            if X_future is None:
                raise DataError("ARX fitted with exog needs future exog values")
            X_future = np.atleast_2d(np.asarray(X_future, dtype=float))
            if X_future.shape[0] < h or X_future.shape[1] != len(self.x_keep_):
                raise DataError(
                    f"future exog shape {X_future.shape} incompatible with "
                    f"horizon {h} and {len(self.x_keep_)} regressors"
                )
            X_future = X_future[:, self.x_keep_]
        lags = list(self.z_tail_)
        out = np.empty(h)
        level = self.y_last_
        for i in range(h):
            feats = [1.0]
            feats += [lags[-lag] for lag in range(1, self.p_ + 1)]
            if has_exog:
                feats += list(X_future[i])
            z_hat = float(np.dot(self.coef_, feats))
            lags.append(z_hat)
            if self.d_:
                level += z_hat
                out[i] = level
            else:
                out[i] = z_hat
        return out


class Ets:
    """Grid-fit exponential smoothing: simple, Holt, or additive
    Holt-Winters.  Smoothing parameters come from a 0.1-step grid over
    (0, 1], minimizing the in-sample one-step SSE."""

    kind = "ets"

    def __init__(self, variant="ses", m_season=1):
        if variant not in ("ses", "holt", "hw"):
            raise ConfigError(f"unknown ETS variant {variant!r}")
        if variant == "hw" and m_season < 2:
            raise ConfigError("Holt-Winters needs a seasonal period >= 2")
        self.variant = variant
        self.m_season = m_season

    def fit(self, y, X=None):
        y = _check_series(y)
        v = self.variant
        if v == "ses":
            if len(y) < 2:
                raise DataError("SES needs at least 2 observations")
            level, sse = kernels.ses_fit(y, _ETS_GRID)
            k = _first_min(sse)
            self.alpha_, self.level_ = _ETS_GRID[k], level[k]
            self.trend_ = 0.0
            self.season_ = None
        elif v == "holt":
            if len(y) < 3:
                raise DataError("Holt needs at least 3 observations")
            level, trend, sse = kernels.holt_fit(y, *_HOLT_GRID)
            k = _first_min(sse)
            self.alpha_, self.beta_ = (g[k] for g in _HOLT_GRID)
            self.level_, self.trend_ = level[k], trend[k]
            self.season_ = None
        else:
            m = self.m_season
            if len(y) < 2 * m:
                raise DataError(
                    f"Holt-Winters needs at least {2 * m} observations, got {len(y)}"
                )
            level, trend, season, sse = kernels.hw_add_fit(y, m, *_HW_GRID)
            k = _first_min(sse)
            self.alpha_, self.beta_, self.gamma_ = (g[k] for g in _HW_GRID)
            self.level_, self.trend_ = level[k], trend[k]
            self.season_ = season[:, k].copy()
            self.t_end_ = len(y)
        return self

    def forecast(self, h, X_future=None):
        out = np.empty(h)
        for i in range(1, h + 1):
            f = self.level_ + i * self.trend_
            if self.season_ is not None:
                f += self.season_[(self.t_end_ + i - 1) % self.m_season]
            out[i - 1] = f
        return out


class Narx:
    """Neural autoregression: an MLP over (lags, exog) with two hidden
    layers of 16 units and scalar output, trained with the shared network
    engine (learning rate 0.01, at most 300 epochs, patience 25).
    Recursive multi-step forecasting as in Arx."""

    kind = "narx"

    def __init__(self, p=3, seed=0):
        if p < 1:
            raise ConfigError("NAR lag order must be >= 1")
        self.p = p
        self.seed = seed

    def fit(self, y, X=None):
        return _raise_or(Narx.fit_many([self], [y], [X])[0])

    @staticmethod
    def fit_many(models, ys, Xs):
        """Fit ``models[i]`` on ``(ys[i], Xs[i])`` for every i; the networks
        whose inputs have one shape train as one ``neuralnet.train_many``
        stack.  Entry i is the fitted model or the error fitting it alone
        raises."""
        fitted, stacks = [], {}
        for i, (model, y, X) in enumerate(zip(models, ys, Xs)):
            try:
                feats, targets = model._dataset(y, X)
            except HiercastError as exc:
                fitted.append(exc)
                continue
            fitted.append(model)
            stacks.setdefault(feats.shape, []).append((i, feats, targets))
        for (rows, width), stack in stacks.items():
            spec = neuralnet.NetworkSpec(
                out_dim=1, exog_dim=width, window=0,
                mlp_widths=(16, 16), conv_filters=(),
            )
            nets = neuralnet.train_many(
                spec, [(feats, np.zeros((rows, 0)), targets) for _, feats, targets in stack],
                [neuralnet.TrainConfig(learning_rate=0.01, max_epochs=300,
                                       patience=25, seed=models[i].seed)
                 for i, _, _ in stack])
            for (i, _, _), net in zip(stack, nets):
                if isinstance(net, NumericError):
                    fitted[i] = net
                else:
                    models[i].net_ = net
        return fitted

    def _dataset(self, y, X):
        """The (lags, exog) feature rows and their targets; also keeps what
        ``forecast`` reads."""
        y = _check_series(y)
        p = self.p
        if X is not None:
            X = np.atleast_2d(np.asarray(X, dtype=float))
            if X.shape[0] != len(y):
                raise DataError("exog rows do not match series length")
            if X.shape[1] == 0:
                X = None
        if len(y) <= p + 2:
            raise DataError(f"series too short for NAR with lag order {p}")
        self.n_x_ = X.shape[1] if X is not None else 0
        self.tail_ = list(y[-p:])
        feats = np.column_stack([_lags(y, p)] + ([X[p:]] if X is not None else []))
        return feats, y[p:, None]

    def forecast(self, h, X_future=None):
        if h == 0:
            return np.zeros(0)
        if self.n_x_:
            if X_future is None:
                raise DataError("NARX fitted with exog needs future exog values")
            X_future = np.atleast_2d(np.asarray(X_future, dtype=float))
            if X_future.shape[0] < h or X_future.shape[1] != self.n_x_:
                raise DataError("future exog incompatible with fitted NARX")
        lags = list(self.tail_)
        out = np.empty(h)
        for i in range(h):
            feats = np.array(lags[-self.p:][::-1])
            if self.n_x_:
                feats = np.concatenate([feats, X_future[i]])
            pred = neuralnet.predict(self.net_, feats[None, :], np.zeros((1, 0)))
            out[i] = pred[0, 0]
            lags.append(out[i])
        return out


# ---------------------------------------------------------------------------
# Forecast combination
# ---------------------------------------------------------------------------

def combine_mean(member_forecasts):
    """Pointwise arithmetic mean of equal-horizon forecasts."""
    if not member_forecasts:
        raise ConfigError("no member forecasts to combine")
    mats = [np.asarray(f, dtype=float) for f in member_forecasts]
    n = len(mats[0])
    if any(len(m) != n for m in mats):
        raise ConfigError("member forecasts have different horizons")
    return np.mean(mats, axis=0)


def project_simplex(v):
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def cls_weights(member_preds, y, max_iter=5000, tol=1e-10):
    """Simplex-constrained least-squares weights by projected gradient.

    member_preds: (n_obs, n_members) matrix of held-out member forecasts,
    y: the realized values.  Degenerate all-identical members get uniform
    weights.
    """
    A = np.atleast_2d(np.asarray(member_preds, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, m = A.shape
    if m < 1:
        raise ConfigError("need at least one member")
    if n < m:
        raise ConfigError(f"held-out window ({n}) shorter than member count ({m})")
    if np.max(np.ptp(A, axis=1)) < 1e-12:
        return np.full(m, 1.0 / m)
    L = 2.0 * np.linalg.norm(A, 2) ** 2
    step = 1.0 / L
    beta = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        grad = 2.0 * A.T @ (A @ beta - y)
        new = project_simplex(beta - step * grad)
        if np.linalg.norm(new - beta) / step < tol:
            beta = new
            break
        beta = new
    return beta


class CombMean:
    kind = "comb_mean"

    def __init__(self, members):
        if not members:
            raise ConfigError("combination needs at least one member")
        self.members = list(members)

    def fit(self, y, X=None):
        self.fitted_ = [copy.deepcopy(m).fit(y, X) for m in self.members]
        return self

    def forecast(self, h, X_future=None):
        return combine_mean([m.forecast(h, X_future) for m in self.fitted_])


class CombCls:
    """Combination weighted by constrained least squares on a held-out tail
    of the training series: its last 28 rows, or a third of it if less."""

    kind = "comb_cls"

    def __init__(self, members):
        if not members:
            raise ConfigError("combination needs at least one member")
        self.members = list(members)

    def fit(self, y, X=None):
        y = _check_series(y)
        hold = min(28, len(y) // 3)
        if hold < len(self.members):
            raise DataError(
                f"held-out window ({hold}) shorter than member count "
                f"({len(self.members)})"
            )
        cut = len(y) - hold
        X_head = X[:cut] if X is not None else None
        X_hold = X[cut:] if X is not None else None
        preds = []
        for m in self.members:
            fitted = copy.deepcopy(m).fit(y[:cut], X_head)
            preds.append(fitted.forecast(hold, X_hold))
        self.weights_ = cls_weights(np.column_stack(preds), y[cut:])
        self.fitted_ = [copy.deepcopy(m).fit(y, X) for m in self.members]
        return self

    def forecast(self, h, X_future=None):
        preds = np.column_stack([m.forecast(h, X_future) for m in self.fitted_])
        return preds @ self.weights_


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

def default_candidates(m_season=7, narx_seed=0, include_narx=True,
                       include_combinations=True):
    """The standard candidate pool for base-forecast selection."""
    cands = [Naive(), SeasonalNaive(m_season), Arx(),
             Ets("hw", m_season)]
    if include_narx:
        cands.append(Narx(p=m_season, seed=narx_seed))
    if include_combinations:
        members = [Arx(), Narx(p=m_season, seed=narx_seed),
                   Ets("hw", m_season)]
        cands.append(CombMean(members))
        cands.append(CombCls(members))
    return cands


def select_model(y, X, candidates, cv: CVConfig, m_season=1):
    """Pick the candidate with lowest expanding-window mean MASE, refit it
    on the full series, and return (fitted_model, kind, mean_score).  A tie
    goes to the candidate listed first.

    When no candidate scores because the largest fold's training rows are
    seasonally constant (MASE's scale is zero on every fold), the result is
    seasonal naive fitted on the full series, with score None: on such a
    history its forecast is exact.  This is :func:`select_models` for one
    series."""
    y = np.asarray(y, dtype=float)
    return _raise_or(select_models(y[:, None], [X], [candidates], cv, m_season)[0])


def _raise_or(entry):
    """A model entry of a fit-many result; an error entry is raised."""
    if isinstance(entry, HiercastError):
        raise entry
    return entry


def _fit_all(models, ys, Xs):
    """Fit ``models[i]`` on ``(ys[i], Xs[i])`` for every i.  Entry i is the
    fitted model or the HiercastError its fit raised; a ConfigError is
    raised.  NARX models train their networks with ``Narx.fit_many``."""
    if all(type(m) is Narx for m in models):
        fitted = Narx.fit_many(models, ys, Xs)
    else:
        fitted = []
        for model, y, X in zip(models, ys, Xs):
            try:
                fitted.append(model.fit(y, X))
            except HiercastError as exc:
                fitted.append(exc)
    for entry in fitted:
        if isinstance(entry, ConfigError):
            raise entry
    return fitted


def select_models(Y, Xs, candidates, cv: CVConfig, m_season=1):
    """:func:`select_model` for n series of one length at once.

    ``Y`` holds the series as the columns of a (T, n) matrix, ``Xs`` is None
    or a list of n exog matrices (or Nones), and ``candidates[i]`` is series
    i's candidate list; every list has the same kinds in the same order.
    Each (candidate, fold) is fitted for all series at once, and so is each
    winner's refit, so the NARX networks of a fold train as one stack; each
    series is then scored with its own ``expanding_window_cv`` call.
    Returns, per series, (fitted_model, kind, mean_score) or the error that
    selecting for that series alone raises.
    """
    Y = np.asarray(Y, dtype=float)
    Xs = [None] * Y.shape[1] if Xs is None else list(Xs)
    if len(Xs) != Y.shape[1] or len(candidates) != Y.shape[1]:
        raise ConfigError(f"{Y.shape[1]} series need as many exog entries and "
                          f"candidate lists, got {len(Xs)} and {len(candidates)}")
    if not all(candidates):
        raise ConfigError("no candidates given")
    if len({len(c) for c in candidates}) > 1:
        raise ConfigError("every series needs the same number of candidates")
    folds = cv.fold_sizes(len(Y))
    scored = [[] for _ in Xs]
    for idx in range(len(candidates[0]) if candidates else 0):
        fits = {n: _fit_all([copy.deepcopy(c[idx]) for c in candidates], list(Y[:n].T),
                            [X[:n] if X is not None else None for X in Xs])
                for n in folds}
        for i, X in enumerate(Xs):
            try:
                score, _ = expanding_window_cv(
                    Y[:, i], X, lambda y, X: _raise_or(fits[len(y)][i]), cv,
                    m_season=m_season,
                )
            except (NumericError, DataError):
                continue
            scored[i].append((score, idx))
    selected, winners = [None] * len(Xs), {}
    for i, scores in enumerate(scored):
        if scores:
            score, idx = min(scores)
            winners.setdefault(idx, []).append((i, score))
            continue
        y = Y[:, i]
        n, m = max(folds), m_season
        if n > m and np.array_equal(y[m:n], y[:n - m]):
            fallback = SeasonalNaive(m)
            selected[i] = (fallback.fit(y), fallback.kind, None)
        else:
            selected[i] = NumericError("all model candidates failed cross-validation")
    for idx, series in winners.items():
        fitted = _fit_all([copy.deepcopy(candidates[i][idx]) for i, _ in series],
                          [Y[:, i] for i, _ in series], [Xs[i] for i, _ in series])
        for (i, score), model in zip(series, fitted):
            selected[i] = (model if isinstance(model, HiercastError)
                           else (model, candidates[i][idx].kind, score))
    return selected
