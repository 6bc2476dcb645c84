import warnings
from collections import Counter

import numpy as np
import pytest

from hiercast import (Arx, CombCls, CombMean, ConfigError, CVConfig, Ets,
                      Naive, Narx, SeasonalNaive, calendar_matrix, cls_weights,
                      combine_mean, default_candidates, expanding_window_cv,
                      project_simplex, select_model)
from hiercast import kernels
from hiercast import forecasters
from hiercast.forecasters import _lags, select_models
from hiercast.errors import DataError, NumericError


class TestNaive:
    def test_last_value_repeated(self):
        assert Naive().fit([1, 2, 3]).forecast(2).tolist() == [3, 3]

    def test_seasonal_repeats_last_season(self):
        m = SeasonalNaive(2).fit([1, 2, 1, 2])
        assert m.forecast(2).tolist() == [1, 2]

    def test_zero_horizon(self):
        assert Naive().fit([1, 2, 3]).forecast(0).tolist() == []

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            Naive().fit([])


@pytest.mark.parametrize("p", range(1, 15))
def test_lag_matrix_matches_loops(p):
    """``_lags`` against the loops ``Arx._ls_fit`` (per lag) and
    ``Narx.fit`` (per row) built the same matrix with."""
    z = np.random.default_rng(p).standard_normal(40)
    per_lag = np.column_stack([z[p - lag:len(z) - lag] for lag in range(1, p + 1)])
    per_row = np.stack([z[t - p:t][::-1] for t in range(p, len(z))])
    assert np.array_equal(_lags(z, p), per_lag)
    assert np.array_equal(_lags(z, p), per_row)


class TestArx:
    def test_recovers_ar1_coefficient(self):
        y = [1.0]
        for _ in range(40):
            y.append(0.5 * y[-1])
        m = Arx(p=1, d=0).fit(np.array(y))
        assert m.coef_[1] == pytest.approx(0.5, abs=1e-6)
        assert m.coef_[0] == pytest.approx(0.0, abs=1e-6)

    def test_constant_series_forecasts_constant(self):
        fc = Arx().fit(np.full(30, 7.0)).forecast(5)
        assert np.allclose(fc, 7.0)

    def test_recovers_exact_exog_coefficient(self, rng):
        x = rng.standard_normal(40)
        y = 2.0 * x
        m = Arx(p=0, d=0).fit(y, x[:, None])
        assert m.coef_[-1] == pytest.approx(2.0, abs=1e-6)
        fc = m.forecast(3, np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(fc, [2.0, 4.0, 6.0], atol=1e-6)

    def test_fixed_order_rank_deficiency_is_numeric_error(self):
        # lag columns of a noiseless sinusoid are exactly collinear at p=3
        y = np.sin(2 * np.pi * np.arange(60) / 7) + 5.0
        with pytest.raises(NumericError, match="rank"):
            Arx(p=3, d=0).fit(y)

    def test_scores_on_windows_shorter_than_a_year(self, rng):
        # 100 days from January: most month dummies are all-zero columns
        ts = np.datetime64("2015-01-05") + np.arange(100)
        _, X = calendar_matrix(ts)
        y = 20.0 + 5.0 * np.sin(2 * np.pi * np.arange(100) / 7) \
            + rng.standard_normal(100)
        cv = CVConfig(starting_window=79, ending_window=93, horizon=7, step=7)
        score, folds = expanding_window_cv(y, X, lambda y, X: Arx().fit(y, X), cv,
                                           m_season=7)
        assert np.isfinite(score) and len(folds) == 3

    def test_differencing_heuristic_fires_on_trend(self):
        y = np.arange(100, dtype=float) + 1000.0
        m = Arx().fit(y)
        assert m.d_ == 1
        fc = m.forecast(3)
        assert fc[0] > y[-1]   # keeps trending upward


class TestEts:
    def test_ses_alpha_one_tracks_last_observation(self, rng):
        y = rng.standard_normal(50)
        level, _ = kernels.ses_fit(y, [1.0])
        assert level[0] == pytest.approx(y[-1])

    def test_constant_series_all_variants(self):
        y = np.full(20, 3.0)
        for variant in ("ses", "holt", "hw"):
            fc = Ets(variant, m_season=2).fit(y).forecast(4)
            assert np.allclose(fc, 3.0, atol=1e-9)

    def test_holt_winters_noiseless_seasonal(self):
        season = np.array([1.0, -1.0])
        y = 10.0 + np.tile(season, 20)
        fc = Ets("hw", m_season=2).fit(y).forecast(2)
        assert np.allclose(fc, [11.0, 9.0], atol=1e-3)

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            Ets("hw", m_season=7).fit(np.arange(10.0))


class TestNarx:
    def _linear_ar1(self, rng, n=120):
        y = np.empty(n)
        y[0] = 0.0
        eps = rng.standard_normal(n) * 0.1
        for t in range(1, n):
            y[t] = 0.6 * y[t - 1] + eps[t]
        return y

    def _insample_rmse(self, model, y, p):
        preds = np.empty(len(y) - p)
        for i in range(len(preds)):
            t = p + i
            feats = y[t - p:t][::-1]
            from hiercast import neuralnet
            preds[i] = neuralnet.predict(model.net_, feats[None, :],
                                         np.zeros((1, 0)))[0, 0]
        return float(np.sqrt(np.mean((y[p:] - preds) ** 2)))

    def test_matches_linear_model_on_ar1(self, rng):
        y = self._linear_ar1(rng)
        nar = Narx(p=1, seed=0).fit(y)
        arx = Arx(p=1, d=0).fit(y)
        # ARX residual RMSE on the same one-step problem
        resid = y[1:] - (arx.coef_[0] + arx.coef_[1] * y[:-1])
        arx_rmse = float(np.sqrt(np.mean(resid ** 2)))
        assert self._insample_rmse(nar, y, 1) <= 1.1 * arx_rmse

    def test_constant_series(self):
        fc = Narx(p=2, seed=0).fit(np.full(60, 2.0)).forecast(4)
        assert np.allclose(fc, 2.0, atol=1e-2)

    def test_seed_determinism(self, rng):
        y = self._linear_ar1(rng)
        fc1 = Narx(p=2, seed=7).fit(y).forecast(5)
        fc2 = Narx(p=2, seed=7).fit(y).forecast(5)
        assert np.array_equal(fc1, fc2)


class TestCombination:
    def test_mean_of_two(self):
        assert combine_mean([[2, 2], [4, 4]]).tolist() == [3, 3]

    def test_single_member_identity(self):
        assert combine_mean([[1.5, 2.5]]).tolist() == [1.5, 2.5]

    def test_three_members_bruteforce(self, rng):
        members = [rng.standard_normal(6) for _ in range(3)]
        expected = (members[0] + members[1] + members[2]) / 3
        assert np.allclose(combine_mean(members), expected)

    def test_empty_member_list_rejected(self):
        with pytest.raises(ConfigError):
            combine_mean([])


class TestClsWeights:
    def test_exact_member_gets_full_weight(self, rng):
        y = rng.standard_normal(20)
        preds = np.column_stack([
            y + rng.standard_normal(20),
            y,                             # exact predictor
            y - 2 * rng.standard_normal(20),
        ])
        beta = cls_weights(preds, y)
        assert beta[1] == pytest.approx(1.0, abs=1e-6)
        assert beta[0] == pytest.approx(0.0, abs=1e-6)
        assert beta[2] == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_bracketing_members(self):
        # members bracket the truth symmetrically -> equal weights
        y = np.array([2.0, 2.0])
        preds = np.column_stack([[1.0, 1.0], [3.0, 3.0]])
        beta = cls_weights(preds, y)
        assert np.allclose(beta, [0.5, 0.5], atol=1e-6)

    def test_two_member_objective_matches_grid_search(self, rng):
        for trial in range(5):
            preds = rng.standard_normal((12, 2))
            y = rng.standard_normal(12)
            beta = cls_weights(preds, y)
            obj = float(((preds @ beta - y) ** 2).sum())
            grid = np.linspace(0.0, 1.0, 10001)
            cand = np.column_stack([grid, 1.0 - grid])
            grid_obj = float((((preds @ cand.T).T - y) ** 2).sum(axis=1).min())
            assert obj <= grid_obj + 1e-4

    def test_degenerate_identical_members_uniform(self):
        preds = np.ones((6, 3)) * 2.0
        assert np.allclose(cls_weights(preds, np.ones(6)), 1 / 3)

    def test_weights_on_simplex_random_fits(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 5))
            preds = rng.standard_normal((10 + m, m))
            beta = cls_weights(preds, rng.standard_normal(10 + m))
            assert np.all(beta >= -1e-8)
            assert beta.sum() == pytest.approx(1.0, abs=1e-8)

    def test_objective_beats_feasible_points(self, rng):
        preds = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        beta = cls_weights(preds, y)
        obj = float(((preds @ beta - y) ** 2).sum())
        uniform = np.full(3, 1 / 3)
        assert obj <= float(((preds @ uniform - y) ** 2).sum()) + 1e-8
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            assert obj <= float(((preds @ e - y) ** 2).sum()) + 1e-8

    def test_simplex_projection(self, rng):
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 8))) * 3
            p = project_simplex(v)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestCombForecasters:
    def test_comb_mean_equals_member_mean(self, rng):
        y = np.sin(np.arange(60) / 3) + 5
        members = [Naive(), SeasonalNaive(7)]
        fc = CombMean(members).fit(y).forecast(7)
        expected = (Naive().fit(y).forecast(7)
                    + SeasonalNaive(7).fit(y).forecast(7)) / 2
        assert np.allclose(fc, expected)

    def test_comb_cls_weights_on_simplex(self, rng):
        y = np.sin(2 * np.pi * np.arange(120) / 7) * 2 + 10 + rng.standard_normal(120) * 0.1
        model = CombCls([Naive(), SeasonalNaive(7)]).fit(y)
        assert np.all(model.weights_ >= -1e-8)
        assert model.weights_.sum() == pytest.approx(1.0, abs=1e-8)
        # seasonal-naive is nearly exact here; it should dominate
        assert model.weights_[1] > 0.9


class TestSelectModel:
    def _cv(self, n):
        return CVConfig(starting_window=n - 21, ending_window=n - 7,
                        horizon=7, step=7)

    def test_seasonal_series_selects_seasonal_naive(self, rng):
        y = (np.tile([1.0, 5.0, 3.0, 4.0, 2.0, 6.0, 0.5], 12)
             + rng.standard_normal(84) * 0.01)
        _, kind, score = select_model(
            y, None, [Naive(), SeasonalNaive(7)], self._cv(len(y)), m_season=7
        )
        assert kind == "snaive"
        assert score < 2.0   # far below the naive candidate on this series

    def test_random_walk_selects_naive(self, rng):
        y = np.cumsum(rng.standard_normal(120))
        _, kind, _ = select_model(
            y, None, [Naive(), SeasonalNaive(7)], self._cv(len(y)), m_season=7
        )
        assert kind == "naive"

    def test_tie_goes_to_first_listed_candidate(self, rng):
        # seasonal naive with period 1 forecasts exactly like naive
        y = np.cumsum(rng.standard_normal(60))
        for cands, first in (([SeasonalNaive(1), Naive()], "snaive"),
                             ([Naive(), SeasonalNaive(1)], "naive")):
            _, kind, _ = select_model(y, None, cands, self._cv(len(y)),
                                      m_season=7)
            assert kind == first

    def test_single_candidate(self):
        y = np.arange(60.0)
        fitted, kind, _ = select_model(y, None, [Naive()], self._cv(len(y)),
                                       m_season=7)
        assert kind == "naive"
        assert fitted.forecast(1)[0] == 59.0

    def test_no_candidates_rejected(self):
        with pytest.raises(ConfigError):
            select_model(np.arange(60.0), None, [], self._cv(60))

    @pytest.mark.parametrize("week", [[0.0] * 7, [3.5] * 7,
                                      [1.0, 5.0, 3.0, 4.0, 2.0, 6.0, 0.5]],
                             ids=["zeros", "constant", "weekly"])
    def test_seasonally_constant_history_falls_back_to_seasonal_naive(self, week):
        # MASE's scale is zero on every fold, so no candidate gets a score
        y = np.tile(week, 31)
        cands = default_candidates(7, include_narx=False,
                                   include_combinations=False)
        fitted, kind, score = select_model(
            y[:200], None, cands, CVConfig.last_folds(200, 7, 7), m_season=7)
        assert (kind, score) == ("snaive", None)
        assert np.array_equal(fitted.forecast(14), y[200:214])

    def test_all_candidates_failing_otherwise_still_raises(self, rng):
        # every fold trains on fewer than the 14 rows Holt-Winters needs
        y = rng.standard_normal(60)
        cv = CVConfig(starting_window=10, ending_window=12, horizon=7)
        with pytest.raises(NumericError, match="all model candidates failed"):
            select_model(y, None, [Ets("hw", 7)], cv, m_season=7)


def _recorded(fn, *args, **kwargs):
    """fn's result and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, Counter(str(w.message) for w in caught)


class TestSelectModels:
    """Selecting over several series at once, NARX networks stacked, gives
    each series what selecting for it alone gives."""

    T, H = 84, 7
    CV = CVConfig(starting_window=49, ending_window=63, horizon=7, step=7)

    def _panel(self, rng):
        t = np.arange(self.T)
        Y = np.column_stack([
            10 + np.sin(2 * np.pi * t / 7) + 0.3 * rng.standard_normal(self.T),
            50 + np.cumsum(rng.standard_normal(self.T)),
            np.tile([0.0] * 6 + [1.0], self.T // 7),   # MASE's scale is zero
            5 + 0.05 * t + rng.standard_normal(self.T),
        ])
        # two exog widths, so the NARX networks form two stacks
        Xs = [None, rng.standard_normal((self.T, 2)), None,
              rng.standard_normal((self.T, 2))]
        return Y, Xs

    @staticmethod
    def _candidates(i):
        return default_candidates(7, narx_seed=100 + i, include_narx=True,
                                  include_combinations=False)

    def test_many_series_equal_one_at_a_time(self, rng):
        Y, Xs = self._panel(rng)
        n = self.T - self.H
        heads = [X[:n] if X is not None else None for X in Xs]
        many, many_warned = _recorded(
            select_models, Y[:n], heads,
            [self._candidates(i) for i in range(Y.shape[1])], self.CV, m_season=7)
        one_warned = Counter()
        for i, (X, head) in enumerate(zip(Xs, heads)):
            (fitted, kind, score), warned = _recorded(
                select_model, Y[:n, i], head, self._candidates(i), self.CV,
                m_season=7)
            one_warned += warned
            m_fitted, m_kind, m_score = many[i]
            assert (m_kind, m_score) == (kind, score)
            future = X[n:] if X is not None else None
            assert np.array_equal(m_fitted.forecast(self.H, future),
                                  fitted.forecast(self.H, future))
        assert many[2][1:] == ("snaive", None)
        assert any("MASE denominator is zero" in w for w in one_warned)
        assert many_warned == one_warned

    def test_each_series_is_scored_by_its_own_cv_call(self, rng, monkeypatch):
        # expanding_window_cv sees one series and the CV configuration per
        # call, as when selecting for each series alone
        Y, Xs = self._panel(rng)
        calls = []

        def recording(y, X, fit, cfg, **kwargs):
            calls.append((np.shape(y), cfg))
            return cv(y, X, fit, cfg, **kwargs)

        cv = forecasters.expanding_window_cv
        monkeypatch.setattr(forecasters, "expanding_window_cv", recording)
        cands = [self._candidates(i) for i in range(Y.shape[1])]
        select_models(Y, Xs, cands, self.CV, m_season=7)
        assert calls == [((self.T,), self.CV)] * (Y.shape[1] * len(cands[0]))

    def test_fold_fit_errors_score_as_fitting_each_fold(self, rng, monkeypatch):
        # Holt-Winters cannot fit the 10-row first fold but fits the others;
        # the fold fits selection holds score as fitting each fold afresh
        y = 10 + np.sin(2 * np.pi * np.arange(40) / 7) + 0.3 * rng.standard_normal(40)
        cv = CVConfig(starting_window=10, ending_window=24, horizon=7, step=7)
        results = []

        def recording(*args, **kwargs):
            results.append(scoring(*args, **kwargs))
            return results[-1]

        scoring = forecasters.expanding_window_cv
        monkeypatch.setattr(forecasters, "expanding_window_cv", recording)
        (_, _, score), warned = _recorded(select_model, y, None, [Ets("hw", 7)],
                                          cv, m_season=7)
        expected, expected_warned = _recorded(
            expanding_window_cv, y, None, lambda y, X: Ets("hw", 7).fit(y, X), cv,
            m_season=7)
        assert results == [expected] and score == expected[0]
        assert len(expected[1]) == 2
        assert warned == expected_warned
        assert any(w.startswith("CV fold with training size 10 failed")
                   for w in warned)

    @pytest.mark.parametrize("n_xs,n_lists", [(2, 3), (3, 2)])
    def test_list_lengths_must_match_the_series(self, rng, n_xs, n_lists):
        Y = rng.standard_normal((self.T, 3))
        with pytest.raises(ConfigError, match=f"3 series .* got {n_xs} and {n_lists}"):
            select_models(Y, [None] * n_xs,
                          [self._candidates(i) for i in range(n_lists)],
                          self.CV, m_season=7)

    def test_narx_fit_many_equals_fitting_alone(self, rng):
        Y, Xs = self._panel(rng)
        ys = [Y[:, i] for i in range(Y.shape[1])] + [Y[:8, 0]]   # too short
        Xs = Xs + [None]
        many = Narx.fit_many([Narx(p=7, seed=i) for i in range(len(ys))], ys, Xs)
        for i, (y, X) in enumerate(zip(ys, Xs)):
            try:
                alone = Narx(p=7, seed=i).fit(y, X)
            except DataError as exc:
                assert type(many[i]) is DataError and str(many[i]) == str(exc)
                continue
            future = X[:self.H] if X is not None else None
            assert np.array_equal(many[i].forecast(self.H, future),
                                  alone.forecast(self.H, future))
        assert isinstance(many[-1], DataError)

    def test_default_pool_with_combinations_equals_one_at_a_time(self, rng):
        # forecast's default pool: NARX and both combinations on, one fold
        Y, Xs = self._panel(rng)
        Y, Xs = Y[:56, [0, 1, 3]], [None, Xs[1][:56], Xs[3][:56]]
        n = len(Y) - self.H
        cv = CVConfig(starting_window=n - self.H, ending_window=n - self.H,
                      horizon=self.H, step=self.H)
        pools = [default_candidates(7, narx_seed=i) for i in range(3)]
        assert [c.kind for c in pools[0][-2:]] == ["comb_mean", "comb_cls"]
        many = select_models(Y[:n], [X[:n] if X is not None else None for X in Xs],
                             pools, cv, m_season=7)
        for i, X in enumerate(Xs):
            head, future = (X[:n], X[n:]) if X is not None else (None, None)
            fitted, kind, score = select_model(
                Y[:n, i], head, default_candidates(7, narx_seed=i), cv, m_season=7)
            m_fitted, m_kind, m_score = many[i]
            assert (m_kind, m_score) == (kind, score)
            assert np.array_equal(m_fitted.forecast(self.H, future),
                                  fitted.forecast(self.H, future))
        comb = pools[1][-1].fit(Y[:n, 1], Xs[1][:n])
        members = np.column_stack([m.forecast(self.H, Xs[1][n:])
                                   for m in comb.fitted_])
        assert np.array_equal(comb.forecast(self.H, Xs[1][n:]),
                              members @ comb.weights_)
