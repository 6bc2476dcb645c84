import json
import math

import numpy as np
import pytest

from hiercast import (ConfigError, CVConfig, EvalReport, Naive, NumericError,
                      chi2_sf, expanding_window_cv, friedman_test, mase,
                      nemenyi_svg, nemenyi_test, smape)


class TestMase:
    def test_hand_example(self):
        # insample naive MAE = 1, forecast MAE = 1.5
        assert mase([5, 6], [4, 4], [1, 2, 3, 4]) == pytest.approx(1.5)

    def test_perfect_forecast_zero(self):
        assert mase([5, 6], [5, 6], [1, 2, 3, 4]) == 0.0

    def test_naive_continuation_on_trend_is_one(self):
        # forecasting the last value on a unit-slope trend makes the
        # numerator equal the in-sample naive MAE exactly
        y = np.arange(50.0)
        fc = np.full(5, y[-1])
        actual = np.arange(50.0, 55.0)
        num = np.abs(actual - fc).mean()     # = 3
        assert mase(actual, fc, y) == pytest.approx(num / 1.0)

    def test_scale_invariance(self, rng):
        y = rng.random(40) + 1
        actual = rng.random(6) + 1
        fc = rng.random(6) + 1
        a = mase(actual, fc, y)
        b = mase(1e6 * actual, 1e6 * fc, 1e6 * y)
        assert abs(a - b) <= 1e-12 * a

    def test_seasonal_denominator(self):
        y = np.array([1.0, 10.0, 2.0, 11.0, 3.0, 12.0])
        # m=2 denominator: mean |y_t - y_{t-2}| = 1
        assert mase([4.0], [5.0], y, m_season=2) == pytest.approx(1.0)

    def test_constant_insample_is_numeric_error(self):
        with pytest.raises(NumericError, match="denominator"):
            mase([1.0], [2.0], np.full(10, 3.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mase([1, 2], [1], [1, 2, 3])


class TestSmape:
    def test_total_miss_is_two(self):
        assert smape([10.0], [0.0]) == pytest.approx(2.0)

    def test_hand_example(self):
        assert smape([4.0], [6.0]) == pytest.approx(0.4)

    def test_perfect_forecast_zero(self):
        assert smape([3.0, 5.0], [3.0, 5.0]) == 0.0

    def test_scale_invariance(self, rng):
        actual = rng.random(8) + 1
        fc = rng.random(8) + 1
        assert smape(actual, fc) == pytest.approx(
            smape(1e9 * actual, 1e9 * fc), abs=1e-12)

    def test_both_zero_is_numeric_error(self):
        with pytest.raises(NumericError):
            smape([0.0], [0.0])


class TestCV:
    def test_fold_enumeration(self):
        cfg = CVConfig(starting_window=6, ending_window=8, horizon=2, step=2)
        assert cfg.fold_sizes(10) == [6, 8]

    def test_folds_clipped_by_series_length(self):
        cfg = CVConfig(starting_window=6, ending_window=8, horizon=2, step=2)
        assert cfg.fold_sizes(9) == [6]

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            CVConfig(starting_window=6, ending_window=5, horizon=2)
        with pytest.raises(ConfigError):
            CVConfig(starting_window=1, ending_window=5, horizon=2)

    def test_split_too_short_names_rows_horizon_and_need(self):
        # the first fold needs two seasons plus one row to fit, then h to score
        with pytest.raises(ConfigError) as info:
            CVConfig.last_folds(20, 7, 7)
        assert str(info.value) == (
            "20 training rows are too few for cross-validation at horizon 7: "
            "the first fold needs 22 (15 to fit, 7 to score)")
        assert CVConfig.last_folds(22, 7, 7).fold_sizes(22) == [15]

    def test_no_leakage(self):
        """The model must never see data at or beyond its fold boundary."""
        seen = []

        class Recorder:
            def fit(self, y, X=None):
                seen.append(np.array(y))
                return self

            def forecast(self, h, X=None):
                return np.zeros(h)

        y = np.arange(20.0)
        cfg = CVConfig(starting_window=10, ending_window=16, horizon=2, step=3)
        expanding_window_cv(y, None, Recorder().fit, cfg)
        assert [len(s) for s in seen] == [10, 13, 16]
        for s in seen:
            assert np.array_equal(s, y[:len(s)])

    def test_oracle_model_scores_zero(self, rng):
        y = np.cumsum(rng.random(30)) + 1.0

        class Oracle:
            def fit(self, yy, X=None):
                self.n = len(yy)
                return self

            def forecast(self, h, X=None):
                return y[self.n:self.n + h]

        cfg = CVConfig(starting_window=20, ending_window=26, horizon=2, step=3)
        mean, scores = expanding_window_cv(y, None, Oracle().fit, cfg)
        assert mean == 0.0
        assert len(scores) == 3

    def test_failing_folds_skipped_with_warning(self):
        calls = {"n": 0}

        class Flaky:
            def fit(self, y, X=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise NumericError("boom")
                return self

            def forecast(self, h, X=None):
                return np.full(h, 10.0)

        y = np.arange(20.0)
        cfg = CVConfig(starting_window=10, ending_window=13, horizon=2, step=3)
        with pytest.warns(UserWarning, match="failed"):
            _, scores = expanding_window_cv(y, None, Flaky().fit, cfg)
        assert len(scores) == 1

    def test_all_folds_failing_is_numeric_error(self):
        class Broken:
            def fit(self, y, X=None):
                raise NumericError("always")

        y = np.arange(20.0)
        cfg = CVConfig(starting_window=10, ending_window=12, horizon=2, step=2)
        with pytest.warns(UserWarning):
            with pytest.raises(NumericError, match="every"):
                expanding_window_cv(y, None, Broken().fit, cfg)

    def test_no_feasible_folds_is_config_error(self):
        cfg = CVConfig(starting_window=50, ending_window=60, horizon=5)
        with pytest.raises(ConfigError):
            expanding_window_cv(np.arange(20.0), None, Naive().fit, cfg)


class TestChi2:
    def test_df2_closed_form(self):
        for x in (0.5, 1.0, 3.3, 8.0, 20.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_df1_closed_form(self):
        for x in (0.2, 1.0, 4.0, 9.0):
            assert chi2_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2)), rel=1e-10)

    def test_nonpositive_x(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0

    def test_monotone_decreasing(self):
        vals = [chi2_sf(x, 4) for x in np.linspace(0.1, 30, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tail_keeps_its_digits(self):
        # a tail below 1e-16 is not lost to 1 - (1 - Q); abs=0, as approx
        # would otherwise accept anything within 1e-12 of a tiny tail
        assert chi2_sf(60, 2) == pytest.approx(math.exp(-30), rel=1e-12, abs=0)
        assert chi2_sf(75, 2) == pytest.approx(math.exp(-37.5), rel=1e-12, abs=0)
        assert chi2_sf(50, 1) == pytest.approx(math.erfc(5), rel=1e-12, abs=0)

    @pytest.mark.parametrize("x,df,exact", [
        (1500, 19, 4.420686547e-307),
        (1600, 39, 6.900271374e-311),      # subnormal
        (1500, 20, 3.982564943e-306),
    ])
    def test_tail_past_exp_underflow(self, x, df, exact):
        # exp(-x/2) alone is 0 here; the exact values come from mpmath
        assert chi2_sf(x, df) == pytest.approx(exact, rel=1e-9, abs=0)

    @pytest.mark.parametrize("x,df,exact", [
        (1440, 1440, 0.4950440615559591),
        (1440, 1300, 0.0038403909710808116),
        (3000, 3000, 0.49656643883965135),
        (6000, 6001, 0.5012139887828931),
        (1e6, 1e6, 0.4998119368033945),
        (4000, 460, 0.0),                  # below the smallest double
    ])
    def test_large_x_and_df_stay_in_range(self, x, df, exact):
        # the partial sums h^j/j! reach e^h, past the largest double once
        # h > 709; the exact values come from mpmath
        assert chi2_sf(x, df) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [1, 2, 3, 40])
    def test_infinite_statistic_has_tail_zero(self, df):
        assert chi2_sf(math.inf, df) == 0.0

    def test_never_above_one(self):
        # the rounded terms of a small x against a large df sum past 1
        assert max(chi2_sf(x / 10, 40) for x in range(1, 400)) == 1.0
        assert max(chi2_sf(x / 10, 41) for x in range(1, 400)) == 1.0

    @pytest.mark.parametrize("df", range(1, 20))
    def test_two_more_degrees_add_one_term(self, df):
        # Q(x, df + 2) = Q(x, df) + (x/2)^(df/2) exp(-x/2) / Gamma(df/2 + 1)
        for x in np.linspace(0.25, 700, 400):
            upper = chi2_sf(x, df + 2)
            if upper <= 1e-300:
                continue
            term = math.exp(df / 2 * math.log(x / 2) - x / 2
                            - math.lgamma(df / 2 + 1))
            assert upper == pytest.approx(chi2_sf(x, df) + term, rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [0, -2, 2.5, math.nan, math.inf])
    def test_df_must_be_a_positive_whole_number(self, df):
        with pytest.raises(ConfigError, match="positive whole number"):
            chi2_sf(3.0, df)


class TestFriedman:
    def test_identical_ordering_example(self):
        # 4 series, 3 methods, same ordering everywhere -> ranks (1,2,3)
        errors = np.tile([1.0, 2.0, 3.0], (4, 1))
        stat, p, ranks = friedman_test(errors)
        assert np.allclose(ranks, [1.0, 2.0, 3.0])
        assert stat == pytest.approx(8.0)
        assert p == pytest.approx(math.exp(-4.0), rel=1e-9)

    def test_ties_get_average_ranks(self):
        errors = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
        _, _, ranks = friedman_test(errors)
        assert np.allclose(ranks, [1.5, 1.5, 3.0])

    def test_null_simulation_not_significant(self, rng):
        # exchangeable columns -> the test should rarely reject
        errors = rng.standard_normal((40, 4))
        _, p, _ = friedman_test(errors)
        assert p > 0.01

    def test_invariance_to_monotone_transform(self, rng):
        errors = rng.random((12, 3)) + 0.5
        s1, p1, r1 = friedman_test(errors)
        s2, p2, r2 = friedman_test(np.exp(errors))   # rank-preserving
        assert s1 == pytest.approx(s2)
        assert np.allclose(r1, r2)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            friedman_test(np.ones((1, 3)))
        with pytest.raises(ConfigError):
            friedman_test(np.ones((3, 1)))


class TestNemenyi:
    def test_critical_distance_example(self):
        # k=3, N=4: CD = 2.343 * sqrt(12 / 24)
        errors = np.tile([1.0, 2.0, 3.0], (4, 1))
        res = nemenyi_test(errors)
        assert res.critical_distance == pytest.approx(
            2.343 * math.sqrt(0.5), abs=1e-9)

    def test_interval_overlap_logic(self):
        errors = np.tile([1.0, 2.0, 3.0], (30, 1))
        res = nemenyi_test(errors, methods=["a", "b", "c"])
        # CD = 2.343*sqrt(12/180) ~ 0.605 < 1, so adjacent ranks differ
        assert res.different("a", "c")
        assert res.different("a", "b")

    def test_sorted_methods_ascending_rank(self):
        errors = np.tile([3.0, 1.0, 2.0], (5, 1))
        res = nemenyi_test(errors, methods=["x", "y", "z"])
        assert res.sorted_methods() == ["y", "z", "x"]

    def test_two_methods_supported(self):
        res = nemenyi_test(np.tile([1.0, 2.0], (6, 1)))
        assert res.critical_distance == pytest.approx(
            1.960 * math.sqrt(6 / 36.0), abs=1e-9)

    def test_unknown_significance_rejected(self):
        with pytest.raises(ConfigError):
            nemenyi_test(np.ones((3, 2)) + np.arange(2), significance=0.01)


def _toy_report():
    rep = EvalReport(methods=["bu", "mint"], metric="mase")
    rep.series_scores = {
        "total": {"bu": 1.0, "mint": 0.8},
        "a": {"bu": 2.0, "mint": 1.0},
        "b": {"bu": 3.0, "mint": 2.0},
    }
    rep.series_levels = {"total": 0, "a": 1, "b": 1}
    return rep


class TestEvalReport:
    def test_level_averages(self):
        avg = _toy_report().level_averages()
        assert avg[0] == {"bu": 1.0, "mint": 0.8}
        assert avg[1]["bu"] == pytest.approx(2.5)
        assert avg[1]["mint"] == pytest.approx(1.5)

    def test_rank_tests_populate_summary(self):
        rep = _toy_report().run_rank_tests()
        assert rep.friedman["mean_ranks"]["mint"] == 1.0
        assert rep.nemenyi.sorted_methods()[0] == "mint"

    def test_single_method_rejected(self):
        rep = EvalReport(methods=["bu"], metric="mase")
        rep.series_scores = {"a": {"bu": 1.0}, "b": {"bu": 2.0}}
        rep.series_levels = {"a": 1, "b": 1}
        with pytest.raises(ConfigError):
            rep.run_rank_tests()

    def test_json_round_trip(self):
        doc = json.loads(_toy_report().run_rank_tests().to_json())
        assert doc["metric"] == "mase"
        assert doc["series"]["a"]["scores"]["bu"] == 2.0
        assert doc["level_averages"]["1"]["mint"] == 1.5
        assert "friedman" in doc and "nemenyi" in doc

    def test_csv_layout(self):
        csv = _toy_report().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "series,level,bu,mint"
        assert lines[1].startswith("total,0,1.000000,0.800000")
        assert lines[-1].startswith("average_level_1,1,2.500000,1.500000")

    def test_flagged_series_excluded_from_averages(self):
        rep = _toy_report()
        rep.flagged["c"] = "zero denominator"
        avg = rep.level_averages()
        assert "c" not in rep.series_scores
        doc = json.loads(rep.to_json())
        assert doc["flagged"] == {"c": "zero denominator"}
        assert avg[1]["bu"] == pytest.approx(2.5)


class TestNemenyiSvg:
    def test_svg_contains_all_methods_and_cd(self):
        errors = np.tile([1.0, 2.0, 3.0], (4, 1))
        res = nemenyi_test(errors, methods=["alpha", "beta", "gamma"])
        svg = nemenyi_svg(res)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        for m in res.methods:
            assert m in svg
        assert f"{res.critical_distance:.3f}" in svg

    def test_deterministic(self):
        errors = np.tile([1.0, 2.0], (5, 1))
        res = nemenyi_test(errors)
        assert nemenyi_svg(res) == nemenyi_svg(res)
