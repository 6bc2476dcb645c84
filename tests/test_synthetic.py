import json

import numpy as np
import pytest

from hiercast import (ConfigError, GeneratorSpec, build_summing_matrix,
                      coherence_violation, generate, load_hierarchy,
                      load_panel, proportions_ahp, write_dataset)


class TestSpecValidation:
    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(regime="chaotic")

    def test_bad_fanout(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(children_per_level=(3, 0))

    def test_too_short(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(T=10, m_season=7)

    @pytest.mark.parametrize("setting", [dict(noise_sigma=-0.1),
                                         dict(promo_prob=-0.1),
                                         dict(promo_prob=1.5)])
    def test_out_of_range_setting_named(self, setting):
        (key,) = setting
        with pytest.raises(ConfigError, match=key):
            GeneratorSpec(**setting)

    @pytest.mark.parametrize("setting", [dict(noise_sigma=0.0),
                                         dict(promo_prob=0.0),
                                         dict(promo_prob=1.0)])
    def test_range_ends_accepted(self, setting):
        GeneratorSpec(**setting)

    def test_off_simplex_fixed_shares(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(fixed_shares=(0.5, 0.6))

    def test_fixed_shares_arity_mismatch(self):
        spec = GeneratorSpec(children_per_level=(3,), fixed_shares=(0.5, 0.5),
                             T=60)
        with pytest.raises(ConfigError):
            generate(spec)


class TestGenerate:
    def test_panel_is_coherent(self):
        _, panel, _ = generate(GeneratorSpec(T=100, regime="switching"))
        S = build_summing_matrix(panel.hierarchy)
        assert coherence_violation(S, panel.values) <= 1e-9

    def test_noiseless_fixed_shares_recovered_by_ahp(self):
        spec = GeneratorSpec(children_per_level=(2,), T=140,
                             fixed_shares=(0.3, 0.7), noise_sigma=0.0)
        _, panel, _ = generate(spec)
        p = proportions_ahp(panel)
        assert np.abs(p - [0.3, 0.7]).max() <= 1e-9

    def test_same_seed_bit_identical(self):
        spec = GeneratorSpec(T=120, regime="switching", seed=42)
        _, p1, t1 = generate(spec)
        _, p2, t2 = generate(spec)
        assert np.array_equal(p1.values, p2.values)
        assert t1 == t2
        for n in p1.hierarchy.bottom_ids:
            assert np.array_equal(p1.exog[n][1], p2.exog[n][1])

    def test_different_seeds_differ(self):
        _, p1, _ = generate(GeneratorSpec(T=120, seed=1))
        _, p2, _ = generate(GeneratorSpec(T=120, seed=2))
        assert not np.array_equal(p1.values, p2.values)

    def test_truth_record_shares_match_means(self):
        spec = GeneratorSpec(children_per_level=(3,), T=200, noise_sigma=0.0)
        hier, panel, truth = generate(spec)
        shares = np.array(truth["base_shares"]["total"])
        total = panel.series("total")
        for j, node in enumerate(hier.bottom_ids):
            ratio = panel.series(node) / total
            assert np.allclose(ratio, shares[j], atol=1e-9)

    def test_switching_regime_has_promo_exog(self):
        _, panel, _ = generate(GeneratorSpec(T=100, regime="switching"))
        for n in panel.hierarchy.bottom_ids:
            names, mat = panel.exog[n]
            assert names == ["promo"]
            assert set(np.unique(mat)) <= {0.0, 1.0}

    def test_static_regime_has_no_exog(self):
        _, panel, _ = generate(GeneratorSpec(T=100))
        assert panel.exog == {}

    def test_switching_shares_track_flags(self):
        spec = GeneratorSpec(children_per_level=(2,), T=300, noise_sigma=0.0,
                             regime="switching", promo_prob=0.3,
                             promo_lift=2.0, fixed_shares=(0.5, 0.5))
        hier, panel, _ = generate(spec)
        f0 = panel.exog["g00"][1][:, 0]
        f1 = panel.exog["g01"][1][:, 0]
        share0 = panel.series("g00") / panel.series("total")
        # when only node 0 is on promotion its share is boosted
        only0 = (f0 == 1) & (f1 == 0)
        neither = (f0 == 0) & (f1 == 0)
        assert np.allclose(share0[neither], 0.5, atol=1e-12)
        assert np.all(share0[only0] > 0.7)

    def test_trend_and_seasonality_in_top(self):
        spec = GeneratorSpec(children_per_level=(2,), T=140, trend=0.5,
                             noise_sigma=0.0, seasonal_amplitude=0.0)
        _, panel, _ = generate(spec)
        top = panel.series("total")
        assert np.allclose(np.diff(top), 0.5, atol=1e-9)


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        spec = GeneratorSpec(T=80, regime="switching", seed=7)
        hier, panel, truth = write_dataset(spec, tmp_path)
        h2 = load_hierarchy(tmp_path / "hierarchy.csv")
        assert h2 == hier
        p2 = load_panel(h2, tmp_path / "observations.csv",
                        tmp_path / "exog.csv", calendar=())
        assert np.allclose(p2.values, panel.values)
        doc = json.loads((tmp_path / "truth.json").read_text())
        assert doc["spec"]["seed"] == 7
        assert "base_shares" in doc

    def test_static_regime_omits_exog_file(self, tmp_path):
        write_dataset(GeneratorSpec(T=80), tmp_path)
        assert not (tmp_path / "exog.csv").exists()
