import numpy as np
import pytest

from hiercast import (ArchConfig, ConfigError, DataError, Hierarchy,
                      NndConfig, WindowConfig, build_summing_matrix,
                      calendar_matrix, coherence_violation, disaggregate,
                      make_windows, raw_violation, train_nnd)
from hiercast import kernels, neuralnet
from hiercast.neuralnet import TrainConfig
from hiercast.nnd import STRATEGIES, feature_matrix, run

from conftest import make_hierarchy, panel_from_bottom
from test_kernels import _conv1d_same_grad_loops, _conv1d_same_loops


def tiny_cfg(**kw):
    """Small, fast network for structural tests."""
    defaults = dict(
        window=WindowConfig(w=3),
        train=TrainConfig(max_epochs=2, patience=1, batch_size=8),
        arch=ArchConfig(hidden=4, n_dense=1, filters=2, n_conv=1,
                        kernel_size=2),
        seed=0,
    )
    defaults.update(kw)
    return NndConfig(**defaults)


def fixed_share_panel(shares=(0.3, 0.7), T=200, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    h = make_hierarchy((len(shares),))
    t = np.arange(T)
    top = 20.0 + 5.0 * np.sin(2 * np.pi * t / 7) + rng.standard_normal(T) * noise
    bottom = np.outer(top, shares)
    return panel_from_bottom(h, bottom)


class TestMakeWindows:
    def test_length5_w3_enumeration(self):
        wins, targets = make_windows([1, 2, 3, 4, 5], WindowConfig(w=3))
        assert wins.tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
        assert targets.tolist() == [2, 3, 4]

    def test_window_equals_length_single_window(self):
        wins, targets = make_windows([1, 2, 3], WindowConfig(w=3))
        assert wins.shape == (1, 3)
        assert targets.tolist() == [2]

    def test_hop_two(self):
        wins, targets = make_windows(np.arange(7), WindowConfig(w=3, hop=2))
        assert targets.tolist() == [2, 4, 6]

    def test_window_ends_at_target(self):
        y = np.arange(10.0) * 3
        wins, targets = make_windows(y, WindowConfig(w=4))
        assert np.array_equal(wins[:, -1], y[targets])

    def test_no_lookahead(self):
        # values after target t never enter the window for t
        y = np.arange(10.0)
        wins, targets = make_windows(y, WindowConfig(w=4))
        spiked = y.copy()
        spiked[targets[0] + 1] = 1e9
        wins2, _ = make_windows(spiked, WindowConfig(w=4))
        assert np.array_equal(wins[0], wins2[0])

    @pytest.mark.parametrize("w", [1, 3, 30])
    @pytest.mark.parametrize("hop", [1, 2, 5])
    def test_matches_slice_per_target(self, w, hop):
        y = np.random.default_rng(w * hop).standard_normal(61)
        wins, targets = make_windows(y, WindowConfig(w=w, hop=hop))
        assert np.array_equal(wins, np.stack([y[t - w + 1:t + 1] for t in targets]))
        assert wins.flags.c_contiguous and wins.flags.writeable

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            make_windows([1, 2], WindowConfig(w=3))

    def test_bad_config_rejected(self):
        from hiercast import ConfigError
        with pytest.raises(ConfigError):
            WindowConfig(w=0)


class TestFeatures:
    def _promo_panel(self, rng):
        h = make_hierarchy((2,))
        T = 14
        exog = {
            "g00": (["promo"], rng.integers(0, 2, (T, 1)).astype(float)),
            "g01": (["promo"], rng.integers(0, 2, (T, 1)).astype(float)),
        }
        return panel_from_bottom(h, rng.random((T, 2)) + 1, exog=exog,
                                 calendar=("dow",))

    def test_promo_plus_dow_vector_length(self, rng):
        panel = self._promo_panel(rng)
        dow = calendar_matrix(panel.timestamps, ("dow",))[1]
        for kids in (["g00", "g01"], ["g01", "g00"]):
            mat = feature_matrix(panel, kids)
            assert mat.shape == (panel.T, 2 + 6)
            for j, kid in enumerate(kids):
                assert np.array_equal(mat[:, j], panel.exog[kid][1][:, 0])
            assert np.array_equal(mat[:, 2:], dow)

    def test_interior_child_takes_mean_of_leaf_promos(self, rng):
        h = make_hierarchy((2, 2))
        T = 21
        promo = rng.integers(0, 2, (T, 4)).astype(float)
        exog = {leaf: (["promo"], promo[:, [j]])
                for j, leaf in enumerate(h.bottom_ids)}
        panel = panel_from_bottom(h, rng.random((T, 4)) + 1, exog=exog,
                                  calendar=("dow", "month"))
        mat = feature_matrix(panel, ["g00", "g01"])
        assert mat.shape == (T, 2 + 6 + 11)
        assert np.array_equal(mat[:, 0], promo[:, :2].mean(axis=1))
        assert np.array_equal(mat[:, 1], promo[:, 2:].mean(axis=1))
        assert np.array_equal(
            mat[:, 2:], calendar_matrix(panel.timestamps, ("dow", "month"))[1])

    def test_no_exog_no_calendar_empty(self, rng):
        panel = fixed_share_panel(T=20)
        mat = feature_matrix(panel, list(panel.hierarchy.bottom_ids))
        assert mat.shape == (20, 0)


class TestTrainDisaggregate:
    def test_fixed_shares_recovered_within_two_percent(self):
        panel = fixed_share_panel((0.3, 0.7), T=250)
        cfg = NndConfig(
            window=WindowConfig(w=7),
            train=TrainConfig(learning_rate=0.003, max_epochs=250,
                              patience=40, batch_size=16),
            arch=ArchConfig(hidden=16, n_dense=2, filters=4, n_conv=2,
                            kernel_size=3),
            seed=1,
        )
        n_train, h = 220, 14
        kids = panel.hierarchy.bottom_ids
        net = train_nnd(panel, "total", kids, cfg, end=n_train)
        parent = panel.series("total")
        feats = feature_matrix(panel, kids)
        out = disaggregate(net, parent[n_train:n_train + h],
                           feats[n_train:n_train + h], parent[:n_train])
        truth = np.outer(parent[n_train:n_train + h], [0.3, 0.7])
        rel = np.abs(out - truth) / np.abs(truth)
        assert rel.max() < 0.02

    def test_seed_determinism(self):
        panel = fixed_share_panel(T=60)
        cfg = tiny_cfg(seed=5)
        kids = panel.hierarchy.bottom_ids
        n1 = train_nnd(panel, "total", kids, cfg, end=50)
        n2 = train_nnd(panel, "total", kids, cfg, end=50)
        for a, b in zip(n1.params, n2.params):
            assert np.array_equal(a, b)

    def test_grid_search_picks_a_grid_spec(self, monkeypatch):
        # every cell trains through neuralnet.train as looked up at call time
        panel = fixed_share_panel(T=60)
        cfg = tiny_cfg(train=TrainConfig(max_epochs=1, batch_size=16),
                       arch=ArchConfig(n_conv=1, n_dense=1, grid=True))
        kids = panel.hierarchy.bottom_ids
        trained, train = [], neuralnet.train

        def recording(spec, dataset, config):
            trained.append(train(spec, dataset, config))
            return trained[-1]

        monkeypatch.setattr(neuralnet, "train", recording)
        n1 = train_nnd(panel, "total", kids, cfg, end=50)
        grid = neuralnet.spec_grid(out_dim=2, exog_dim=n1.spec.exog_dim,
                                   window=3, n_conv=1, n_dense=1)
        assert [net.spec for net in trained] == grid
        assert n1.spec in grid
        val = [net.history[net.best_epoch][1] for net in trained]
        assert n1 is trained[val.index(min(val))]
        n2 = train_nnd(panel, "total", kids, cfg, end=50)
        assert n2.spec == n1.spec
        for a, b in zip(n1.params, n2.params):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("parent", ["total", "g00"])
    def test_rows_from_end_on_do_not_reach_the_model(self, rng, parent):
        # two panels that differ only in bottom values and exog from ``end``
        # on; the root's children carry the mean of their leaves' exog
        hier = make_hierarchy((2, 2))
        T, end = 90, 70
        bottom = 10.0 + rng.random((T, 4))
        promo = (rng.random((T, 4)) < 0.3).astype(float)
        late_bottom, late_promo = bottom.copy(), promo.copy()
        late_bottom[end:] = 50.0 + rng.random((T - end, 4))
        late_promo[end:] = 1.0 - promo[end:]

        def panel(b, p):
            exog = {leaf: (["promo"], p[:, [j]])
                    for j, leaf in enumerate(hier.bottom_ids)}
            return panel_from_bottom(hier, b, exog=exog,
                                     calendar=("dow", "month"))

        first, second = panel(bottom, promo), panel(late_bottom, late_promo)
        kids = hier.children(parent)
        cfg = tiny_cfg(window=WindowConfig(w=7))
        ref, *nets = [train_nnd(first.slice_rows(0, end), parent, kids, cfg),
                      train_nnd(first, parent, kids, cfg, end=end),
                      train_nnd(second, parent, kids, cfg, end=end)]
        for net in nets:
            assert all(np.array_equal(a, b)
                       for a, b in zip(net.params, ref.params))
            assert np.array_equal(net.history, ref.history)
            assert net.best_epoch == ref.best_epoch
            for field in ("exog_mean", "exog_std", "win_mean", "win_std"):
                assert np.array_equal(getattr(net.scaler, field),
                                      getattr(ref.scaler, field))

    def test_nonfinite_parent_forecast_rejected(self):
        panel = fixed_share_panel(T=60)
        net = train_nnd(panel, "total", panel.hierarchy.bottom_ids,
                        tiny_cfg(), end=50)
        with pytest.raises(DataError):
            disaggregate(net, [np.nan], np.zeros((1, 0)), np.ones(10))

    def test_insufficient_history_rejected(self):
        panel = fixed_share_panel(T=60)
        net = train_nnd(panel, "total", panel.hierarchy.bottom_ids,
                        tiny_cfg(window=WindowConfig(w=10)), end=50)
        with pytest.raises(DataError, match="history"):
            disaggregate(net, [1.0], np.zeros((1, 0)), np.ones(3))


def _disaggregate_stepwise(net, parent_forecast, features, parent_history):
    """One one-row ``predict`` per step, each window cut after appending that
    step's forecast: the loop that batched ``disaggregate`` replaced."""
    hist = list(np.asarray(parent_history, dtype=float).ravel())
    w = net.spec.window
    out = np.empty((len(parent_forecast), net.spec.out_dim))
    for i, value in enumerate(parent_forecast):
        hist.append(value)
        window = np.asarray(hist[-w:])
        out[i] = neuralnet.predict(net, features[i][None, :], window[None, :])[0]
    return out


class TestBatchedDisaggregate:
    # one h-row GEMM may round differently from h one-row products
    RTOL = 1e-12

    @staticmethod
    def promo_panel(T=80):
        """Two children with a promo column each, so both branches run."""
        rng = np.random.default_rng(7)
        hier = make_hierarchy((2,))
        top = 20.0 + 5.0 * np.sin(2 * np.pi * np.arange(T) / 7) + rng.standard_normal(T)
        promo = (rng.random((T, 2)) < 0.3).astype(float)
        exog = {kid: (["promo"], promo[:, [j]]) for j, kid in enumerate(hier.bottom_ids)}
        return panel_from_bottom(hier, np.outer(top, [0.3, 0.7]) * (1 + promo), exog=exog)

    @pytest.mark.parametrize("w", [1, 9])      # w=1 and w=h
    def test_matches_stepwise_loop(self, w):
        n_train, h = 60, 9
        panel = self.promo_panel()
        cfg = tiny_cfg(window=WindowConfig(w=w),
                       train=TrainConfig(max_epochs=3, batch_size=8))
        kids = panel.hierarchy.bottom_ids
        net = train_nnd(panel, "total", kids, cfg, end=n_train)
        parent = panel.series("total")
        feats = feature_matrix(panel, kids)
        args = (net, parent[n_train:n_train + h] * 1.03,
                feats[n_train:n_train + h], parent[:n_train])
        batched = disaggregate(*args)
        stepwise = _disaggregate_stepwise(*args)
        assert batched.shape == stepwise.shape == (h, 2)
        np.testing.assert_allclose(batched, stepwise, rtol=self.RTOL, atol=0)

    def test_history_of_exactly_w_minus_one(self):
        panel = fixed_share_panel(T=60)
        kids = panel.hierarchy.bottom_ids
        net = train_nnd(panel, "total", kids, tiny_cfg(window=WindowConfig(w=4)),
                        end=50)
        feats = feature_matrix(panel, kids)
        args = (net, np.full(5, 20.0), feats[50:55], panel.series("total")[:3])
        np.testing.assert_allclose(disaggregate(*args), _disaggregate_stepwise(*args),
                                   rtol=self.RTOL, atol=0)


class TestRawViolation:
    def test_hand_example(self):
        children = np.array([[1.0, 2.0]])   # sums to 3
        assert raw_violation(children, np.array([2.0])) == pytest.approx(0.5)

    def test_zero_gap(self):
        children = np.array([[1.0, 2.0], [2.0, 2.0]])
        assert raw_violation(children, np.array([3.0, 4.0])) == 0.0


def italian_hierarchy():
    # 1 store, 4 brands, 42/45/10/21 items
    nodes = [("store", None, 0)]
    for b, n_items in enumerate([42, 45, 10, 21]):
        brand = f"b{b}"
        nodes.append((brand, "store", 1))
        nodes.extend((f"{brand}_i{i:03d}", brand, 2) for i in range(n_items))
    return Hierarchy.from_nodes(nodes)


def walmart_hierarchy():
    # total, 3 states, 4/3/3 stores, 3 categories per store
    nodes = [("total", None, 0)]
    for s, n_stores in enumerate([4, 3, 3]):
        state = f"s{s}"
        nodes.append((state, "total", 1))
        for j in range(n_stores):
            store = f"{state}_d{j}"
            nodes.append((store, state, 2))
            nodes.extend((f"{store}_c{c}", store, 3) for c in range(3))
    return Hierarchy.from_nodes(nodes)


def coherent_panel_for(hier, T, seed=0):
    rng = np.random.default_rng(seed)
    m = len(hier.bottom_ids)
    bottom = rng.random((T, m)) + 5.0
    return panel_from_bottom(hier, bottom)


class TestStrategies:
    def test_nnd1_single_model_italian_width(self):
        panel = coherent_panel_for(italian_hierarchy(), 40)
        res = run("nnd1", panel, 30, 5, tiny_cfg(), m_season=7)
        assert len(res.models) == 1
        assert res.models["store"].spec.out_dim == 118
        S = build_summing_matrix(panel.hierarchy)
        assert coherence_violation(S, res.values) <= 1e-9

    def test_nnd2_model_count_italian(self):
        panel = coherent_panel_for(italian_hierarchy(), 40)
        res = run("nnd2", panel, 30, 5, tiny_cfg(), m_season=7)
        assert len(res.models) == 5

    def test_nnd2_model_count_walmart(self):
        panel = coherent_panel_for(walmart_hierarchy(), 40)
        res = run("nnd2", panel, 30, 5, tiny_cfg(), m_season=7)
        assert len(res.models) == 14
        S = build_summing_matrix(panel.hierarchy)
        assert coherence_violation(S, res.values) <= 1e-9

    def test_nnd1_equals_nnd2_on_two_levels(self):
        panel = fixed_share_panel(T=80)
        cfg = tiny_cfg(seed=3)
        r1 = run("nnd1", panel, 60, 7, cfg, m_season=7)
        r2 = run("nnd2", panel, 60, 7, cfg, m_season=7)
        assert np.array_equal(r1.values, r2.values)

    def test_middle_out_zero_reduces_to_nnd2(self):
        panel = coherent_panel_for(make_hierarchy((2, 2)), 60)
        cfg = tiny_cfg(seed=2)
        r_mo = run("mo", panel, 45, 5, cfg, 0, m_season=7)
        r_2 = run("nnd2", panel, 45, 5, cfg, m_season=7)
        assert np.array_equal(r_mo.values, r_2.values)

    def test_nnd2_forecasts_match_loop_kernels(self, monkeypatch):
        # the GEMM kernels sum in another order than the scalar loops;
        # training through either publishes the same forecasts to 1e-9
        panel = coherent_panel_for(make_hierarchy((2, 2)), 60)
        cfg = tiny_cfg(
            window=WindowConfig(w=6),
            train=TrainConfig(max_epochs=4, patience=4, batch_size=8),
            arch=ArchConfig(hidden=4, n_dense=1, filters=3, n_conv=2,
                            kernel_size=4),
            seed=5)
        root = panel.series("total")[40:45] * 1.01
        fast = run("nnd2", panel, 40, 5, cfg, root_forecast=root)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(kernels, "conv1d_same", counted(_conv1d_same_loops))
        monkeypatch.setattr(kernels, "conv1d_same_grad",
                            counted(_conv1d_same_grad_loops))
        slow = run("nnd2", panel, 40, 5, cfg, root_forecast=root)
        assert {_conv1d_same_loops, _conv1d_same_grad_loops} <= set(calls)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-9, atol=0)

    def test_middle_out_level_one_counts_and_coherence(self):
        hier = make_hierarchy((4, 2))
        panel = coherent_panel_for(hier, 70)
        res = run("mo", panel, 55, 5, tiny_cfg(), 1, m_season=7)
        # one disaggregation model per middle-level node
        assert sorted(res.models) == sorted(hier.level_ids(1))
        S = build_summing_matrix(hier)
        assert coherence_violation(S, res.values) <= 1e-9

    def test_middle_out_invalid_level(self):
        panel = coherent_panel_for(make_hierarchy((2, 2)), 60)
        with pytest.raises(DataError, match=r"middle level 2 must lie in \[0, 1\]"):
            run("mo", panel, 45, 5, tiny_cfg(), 2)

    def test_parallel_jobs_deterministic(self):
        panel = coherent_panel_for(make_hierarchy((3, 2)), 60)
        ref, *others = [run("nnd2", panel, 45, 5, tiny_cfg(jobs=jobs), m_season=7)
                        for jobs in (1, 2, 4)]
        for res in others:
            assert np.array_equal(res.values, ref.values)
            assert res.raw_violations == ref.raw_violations
            assert list(res.models) == list(ref.models)
            for parent, net in res.models.items():
                want = ref.models[parent]
                assert all(np.array_equal(a, b)
                           for a, b in zip(net.params, want.params))
                assert np.array_equal(net.history, want.history)
                assert net.best_epoch == want.best_epoch

    def test_horizon_past_panel_rejected(self):
        panel = fixed_share_panel(T=60)
        with pytest.raises(DataError, match="extends past the panel"):
            run("nnd1", panel, 55, 10, tiny_cfg())

    def test_single_level_hierarchy_rejected(self):
        h = Hierarchy.from_nodes([("only", None, 0)])
        ts = np.datetime64("2020-01-01", "s") + np.arange(30) * np.timedelta64(86400, "s")
        from hiercast import SeriesPanel
        panel = SeriesPanel(hierarchy=h, timestamps=ts,
                            values=np.ones((30, 1)))
        for strategy in ("nnd1", "nnd2"):
            with pytest.raises(DataError, match="needs at least 2 levels"):
                run(strategy, panel, 20, 5, tiny_cfg())

    def test_middle_out_alias(self):
        panel = coherent_panel_for(make_hierarchy((2, 2)), 60)
        r_mo = run("mo", panel, 45, 5, tiny_cfg(), 1, m_season=7)
        r_alias = run("middle-out", panel, 45, 5, tiny_cfg(), 1, m_season=7)
        assert np.array_equal(r_mo.values, r_alias.values)

    def test_unknown_strategy_lists_choices(self):
        panel = fixed_share_panel(T=60)
        choices = ", ".join(STRATEGIES)
        with pytest.raises(ConfigError,
                           match=f"'nnd9' \\(choose from {choices}\\)"):
            run("nnd9", panel, 45, 5, tiny_cfg())

    def test_raw_violation_reported_per_parent(self):
        panel = coherent_panel_for(make_hierarchy((2, 2)), 60)
        res = run("nnd2", panel, 45, 5, tiny_cfg(), m_season=7)
        assert set(res.raw_violations) == {"total", "g00", "g01"}
        for v in res.raw_violations.values():
            assert np.isfinite(v) and v >= 0
