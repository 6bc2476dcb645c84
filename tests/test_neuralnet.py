import copy
import struct

import numpy as np
import pytest

from hiercast import ConfigError, NumericError
from hiercast import neuralnet
from hiercast.neuralnet import (NetworkSpec, TrainConfig, adam_init,
                                adam_step, coherence_loss,
                                coherence_loss_grad, forward, grid_search,
                                init_params, load_network, save_network,
                                spec_grid, train)

from conftest import max_relative_gradient_error, random_tiny_network


class TestForward:
    def test_zero_weights_yield_bias(self):
        spec = NetworkSpec(out_dim=3, exog_dim=2, window=0,
                           mlp_widths=(4,), conv_filters=())
        params = [np.zeros((2, 4)), np.zeros(4), np.zeros((4, 3)),
                  np.array([1.0, -2.0, 0.5])]
        out = forward(spec, params, np.array([[5.0, -1.0]]), np.zeros((1, 0)))
        assert np.allclose(out[0], [1.0, -2.0, 0.5])

    def test_single_dense_relu_hand_computed(self):
        spec = NetworkSpec(out_dim=1, exog_dim=2, window=0,
                           mlp_widths=(2,), conv_filters=())
        params = [np.eye(2), np.zeros(2), np.array([[1.0], [1.0]]),
                  np.zeros(1)]
        # relu([3, -4]) = [3, 0] -> head sums -> 3
        out = forward(spec, params, np.array([[3.0, -4.0]]), np.zeros((1, 0)))
        assert out[0, 0] == pytest.approx(3.0)

    def test_shift_kernel_reproduces_shifted_window(self):
        from hiercast import kernels
        x = np.arange(1.0, 7.0)[None, :, None]
        k = np.array([1.0, 0.0, 0.0])[:, None, None]   # left pad is 1
        out = kernels.conv1d_same(np.ascontiguousarray(x), k, np.zeros(1))
        assert np.allclose(out[0, :, 0], [0, 1, 2, 3, 4, 5])

    def test_same_padding_preserves_length(self, rng):
        for ks in (1, 2, 3, 4, 5, 8):
            spec = NetworkSpec(out_dim=1, exog_dim=0, window=10,
                               mlp_widths=(), conv_filters=(3, 3),
                               kernel_size=ks)
            params = init_params(spec, rng)
            out = forward(spec, params, np.zeros((2, 0)),
                          rng.standard_normal((2, 10)))
            assert out.shape == (2, 1)

    def test_forward_equals_caching_pass(self, rng):
        for _ in range(5):
            spec, params, exog, window, _ = random_tiny_network(rng)
            out, cache = neuralnet._forward_cache(spec, params, exog, window)
            assert cache is not None
            assert np.array_equal(forward(spec, params, exog, window), out)
            _, no_cache = neuralnet._forward_cache(spec, params, exog, window,
                                                   keep=False)
            assert no_cache is None

    def test_shape_mismatch_rejected(self, rng):
        spec = NetworkSpec(out_dim=1, exog_dim=3, window=0,
                           mlp_widths=(2,), conv_filters=())
        params = init_params(spec, rng)
        with pytest.raises(ConfigError):
            forward(spec, params, np.zeros((1, 2)), np.zeros((1, 0)))


class TestCoherenceLoss:
    def test_perfect_fit_is_zero(self, rng):
        Y = rng.standard_normal((4, 3))
        assert coherence_loss(Y, Y, 0.5) == 0.0

    def test_hand_value_both_terms(self):
        assert coherence_loss([[1.0, 2.0]], [[0.0, 0.0]], 0.5) == pytest.approx(7.0)

    def test_hand_value_partial_fit(self):
        assert coherence_loss([[1.0, 2.0]], [[1.0, 0.0]], 0.5) == pytest.approx(4.0)

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(ConfigError):
            coherence_loss([[1.0]], [[1.0]], 1.0)

    def test_small_loss_implies_small_gap(self, rng):
        for _ in range(20):
            Y = rng.standard_normal((3, 4))
            Y_hat = Y + rng.standard_normal((3, 4)) * 1e-9
            if coherence_loss(Y, Y_hat, 0.5) < 1e-12:
                assert np.abs(Y_hat - Y).max() < 1e-5

    def test_grad_matches_finite_difference(self, rng):
        Y = rng.standard_normal((3, 4))
        Y_hat = rng.standard_normal((3, 4))
        g = coherence_loss_grad(Y, Y_hat, 0.3)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                up = Y_hat.copy(); up[i, j] += eps
                dn = Y_hat.copy(); dn[i, j] -= eps
                num = (coherence_loss(Y, up, 0.3) - coherence_loss(Y, dn, 0.3)) / (2 * eps)
                assert g[i, j] == pytest.approx(num, abs=1e-6)


class TestBackward:
    def test_gradient_check_random_tiny_nets(self, rng):
        for _ in range(5):
            spec, params, exog, window, targets = random_tiny_network(rng)
            err = max_relative_gradient_error(spec, params, exog, window,
                                              targets, 0.5)
            assert err < 1e-4

    def test_gradient_check_single_branch_nets(self, rng):
        for with_mlp, with_cnn in ((True, False), (False, True)):
            spec, params, exog, window, targets = random_tiny_network(
                rng, with_mlp=with_mlp, with_cnn=with_cnn
            )
            err = max_relative_gradient_error(spec, params, exog, window,
                                              targets, 0.5)
            assert err < 1e-4

    def test_zero_gradient_at_perfect_fit(self, rng):
        spec, params, exog, window, _ = random_tiny_network(rng)
        out, cache = neuralnet._forward_cache(spec, params, exog, window)
        gout = coherence_loss_grad(out, out, 0.5)
        grads = neuralnet.backward(spec, params, cache, gout)
        for g in grads:
            assert np.abs(g).max() == 0.0

    def test_alpha_gradient_linearity(self, rng):
        spec, params, exog, window, targets = random_tiny_network(rng)
        out, cache = neuralnet._forward_cache(spec, params, exog, window)

        def grads_for(alpha):
            gout = coherence_loss_grad(targets, out, alpha)
            return neuralnet.backward(spec, params, cache, gout)

        mixed = grads_for(0.5)
        fit_only = grads_for(0.0)     # pure squared-error term
        sum_only = grads_for(1.0)     # pure row-sum term
        for gm, gf, gs in zip(mixed, fit_only, sum_only):
            assert np.allclose(gm, 0.5 * gf + 0.5 * gs, atol=1e-12)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = [np.array([1.0, -1.0])]
        grads = [np.array([10.0, -0.5])]
        state = adam_init(params)
        adam_step(params, grads, state, lr=0.1)
        assert params[0][0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        assert params[0][1] == pytest.approx(-1.0 + 0.1, abs=1e-6)

    def test_zero_gradient_no_change(self):
        params = [np.array([2.0])]
        state = adam_init(params)
        adam_step(params, [np.zeros(1)], state, lr=0.1)
        assert params[0][0] == 2.0

    def test_two_steps_match_hand_recursion(self):
        g = 3.0
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        w = 1.0
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        params = [np.array([1.0])]
        state = adam_init(params)
        for _ in range(2):
            adam_step(params, [np.array([g])], state, lr=lr)
        assert params[0][0] == pytest.approx(w, abs=1e-12)


def _linear_dataset(rng, n=128, d=3, out=2):
    X = rng.standard_normal((n, d))
    A = rng.standard_normal((d, out))
    Y = X @ A
    return (X, np.zeros((n, 0)), Y)


class TestTrain:
    def _spec(self, d=3, out=2):
        return NetworkSpec(out_dim=out, exog_dim=d, window=0,
                           mlp_widths=(16,), conv_filters=())

    def test_realizable_linear_target(self, rng):
        data = _linear_dataset(rng)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=600, patience=80, seed=0)
        net = train(self._spec(), data, cfg)
        final = neuralnet.coherence_loss(
            data[2], neuralnet.predict(net, data[0], data[1]), cfg.alpha
        )
        assert final < 1e-3

    def test_patience_zero_stops_at_first_non_improvement(self, rng):
        data = _linear_dataset(rng, n=64)
        cfg = TrainConfig(learning_rate=0.5, max_epochs=200, patience=0, seed=1)
        net = train(self._spec(), data, cfg)
        # large lr makes validation loss bounce; training must stop at the
        # first epoch whose validation loss fails to improve
        val = [v for _, v in net.history]
        worse = [i for i in range(1, len(val)) if val[i] >= min(val[:i])]
        assert worse, "expected at least one non-improving epoch"
        assert len(val) == worse[0] + 1

    def test_seed_determinism(self, rng):
        data = _linear_dataset(rng, n=64)
        cfg = TrainConfig(max_epochs=10, seed=3)
        net1 = train(self._spec(), data, cfg)
        net2 = train(self._spec(), data, cfg)
        for p1, p2 in zip(net1.params, net2.params):
            assert np.array_equal(p1, p2)

    def test_monotone_training_loss_full_batch(self, rng):
        data = _linear_dataset(rng, n=40)
        cfg = TrainConfig(learning_rate=0.001, batch_size=64, max_epochs=50,
                          patience=50, validation_fraction=0.0, seed=0)
        net = train(self._spec(), data, cfg)
        losses = [t for t, _ in net.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_divergence_reports_epoch(self, rng):
        data = _linear_dataset(rng, n=32)
        X = data[0] * 1e150   # guaranteed overflow in the first epochs
        with pytest.raises(NumericError, match="epoch"):
            cfg = TrainConfig(learning_rate=1e100, max_epochs=5, seed=0,
                              batch_size=8)
            train(self._spec(), (X, data[1], data[2] * 1e150), cfg)


class TestGridSearch:
    def test_single_cell(self, rng):
        data = _linear_dataset(rng, n=48)
        spec = NetworkSpec(out_dim=2, exog_dim=3, window=0,
                           mlp_widths=(4,), conv_filters=())
        cfg = TrainConfig(max_epochs=3, seed=0)
        best_spec, net = grid_search([spec], data, cfg)
        assert best_spec == spec
        assert net.history

    def test_planted_optimum_with_stub_trainer(self, monkeypatch):
        specs = spec_grid(out_dim=1, exog_dim=2, window=8)
        planted = specs[13]

        def stub_trainer(spec, dataset, config):
            loss = 0.0 if spec == planted else 1.0
            return neuralnet.TrainedNetwork(
                spec=spec, params=[], scaler=neuralnet.Scaler(
                    exog_mean=np.zeros(0), exog_std=np.ones(0)),
                history=[(loss, loss)], best_epoch=0,
            )

        monkeypatch.setattr(neuralnet, "train", stub_trainer)
        best_spec, _ = grid_search(specs, None, None)
        assert best_spec == planted

    def test_full_grid_has_27_cells(self):
        specs = spec_grid(out_dim=5, exog_dim=4, window=30)
        assert len(specs) == 27
        combos = {(s.conv_filters[0], s.kernel_size, s.mlp_widths[0])
                  for s in specs}
        assert len(combos) == 27
        assert all(len(s.conv_filters) == 6 and len(s.mlp_widths) == 3
                   for s in specs)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search([], None, None)


ROUND_TRIP_SPECS = {
    "mlp": dict(exog_dim=3, window=0, mlp_widths=(5,), conv_filters=()),
    "cnn": dict(exog_dim=0, window=6, mlp_widths=(), conv_filters=(2, 3),
                kernel_size=3),
    "both": dict(exog_dim=3, window=6, mlp_widths=(5, 4), conv_filters=(2,),
                 kernel_size=2),
}


def _hand_network():
    """A two-branch network with small fixed weights, no training."""
    return neuralnet.TrainedNetwork(
        spec=NetworkSpec(out_dim=2, exog_dim=1, window=2, mlp_widths=(1,),
                         conv_filters=(1,), kernel_size=2),
        params=[np.array([[2.0]]), np.array([0.5]),
                np.array([[[1.0]], [[-3.0]]]), np.array([0.0]),
                np.array([[1.0, -1.0], [0.5, 0.25], [2.0, 4.0]]),
                np.array([0.125, -0.125])],
        scaler=neuralnet.Scaler(exog_mean=np.array([1.0]),
                                exog_std=np.array([2.0]),
                                win_mean=3.0, win_std=0.5),
        history=[(1.5, 2.5)], best_epoch=0,
    )


class TestSerialization:
    @pytest.mark.parametrize("branches", sorted(ROUND_TRIP_SPECS))
    def test_round_trip(self, tmp_path, rng, branches):
        kw = ROUND_TRIP_SPECS[branches]
        exog, _, targets = _linear_dataset(rng, n=48)
        exog = exog[:, :kw["exog_dim"]]
        windows = rng.standard_normal((48, kw["window"]))
        spec = NetworkSpec(out_dim=2, **kw)
        net = train(spec, (exog, windows, targets),
                    TrainConfig(max_epochs=5, seed=0))
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.spec == net.spec
        assert loaded.best_epoch == net.best_epoch
        for p1, p2 in zip(net.params, loaded.params):
            assert np.array_equal(p1, p2)
        probe = (rng.standard_normal((4, kw["exog_dim"])),
                 rng.standard_normal((4, kw["window"])))
        assert np.array_equal(neuralnet.predict(net, *probe),
                              neuralnet.predict(loaded, *probe))
        save_network(loaded, tmp_path / "again.net")
        assert (tmp_path / "again.net").read_bytes() == path.read_bytes()

    def test_file_bytes_pinned(self, tmp_path):
        path = tmp_path / "hand.net"
        save_network(_hand_network(), path)
        header = (
            b'{"best_epoch":0,"history":[[1.5,2.5]],'
            b'"scaler":{"exog_mean":[1.0],"exog_std":[2.0],'
            b'"win_mean":3.0,"win_std":0.5},'
            b'"shapes":[[1,1],[1],[2,1,1],[1],[3,2],[2]],'
            b'"spec":{"conv_filters":[1],"exog_dim":1,"kernel_size":2,'
            b'"mlp_widths":[1],"out_dim":2,"window":2}}'
        )
        weights = struct.pack("<13d", 2.0, 0.5, 1.0, -3.0, 0.0, 1.0, -1.0,
                              0.5, 0.25, 2.0, 4.0, 0.125, -0.125)
        assert path.read_bytes() == (b"HIERCAST-NET-1\n"
                                     + struct.pack("<Q", len(header))
                                     + header + weights)

    def test_header_not_matching_weights_rejected(self, tmp_path):
        path = tmp_path / "hand.net"
        save_network(_hand_network(), path)
        raw = path.read_bytes()
        assert raw.count(b'"out_dim":2') == 1
        path.write_bytes(raw.replace(b'"out_dim":2', b'"out_dim":3'))
        with pytest.raises(ConfigError, match="hand.net"):
            load_network(path)

    def test_truncated_weights_rejected(self, tmp_path):
        path = tmp_path / "hand.net"
        save_network(_hand_network(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="hand.net"):
            load_network(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.net"
        path.write_bytes(b"not a network")
        with pytest.raises(ConfigError):
            load_network(path)

    @pytest.mark.parametrize("old,new", [(b'"exog_mean":[1.0]', b'"exog_mean":[1,2]'),
                                         (b'"exog_std":[2.0]', b'"exog_std":[2,3]')],
                             ids=["exog_mean", "exog_std"])
    def test_scaler_not_matching_spec_rejected(self, tmp_path, old, new):
        # two scaler entries for exog_dim 1; same length keeps the header size
        path = tmp_path / "hand.net"
        save_network(_hand_network(), path)
        raw = path.read_bytes()
        assert raw.count(old) == 1 and len(old) == len(new)
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(ConfigError, match="hand.net"):
            load_network(path)


def _train_per_array(spec, dataset, config):
    """Training with one Adam update per weight array, a deep copy per best
    epoch and a full training-split loss pass per epoch: the loop that the
    flat-buffer ``train`` replaced, kept as its oracle.  Also returns each
    epoch's minibatch losses."""
    exog, windows, targets = (np.asarray(a, dtype=float) for a in dataset)
    N = targets.shape[0]
    n_val = int(N * config.validation_fraction)
    n_train = N - n_val
    scaler = neuralnet.Scaler.fit(exog[:n_train], windows[:n_train])
    ex_s, win_s = scaler.transform(exog, windows)
    rng = np.random.default_rng(config.seed)
    params = init_params(spec, rng)
    state = adam_init(params)

    def full_loss(lo, hi):
        out, _ = neuralnet._forward_cache(spec, params, ex_s[lo:hi], win_s[lo:hi])
        return coherence_loss(targets[lo:hi], out, config.alpha)

    best_loss, best_params, best_epoch, bad = np.inf, copy.deepcopy(params), 0, 0
    history, batch_losses = [], []
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train)
        batch_losses.append([])
        for start in range(0, n_train, config.batch_size):
            sel = order[start:start + config.batch_size]
            out, cache = neuralnet._forward_cache(spec, params, ex_s[sel], win_s[sel])
            batch_losses[-1].append(coherence_loss(targets[sel], out, config.alpha))
            gout = neuralnet.coherence_loss_grad(targets[sel], out, config.alpha)
            adam_step(params, neuralnet.backward(spec, params, cache, gout), state,
                      config.learning_rate)
        train_loss = full_loss(0, n_train)
        val_loss = full_loss(n_train, N) if n_val else train_loss
        history.append((train_loss, val_loss))
        if val_loss < best_loss:
            best_loss, best_params, best_epoch, bad = val_loss, copy.deepcopy(params), epoch, 0
        else:
            bad += 1
            if bad > config.patience:
                break
    return best_params, history, best_epoch, batch_losses


FLAT_SPECS = {
    "mlp": dict(exog_dim=3, window=0, mlp_widths=(6, 5), conv_filters=()),
    "both": dict(exog_dim=3, window=8, mlp_widths=(5,), conv_filters=(3, 2),
                 kernel_size=4),
}


class TestFlatBuffer:
    def test_adam_on_flat_equals_per_array_steps(self, rng):
        shapes = [(3, 4), (4,), (2, 1, 5), (5,), (7, 2), (2,)]
        per_array = [rng.standard_normal(s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in per_array])
        views = neuralnet._views(flat, shapes)
        s_flat, s_arr = adam_init([flat]), adam_init(per_array)
        for _ in range(6):
            grads = [rng.standard_normal(s) for s in shapes]
            adam_step([flat], [np.concatenate([g.ravel() for g in grads])], s_flat, lr=0.01)
            adam_step(per_array, grads, s_arr, lr=0.01)
        for v, p in zip(views, per_array):
            assert np.shares_memory(v, flat)
            assert np.array_equal(v, p)

    @pytest.mark.parametrize("branches", sorted(FLAT_SPECS))
    @pytest.mark.parametrize("val_fraction", [0.2, 0.0])
    def test_train_equals_per_array_loop(self, rng, branches, val_fraction):
        kw = FLAT_SPECS[branches]
        exog, _, targets = _linear_dataset(rng, n=70)
        windows = rng.standard_normal((70, kw["window"]))
        spec = NetworkSpec(out_dim=2, **kw)
        cfg = TrainConfig(max_epochs=12, patience=3, batch_size=16,
                          validation_fraction=val_fraction, seed=4)
        net = train(spec, (exog, windows, targets), cfg)
        params, history, best_epoch, batch_losses = _train_per_array(
            spec, (exog, windows, targets), cfg)
        assert net.best_epoch == best_epoch
        assert len(net.params) == len(params)
        for p1, p2 in zip(net.params, params):
            assert np.array_equal(p1, p2)
        assert [v for _, v in net.history] == [v for _, v in history]
        if val_fraction:
            # the train column is the mean of the epoch's minibatch losses
            assert [t for t, _ in net.history] == [np.mean(b) for b in batch_losses]
        else:
            assert net.history == history

    def test_trained_weights_are_views_of_one_vector(self, rng):
        data = _linear_dataset(rng, n=40)
        spec = NetworkSpec(out_dim=2, **FLAT_SPECS["mlp"])
        net = train(spec, data, TrainConfig(max_epochs=2, seed=0))
        flat = net.params[0].base
        assert flat.ndim == 1 and flat.size == sum(p.size for p in net.params)
        assert all(np.shares_memory(p, flat) for p in net.params)

    def test_loaded_weights_are_views_of_one_vector(self, tmp_path):
        path = tmp_path / "hand.net"
        save_network(_hand_network(), path)
        params = load_network(path).params
        flat = params[0].base
        assert flat.flags.writeable and flat.size == 13
        assert all(np.shares_memory(p, flat) for p in params)


# the shapes of the two callers: NARX (MLP only, scalar output) and NND
# (MLP and CNN branches, one output per child)
STACK_SPECS = {
    "narx": NetworkSpec(out_dim=1, exog_dim=4, window=0, mlp_widths=(16, 16),
                        conv_filters=()),
    "nnd": NetworkSpec(out_dim=3, exog_dim=3, window=8, mlp_widths=(6, 6),
                       conv_filters=(3, 3), kernel_size=4),
}


def _stack_datasets(rng, spec, k, n=60):
    """k datasets of one shape; dataset i has its own scale, so the models
    stop at different epochs."""
    return [(rng.standard_normal((n, spec.exog_dim)),
             rng.standard_normal((n, spec.window)),
             rng.standard_normal((n, spec.out_dim)) * (1.0 + i))
            for i in range(k)]


def _assert_same_network(a, b):
    assert a.best_epoch == b.best_epoch
    assert [t for t, _ in a.history] == [t for t, _ in b.history]
    assert [v for _, v in a.history] == [v for _, v in b.history]
    assert len(a.params) == len(b.params)
    for p, q in zip(a.params, b.params):
        assert np.array_equal(p, q)


class TestTrainMany:
    CFG = dict(learning_rate=0.01, batch_size=16, max_epochs=40, patience=2)

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_equals_separate_training_bit_for_bit(self, rng, name):
        spec = STACK_SPECS[name]
        data = _stack_datasets(rng, spec, 4)
        cfgs = [TrainConfig(seed=10 + i, **self.CFG) for i in range(4)]
        stacked = neuralnet.train_many(spec, data, cfgs)
        assert len({len(net.history) for net in stacked}) > 1, \
            "the models should stop at different epochs"
        for net, d, cfg in zip(stacked, data, cfgs):
            _assert_same_network(net, train(spec, d, cfg))

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_diverging_model_leaves_the_others_unchanged(self, rng, name):
        spec = STACK_SPECS[name]
        data = _stack_datasets(rng, spec, 3)
        exog, windows, targets = data[1]
        data[1] = (exog, windows, targets * 1e160)    # the loss overflows
        cfgs = [TrainConfig(seed=i, **self.CFG) for i in range(3)]
        stacked = neuralnet.train_many(spec, data, cfgs)
        with pytest.raises(NumericError) as alone:
            train(spec, data[1], cfgs[1])
        assert isinstance(stacked[1], NumericError)
        assert str(stacked[1]) == str(alone.value)
        for i in (0, 2):
            _assert_same_network(stacked[i], train(spec, data[i], cfgs[i]))

    def test_empty_training_split_is_every_entry(self, rng):
        spec = STACK_SPECS["narx"]
        data = _stack_datasets(rng, spec, 2, n=0)
        cfgs = [TrainConfig(seed=i) for i in range(2)]
        entries = neuralnet.train_many(spec, data, cfgs)
        assert [str(e) for e in entries] == [
            "empty training set after validation split"] * 2

    def test_mismatched_rows_are_config_error(self, rng):
        spec = STACK_SPECS["narx"]
        data = [_stack_datasets(rng, spec, 1, n=n)[0] for n in (40, 41)]
        with pytest.raises(ConfigError, match="differ in shape"):
            neuralnet.train_many(spec, data, [TrainConfig(seed=i) for i in range(2)])

    def test_configs_differing_beyond_seed_are_config_error(self, rng):
        spec = STACK_SPECS["narx"]
        data = _stack_datasets(rng, spec, 2)
        cfgs = [TrainConfig(seed=0), TrainConfig(seed=1, patience=3)]
        with pytest.raises(ConfigError, match="only in seed"):
            neuralnet.train_many(spec, data, cfgs)
        with pytest.raises(ConfigError, match="2 datasets for 1 configs"):
            neuralnet.train_many(spec, data, cfgs[:1])
