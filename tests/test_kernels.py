import numpy as np
import pytest

from hiercast import kernels
from hiercast.forecasters import (_ETS_GRID, _HOLT_GRID, _HW_GRID, Ets,
                                  _first_min)


# ---------------------------------------------------------------------------
# Scalar-loop convolution: the reference the GEMM kernels must match.
# ---------------------------------------------------------------------------

def _conv1d_same_loops(x, k, bias):
    B, w, c_in = x.shape
    ks, _, c_out = k.shape
    pad = (ks - 1) // 2
    out = np.empty((B, w, c_out))
    for b in range(B):
        for t in range(w):
            for o in range(c_out):
                acc = bias[o]
                for u in range(ks):
                    src = t + u - pad
                    if 0 <= src < w:
                        for i in range(c_in):
                            acc += x[b, src, i] * k[u, i, o]
                out[b, t, o] = acc
    return out


def _conv1d_same_grad_loops(x, k, gout):
    B, w, c_in = x.shape
    ks, _, c_out = k.shape
    pad = (ks - 1) // 2
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    gb = np.zeros(c_out)
    for b in range(B):
        for t in range(w):
            for o in range(c_out):
                g = gout[b, t, o]
                gb[o] += g
                for u in range(ks):
                    src = t + u - pad
                    if 0 <= src < w:
                        for i in range(c_in):
                            gk[u, i, o] += x[b, src, i] * g
                            gx[b, src, i] += k[u, i, o] * g
    return gx, gk, gb


# ---------------------------------------------------------------------------
# One-combination exponential-smoothing loops: the reference the grid
# kernels must match bit for bit.
# ---------------------------------------------------------------------------

def _ses_fit_py(y, alpha):
    level = y[0]
    sse = 0.0
    for t in range(1, y.shape[0]):
        e = y[t] - level
        sse += e * e
        level += alpha * e
    return level, sse


def _holt_fit_py(y, alpha, beta):
    level = y[0]
    trend = y[1] - y[0]
    sse = 0.0
    for t in range(1, y.shape[0]):
        f = level + trend
        e = y[t] - f
        sse += e * e
        new_level = alpha * y[t] + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return level, trend, sse


def _hw_add_fit_py(y, m, alpha, beta, gamma):
    T = y.shape[0]
    level = 0.0
    nxt = 0.0
    for i in range(m):
        level += y[i]
        nxt += y[m + i]
    level /= m
    nxt /= m
    trend = (nxt - level) / m
    season = np.empty(m)
    for i in range(m):
        season[i] = y[i] - level
    sse = 0.0
    for t in range(m, T):
        s_old = season[t % m]
        f = level + trend + s_old
        e = y[t] - f
        sse += e * e
        new_level = alpha * (y[t] - s_old) + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        season[t % m] = gamma * (y[t] - new_level) + (1.0 - gamma) * s_old
        level = new_level
    return level, trend, season, sse


def _strict_less_pick(fits):
    """Index of the fit a scan keeps when it replaces the best only on a
    strictly smaller SSE (the last element of each fit)."""
    best = None
    for k, fit in enumerate(fits):
        if best is None or fit[-1] < best[0]:
            best = (fit[-1], k)
    return best[1]


class TestConvAgreement:
    """The GEMM kernels against the scalar loops over a shape grid that
    includes kernels longer than the window (taps wholly in the padding)."""

    C_OUT = 3

    def _cases(self, rng):
        for B in (1, 32):
            for w in (1, 2, 3, 14, 30):
                for c_in in (1, 16):
                    for ks in (1, 2, 3, 4, 8, 16):
                        x = rng.standard_normal((B, w, c_in))
                        k = rng.standard_normal((ks, c_in, self.C_OUT))
                        yield x, k

    def test_vectorized_matches_loops(self, rng):
        for x, k in self._cases(rng):
            bias = rng.standard_normal(self.C_OUT)
            assert np.allclose(kernels.conv1d_same(x, k, bias),
                               _conv1d_same_loops(x, k, bias), atol=1e-12)

    def test_grad_vectorized_matches_loops(self, rng):
        for x, k in self._cases(rng):
            g = rng.standard_normal(x.shape[:2] + (self.C_OUT,))
            got = kernels.conv1d_same_grad(x, k, g)
            want = _conv1d_same_grad_loops(x, k, g)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.allclose(a, b, atol=1e-12)

    def test_non_contiguous_inputs(self, rng):
        x = rng.standard_normal((4, 10, 6))[:, :, ::2]
        k = rng.standard_normal((4, 3, 5))
        g = rng.standard_normal((4, 10, 10))[:, :, ::2]
        bias = rng.standard_normal(5)
        assert np.allclose(kernels.conv1d_same(x, k, bias),
                           _conv1d_same_loops(x, k, bias), atol=1e-12)
        for a, b in zip(kernels.conv1d_same_grad(x, k, g),
                        _conv1d_same_grad_loops(x, k, g)):
            assert np.allclose(a, b, atol=1e-12)


class TestPadConvention:
    def test_same_length_all_kernel_sizes(self, rng):
        x = rng.standard_normal((2, 9, 1))
        for ks in (1, 2, 3, 4, 5, 8):
            k = rng.standard_normal((ks, 1, 1))
            out = kernels.conv1d_same(x, k, np.zeros(1))
            assert out.shape == (2, 9, 1)

    def test_even_kernel_identity_tap(self):
        # left pad for ks=2 is 0, so tap u=0 reads the current step
        x = np.arange(6.0).reshape(1, 6, 1)
        k = np.array([[[1.0]], [[0.0]]])
        out = kernels.conv1d_same(x, k, np.zeros(1))
        assert np.array_equal(out[0, :, 0], x[0, :, 0])

    def test_even_kernel_forward_tap_zero_padded_at_edge(self):
        x = np.arange(6.0).reshape(1, 6, 1)
        k = np.array([[[0.0]], [[1.0]]])
        out = kernels.conv1d_same(x, k, np.zeros(1))
        assert np.array_equal(out[0, :5, 0], x[0, 1:, 0])
        assert out[0, 5, 0] == 0.0

    def test_odd_kernel_center_tap_identity(self):
        x = np.arange(5.0).reshape(1, 5, 1)
        k = np.array([[[0.0]], [[1.0]], [[0.0]]])
        out = kernels.conv1d_same(x, k, np.zeros(1))
        assert np.array_equal(out, x)


class TestSmoothingKernels:
    def test_ses_backend_matches_python(self, rng):
        y = rng.standard_normal(200)
        alphas = np.array([0.1, 0.5, 1.0])
        la, sa = kernels.ses_fit(y, alphas)
        for k, alpha in enumerate(alphas):
            lb, sb = _ses_fit_py(y, alpha)
            assert la[k] == pytest.approx(lb, rel=1e-12)
            assert sa[k] == pytest.approx(sb, rel=1e-12)

    def test_holt_backend_matches_python(self, rng):
        y = np.cumsum(rng.standard_normal(200)) + np.arange(200) * 0.1
        la, ta, sa = kernels.holt_fit(y, [0.3], [0.2])
        lb, tb, sb = _holt_fit_py(y, 0.3, 0.2)
        assert la[0] == pytest.approx(lb, rel=1e-12)
        assert ta[0] == pytest.approx(tb, rel=1e-12)
        assert sa[0] == pytest.approx(sb, rel=1e-12)

    def test_hw_backend_matches_python(self, rng):
        y = 10 + np.tile([1.0, -1.0, 0.5, -0.5], 50) + rng.standard_normal(200) * 0.1
        la, ta, sea_a, sa = kernels.hw_add_fit(y, 4, [0.3], [0.1], [0.2])
        lb, tb, sea_b, sb = _hw_add_fit_py(y, 4, 0.3, 0.1, 0.2)
        assert la[0] == pytest.approx(lb, rel=1e-12)
        assert ta[0] == pytest.approx(tb, rel=1e-12)
        assert np.allclose(sea_a[:, 0], sea_b, atol=1e-12)
        assert sa[0] == pytest.approx(sb, rel=1e-12)

    def test_ses_hand_recursion(self):
        # level_1 = 1; e = 3-1 = 2; sse = 4; level = 1 + 0.5*2 = 2
        level, sse = kernels.ses_fit(np.array([1.0, 3.0]), [0.5])
        assert level[0] == 2.0
        assert sse[0] == 4.0

    def test_scalar_parameters_broadcast_to_one_combination(self, rng):
        y = rng.standard_normal(30)
        level, trend, season, sse = kernels.hw_add_fit(y, 3, 0.3, 0.2, 0.1)
        assert level.shape == trend.shape == sse.shape == (1,)
        assert season.shape == (3, 1)


def _random_series(rng, T, m):
    t = np.arange(T)
    return (rng.uniform(-50, 50) + rng.uniform(-1, 1) * t
            + rng.uniform(0, 10) * np.sin(2 * np.pi * t / m)
            + rng.standard_normal(T).cumsum())


class TestGridMatchesScalarLoops:
    """Every combination of the grid kernels equals the one-combination
    loop exactly: same operations in the same order."""

    def test_ses_every_alpha(self, rng):
        for T in (2, 3, int(rng.integers(4, 201)), 200):
            y = _random_series(rng, T, 7)
            level, sse = kernels.ses_fit(y, _ETS_GRID)
            ref = [_ses_fit_py(y, a) for a in _ETS_GRID]
            assert np.array_equal(level, [r[0] for r in ref])
            assert np.array_equal(sse, [r[1] for r in ref])

    def test_holt_every_alpha_beta(self, rng):
        for T in (3, int(rng.integers(4, 201)), 200):
            y = _random_series(rng, T, 7)
            level, trend, sse = kernels.holt_fit(y, *_HOLT_GRID)
            ref = [_holt_fit_py(y, a, b) for a, b in zip(*_HOLT_GRID)]
            for got, want in zip((level, trend, sse), zip(*ref)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 4, 7, 12, 30])
    def test_hw_every_alpha_beta_gamma(self, rng, m):
        for T in (2 * m, int(rng.integers(2 * m, 201))):
            y = _random_series(rng, T, m)
            level, trend, season, sse = kernels.hw_add_fit(y, m, *_HW_GRID)
            ref = [_hw_add_fit_py(y, m, a, b, g) for a, b, g in zip(*_HW_GRID)]
            assert np.array_equal(level, [r[0] for r in ref])
            assert np.array_equal(trend, [r[1] for r in ref])
            assert np.array_equal(season, np.column_stack([r[2] for r in ref]))
            assert np.array_equal(sse, [r[3] for r in ref])


class TestEtsPicksLikeStrictLessLoop:
    def _check(self, y, m):
        for variant, grid, fit_py in (
                ("ses", (_ETS_GRID,), _ses_fit_py),
                ("holt", _HOLT_GRID, _holt_fit_py),
                ("hw", _HW_GRID, lambda y, *p: _hw_add_fit_py(y, m, *p))):
            model = Ets(variant, m_season=m).fit(y)
            fits = [fit_py(y, *p) for p in zip(*grid)]
            k = _strict_less_pick(fits)
            chosen = [model.alpha_, getattr(model, "beta_", None),
                      getattr(model, "gamma_", None)][:len(grid)]
            assert chosen == [g[k] for g in grid]
            assert np.array_equal(model.level_, fits[k][0], equal_nan=True)
            if variant == "hw":
                assert np.array_equal(model.season_, fits[k][2], equal_nan=True)
        return model

    def test_random_series(self, rng):
        for m in (2, 7, 12):
            self._check(_random_series(rng, int(rng.integers(2 * m, 121)), m), m)

    def test_constant_series_ties_pick_first_combination(self):
        model = self._check(np.full(40, 5.0), 4)
        assert (model.alpha_, model.beta_, model.gamma_) == (0.1, 0.1, 0.1)

    @pytest.mark.parametrize("scale", [1e153, 1e160, 4e307])
    def test_overflowing_series_with_inf_and_nan_sse(self, scale):
        # 1e153: some SSEs overflow to inf; 1e160: all do; 4e307: the state
        # overflows too, so inf - inf leaves NaN SSEs (all of them for HW,
        # some for Holt)
        y = scale * (1.0 + np.random.default_rng(0).standard_normal(60))
        with np.errstate(over="ignore", invalid="ignore"):
            sse = kernels.hw_add_fit(y, 4, *_HW_GRID)[3]
            assert not np.isfinite(sse).all()
            self._check(y, 4)

    def test_first_min_matches_strict_less_scan(self, rng):
        cases = [[np.nan, 1.0, 0.0], [3.0, np.nan, 1.0, 1.0],
                 [np.inf, np.nan, np.inf], [2.0, np.inf, np.nan, 2.0]]
        for _ in range(50):
            sse = rng.choice([0.0, 1.0, 2.0, np.inf, np.nan], size=8)
            cases.append(list(sse))
        for sse in cases:
            assert _first_min(np.array(sse)) == _strict_less_pick([(s,) for s in sse])
