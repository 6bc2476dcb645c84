"""Hot numeric kernels.

The 1-D convolution has a numba backend (``@njit`` loops) and a numpy
backend (vectorized shifts); ``HIERCAST_NO_NUMBA=1`` set before import, or a
missing numba, selects numpy.  The exponential-smoothing kernels are numpy
only and fit a whole parameter grid in one pass over time.

``benchmarks/bench_kernels.py`` times the kernels.
"""

import os

import numpy as np

_NO_NUMBA = os.environ.get("HIERCAST_NO_NUMBA", "0") not in ("", "0")

if not _NO_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        _NO_NUMBA = True

BACKEND = "numpy" if _NO_NUMBA else "numba"


# ---------------------------------------------------------------------------
# 1-D convolution, stride 1, zero "same" padding.
#
# x: (B, w, c_in), k: (ks, c_in, c_out), bias: (c_out,) -> (B, w, c_out)
# Left pad is (ks-1)//2, the remainder goes to the right (matters for even
# kernel sizes, which the default grids use).
# ---------------------------------------------------------------------------

def _conv1d_same_np(x, k, bias):
    B, w, c_in = x.shape
    ks, _, c_out = k.shape
    pad = (ks - 1) // 2
    out = np.broadcast_to(bias, (B, w, c_out)).copy()
    for u in range(ks):
        off = u - pad
        lo = max(0, -off)
        hi = min(w, w - off)
        if lo >= hi:
            continue
        out[:, lo:hi, :] += x[:, lo + off:hi + off, :] @ k[u]
    return out


def _conv1d_same_grad_np(x, k, gout):
    B, w, c_in = x.shape
    ks, _, c_out = k.shape
    pad = (ks - 1) // 2
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for u in range(ks):
        off = u - pad
        lo = max(0, -off)
        hi = min(w, w - off)
        if lo >= hi:
            continue
        xs = x[:, lo + off:hi + off, :]
        gs = gout[:, lo:hi, :]
        gk[u] = np.einsum("bti,bto->io", xs, gs)
        gx[:, lo + off:hi + off, :] += gs @ k[u].T
    gb = gout.sum(axis=(0, 1))
    return gx, gk, gb


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
# Exponential-smoothing recursions over a parameter grid: the parameters are
# vectors (scalars broadcast) and each returns one final state and one
# in-sample one-step SSE per combination.  Every step repeats the float
# operations of the one-combination loop in order, so results are bit-equal.
# ---------------------------------------------------------------------------

def ses_fit(y, alpha):
    """Simple exponential smoothing -> (level, sse), each of shape (K,)."""
    alpha = np.atleast_1d(alpha)
    level = np.full(alpha.shape, y[0])
    sse = np.zeros(alpha.shape)
    for yt in y[1:].tolist():
        e = yt - level
        sse += e * e
        level += alpha * e
    return level, sse


def holt_fit(y, alpha, beta):
    """Holt's linear trend -> (level, trend, sse), each of shape (K,)."""
    alpha, beta = np.broadcast_arrays(*np.atleast_1d(alpha, beta))
    alpha_c, beta_c = 1.0 - alpha, 1.0 - beta
    level = np.full(alpha.shape, y[0])
    trend = np.full(alpha.shape, y[1] - y[0])
    sse = np.zeros(alpha.shape)
    for yt in y[1:].tolist():
        f = level + trend
        e = yt - f
        sse += e * e
        new_level = alpha * yt + alpha_c * f
        trend = beta * (new_level - level) + beta_c * trend
        level = new_level
    return level, trend, sse


def hw_add_fit(y, m, alpha, beta, gamma):
    """Additive Holt-Winters -> (level, trend, season (m, K), sse)."""
    alpha, beta, gamma = np.broadcast_arrays(*np.atleast_1d(alpha, beta, gamma))
    alpha_c, beta_c, gamma_c = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    # sequential sums: np.sum's pairwise summation rounds differently
    level0 = nxt = 0.0
    for i in range(m):
        level0 += y[i]
        nxt += y[m + i]
    level0 /= m
    level = np.full(alpha.shape, level0)
    trend = np.full(alpha.shape, (nxt / m - level0) / m)
    season = np.repeat((y[:m] - level0)[:, None], alpha.size, axis=1)
    sse = np.zeros(alpha.shape)
    for t, yt in enumerate(y[m:].tolist(), start=m):
        s_old = season[t % m]
        lt = level + trend
        e = yt - (lt + s_old)
        sse += e * e
        new_level = alpha * (yt - s_old) + alpha_c * lt
        trend = beta * (new_level - level) + beta_c * trend
        season[t % m] = gamma * (yt - new_level) + gamma_c * s_old
        level = new_level
    return level, trend, season, sse


if _NO_NUMBA:
    conv1d_same = _conv1d_same_np
    conv1d_same_grad = _conv1d_same_grad_np
else:
    conv1d_same = njit(cache=True)(_conv1d_same_loops)
    conv1d_same_grad = njit(cache=True)(_conv1d_same_grad_loops)
