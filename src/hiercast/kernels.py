"""Hot numeric kernels, numpy only.

The 1-D convolution lowers each layer to one matrix product over a column
matrix (im2col; Chellapilla et al., 2006), and its gradient to two more.
The exponential-smoothing kernels fit a whole parameter grid in one pass
over time.

``python3 hcbench/run.py --trace 1`` times them at the benchmark workloads'
shapes (``conv1d_same.*``, ``conv1d_same_grad.*``, ``hw_add_fit.*``).
"""

import numpy as np

# The one kernel implementation; benchmark records read it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# 1-D convolution, stride 1, zero "same" padding.
#
# x: (B, w, c_in), k: (ks, c_in, c_out), bias: (c_out,) -> (B, w, c_out)
# Left pad is (ks-1)//2, the remainder goes to the right (matters for even
# kernel sizes, which the default grids use).
# ---------------------------------------------------------------------------

def _columns(x, ks, pad):
    """(B*w, ks*c_in) column matrix: row (b, t) holds x[b, t-pad+u, :] for
    u = 0..ks-1, zero where t-pad+u falls outside [0, w)."""
    B, w, c_in = x.shape
    xp = np.zeros((B, w + ks - 1, c_in))
    xp[:, pad:pad + w] = x
    # overlapping (B, w, ks, c_in) view: tap u of step t is padded row t+u.
    # The ndarray constructor checks the strides against xp's buffer and
    # costs a fraction of sliding_window_view per call.
    s_b, s_t, s_c = xp.strides
    taps = np.ndarray((B, w, ks, c_in), xp.dtype, xp, 0, (s_b, s_t, s_t, s_c))
    return taps.reshape(B * w, ks * c_in)


def _conv(x, k, pad):
    B, w, _ = x.shape
    ks, c_in, c_out = k.shape
    return (_columns(x, ks, pad) @ k.reshape(ks * c_in, c_out)).reshape(B, w, c_out)


def conv1d_same(x, k, bias):
    """'Same' convolution of x with k plus bias, as one GEMM."""
    out = _conv(x, k, (k.shape[0] - 1) // 2)
    out += bias
    return out


def conv1d_same_grad(x, k, gout):
    """Gradients (gx, gk, gb) of conv1d_same given dLoss/dout.

    gk is the column matrix transposed times gout.  gx is the transposed
    convolution: gout convolved with the tap-flipped, channel-swapped
    kernel, padded on the other side.
    """
    ks, _, c_out = k.shape
    pad = (ks - 1) // 2
    gk = (_columns(x, ks, pad).T @ gout.reshape(-1, c_out)).reshape(k.shape)
    gx = _conv(gout, k[::-1].transpose(0, 2, 1), ks - 1 - pad)
    return gx, gk, gout.sum(axis=(0, 1))


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

