import numpy as np
import pytest
from hypothesis import strategies as st

from hiercast import Hierarchy, SeriesPanel, build_summing_matrix
from hiercast import neuralnet


def make_hierarchy(children_per_level):
    """Balanced tree; node ids sort in canonical order by construction."""
    nodes = [("total", None, 0)]
    frontier = ["total"]
    for level, fanout in enumerate(children_per_level, start=1):
        nxt = []
        for parent in frontier:
            prefix = "g" if parent == "total" else parent + "_"
            for j in range(fanout):
                nid = f"{prefix}{j:02d}"
                nodes.append((nid, parent, level))
                nxt.append(nid)
        frontier = nxt
    return Hierarchy.from_nodes(nodes)


@st.composite
def uneven_trees(draw):
    """2-4 levels, 1-4 children per interior node; ids are drawn so that
    canonical order is not the order of creation."""
    nodes, frontier = [(None, 0)], [0]
    for level in range(1, draw(st.integers(1, 3)) + 1):
        nxt = []
        for parent in frontier:
            for _ in range(draw(st.integers(1, 4))):
                nxt.append(len(nodes))
                nodes.append((parent, level))
        frontier = nxt
    names = draw(st.permutations([f"n{i:03d}" for i in range(len(nodes))]))
    return Hierarchy.from_nodes(
        (names[i], None if p is None else names[p], lv)
        for i, (p, lv) in enumerate(nodes)
    )


def panel_from_bottom(hier, bottom, start="2015-01-05", exog=None, calendar=()):
    """Build a coherent panel by aggregating the given bottom matrix."""
    bottom = np.asarray(bottom, dtype=float)
    T = bottom.shape[0]
    S = build_summing_matrix(hier)
    values = bottom @ S.entries.T
    # reorder from S row order (canonical) — already canonical
    ts = (np.datetime64(start, "s")
          + np.arange(T) * np.timedelta64(86400, "s"))
    return SeriesPanel(hierarchy=hier, timestamps=ts, values=values,
                       exog=exog or {}, calendar=calendar)


def numeric_gradients(spec, params, exog, window, targets, alpha, step=1e-5):
    """Central finite differences of the coherence loss for every weight."""
    def loss():
        out = neuralnet.forward(spec, params, exog, window)
        return neuralnet.coherence_loss(targets, out, alpha)

    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up = loss()
            p[idx] = orig - step
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def analytic_gradients(spec, params, exog, window, targets, alpha):
    out, cache = neuralnet._forward_cache(spec, params, exog, window)
    gout = neuralnet.coherence_loss_grad(targets, out, alpha)
    return neuralnet.backward(spec, params, cache, gout)


def max_relative_gradient_error(spec, params, exog, window, targets, alpha):
    analytic = analytic_gradients(spec, params, exog, window, targets, alpha)
    numeric = numeric_gradients(spec, params, exog, window, targets, alpha)
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = max(np.abs(ga).max(), np.abs(gn).max(), 1e-8)
        worst = max(worst, float(np.abs(ga - gn).max() / denom))
    return worst


def random_tiny_network(rng, with_mlp=True, with_cnn=True):
    exog_dim = int(rng.integers(1, 4)) if with_mlp else 0
    window = int(rng.integers(3, 7)) if with_cnn else 0
    spec = neuralnet.NetworkSpec(
        out_dim=int(rng.integers(1, 4)),
        exog_dim=exog_dim,
        window=window,
        mlp_widths=(int(rng.integers(2, 5)),) * int(rng.integers(1, 3)) if with_mlp else (),
        conv_filters=(int(rng.integers(1, 4)),) * int(rng.integers(1, 3)) if with_cnn else (),
        kernel_size=int(rng.integers(1, 4)),
    )
    params = neuralnet.init_params(spec, rng)
    # nudge every weight (incl. zero biases) off the ReLU kink, where the
    # central difference and the subgradient legitimately disagree
    params = [p + 0.1 * rng.standard_normal(p.shape) for p in params]
    B = int(rng.integers(1, 5))
    exog = rng.standard_normal((B, spec.exog_dim))
    window_in = rng.standard_normal((B, spec.window))
    targets = rng.standard_normal((B, spec.out_dim))
    return spec, params, exog, window_in, targets


@pytest.fixture
def rng():
    return np.random.default_rng(0)
