"""Deterministic generator of small hierarchical datasets with known
ground truth, used by the acceptance suite and the demo pipeline.

Noise enters at the bottom level only and parents are exact sums, so the
generated panel is always coherent.  All randomness comes from numpy's
PCG64 generator seeded from the spec, so output is bit-identical per seed.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError
from .hierarchy import (Hierarchy, SeriesPanel, write_exog, write_hierarchy,
                        write_observations)


@dataclass
class GeneratorSpec:
    children_per_level: tuple = (3, 4)   # fan-out below the root, per level
    T: int = 730
    m_season: int = 7
    base_level: float = 20.0
    seasonal_amplitude: float = 5.0
    trend: float = 0.0
    noise_sigma: float = 0.5             # idiosyncratic bottom noise
    regime: str = "static"               # "static" | "switching"
    promo_prob: float = 0.2
    promo_lift: float = 2.0              # share boost while flagged
    fixed_shares: tuple | None = None    # force identical sibling shares
    seed: int = 0
    start: str = "2015-01-05"            # a Monday

    def __post_init__(self):
        if self.regime not in ("static", "switching"):
            raise ConfigError(f"unknown proportion regime {self.regime!r}")
        if not self.children_per_level or any(c < 1 for c in self.children_per_level):
            raise ConfigError("children_per_level must be positive")
        if self.m_season < 1:
            raise ConfigError(f"m_season must be >= 1, got {self.m_season}")
        for name in ("base_level", "seasonal_amplitude", "trend", "promo_lift"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < math.inf:      # NaN fails too
            raise ConfigError(f"noise_sigma must be finite and >= 0, "
                              f"got {self.noise_sigma}")
        if not 0 <= self.promo_prob <= 1:
            raise ConfigError(f"promo_prob must lie in [0, 1], got {self.promo_prob}")
        try:
            start = np.datetime64(self.start, "s")
        except ValueError:
            start = np.datetime64("NaT")
        if np.isnat(start):
            raise ConfigError(f"start must be a date, got {self.start!r}")
        if self.T < 2 * self.m_season:
            raise ConfigError("T too small for the seasonal period")
        if self.fixed_shares is not None:
            fs = np.asarray(self.fixed_shares, dtype=float)
            if not (np.all(fs >= 0) and abs(fs.sum() - 1.0) <= 1e-9):
                raise ConfigError("fixed_shares must lie on the simplex")


def _node_tree(children_per_level):
    nodes = [("total", None, 0)]
    frontier = ["total"]
    for level, fanout in enumerate(children_per_level, start=1):
        nxt = []
        for parent in frontier:
            prefix = "g" if parent == "total" else parent + "_"
            for j in range(fanout):
                node_id = f"{prefix}{j:02d}"
                nodes.append((node_id, parent, level))
                nxt.append(node_id)
        frontier = nxt
    return nodes


def generate(spec: GeneratorSpec):
    """Returns (Hierarchy, SeriesPanel, truth dict)."""
    hier = Hierarchy.from_nodes(_node_tree(spec.children_per_level))
    rng = np.random.default_rng(spec.seed)
    T = spec.T
    t = np.arange(T)
    top = (spec.base_level + spec.trend * t
           + spec.seasonal_amplitude * np.sin(2 * np.pi * t / spec.m_season))

    # base shares per sibling set, drawn in canonical parent order
    base_shares = {}
    for node_id in hier.node_ids:
        kids = hier.children(node_id)
        if not kids:
            continue
        if spec.fixed_shares is not None:
            if len(spec.fixed_shares) != len(kids):
                raise ConfigError(
                    f"fixed_shares has {len(spec.fixed_shares)} entries but "
                    f"{node_id!r} has {len(kids)} children"
                )
            base_shares[node_id] = np.asarray(spec.fixed_shares, dtype=float)
        else:
            draw = rng.uniform(0.5, 1.5, size=len(kids))
            base_shares[node_id] = draw / draw.sum()

    # promotion flags per bottom node (switching regime only)
    switching = spec.regime == "switching"
    flags = {}
    if switching:
        for node_id in hier.bottom_ids:
            flags[node_id] = (rng.random(T) < spec.promo_prob).astype(float)

    # latent values top-down: share(t) x parent latent
    latent = {hier.root_id: top}
    for node_id in hier.node_ids:
        kids = hier.children(node_id)
        if not kids:
            continue
        base = base_shares[node_id]
        if switching and hier.levels[hier.index(kids[0])] == hier.K - 1:
            weights = np.stack([
                base[j] * (1.0 + spec.promo_lift * flags[c])
                for j, c in enumerate(kids)
            ])                                   # (n_kids, T)
            shares = weights / weights.sum(axis=0)
        else:
            shares = np.repeat(base[:, None], T, axis=1)
        for j, c in enumerate(kids):
            latent[c] = shares[j] * latent[node_id]

    # bottom noise, then exact aggregation upward
    bottom = np.column_stack([latent[n] for n in hier.bottom_ids])
    if spec.noise_sigma > 0:
        for j, node_id in enumerate(hier.bottom_ids):
            bottom[:, j] = bottom[:, j] + spec.noise_sigma * rng.standard_normal(T)

    values = np.zeros((T, hier.M))
    for j, node_id in enumerate(hier.bottom_ids):
        values[:, hier.index(node_id)] = bottom[:, j]
    for level in range(hier.K - 2, -1, -1):
        for node_id in hier.level_ids(level):
            cols = [hier.index(c) for c in hier.children(node_id)]
            values[:, hier.index(node_id)] = values[:, cols].sum(axis=1)

    start = np.datetime64(spec.start, "s")
    timestamps = start + np.arange(T) * np.timedelta64(86400, "s")
    exog = {}
    if switching:
        for node_id in hier.bottom_ids:
            exog[node_id] = (["promo"], flags[node_id][:, None])

    panel = SeriesPanel(hierarchy=hier, timestamps=timestamps, values=values,
                        exog=exog)
    truth = {
        "spec": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in asdict(spec).items()},
        "base_shares": {n: s.tolist() for n, s in base_shares.items()},
        "top_signal": {"base": spec.base_level, "trend": spec.trend,
                       "amplitude": spec.seasonal_amplitude,
                       "period": spec.m_season},
    }
    return hier, panel, truth


def write_dataset(spec: GeneratorSpec, outdir):
    """Emit the standard CSV triplet plus truth.json into a directory."""
    import os

    hier, panel, truth = generate(spec)
    os.makedirs(outdir, exist_ok=True)
    write_hierarchy(hier, os.path.join(outdir, "hierarchy.csv"))
    write_observations(panel, os.path.join(outdir, "observations.csv"))
    if panel.exog:
        write_exog(panel, os.path.join(outdir, "exog.csv"))
    with open(os.path.join(outdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return hier, panel, truth
