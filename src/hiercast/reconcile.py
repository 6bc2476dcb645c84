"""Classical coherent-forecast baselines: bottom-up, historical-proportion
top-down (AHP/PHA), forecasted proportions, middle-out, and minimum-trace
reconciliation with shrinkage covariance.  ``reconcile`` runs any of them
by its name in ``METHODS``."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .hierarchy import Hierarchy, SummingMatrix, aggregate


def _check_proportions(p, m):
    """p: one proportion vector (m,) or one per row (H, m)."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != m:
        raise DataError(f"proportion vector has shape {p.shape}, expected ({m},)")
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise DataError("proportions must be nonnegative and sum to one")
    return np.maximum(p, 0.0)


def bottom_up(S: SummingMatrix, bottom_forecasts) -> np.ndarray:
    """Aggregate bottom-level base forecasts to every series."""
    return aggregate(S, np.atleast_2d(np.asarray(bottom_forecasts, dtype=float)))


def proportions_ahp(panel) -> np.ndarray:
    """Average of the per-step historical bottom shares of the total.

    Steps where the total is zero are skipped with a warning.
    """
    h = panel.hierarchy
    total = panel.series(h.root_id)
    bottom = panel.values[:, [h.index(n) for n in h.bottom_ids]]
    keep = total != 0
    if not np.any(keep):
        raise DataError("AHP undefined: top series is zero at every step")
    if not np.all(keep):
        warnings.warn(
            f"AHP skipping {int((~keep).sum())} steps with zero total"
        )
    shares = bottom[keep] / total[keep, None]
    return shares.mean(axis=0)


def proportions_pha(panel) -> np.ndarray:
    """Ratio of the historical bottom averages to the total average."""
    h = panel.hierarchy
    total_mean = panel.series(h.root_id).mean()
    if total_mean == 0:
        raise DataError("PHA undefined: top series has zero mean")
    bottom = panel.values[:, [h.index(n) for n in h.bottom_ids]]
    return bottom.mean(axis=0) / total_mean


def _historical_subtree_proportions(panel, node_id):
    """Bottom proportions within a subtree from historical leaf means."""
    leaves = panel.hierarchy.descendants_at_bottom(node_id)
    means = np.array([panel.series(n).mean() for n in leaves])
    total = means.sum()
    if total == 0:
        raise DataError(
            f"cannot derive middle-out proportions under {node_id!r}: "
            "zero historical mean"
        )
    return means / total


def proportions_fp(base_forecasts, hierarchy: Hierarchy) -> np.ndarray:
    """Per-step proportions (H, m_bottom) from base forecasts, as nested
    sibling shares.

    base_forecasts: (H, M) matrix over all nodes in canonical order.  The
    share of each node is its base forecast divided by the sum over its
    siblings; the bottom proportion is the product of shares along the path
    from level 1 down.  Each row sums to one by construction.
    """
    base = np.atleast_2d(np.asarray(base_forecasts, dtype=float))
    if base.shape[1] != hierarchy.M:
        raise DataError(
            f"base forecasts have {base.shape[1]} columns, expected {hierarchy.M}"
        )
    share = {hierarchy.root_id: np.ones(len(base))}
    for node_id in hierarchy.node_ids:
        kids = hierarchy.children(node_id)
        if not kids:
            continue
        cols = [base[:, hierarchy.index(c)] for c in kids]
        sib_sum = sum(cols)
        zero = np.flatnonzero(sib_sum == 0)
        if zero.size:
            raise NumericError(
                f"FP proportions undefined: children of {node_id!r} have zero "
                f"base-forecast sum at step {zero[0]}"
            )
        for c, col in zip(kids, cols):
            share[c] = share[node_id] * col / sib_sum
    p = np.column_stack([share[n] for n in hierarchy.bottom_ids])
    return _check_proportions(p, p.shape[1])


def apply_topdown(S: SummingMatrix, p, top_forecast) -> np.ndarray:
    """Distribute the top forecast over the bottom via p, one proportion
    vector (m_bottom,) for every step or one per step (H, m_bottom)."""
    p = _check_proportions(p, S.m_bottom)
    top = np.asarray(top_forecast, dtype=float).ravel()
    if p.ndim == 2 and len(p) != len(top):
        raise DataError(f"{len(p)} proportion rows for {len(top)} steps")
    return aggregate(S, top[:, None] * p)


def middle_out(hierarchy: Hierarchy, S: SummingMatrix, middle_level,
               middle_forecasts, proportions) -> np.ndarray:
    """Top-down below the middle level, bottom-up above it.

    middle_forecasts: (H, m_k) base forecasts for the middle-level nodes in
    canonical order; proportions: node_id -> proportion vector over that
    node's bottom descendants (not needed for a node with one leaf).
    """
    if not 0 <= middle_level <= hierarchy.K - 1:
        raise DataError(f"middle level {middle_level} outside hierarchy")
    mids = hierarchy.level_ids(middle_level)
    middle_forecasts = np.atleast_2d(np.asarray(middle_forecasts, dtype=float))
    if middle_forecasts.shape[1] != len(mids):
        raise DataError(
            f"expected {len(mids)} middle-level forecast columns, "
            f"got {middle_forecasts.shape[1]}"
        )
    col_of = {n: j for j, n in enumerate(hierarchy.bottom_ids)}
    bottom = np.zeros((middle_forecasts.shape[0], S.m_bottom))
    for j, node_id in enumerate(mids):
        leaves = hierarchy.descendants_at_bottom(node_id)
        p = proportions[node_id] if len(leaves) > 1 else [1.0]
        p = _check_proportions(p, len(leaves))
        bottom[:, [col_of[n] for n in leaves]] = np.outer(middle_forecasts[:, j], p)
    return aggregate(S, bottom)


# ---------------------------------------------------------------------------
# Minimum-trace reconciliation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorCovariance:
    """Base-forecast error covariance with shrinkage intensity."""

    W: np.ndarray
    lam: float

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DataError("covariance must be square")
        if np.max(np.abs(W - W.T)) > 1e-10:
            raise DataError("covariance must be symmetric")
        np.linalg.cholesky(W)   # raises LinAlgError if not SPD
        object.__setattr__(self, "W", W)


def _correlation_variance(Z):
    """Schafer-Strimmer (2005) variance of each sample correlation of the
    standardized (n, M) matrix Z: n/(n-1)^3 sum_k (w_kij - mean_k w_kij)^2
    with w_kij = z_ki z_kj, expanded as sum_k w^2 - (sum_k w)^2/n so that
    no (n, M, M) tensor is built."""
    n = Z.shape[0]
    Z2 = Z * Z
    ZtZ = Z.T @ Z
    return (n / (n - 1.0) ** 3) * (Z2.T @ Z2 - ZtZ * ZtZ / n)


def shrinkage_covariance(errors, lam=None) -> ErrorCovariance:
    """Shrink the sample covariance of base-forecast errors toward its
    diagonal.  The intensity follows the Schafer-Strimmer closed form on
    standardized errors (clipped to [0, 1]) unless forced via ``lam``.
    A small jitter is added if the result is not positive definite.
    """
    E = np.atleast_2d(np.asarray(errors, dtype=float))
    n, M = E.shape
    if n < 2:
        raise DataError("need at least 2 error rows for a covariance estimate")
    Xc = E - E.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1)
    if lam is None:
        s = np.sqrt(np.diag(cov))
        s = np.where(s > 0, s, 1.0)
        Z = Xc / s
        R = (Z.T @ Z) / (n - 1)
        var_r = _correlation_variance(Z)
        off = ~np.eye(M, dtype=bool)
        denom = float((R[off] ** 2).sum())
        lam = 1.0 if denom == 0 else float(np.clip(var_r[off].sum() / denom, 0.0, 1.0))
    else:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise DataError("shrinkage intensity must lie in [0, 1]")
    W = lam * np.diag(np.diag(cov)) + (1.0 - lam) * cov
    try:
        return ErrorCovariance(W=W, lam=lam)
    except np.linalg.LinAlgError:
        jitter = 1e-8 * np.diag(W).mean() + 1e-12
        return ErrorCovariance(W=W + jitter * np.eye(M), lam=lam)


def mint_reconcile(S: SummingMatrix, base_forecasts, cov: ErrorCovariance) -> np.ndarray:
    """Project base forecasts onto the coherent subspace per forecast step,
    in the constraint form of Wickramasuriya et al. (2019): y~ = y^ -
    W C' (C W C')^-1 C y^, one unknown per aggregate.  C y = 0 says each
    aggregate (first in canonical order) is the sum of its bottom series."""
    base = np.atleast_2d(np.asarray(base_forecasts, dtype=float))
    if base.shape[1] != S.M:
        raise DataError(
            f"base forecasts have {base.shape[1]} columns, expected {S.M}"
        )
    if cov.W.shape[0] != S.M:
        raise DataError("covariance dimension does not match hierarchy size")
    n = S.M - S.m_bottom
    C = np.hstack([np.eye(n), -S.entries[:n]])
    WC = cov.W @ C.T
    bottom = base[:, n:] - (WC[n:] @ np.linalg.solve(C @ WC, C @ base.T)).T
    return aggregate(S, bottom)


# method -> what it reads besides S, the hierarchy and the base forecasts
METHODS = {"bu": (), "ahp": ("history",), "pha": ("history",), "fp": (),
           "mo": ("history", "middle_level"), "mint": ("errors", "shrinkage")}


def reconcile(method, S: SummingMatrix, hierarchy: Hierarchy, base, history,
              middle_level=1, errors=None, shrinkage=None) -> np.ndarray:
    """Coherent (H, M) forecasts from base forecasts (H, M) in canonical
    order by ``method``, a key of ``METHODS``.  history: the panel AHP, PHA
    and middle-out take proportions from; errors: (n, M) base-forecast
    errors for MinT's shrinkage covariance (identity W when None)."""
    if method not in METHODS:
        raise ConfigError(f"unknown reconciliation method {method!r} "
                          f"(choose from {', '.join(METHODS)})")
    base = np.atleast_2d(np.asarray(base, dtype=float))

    def cols(ids):
        return base[:, [hierarchy.index(n) for n in ids]]

    if method == "bu":
        return bottom_up(S, cols(hierarchy.bottom_ids))
    if method == "mo":
        mids = hierarchy.level_ids(middle_level)
        props = {n: _historical_subtree_proportions(history, n) for n in mids
                 if len(hierarchy.descendants_at_bottom(n)) > 1}
        return middle_out(hierarchy, S, middle_level, cols(mids), props)
    if method == "mint":
        cov = (ErrorCovariance(W=np.eye(hierarchy.M), lam=1.0) if errors is None
               else shrinkage_covariance(errors, shrinkage))
        return mint_reconcile(S, base, cov)
    if method == "fp":
        p = proportions_fp(base, hierarchy)
    else:
        p = proportions_ahp(history) if method == "ahp" else proportions_pha(history)
    return apply_topdown(S, p, base[:, hierarchy.index(hierarchy.root_id)])
