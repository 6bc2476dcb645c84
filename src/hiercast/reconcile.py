"""Classical coherent-forecast baselines: bottom-up, historical-proportion
top-down (AHP/PHA), forecasted proportions, middle-out, and minimum-trace
reconciliation with shrinkage covariance."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .hierarchy import Hierarchy, SummingMatrix, aggregate


def _check_proportions(p, m):
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise DataError(f"proportion vector has shape {p.shape}, expected ({m},)")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
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


def proportions_fp(base_forecasts, hierarchy: Hierarchy, step) -> np.ndarray:
    """Per-step proportions from base forecasts, as nested sibling shares.

    base_forecasts: (H, M) matrix over all nodes in canonical order.  The
    share of each node is its base forecast divided by the sum over its
    siblings; the bottom proportion is the product of shares along the path
    from level 1 down.  Sums to one by construction.
    """
    base = np.atleast_2d(np.asarray(base_forecasts, dtype=float))
    if base.shape[1] != hierarchy.M:
        raise DataError(
            f"base forecasts have {base.shape[1]} columns, expected {hierarchy.M}"
        )
    row = base[step]
    share = {hierarchy.root_id: 1.0}
    for node_id in hierarchy.node_ids:
        kids = hierarchy.children(node_id)
        if not kids:
            continue
        sib_sum = sum(row[hierarchy.index(c)] for c in kids)
        if sib_sum == 0:
            raise NumericError(
                f"FP proportions undefined: children of {node_id!r} have zero "
                f"base-forecast sum at step {step}"
            )
        for c in kids:
            share[c] = share[node_id] * row[hierarchy.index(c)] / sib_sum
    p = np.array([share[n] for n in hierarchy.bottom_ids])
    return _check_proportions(p, len(p))


def apply_topdown(S: SummingMatrix, p, top_forecast) -> np.ndarray:
    """Distribute the top forecast over the bottom via p and aggregate."""
    p = _check_proportions(p, S.m_bottom)
    top = np.asarray(top_forecast, dtype=float).ravel()
    bottom = np.outer(top, p)
    return aggregate(S, bottom)


def middle_out(hierarchy: Hierarchy, S: SummingMatrix, middle_level,
               middle_forecasts, proportions) -> np.ndarray:
    """Top-down below the middle level, bottom-up above it.

    middle_forecasts: (H, m_k) base forecasts for the middle-level nodes in
    canonical order; proportions: node_id -> proportion vector over that
    node's bottom descendants.
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
    H = middle_forecasts.shape[0]
    col_of = {n: j for j, n in enumerate(S.col_index)}
    bottom = np.zeros((H, S.m_bottom))
    for j, node_id in enumerate(mids):
        leaves = hierarchy.descendants_at_bottom(node_id)
        if len(leaves) == 1 and leaves[0] == node_id:
            bottom[:, col_of[node_id]] = middle_forecasts[:, j]
            continue
        p = _check_proportions(proportions[node_id], len(leaves))
        sub = np.outer(middle_forecasts[:, j], p)
        for c, leaf in enumerate(leaves):
            bottom[:, col_of[leaf]] = sub[:, c]
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
    """Project base forecasts onto the coherent subspace:
    y~ = S (S'W^-1 S)^-1 S'W^-1 y^, applied per forecast step."""
    base = np.atleast_2d(np.asarray(base_forecasts, dtype=float))
    if base.shape[1] != S.M:
        raise DataError(
            f"base forecasts have {base.shape[1]} columns, expected {S.M}"
        )
    W = cov.W
    if W.shape[0] != S.M:
        raise DataError("covariance dimension does not match hierarchy size")
    WinvS = np.linalg.solve(W, S.entries)
    A = S.entries.T @ WinvS
    rhs = base @ WinvS                       # (H, m_bottom)
    try:
        np.linalg.cholesky((A + A.T) / 2.0)
    except np.linalg.LinAlgError:
        raise NumericError("S'W^-1S is not positive definite") from None
    bottom = np.linalg.solve(A, rhs.T).T
    return aggregate(S, bottom)
