"""Per-node forecast vectors over a horizon, with the shared CSV schema
timestamp,node_id,forecast,method."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .hierarchy import _write_long, read_long_csv


@dataclass
class ForecastSet:
    method: str
    node_ids: tuple            # canonical order (possibly a subset of nodes)
    timestamps: np.ndarray     # (H,) datetime64[s]
    values: np.ndarray         # (H, len(node_ids))
    _col: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.timestamps), len(self.node_ids)):
            raise DataError(
                f"forecast values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} steps x {len(self.node_ids)} nodes"
            )
        self._col = {n: j for j, n in enumerate(self.node_ids)}

    @property
    def horizon(self):
        return len(self.timestamps)

    def column(self, node_id):
        try:
            return self.values[:, self._col[node_id]]
        except KeyError:
            raise DataError(f"no forecast for node {node_id!r}") from None

    def write_csv(self, path):
        _write_long(path, ("node_id", "method"), "forecast", self.timestamps,
                    self.node_ids, self.values, (self.method,))


def read_forecast_set(path) -> ForecastSet:
    """Read one method's forecasts; columns follow first appearance."""
    def one_method(keys):
        if not keys:
            raise DataError(f"{path}: empty forecast file")
        methods = sorted({method for _, method in keys})
        if len(methods) != 1:
            raise DataError(f"{path}: mixed methods in one forecast file: {methods}")
        return keys

    timestamps, keys, values = read_long_csv(
        path, ("node_id", "method"), "forecast", "forecast", one_method)
    return ForecastSet(method=keys[0][1], node_ids=tuple(n for n, _ in keys),
                       timestamps=timestamps, values=values)
