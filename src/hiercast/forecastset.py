"""Per-node forecast vectors over a horizon, with the shared CSV schema
timestamp,node_id,forecast,method."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .hierarchy import (format_timestamp, pivot_long, read_long_csv,
                        timestamps_are_dates)


@dataclass
class ForecastSet:
    method: str
    node_ids: tuple            # canonical order (possibly a subset of nodes)
    timestamps: np.ndarray     # (H,) datetime64[s]
    values: np.ndarray         # (H, len(node_ids))

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.timestamps), len(self.node_ids)):
            raise DataError(
                f"forecast values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} steps x {len(self.node_ids)} nodes"
            )

    @property
    def horizon(self):
        return len(self.timestamps)

    def column(self, node_id):
        try:
            j = self.node_ids.index(node_id)
        except ValueError:
            raise DataError(f"no forecast for node {node_id!r}") from None
        return self.values[:, j]

    def write_csv(self, path):
        date_only = timestamps_are_dates(self.timestamps)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "node_id", "forecast", "method"])
            for t, ts in enumerate(self.timestamps):
                stamp = format_timestamp(ts, date_only)
                for j, node_id in enumerate(self.node_ids):
                    writer.writerow([stamp, node_id, repr(float(self.values[t, j])), self.method])


def read_forecast_set(path) -> ForecastSet:
    """Read one method's forecasts; columns follow first appearance."""
    table = read_long_csv(path, ("node_id", "method"), "forecast")
    if not table.row_value:
        raise DataError(f"{path}: empty forecast file")
    methods = sorted({method for _, method in table.keys})
    if len(methods) != 1:
        raise DataError(f"{path}: mixed methods in one forecast file: {methods}")
    nodes = tuple(dict.fromkeys(node_id for node_id, _ in table.keys))
    timestamps = np.unique(table.instants)
    values = pivot_long(path, table, timestamps,
                        [(n, methods[0]) for n in nodes], "forecast")
    return ForecastSet(
        method=methods[0], node_ids=nodes,
        timestamps=timestamps, values=values,
    )
