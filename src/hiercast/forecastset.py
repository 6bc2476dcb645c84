"""Per-node forecast vectors over a horizon, tagged base vs. coherent,
with the shared CSV schema timestamp,node_id,forecast,method."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .hierarchy import format_timestamp, timestamps_are_dates, _parse_ts


@dataclass
class ForecastSet:
    method: str
    node_ids: tuple            # canonical order (possibly a subset of nodes)
    timestamps: np.ndarray     # (H,) datetime64[s]
    values: np.ndarray         # (H, len(node_ids))
    kind: str = "coherent"     # "base" or "coherent"

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.timestamps), len(self.node_ids)):
            raise DataError(
                f"forecast values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} steps x {len(self.node_ids)} nodes"
            )
        if self.kind not in ("base", "coherent"):
            raise DataError(f"unknown forecast kind {self.kind!r}")

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


def read_forecast_set(path, kind="coherent") -> ForecastSet:
    cells = {}
    methods = set()
    stamps = {}
    nodes = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"timestamp", "node_id", "forecast", "method"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(
                f"{path}: expected header timestamp,node_id,forecast,method"
            )
        try:
            for row in reader:
                ts = _parse_ts(row["timestamp"])
                stamps[str(ts)] = ts
                if row["node_id"] not in nodes:
                    nodes.append(row["node_id"])
                cells[(str(ts), row["node_id"])] = float(row["forecast"])
                methods.add(row["method"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not cells:
        raise DataError(f"{path}: empty forecast file")
    if len(methods) != 1:
        raise DataError(f"{path}: mixed methods in one forecast file: {sorted(methods)}")
    timestamps = np.array(sorted(stamps.values()), dtype="datetime64[s]")
    values = np.empty((len(timestamps), len(nodes)))
    for t, ts in enumerate(timestamps):
        for j, node_id in enumerate(nodes):
            key = (str(ts), node_id)
            if key not in cells:
                raise DataError(f"{path}: missing forecast for {node_id!r} at {ts}")
            values[t, j] = cells[key]
    return ForecastSet(
        method=methods.pop(), node_ids=tuple(nodes),
        timestamps=timestamps, values=values, kind=kind,
    )
