"""Property test: every long-format file the program writes reads back bit
for bit, whatever the order of its data rows.

Each file is written, its data rows are shuffled, and a stale copy of one
row (same timestamp and key, value NaN) is inserted before that row,
so the read also pins "the later of two repeated rows wins".
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercast import Hierarchy, SeriesPanel, build_summing_matrix, load_panel
from hiercast.forecastset import ForecastSet, read_forecast_set
from hiercast.hierarchy import (format_timestamp, load_error_matrix,
                                timestamps_are_dates, write_exog,
                                write_observations)

VARIABLES = ("price", "promo", "temp")


@st.composite
def trees(draw):
    """2-4 levels; every interior node has 1-3 children."""
    nodes, frontier = [("total", None, 0)], ["total"]
    for level in range(1, draw(st.integers(1, 3)) + 1):
        nxt = []
        for parent in frontier:
            for _ in range(draw(st.integers(1, 3))):
                nxt.append(f"L{level}n{len(nxt)}")
                nodes.append((nxt[-1], parent, level))
        frontier = nxt
    return Hierarchy.from_nodes(nodes)


def _timestamps(rng, T, daily):
    step = 86400 if daily else 1
    gaps = rng.integers(1, 1000, T) * step
    return np.datetime64("2019-12-30", "s") + np.cumsum(gaps).astype("timedelta64[s]")


def _wide(rng, shape):
    """Finite floats over most of the float64 exponent range."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


def _shuffle_with_stale_row(path, rng, value_col):
    """Shuffle the data rows and insert, before one of them, a copy whose
    value is NaN (never equal to the original).  Returns the data rows as
    written."""
    header, *rows = Path(path).read_text().splitlines()
    rows = [rows[i] for i in rng.permutation(len(rows))]
    i = int(rng.integers(len(rows)))
    stale = rows[i].split(",")
    stale[value_col] = "nan"
    rows.insert(int(rng.integers(i + 1)), ",".join(stale))
    Path(path).write_text("\n".join([header, *rows]) + "\n")
    return rows


@settings(max_examples=40, deadline=None)
@given(hier=trees(), seed=st.integers(0, 2**32 - 1), T=st.integers(1, 6),
       daily=st.booleans(), error_col=st.sampled_from(["error", "value"]))
def test_long_format_round_trip(hier, seed, T, daily, error_col):
    rng = np.random.default_rng(seed)
    S = build_summing_matrix(hier)
    ts = _timestamps(rng, T, daily)
    exog_nodes = rng.choice(hier.node_ids, int(rng.integers(1, hier.M + 1)),
                            replace=False)
    exog = {}
    for node_id in exog_nodes:
        names = sorted(rng.choice(VARIABLES, int(rng.integers(1, 4)),
                                  replace=False).tolist())
        exog[str(node_id)] = (names, _wide(rng, (T, len(names))))
    panel = SeriesPanel(hierarchy=hier, timestamps=ts, exog=exog, calendar=(),
                        values=rng.standard_normal((T, S.m_bottom)) * 100
                        @ S.entries.T)
    subset = tuple(str(n) for n in rng.permutation(hier.node_ids)
                   [:int(rng.integers(1, hier.M + 1))])
    fs = ForecastSet(method="mint", node_ids=subset, timestamps=ts,
                     values=_wide(rng, (T, len(subset))))
    errors = _wide(rng, (T, hier.M))

    with tempfile.TemporaryDirectory() as tmp:
        obs, ex, fc, err = (Path(tmp) / n for n in
                            ("obs.csv", "exog.csv", "fc.csv", "err.csv"))
        write_observations(panel, obs)
        write_exog(panel, ex)
        fs.write_csv(fc)
        with open(err, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "node_id", error_col])
            date_only = timestamps_are_dates(ts)
            for t, stamp in enumerate(ts):
                for j, node_id in enumerate(hier.node_ids):
                    writer.writerow([format_timestamp(stamp, date_only),
                                     node_id, repr(float(errors[t, j]))])
        _shuffle_with_stale_row(obs, rng, 2)
        _shuffle_with_stale_row(ex, rng, 3)
        fc_rows = _shuffle_with_stale_row(fc, rng, 2)
        _shuffle_with_stale_row(err, rng, 2)

        got = load_panel(hier, obs, ex, calendar=())
        got_fs = read_forecast_set(fc)
        got_errors = load_error_matrix(err, hier)

    assert np.array_equal(got.timestamps, ts)
    for node_id in hier.node_ids:
        assert np.array_equal(got.series(node_id), panel.series(node_id))
    assert set(got.exog) == set(exog)
    for node_id, (names, mat) in exog.items():
        got_names, got_mat = got.exog[node_id]
        assert got_names == names
        for j in range(len(names)):
            assert np.array_equal(got_mat[:, j], mat[:, j])

    assert np.array_equal(got_fs.timestamps, ts)
    assert got_fs.method == "mint"
    assert got_fs.node_ids == tuple(dict.fromkeys(r.split(",")[1] for r in fc_rows))
    for node_id in subset:
        assert np.array_equal(got_fs.column(node_id), fs.column(node_id))

    assert np.array_equal(got_errors, errors)
