import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from hiercast import (DataError, Hierarchy, SeriesPanel, aggregate,
                      build_summing_matrix, calendar_matrix,
                      coherence_violation, load_hierarchy, load_panel)
from hiercast.forecastset import ForecastSet, read_forecast_set
from hiercast.hierarchy import write_exog, write_hierarchy, write_observations

from conftest import make_hierarchy, panel_from_bottom, uneven_trees


def two_level():
    return Hierarchy.from_nodes(
        [("total", None, 0), ("a", "total", 1), ("b", "total", 1)]
    )


class TestSummingMatrix:
    def test_smallest_hierarchy(self):
        h = two_level()
        S = build_summing_matrix(h)
        assert S.entries.tolist() == [[1, 1], [1, 0], [0, 1]]
        assert h.node_ids == ("total", "a", "b")
        assert h.bottom_ids == ["a", "b"]

    def test_grocery_shape(self):
        # 1 store, 4 brands, 42/45/10/21 items -> 123 x 118
        nodes = [("s", None, 0)]
        for b, n_items in enumerate([42, 45, 10, 21]):
            brand = f"b{b}"
            nodes.append((brand, "s", 1))
            nodes.extend((f"{brand}i{i:03d}", brand, 2) for i in range(n_items))
        S = build_summing_matrix(Hierarchy.from_nodes(nodes))
        assert S.entries.shape == (123, 118)
        assert S.entries[0].sum() == 118   # root covers every item

    def test_store_category_shape(self):
        # 1 total, 3 states, 4/3/3 stores, 3 categories each -> 44 x 30
        nodes = [("t", None, 0)]
        for s, n_stores in enumerate([4, 3, 3]):
            state = f"s{s}"
            nodes.append((state, "t", 1))
            for j in range(n_stores):
                store = f"{state}d{j}"
                nodes.append((store, state, 2))
                nodes.extend((f"{store}c{c}", store, 3) for c in range(3))
        S = build_summing_matrix(Hierarchy.from_nodes(nodes))
        assert S.entries.shape == (44, 30)

    def test_entries_binary_and_bottom_identity(self):
        h = make_hierarchy((3, 2))
        S = build_summing_matrix(h)
        assert set(np.unique(S.entries)) <= {0.0, 1.0}
        assert np.array_equal(S.entries[-S.m_bottom:], np.eye(S.m_bottom))

    def test_ordering_stable_under_permutation(self):
        nodes = [("total", None, 0), ("b", "total", 1), ("a", "total", 1)]
        h1, h2 = Hierarchy.from_nodes(nodes), Hierarchy.from_nodes(nodes[::-1])
        S1, S2 = build_summing_matrix(h1), build_summing_matrix(h2)
        assert np.array_equal(S1.entries, S2.entries)
        assert h1.node_ids == h2.node_ids

    def test_interior_row_is_sum_of_child_rows(self):
        h = make_hierarchy((2, 3))
        S = build_summing_matrix(h)
        for i, kids in enumerate(S.child_rows):
            if kids:
                assert np.array_equal(
                    S.entries[i], S.entries[list(kids)].sum(axis=0)
                )

    def test_orphan_parent_rejected(self):
        with pytest.raises(DataError, match="ghost"):
            Hierarchy.from_nodes(
                [("total", None, 0), ("x", "ghost", 1)]
            )

    def test_level_gap_rejected(self):
        with pytest.raises(DataError, match="level"):
            Hierarchy.from_nodes([("total", None, 0), ("x", "total", 2)])

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="dup"):
            Hierarchy.from_nodes(
                [("total", None, 0), ("dup", "total", 1), ("dup", "total", 1)]
            )


class TestLookups:
    """The cached lookups against their linear-scan definitions."""

    @staticmethod
    def scan_children(h, node_id):
        return [n for n, p in zip(h.node_ids, h.parent_ids) if p == node_id]

    def scan_descendants_at_bottom(self, h, node_id):
        front = [node_id]
        for _ in range(h.K - 1 - h.levels[h.node_ids.index(node_id)]):
            front = [c for n in front for c in self.scan_children(h, n)]
        return front

    @given(uneven_trees())
    def test_match_scans(self, h):
        for node_id in h.node_ids:
            assert h.index(node_id) == h.node_ids.index(node_id)
            assert h.children(node_id) == self.scan_children(h, node_id)
            assert (h.descendants_at_bottom(node_id)
                    == self.scan_descendants_at_bottom(h, node_id))
        with pytest.raises(DataError, match="unknown node id 'ghost'"):
            h.index("ghost")


class TestAggregate:
    def test_single_row(self):
        S = build_summing_matrix(two_level())
        assert aggregate(S, [[4, 5]]).tolist() == [[9, 4, 5]]

    def test_zeros(self):
        S = build_summing_matrix(two_level())
        assert aggregate(S, [[0, 0]]).tolist() == [[0, 0, 0]]

    def test_matches_bruteforce_descendant_sums(self, rng):
        h = make_hierarchy((2, 2))   # 4 leaves, two levels below root
        S = build_summing_matrix(h)
        bottom = rng.standard_normal((5, 4))
        agg = aggregate(S, bottom)
        col = {n: j for j, n in enumerate(h.bottom_ids)}
        for i, node in enumerate(h.node_ids):
            leaves = h.descendants_at_bottom(node)
            expected = sum(bottom[:, col[leaf]] for leaf in leaves)
            assert np.allclose(agg[:, i], expected)

    def test_dimension_mismatch(self):
        S = build_summing_matrix(two_level())
        with pytest.raises(DataError):
            aggregate(S, np.zeros((2, 3)))


class TestCoherenceViolation:
    def test_coherent_zero(self):
        S = build_summing_matrix(two_level())
        assert coherence_violation(S, np.array([[9.0, 4.0, 5.0]])) == 0.0

    def test_direct_definition(self):
        S = build_summing_matrix(two_level())
        assert coherence_violation(S, np.array([[9.5, 4.0, 5.0]])) == pytest.approx(0.5)

    def test_aggregated_is_coherent(self, rng):
        h = make_hierarchy((3, 2))
        S = build_summing_matrix(h)
        agg = aggregate(S, rng.standard_normal((20, S.m_bottom)))
        assert coherence_violation(S, agg) <= 1e-9


class TestSeriesPanel:
    def test_incoherent_observations_rejected(self):
        h = two_level()
        ts = np.datetime64("2020-01-01", "s") + np.arange(3) * np.timedelta64(86400, "s")
        values = np.array([[9.0, 4.0, 5.0], [9.0, 4.0, 5.0], [9.1, 4.0, 5.0]])
        with pytest.raises(DataError, match="aggregation"):
            SeriesPanel(hierarchy=h, timestamps=ts, values=values)

    def test_non_monotone_timestamps_rejected(self):
        h = two_level()
        ts = np.array(["2020-01-02", "2020-01-01"], dtype="datetime64[s]")
        with pytest.raises(DataError, match="increasing"):
            SeriesPanel(hierarchy=h, timestamps=ts,
                        values=np.array([[9.0, 4, 5], [9.0, 4, 5]]))

    def test_interior_exog_is_mean_of_descendants(self, rng):
        h = make_hierarchy((2,))
        bottom = rng.random((4, 2)) + 1
        flags = {
            "g00": (["promo"], np.array([[1.0], [0.0], [1.0], [0.0]])),
            "g01": (["promo"], np.array([[1.0], [1.0], [0.0], [0.0]])),
        }
        panel = panel_from_bottom(h, bottom, exog=flags)
        names, mat = panel.exog_for("total")
        assert names == ["promo"]
        assert mat[:, 0].tolist() == [1.0, 0.5, 0.5, 0.0]


class TestCalendar:
    def test_dow_dummies(self):
        # 2015-01-05 is a Monday (dropped category)
        ts = np.datetime64("2015-01-05", "s") + np.arange(7) * np.timedelta64(86400, "s")
        names, mat = calendar_matrix(ts, ("dow",))
        assert names == [f"dow_{i}" for i in range(1, 7)]
        assert mat.shape == (7, 6)
        assert mat[0].sum() == 0          # Monday -> all zeros
        assert mat[1].tolist() == [1, 0, 0, 0, 0, 0]   # Tuesday
        assert mat[6].tolist() == [0, 0, 0, 0, 0, 1]   # Sunday

    def test_month_dummies(self):
        ts = np.array(["2020-01-15", "2020-02-15", "2020-12-15"],
                      dtype="datetime64[s]")
        names, mat = calendar_matrix(ts, ("month",))
        assert len(names) == 11
        assert mat[0].sum() == 0           # January dropped
        assert mat[1][0] == 1              # February
        assert mat[2][-1] == 1             # December


class TestCsvRoundTrip:
    def test_hierarchy_and_panel(self, tmp_path, rng):
        h = make_hierarchy((2, 2))
        exog = {n: (["promo"], rng.integers(0, 2, (6, 1)).astype(float))
                for n in h.bottom_ids}
        panel = panel_from_bottom(h, rng.random((6, 4)) + 1, exog=exog)

        write_hierarchy(h, tmp_path / "h.csv")
        write_observations(panel, tmp_path / "obs.csv")
        write_exog(panel, tmp_path / "ex.csv")

        h2 = load_hierarchy(tmp_path / "h.csv")
        assert h2 == h
        panel2 = load_panel(h2, tmp_path / "obs.csv", tmp_path / "ex.csv",
                            calendar=())
        assert np.array_equal(panel2.values, panel.values)
        assert np.array_equal(panel2.timestamps, panel.timestamps)
        for n in h.bottom_ids:
            assert np.array_equal(panel2.exog[n][1], panel.exog[n][1])

    def test_non_ascii_ids_under_an_ascii_locale(self, tmp_path):
        """The writers write UTF-8 whatever the locale's encoding."""
        nodes = [("Zürich", None, 0), ("Genève", "Zürich", 1)]
        exog = {"Genève": (["prömo"], [[1.0]])}
        script = (      # ascii(): the command line is decoded as ASCII too
            "import sys\n"
            "from hiercast import Hierarchy, SeriesPanel\n"
            "from hiercast.hierarchy import (write_exog, write_hierarchy,\n"
            "                                write_observations)\n"
            f"h = Hierarchy.from_nodes({ascii(nodes)})\n"
            f"panel = SeriesPanel(h, ['2020-01-01'], [[2.0, 2.0]], {ascii(exog)})\n"
            "write_hierarchy(h, sys.argv[1] + '/h.csv')\n"
            "write_observations(panel, sys.argv[1] + '/obs.csv')\n"
            "write_exog(panel, sys.argv[1] + '/ex.csv')\n")
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        h = load_hierarchy(tmp_path / "h.csv")
        assert h.node_ids == ("Zürich", "Genève")
        panel = load_panel(h, tmp_path / "obs.csv", tmp_path / "ex.csv")
        assert panel.values.tolist() == [[2.0, 2.0]]
        assert panel.exog["Genève"][0] == ["prömo"]

    def test_missing_observation_is_data_error(self, tmp_path):
        h = make_hierarchy((2,))
        write_hierarchy(h, tmp_path / "h.csv")
        (tmp_path / "obs.csv").write_text(
            "timestamp,node_id,value\n2020-01-01,total,9\n2020-01-01,g00,4\n"
        )
        with pytest.raises(DataError, match="missing"):
            load_panel(h, tmp_path / "obs.csv")

    def test_timestamps_are_the_distinct_instants_sorted(self, tmp_path):
        """Rows come in any order, and two spellings of one instant are one
        timestamp whose later row wins."""
        h = make_hierarchy((2,))
        write_hierarchy(h, tmp_path / "h.csv")
        (tmp_path / "obs.csv").write_text(
            "timestamp,node_id,value\n"
            "2020-01-03,total,9\n2020-01-03,g00,4\n2020-01-03,g01,5\n"
            "2020-01-01T00:00:00,total,1\n2020-01-01,g00,1\n"
            "2020-01-01,g01,0\n2020-01-01,total,3\n2020-01-01T00:00,g01,2\n"
        )
        panel = load_panel(h, tmp_path / "obs.csv")
        assert panel.timestamps.tolist() == np.array(
            ["2020-01-01", "2020-01-03"], dtype="datetime64[s]").tolist()
        assert panel.values.tolist() == [[3, 1, 2], [9, 4, 5]]

    def test_forecast_rows_are_csv_writer_bytes(self, tmp_path):
        ids = ("a,b", 'say "hi"', "two\nlines", " lead", "")
        ts = np.array(["2020-01-01T06:00", "2020-01-02"], dtype="datetime64[s]")
        values = np.array([[1.5, -0.0, 1e-300, np.inf, 2.0],
                           [np.nan, 3.0, -7.25, 1e22, 0.1]])
        fs = ForecastSet("m,1", ids, ts, values)
        fs.write_csv(tmp_path / "fs.csv")
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["timestamp", "node_id", "forecast", "method"])
        for t, stamp in enumerate(["2020-01-01T06:00:00", "2020-01-02T00:00:00"]):
            for j, node_id in enumerate(ids):
                writer.writerow([stamp, node_id, repr(float(values[t, j])), "m,1"])
        assert (tmp_path / "fs.csv").read_bytes() == want.getvalue().encode()
        back = read_forecast_set(tmp_path / "fs.csv")
        assert back.node_ids == ids and back.method == "m,1"
        assert np.array_equal(back.values, values, equal_nan=True)
        with pytest.raises(DataError, match="no forecast for node 'zz'"):
            fs.column("zz")

    @pytest.mark.parametrize("bad,message", [
        ("2020-01-02,g00", "line 6: expected 3 fields, got 2"),
        ("2020-01-02,g00,four", "line 6: could not convert string to float: 'four'"),
        ("2020-13-02,g00,4", "line 6: unparseable timestamp '2020-13-02'"),
    ])
    def test_error_names_the_file_line(self, tmp_path, bad, message):
        """A blank line and a quoted two-line cell come before the bad row,
        so the reported line is the file's, not the row count."""
        h = make_hierarchy((2,))
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node_id,value\n2020-01-01,total,9\n\n"
                        '2020-01-01,"g0\n0",4\n' + bad + "\n2020-01-01,g00,4\n")
        with pytest.raises(DataError) as exc:
            load_panel(h, path)
        assert str(exc.value) == f"{path}: {message}"

    def test_missing_cell_names_key_and_timestamp(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("timestamp,node_id,forecast,method\n"
                        "2020-01-01,a,1,bu\n2020-01-01,b,2,bu\n\n"
                        '2020-01-02,"b",3,bu\n')
        with pytest.raises(DataError) as exc:
            read_forecast_set(path)
        assert str(exc.value) == (f"{path}: missing forecast for a, bu at "
                                  "2020-01-02T00:00:00")
