"""The parse cache of long-format CSVs: a later read of the same bytes skips
the row parse and gives the same results and errors; anything amiss with an
entry falls back to parsing the file.  The long-format writers store the
entry the first read would store."""

import json
import os
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from hiercast import DataError, Hierarchy, SeriesPanel, hierarchy
from hiercast.forecastset import ForecastSet, read_forecast_set
from hiercast.hierarchy import read_long_csv, write_observations

CACHE_DIR = ".hiercast-cache"

OBS = ("timestamp,node_id,value\n"
       "2020-01-02,total,9\n2020-01-02,a,4\n2020-01-02,b,5\n"
       "2020-01-01,total,3\n2020-01-01,a,1.5\n2020-01-01,b,1.5\n"
       "2020-01-01,a,1\n2020-01-01,b,2\n")


def read(path, keys=None):
    return read_long_csv(path, ("node_id",), "value", "observation", keys)


def entry(path):
    return Path(hierarchy._entry(path))


def no_parse(*args):
    raise AssertionError("the row parse ran")


@pytest.fixture
def obs(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(OBS)
    return path


def test_second_read_skips_the_row_parse(obs, monkeypatch):
    ts, keys, matrix = read(obs)
    monkeypatch.setattr(hierarchy, "_parse_long_csv", no_parse)
    ts2, keys2, matrix2 = read(obs)
    assert keys2 == keys == ["total", "a", "b"]
    assert all(type(k) is str for k in keys2)
    assert np.array_equal(ts2, ts) and ts2.dtype == ts.dtype
    assert matrix2.tolist() == matrix.tolist() == [[3, 1, 2], [9, 4, 5]]


def test_forecast_set_with_two_key_columns_hits(tmp_path, monkeypatch):
    path = tmp_path / "fc.csv"
    path.write_text("timestamp,node_id,forecast,method\n"
                    "2020-01-01,a,1,bu\n2020-01-01,b,2,bu\n"
                    "2020-01-02,a,3,bu\n2020-01-02,b,4,bu\n")
    first = read_forecast_set(path)
    monkeypatch.setattr(hierarchy, "_parse_long_csv", no_parse)
    again = read_forecast_set(path)
    assert again.method == first.method == "bu"
    assert again.node_ids == first.node_ids == ("a", "b")
    assert again.values.tolist() == first.values.tolist()


def test_same_size_other_bytes_are_parsed_again(obs):
    read(obs)
    obs.write_text(OBS.replace("2020-01-02,a,4", "2020-01-02,a,6"))
    assert read(obs)[2].tolist() == [[3, 1, 2], [9, 6, 5]]


def test_other_reader_arguments_are_parsed_again(tmp_path):
    """The entry is tagged with the key and value columns read."""
    path = tmp_path / "fc.csv"
    path.write_text("timestamp,node_id,value,method\n"
                    "2020-01-01,a,1,bu\n2020-01-01,b,2,bu\n")
    assert read(path)[1] == ["a", "b"]
    _, keys, matrix = read_long_csv(path, ("node_id", "method"), "value", "value")
    assert keys == [("a", "bu"), ("b", "bu")] and matrix.tolist() == [[1, 2]]


def test_missing_cell_is_the_same_error_on_a_hit(obs):
    messages = []
    for _ in range(2):
        with pytest.raises(DataError) as exc:
            read(obs, ("total", "a", "b", "c"))
        messages.append(str(exc.value))
    assert messages[1] == messages[0] == (
        f"{obs}: missing observation for c at 2020-01-01T00:00:00")


def test_a_file_that_fails_to_parse_leaves_no_entry(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(OBS + "2020-13-01,a,1\n")
    for _ in range(2):
        with pytest.raises(DataError, match="line 10: unparseable timestamp"):
            read(path)
    assert not (tmp_path / CACHE_DIR).exists()


def test_an_entry_is_a_json_line_then_little_endian_words(obs):
    read(obs)
    line, payload = entry(obs).read_bytes().split(b"\n", 1)
    data = obs.read_bytes()
    assert json.loads(line) == {
        "tag": [2, len(data), zlib.crc32(data), zlib.adler32(data),
                "node_id", "value"],
        "keys": ["total", "a", "b"], "sizes": [2, 8]}
    words = np.frombuffer(payload, "<i8")
    assert words[:2].view("<M8[s]").tolist() == np.array(
        ["2020-01-02", "2020-01-01"], "M8[s]").tolist()
    assert words[2:10].tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    assert words[10:18].tolist() == [0, 1, 2, 0, 1, 2, 1, 2]
    assert words[18:].view("<f8").tolist() == [9, 4, 5, 3, 1.5, 1.5, 1, 2]


def with_head(good, edit):
    """``good`` with its JSON line replaced by ``edit`` of its header."""
    line, payload = good.split(b"\n", 1)
    return json.dumps(edit(json.loads(line))).encode() + b"\n" + payload


def negative_sizes(head):
    """Sizes whose words add up to the payload's, the first below zero."""
    T, N = head["sizes"]
    return dict(head, sizes=[T - 3, N + 1])


DAMAGE = {
    "garbage": lambda good: b"not an entry" * 40,
    "truncated": lambda good: good[:len(good) // 2],
    "empty": lambda good: b"",
    "not-json": lambda good: b"not json\n" + good.split(b"\n", 1)[1],
    "json-list": lambda good: with_head(good, lambda h: list(h.values())),
    "negative-sizes": lambda good: with_head(good, negative_sizes),
    "float-sizes": lambda good: with_head(
        good, lambda h: dict(h, sizes=[float(n) for n in h["sizes"]])),
    "payload-short": lambda good: good[:-8],
    "payload-long": lambda good: good + bytes(8),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_entry_is_ignored_and_rewritten(obs, damage):
    expected = read(obs)[2].tolist()
    good = entry(obs).read_bytes()
    entry(obs).write_bytes(DAMAGE[damage](good))
    assert read(obs)[2].tolist() == expected
    assert entry(obs).read_bytes() == good


def test_a_key_ending_in_nul_is_stored_and_hits(tmp_path, monkeypatch):
    """JSON keeps every str, a trailing NUL included."""
    path = tmp_path / "obs.csv"
    path.write_text("timestamp,node_id,value\n2020-01-01,a\0,1\n2020-01-01,b,2\n")
    cold = read(path)
    assert entry(path).is_file()
    monkeypatch.setattr(hierarchy, "_parse_long_csv", no_parse)
    warm = read(path)
    assert warm[1] == cold[1] == ["a\0", "b"]
    assert warm[2].tolist() == cold[2].tolist() == [[1, 2]]


def test_a_file_changed_during_the_parse_is_not_stored(obs, monkeypatch):
    """An entry tagged with the old bytes must not hold the new parse."""
    real = hierarchy._parse_long_csv

    def parse_after_a_rewrite(*args):
        obs.write_text(OBS + "2020-01-02,a,7\n")
        return real(*args)

    monkeypatch.setattr(hierarchy, "_parse_long_csv", parse_after_a_rewrite)
    assert read(obs)[2].tolist() == [[3, 1, 2], [9, 7, 5]]
    monkeypatch.undo()
    obs.write_text(OBS)
    assert read(obs)[2].tolist() == [[3, 1, 2], [9, 4, 5]]


def test_a_pipe_is_read_once(tmp_path):
    """Only a regular file is checksummed, so a named pipe is parsed from
    its one stream of bytes."""
    path = tmp_path / "obs.csv"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(read(path)[2].tolist()),
                              daemon=True)
    reader.start()
    path.write_text(OBS)            # returns once the reader has the pipe open
    reader.join(timeout=10)
    if reader.is_alive():           # it opened the pipe again: give it EOF
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert got == [[[3, 1, 2], [9, 4, 5]]]
    assert not (tmp_path / CACHE_DIR).exists()


def test_an_entry_that_cannot_be_written_is_skipped(obs):
    (obs.parent / CACHE_DIR).write_text("a regular file, not a directory")
    for _ in range(2):
        assert read(obs)[2].tolist() == [[3, 1, 2], [9, 4, 5]]
    assert sorted(p.name for p in obs.parent.iterdir()) == [CACHE_DIR, "obs.csv"]


def test_two_writes_of_an_entry_are_byte_identical(obs, tmp_path, monkeypatch):
    """The entry depends on the file's bytes only, not on the clock or the
    file's path or times, so repeated pipelines write equal bytes."""
    read(obs)
    other = tmp_path / "later" / "obs.csv"
    other.parent.mkdir()
    other.write_bytes(obs.read_bytes())
    monkeypatch.setattr(time, "time", lambda: 2.0e9)
    read(other)
    assert entry(other).read_bytes() == entry(obs).read_bytes()


def test_prune_removes_entries_whose_csv_is_gone(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(OBS)
    read(a)
    a.unlink()
    ForecastSet("bu", ("x",), ["2020-01-01"], [[1.0]]).write_csv(b)
    assert sorted(p.name for p in (tmp_path / CACHE_DIR).iterdir()) == [
        entry(b).name]


def test_prune_removes_entries_of_the_first_format(tmp_path):
    """An .npz entry is never read, whether or not its CSV is there."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(OBS)
    (tmp_path / CACHE_DIR).mkdir()
    for name in ("a.csv.npz", "gone.csv.npz"):
        (tmp_path / CACHE_DIR / name).write_bytes(b"PK\x03\x04")
    read(a)
    ForecastSet("bu", ("x",), ["2020-01-01"], [[1.0]]).write_csv(b)
    assert sorted(p.name for p in (tmp_path / CACHE_DIR).iterdir()) == [
        entry(a).name, entry(b).name]


# ---------------------------------------------------------------------------
# Entries stored by the long-format writers
# ---------------------------------------------------------------------------

FORECAST = (("node_id", "method"), "forecast")
OBSERVATIONS = (("node_id",), "value")


def write_forecasts(path, ids, stamps, values):
    ForecastSet("mint", ids, stamps, values).write_csv(path)
    return FORECAST


def write_panel(path, ids, stamps, values):
    """A two-level panel of the values after the first column, whose first
    id is their total."""
    hier = Hierarchy.from_nodes([(ids[0], None, 0)]
                                + [(n, ids[0], 1) for n in ids[1:]])
    bottom = np.asarray(values, dtype=float)[:, 1:]
    panel = SeriesPanel(hier, stamps, np.column_stack([bottom.sum(axis=1), bottom]))
    write_observations(panel, path)
    return OBSERVATIONS


DAYS = ["2020-01-01", "2020-01-02", "2020-01-03"]
VALUES = [[3.0, 1.25, 1.75], [0.1, -0.0, 0.1], [7e-300, 1e300, 2.5]]


@pytest.mark.parametrize("write", [write_forecasts, write_panel])
@pytest.mark.parametrize("ids,stamps", [
    (("total", "a", "b"), DAYS),
    (("total", 'a,"b"', "c"), DAYS),
    (("Zürich", "Bern", "Genève"), DAYS),
    (("total", "a", "b"), ["2020-01-01T06:00:00", "2020-01-01T18:30:15",
                           "2020-01-02T00:00:00"]),
    (("total", "a\0", "b\0"), DAYS),
], ids=["plain", "comma-quote", "non-ascii", "non-midnight", "trailing-nul"])
def test_a_written_entry_is_the_entry_a_cold_read_stores(
        tmp_path, monkeypatch, write, ids, stamps):
    path = tmp_path / "out.csv"
    columns, value = write(path, ids, stamps, VALUES)
    seeded = entry(path).read_bytes()
    monkeypatch.setattr(hierarchy, "_parse_long_csv", no_parse)
    warm = read_long_csv(path, columns, value, "cell")
    monkeypatch.undo()
    entry(path).unlink()
    cold = read_long_csv(path, columns, value, "cell")
    assert entry(path).read_bytes() == seeded
    for got, want in zip(warm, cold):
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()      # -0.0 keeps its sign
        else:
            assert got == want and list(map(type, got)) == list(map(type, want))
    assert [k[0] if isinstance(k, tuple) else k for k in warm[1]] == list(ids)


@pytest.mark.parametrize("ids,stamps,values,read_back", [
    (("a", "a"), DAYS[:2], [[1.0, 2.0], [3.0, 4.0]], [[2.0], [4.0]]),
    (("a", "b"), DAYS[:2], [[1.0, np.nan], [3.0, 4.0]], [[1.0, np.nan], [3.0, 4.0]]),
    (("a", "b"), [DAYS[0], DAYS[0]], [[1.0, 2.0], [3.0, 4.0]], [[3.0, 4.0]]),
], ids=["duplicate-id", "nan", "duplicate-stamp"])
def test_a_parse_that_could_differ_is_not_stored(tmp_path, ids, stamps, values,
                                                 read_back):
    path = tmp_path / "fc.csv"
    write_forecasts(path, ids, stamps, values)
    assert not (tmp_path / CACHE_DIR).exists()
    for _ in range(2):
        _, _, matrix = read_long_csv(path, *FORECAST, "forecast")
        assert np.array_equal(matrix, read_back, equal_nan=True)
