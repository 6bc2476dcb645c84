"""Aggregation hierarchy, summing matrix, aligned observation panel and its
feature rows.

All vectors and matrices in the toolkit follow the canonical node ordering:
by level, then lexicographic node id.
"""

import csv
import io
import json
import os
import zlib
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from stat import S_ISREG

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Hierarchy:
    """A strictly nested aggregation tree.

    ``node_ids``, ``parent_ids`` and ``levels`` are parallel tuples in
    canonical order (level, then lexicographic node id).
    """

    node_ids: tuple
    parent_ids: tuple
    levels: tuple

    @classmethod
    def from_nodes(cls, nodes):
        """Build from an iterable of (node_id, parent_id, level) triples.

        parent_id may be None or "" for the root.  Raises DataError on a
        malformed structure, naming the offending node.
        """
        cleaned = []
        for node_id, parent_id, level in nodes:
            if parent_id in ("", None):
                parent_id = None
            cleaned.append((str(node_id), parent_id, int(level)))
        cleaned.sort(key=lambda n: (n[2], n[0]))
        ids = [n[0] for n in cleaned]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})[0]
            raise DataError(f"duplicate node id {dup!r}")
        by_id = {n[0]: n for n in cleaned}
        roots = [n for n in cleaned if n[1] is None]
        if len(roots) != 1 or roots[0][2] != 0:
            raise DataError("hierarchy must have exactly one root at level 0")
        levels = sorted({n[2] for n in cleaned})
        if levels != list(range(len(levels))):
            raise DataError(f"level gap in hierarchy: levels present {levels}")
        for node_id, parent_id, level in cleaned:
            if parent_id is None:
                continue
            if parent_id not in by_id:
                raise DataError(f"node {node_id!r} has unknown parent {parent_id!r}")
            if by_id[parent_id][2] != level - 1:
                raise DataError(
                    f"node {node_id!r} at level {level} has parent "
                    f"{parent_id!r} at level {by_id[parent_id][2]}"
                )
        h = cls(
            node_ids=tuple(n[0] for n in cleaned),
            parent_ids=tuple(n[1] for n in cleaned),
            levels=tuple(n[2] for n in cleaned),
        )
        # every non-leaf node must actually have children
        for node_id, level in zip(h.node_ids, h.levels):
            if level < h.K - 1 and not h.children(node_id):
                raise DataError(f"interior node {node_id!r} has no children")
        return h

    @property
    def K(self):
        return self.levels[-1] + 1

    @property
    def M(self):
        return len(self.node_ids)

    @cached_property
    def _row_of(self):
        return {n: i for i, n in enumerate(self.node_ids)}

    @cached_property
    def _children_of(self):
        """node id -> its children in canonical order."""
        kids = {}
        for n, p in zip(self.node_ids, self.parent_ids):
            kids.setdefault(p, []).append(n)
        return kids

    def index(self, node_id):
        try:
            return self._row_of[node_id]
        except KeyError:
            raise DataError(f"unknown node id {node_id!r}") from None

    def level_ids(self, level):
        return [n for n, lv in zip(self.node_ids, self.levels) if lv == level]

    @property
    def root_id(self):
        return self.node_ids[0]

    @property
    def bottom_ids(self):
        return self.level_ids(self.K - 1)

    def children(self, node_id):
        return list(self._children_of.get(node_id, ()))

    def descendants_at_bottom(self, node_id):
        lv = self.levels[self.index(node_id)]
        front = [node_id]
        for _ in range(self.K - 1 - lv):
            front = [c for n in front for c in self.children(n)]
        return front


@dataclass(frozen=True)
class SummingMatrix:
    """Dense 0/1 matrix mapping bottom-level series to every series."""

    entries: np.ndarray            # (M, m_bottom) float64, canonical order
    child_rows: tuple              # per row: tuple of child row positions

    @property
    def M(self):
        return self.entries.shape[0]

    @property
    def m_bottom(self):
        return self.entries.shape[1]


def build_summing_matrix(h: Hierarchy) -> SummingMatrix:
    bottom = h.bottom_ids
    col_of = {n: j for j, n in enumerate(bottom)}
    S = np.zeros((h.M, len(bottom)))
    for i, node_id in enumerate(h.node_ids):
        for leaf in h.descendants_at_bottom(node_id):
            S[i, col_of[leaf]] = 1.0
    child_rows = tuple(
        tuple(h._row_of[c] for c in h.children(n)) for n in h.node_ids
    )
    return SummingMatrix(entries=S, child_rows=child_rows)


def aggregate(S: SummingMatrix, bottom: np.ndarray) -> np.ndarray:
    """Map bottom-level rows (T, m_bottom) to all-series rows (T, M)."""
    bottom = np.asarray(bottom, dtype=float)
    if bottom.ndim != 2 or bottom.shape[1] != S.m_bottom:
        raise DataError(
            f"expected bottom matrix with {S.m_bottom} columns, "
            f"got shape {bottom.shape}"
        )
    return bottom @ S.entries.T


def coherence_violation(S: SummingMatrix, forecasts: np.ndarray) -> float:
    """Max |node value - sum of its direct children| over all steps."""
    forecasts = np.asarray(forecasts, dtype=float)
    if forecasts.ndim == 1:
        forecasts = forecasts[None, :]
    if forecasts.shape[1] != S.M:
        raise DataError(
            f"expected forecasts with {S.M} columns, got shape {forecasts.shape}"
        )
    if not np.all(np.isfinite(forecasts)):
        raise DataError("forecasts contain non-finite values")
    worst = 0.0
    for i, kids in enumerate(S.child_rows):
        if not kids:
            continue
        gap = np.abs(forecasts[:, i] - forecasts[:, list(kids)].sum(axis=1))
        worst = max(worst, float(gap.max()))
    return worst


# ---------------------------------------------------------------------------
# Observation panel
# ---------------------------------------------------------------------------

_CAL_DEFAULT = ("dow", "month")
# largest parent-vs-children gap an observed panel may show
EPS_DATA = 1e-6


def calendar_matrix(timestamps, kinds=_CAL_DEFAULT):
    """One-hot calendar dummies (first category dropped per kind).

    Supported kinds: "dow" (6 columns, Monday dropped) and "month" (11
    columns, January dropped).
    """
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    names, cols = [], []
    for kind in kinds:
        if kind == "dow":
            idx = (ts.astype("datetime64[D]").view("int64") + 3) % 7
            cats = range(1, 7)
        elif kind == "month":
            idx = ts.astype("datetime64[M]").view("int64") % 12 + 1
            cats = range(2, 13)
        else:
            raise DataError(f"unknown calendar feature {kind!r}")
        for c in cats:
            names.append(f"{kind}_{c}")
            cols.append((idx == c).astype(float))
    if not cols:
        return [], np.zeros((len(ts), 0))
    return names, np.column_stack(cols)


@dataclass
class SeriesPanel:
    """Aligned observations for every node plus per-node exogenous columns."""

    hierarchy: Hierarchy
    timestamps: np.ndarray                 # datetime64[s], strictly increasing
    values: np.ndarray                     # (T, M), canonical node order
    exog: dict = field(default_factory=dict)   # node_id -> (names, (T, d))
    calendar: tuple = _CAL_DEFAULT

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.values = np.asarray(self.values, dtype=float)
        T = len(self.timestamps)
        if self.values.shape != (T, self.hierarchy.M):
            raise DataError(
                f"values shape {self.values.shape} does not match "
                f"{T} timestamps x {self.hierarchy.M} nodes"
            )
        if T > 1 and not np.all(np.diff(self.timestamps.view("int64")) > 0):
            raise DataError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("observations contain non-finite values")
        S = build_summing_matrix(self.hierarchy)
        gap = coherence_violation(S, self.values)
        if gap > EPS_DATA:
            raise DataError(
                f"observed data violates aggregation constraints by {gap:.3g} "
                f"(limit {EPS_DATA:.3g})"
            )
        for node_id, (names, mat) in self.exog.items():
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (T, len(names)):
                raise DataError(
                    f"exog for node {node_id!r} has shape {mat.shape}, "
                    f"expected ({T}, {len(names)})"
                )
            if not np.all(np.isfinite(mat)):
                raise DataError(f"exog for node {node_id!r} has non-finite values")
            self.exog[node_id] = (list(names), mat)

    @property
    def T(self):
        return len(self.timestamps)

    def series(self, node_id):
        return self.values[:, self.hierarchy.index(node_id)]

    def exog_for(self, node_id):
        """Exogenous matrix for a node.

        Interior nodes without their own columns inherit the mean of their
        bottom descendants' columns (a 0/1 promotion flag becomes the
        fraction of descendants in promotion).
        """
        if node_id in self.exog:
            return self.exog[node_id]
        leaves = [n for n in self.hierarchy.descendants_at_bottom(node_id)
                  if n in self.exog]
        if not leaves:
            return [], np.zeros((self.T, 0))
        names = self.exog[leaves[0]][0]
        for n in leaves[1:]:
            if self.exog[n][0] != names:
                raise DataError(
                    f"cannot aggregate exog under {node_id!r}: descendants "
                    "carry different variable sets"
                )
        stacked = np.stack([self.exog[n][1] for n in leaves])
        return list(names), stacked.mean(axis=0)

    def slice_rows(self, start, stop):
        exog = {n: (names, mat[start:stop]) for n, (names, mat) in self.exog.items()}
        return SeriesPanel(
            hierarchy=self.hierarchy,
            timestamps=self.timestamps[start:stop],
            values=self.values[start:stop],
            exog=exog,
            calendar=self.calendar,
        )


def feature_matrix(panel: SeriesPanel, child_ids):
    """Per-step feature rows (T, d): child exog columns in canonical child
    order, then calendar dummies (one-hot, first category dropped)."""
    return np.column_stack(
        [panel.exog_for(child)[1] for child in child_ids]
        + [calendar_matrix(panel.timestamps, panel.calendar)[1]])


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _parse_ts(token):
    try:
        ts = np.datetime64(token).astype("datetime64[s]")
        if not np.isnat(ts):
            return ts
    except ValueError:
        pass
    raise DataError(f"unparseable timestamp {token!r}")


def format_timestamp(ts, date_only):
    ts = np.datetime64(ts, "s")
    return str(ts.astype("datetime64[D]")) if date_only else str(ts)


def timestamps_are_dates(timestamps):
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    return bool(np.all(ts == ts.astype("datetime64[D]").astype("datetime64[s]")))


@contextmanager
def _open_csv(path):
    """``path`` opened as UTF-8 text for csv (a leading BOM is skipped);
    bytes that are not UTF-8 are a DataError naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_hierarchy(path) -> Hierarchy:
    """Read a hierarchy CSV with header node_id,parent_id,level."""
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        required = {"node_id", "parent_id", "level"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected header node_id,parent_id,level")
        try:
            nodes = [(row["node_id"], row["parent_id"], int(row["level"]))
                     for row in reader]
        except UnicodeDecodeError:      # the file's fault, not the line's
            raise
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not nodes:
        raise DataError(f"{path}: empty hierarchy file")
    return Hierarchy.from_nodes(nodes)


def _parse_long_csv(path, columns, value):
    """The row parse of :func:`read_long_csv`: the file's distinct instants,
    in first appearance; its keys, in first appearance; and each row's
    instant id, key id and value, as arrays."""
    expected = ",".join(("timestamp", *columns, value))
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if value == "error" and value not in header:
            value = "value"    # an errors file may name its column "value"
        if not {"timestamp", *columns, value} <= set(header):
            raise DataError(f"{path}: expected header {expected}")
        stamp_value = itemgetter(header.index("timestamp"), header.index(value))
        key_of = itemgetter(*(header.index(c) for c in columns))
        stamp_ids, stamp_lines, key_ids = {}, [], {}
        row_stamp, row_key, row_value = array("l"), array("l"), array("d")
        for row in reader:
            if not row:
                continue
            try:
                stamp, text = stamp_value(row)
                key = key_of(row)
                number = float(text)
            except IndexError:
                raise DataError(f"{path}: line {reader.line_num}: expected "
                                f"{len(header)} fields, got {len(row)}") from None
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
            t = stamp_ids.get(stamp)
            if t is None:
                t = stamp_ids[stamp] = len(stamp_lines)
                stamp_lines.append(reader.line_num)
            j = key_ids.get(key)
            if j is None:
                j = key_ids[key] = len(key_ids)
            row_stamp.append(t)
            row_key.append(j)
            row_value.append(number)
    instants = np.empty(len(stamp_ids), dtype="datetime64[s]")
    for stamp, t in stamp_ids.items():
        try:
            instants[t] = _parse_ts(stamp)
        except DataError as exc:
            raise DataError(f"{path}: line {stamp_lines[t]}: {exc}") from None
    return (instants, list(key_ids), np.asarray(row_stamp), np.asarray(row_key),
            np.asarray(row_value))


# The parse of a long-format CSV is kept in CACHE_DIR next to it, stored by
# its first read or by _write_long: a JSON line {"tag", "keys", "sizes":
# [n_instants, n_rows]}, then the instants and each row's instant id, key id
# and value as little-endian 8-byte words.  An entry is used only when its
# tag (file size and checksums, reader arguments, _CACHE_FORMAT) matches.
CACHE_DIR = ".hiercast-cache"
_CACHE_FORMAT = 2


def _checksums(path):
    """The file's size, CRC-32 and Adler-32, read in chunks."""
    size, crc, adler = 0, 0, 1
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size += len(chunk)
            crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
    return size, crc, adler


def _tag(sums, columns, value):
    return [_CACHE_FORMAT, *sums, *columns, value]


def _entry(path):
    return os.path.join(os.path.dirname(path), CACHE_DIR,
                        os.path.basename(path) + ".parse")


def _cached_parse(path, columns, value):
    """:func:`_parse_long_csv` of ``path``, from its cache entry when the
    entry's tag matches, else parsed and then stored."""
    try:
        seen = os.stat(path)
        sums = _checksums(path) if S_ISREG(seen.st_mode) else None
    except OSError:
        sums = None
    if sums is None:
        return _parse_long_csv(path, columns, value)
    try:
        with open(_entry(path), "rb") as fh:
            head, payload = json.loads(fh.readline()), fh.read()
        T, N = sizes = head["sizes"]
        if (head["tag"] == _tag(sums, columns, value)
                and all(type(n) is int and n >= 0 for n in sizes)
                and len(payload) == 8 * (T + 3 * N)):
            instants, row_stamp, row_key, row_value = np.split(
                np.frombuffer(payload, "<i8"), [T, T + N, T + 2 * N])
            keys = head["keys"] if len(columns) == 1 else list(map(tuple, head["keys"]))
            return (instants.view("<M8[s]"), keys, row_stamp, row_key,
                    row_value.view("<f8"))
    except (OSError, ValueError, KeyError, TypeError):
        pass
    parsed = _parse_long_csv(path, columns, value)
    _store(path, seen, sums, columns, value, parsed)
    return parsed


def _store(path, seen, sums, columns, value, parsed):
    """Write the ``parsed`` rows of ``path`` as its entry, tagged with its
    checksums ``sums`` and the reader's ``columns`` and ``value``, through a
    temporary file renamed into place; equal input gives equal bytes.  No
    write when ``path`` changed since its stat ``seen`` or on an OSError (a
    read-only directory, a full disk).  Prunes the directory's stale entries."""
    instants, keys, *rows = parsed
    head = json.dumps({"tag": _tag(sums, columns, value), "keys": keys,
                       "sizes": [len(instants), len(rows[0])]}, separators=(",", ":"))
    entry = _entry(path)
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        now = os.stat(path)
        if (now.st_size, now.st_mtime_ns) != (seen.st_size, seen.st_mtime_ns):
            return
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(head.encode() + b"\n")
            for words, dtype in zip((instants, *rows), ("<M8[s]", "<i8", "<i8", "<f8")):
                fh.write(np.asarray(words, dtype).tobytes())
        os.replace(tmp, entry)
        _prune(os.path.dirname(entry))
    except OSError:
        with suppress(OSError):
            os.remove(tmp)


def _prune(cache_dir):
    """Remove the entries in ``cache_dir`` whose CSV no longer exists, and
    the .npz entries of the first cache format."""
    home = os.path.dirname(cache_dir)
    for name in os.listdir(cache_dir):
        stem, suffix = os.path.splitext(name)
        if suffix == ".npz" or (suffix == ".parse"
                                and not os.path.exists(os.path.join(home, stem))):
            with suppress(OSError):
                os.remove(os.path.join(cache_dir, name))


def read_long_csv(path, columns, value, what, keys=None, timestamps=None):
    """Read a long-format CSV straight into its matrix.

    The file has a ``timestamp`` column, the key ``columns`` and a numeric
    ``value`` column, in any order; other columns are ignored.  Returns
    ``(timestamps, keys, matrix)`` with ``matrix[t, j]`` the value at
    ``timestamps[t]`` for ``keys[j]``: a node id for one key column, a tuple
    of cells for several.  ``timestamps`` defaults to the file's distinct
    instants, sorted, and ``keys`` to the file's keys in first appearance
    (or is a function of those).  Rows at other instants or with other keys
    are ignored; when a cell repeats, the later row wins.  Each distinct
    timestamp is parsed once.  A short row or a cell that does not parse is
    a DataError naming the file and line; a missing cell, one naming its
    key and timestamp.

    The row parse is cached in ``CACHE_DIR`` next to the file, so a later
    read of the same bytes skips it; the results are the same either way.
    """
    instants, file_keys, row_stamp, row_key, row_value = _cached_parse(
        path, columns, value)
    if timestamps is None:
        # the distinct instants, sorted (np.unique would import numpy.ma)
        timestamps = np.sort(instants)
        distinct = np.ones(len(timestamps), bool)
        distinct[1:] = timestamps[1:] != timestamps[:-1]
        timestamps = timestamps[distinct]
    if keys is None or callable(keys):
        keys = keys(list(file_keys)) if keys else file_keys
    # each row's cell of the flat matrix; a row at another instant or with
    # another key goes to a spare cell past its end
    row_at = {ts: t for t, ts in enumerate(timestamps.view("int64").tolist())}
    col_at = {key: j for j, key in enumerate(keys)}
    cell = np.array([row_at.get(ts, -1) for ts in instants.view("int64").tolist()], int)
    cell = cell[row_stamp]
    col = np.array([col_at.get(key, -1) for key in file_keys], int)[row_key]
    outside = (cell < 0) | (col < 0)
    cell *= len(keys)
    cell += col
    size = len(timestamps) * len(keys)
    cell[outside] = size
    last = np.full(size + 1, -1)        # each cell's last row, then the spare
    np.maximum.at(last, cell, np.arange(len(cell)))
    if (last[:size] < 0).any():
        t, j = divmod(int(np.argmax(last[:size] < 0)), len(keys))
        key = keys[j] if isinstance(keys[j], str) else ", ".join(keys[j])
        raise DataError(f"{path}: missing {what} for {key} at {timestamps[t]}")
    matrix = row_value[last[:size]].reshape(len(timestamps), len(keys))
    return timestamps, keys, matrix


def load_error_matrix(path, hierarchy):
    """The (timestamps, M) matrix of a long-format errors CSV; a DataError
    names the first cell that is not finite."""
    timestamps, _, errors = read_long_csv(path, ("node_id",), "error", "error",
                                          hierarchy.node_ids)
    bad = ~np.isfinite(errors)
    if bad.any():
        t, j = divmod(int(np.argmax(bad)), hierarchy.M)
        raise DataError(f"{path}: non-finite error for {hierarchy.node_ids[j]} "
                        f"at {timestamps[t]}")
    return errors


def load_panel(hierarchy, obs_path, exog_path=None,
               calendar=_CAL_DEFAULT) -> SeriesPanel:
    """Read long-format observation (and optional exogenous) CSVs.

    Columns follow hierarchy order; exog variables are sorted per node and
    aligned to the observation timestamps.
    """
    timestamps, _, values = read_long_csv(obs_path, ("node_id",), "value",
                                          "observation", hierarchy.node_ids)
    if not len(timestamps):
        raise DataError(f"{obs_path}: empty observations file")
    exog = {}
    if exog_path is not None:
        _, keys, mat = read_long_csv(exog_path, ("node_id", "variable"), "value",
                                     "exog value", sorted, timestamps)
        columns = {}
        for j, (node_id, _) in enumerate(keys):
            columns.setdefault(node_id, []).append(j)
        for node_id, cols in columns.items():
            exog[node_id] = ([keys[j][1] for j in cols], mat[:, cols])
    return SeriesPanel(hierarchy, timestamps, values, exog, calendar)


def write_hierarchy(hierarchy, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "parent_id", "level"])
        for node_id, parent_id, level in zip(
            hierarchy.node_ids, hierarchy.parent_ids, hierarchy.levels
        ):
            writer.writerow([node_id, parent_id or "", level])


def _csv_cell(text):
    """``text`` as csv.writer writes it in a row of several cells."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[:-3]      # drop the empty cell and the line end


def _write_long(path, columns, value, timestamps, node_ids, values, suffix=()):
    """The long-format file that ``read_long_csv(path, columns, value, ...)``
    reads: the header ``timestamp,columns[0],value,*columns[1:]``, then one
    ``stamp,node,repr(value),*suffix`` row per (timestamp, node), the bytes
    csv.writer would write, in UTF-8, with one write per timestamp.

    The file's parse-cache entry is stored as the first read would store it,
    from the arrays in hand and the checksums of the bytes written.  It is
    left out, and the first read parses the file, when the parse could give
    other arrays: a stamp or key that repeats, a value that is not finite
    (``float(repr(nan))`` need not keep the NaN's bits), a stamp that does
    not parse back, or no rows."""
    date_only = timestamps_are_dates(timestamps)
    stamps = [format_timestamp(ts, date_only) for ts in timestamps]
    cells = [_csv_cell(n) for n in node_ids]
    end = "".join("," + _csv_cell(s) for s in suffix) + "\r\n"
    header = ",".join(("timestamp", columns[0], value, *columns[1:])) + "\r\n"
    rows = ("".join([f"{stamp},{c},{v!r}{end}" for c, v in zip(cells, row)])
            for stamp, row in zip(stamps, values.tolist()))
    size, crc, adler = 0, 0, 1
    with open(path, "wb") as fh:
        for text in chain([header], rows):
            data = text.encode("utf-8")
            fh.write(data)
            size += len(data)
            crc, adler = zlib.crc32(data, crc), zlib.adler32(data, adler)
    keys = [(n, *suffix) for n in node_ids] if len(columns) > 1 else list(node_ids)
    row_value = np.asarray(values, dtype=float).ravel()
    if not (row_value.size and len(set(stamps)) == len(stamps)
            and len(set(keys)) == len(keys) and np.isfinite(row_value).all()):
        return
    try:
        instants = np.array([_parse_ts(s) for s in stamps], dtype="datetime64[s]")
        seen = os.stat(path)
    except (DataError, OSError):        # a NaT stamp; the file is gone
        return
    if S_ISREG(seen.st_mode):
        T, M = len(stamps), len(keys)
        _store(path, seen, (size, crc, adler), columns, value, (
            instants, keys, np.repeat(np.arange(T, dtype="l"), M),
            np.tile(np.arange(M, dtype="l"), T), row_value))


def write_observations(panel, path):
    _write_long(path, ("node_id",), "value", panel.timestamps,
                panel.hierarchy.node_ids, panel.values)


def write_exog(panel, path):
    date_only = timestamps_are_dates(panel.timestamps)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "node_id", "variable", "value"])
        for node_id in sorted(panel.exog):
            names, mat = panel.exog[node_id]
            for t, ts in enumerate(panel.timestamps):
                stamp = format_timestamp(ts, date_only)
                for j, var in enumerate(names):
                    writer.writerow([stamp, node_id, var, repr(float(mat[t, j]))])
