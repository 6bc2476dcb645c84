"""Command-line surface.

Subcommands: synth | forecast | reconcile | nnd | evaluate | plot |
fetch-italian.  Each subcommand's options are rows of ``COMMANDS``; a
row's key ``out_dir`` is the flag ``--out-dir`` and the config-file key
``out_dir`` (precedence: flag > file > default).  Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure; failures print a
machine-readable JSON object on stderr.

Only what every subcommand uses is imported here; each ``cmd_*`` imports
the modules it runs, so ``reconcile`` and ``evaluate`` never load the
network engine, model selection or NND.
"""

import argparse
import configparser
import csv
import json
import os
import sys
from importlib import import_module

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, HiercastError, NumericError
from .forecastset import ForecastSet, read_forecast_set
from .hierarchy import (Hierarchy, SeriesPanel, build_summing_matrix,
                        calendar_matrix, coherence_violation, feature_matrix,
                        format_timestamp, load_error_matrix, load_hierarchy,
                        load_panel, timestamps_are_dates, write_exog,
                        write_hierarchy, write_observations, _parse_ts)

ITALIAN_URL = "https://data.mendeley.com/public-api/datasets/s8dgbs3rng/files?folder_id=root&version=1"

# error -> exit code, first match wins; main() catches exactly these
EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4,
              np.linalg.LinAlgError: 4, HiercastError: 2}


# ---------------------------------------------------------------------------
# Casts and settings: flag > config file > default
# ---------------------------------------------------------------------------

def _bool(token):
    t = str(token).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {token!r}")


def _int_list(token):
    return tuple(int(x) for x in str(token).split(",") if x.strip())


def _float_list(token):
    return tuple(float(x) for x in str(token).split(",") if x.strip())


def _str_list(token):
    items = [x.strip() for x in str(token).split(",") if x.strip()]
    if not items:
        raise ConfigError(f"{token!r} lists no names")
    return items


def _one_of(table, what, parse=str.lower):
    """A cast that parses a token (by default, lower-cases a name) and
    rejects a value not in ``table``, named ``"module.NAME"``: the module
    is imported when the cast runs, so only its subcommand loads it."""
    def cast(token):
        module, attr = table.split(".")
        choices = getattr(import_module(f"{__package__}.{module}"), attr)
        name = parse(token)
        if name not in choices:
            raise ConfigError(f"unknown {what} {name!r} "
                              f"(choose from {', '.join(map(str, choices))})")
        return name
    return cast


def _methods(token):
    method = _one_of("reconcile.METHODS", "reconciliation method")
    return [method(m) for m in _str_list(token)]


def _unit_float(token):
    x = float(token)
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"{x} lies outside [0, 1]")
    return x


def load_config_file(path, command=None):
    """Flat key=value config with sections; all sections are merged, the
    one named after ``command`` last so that its keys win."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    merged = dict(parser.defaults())
    for section in sorted(parser.sections(), key=lambda name: name == command):
        merged.update(parser.items(section))
    return merged


REQUIRED = object()   # the default of a setting that has none


def settings(args, rows):
    """Each ``(key, cast, default)`` row's value: the flag, else the config
    file, else the default.  Flag and file strings go through the same cast;
    one that does not cast, a REQUIRED one missing or empty, or a file key
    that no subcommand's row declares is a ConfigError."""
    flags = vars(args)
    file = load_config_file(args.config, args.command) if args.config else {}
    declared = {key for _, _, cmd_rows in COMMANDS.values() for key, _, _ in cmd_rows}
    unknown = sorted(set(file) - declared)
    if unknown:
        raise ConfigError(f"config file {args.config}: no subcommand reads "
                          f"the key(s) {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, cast, default in rows:
        raw = flags[key] if flags[key] is not None else file.get(key)
        if default is REQUIRED and not raw:
            raise ConfigError(f"missing required setting {key!r}")
        if raw is None:
            cfg[key] = default
        else:
            try:
                cfg[key] = cast(raw)
            except (ValueError, TypeError, ConfigError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return cfg


def _require_file(path, role):
    if not os.path.exists(path):
        raise ConfigError(f"{role} file not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"{role} file is a directory: {path}")
    return path


def _load_inputs(cfg):
    hier = load_hierarchy(_require_file(cfg["hierarchy"], "hierarchy"))
    if cfg["exog"] is not None:
        _require_file(cfg["exog"], "exogenous")
    panel = load_panel(
        hier, _require_file(cfg["observations"], "observations"), cfg["exog"],
    )
    return hier, panel


def _split_index(cfg, panel):
    """Training size from either an integer row count or a date string."""
    raw = cfg["split"]
    try:
        n_train = int(raw)
    except (TypeError, ValueError):
        ts = _parse_ts(str(raw))
        n_train = int(np.searchsorted(panel.timestamps, ts, side="right"))
    if not 2 <= n_train <= panel.T:
        raise ConfigError(
            f"split {raw!r} leaves {n_train} training rows "
            f"(panel has {panel.T})"
        )
    return n_train


def _future_timestamps(panel, n_train, h):
    if n_train + h <= panel.T:
        return panel.timestamps[n_train:n_train + h]
    spacing = (panel.timestamps[-1] - panel.timestamps[-2]
               if panel.T > 1 else np.timedelta64(86400, "s"))
    last = panel.timestamps[n_train - 1]
    return last + spacing * np.arange(1, h + 1)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(cfg):
    from .synthetic import GeneratorSpec, write_dataset

    spec = GeneratorSpec(
        children_per_level=cfg["children_per_level"], T=cfg["t"],
        m_season=cfg["m_season"], base_level=cfg["base_level"],
        seasonal_amplitude=cfg["seasonal_amplitude"], trend=cfg["trend"],
        noise_sigma=cfg["noise_sigma"], regime=cfg["regime"],
        promo_prob=cfg["promo_prob"], promo_lift=cfg["promo_lift"],
        fixed_shares=cfg["fixed_shares"], seed=cfg["seed"], start=cfg["start"],
    )
    write_dataset(spec, cfg["out"])
    print(f"wrote synthetic dataset ({spec.regime} regime, seed {spec.seed}) "
          f"to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def _resolve_nodes(hier, token):
    if token in (None, "all"):
        return list(hier.node_ids)
    try:
        if str(token).startswith("level:"):
            level = int(str(token).split(":", 1)[1])
            if not 0 <= level <= hier.K - 1:
                raise ConfigError(f"no level {level} in a {hier.K}-level hierarchy")
            return hier.level_ids(level)
        nodes = _str_list(token)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for 'nodes': {exc}") from None
    for n in nodes:
        hier.index(n)
    return nodes


def cmd_forecast(cfg):
    from .evaluate import CVConfig
    from .forecasters import default_candidates, select_models
    from .seeding import derive_seed

    hier, panel = _load_inputs(cfg)
    n_train = _split_index(cfg, panel)
    h, m_season, out = cfg["horizon"], cfg["m_season"], cfg["out"]
    nodes = _resolve_nodes(hier, cfg["nodes"])
    cv = CVConfig.last_folds(n_train, h, m_season, start=cfg["cv_start"],
                             end=cfg["cv_end"], step=cfg["cv_step"])

    Xs = [feature_matrix(panel, [node_id]) for node_id in nodes]
    Xs = [X if X.shape[1] else None for X in Xs]
    cands = [default_candidates(
        m_season,
        narx_seed=derive_seed(cfg["seed"], f"fstar:{node_id}"),
        include_narx=cfg["include_narx"],
        include_combinations=cfg["include_combinations"],
    ) for node_id in nodes]
    selected = select_models(
        np.column_stack([panel.series(node_id)[:n_train] for node_id in nodes]),
        [X[:n_train] if X is not None else None for X in Xs], cands, cv,
        m_season=m_season,
    )
    future = _future_timestamps(panel, n_train, h)
    calendar = calendar_matrix(future, panel.calendar)[1]
    values = np.empty((h, len(nodes)))
    chosen = {}
    for j, (node_id, X, result) in enumerate(zip(nodes, Xs, selected)):
        if isinstance(result, HiercastError):
            raise result
        fitted, kind, score = result
        X_future = None
        if X is not None and n_train + h <= panel.T:
            X_future = X[n_train:n_train + h]
        elif X is not None and X.shape[1] == calendar.shape[1]:
            X_future = calendar      # a calendar-only node past the panel's end
        values[:, j] = fitted.forecast(h, X_future)
        chosen[node_id] = {"model": kind, "cv_mase": score}

    fs = ForecastSet(method="fstar", node_ids=tuple(nodes), timestamps=future,
                     values=values)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    fs.write_csv(out)
    meta_path = os.path.splitext(out)[0] + "_models.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(chosen, fh, indent=2, sort_keys=True)
    print(f"wrote base forecasts for {len(nodes)} nodes to {out}")
    return 0


# ---------------------------------------------------------------------------
# reconcile
# ---------------------------------------------------------------------------

def cmd_reconcile(cfg):
    from .reconcile import METHODS, reconcile

    hier, panel = _load_inputs(cfg)
    S = build_summing_matrix(hier)
    fs = read_forecast_set(_require_file(cfg["base"], "base forecast"))
    base = np.column_stack([fs.column(n) for n in hier.node_ids])
    hist = (panel if cfg["split"] is None
            else panel.slice_rows(0, _split_index(cfg, panel)))
    methods, errors = cfg["methods"], None
    if cfg["errors"] is not None and any("errors" in METHODS[m] for m in methods):
        errors = load_error_matrix(_require_file(cfg["errors"], "errors"), hier)
    outputs = {m: reconcile(m, S, hier, base, hist, cfg["middle_level"],
                            errors, cfg["shrinkage"]) for m in methods}
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for method, values in outputs.items():
        gap = coherence_violation(S, values)
        if gap > 1e-9:
            raise NumericError(f"{method} output violates coherence by {gap:.3g}")
        ForecastSet(method, hier.node_ids, fs.timestamps,
                    values).write_csv(os.path.join(out_dir, f"{method}.csv"))
    print(f"wrote {len(outputs)} coherent forecast sets to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# nnd
# ---------------------------------------------------------------------------

def _nnd_config(cfg):
    from .neuralnet import TrainConfig
    from .nnd import ArchConfig, NndConfig, WindowConfig

    train = TrainConfig(
        alpha=cfg["alpha"], learning_rate=cfg["lr"],
        batch_size=cfg["batch"], max_epochs=cfg["epochs"],
        patience=cfg["patience"], validation_fraction=cfg["val_fraction"],
    )
    arch = ArchConfig(
        hidden=cfg["hidden"], n_dense=cfg["n_dense"], filters=cfg["filters"],
        n_conv=cfg["n_conv"], kernel_size=cfg["kernel_size"], grid=cfg["grid"],
    )
    return NndConfig(
        window=WindowConfig(w=cfg["window"], hop=cfg["hop"]),
        train=train, arch=arch, seed=cfg["seed"], jobs=cfg["jobs"],
    )


def cmd_nnd(cfg):
    from .neuralnet import save_network
    from .nnd import run

    ncfg = _nnd_config(cfg)
    hier, panel = _load_inputs(cfg)
    n_train = _split_index(cfg, panel)
    h, strategy, out_dir = cfg["horizon"], cfg["strategy"], cfg["out_dir"]
    result = run(strategy, panel, n_train, h, ncfg, cfg["middle_level"],
                 cfg["m_season"])

    models_dir = os.path.join(out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    ForecastSet(
        method=strategy, node_ids=tuple(hier.node_ids),
        timestamps=_future_timestamps(panel, n_train, h),
        values=result.values,
    ).write_csv(os.path.join(out_dir, "forecasts.csv"))
    for parent_id, net in sorted(result.models.items()):
        save_network(net, os.path.join(models_dir, f"{parent_id}.net"))
    with open(os.path.join(out_dir, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "strategy": strategy,
            "seed": ncfg.seed,
            "raw_violations": {k: float(v) for k, v in
                               sorted(result.raw_violations.items())},
            "root_forecast": [float(v) for v in result.root_forecast],
        }, fh, indent=2, sort_keys=True)
    print(f"wrote {strategy} forecasts and {len(result.models)} model(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(cfg):
    from .evaluate import SCORERS, EvalReport, nemenyi_svg

    hier, panel = _load_inputs(cfg)
    n_train = _split_index(cfg, panel)
    metric = cfg["metric"]
    score = SCORERS[metric]
    m_season, out_dir, paths = cfg["m_season"], cfg["out_dir"], cfg["forecasts"]

    sets = [read_forecast_set(_require_file(p, "forecast")) for p in paths]
    methods = [fs.method for fs in sets]
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate method names across forecast files: {methods}")

    h = sets[0].horizon if cfg["horizon"] is None else cfg["horizon"]
    for p, fs in zip(paths, sets):
        if fs.horizon != h:
            raise ConfigError(
                f"forecast file {p} covers {fs.horizon} steps, not the horizon {h}"
            )
    if n_train + h > panel.T:
        raise DataError(
            f"need {h} held-out rows after the split, panel has {panel.T - n_train}"
        )

    report = EvalReport(methods=methods, metric=metric)
    for node_id in hier.node_ids:
        idx = hier.index(node_id)
        actual = panel.values[n_train:n_train + h, idx]
        insample = panel.values[:n_train, idx]
        scores = {}
        try:
            for fs in sets:
                scores[fs.method] = score(actual, fs.column(node_id), insample,
                                          m_season)
        except NumericError as exc:
            report.flagged[node_id] = str(exc)
            continue
        report.series_scores[node_id] = scores
        report.series_levels[node_id] = hier.levels[idx]

    if cfg["rank_tests"]:
        report.run_rank_tests(cfg["significance"])

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    if report.nemenyi is not None:
        with open(os.path.join(out_dir, "nemenyi.svg"), "w", encoding="utf-8") as fh:
            fh.write(nemenyi_svg(report.nemenyi))
    print(f"evaluated {len(methods)} method(s) on {len(report.series_scores)} "
          f"series; report in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _line_plot_svg(timestamps, series, width=720, height=300, margin=50):
    """series: list of (label, values, dash) aligned with timestamps."""
    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, v, _ in series])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    span = hi - lo or 1.0
    n = len(timestamps)

    def px(i):
        return margin + (i / max(n - 1, 1)) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - lo) / span * (height - 2 * margin)

    date_only = timestamps_are_dates(timestamps)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">'
        f'{format_timestamp(timestamps[0], date_only)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'text-anchor="end" font-size="11">'
        f'{format_timestamp(timestamps[-1], date_only)}</text>',
        f'<text x="{margin - 6}" y="{py(hi) + 4:.2f}" text-anchor="end" '
        f'font-size="11">{hi:.2f}</text>',
        f'<text x="{margin - 6}" y="{py(lo) + 4:.2f}" text-anchor="end" '
        f'font-size="11">{lo:.2f}</text>',
    ]
    colors = ["black", "#c62828", "#1565c0", "#2e7d32"]
    for s, (label, values, dash) in enumerate(series):
        pts = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(values))
        stroke = colors[s % len(colors)]
        dash_attr = ' stroke-dasharray="6,4"' if dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{width - margin}" y="{margin + 14 * s}" text-anchor="end" '
            f'font-size="12" fill="{stroke}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(cfg):
    hier, panel = _load_inputs(cfg)
    fs = read_forecast_set(_require_file(cfg["forecasts"], "forecast"))
    nodes = _resolve_nodes(hier, cfg["nodes"])

    # align the forecast window with the panel by timestamp
    ts_index = {str(ts): t for t, ts in enumerate(panel.timestamps)}
    positions = [ts_index.get(str(ts)) for ts in fs.timestamps]
    if any(p is None for p in positions):
        raise DataError("forecast timestamps not found in the observation panel")
    start, stop = positions[0], positions[-1] + 1
    context = max(0, start - 4 * fs.horizon)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    for node_id in nodes:
        actual = panel.series(node_id)[context:stop]
        pad = np.concatenate([actual[:start - context], fs.column(node_id)])
        svg = _line_plot_svg(
            panel.timestamps[context:stop],
            [("actual", actual, False),
             (fs.method, pad, True)],
        )
        with open(os.path.join(out_dir, f"plot_{node_id}.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(svg)
    print(f"wrote {len(nodes)} plot(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fetch-italian
# ---------------------------------------------------------------------------

def _italian_to_panel(table):
    """Convert the wide pasta-demand table (DATE, QTY_B*_*, PROMO_B*_*)
    to the standard triplet structures.  A short row, a bad date or a
    non-numeric cell is a DataError naming the row and column; an empty
    PROMO_ cell is 0, an empty QTY_ cell is an error."""
    if len(table) < 2:
        raise DataError("the Italian dataset table holds no data rows")
    header = table[0]
    qty_cols = {}
    promo_cols = {}
    date_col = None
    for j, name in enumerate(header):
        u = str(name).strip().upper()
        if u in ("DATE", "DATA", "TIMESTAMP"):
            date_col = j
        elif u.startswith("QTY_"):
            qty_cols[u[4:]] = j
        elif u.startswith("PROMO_"):
            promo_cols[u[6:]] = j
    if date_col is None or not qty_cols:
        raise DataError("unrecognized Italian dataset layout")

    items = sorted(qty_cols)
    brands = sorted({it.rsplit("_", 1)[0] for it in items})
    nodes = [("total", None, 0)]
    nodes += [(b, "total", 1) for b in brands]
    nodes += [(it, it.rsplit("_", 1)[0], 2) for it in items]
    hier = Hierarchy.from_nodes(nodes)

    rows = table[1:]

    def column(j, parse):
        """parse(cell) of column j in every row; row 1 follows the header."""
        out = []
        for i, r in enumerate(rows, start=1):
            where = f"row {i}, column {str(header[j]).strip()!r}"
            if j >= len(r):
                raise DataError(f"{where}: the row has only {len(r)} cells")
            try:
                out.append(parse(str(r[j]).strip()))
            except (ValueError, DataError) as exc:
                raise DataError(f"{where}: {exc}") from None
        return out

    timestamps = np.array(column(date_col, lambda c: _parse_ts(c.split(" ")[0])),
                          dtype="datetime64[s]")
    values = np.zeros((len(rows), hier.M))
    exog = {}
    for it in items:
        values[:, hier.index(it)] = column(qty_cols[it], float)
        if it in promo_cols:
            promo = np.array(column(promo_cols[it], lambda c: float(c or 0.0)))
            exog[it] = (["promo"], promo[:, None])
    for level in (1, 0):
        for node_id in hier.level_ids(level):
            cols = [hier.index(c) for c in hier.children(node_id)]
            values[:, hier.index(node_id)] = values[:, cols].sum(axis=1)
    return SeriesPanel(hierarchy=hier, timestamps=timestamps, values=values,
                       exog=exog)


def cmd_fetch_italian(cfg):
    from urllib.request import urlopen

    out_dir, url = cfg["out"], cfg["url"]
    try:
        with urlopen(url, timeout=60) as resp:
            payload = resp.read()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot fetch {url}: {exc}") from None
    if url.endswith((".csv", ".txt")) or payload[:4] != b"PK\x03\x04":
        try:
            lines = [ln for ln in payload.decode("utf-8-sig").splitlines() if ln.strip()]
        except UnicodeDecodeError as exc:
            raise DataError(f"{url} is not UTF-8 text: {exc}") from None
        delim = ";" if lines and lines[0].count(";") > lines[0].count(",") else ","
        table = list(csv.reader(lines, delimiter=delim))
    else:
        # Mendeley serves an xlsx; parse it with openpyxl if available.
        try:
            import io

            import openpyxl
        except ImportError:
            raise ConfigError(
                "the Italian dataset ships as .xlsx; install openpyxl or "
                "pass --url pointing at a CSV export"
            ) from None
        wb = openpyxl.load_workbook(io.BytesIO(payload), read_only=True)
        ws = wb[wb.sheetnames[0]]
        table = [[c if c is not None else "" for c in row]
                 for row in ws.iter_rows(values_only=True)]

    panel = _italian_to_panel(table)
    os.makedirs(out_dir, exist_ok=True)
    write_hierarchy(panel.hierarchy, os.path.join(out_dir, "hierarchy.csv"))
    write_observations(panel, os.path.join(out_dir, "observations.csv"))
    if panel.exog:
        write_exog(panel, os.path.join(out_dir, "exog.csv"))
    print(f"wrote Italian dataset ({panel.hierarchy.M} series, "
          f"{panel.T} rows) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Options: one (key, cast, default) row per option drives argparse, the
# config file and the casts
# ---------------------------------------------------------------------------

_INPUTS = [("hierarchy", str, REQUIRED), ("observations", str, REQUIRED),
           ("exog", str, None)]
_SPLIT = ("split", str, REQUIRED)
_HORIZON = ("horizon", int, 7)
_M_SEASON = ("m_season", int, 7)
_SEED = ("seed", int, 0)
_MIDDLE_LEVEL = ("middle_level", int, 1)
_OUT = ("out", str, REQUIRED)
_OUT_DIR = ("out_dir", str, REQUIRED)

# subcommand -> (handler, help, rows)
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic dataset", [
        _OUT, ("children_per_level", _int_list, (3, 4)), ("t", int, 730),
        _M_SEASON, ("base_level", float, 20.0),
        ("seasonal_amplitude", float, 5.0), ("trend", float, 0.0),
        ("noise_sigma", float, 0.5), ("regime", str, "static"),
        ("promo_prob", float, 0.2), ("promo_lift", float, 2.0),
        ("fixed_shares", _float_list, None), _SEED,
        ("start", str, "2015-01-05"),
    ]),
    "forecast": (cmd_forecast, "fit the selected base model per node", [
        *_INPUTS, _SPLIT, ("nodes", str, "all"), _OUT, _HORIZON, _M_SEASON,
        _SEED, ("cv_start", int, None), ("cv_end", int, None),
        ("cv_step", int, None), ("include_narx", _bool, True),
        ("include_combinations", _bool, True),
    ]),
    "reconcile": (cmd_reconcile, "reconcile base forecasts", [
        *_INPUTS, ("base", str, REQUIRED), ("split", str, None),
        ("errors", str, None), _OUT_DIR,
        ("methods", _methods, ("bu", "ahp", "pha", "fp")), _MIDDLE_LEVEL,
        ("shrinkage", _unit_float, None),
    ]),
    "nnd": (cmd_nnd, "neural-network disaggregation end to end", [
        *_INPUTS, _SPLIT,
        ("strategy", _one_of("nnd.STRATEGIES", "NND strategy"), "nnd2"), _OUT_DIR,
        _HORIZON, _M_SEASON, _MIDDLE_LEVEL, ("window", int, 30), ("hop", int, 1),
        ("alpha", float, 0.5), ("lr", float, 0.001), ("epochs", int, 500),
        ("patience", int, 20), ("batch", int, 32),
        ("val_fraction", float, 0.1), ("hidden", int, 64),
        ("n_dense", int, 3), ("filters", int, 16), ("n_conv", int, 6),
        ("kernel_size", int, 4), ("grid", _bool, False), _SEED,
        ("jobs", int, 1),
    ]),
    "evaluate": (cmd_evaluate, "score forecast sets and rank methods", [
        *_INPUTS, _SPLIT, ("metric", _one_of("evaluate.SCORERS", "metric"), "mase"),
        _OUT_DIR, ("forecasts", _str_list, REQUIRED), ("horizon", int, None),
        _M_SEASON,
        ("significance", _one_of("evaluate.Q_TABLE", "significance level", float),
         0.05),
        ("rank_tests", _bool, True),
    ]),
    "plot": (cmd_plot, "true-vs-forecast SVG line plots", [
        *_INPUTS, ("forecasts", str, REQUIRED), ("nodes", str, REQUIRED),
        _OUT_DIR,
    ]),
    "fetch-italian": (cmd_fetch_italian,
                      "download the public Italian grocery dataset "
                      "(network use is opt-in)",
                      [_OUT, ("url", str, ITALIAN_URL)]),
}


def build_parser():
    """Every row is a plain string flag; ``settings`` casts it."""
    parser = argparse.ArgumentParser(
        prog="hiercast",
        description="Hierarchical forecasting: reconciliation and "
                    "neural-network disaggregation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, rows) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file (INI sections)")
        for key, _, _ in rows:
            p.add_argument("--" + key.replace("_", "-"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler, _, rows = COMMANDS[args.command]
    try:
        return handler(settings(args, rows))
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        print(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
