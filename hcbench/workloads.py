"""Benchmark workloads: seeded input generation and the CLI stages to run.

Inputs are built with ``hiercast.synthetic.generate`` and written by the
CSV writers below, so the program under test only ever receives CSV files.
Each workload returns a :class:`Plan`: the ordered ``(stage, argv)`` pairs
for ``hiercast.cli.main`` and which outputs to check.

Sizes are set so one pipeline takes a few seconds on a 2-CPU machine
without numba; ``tiny=True`` gives the same stages on inputs small enough
for a smoke test.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from hiercast.synthetic import GeneratorSpec, generate

WHY = {
    "base-forecast": "model selection dominates: the Holt-Winters grid in "
                     "kernels and NARX training in neuralnet; no conv; the "
                     "work does not depend on which model wins",
    "nnd-train": "NND2 training dominates: conv forward/backward in kernels "
                 "and large-batch Adam steps, plus the root HW selection",
    "wide-reconcile": "no model fitting on a wide tree: CSV load/pivot, O(M^2) "
                      "hierarchy lookups, shrinkage covariance and the MinT solve",
}

RECONCILE_METHODS = "bu,ahp,pha,fp,mo,mint"


@dataclass
class Plan:
    stages: list          # [(stage name, argv for hiercast.cli.main)]
    out_dir: str          # every file below it is hashed
    coherent: list        # forecast CSVs that must be coherent to 1e-9
    report: str           # report.json of the evaluate stage
    headline: str         # method whose bottom-level MASE is bottom_mase
    main_stage: str       # stage whose wall time is main_stage_s


# ---------------------------------------------------------------------------
# CSV writers (the benchmark's own, so the program's writers are not used to
# make its inputs)
# ---------------------------------------------------------------------------

def _stamps(timestamps):
    return [str(ts.astype("datetime64[D]")) for ts in timestamps]


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_hierarchy_csv(hier, path):
    _write_rows(path, ["node_id", "parent_id", "level"],
                ((n, p or "", lv) for n, p, lv in
                 zip(hier.node_ids, hier.parent_ids, hier.levels)))


def write_long_csv(path, header, stamps, node_ids, values, suffix=()):
    """One row per (timestamp, node): ``stamp, node, value, *suffix``."""
    _write_rows(path, header, (
        [stamp, node, repr(float(values[t, j])), *suffix]
        for t, stamp in enumerate(stamps)
        for j, node in enumerate(node_ids)))


def write_exog_csv(panel, path):
    stamps = _stamps(panel.timestamps)
    rows = []
    for node in sorted(panel.exog):
        names, mat = panel.exog[node]
        for t, stamp in enumerate(stamps):
            for j, var in enumerate(names):
                rows.append([stamp, node, var, repr(float(mat[t, j]))])
    _write_rows(path, ["timestamp", "node_id", "variable", "value"], rows)


def write_panel(spec, in_dir):
    """Generate the panel for ``spec`` and write hierarchy, observations and
    (when the regime has any) exog CSVs.  Returns (hier, panel, files)."""
    hier, panel, _ = generate(spec)
    os.makedirs(in_dir, exist_ok=True)
    files = {"hierarchy": os.path.join(in_dir, "hierarchy.csv"),
             "observations": os.path.join(in_dir, "observations.csv")}
    write_hierarchy_csv(hier, files["hierarchy"])
    write_long_csv(files["observations"], ["timestamp", "node_id", "value"],
                   _stamps(panel.timestamps), hier.node_ids, panel.values)
    if panel.exog:
        files["exog"] = os.path.join(in_dir, "exog.csv")
        write_exog_csv(panel, files["exog"])
    return hier, panel, files


def _data_args(files, split):
    args = ["--hierarchy", files["hierarchy"],
            "--observations", files["observations"], "--split", str(split)]
    if "exog" in files:
        args += ["--exog", files["exog"]]
    return args


def _evaluate(files, split, out_dir, forecasts, rank_tests):
    ev_dir = os.path.join(out_dir, "eval")
    argv = (["evaluate"] + _data_args(files, split)
            + ["--forecasts", ",".join(forecasts), "--out-dir", ev_dir,
               "--rank-tests", "true" if rank_tests else "false"])
    return argv, os.path.join(ev_dir, "report.json")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def base_forecast(seed, in_dir, out_dir, tiny=False):
    # One CV fold whose training window is longer than a year, so the month
    # dummies are all present and ARX gets a score on every fold.  The data
    # cycle every 30 days while the CLI keeps its weekly season: ARX's lags
    # model the cycle and win the fold on every node for every seed tried,
    # so no seed adds a Holt-Winters refit to the work.  Equal sibling shares
    # keep bottom_mase from depending on the seed's share draw.
    if tiny:
        fanout, T, h, fold = (2,), 60, 7, None
    else:
        fanout, T, h, fold = (2,), 478, 56, 366
    split = T - h
    spec = GeneratorSpec(children_per_level=fanout, T=T, m_season=30,
                         fixed_shares=(0.5, 0.5), regime="static", seed=seed)
    _, _, files = write_panel(spec, in_dir)
    base = os.path.join(out_dir, "base.csv")
    forecast = (["forecast"] + _data_args(files, split)
                + ["--horizon", str(h), "--seed", str(seed), "--out", base,
                   "--include-narx", "true",
                   "--include-combinations", "false"])
    if fold is not None:
        forecast += ["--cv-start", str(fold), "--cv-end", str(fold)]
    rec_dir = os.path.join(out_dir, "rec")
    reconcile = (["reconcile"] + _data_args(files, split)
                 + ["--base", base, "--methods", RECONCILE_METHODS,
                    "--out-dir", rec_dir])
    coherent = [os.path.join(rec_dir, f"{m}.csv")
                for m in RECONCILE_METHODS.split(",")]
    evaluate, report = _evaluate(files, split, out_dir, coherent, True)
    return Plan([("forecast", forecast), ("reconcile", reconcile),
                 ("evaluate", evaluate)],
                out_dir, coherent, report, headline="bu", main_stage="forecast")


def nnd_train(seed, in_dir, out_dir, tiny=False):
    # patience == epochs, so early stopping never fires and the work is a
    # fixed number of networks x epochs.
    if tiny:
        fanout, T, h, epochs = (2,), 90, 7, 2
    else:
        fanout, T, h, epochs = (2, 8), 250, 28, 10
    split = T - h
    spec = GeneratorSpec(children_per_level=fanout, T=T, regime="switching",
                         seed=seed)
    _, _, files = write_panel(spec, in_dir)
    nnd_dir = os.path.join(out_dir, "nnd")
    nnd = (["nnd"] + _data_args(files, split)
           + ["--strategy", "nnd2", "--horizon", str(h), "--seed", str(seed),
              "--epochs", str(epochs), "--patience", str(epochs),
              "--jobs", "1", "--out-dir", nnd_dir])
    coherent = [os.path.join(nnd_dir, "forecasts.csv")]
    evaluate, report = _evaluate(files, split, out_dir, coherent, False)
    return Plan([("nnd", nnd), ("evaluate", evaluate)],
                out_dir, coherent, report, headline="nnd2", main_stage="nnd")


def wide_reconcile(seed, in_dir, out_dir, tiny=False):
    if tiny:
        fanout, T, h, n_err = (3, 3), 60, 7, 20
    else:
        fanout, T, h, n_err = (6, 6, 6), 300, 28, 60
    split = T - h
    leaves = int(np.prod(fanout))
    # scale the top level with the leaf count so that every leaf keeps the
    # default generator's level and stays positive
    spec = GeneratorSpec(children_per_level=fanout, T=T, regime="static",
                         base_level=20.0 * leaves,
                         seasonal_amplitude=5.0 * leaves, seed=seed)
    hier, panel, files = write_panel(spec, in_dir)

    # base forecasts: truth x (1 + 5% noise); errors: 5% noise on the rows
    # before the split
    rng = np.random.default_rng([seed, 1])
    truth = panel.values[split:split + h]
    base_vals = truth * (1.0 + 0.05 * rng.standard_normal(truth.shape))
    past = panel.values[split - n_err:split]
    errors = past * 0.05 * rng.standard_normal(past.shape)
    base = os.path.join(in_dir, "base.csv")
    write_long_csv(base, ["timestamp", "node_id", "forecast", "method"],
                   _stamps(panel.timestamps[split:split + h]), hier.node_ids,
                   base_vals, suffix=("base",))
    err = os.path.join(in_dir, "errors.csv")
    write_long_csv(err, ["timestamp", "node_id", "error"],
                   _stamps(panel.timestamps[split - n_err:split]),
                   hier.node_ids, errors)

    rec_dir = os.path.join(out_dir, "rec")
    reconcile = (["reconcile"] + _data_args(files, split)
                 + ["--base", base, "--errors", err,
                    "--methods", RECONCILE_METHODS, "--out-dir", rec_dir])
    coherent = [os.path.join(rec_dir, f"{m}.csv")
                for m in RECONCILE_METHODS.split(",")]
    evaluate, report = _evaluate(files, split, out_dir, coherent, True)
    return Plan([("reconcile", reconcile), ("evaluate", evaluate)],
                out_dir, coherent, report, headline="mint", main_stage="reconcile")


WORKLOADS = {"base-forecast": base_forecast, "nnd-train": nnd_train,
             "wide-reconcile": wide_reconcile}


def make_plan(workload, seed, in_dir, out_dir, tiny=False):
    return WORKLOADS[workload](seed, in_dir, out_dir, tiny)
