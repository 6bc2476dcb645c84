"""hiercast benchmark: CLI pipeline workloads, stage times, per-layer trace.

    python3 hcbench/run.py --workload base-forecast --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's inputs are generated from the
seed, then the pipeline (the workload's CLI stages through
``hiercast.cli.main``) runs repeatedly, each repeat in a fresh interpreter,
until ``--seconds`` are used.  Every repeat's outputs are checked: each
stage exits 0, every coherent forecast set is coherent to 1e-9, and the
SHA-256 of every output file matches the first repeat (traced and
untraced alike).  A repeat that fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over repeats);
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones.  Human-readable detail, including
the environment and sample counts, precedes the last line of standard
output, which is one JSON object: correct, attempted, failed, metrics.  A
full record is written to ``.hcbench/results/``.  Exit code 1 when any
check failed, 2 when the repository is not found.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STAGES = ("forecast", "reconcile", "nnd", "evaluate")
COHERENCE_TOL = 1e-9
SETUP_SAMPLES = 5           # plus one per untraced repeat
HARD_LIMIT_S = 170          # the whole run, set-up included
MIN_REPEATS = 2             # so that every run compares outputs across repeats

END_TO_END = [
    ("setup_s", "s"),
    ("main_stage_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bottom_mase", "ratio"),
]


def _per_layer_names():
    names = []
    for stage in STAGES:
        names += [(f"cli.{stage}.s", "s"), (f"cli.{stage}.self_s", "s"),
                  (f"cli.{stage}.cpu_s", "s")]
    timed = {
        "load_panel": ("s", "calls"), "build_summing_matrix": ("s", "calls"),
        "Hierarchy.children": ("calls",), "Hierarchy.index": ("calls",),
        "coherence_violation": ("s",),
        "read_forecast_set": ("s", "calls"), "ForecastSet.write_csv": ("s",),
        "select_model": ("s", "calls"), "Ets.fit": ("s", "calls"),
        "Arx.fit": ("s",), "Narx.fit": ("s",),
        "hw_add_fit": ("s", "calls"), "conv1d_same": ("s", "calls"),
        "conv1d_same_grad": ("s", "calls"),
        "train": ("s", "self_s", "calls"), "adam_step": ("s", "calls"),
        "backward": ("self_s",), "predict": ("s", "calls"),
        "train_nnd": ("s", "calls"), "disaggregate": ("s",),
        "feature_matrix": ("s", "calls"),
        "shrinkage_covariance": ("s",), "mint_reconcile": ("s",),
        "proportions_fp": ("s", "calls"), "middle_out": ("s",),
        "mase": ("s", "calls"), "friedman_test": ("s",), "nemenyi_test": ("s",),
    }
    for fn, fields in timed.items():
        names += [(f"{fn}.{f}", "count" if f == "calls" else "s") for f in fields]
    names += [
        ("load_panel.rows_per_s", "1/s"),
        ("cv.folds", "count"), ("cv.folds_failed", "count"),
        ("cv.candidates_failed", "count"), ("cv.fold_ok_ratio", "ratio"),
        ("hw_add_fit.points", "count"), ("hw_add_fit.mpoints_per_s", "Mpoint/s"),
        ("conv1d_same.gflop", "GFLOP"), ("conv1d_same_grad.gflop", "GFLOP"),
        ("conv.gflop_per_s", "GFLOP/s"),
        ("train.epochs", "count"),
        ("shrinkage_covariance.peak_mb", "MB"),
        ("trace.overhead_s", "s"),
    ]
    return names


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def read_children(hierarchy_csv):
    kids = {}
    with open(hierarchy_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["parent_id"]:
                kids.setdefault(row["parent_id"], []).append(row["node_id"])
    return kids


def coherence_gap(forecast_csv, kids):
    """max |node - sum of its children| over nodes and steps, computed from
    the CSV independently of hiercast."""
    values = {}
    with open(forecast_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            values.setdefault(row["timestamp"], {})[row["node_id"]] = float(row["forecast"])
    gap = 0.0
    for step in values.values():
        for parent, children in kids.items():
            gap = max(gap, abs(step[parent] - math.fsum(step[c] for c in children)))
    return gap


def hash_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bottom_mase(report_json, method):
    """Mean MASE of ``method`` over the bottom level, from report.json."""
    with open(report_json) as fh:
        averages = json.load(fh)["level_averages"]
    return averages[str(max(int(lv) for lv in averages))][method]


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.n = 0

    def child(self, spec):
        """Run child.py on ``spec``; returns (result dict or None, log)."""
        self.n += 1
        spec_path = os.path.join(self.work, f"spec{self.n}.json")
        res_path = os.path.join(self.work, f"result{self.n}.json")
        with open(spec_path, "w") as fh:
            json.dump(dict(spec, src=os.path.join(self.root, "src")), fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, res_path],
                cwd=self.root, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {timeout:.0f} s"
        log = proc.stdout + proc.stderr
        if proc.returncode != 0 or not os.path.exists(res_path):
            return None, f"child exited {proc.returncode}: {log[-2000:]}"
        with open(res_path) as fh:
            return json.load(fh), log


def run_repeat(runner, plan, kids, trace, reference):
    """One pipeline repeat with its checks.  Returns a record whose
    ``problems`` list is empty when every check passed."""
    shutil.rmtree(plan.out_dir, ignore_errors=True)
    os.makedirs(plan.out_dir)
    result, log = runner.child({"mode": "pipeline", "trace": trace,
                                "stages": plan.stages})
    rec = {"trace": trace, "problems": []}
    if result is None:
        rec["problems"].append(log)
        return rec
    rec.update(result)
    rec["stage_s"] = {s["stage"]: s["s"] for s in result["stages"]}
    ran = {s["stage"]: s["rc"] for s in result["stages"]}
    for name, _ in plan.stages:
        if ran.get(name) != 0:
            rec["problems"].append(f"stage {name} exit {ran.get(name, 'not run')}: "
                                   f"{log[-2000:]}")
    if rec["problems"]:
        return rec
    try:
        for path in plan.coherent:
            gap = coherence_gap(path, kids)
            if not gap <= COHERENCE_TOL:
                rec["problems"].append(f"{os.path.basename(path)} incoherent by {gap:.3g}")
        rec["bottom_mase"] = bottom_mase(plan.report, plan.headline)
    except (OSError, KeyError, ValueError) as exc:
        rec["problems"].append(f"unreadable output: {exc!r}")
    rec["hashes"] = hash_tree(plan.out_dir)
    if reference is not None and rec["hashes"] != reference:
        diff = sorted(k for k in set(rec["hashes"]) | set(reference)
                      if rec["hashes"].get(k) != reference.get(k))
        rec["problems"].append(f"outputs differ from the first repeat: {diff[:5]}")
    return rec


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def end_to_end(setup_samples, repeats, plan):
    stage_s = {st: [r["stage_s"][st] for r in repeats] for st, _ in plan.stages}
    return {
        "setup_s": _median(setup_samples),
        "main_stage_s": _median(stage_s.get(plan.main_stage, [])),
        "pipeline_s": _median([sum(r["stage_s"].values()) for r in repeats]),
        "peak_rss_mb": _median([r["maxrss_mb"] for r in repeats]),
        "bottom_mase": _median([r["bottom_mase"] for r in repeats]),
    }, stage_s


def layer_values(rec):
    """Every per-layer metric from one traced repeat (0 for a layer the
    workload never calls)."""
    stats, c = rec["stats"], rec["counters"]

    def st(name, field):
        return stats.get(name, {}).get(field, 0)

    cpu = {s["stage"]: s["cpu_s"] for s in rec["stages"]}
    out = {}
    for name, _ in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if fn.startswith("cli."):
            stage = fn[4:]
            out[name] = cpu.get(stage, 0.0) if field == "cpu_s" else st(fn, field)
        elif field in ("s", "self_s", "calls"):
            out[name] = st(fn, field)
    folds = c.get("cv.folds", 0)
    conv_s = st("conv1d_same", "s") + st("conv1d_same_grad", "s")
    conv_gflop = c.get("conv1d_same.gflop", 0.0) + c.get("conv1d_same_grad.gflop", 0.0)
    out.update({
        "load_panel.rows_per_s": _ratio(c.get("load_panel.rows", 0), st("load_panel", "s")),
        "cv.folds": folds,
        "cv.folds_failed": c.get("cv.folds_failed", 0),
        "cv.candidates_failed": c.get("cv.candidates_failed", 0),
        "cv.fold_ok_ratio": _ratio(folds - c.get("cv.folds_failed", 0), folds),
        "hw_add_fit.points": c.get("hw_add_fit.points", 0),
        "hw_add_fit.mpoints_per_s": _ratio(c.get("hw_add_fit.points", 0) / 1e6,
                                           st("hw_add_fit", "s")),
        "conv1d_same.gflop": c.get("conv1d_same.gflop", 0.0),
        "conv1d_same_grad.gflop": c.get("conv1d_same_grad.gflop", 0.0),
        "conv.gflop_per_s": _ratio(conv_gflop, conv_s),
        "train.epochs": c.get("train.epochs", 0),
        "shrinkage_covariance.peak_mb": c.get("shrinkage_covariance.peak_mb", 0.0),
    })
    return out


def per_layer(repeats):
    traced = [r for r in repeats if r["trace"]]
    plain = [r for r in repeats if not r["trace"]]
    values = [layer_values(r) for r in traced]
    out = {name: _median([v[name] for v in values])
           for name, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (
        _median([sum(r["stage_s"].values()) for r in traced])
        - _median([sum(r["stage_s"].values()) for r in plain]))
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git(root, *args):
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment(root, probe):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numba": probe.get("numba") if probe else None,
        "backend": probe.get("backend") if probe else None,
        "git_commit": None, "git_dirty": None,
    }
    if os.path.exists(os.path.join(root, ".git")):
        env["git_commit"] = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        env["git_dirty"] = None if status is None else bool(status)
    return env


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (for the harness's own tests)")
    return p.parse_args(argv)


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hiercast", "cli.py")):
        print(f"hcbench: {src}/hiercast not found; run from the hiercast "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    from workloads import make_plan

    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, ".hcbench", "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, started + HARD_LIMIT_S)

    # first child: warms the bytecode cache and probes the backend (untimed)
    probe, log = runner.child({"mode": "setup"})
    if probe is None:
        print(f"hcbench: cannot import hiercast.cli: {log}", file=sys.stderr)
        return 1
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            res, log = runner.child({"mode": "setup"})
            if res is None:
                print(f"hcbench: import failed: {log}", file=sys.stderr)
                return 1
            setup_samples.append(res["setup_s"])

    plan = make_plan(args.workload, args.seed, os.path.join(work, "in"),
                     os.path.join(work, "out"), tiny=args.tiny)
    kids = read_children(os.path.join(work, "in", "hierarchy.csv"))

    # A unit is one untraced repeat, or an untraced/traced pair; a new unit
    # starts only when the longest one so far still fits in --seconds.
    unit = (False, True) if args.trace else (False,)
    min_units = 1 if args.trace else MIN_REPEATS
    t0 = time.monotonic()
    repeats, reference, longest, units_run = [], None, 0.0, 0
    while True:
        t = time.monotonic()
        for trace in unit:
            rec = run_repeat(runner, plan, kids, trace, reference)
            if reference is None and not rec["problems"]:
                reference = rec["hashes"]
            repeats.append(rec)
        units_run += 1
        now = time.monotonic()
        longest = max(longest, now - t)
        if units_run >= min_units and (now + longest > t0 + args.seconds
                                       or now + longest > started + HARD_LIMIT_S):
            break
    measured_s = time.monotonic() - t0

    good = [r for r in repeats if not r["problems"]]
    failed = len(repeats) - len(good)
    setup_samples += [r["setup_s"] for r in good if not r["trace"]]
    e2e, stage_s = end_to_end(setup_samples, good, plan)
    layers = per_layer(good) if args.trace and any(r["trace"] for r in good) else {}
    chosen = layers if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": chosen[name], "unit": units[name]}
               for name in units if name in chosen and not math.isnan(chosen[name])}

    env = environment(root, probe)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s,
        "environment": env,
        "samples": {"setup": len(setup_samples), "repeats": len(good),
                    "traced": sum(1 for r in good if r["trace"])},
        "stage_s": stage_s, "end_to_end": e2e, "per_layer": layers,
        "problems": [p for r in repeats for p in r["problems"]],
        "repeats": [{k: v for k, v in r.items() if k != "hashes"} for r in repeats],
    }
    results = os.path.join(root, ".hcbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)

    print(f"# hcbench {tag}: {len(repeats)} repeats in {measured_s:.1f} s, "
          f"{failed} failed")
    print("# environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"# setup_s: median of {len(setup_samples)} fresh-interpreter imports")
        for st, vals in stage_s.items():
            if vals:
                    print(f"# {st}_s = {_fmt(_median(vals))} s  (median of {len(vals)}; "
                      f"min {_fmt(min(vals))}, max {_fmt(max(vals))})")
    for name, m in metrics.items():
        print(f"# {name} = {_fmt(m['value'])} {m['unit']}")
    for problem in record["problems"]:
        print("# FAILED CHECK: " + problem.replace("\n", " | ")[:500])
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
