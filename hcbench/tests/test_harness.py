"""Tests of the benchmark harness itself.

    python3 -m pytest -q hcbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hiercast  # noqa: E402
from hiercast import cli, hierarchy, kernels  # noqa: E402
from hiercast.synthetic import GeneratorSpec, generate  # noqa: E402

import run  # noqa: E402
from tracer import HOOKS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402


def _bindings():
    """Every (module or class, attribute) -> object in loaded hiercast
    modules."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "hiercast" or name.startswith("hiercast."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for k, v in vars(obj).items():
                        out[(name, f"{attr}.{k}")] = v
    # dunder entries are caches the interpreter adds as code runs
    # (__warningregistry__, __slotnames__)
    return {k: v for k, v in out.items() if not k[1].rpartition(".")[2].startswith("__")}


def _run_pipeline(plan):
    for _, argv in plan.stages:
        assert cli.main(argv) == 0
    return run.hash_tree(plan.out_dir)


def test_wrappers_return_results_unchanged_and_are_removed(tmp_path):
    hier, panel, _ = generate(GeneratorSpec(children_per_level=(2, 2), T=60, seed=4))
    y = panel.series(hier.root_id)
    before = _bindings()
    plain_S = hierarchy.build_summing_matrix(hier)
    plain_hw = kernels.hw_add_fit(y, 7, 0.3, 0.2, 0.1)
    plan = make_plan("base-forecast", 5, str(tmp_path / "in"), str(tmp_path / "a"), tiny=True)
    os.makedirs(plan.out_dir)
    plain_out = _run_pipeline(plan)

    tracer = Tracer(LAYERS, HOOKS).install()
    try:
        # one wrapper, bound under every name that held the original
        assert cli.build_summing_matrix is not before[("hiercast.cli", "build_summing_matrix")]
        assert cli.build_summing_matrix is hierarchy.build_summing_matrix
        assert hiercast.build_summing_matrix is hierarchy.build_summing_matrix
        traced_S = hierarchy.build_summing_matrix(hier)
        traced_hw = kernels.hw_add_fit(y, 7, 0.3, 0.2, 0.1)
        with pytest.raises(hiercast.DataError):
            hier.index("no-such-node")
        plan2 = make_plan("base-forecast", 5, str(tmp_path / "in2"), str(tmp_path / "b"), tiny=True)
        os.makedirs(plan2.out_dir)
        traced_out = _run_pipeline(plan2)
    finally:
        tracer.uninstall()

    assert np.array_equal(traced_S.entries, plain_S.entries)
    assert traced_S.child_rows == plain_S.child_rows
    assert traced_hw[0] == plain_hw[0] and traced_hw[3] == plain_hw[3]
    assert np.array_equal(traced_hw[2], plain_hw[2])
    assert traced_out == plain_out
    assert tracer.stats["build_summing_matrix"].calls >= 1
    assert tracer.stats["Hierarchy.index"].calls >= 1
    assert tracer.stats["Ets.fit"].calls >= 1
    assert tracer.counters["cv.folds"] >= tracer.counters["cv.folds_failed"]
    for stat in tracer.stats.values():
        assert stat.active == 0 and stat.self_s <= stat.s + 1e-9

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_time_excludes_traced_callees():
    tracer = Tracer(())
    inner = tracer.wrap("inner", lambda: sum(range(200000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (o.calls, i.calls) == (1, 2)
    assert o.self_s == pytest.approx(o.s - i.s, abs=1e-6)


def test_coherence_check_flags_an_incoherent_set(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("timestamp,node_id,forecast,method\n"
                    "2020-01-01,total,3.0,x\n2020-01-01,a,1.0,x\n"
                    "2020-01-01,b,2.0,x\n2020-01-02,total,3.5,x\n"
                    "2020-01-02,a,1.0,x\n2020-01-02,b,2.0,x\n")
    gap = run.coherence_gap(str(path), {"total": ["a", "b"]})
    assert gap == pytest.approx(0.5)


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    names = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
