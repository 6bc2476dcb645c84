"""Each subcommand loads only the modules it runs.

Every test runs its code in a fresh interpreter, so a module that this
test session already imported cannot hide one that the code under test
would load.  A module counts as loaded once its code has run.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hiercast.forecastset import ForecastSet
from hiercast.hierarchy import load_hierarchy, load_panel
from hiercast.synthetic import GeneratorSpec, write_dataset

SRC = str(Path(__file__).parents[1] / "src")

# the network engine, model selection, NND, the generator, seed derivation
# and what they drag in: OpenSSL through hashlib, numpy.ma through np.unique
HEAVY = ["hiercast.neuralnet", "hiercast.forecasters", "hiercast.nnd",
         "hiercast.synthetic", "hiercast.kernels", "hiercast.seeding",
         "_hashlib", "numpy.ma"]


def fresh(code, *args):
    """Run ``code`` in a new interpreter that imports hiercast from src/;
    return the last line it prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code, *args):
    """The hiercast modules, and those of ``HEAVY``, whose code has run once
    ``code`` has run in a fresh interpreter.  ``import hiercast`` puts each
    submodule in ``sys.modules`` as a LazyLoader module, whose type is a
    subclass of ``ModuleType`` until its code runs."""
    return fresh(textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys, types
        print(json.dumps(sorted(
            m for m, mod in sys.modules.items()
            if (m.startswith("hiercast") or m in {HEAVY})
            and type(mod) is types.ModuleType)))
    """), *args)


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    """A small synthetic panel and naive base forecasts for steps 100-106."""
    d = tmp_path_factory.mktemp("panel")
    write_dataset(GeneratorSpec(children_per_level=(2, 2), T=120, seed=3), str(d))
    hier = load_hierarchy(str(d / "hierarchy.csv"))
    panel = load_panel(hier, str(d / "observations.csv"))
    ForecastSet("naive", hier.node_ids, panel.timestamps[100:107],
                panel.values[93:100]).write_csv(str(d / "base.csv"))
    return d


def test_reconcile_and_evaluate_load_no_model_code(panel_dir):
    loaded = loaded_after("""
        import sys
        import hiercast.cli as cli
        d = sys.argv[1]
        data = ["--hierarchy", d + "/hierarchy.csv",
                "--observations", d + "/observations.csv", "--split", "100"]
        assert cli.main(["reconcile", *data, "--base", d + "/base.csv",
                         "--methods", "bu,ahp,pha,fp,mo,mint",
                         "--out-dir", d + "/rec"]) == 0
        # the second evaluate reads every file from its parse-cache entry
        for _ in range(2):
            assert cli.main(["evaluate", *data, "--out-dir", d + "/eval",
                             "--forecasts", d + "/rec/bu.csv," + d + "/rec/mint.csv"]) == 0
    """, str(panel_dir))
    assert "hiercast.reconcile" in loaded and "hiercast.evaluate" in loaded
    assert [m for m in HEAVY if m in loaded] == []
    assert (panel_dir / "rec" / ".hiercast-cache" / "mint.csv.npz").is_file()


def test_forecast_loads_no_nnd_code(panel_dir, tmp_path):
    loaded = loaded_after("""
        import sys
        import hiercast.cli as cli
        d, out = sys.argv[1:]
        assert cli.main(["forecast", "--hierarchy", d + "/hierarchy.csv",
                         "--observations", d + "/observations.csv",
                         "--split", "100", "--out", out,
                         "--include-narx", "false",
                         "--include-combinations", "false"]) == 0
    """, str(panel_dir), str(tmp_path / "base.csv"))
    assert "hiercast.forecasters" in loaded and "hiercast.seeding" in loaded
    assert "hiercast.nnd" not in loaded and "hiercast.synthetic" not in loaded


@pytest.mark.parametrize("argv,table", [
    (["nnd"], None),                                    # a required setting missing
    (["reconcile", "--base", "b.csv", "--methods", "bu,nosuch"], "reconcile"),
    (["evaluate", "--split", "9", "--forecasts", "f.csv",
      "--significance", "0.5"], "evaluate"),
])
def test_config_error_loads_no_model_code(argv, table):
    """A bad setting is a ConfigError before any file is read; a choice is
    checked against the table of the one module that owns it."""
    loaded = loaded_after("""
        import json, sys
        import hiercast.cli as cli
        data = ["--hierarchy", "h.csv", "--observations", "o.csv",
                "--out-dir", "out"]
        assert cli.main(json.loads(sys.argv[1]) + data) == 2
    """, json.dumps(argv))
    assert [m for m in HEAVY if m in loaded] == []
    assert table is None or f"hiercast.{table}" in loaded


def test_import_loads_no_submodule():
    assert loaded_after("import hiercast") == ["hiercast"]


def test_submodules_are_listed_before_their_code_runs(panel_dir, tmp_path):
    """``import hiercast.cli`` puts in ``sys.modules`` every module that any
    subcommand loads, as the objects that later hold its functions, so code
    that lists the loaded modules then (a tracer that wraps functions in
    place) reaches them all."""
    out = fresh("""
        import json, sys
        import hiercast.cli as cli
        listed = {m: mod for m, mod in sys.modules.items()
                  if m.startswith("hiercast")}
        d, out = sys.argv[1:]
        assert cli.main(["nnd", "--hierarchy", d + "/hierarchy.csv",
                         "--observations", d + "/observations.csv",
                         "--split", "100", "--out-dir", out,
                         "--epochs", "1", "--window", "7"]) == 0
        assert cli.main(["synth", "--out", out + "/synth", "--t", "30"]) == 0
        now = {m: mod for m, mod in sys.modules.items() if m.startswith("hiercast")}
        print(json.dumps({"listed": sorted(listed), "added": sorted(set(now) - set(listed)),
                          "replaced": sorted(m for m in listed if now[m] is not listed[m]),
                          "nnd_run": hasattr(listed["hiercast.nnd"], "run")}))
    """, str(panel_dir), str(tmp_path / "nnd"))
    assert out["listed"] == ["hiercast", *(f"hiercast.{m}" for m in sorted(
        ["cli", "errors", "evaluate", "forecasters", "forecastset", "hierarchy",
         "kernels", "neuralnet", "nnd", "reconcile", "seeding", "synthetic"]))]
    assert out["added"] == [] and out["replaced"] == [] and out["nnd_run"]


def test_every_public_name_resolves():
    out = fresh("""
        import json
        import hiercast
        from hiercast import kernels
        missing = [n for n in hiercast.__all__ if not hasattr(hiercast, n)]
        assert callable(hiercast.nnd.run) and callable(hiercast.neuralnet.train_many)
        home = {n: getattr(hiercast, n).__module__ for n in hiercast.__all__
                if hasattr(getattr(hiercast, n), "__module__")}
        print(json.dumps({"missing": missing, "backend": kernels.BACKEND,
                          "unlisted": sorted(set(hiercast.__all__) - set(dir(hiercast))),
                          "home": home}))
    """)
    assert out["missing"] == [] and out["unlisted"] == []
    assert out["backend"] in ("numpy", "numba")
    assert out["home"]["chi2_sf"] == "hiercast.evaluate"
    assert out["home"]["derive_seed"] == "hiercast.seeding"


def test_unknown_name_is_attribute_error():
    import hiercast
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        hiercast.nosuch
