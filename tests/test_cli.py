import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiercast import (Hierarchy, aggregate, build_summing_matrix,
                      load_hierarchy)
from hiercast import cli, evaluate, nnd, reconcile
from hiercast.cli import build_parser, main
from hiercast.forecastset import ForecastSet, read_forecast_set
from hiercast.hierarchy import write_hierarchy, write_observations

from conftest import panel_from_bottom


@pytest.fixture
def dataset(tmp_path):
    """Small static synthetic dataset written via the CLI itself."""
    out = tmp_path / "data"
    code = main([
        "synth", "--out", str(out), "--children-per-level", "2,2",
        "--t", "120", "--seed", "3",
    ])
    assert code == 0
    return out


def run_forecast(dataset, out_path, split="100"):
    return main([
        "forecast",
        "--hierarchy", str(dataset / "hierarchy.csv"),
        "--observations", str(dataset / "observations.csv"),
        "--split", split, "--horizon", "7", "--out", str(out_path),
        "--include-narx", "false", "--include-combinations", "false",
    ])


class TestSynth:
    def test_writes_expected_files(self, dataset):
        for name in ("hierarchy.csv", "observations.csv", "truth.json"):
            assert (dataset / name).exists()

    def test_deterministic_output(self, tmp_path):
        args = ["synth", "--children-per-level", "2", "--t", "60",
                "--seed", "9", "--regime", "switching"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("hierarchy.csv", "observations.csv", "exog.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_regime_rejected_by_parser(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--regime", "chaotic"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "chaotic" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("extra,key", [
        (["--noise-sigma", "-1"], "noise_sigma"),
        (["--promo-prob", "2", "--regime", "switching"], "promo_prob"),
    ])
    def test_out_of_range_setting_writes_nothing(self, tmp_path, capsys,
                                                 extra, key):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), *extra]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]
        assert not out.exists()

    def test_missing_out_is_config_error(self, capsys):
        assert main(["synth"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2


class TestForecast:
    def test_writes_forecasts_and_model_choices(self, dataset, tmp_path):
        out = tmp_path / "base.csv"
        assert run_forecast(dataset, out) == 0
        fs = read_forecast_set(out)
        assert fs.method == "fstar"
        assert fs.values.shape == (7, 7)   # 7 nodes in a (2,2) tree
        doc = json.loads((tmp_path / "base_models.json").read_text())
        assert set(doc) == set(fs.node_ids)
        for entry in doc.values():
            assert "model" in entry and "cv_mase" in entry

    def test_date_split_equals_row_split(self, dataset, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_forecast(dataset, a, split="100") == 0
        # row 100 corresponds to 2015-01-05 + 100 days = 2015-04-15;
        # side="right" on the last training date yields the same count
        assert run_forecast(dataset, b, split="2015-04-14") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_into_missing_directory(self, dataset, tmp_path):
        out = tmp_path / "missing" / "base.csv"
        assert run_forecast(dataset, out) == 0
        assert read_forecast_set(out).values.shape == (7, 7)
        assert (tmp_path / "missing" / "base_models.json").exists()

    def test_byte_order_mark_is_accepted(self, dataset, tmp_path):
        """Excel's "CSV UTF-8" starts each file with a byte-order mark."""
        for name in ("hierarchy.csv", "observations.csv"):
            text = (dataset / name).read_text()
            (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_forecast(dataset, a) == 0
        assert run_forecast(tmp_path, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forecast_past_the_panel_end(self, tmp_path, capsys):
        """Calendar dummies are built for the dates after the panel; a node
        with exog columns still needs their future values."""
        data = tmp_path / "data"
        argv = ["synth", "--children-per-level", "2", "--t", "60", "--seed", "1"]
        assert main([*argv, "--out", str(data)]) == 0
        out = tmp_path / "base.csv"
        assert run_forecast(data, out, split="60") == 0
        fs = read_forecast_set(out)
        assert fs.node_ids == ("total", "g00", "g01")
        assert np.array_equal(fs.timestamps, np.arange(
            "2015-03-06", "2015-03-13", dtype="datetime64[D]"))
        assert np.all(np.isfinite(fs.values))

        promo = tmp_path / "promo"
        assert main([*argv, "--regime", "switching", "--promo-lift", "30",
                     "--noise-sigma", "0.05", "--out", str(promo)]) == 0
        capsys.readouterr()
        code = main(["forecast", "--hierarchy", str(promo / "hierarchy.csv"),
                     "--observations", str(promo / "observations.csv"),
                     "--exog", str(promo / "exog.csv"), "--split", "60",
                     "--horizon", "7", "--out", str(tmp_path / "x.csv"),
                     "--include-narx", "false",
                     "--include-combinations", "false"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "ARX fitted with exog needs future exog values"

    def test_non_ascii_node_ids_under_an_ascii_locale(self, tmp_path):
        """Files are written as UTF-8 whatever the locale's encoding."""
        hier = Hierarchy.from_nodes([("total", None, 0), ("Bern", "total", 1),
                                     ("Zürich", "total", 1)])
        t = np.arange(120)
        bottom = np.column_stack([10 + np.sin(2 * np.pi * t / 7),
                                  20 + np.cos(2 * np.pi * t / 7)])
        write_hierarchy(hier, tmp_path / "hierarchy.csv")
        write_observations(panel_from_bottom(hier, bottom),
                           tmp_path / "observations.csv")
        out = tmp_path / "base.csv"
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([
            sys.executable, "-m", "hiercast.cli", "forecast",
            "--hierarchy", str(tmp_path / "hierarchy.csv"),
            "--observations", str(tmp_path / "observations.csv"),
            "--split", "100", "--horizon", "7", "--out", str(out),
            "--include-narx", "false", "--include-combinations", "false",
        ], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert read_forecast_set(out).node_ids == ("total", "Bern", "Zürich")

    @pytest.mark.parametrize("role", ["hierarchy", "observations"])
    def test_input_that_is_a_directory_is_config_error(self, dataset, tmp_path,
                                                       capsys, role):
        inputs = {"hierarchy": dataset / "hierarchy.csv",
                  "observations": dataset / "observations.csv", role: tmp_path}
        code = main([
            "forecast", "--hierarchy", str(inputs["hierarchy"]),
            "--observations", str(inputs["observations"]),
            "--split", "100", "--out", str(tmp_path / "base.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
        assert err["message"] == f"{role} file is a directory: {tmp_path}"

    @pytest.mark.parametrize("name", ["hierarchy.csv", "observations.csv"])
    def test_input_that_is_not_utf8_is_data_error(self, dataset, tmp_path,
                                                  capsys, name):
        for each in ("hierarchy.csv", "observations.csv"):
            text = (dataset / each).read_bytes()
            if each == name:
                text = text.replace(b"\n", b"\n\xff", 1)
            (tmp_path / each).write_bytes(text)
        code = run_forecast(tmp_path, tmp_path / "base.csv")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("DataError", 3)
        assert err["message"] == (f"{tmp_path / name}: not UTF-8 text "
                                  "(invalid start byte)")

    def test_header_only_observations_is_data_error(self, dataset, tmp_path,
                                                    capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text((dataset / "observations.csv").read_text().splitlines(
            keepends=True)[0])
        code = main([
            "forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(obs), "--split", "10",
            "--out", str(tmp_path / "base.csv"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert err["message"] == f"{obs}: empty observations file"

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "forecast", "--hierarchy", str(tmp_path / "nope.csv"),
            "--observations", str(tmp_path / "nope2.csv"),
            "--split", "10", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("extra,message", [
        (["--horizon", "0"], "horizon must be >= 1, got 0"),
        (["--horizon", "-3"], "horizon must be >= 1, got -3"),
        (["--cv-start", "1"], "cv_start (starting_window) must be >= 2, got 1"),
        (["--cv-start", "90", "--cv-end", "80"],
         "cv_end (ending_window) must be >= cv_start 90, got 80"),
        (["--cv-step", "0"], "cv_step (step) must be >= 1, got 0"),
    ], ids=["horizon", "negative-horizon", "cv-start", "cv-end", "cv-step"])
    def test_bad_cv_setting_is_named(self, dataset, tmp_path, capsys, extra,
                                     message):
        out = tmp_path / "base.csv"
        code = main([
            "forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--out", str(out), *extra,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", message)
        assert not out.exists()

    def test_all_zero_leaf_falls_back_to_seasonal_naive(self, tmp_path):
        hier = Hierarchy.from_nodes(
            [("total", None, 0), ("a", "total", 1), ("b", "total", 1)])
        t = np.arange(120)
        bottom = np.column_stack([np.zeros(120),
                                  10 + np.sin(2 * np.pi * t / 7) + 0.1 * t])
        data = tmp_path / "data"
        data.mkdir()
        write_hierarchy(hier, data / "hierarchy.csv")
        write_observations(panel_from_bottom(hier, bottom),
                           data / "observations.csv")
        out = tmp_path / "out" / "base.csv"
        assert run_forecast(data, out) == 0
        chosen = json.loads((tmp_path / "out" / "base_models.json").read_text())
        assert chosen["a"] == {"model": "snaive", "cv_mase": None}
        assert read_forecast_set(out).column("a").tolist() == [0.0] * 7


class TestReconcile:
    def test_bu_matches_aggregation_oracle(self, dataset, tmp_path):
        base = tmp_path / "base.csv"
        assert run_forecast(dataset, base) == 0
        out_dir = tmp_path / "rec"
        code = main([
            "reconcile",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "bu,ahp,pha,fp",
            "--split", "100", "--out-dir", str(out_dir),
        ])
        assert code == 0
        hier = load_hierarchy(dataset / "hierarchy.csv")
        S = build_summing_matrix(hier)
        fs_base = read_forecast_set(base)
        bottom = np.column_stack([fs_base.column(n) for n in hier.bottom_ids])
        fs_bu = read_forecast_set(out_dir / "bu.csv")
        got = np.column_stack([fs_bu.column(n) for n in hier.node_ids])
        assert np.array_equal(got, aggregate(S, bottom))
        for m in ("ahp", "pha", "fp"):
            assert (out_dir / f"{m}.csv").exists()

    def test_mint_identity_and_errors_file(self, dataset, tmp_path):
        base = tmp_path / "base.csv"
        assert run_forecast(dataset, base) == 0
        out_dir = tmp_path / "rec"
        code = main([
            "reconcile",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "mint",
            "--split", "100", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "mint.csv").exists()

    def test_unknown_method_is_config_error(self, dataset, tmp_path, capsys):
        base = tmp_path / "base.csv"
        assert run_forecast(dataset, base) == 0
        code = main([
            "reconcile",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "magic",
            "--split", "100", "--out-dir", str(tmp_path / "rec"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "magic" in err["message"]

    def _reconcile_zero_base(self, dataset, tmp_path, methods, *extra):
        hier = load_hierarchy(dataset / "hierarchy.csv")
        base = tmp_path / "base.csv"
        ForecastSet(method="fstar", node_ids=hier.node_ids,
                    timestamps=np.array(["2015-04-15"], dtype="datetime64[s]"),
                    values=np.zeros((1, hier.M))).write_csv(base)
        return main([
            "reconcile",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", methods,
            "--split", "100", "--out-dir", str(tmp_path / "rec"), *extra,
        ])

    @pytest.mark.parametrize("level", ["5", "-1"])
    def test_middle_level_outside_hierarchy_is_data_error(
            self, dataset, tmp_path, capsys, level):
        code = self._reconcile_zero_base(dataset, tmp_path, "bu,mo",
                                         "--middle-level", level)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert err["message"] == f"middle level {level} outside hierarchy"
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("with_errors", [False, True])
    @pytest.mark.parametrize("value", ["2", "-0.5"])
    def test_shrinkage_outside_unit_interval_is_config_error(
            self, dataset, tmp_path, capsys, with_errors, value):
        errors = tmp_path / "errors.csv"
        errors.write_text("timestamp,node_id,error\n")
        extra = ["--errors", str(errors)] if with_errors else []
        code = self._reconcile_zero_base(dataset, tmp_path, "mint",
                                         "--shrinkage", value, *extra)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "'shrinkage'" in err["message"] and "[0, 1]" in err["message"]
        assert not (tmp_path / "rec").exists()

    def test_unknown_method_checked_before_inputs_are_read(self, tmp_path,
                                                           capsys):
        code = main([
            "reconcile", "--hierarchy", str(tmp_path / "missing.csv"),
            "--observations", str(tmp_path / "missing.csv"),
            "--base", str(tmp_path / "missing.csv"), "--methods", "bu,xyz",
            "--out-dir", str(tmp_path / "rec"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].endswith(
            "unknown reconciliation method 'xyz' "
            f"(choose from {', '.join(reconcile.METHODS)})")

    def test_fp_on_zero_base_is_numeric_error(self, dataset, tmp_path, capsys):
        assert self._reconcile_zero_base(dataset, tmp_path, "fp") == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericError" and err["exit_code"] == 4
        assert "FP proportions undefined" in err["message"]

    def test_linalg_error_exits_4(self, dataset, tmp_path, capsys,
                                  monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(reconcile, "mint_reconcile", singular)
        assert self._reconcile_zero_base(dataset, tmp_path, "mint") == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "LinAlgError", "message": "Singular matrix",
                       "exit_code": 4}


def _with_cell(src, dst, column, token="abc"):
    """Copy a CSV with one cell of its first data row (line 2) replaced."""
    lines = src.read_text().splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = token
    lines[1] = ",".join(cells) + "\n"
    dst.write_text("".join(lines))
    return dst


class TestNonNumericCells:
    """A cell that does not parse is a DataError naming file and line."""

    def _assert_data_error(self, code, capsys, path):
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert f"{path}: line 2: " in err["message"]

    def _evaluate(self, dataset, tmp_path, hierarchy=None, observations=None,
                  forecasts=None):
        return main([
            "evaluate", "--hierarchy", str(hierarchy or dataset / "hierarchy.csv"),
            "--observations", str(observations or dataset / "observations.csv"),
            "--split", "100", "--horizon", "7",
            "--forecasts", str(forecasts or tmp_path / "none.csv"),
            "--out-dir", str(tmp_path / "eval"),
        ])

    def test_observation_value(self, dataset, tmp_path, capsys):
        bad = _with_cell(dataset / "observations.csv", tmp_path / "obs.csv", 2)
        self._assert_data_error(
            self._evaluate(dataset, tmp_path, observations=bad), capsys, bad)

    def test_hierarchy_level(self, dataset, tmp_path, capsys):
        bad = _with_cell(dataset / "hierarchy.csv", tmp_path / "h.csv", 2, "x")
        self._assert_data_error(
            self._evaluate(dataset, tmp_path, hierarchy=bad), capsys, bad)

    def test_exog_value(self, dataset, tmp_path, capsys):
        bad = tmp_path / "exog.csv"
        bad.write_text("timestamp,node_id,variable,value\n"
                       "2015-01-05,total,promo,abc\n")
        code = main([
            "forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--exog", str(bad), "--split", "100", "--horizon", "7",
            "--out", str(tmp_path / "base.csv"),
        ])
        self._assert_data_error(code, capsys, bad)

    def test_forecast_value(self, dataset, tmp_path, capsys):
        hier = load_hierarchy(dataset / "hierarchy.csv")
        good = tmp_path / "good.csv"
        ForecastSet(method="bu", node_ids=hier.node_ids,
                    timestamps=np.array(["2015-04-15"], dtype="datetime64[s]"),
                    values=np.zeros((1, hier.M))).write_csv(good)
        bad = _with_cell(good, tmp_path / "bu.csv", 2)
        self._assert_data_error(
            self._evaluate(dataset, tmp_path, forecasts=bad), capsys, bad)

    def test_error_matrix_value(self, dataset, tmp_path, capsys):
        hier = load_hierarchy(dataset / "hierarchy.csv")
        base = tmp_path / "base.csv"
        ForecastSet(method="fstar", node_ids=hier.node_ids,
                    timestamps=np.array(["2015-04-15"], dtype="datetime64[s]"),
                    values=np.zeros((1, hier.M))).write_csv(base)
        bad = tmp_path / "errors.csv"
        bad.write_text("timestamp,node_id,error\n2015-01-05,total,abc\n")
        code = main([
            "reconcile", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "mint", "--errors", str(bad),
            "--split", "100", "--out-dir", str(tmp_path / "rec"),
        ])
        self._assert_data_error(code, capsys, bad)

    def _zero_forecasts(self, dataset, path, method="bu"):
        hier = load_hierarchy(dataset / "hierarchy.csv")
        ForecastSet(method=method, node_ids=hier.node_ids,
                    timestamps=np.array(["2015-04-15"], dtype="datetime64[s]"),
                    values=np.zeros((1, hier.M))).write_csv(path)
        return path

    def test_observation_empty_timestamp(self, dataset, tmp_path, capsys):
        bad = _with_cell(dataset / "observations.csv", tmp_path / "obs.csv", 0, "")
        self._assert_data_error(
            self._evaluate(dataset, tmp_path, observations=bad), capsys, bad)

    def test_forecast_empty_timestamp(self, dataset, tmp_path, capsys):
        good = self._zero_forecasts(dataset, tmp_path / "good.csv")
        bad = _with_cell(good, tmp_path / "bu.csv", 0, "")
        self._assert_data_error(
            self._evaluate(dataset, tmp_path, forecasts=bad), capsys, bad)

    def test_error_matrix_without_timestamp_column(self, dataset, tmp_path,
                                                   capsys):
        base = self._zero_forecasts(dataset, tmp_path / "base.csv",
                                    method="fstar")
        bad = tmp_path / "errors.csv"
        bad.write_text("node_id,error\ntotal,1.0\n")
        code = main([
            "reconcile", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "mint", "--errors", str(bad),
            "--split", "100", "--out-dir", str(tmp_path / "rec"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert f"{bad}: expected header timestamp,node_id,error" in err["message"]


class TestEvaluate:
    def _reconciled(self, dataset, tmp_path):
        base = tmp_path / "base.csv"
        assert run_forecast(dataset, base) == 0
        out_dir = tmp_path / "rec"
        assert main([
            "reconcile",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--base", str(base), "--methods", "bu,ahp",
            "--split", "100", "--out-dir", str(out_dir),
        ]) == 0
        return out_dir

    def test_two_methods_full_report(self, dataset, tmp_path):
        rec = self._reconciled(dataset, tmp_path)
        out_dir = tmp_path / "eval"
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--horizon", "7",
            "--forecasts", f"{rec / 'bu.csv'},{rec / 'ahp.csv'}",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["methods"] == ["bu", "ahp"]
        assert "friedman" in doc
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "nemenyi.svg").read_text().startswith("<svg")

    def test_single_method_rank_tests_exit_2(self, dataset, tmp_path, capsys):
        rec = self._reconciled(dataset, tmp_path)
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--horizon", "7",
            "--forecasts", str(rec / "bu.csv"),
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_single_method_without_rank_tests_ok(self, dataset, tmp_path):
        rec = self._reconciled(dataset, tmp_path)
        out_dir = tmp_path / "eval"
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--horizon", "7",
            "--forecasts", str(rec / "bu.csv"),
            "--rank-tests", "false",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert "friedman" not in doc

    def test_horizon_mismatch_is_config_error(self, dataset, tmp_path, capsys):
        rec = self._reconciled(dataset, tmp_path)
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--horizon", "5",
            "--forecasts", str(rec / "bu.csv"), "--rank-tests", "false",
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(rec / "bu.csv") in err["message"]
        assert "covers 7 steps" in err["message"]
        assert "horizon 5" in err["message"]

    def test_unknown_metric_is_config_error(self, dataset, tmp_path, capsys):
        rec = self._reconciled(dataset, tmp_path)
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--metric", "bogus",
            "--forecasts", str(rec / "bu.csv"),
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["exit_code"] == 2
        assert "'bogus'" in err["message"]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("rank_tests", ["true", "false"])
    def test_significance_outside_table_checked_before_inputs_are_read(
            self, tmp_path, capsys, rank_tests):
        missing = str(tmp_path / "missing.csv")
        code = main([
            "evaluate", "--hierarchy", missing, "--observations", missing,
            "--split", "100", "--forecasts", missing,
            "--significance", "0.01", "--rank-tests", rank_tests,
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == (
            "bad value for 'significance': unknown significance level 0.01 "
            f"(choose from {', '.join(map(str, evaluate.Q_TABLE))})")
        assert not (tmp_path / "eval").exists()

    def test_duplicate_method_is_config_error(self, dataset, tmp_path, capsys):
        rec = self._reconciled(dataset, tmp_path)
        copy = tmp_path / "bu_copy.csv"
        copy.write_bytes((rec / "bu.csv").read_bytes())
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--forecasts", f"{rec / 'bu.csv'},{copy}",
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == ("duplicate method names across forecast "
                                  "files: ['bu', 'bu']")
        assert not (tmp_path / "eval").exists()

    def test_split_leaving_fewer_rows_than_horizon_is_data_error(
            self, dataset, tmp_path, capsys):
        rec = self._reconciled(dataset, tmp_path)
        code = main([
            "evaluate",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "115", "--forecasts", f"{rec / 'bu.csv'},{rec / 'ahp.csv'}",
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert err["message"] == ("need 7 held-out rows after the split, "
                                  "panel has 5")
        assert not (tmp_path / "eval").exists()

    def test_zero_scale_series_is_flagged_and_left_out(self, tmp_path):
        hier = Hierarchy.from_nodes(
            [("total", None, 0), ("a", "total", 1), ("b", "total", 1)])
        t = np.arange(120)
        bottom = np.column_stack([np.zeros(120),
                                  10 + np.sin(2 * np.pi * t / 7) + 0.1 * t])
        data = tmp_path / "data"
        data.mkdir()
        write_hierarchy(hier, data / "hierarchy.csv")
        write_observations(panel_from_bottom(hier, bottom),
                           data / "observations.csv")
        rec = self._reconciled(data, tmp_path)
        out_dir = tmp_path / "eval"
        assert main([
            "evaluate",
            "--hierarchy", str(data / "hierarchy.csv"),
            "--observations", str(data / "observations.csv"),
            "--split", "100", "--forecasts", f"{rec / 'bu.csv'},{rec / 'ahp.csv'}",
            "--out-dir", str(out_dir),
        ]) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["flagged"] == {
            "a": "MASE denominator is zero (seasonally constant series)"}
        assert sorted(doc["series"]) == ["b", "total"]
        assert doc["level_averages"]["1"] == doc["series"]["b"]["scores"]
        errors = [[doc["series"][n]["scores"][m] for m in ("bu", "ahp")]
                  for n in ("b", "total")]
        stat, p, ranks = evaluate.friedman_test(errors)
        assert doc["friedman"] == {"statistic": stat, "p_value": p,
                                   "mean_ranks": {"bu": ranks[0],
                                                  "ahp": ranks[1]}}


class TestNndCommand:
    def test_nnd2_pipeline(self, dataset, tmp_path):
        out_dir = tmp_path / "nnd"
        code = main([
            "nnd",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--horizon", "7", "--strategy", "nnd2",
            "--window", "7", "--epochs", "2", "--patience", "1",
            "--hidden", "4", "--n-dense", "1", "--filters", "2",
            "--n-conv", "1", "--kernel-size", "2",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        fs = read_forecast_set(out_dir / "forecasts.csv")
        assert fs.method == "nnd2"
        diags = json.loads((out_dir / "diagnostics.json").read_text())
        assert set(diags["raw_violations"]) == {"total", "g00", "g01"}
        assert (out_dir / "models" / "total.net").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, dataset, tmp_path, capsys,
                                            jobs):
        out_dir = tmp_path / "nnd"
        code = main([
            "nnd",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--window", "7", "--epochs", "1",
            "--jobs", jobs, "--out-dir", str(out_dir),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "jobs" in err["message"]
        assert not out_dir.exists()

    def _assert_unknown_strategy(self, code, capsys, out_dir):
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == (
            "bad value for 'strategy': unknown NND strategy 'nnd9' "
            f"(choose from {', '.join(nnd.STRATEGIES)})")
        assert not out_dir.exists()

    def test_unknown_strategy(self, dataset, tmp_path, capsys):
        code = main([
            "nnd",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--strategy", "nnd9",
            "--out-dir", str(tmp_path / "nnd"),
        ])
        self._assert_unknown_strategy(code, capsys, tmp_path / "nnd")

    def test_unknown_strategy_checked_before_inputs_are_read(self, tmp_path,
                                                             capsys):
        code = main([
            "nnd", "--hierarchy", str(tmp_path / "nope.csv"),
            "--observations", str(tmp_path / "nope.csv"),
            "--split", "100", "--strategy", "nnd9",
            "--out-dir", str(tmp_path / "nnd"),
        ])
        self._assert_unknown_strategy(code, capsys, tmp_path / "nnd")

    @pytest.mark.parametrize("extra,message", [
        (["--window", "150"], "series length 100 shorter than window 150"),
        (["--strategy", "mo", "--middle-level", "5"],
         "middle level 5 must lie in [0, 1]"),
    ], ids=["window-past-split", "middle-level-5"])
    def test_failed_run_writes_nothing(self, dataset, tmp_path, capsys,
                                       extra, message):
        out_dir = tmp_path / "nnd"
        code = main([
            "nnd",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--epochs", "1", *extra,
            "--out-dir", str(out_dir),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and message in err["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_training_failure_names_its_parent(self, dataset, tmp_path,
                                               capsys, jobs):
        # under --jobs 2 the error crosses a process boundary
        out_dir = tmp_path / "nnd"
        code = main([
            "nnd",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "40", "--window", "45", "--epochs", "1",
            "--jobs", jobs, "--out-dir", str(out_dir),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "DataError", "exit_code": 3,
            "message": "[node total] series length 40 shorter than window 45"}
        assert not out_dir.exists()

    def test_jobs_do_not_change_output_bytes(self, dataset, tmp_path):
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            subprocess.run([
                sys.executable, "-m", "hiercast.cli", "nnd",
                "--hierarchy", str(dataset / "hierarchy.csv"),
                "--observations", str(dataset / "observations.csv"),
                "--split", "100", "--horizon", "7", "--window", "7",
                "--epochs", "3", "--hidden", "4", "--n-dense", "1",
                "--filters", "2", "--n-conv", "1", "--kernel-size", "2",
                "--seed", "5", "--jobs", jobs, "--out-dir", str(out_dir),
            ], env=env, check=True, capture_output=True)
            outputs[jobs] = {str(p.relative_to(out_dir)): p.read_bytes()
                             for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert sorted(outputs["1"]) == [
            ".hiercast-cache/forecasts.csv.npz", "diagnostics.json",
            "forecasts.csv", "models/g00.net", "models/g01.net",
            "models/total.net"]
        assert outputs["2"] == outputs["1"]

    def test_blas_threads_do_not_change_output_bytes(self, tmp_path):
        """The thread count is set for the child processes only; at this
        size OpenBLAS splits the dense products across two threads."""
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def hiercast(*argv, threads="1"):
            subprocess.run([sys.executable, "-m", "hiercast.cli", *argv],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           check=True, capture_output=True)

        data = tmp_path / "data"
        hiercast("synth", "--out", str(data), "--children-per-level", "3,4",
                 "--t", "400", "--seed", "5")
        digests = {}
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            hiercast("nnd", "--strategy", "nnd2",
                     "--hierarchy", str(data / "hierarchy.csv"),
                     "--observations", str(data / "observations.csv"),
                     "--split", "372", "--horizon", "28", "--epochs", "4",
                     "--seed", "5", "--out-dir", str(out_dir), threads=threads)
            digests[threads] = [
                hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in ("forecasts.csv", "diagnostics.json")]
        assert digests["2"] == digests["1"]


@pytest.mark.parametrize("command", ["forecast", "nnd"])
def test_split_too_short_for_cv_names_its_cause(dataset, tmp_path, capsys,
                                                command):
    out = ["--out", str(tmp_path / "out" / "base.csv")] if command == "forecast" \
        else ["--out-dir", str(tmp_path / "out")]
    assert main([command,
                 "--hierarchy", str(dataset / "hierarchy.csv"),
                 "--observations", str(dataset / "observations.csv"),
                 "--split", "20", "--horizon", "7", *out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == (
        "20 training rows are too few for cross-validation at horizon 7: "
        "the first fold needs 22 (15 to fit, 7 to score)")
    assert not (tmp_path / "out").exists()


class TestPlot:
    def test_writes_svg_per_node(self, dataset, tmp_path):
        base = tmp_path / "base.csv"
        assert run_forecast(dataset, base) == 0
        out_dir = tmp_path / "plots"
        code = main([
            "plot",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--forecasts", str(base), "--nodes", "total,g00",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        for node in ("total", "g00"):
            svg = (out_dir / f"plot_{node}.svg").read_text()
            assert svg.startswith("<svg")
            assert "</svg>" in svg

    def test_unmatched_timestamps_write_nothing(self, dataset, tmp_path,
                                                capsys):
        hier = load_hierarchy(dataset / "hierarchy.csv")
        base = tmp_path / "base.csv"
        ForecastSet(method="fstar", node_ids=hier.node_ids,
                    timestamps=np.array(["2030-01-01"], dtype="datetime64[s]"),
                    values=np.ones((1, hier.M))).write_csv(base)
        out_dir = tmp_path / "plots"
        code = main([
            "plot",
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--forecasts", str(base), "--nodes", "total",
            "--out-dir", str(out_dir),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "timestamps" in err["message"]
        assert not out_dir.exists()


# one case per cast kind; the other settings are given but never read,
# because every value is cast before any file is opened (the tests run in
# tmp_path all the same)
BAD_VALUES = [
    ("forecast", "include_narx", "maybe"),         # _bool
    ("forecast", "horizon", "abc"),                # int
    ("nnd", "alpha", "x"),                         # float
    ("synth", "children_per_level", "a,b"),        # _int_list
    ("reconcile", "methods", "bu,xyz"),            # _methods
    ("reconcile", "shrinkage", "2"),               # _unit_float
    ("evaluate", "metric", "xyz"),                 # _one_of
    ("evaluate", "significance", "0.01"),          # _one_of over Q_TABLE
    ("synth", "start", "notadate"),                # GeneratorSpec
    ("synth", "m_season", "0"),                    # GeneratorSpec
    ("synth", "noise_sigma", "-1"),                # GeneratorSpec
    ("synth", "promo_prob", "2"),                  # GeneratorSpec
]
REQUIRED_ARGS = {
    "forecast": ["--hierarchy", "h.csv", "--observations", "o.csv",
                 "--split", "10", "--out", "o.csv"],
    "nnd": ["--hierarchy", "h.csv", "--observations", "o.csv",
            "--split", "10", "--out-dir", "nnd"],
    "synth": ["--out", "data"],
    "reconcile": ["--hierarchy", "h.csv", "--observations", "o.csv",
                  "--base", "b.csv", "--out-dir", "rec"],
    "evaluate": ["--hierarchy", "h.csv", "--observations", "o.csv",
                 "--split", "10", "--forecasts", "f.csv", "--out-dir", "ev"],
}


@pytest.mark.parametrize("command,key", [("forecast", "nodes"),
                                         ("reconcile", "methods")])
def test_empty_name_list_is_config_error(dataset, tmp_path, capsys, command,
                                         key):
    argv = [command,
            "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--" + key, ","]
    if command == "forecast":
        argv += ["--out", str(tmp_path / "out" / "base.csv")]
    else:
        assert run_forecast(dataset, tmp_path / "base.csv") == 0
        argv += ["--base", str(tmp_path / "base.csv"),
                 "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["level:x", "level:", "level:9"])
def test_bad_level_in_nodes_is_config_error(dataset, tmp_path, capsys, token):
    argv = ["forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
            "--observations", str(dataset / "observations.csv"),
            "--split", "100", "--nodes", token,
            "--out", str(tmp_path / "out" / "base.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "'nodes'" in err["message"]
    assert not (tmp_path / "out").exists()


ITALIAN_CSV = ("DATE,QTY_B1_1,QTY_B1_2,PROMO_B1_1\n"
               "2014-01-02,3,4,0\n"
               "2014-01-03,5,6,1\n")


@pytest.mark.parametrize("text,where", [
    (ITALIAN_CSV.replace(",5,", ",five,"), "row 2, column 'QTY_B1_1'"),
    (ITALIAN_CSV.replace(",5,", ",,"), "row 2, column 'QTY_B1_1'"),
    (ITALIAN_CSV.replace(",6,1", ""), "row 2, column 'PROMO_B1_1'"),
    (None, "missing.csv"),
], ids=["non-numeric", "empty-quantity", "short-row", "missing-file"])
def test_fetch_italian_bad_input_is_data_error(tmp_path, capsys, text, where):
    src = tmp_path / "missing.csv"
    if text is not None:
        src.write_text(text)
    out = tmp_path / "it"
    argv = ["fetch-italian", "--out", str(out), "--url", src.as_uri()]
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and err["exit_code"] == 3
    assert where in err["message"]
    assert not out.exists()


def test_fetch_italian_from_file_url(tmp_path):
    src = tmp_path / "pasta.csv"
    src.write_text(ITALIAN_CSV.replace(",0\n", ",\n"))    # empty promo is 0
    assert main(["fetch-italian", "--out", str(tmp_path / "it"),
                 "--url", src.as_uri()]) == 0
    hier = load_hierarchy(tmp_path / "it" / "hierarchy.csv")
    assert sorted(hier.node_ids) == ["B1", "B1_1", "B1_2", "total"]
    obs = (tmp_path / "it" / "observations.csv").read_text()
    assert "2014-01-03,total,11.0\n" in obs


@pytest.mark.parametrize("delim", [",", ";"])
def test_fetch_italian_quoted_cells(tmp_path, delim):
    src = tmp_path / "pasta.csv"
    src.write_text("".join(delim.join(f'"{cell}"' for cell in line.split(",")) + "\n"
                           for line in ITALIAN_CSV.splitlines()))
    assert main(["fetch-italian", "--out", str(tmp_path / "it"),
                 "--url", src.as_uri()]) == 0
    obs = (tmp_path / "it" / "observations.csv").read_text()
    assert "2014-01-03,total,11.0\n" in obs


class TestBadValues:
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command,key,value", BAD_VALUES)
    def test_bad_value_is_json_config_error(self, tmp_path, monkeypatch,
                                            capsys, source, command, key,
                                            value):
        monkeypatch.chdir(tmp_path)
        argv = [command] + REQUIRED_ARGS[command]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[{command}]\n{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message", "exit_code"}
        assert err["error"] == "ConfigError" and err["exit_code"] == 2
        assert key in err["message"]

    def test_empty_required_value_is_missing(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--hierarchy", "h.csv", "--observations",
                     "o.csv", "--split", "10", "--out-dir", "ev",
                     "--forecasts", ""]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "missing required setting 'forecasts'"


def _readme_commands():
    """argv of each ``hiercast ...`` command in README's usage block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command-line usage", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("hiercast ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[synth]\nout = {}\nseed = 5\nt = 60\nchildren_per_level = 2\n"
            .format(tmp_path / "from_file")
        )
        # file value used when no flag
        assert main(["synth", "--config", str(cfg)]) == 0
        truth = json.loads((tmp_path / "from_file" / "truth.json").read_text())
        assert truth["spec"]["seed"] == 5
        # flag overrides the file
        assert main(["synth", "--config", str(cfg), "--seed", "8",
                     "--out", str(tmp_path / "from_flag")]) == 0
        truth2 = json.loads((tmp_path / "from_flag" / "truth.json").read_text())
        assert truth2["spec"]["seed"] == 8

    def test_missing_config_file(self, capsys):
        assert main(["synth", "--config", "/nope/run.ini"]) == 2

    def test_key_no_option_reads_is_config_error(self, dataset, tmp_path,
                                                 capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nhorizn = 14\n")
        out = tmp_path / "base.csv"
        argv = ["forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
                "--observations", str(dataset / "observations.csv"),
                "--split", "100", "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'horizn'" in err["message"]
        assert not out.exists()

    def test_key_another_subcommand_reads_is_valid(self, dataset, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nhorizon = 14\nepochs = 5\n"
                       "include_narx = false\ninclude_combinations = false\n")
        out = tmp_path / "base.csv"
        assert main(["forecast", "--hierarchy", str(dataset / "hierarchy.csv"),
                     "--observations", str(dataset / "observations.csv"),
                     "--split", "100", "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert read_forecast_set(out).horizon == 14

    @pytest.mark.parametrize("command,horizon", [("forecast", 14), ("nnd", 28)])
    def test_running_subcommand_section_wins(self, tmp_path, command, horizon):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nhierarchy = h.csv\nobservations = o.csv\n"
                       "split = 10\nout = o\nout_dir = o\n"
                       "[forecast]\nhorizon = 14\n[nnd]\nhorizon = 28\n")
        args = build_parser().parse_args([command, "--config", str(cfg)])
        assert cli.settings(args, cli.COMMANDS[command][2])["horizon"] == horizon


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "hiercast" in capsys.readouterr().out

    def test_error_json_schema(self, capsys):
        main(["synth"])
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message", "exit_code"}


def test_every_option_is_read(tmp_path, monkeypatch):
    """Each subcommand reads every one of its ``COMMANDS`` rows, so an
    option cannot outlive the code that used it."""
    read, original = {}, cli.settings

    class Recording(dict):
        def __getitem__(self, key):
            self.seen.add(key)
            return super().__getitem__(key)

    def recording_settings(args, rows):
        cfg = Recording(original(args, rows))
        cfg.seen = read.setdefault(args.command, set())
        return cfg

    monkeypatch.setattr(cli, "settings", recording_settings)

    d = tmp_path / "data"
    data = ["--hierarchy", str(d / "hierarchy.csv"),
            "--observations", str(d / "observations.csv"),
            "--exog", str(d / "exog.csv")]
    split = data + ["--split", "70"]
    rec = tmp_path / "rec"
    italian = tmp_path / "pasta.csv"
    italian.write_text(ITALIAN_CSV)
    runs = [
        ["synth", "--out", str(d), "--children-per-level", "2", "--t", "80",
         "--regime", "switching", "--seed", "1"],
        ["forecast", *split, "--out", str(tmp_path / "base.csv"),
         "--include-narx", "false", "--include-combinations", "false"],
        ["reconcile", *data, "--base", str(tmp_path / "base.csv"),
         "--out-dir", str(rec)],
        ["nnd", *split, "--epochs", "1", "--out-dir", str(tmp_path / "nnd")],
        ["evaluate", *split, "--rank-tests", "true",
         "--forecasts", f"{rec / 'bu.csv'},{rec / 'ahp.csv'}",
         "--out-dir", str(tmp_path / "ev")],
        ["plot", *data, "--forecasts", str(rec / "bu.csv"), "--nodes", "total",
         "--out-dir", str(tmp_path / "plots")],
        ["fetch-italian", "--out", str(tmp_path / "it"),
         "--url", italian.as_uri()],
    ]
    assert [argv[0] for argv in runs] == list(cli.COMMANDS)
    for argv in runs:
        assert main(argv) == 0, argv
    for command, (_, _, rows) in cli.COMMANDS.items():
        unread = {key for key, _, _ in rows} - read[command]
        assert not unread, f"{command} never reads {sorted(unread)}"
