"""CLI tests: config parsing, subcommands, exit codes, determinism."""

import argparse
import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from nuvdoa.cli import ConfigError, config_keys, load_config, main, parse_config
from nuvdoa.harness import SPECTRUM_METHODS, run_trial
from nuvdoa.reports import load_report

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

BASE_CONFIG = {
    "schema_version": 1,
    "method": "root_music",
    "trials": 2,
    "seed": 13,
    "scenario": {"n_snapshots": 16, "snr_db": 20.0},
    "doa_sampling": {"kind": "uniform_range", "lo_deg": -60.0, "hi_deg": 60.0},
}


def _write_config(tmp_path, overrides=None, name="config.yaml"):
    raw = dict(BASE_CONFIG)
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestParseConfig:
    def test_empty_mapping_gives_defaults(self):
        config = parse_config({})
        assert config.method == "nuv_doa"
        assert config.n_sensors == 16
        assert config.trials == 100
        assert config.doa_sampling.kind == "uniform_range"
        assert config.sigma2 is None
        assert config.known_snr is None

    def test_nested_sections_land_in_dataclasses(self):
        config = parse_config({
            "methods": ["music", "mvdr"],
            "snr_sweep": [0.0, 10.0],
            "scenario": {"k_sources": 2, "n_snapshots": 50},
            "solver": {"sigma2": 3.0},
            "pipeline": {"known_snr": "scenario"},
        })
        assert config.method_list == ("music", "mvdr")
        assert config.snr_list == (0.0, 10.0)
        assert config.k_sources == 2
        assert config.sigma2 == 3.0
        assert config.known_snr == "scenario"

    def test_rejects_unknown_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": 2})

    def test_rejects_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config(["not", "a", "mapping"])

    def test_rejects_non_mapping_section(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config({"scenario": "loud"})

    def test_wraps_domain_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config({"trials": 0})
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config({"method": "esprit"})

    @pytest.mark.parametrize("raw, key", [
        ({"trails": 3}, "trails"),
        ({"k_sources": 2}, "k_sources"),
        ({"scenario": {"snr": 3.0}}, "scenario.snr"),
        ({"scenario": {"trials": 3}}, "scenario.trials"),
        ({"doa_sampling": {"angles": [1.0]}}, "doa_sampling.angles"),
        ({"solver": {"max_iteration": 50}}, "solver.max_iteration"),
        ({"solver": {"init": 2.0}}, "solver.init"),
        ({"pipeline": {"known_snr_db": 3.0}}, "pipeline.known_snr_db"),
    ])
    def test_rejects_unknown_keys_by_dotted_name(self, raw, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
            parse_config(raw)

    def test_number_fields_take_ints_and_keep_them(self):
        config = parse_config({"scenario": {"snr_db": 10}, "snr_sweep": [0, 5.0],
                               "pipeline": {"known_snr": 3}})
        assert config.snr_db == 10 and isinstance(config.snr_db, int)
        assert config.snr_sweep == (0, 5.0)
        assert config.known_snr == 3

    def test_infinite_snr_values_stay_legal(self):
        config = parse_config({"scenario": {"snr_db": float("inf")},
                               "pipeline": {"known_snr": float("inf")}})
        assert config.snr_db == float("inf")
        assert config.known_snr == float("inf")

    def test_separation_that_some_draw_meets_is_accepted(self):
        config = parse_config({
            "scenario": {"k_sources": 2},
            "doa_sampling": {"lo_deg": -10.0, "hi_deg": 10.0,
                             "min_separation_deg": 15.0},
        })
        assert config.doa_sampling.min_separation_deg == 15.0

    def test_sampling_may_reach_the_domain_edge(self):
        for sampling in ({"kind": "fixed", "angles_deg": [-90.0]},
                         {"lo_deg": -90.0, "hi_deg": 90.0},
                         {"lo_deg": 0.0, "hi_deg": 90.0}):
            parse_config({"doa_sampling": sampling})

    def test_timing_needs_a_yaml_boolean(self):
        assert parse_config({"timing": True}).timing is True
        with pytest.raises(ConfigError, match="timing must be true or false"):
            parse_config({"timing": "false"})

    def test_schema_doc_lists_every_key_with_its_default(self):
        block = re.search(r"```yaml\n(.*?)```", SCHEMA_DOC.read_text(), re.S).group(1)
        documented = yaml.safe_load(block)

        def dotted(mapping, prefix=""):
            for key, value in mapping.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from dotted(value, prefix + key + ".")

        assert set(dotted(documented)) == config_keys()
        parsed = parse_config(documented)
        assert parsed.methods and parsed.snr_sweep
        assert replace(parsed, methods=(), snr_sweep=()) == parse_config({})

    def test_benchmark_workloads_parse(self):
        paths = sorted(WORKLOADS.glob("*.yaml"))
        assert paths
        for path in paths:
            parse_config(yaml.safe_load(path.read_text()))


class TestLoadConfig:
    def test_cli_flags_override_config(self, tmp_path):
        path = _write_config(tmp_path)
        args = argparse.Namespace(seed=99)
        config = load_config(path, args)
        assert config.seed == 99

    def test_overrides_default_to_config_values(self, tmp_path):
        path = _write_config(tmp_path)
        args = argparse.Namespace(seed=None)
        config = load_config(path, args)
        assert config.seed == 13
        assert config.workers == 1
        assert config.timing is False

    def test_missing_file_is_config_error(self, tmp_path):
        args = argparse.Namespace(seed=None)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml", args)

    @pytest.mark.parametrize("line, read, value", [
        ("solver: {sigma2: 1e4}", lambda c: c.sigma2, 1e4),
        ("solver: {sigma2: 1.0e4}", lambda c: c.sigma2, 1e4),
        ("solver: {sigma2: 1e-6}", lambda c: c.sigma2, 1e-6),
        ("snr_sweep: [1e1]", lambda c: c.snr_sweep, (10.0,)),
    ], ids=["1e4", "1.0e4", "1e-6", "list-1e1"])
    def test_exponent_numbers_are_floats(self, tmp_path, line, read, value):
        path = tmp_path / "config.yaml"
        path.write_text(line + "\n")
        assert read(load_config(path, argparse.Namespace(seed=None))) == value

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text('solver: {sigma2: "1e4"}\n')
        with pytest.raises(ConfigError, match="solver.sigma2 must be a number"):
            load_config(path, argparse.Namespace(seed=None))

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{[")
        args = argparse.Namespace(seed=None)
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path, args)


class TestEstimateCommand:
    def test_prints_record_and_returns_zero(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["estimate", "--config", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "root_music"
        assert record["seed"] == 13
        assert abs(record["matched_errors_deg"][0]) < 0.5

    def test_deterministic_stdout(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        main(["estimate", "--config", str(path)])
        first = capsys.readouterr().out
        main(["estimate", "--config", str(path)])
        assert capsys.readouterr().out == first

    def test_tight_feasible_separation_returns_zero(self, tmp_path, capsys):
        path = _write_config(tmp_path, {
            "scenario": {"k_sources": 3, "n_snapshots": 16, "snr_db": 20.0},
            "doa_sampling": {"lo_deg": -10.0, "hi_deg": 10.0,
                             "min_separation_deg": 9.9}})
        assert main(["estimate", "--config", str(path)]) == 0
        truth = json.loads(capsys.readouterr().out)["true_doas_deg"]
        assert min(b - a for a, b in zip(truth, truth[1:])) >= 9.9

    def test_seed_flag_changes_scenario(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        main(["--seed", "99", "estimate", "--config", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 99


class TestSimulateCommand:
    def test_writes_one_batch_per_trial(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "batches"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        files = sorted(f.name for f in out.iterdir())
        assert files == ["batch_0000.npz", "batch_0001.npz"]
        with np.load(out / "batch_0000.npz") as payload:
            assert payload["snapshots"].shape == (16, 16)
            assert payload["true_doas_deg"].shape == (1,)
            assert int(payload["seed"]) == 13

    def test_verbose_reports_to_stderr(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        out = tmp_path / "batches"
        main(["--verbose", "simulate", "--config", str(path), "--out", str(out)])
        assert "wrote 2 batches" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_baseline_spectrum_rows(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(path), "--method", "bartlett",
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["angle_deg", "magnitude"]
        assert len(rows) == 1802

    def test_superres_scan_window(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "sr.csv"
        assert main(["spectrum", "--config", str(path), "--method", "superres",
                     "--out", str(out), "--scan-lo-deg", "-1.0",
                     "--scan-hi-deg", "1.0"]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 202

    @pytest.mark.parametrize("method", SPECTRUM_METHODS)
    def test_argmax_matches_run_trial_estimate(self, tmp_path, method):
        path = _write_config(tmp_path)
        out = tmp_path / f"{method}.csv"
        assert main(["spectrum", "--config", str(path), "--method", method,
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        argmax = max(rows, key=lambda row: float(row[1]))
        record = run_trial(load_config(path, argparse.Namespace(seed=None)),
                           0, method=method)
        assert record.estimates_deg == (float(argmax[0]),)

    def test_unsupported_method_rejected_by_parser(self, tmp_path):
        path = _write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["spectrum", "--config", str(path), "--method", "root_music",
                  "--out", str(tmp_path / "x.csv")])


class TestSweepCommand:
    def test_reports_and_summary_written(self, tmp_path):
        path = _write_config(tmp_path, {"methods": ["root_music", "bartlett"],
                                        "snr_sweep": [10.0, 30.0]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        names = sorted(f.name for f in out.iterdir())
        assert names == ["report_bartlett_snr+10.0.jsonl",
                         "report_bartlett_snr+30.0.jsonl",
                         "report_root_music_snr+10.0.jsonl",
                         "report_root_music_snr+30.0.jsonl",
                         "summary.csv"]
        report = load_report(out / "report_root_music_snr+30.0.jsonl")
        assert report.trials == 2
        with open(out / "summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4

    def test_sweep_is_reproducible_byte_for_byte(self, tmp_path):
        path = _write_config(tmp_path, {"snr_sweep": [10.0]})
        first = tmp_path / "s1"
        second = tmp_path / "s2"
        main(["sweep", "--config", str(path), "--out", str(first)])
        main(["sweep", "--config", str(path), "--out", str(second)])
        for name in sorted(f.name for f in first.iterdir()):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("overrides, first, second, name", [
        ({"methods": ["root_music"], "snr_sweep": [5.0, 5.04]},
         "root_music @ 5.0 dB", "root_music @ 5.04 dB",
         "report_root_music_snr+5.0.jsonl"),
        ({"methods": ["root_music"], "snr_sweep": [10.0, 10.0]},
         "root_music @ 10.0 dB", "root_music @ 10.0 dB",
         "report_root_music_snr+10.0.jsonl"),
        ({"methods": ["bartlett", "bartlett"], "snr_sweep": [10.0]},
         "bartlett @ 10.0 dB", "bartlett @ 10.0 dB",
         "report_bartlett_snr+10.0.jsonl"),
    ], ids=["snrs_round_alike", "repeated_snr", "repeated_method"])
    def test_cells_sharing_a_report_file_are_refused(self, tmp_path, capsys,
                                                     overrides, first, second,
                                                     name):
        path = _write_config(tmp_path, {**overrides, "trials": 3})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cells {first} and {second} would both write {name}" in err
        assert not out.exists()


class TestCalibrateCommand:
    def test_parser_rejects_calibrate(self, tmp_path):
        path = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--mode", "epsilon", "--config", str(path),
                  "--out", str(tmp_path / "eps.json")])
        assert exc.value.code == 2


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"schema_version": 2})
        assert main(["estimate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"solver": {"init": {"value": 2.0}}}, "unknown config key 'solver.init'"),
        # The ids of the pytest.param cases name the checks their keys had
        # before the keys were removed.
        pytest.param({"pipeline": {"half_width_deg": float("inf")}},
                     "unknown config key 'pipeline.half_width_deg'",
                     id="overrides1-half_width_deg must be finite"),
        pytest.param({"pipeline": {"fine_step_deg": 0}},
                     "unknown config key 'pipeline.fine_step_deg'",
                     id="overrides2-need 0 < fine_step <= half_width"),
        pytest.param({"pipeline": {"coarse_cells": 1}},
                     "unknown config key 'pipeline.coarse_cells'",
                     id="overrides3-coarse grid needs at least 2 cells"),
        pytest.param({"solver": {"max_iterations": 0}},
                     "unknown config key 'solver.max_iterations'",
                     id="overrides4-max_iterations must be positive"),
        ({"solver": {"max_iteration": 50}}, "unknown config key 'solver.max_iteration'"),
        ({"doa_sampling": {"kind": "fixed", "angles_deg": [1.0, 2.0]}},
         "fixed angle count does not match k_sources"),
        ({"scenario": {"k_sources": 3, "n_snapshots": 16},
          "doa_sampling": {"lo_deg": -10.0, "hi_deg": 10.0, "min_separation_deg": 10.0}},
         "no 3 directions fit in the sampling range"),
        pytest.param({"flat_grid_cells": 1}, "unknown config key 'flat_grid_cells'",
                     id="overrides8-flat_grid_cells must be at least 2"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"trials": "5"}, "trials must be an integer"),
        ({"pipeline": {"known_snr": "scenaro"}},
         "pipeline.known_snr must be a number, 'scenario' or null"),
        pytest.param({"pipeline": {"snr_gate_db": "seven"}},
                     "unknown config key 'pipeline.snr_gate_db'",
                     id="overrides13-pipeline.snr_gate_db must be a number"),
        ({"snr_sweep": [0.0, "ten"]}, "snr_sweep[1] must be a number"),
        ({"methods": "music"}, "methods must be a list"),
        ({"scenario": {"source_model": "coherant"}}, "unknown source model 'coherant'"),
        ({"workers": 2}, "workers must be 1: the sub-band scan runs on one thread"),
        ({"scenario": {"snr_db": float("nan")}}, "scenario.snr_db must be a number"),
        ({"solver": {"sigma2": float("nan")}}, "solver.sigma2 must be a number or null"),
        pytest.param({"solver": {"tolerance": float("nan")}},
                     "unknown config key 'solver.tolerance'",
                     id="overrides20-solver.tolerance must be a number"),
        ({"solver": {"sigma2": float("inf")}}, "sigma2 must be positive and finite"),
        pytest.param({"pipeline": {"fine_step_deg": float("nan")}},
                     "unknown config key 'pipeline.fine_step_deg'",
                     id="overrides22-pipeline.fine_step_deg must be a number"),
        pytest.param({"pipeline": {"snr_gate_db": float("nan")}},
                     "unknown config key 'pipeline.snr_gate_db'",
                     id="overrides23-pipeline.snr_gate_db must be a number"),
        ({"pipeline": {"known_snr": float("nan")}},
         "pipeline.known_snr must be a number, 'scenario' or null"),
        ({"snr_sweep": [0.0, float("nan")]}, "snr_sweep[1] must be a number"),
        ({"scenario": {"snr_db": "ten"}}, "scenario.snr_db must be a number"),
        ({"scenario": {"n_snapshots": 1.5}}, "scenario.n_snapshots must be an integer"),
        ({"scenario": {"source_model": 3}}, "scenario.source_model must be a string"),
        ({"scenario": {"snr_db": float("-inf")}}, "snr_db must be greater than -inf"),
        ({"snr_sweep": [0.0, float("-inf")]},
         "snr_sweep items must be greater than -inf"),
        ({"doa_sampling": {"lo_deg": float("-inf")}}, "lo_deg must be finite"),
        ({"doa_sampling": {"hi_deg": float("inf")}}, "hi_deg must be finite"),
        ({"doa_sampling": {"kind": "fixed", "angles_deg": [95.0]}},
         "fixed angles must lie in [-90, 90) deg"),
        ({"doa_sampling": {"kind": "fixed", "angles_deg": [90.0]}},
         "fixed angles must lie in [-90, 90) deg"),
        ({"doa_sampling": {"kind": "fixed", "angles_deg": [float("-inf")]}},
         "fixed angles must lie in [-90, 90) deg"),
        ({"doa_sampling": {"lo_deg": -100.0, "hi_deg": 100.0}},
         "sampling range must lie within [-90, 90] deg"),
        ({"doa_sampling": {"lo_deg": -90.5}},
         "sampling range must lie within [-90, 90] deg"),
        pytest.param({"baseline_grid_cells": 1},
                     "unknown config key 'baseline_grid_cells'",
                     id="overrides38-baseline_grid_cells must be at least 2"),
        ({"detection_threshold_deg": -1.0}, "detection_threshold_deg must be positive"),
        ({"doa_sampling": {"min_separation_deg": -1.0}},
         "min_separation_deg must be finite and nonnegative"),
        ({"seed": -3}, "seed must be nonnegative"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"scenario": {"k_sources": 2},
          "doa_sampling": {"kind": "fixed", "angles_deg": [5.0, 5.0]}},
         "fixed angles must be pairwise distinct"),
        ({"scenario": {"n_snapshots": 0}}, "n_snapshots must be positive"),
        # Fields of the scenario, solver and pipeline sections are refused
        # at the root.
        ({"sigma2": 1.0}, "unknown config key 'sigma2'"),
        ({"known_snr": 3.0}, "unknown config key 'known_snr'"),
        ({"k_sources": 2}, "unknown config key 'k_sources'"),
    ])
    def test_invalid_settings_are_two(self, tmp_path, capsys, overrides, message):
        path = _write_config(tmp_path, overrides)
        assert main(["estimate", "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi, message", [
        ("5", "1", "lo must not exceed hi"),
        ("95", "99", "band lies entirely outside the azimuth domain"),
        ("nan", "1", "band bounds must be finite"),
    ])
    def test_bad_superres_scan_window_is_two(self, tmp_path, capsys, lo, hi,
                                             message):
        path = _write_config(tmp_path)
        assert main(["spectrum", "--config", str(path), "--method", "superres",
                     "--out", str(tmp_path / "sr.csv"), "--scan-lo-deg", lo,
                     "--scan-hi-deg", hi]) == 2
        assert (f"config error: superres scan window: {message}"
                in capsys.readouterr().err)

    def test_negative_seed_flag_is_two(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["--seed", "-1", "estimate", "--config", str(path)]) == 2
        assert ("config error: --seed: seed must be nonnegative"
                in capsys.readouterr().err)

    def test_missing_config_is_two(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        path = _write_config(tmp_path, {
            "scenario": {"n_snapshots": 16, "snr_db": float("inf")},
            "solver": {"sigma2": 1e-300},
        })
        with np.errstate(all="ignore"):
            code = main(["spectrum", "--config", str(path), "--method",
                         "nuv_ssr_flat", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
