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
from nuvdoa.reports import load_error_table, load_report, load_sigma2_table
from nuvdoa.solver import constant_init, random_uniform_init

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"

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
        assert config.solver.sigma2 is None
        assert config.pipeline.snr_gate_db == 7.0

    def test_nested_sections_land_in_dataclasses(self):
        config = parse_config({
            "methods": ["music", "mvdr"],
            "snr_sweep": [0.0, 10.0],
            "scenario": {"k_sources": 2, "n_snapshots": 50},
            "solver": {"sigma2": 3.0, "init": {"kind": "constant", "value": 2.0}},
            "pipeline": {"known_snr": "scenario", "coarse_cells": 901},
        })
        assert config.method_list == ("music", "mvdr")
        assert config.snr_list == (0.0, 10.0)
        assert config.k_sources == 2
        assert config.solver.sigma2 == 3.0
        assert config.solver.init.value == 2.0
        assert config.pipeline.known_snr == "scenario"
        assert config.pipeline.coarse_cells == 901

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

    def test_init_section_becomes_init_spec(self):
        assert parse_config({}).solver.init == constant_init(1.0)
        config = parse_config({"solver": {"init": {"kind": "random_uniform", "seed": 3}}})
        assert config.solver.init == random_uniform_init(3)
        assert config.solver_config(1.0).init == random_uniform_init(3)

    @pytest.mark.parametrize("raw, key", [
        ({"trails": 3}, "trails"),
        ({"k_sources": 2}, "k_sources"),
        ({"scenario": {"snr": 3.0}}, "scenario.snr"),
        ({"scenario": {"trials": 3}}, "scenario.trials"),
        ({"doa_sampling": {"angles": [1.0]}}, "doa_sampling.angles"),
        ({"solver": {"max_iteration": 50}}, "solver.max_iteration"),
        ({"solver": {"init": {"valu": 2.0}}}, "solver.init.valu"),
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
        assert config.pipeline.known_snr == 3

    def test_separation_that_some_draw_meets_is_accepted(self):
        config = parse_config({
            "scenario": {"k_sources": 2},
            "doa_sampling": {"kind": "uniform_abs_range", "lo_deg": 5.0,
                             "hi_deg": 10.0, "min_separation_deg": 15.0},
        })
        assert config.doa_sampling.min_separation_deg == 15.0

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


class TestLoadConfig:
    def test_cli_flags_override_config(self, tmp_path):
        path = _write_config(tmp_path)
        args = argparse.Namespace(seed=99, workers=3)
        config = load_config(path, args)
        assert config.seed == 99
        assert config.workers == 3

    def test_overrides_default_to_config_values(self, tmp_path):
        path = _write_config(tmp_path)
        args = argparse.Namespace(seed=None, workers=None)
        config = load_config(path, args)
        assert config.seed == 13
        assert config.workers == 1
        assert config.timing is False

    def test_missing_file_is_config_error(self, tmp_path):
        args = argparse.Namespace(seed=None, workers=None)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml", args)

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{[")
        args = argparse.Namespace(seed=None, workers=None)
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
        path = _write_config(tmp_path, {"baseline_grid_cells": 181})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(path), "--method", "bartlett",
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["angle_deg", "magnitude"]
        assert len(rows) == 182

    def test_superres_scan_window(self, tmp_path):
        path = _write_config(tmp_path, {
            "pipeline": {"fine_step_deg": 0.05, "half_width_deg": 0.5},
            "solver": {"sigma2": 0.01, "max_iterations": 60},
        })
        out = tmp_path / "sr.csv"
        assert main(["spectrum", "--config", str(path), "--method", "superres",
                     "--out", str(out), "--scan-lo-deg", "-1.0",
                     "--scan-hi-deg", "1.0"]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 42

    @pytest.mark.parametrize("method", SPECTRUM_METHODS)
    def test_argmax_matches_run_trial_estimate(self, tmp_path, method):
        path = _write_config(tmp_path)
        out = tmp_path / f"{method}.csv"
        assert main(["spectrum", "--config", str(path), "--method", method,
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        argmax = max(rows, key=lambda row: float(row[1]))
        record = run_trial(load_config(path, argparse.Namespace(seed=None, workers=None)),
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


class TestCalibrateCommand:
    def test_epsilon_table_written(self, tmp_path):
        path = _write_config(tmp_path, {
            "trials": 35,
            "snr_sweep": [100.0],
            "scenario": {"n_snapshots": 100, "snr_db": 10.0},
            "pipeline": {"known_snr": "scenario"},
        })
        out = tmp_path / "eps.json"
        assert main(["calibrate", "--mode", "epsilon", "--config", str(path),
                     "--out", str(out)]) == 0
        table = load_error_table(out)
        assert table.snrs_db == (100.0,)
        assert table.epsilons_deg[0] <= 0.1

    def test_sigma2_candidates_flag(self, tmp_path):
        path = _write_config(tmp_path, {
            "trials": 3,
            "seed": 5,
            "scenario": {"n_snapshots": 8, "snr_db": float("inf")},
            "doa_sampling": {"kind": "fixed", "angles_deg": [9.0]},
            "solver": {"max_iterations": 60},
            "flat_grid_cells": 600,
        })
        out = tmp_path / "sigma2.json"
        assert main(["calibrate", "--mode", "sigma2", "--config", str(path),
                     "--out", str(out), "--candidates", "0.01", "0.001"]) == 0
        table = load_sigma2_table(out)
        assert table.sigma2s == (0.001,)


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"schema_version": 2})
        assert main(["estimate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"solver": {"init": {"kind": "constnat"}}}, "unknown init kind 'constnat'"),
        ({"solver": {"init": {"value": -1}}}, "constant init value must be positive"),
        ({"pipeline": {"fine_step_deg": 0}}, "need 0 < fine_step <= half_width"),
        ({"pipeline": {"coarse_cells": 1}}, "coarse grid needs at least 2 cells"),
        ({"solver": {"max_iterations": 0}}, "max_iterations must be positive"),
        ({"solver": {"max_iteration": 50}}, "unknown config key 'solver.max_iteration'"),
        ({"doa_sampling": {"kind": "fixed", "angles_deg": [1.0, 2.0]}},
         "fixed angle count does not match k_sources"),
        ({"scenario": {"k_sources": 3, "n_snapshots": 16},
          "doa_sampling": {"lo_deg": -10.0, "hi_deg": 10.0, "min_separation_deg": 10.0}},
         "no 3 directions fit in the sampling range"),
        ({"scenario": {"k_sources": 2, "n_snapshots": 16},
          "doa_sampling": {"kind": "uniform_abs_range", "lo_deg": 5.0, "hi_deg": 10.0,
                           "min_separation_deg": 20.0}},
         "no 2 directions fit in the sampling range"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"trials": "5"}, "trials must be an integer"),
        ({"pipeline": {"known_snr": "scenaro"}},
         "pipeline.known_snr must be a number, 'scenario' or null"),
        ({"pipeline": {"snr_gate_db": "seven"}}, "pipeline.snr_gate_db must be a number"),
        ({"snr_sweep": [0.0, "ten"]}, "snr_sweep[1] must be a number"),
        ({"methods": "music"}, "methods must be a list"),
    ])
    def test_invalid_settings_are_two(self, tmp_path, capsys, overrides, message):
        path = _write_config(tmp_path, overrides)
        assert main(["estimate", "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_missing_config_is_two(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        path = _write_config(tmp_path, {
            "solver": {"sigma2": 0.01,
                       "init": {"kind": "constant", "value": 1e308}},
        })
        with np.errstate(all="ignore"):
            code = main(["spectrum", "--config", str(path), "--method",
                         "nuv_ssr_flat", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
