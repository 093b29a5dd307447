"""Report serialization tests: self-checking files and CSV exports."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nuvdoa.arrays import build_grid
from nuvdoa.harness import DoaSampling, ScenarioConfig, aggregate, run_cell
from nuvdoa.reports import (
    SUMMARY_COLUMNS,
    ReportIntegrityError,
    dump_report,
    load_report,
    runtime_ms_mean,
    write_spectrum_csv,
    write_summary_csv,
)
from nuvdoa.solver import Spectrum


def _small_report(timing=False, seed=13):
    cfg = ScenarioConfig(
        k_sources=1, n_sensors=16, n_snapshots=16, snr_db=20.0,
        trials=3, seed=seed, method="root_music", timing=timing,
        doa_sampling=DoaSampling(kind="uniform_range", lo_deg=-60.0,
                                 hi_deg=60.0),
    )
    return run_cell(cfg, "root_music", 20.0)


class TestReportRoundTrip:
    def test_load_after_dump_is_equal(self, tmp_path):
        report = _small_report()
        path = tmp_path / "cell.jsonl"
        dump_report(report, path)
        assert load_report(path) == report

    def test_repeated_values_round_trip_exactly(self, tmp_path):
        # Loading shares a value that repeats the previous record's; 0.0
        # and -0.0 compare equal but must keep their signs.
        report = _small_report()
        first, second, third = report.records
        records = (replace(first, matched_errors_deg=(0.0,)),
                   replace(second, matched_errors_deg=(-0.0,)),
                   replace(third, matched_errors_deg=(-0.0,)))
        report = replace(report, records=records,
                         aggregates=aggregate(records, report.detection_threshold_deg))
        path = tmp_path / "cell.jsonl"
        dump_report(report, path)
        loaded = load_report(path)
        assert loaded == report
        assert [math.copysign(1.0, r.matched_errors_deg[0])
                for r in loaded.records] == [1.0, -1.0, -1.0]
        assert all(r.method == "root_music" for r in loaded.records)

    def test_round_trip_preserves_timing(self, tmp_path):
        report = _small_report(timing=True)
        path = tmp_path / "cell.jsonl"
        dump_report(report, path)
        loaded = load_report(path)
        assert loaded == report
        assert all(r.runtime_ms > 0.0 for r in loaded.records)

    def test_tampered_aggregates_rejected(self, tmp_path):
        report = _small_report()
        path = tmp_path / "cell.jsonl"
        dump_report(report, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["aggregates"]["rmse_deg"] += 0.25
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ReportIntegrityError, match="do not match"):
            load_report(path)

    def test_tampered_record_rejected(self, tmp_path):
        report = _small_report()
        path = tmp_path / "cell.jsonl"
        dump_report(report, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["matched_errors_deg"][0] += 5.0
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportIntegrityError):
            load_report(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        path.write_text("")
        with pytest.raises(ReportIntegrityError, match="empty"):
            load_report(path)


class TestSummaryCsv:
    def test_columns_and_values(self, tmp_path):
        report = _small_report(timing=True)
        path = tmp_path / "summary.csv"
        write_summary_csv([report], path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == list(SUMMARY_COLUMNS)
        row = rows[0]
        assert row["method"] == "root_music"
        assert float(row["snr_db"]) == 20.0
        assert int(row["L"]) == 16
        assert int(row["K"]) == 1
        assert int(row["trials"]) == 3
        assert float(row["rmse_deg"]) == report.aggregates.rmse_deg
        assert float(row["median_abs_error_deg"]) == report.aggregates.median_abs_error_deg
        assert float(row["detection_rate"]) == report.aggregates.detection_rate
        assert float(row["runtime_ms_mean"]) == runtime_ms_mean(report)

    def test_missing_metrics_render_empty(self, tmp_path):
        report = _small_report(timing=False)
        path = tmp_path / "summary.csv"
        write_summary_csv([report], path)
        with open(path, newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert row["runtime_ms_mean"] == ""

    def test_one_row_per_report(self, tmp_path):
        reports = [_small_report(seed=13), _small_report(seed=14)]
        path = tmp_path / "summary.csv"
        write_summary_csv(reports, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2


class TestSpectrumCsv:
    def test_exact_round_trip_of_values(self, tmp_path):
        grid = build_grid(11)
        values = np.linspace(0.0, 1.0, 11)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(Spectrum(values=values, grid=grid), path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["angle_deg", "magnitude"]
        assert len(rows) == 12
        angles = np.array([float(r[0]) for r in rows[1:]])
        mags = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_array_equal(angles, np.degrees(grid.values))
        np.testing.assert_array_equal(mags, values)


class TestRuntimeMean:
    def test_none_without_timing(self):
        assert runtime_ms_mean(_small_report(timing=False)) is None

    def test_mean_with_timing(self):
        report = _small_report(timing=True)
        times = [r.runtime_ms for r in report.records]
        assert runtime_ms_mean(report) == pytest.approx(sum(times) / len(times))
