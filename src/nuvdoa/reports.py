"""Report files: line-delimited trial records, summary CSV, spectrum CSV.

A report file is one JSON header line (cell metadata plus aggregates)
followed by one JSON line per trial.  Loading recomputes the aggregates
from the records and refuses files where they disagree beyond 1e-12, so a
report can always be trusted to match its own data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields

from .harness import Aggregates, RunReport, TrialRecord, aggregate

SCHEMA_VERSION = 1

_RECORD_FIELDS = tuple(field.name for field in fields(TrialRecord))

SUMMARY_COLUMNS = ("method", "snr_db", "L", "K", "trials", "rmse_deg",
                   "median_abs_error_deg", "detection_rate", "runtime_ms_mean")


class ReportIntegrityError(ValueError):
    """A loaded report's stored aggregates disagree with its records."""


def dump_report(report: RunReport, path) -> None:
    header = {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "snr_db": report.snr_db,
        "n_snapshots": report.n_snapshots,
        "k_sources": report.k_sources,
        "trials": report.trials,
        "detection_threshold_deg": report.detection_threshold_deg,
        "aggregates": asdict(report.aggregates),
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in report.records:
            # The fields themselves: asdict would deep-copy every tuple.
            handle.write(json.dumps({name: getattr(record, name)
                                     for name in _RECORD_FIELDS}) + "\n")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _record_fields(line: str, previous: dict) -> dict:
    """The fields of one record line, with tuples for json's arrays.

    A field that repeats the previous record's value exactly (same repr)
    reuses its object, so the values a report repeats on every line, such
    as the method, the flags or fixed true directions, are held once.
    """
    values = {}
    for key, value in json.loads(line).items():
        if isinstance(value, list):
            value = tuple(value)
        last = previous.get(key, value)
        if last is not value and last == value and repr(last) == repr(value):
            value = last
        values[key] = value
    return values


def load_report(path) -> RunReport:
    # Lines are parsed as they are read; no list of the file's lines is kept.
    with open(path) as handle:
        lines = (line for line in handle if line.strip())
        first = next(lines, None)
        if first is None:
            raise ReportIntegrityError(f"{path}: empty report")
        header = json.loads(first)
        records = []
        values = {}
        for line in lines:
            values = _record_fields(line, values)
            records.append(TrialRecord(**values))
    detection_threshold_deg = header["detection_threshold_deg"]
    stored = header["aggregates"]
    recomputed = aggregate(records, detection_threshold_deg)
    checks = (
        _close(stored["rmse_deg"], recomputed.rmse_deg),
        _close(stored["median_abs_error_deg"], recomputed.median_abs_error_deg),
        _close(stored["detection_rate"], recomputed.detection_rate),
        stored["false_alarm_count"] == recomputed.false_alarm_count,
    )
    if not all(checks):
        raise ReportIntegrityError(
            f"{path}: stored aggregates do not match the trial records")
    return RunReport(
        method=header["method"], snr_db=header["snr_db"],
        n_snapshots=header["n_snapshots"], k_sources=header["k_sources"],
        trials=header["trials"],
        detection_threshold_deg=detection_threshold_deg,
        records=tuple(records),
        aggregates=Aggregates(**stored),
    )


def runtime_ms_mean(report: RunReport):
    times = [r.runtime_ms for r in report.records if r.runtime_ms is not None]
    return sum(times) / len(times) if times else None


def write_summary_csv(reports, path) -> None:
    """Flat per-cell summary; empty cells render as empty strings."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for report in reports:
            agg = report.aggregates
            mean_ms = runtime_ms_mean(report)
            writer.writerow([
                report.method,
                repr(report.snr_db),
                report.n_snapshots,
                report.k_sources,
                report.trials,
                "" if agg.rmse_deg is None else repr(agg.rmse_deg),
                "" if agg.median_abs_error_deg is None else repr(agg.median_abs_error_deg),
                repr(agg.detection_rate),
                "" if mean_ms is None else repr(mean_ms),
            ])


def write_spectrum_csv(spectrum, path) -> None:
    """Two columns: angle_deg, magnitude."""
    angles_deg = [math.degrees(a) for a in spectrum.grid.values]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("angle_deg", "magnitude"))
        for angle, value in zip(angles_deg, spectrum.values):
            writer.writerow((repr(angle), repr(float(value))))
