"""One workload: set-up, the timed closed loop, report files and checks.

Imported by ``run.py`` after it has put the checkout's ``src`` on the path;
importing this module is the import part of set-up.
"""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from nuvdoa import arrays, cli, harness, pipeline, reports, solver, subbands

import checks
import tracing

HERE = Path(__file__).resolve().parent
NUV_METHODS = ("nuv_doa", "nuv_ssr_flat")

# Trials after the accuracy panel use config.seed = SEEDED_BASE + seed * SEEDED_STRIDE,
# far from the panel's trial seeds and wide enough for any run's trial count.
SEEDED_BASE = 1_000_000
SEEDED_STRIDE = 10_000


@dataclass
class Outcome:
    method: str
    snr_db: float
    panel: bool
    ms: float
    record: object
    problems: list


def set_up(workload: str):
    """Parse the workload config, load the packaged tables, warm up.

    Returns the config and the time ``cli.parse_config`` took (ms).
    """
    with open(HERE / "workloads" / f"{workload}.yaml") as handle:
        raw = yaml.safe_load(handle)
    started = perf_counter()
    config = cli.parse_config(raw)
    parse_ms = (perf_counter() - started) * 1e3
    pipeline.load_default_sigma2_table()
    pipeline.load_default_error_table()
    _warm_up(config)
    return config, parse_ms


def _warm_up(config):
    """First calls into the BLAS/LAPACK paths a trial uses, on small problems."""
    record = harness.run_trial(config, 0, method="root_music")
    geometry = arrays.UlaGeometry(config.n_sensors)
    truth = np.radians(record.true_doas_deg)
    batch = arrays.simulate_snapshots(
        arrays.Scenario(geometry=geometry, true_doas=truth,
                        n_snapshots=config.n_snapshots, snr_db=config.snr_db), 0)
    stat = arrays.snapshot_mean(batch)
    solver_cfg = replace(config.solver_config(1.0), max_iterations=20)
    grid = arrays.build_grid(64)
    solver.solve(arrays.build_dictionary(grid, geometry), stat, solver_cfg)
    plan = subbands.plan_subbands(float(truth[0]) - 1e-3, float(truth[0]) + 1e-3,
                                  np.radians(0.01), np.radians(0.5))
    subbands.superres_scan(plan, stat, solver_cfg, geometry)


def _trial_inputs(config, seed: int):
    """(config, trial index) pairs: the accuracy panel, then seeded trials."""
    for index in range(config.trials):
        yield config, index, True
    seeded = replace(config, seed=SEEDED_BASE + seed * SEEDED_STRIDE)
    index = 0
    while True:
        yield seeded, index, False
        index += 1


def _run_one(config, index, method, snr_db, workload, panel):
    started = perf_counter()
    try:
        record = harness.run_trial(config, index, method=method, snr_db=snr_db)
    except Exception:  # a raising trial is a failed trial; the loop goes on
        ms = (perf_counter() - started) * 1e3
        return Outcome(method, snr_db, panel, ms, None,
                       [traceback.format_exc(limit=3)])
    ms = (perf_counter() - started) * 1e3
    problems = checks.trial_problems(record, config.k_sources, workload, snr_db)
    return Outcome(method, snr_db, panel, ms, record, problems)


def _write_reports(config, outcomes, out_dir: Path):
    """Per-cell report files and the summary CSV, then read back.

    Returns the loaded reports, write ms, load ms and bytes written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    cells = {}
    for outcome in outcomes:
        if outcome.record is not None:
            cells.setdefault((outcome.method, outcome.snr_db), []).append(outcome.record)
    cell_reports = []
    paths = []
    for (method, snr_db), records in cells.items():
        report = harness.RunReport(
            method=method, snr_db=snr_db, n_snapshots=config.n_snapshots,
            k_sources=config.k_sources, trials=len(records),
            detection_threshold_deg=config.detection_threshold_deg,
            records=tuple(records),
            aggregates=harness.aggregate(records, config.detection_threshold_deg))
        path = out_dir / f"report_{method}_snr{snr_db:+.1f}.jsonl"
        reports.dump_report(report, path)
        cell_reports.append(report)
        paths.append(path)
    summary = out_dir / "summary.csv"
    reports.write_summary_csv(cell_reports, summary)
    wrote = perf_counter()
    loaded = [reports.load_report(path) for path in paths]
    done = perf_counter()
    size = sum(path.stat().st_size for path in paths + [summary])
    return loaded, (wrote - started) * 1e3, (done - wrote) * 1e3, size


def run(workload: str, seed: int, seconds: float, trace: bool, setup_s: float | None):
    """Run one workload; returns (attempted, failed, problems, metrics)."""
    config, parse_ms = set_up(workload)
    nuv_method = next(m for m in config.method_list if m in NUV_METHODS)
    out_dir = HERE / "results" / workload / f"seed{seed}-trace{int(trace)}"
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()

    outcomes = []
    started = perf_counter()
    for cfg, index, panel in _trial_inputs(config, seed):
        for method in config.method_list:
            for snr_db in config.snr_list:
                outcomes.append(_run_one(cfg, index, method, snr_db, workload, panel))
        panel_done = not panel or index == config.trials - 1
        if panel_done and perf_counter() - started >= seconds:
            break
    if tracer:
        tracer.remove()
    loaded, write_ms, load_ms, size = _write_reports(config, outcomes, out_dir)
    elapsed = perf_counter() - started

    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"failed trial {o.method} @ {o.snr_db} dB: {o.problems}", file=sys.stderr)
    problems = checks.report_problems(loaded)

    first = next(o for o in outcomes if o.method == nuv_method)
    again = harness.run_trial(config, 0, method=first.method, snr_db=first.snr_db)
    if (first.record is None or again.estimates_deg != first.record.estimates_deg
            or again.matched_errors_deg != first.record.matched_errors_deg):
        problems.append("re-run of the first trial is not bit-identical")

    attempted = len(outcomes)
    rate = attempted / elapsed
    print(f"{workload}: {attempted} trials in {elapsed:.2f} s "
          f"({rate:.4f} trials/s, trace {int(trace)})")
    if tracer:
        for args, result in tracer.solve_samples:
            problems.extend(checks.oracle_problems(args, result))
        tracer.dump(out_dir / "trace.json")
        records = [o.record for o in outcomes]
        metrics = tracing.layer_metrics(tracer.spans, records, {
            "reports_write_ms": write_ms,
            "reports_load_ms": load_ms,
            "reports_bytes": size,
            "parse_config_ms": parse_ms,
        })
        return attempted, len(failed), problems, metrics

    # Accuracy counts every panel estimate, also those that failed a check.
    panel_errors = [e for o in outcomes
                    if o.panel and o.method == nuv_method
                    and checks.has_estimates(o.record, config.k_sources)
                    for e in checks.sorted_errors(o.record.estimates_deg,
                                                  o.record.true_doas_deg)]
    if not panel_errors:
        raise RuntimeError("no trial of the accuracy panel returned estimates")
    median_err, rmse = checks.accuracy(panel_errors)
    nuv_ms = [o.ms for o in outcomes if o.method == nuv_method]
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": rate,
        "trial_ms_p50": statistics.median(nuv_ms),
        "median_abs_error_deg": median_err,
        "rmse_deg": rmse,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, len(failed), problems, metrics
