"""Command line interface for simulation, estimation, sweeps, calibration.

Configs are YAML documents (see docs/config_schema.md).  Exit codes: 0 on
success, 2 for configuration problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from .arrays import (
    UlaGeometry,
    build_dictionary,
    build_grid,
    sample_covariance,
    snapshot_mean,
)
from .baselines import bartlett_spectrum, music_spectrum, mvdr_spectrum
from .harness import (
    DEFAULT_SIGMA2_CANDIDATES,
    DoaSampling,
    PipelineSettings,
    ScenarioConfig,
    SolverSettings,
    calibrate_epsilon,
    calibrate_sigma2,
    run_sweep,
    run_trial,
    simulate_trial,
)
from .reports import (
    dump_error_table,
    dump_report,
    dump_sigma2_table,
    write_spectrum_csv,
    write_summary_csv,
)
from .solver import SolverNumericalError, Spectrum, solve, spectrum
from .subbands import plan_subbands, superres_scan


class ConfigError(ValueError):
    pass


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be a mapping")
    return dict(value)


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    version = raw.get("schema_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}")
    scenario = _section(raw, "scenario")
    sampling_raw = _section(raw, "doa_sampling")
    solver_raw = _section(raw, "solver")
    init_raw = solver_raw.pop("init", {}) or {}
    pipeline_raw = _section(raw, "pipeline")
    try:
        sampling = DoaSampling(
            kind=sampling_raw.get("kind", "uniform_range"),
            angles_deg=tuple(sampling_raw.get("angles_deg", ())),
            lo_deg=sampling_raw.get("lo_deg", -75.0),
            hi_deg=sampling_raw.get("hi_deg", 75.0),
            min_separation_deg=sampling_raw.get("min_separation_deg", 0.0),
        )
        solver = SolverSettings(
            sigma2=solver_raw.get("sigma2"),
            max_iterations=solver_raw.get("max_iterations", 500),
            tolerance=solver_raw.get("tolerance", 1e-6),
            init_kind=init_raw.get("kind", "constant"),
            init_value=init_raw.get("value", 1.0),
            init_seed=init_raw.get("seed", 0),
        )
        pipeline = PipelineSettings(
            snr_gate_db=pipeline_raw.get("snr_gate_db", 7.0),
            coarse_cells=pipeline_raw.get("coarse_cells", 1801),
            fine_step_deg=pipeline_raw.get("fine_step_deg", 0.01),
            half_width_deg=pipeline_raw.get("half_width_deg", 0.5),
            known_snr=pipeline_raw.get("known_snr"),
        )
        return ScenarioConfig(
            k_sources=scenario.get("k_sources", 1),
            n_sensors=scenario.get("n_sensors", 16),
            n_snapshots=scenario.get("n_snapshots", 100),
            snr_db=scenario.get("snr_db", 10.0),
            source_model=scenario.get("source_model", "noncoherent"),
            method=raw.get("method", "nuv_doa"),
            methods=tuple(raw.get("methods", ())),
            trials=raw.get("trials", 100),
            seed=raw.get("seed", 0),
            doa_sampling=sampling,
            snr_sweep=tuple(raw.get("snr_sweep", ())),
            solver=solver,
            pipeline=pipeline,
            flat_grid_cells=raw.get("flat_grid_cells", 3000),
            baseline_grid_cells=raw.get("baseline_grid_cells", 1801),
            detection_threshold_deg=raw.get("detection_threshold_deg", 1.0),
            timing=bool(raw.get("timing", False)),
            workers=raw.get("workers", 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, args) -> ScenarioConfig:
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    config = parse_config(raw if raw is not None else {})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    if getattr(args, "timing", False):
        config = replace(config, timing=True)
    return config


def cmd_simulate(config: ScenarioConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(config.trials):
        scenario, batch = simulate_trial(config, i)
        np.savez(out / f"batch_{i:04d}.npz",
                 snapshots=batch.snapshots,
                 true_doas_deg=np.degrees(scenario.true_doas),
                 seed=np.array(config.seed + i))
    if args.verbose:
        print(f"wrote {config.trials} batches to {out}", file=sys.stderr)
    return 0


def _spectrum_for(config: ScenarioConfig, method: str, args) -> Spectrum:
    _, batch = simulate_trial(config, 0)
    pipeline = config.pipeline_config()
    solver_cfg = pipeline.solver_config(
        config.n_snapshots, pipeline.resolve_sigma2(config.snr_db))
    if method == "nuv_ssr_flat":
        grid = build_grid(config.flat_grid_cells)
        dictionary = build_dictionary(grid, UlaGeometry(config.n_sensors))
        _, moments, _ = solve(dictionary, snapshot_mean(batch), solver_cfg)
        return spectrum(moments, grid)
    if method == "superres":
        plan = plan_subbands(math.radians(args.scan_lo_deg),
                             math.radians(args.scan_hi_deg),
                             pipeline.fine_step, pipeline.half_width)
        return superres_scan(plan, snapshot_mean(batch), solver_cfg,
                             UlaGeometry(config.n_sensors),
                             workers=pipeline.workers)
    grid = build_grid(config.baseline_grid_cells)
    cov = sample_covariance(batch)
    if method == "bartlett":
        return bartlett_spectrum(cov, grid)
    if method == "mvdr":
        return mvdr_spectrum(cov, grid)
    if method == "music":
        return music_spectrum(cov, grid, config.k_sources)
    raise ConfigError(f"spectrum does not support method {method!r}")


def cmd_spectrum(config: ScenarioConfig, args) -> int:
    spec = _spectrum_for(config, args.method, args)
    write_spectrum_csv(spec, args.out)
    if args.verbose:
        print(f"wrote {spec.grid.values.size} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_estimate(config: ScenarioConfig, args) -> int:
    record = run_trial(config, 0)
    print(json.dumps(asdict(record)))
    return 0


def _cell_filename(method: str, snr_db: float) -> str:
    return f"report_{method}_snr{snr_db:+.1f}.jsonl"


def cmd_sweep(config: ScenarioConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = run_sweep(config)
    for report in reports:
        dump_report(report, out / _cell_filename(report.method, report.snr_db))
        if args.verbose:
            agg = report.aggregates
            print(f"{report.method} @ {report.snr_db} dB: "
                  f"rmse={agg.rmse_deg} detection={agg.detection_rate}",
                  file=sys.stderr)
    write_summary_csv(reports, out / "summary.csv")
    return 0


def cmd_calibrate(config: ScenarioConfig, args) -> int:
    if args.mode == "epsilon":
        table, flags = calibrate_epsilon(config)
        dump_error_table(table, args.out, entry_flags=flags)
    else:
        candidates = (tuple(float(c) for c in args.candidates)
                      if args.candidates else DEFAULT_SIGMA2_CANDIDATES)
        table = calibrate_sigma2(config, candidates)
        dump_sigma2_table(table, args.out)
    if args.verbose:
        print(f"wrote calibration table to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuvdoa",
        description="Sparse Bayesian DoA estimation benchmark harness")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the config worker count")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit snapshot batches as .npz files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", help="one trial's spectrum as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True,
                   choices=("nuv_ssr_flat", "superres", "bartlett", "mvdr", "music"))
    p.add_argument("--out", required=True)
    p.add_argument("--scan-lo-deg", type=float, default=-75.0, dest="scan_lo_deg")
    p.add_argument("--scan-hi-deg", type=float, default=75.0, dest="scan_hi_deg")

    p = sub.add_parser("estimate", help="single-trial estimate to stdout")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sweep", help="full Monte-Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record per-trial runtimes (makes outputs "
                        "run-dependent)")

    p = sub.add_parser("calibrate", help="emit a calibration table")
    p.add_argument("--mode", required=True, choices=("epsilon", "sigma2"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--candidates", nargs="*", type=float, default=None)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverNumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
