"""Command line interface: simulate, spectrum, estimate and sweep.

Configs are YAML documents (see docs/config_schema.md).  Exit codes: 0 on
success, 2 for configuration problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .arrays import UlaGeometry, snapshot_mean
from .harness import (
    METHOD_TABLE,
    SPECTRUM_METHODS,
    ScenarioConfig,
    run_sweep,
    run_trial,
    simulate_trial,
)
from .pipeline import resolve_sigma2
from .reports import dump_report, write_spectrum_csv, write_summary_csv
from .solver import SolverNumericalError, Spectrum
from .subbands import plan_subbands, superres_scan

# ScenarioConfig fields that configs write under the `scenario:` section.
_SCENARIO_KEYS = ("k_sources", "n_sensors", "n_snapshots", "snr_db", "source_model")


class ConfigError(ValueError):
    pass


def _section(value, name: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


_TYPE_NAMES = {type(None): "null", bool: "true or false", int: "an integer",
               float: "a number", str: "a string"}


def _fits(kind, value) -> bool:
    if get_origin(kind) is Literal:
        return value in get_args(kind)
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is float:
        return isinstance(value, (int, float)) and not math.isnan(value)
    return isinstance(value, kind)


def _check_type(name: str, kind, value):
    """Check ``value`` against a field annotated ``kind`` and return it as
    the field stores it; a mismatch is a ConfigError.

    An int field takes no float or bool, a float field also takes an int
    but no NaN, and a tuple field takes a list whose items fit its item
    type.
    """
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list")
        item = get_args(kind)[0]
        for index, entry in enumerate(value):
            _check_type(f"{name}[{index}]", item, entry)
        return tuple(value)
    options = get_args(kind) if get_origin(kind) in (Union, UnionType) else (kind,)
    if not any(_fits(option, value) for option in options):
        names = [" or ".join(map(repr, get_args(option)))
                 if get_origin(option) is Literal else _TYPE_NAMES[option]
                 for option in options]
        wanted = names[-1] if len(names) == 1 else (
            ", ".join(names[:-1]) + " or " + names[-1])
        raise ConfigError(f"{name} must be {wanted}")
    return value


def _build(default, raw: dict, prefix: str = "", paths=None):
    """``default`` with the values of ``raw`` put in, field by field.

    Keys are the dataclass's field names; a dataclass-valued field reads a
    nested mapping, any other field a value of its annotated type (see
    ``_check_type``).  An omitted key keeps its value in ``default``.
    Errors name a key by ``prefix + key``, or by ``paths[key]`` for a key
    the config file writes under another section.
    """
    kinds = get_type_hints(type(default))
    changes = {}
    for key, value in raw.items():
        name = (paths or {}).get(key, prefix + key)
        if is_dataclass(kinds[key]):
            value = _build(getattr(default, key), _section(value, name), name + ".")
        else:
            value = _check_type(name, kinds[key], value)
        changes[key] = value
    return replace(default, **changes)


def _dotted(mapping: dict, prefix: str = ""):
    """The dotted path of every key in a nest of mappings."""
    for key, value in mapping.items():
        yield prefix + str(key)
        if isinstance(value, dict):
            yield from _dotted(value, prefix + str(key) + ".")


def config_keys() -> set:
    """Every dotted key that ``parse_config`` accepts."""
    layout = asdict(ScenarioConfig())
    layout["scenario"] = {key: layout.pop(key) for key in _SCENARIO_KEYS}
    return {"schema_version", *_dotted(layout)}


def parse_config(raw: dict) -> ScenarioConfig:
    """A ScenarioConfig from a YAML mapping; every omitted key takes the
    dataclass default, and an unknown key is an error."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    accepted = config_keys()
    unknown = [key for key in _dotted(raw) if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    raw = dict(raw)
    version = raw.pop("schema_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}")
    scenario = _section(raw.pop("scenario", None), "scenario")
    try:
        return _build(ScenarioConfig(), {**raw, **scenario},
                      paths={key: "scenario." + key for key in scenario})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


class _ConfigLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1 and so reads ``1e4``
    and ``1.0e4`` as strings, taught YAML 1.2's exponent form of a float."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+$"),
    list("-+0123456789."))


def load_config(path, args) -> ScenarioConfig:
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=_ConfigLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    config = parse_config(raw if raw is not None else {})
    if args.seed is not None:
        try:
            config = replace(config, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
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
    if method != "superres":
        _, method_spectrum = METHOD_TABLE[method]
        return method_spectrum(batch, config, config.snr_db)
    solver_cfg = config.solver_config(resolve_sigma2(config.solver, config.snr_db))
    try:
        plan = plan_subbands(math.radians(args.scan_lo_deg),
                             math.radians(args.scan_hi_deg),
                             math.radians(config.pipeline.fine_step_deg),
                             math.radians(config.pipeline.half_width_deg))
    except ValueError as exc:
        raise ConfigError(f"superres scan window: {exc}") from None
    return superres_scan(plan, snapshot_mean(batch), solver_cfg,
                         UlaGeometry(config.n_sensors))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuvdoa",
        description="Sparse Bayesian DoA estimation benchmark harness")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit snapshot batches as .npz files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", help="one trial's spectrum as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True,
                   choices=SPECTRUM_METHODS + ("superres",))
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
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
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
