"""Seeded benchmark of the nuvdoa Monte-Carlo trials.

Run from the root of a checkout:

    python3 perfbench/run.py --workload single_source_scan --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload in turn.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_source_scan", "flat_and_baselines", "two_source_scan")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up once, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it has set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    started = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter()
        try:
            child.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return ready - started


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    units = declared_metrics(args.trace)
    if not (ROOT / "src" / "nuvdoa").is_dir():
        print(f"no nuvdoa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_samples = ([] if args.trace or args.probe
                     else [probe_setup(args) for _ in range(SETUP_PROBES)])
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.probe:
        bench.set_up(args.workload)
        print("ready", flush=True)
        return 0
    setup_s = statistics.median(setup_samples) if setup_samples else None
    attempted, failed, problems, metrics = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), setup_s)
    if set(metrics) != set(units):
        print(f"printed metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 3
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {args.workload} {name} = {value!r} {units[name]}")
    print(f"  {args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
