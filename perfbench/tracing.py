"""Spans around calls into the nuvdoa modules, recorded from outside the package.

The package binds names with ``from .x import y``, so each public function is
wrapped under every module attribute its callers look it up by (for example
both ``nuvdoa.harness.solve`` and ``nuvdoa.pipeline.solve``).  A span holds
its name, start, end, parent span and trial id; spans stay in memory and are
written out when the run ends.  Every span under a ``harness.run_trial``
span carries that trial's id.  Private internals, such as the band-stack
iterations of the sub-band scan, are not reachable from here.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import asdict, dataclass, field
from time import perf_counter

# (module, attribute its callers look up, span name)
WRAPPED = (
    ("nuvdoa.harness", "run_trial", "harness.run_trial"),
    ("nuvdoa.harness", "match_and_score", "harness.match_and_score"),
    ("nuvdoa.harness", "simulate_snapshots", "arrays.simulate_snapshots"),
    ("nuvdoa.harness", "build_dictionary", "arrays.build_dictionary"),
    ("nuvdoa.pipeline", "build_dictionary", "arrays.build_dictionary"),
    ("nuvdoa.harness", "solve", "solver.solve"),
    ("nuvdoa.pipeline", "solve", "solver.solve"),
    ("nuvdoa.harness", "select_peaks", "solver.select_peaks"),
    ("nuvdoa.pipeline", "select_peaks", "solver.select_peaks"),
    ("nuvdoa.harness", "estimate_multisource", "pipeline.estimate_multisource"),
    ("nuvdoa.pipeline", "coarse_estimate", "pipeline.coarse_estimate"),
    ("nuvdoa.pipeline", "cancel_interference", "pipeline.cancel_interference"),
    ("nuvdoa.pipeline", "refine_source", "pipeline.refine_source"),
    ("nuvdoa.pipeline", "plan_subbands", "subbands.plan_subbands"),
    ("nuvdoa.pipeline", "superres_scan", "subbands.superres_scan"),
    ("nuvdoa.harness", "root_music", "baselines.root_music"),
    ("nuvdoa.pipeline", "root_music", "baselines.root_music"),
    ("nuvdoa.harness", "bartlett_spectrum", "baselines.spectrum"),
    ("nuvdoa.harness", "mvdr_spectrum", "baselines.spectrum"),
    ("nuvdoa.harness", "music_spectrum", "baselines.spectrum"),
)

# Solve calls kept (inputs and outputs) for the posterior-moment oracle.
ORACLE_SAMPLES = 2


@dataclass
class Span:
    name: str
    parent: int
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.solve_samples = []
        self._stack = []
        self._trials = 0
        self._saved = []

    def install(self):
        for module_name, attribute, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))

    def remove(self):
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            trial = self.spans[parent].trial
        elif name == "harness.run_trial":
            trial = self._trials
            self._trials += 1
        else:
            trial = None
        self.spans.append(Span(name=name, parent=parent, trial=trial))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _wrap(self, func, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            self._note(span, args, result)
            return result

        return traced

    def _note(self, span: Span, args, result):
        if span.name == "solver.solve":
            trace = result[2]
            span.info = {"iterations": trace.iterations,
                         "converged": bool(trace.converged)}
            if span.trial is not None and len(self.solve_samples) < ORACLE_SAMPLES:
                self.solve_samples.append((args, result))
        elif span.name == "subbands.superres_scan":
            span.info = {"bands": len(args[0].bands)}
        elif span.name == "pipeline.coarse_estimate":
            span.info = {"method": result.method,
                         "angles_deg": [math.degrees(a) for a in result.angles]}

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def _ratio(numerator: float, denominator: float) -> float:
    """A per-unit figure; 0.0 where the layer did not run."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, records, run_stats) -> dict:
    """Per-layer figures from the spans of one timed loop.

    ``records`` holds the loop's trial records in trial-id order (``None``
    where ``run_trial`` raised).  Times and counts are per trial of any
    method unless their name says otherwise; ``run_stats`` brings the
    figures the benchmark timed itself (report files, config parsing).
    """
    trials = len(records)
    in_trials = [s for s in spans if s.trial is not None]
    total_ms = {}
    calls = {}
    for span in in_trials:
        total_ms[span.name] = total_ms.get(span.name, 0.0) + span.ms
        calls[span.name] = calls.get(span.name, 0) + 1

    def per_trial_ms(name):
        return _ratio(total_ms.get(name, 0.0), trials)

    def per_trial_calls(name):
        return _ratio(calls.get(name, 0), trials)

    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ms[span.parent] += span.ms
    trial_self = sum(span.ms - child_ms[i] for i, span in enumerate(spans)
                     if span.name == "harness.run_trial" and span.trial is not None)

    scans = [s for s in in_trials if s.name == "subbands.superres_scan"]
    bands = sum(s.info["bands"] for s in scans)
    solves = [s for s in in_trials if s.name == "solver.solve"]
    iterations = sum(s.info["iterations"] for s in solves)
    coarse = [s for s in in_trials if s.name == "pipeline.coarse_estimate"]
    improved, refined = _refine_outcomes(coarse, records)

    return {
        "subbands.scan_calls": per_trial_calls("subbands.superres_scan"),
        "subbands.bands": _ratio(bands, len(scans)),
        "subbands.scan_ms": per_trial_ms("subbands.superres_scan"),
        "subbands.ms_per_band": _ratio(total_ms.get("subbands.superres_scan", 0.0), bands),
        "subbands.plan_ms": per_trial_ms("subbands.plan_subbands"),
        "solver.solve_calls": per_trial_calls("solver.solve"),
        "solver.solve_ms": per_trial_ms("solver.solve"),
        "solver.iterations_per_solve": _ratio(iterations, len(solves)),
        "solver.ms_per_iteration": _ratio(total_ms.get("solver.solve", 0.0), iterations),
        "solver.converged_ratio": _ratio(sum(s.info["converged"] for s in solves), len(solves)),
        "solver.peaks_ms": per_trial_ms("solver.select_peaks"),
        "pipeline.coarse_ms": per_trial_ms("pipeline.coarse_estimate"),
        "pipeline.coarse_root_music_count": _ratio(
            sum(s.info["method"] == "root_music" for s in coarse), trials),
        "pipeline.coarse_sparse_count": _ratio(
            sum(s.info["method"] == "nuv_coarse" for s in coarse), trials),
        "pipeline.cancel_ms": per_trial_ms("pipeline.cancel_interference"),
        "pipeline.refine_ms": per_trial_ms("pipeline.refine_source"),
        "pipeline.refine_improved_ratio": _ratio(improved, refined),
        "baselines.spectrum_ms": per_trial_ms("baselines.spectrum"),
        "baselines.root_music_ms": per_trial_ms("baselines.root_music"),
        "arrays.simulate_ms": per_trial_ms("arrays.simulate_snapshots"),
        "arrays.dictionary_ms": per_trial_ms("arrays.build_dictionary"),
        "arrays.dictionary_calls": per_trial_calls("arrays.build_dictionary"),
        "harness.trial_self_ms": _ratio(trial_self, trials),
        "harness.match_ms": per_trial_ms("harness.match_and_score"),
        "reports.write_ms": run_stats["reports_write_ms"],
        "reports.load_ms": run_stats["reports_load_ms"],
        "reports.bytes": run_stats["reports_bytes"],
        "cli.parse_config_ms": run_stats["parse_config_ms"],
    }


def _refine_outcomes(coarse_spans, records):
    """Sources whose final error is below their coarse error, and sources seen.

    Coarse and final angles are both matched to the truth by sorting, the
    optimal assignment in one dimension.
    """
    improved = 0
    seen = 0
    for span in coarse_spans:
        record = records[span.trial]
        if record is None or record.estimates_deg is None:
            continue
        truth = sorted(record.true_doas_deg)
        final = sorted(record.estimates_deg)
        for c, f, t in zip(sorted(span.info["angles_deg"]), final, truth):
            seen += 1
            improved += abs(f - t) < abs(c - t)
    return improved, seen
