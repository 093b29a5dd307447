"""Monte-Carlo benchmark harness: scenario configs, trials, sweeps, calibration.

Angles cross this boundary in degrees; everything handed to the estimation
modules is converted to radians first, except the solver and pipeline
settings, which keep config-file units and are converted where they are used.  A trial is a pure function of
(config, trial_index): the trial seed is ``config.seed + trial_index``, the
direction draw uses an rng derived from that seed, and the same seed drives
the snapshot simulation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .arrays import (
    SOURCE_MODELS,
    Scenario,
    UlaGeometry,
    build_dictionary,  # noqa: F401  (kept: perfbench/tracing.py wraps this name)
    build_grid,
    sample_covariance,
    simulate_snapshots,
    snapshot_mean,
)
from .baselines import (
    RootDeficitError,
    bartlett_spectrum,
    music_spectrum,
    mvdr_spectrum,
    root_music,
)
from .pipeline import (
    ErrorStdTable,
    PipelineSettings,
    Sigma2Table,
    coarse_estimate,
    estimate_multisource,
    full_azimuth_dictionary,
    resolve_sigma2,
)
from .solver import (
    SolverConfig,
    SolverNumericalError,
    SolverSettings,
    select_peaks,
    solve,
    spectrum,
)

_DOA_STREAM_TAG = 0xD0A


@dataclass(frozen=True)
class DoaSampling:
    """How each trial draws its true directions (degrees at this boundary).

    ``fixed`` replays the same angles every trial; ``uniform_range`` draws
    the sources in [lo, hi], every pair at least ``min_separation_deg``
    apart.
    """

    kind: str
    angles_deg: tuple[float, ...] = ()
    lo_deg: float = -75.0
    hi_deg: float = 75.0
    min_separation_deg: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform_range"):
            raise ValueError(f"unknown doa_sampling kind {self.kind!r}")
        if self.kind == "fixed":
            if len(self.angles_deg) == 0:
                raise ValueError("fixed sampling needs at least one angle")
            object.__setattr__(self, "angles_deg",
                               tuple(float(a) for a in self.angles_deg))
            if not all(-90.0 <= a < 90.0 for a in self.angles_deg):
                raise ValueError("fixed angles must lie in [-90, 90) deg")
        else:
            for name in ("lo_deg", "hi_deg"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite")
            if not self.lo_deg < self.hi_deg:
                raise ValueError("need lo_deg < hi_deg")
            if self.lo_deg < -90.0 or self.hi_deg > 90.0:
                raise ValueError("sampling range must lie within [-90, 90] deg")
            if not 0.0 <= self.min_separation_deg < math.inf:
                raise ValueError("min_separation_deg must be finite and nonnegative")

    def check(self, k: int) -> None:
        """Raise ValueError unless some draw of ``k`` directions exists."""
        if self.kind == "fixed":
            if len(self.angles_deg) != k:
                raise ValueError("fixed angle count does not match k_sources")
            return
        if (k - 1) * self.min_separation_deg >= self.hi_deg - self.lo_deg:
            raise ValueError(f"no {k} directions fit in the sampling range "
                             f"more than min_separation_deg apart")

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Sorted true directions in radians.

        ``uniform_range`` draws ``k`` sorted points in the range shortened
        by the ``k - 1`` separations, then spreads the i-th point by ``i``
        separations, in one pass.  At zero separation this is the sorted
        uniform draw over [lo, hi].
        """
        self.check(k)
        if self.kind == "fixed":
            return np.sort(np.radians(self.angles_deg))
        sep = self.min_separation_deg
        room = self.hi_deg - self.lo_deg - (k - 1) * sep
        return np.radians(self.lo_deg + np.sort(rng.uniform(0.0, room, size=k))
                          + sep * np.arange(k))


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark cell family: scenario, method(s), trial schedule."""

    k_sources: int = 1
    n_sensors: int = 16
    n_snapshots: int = 100
    snr_db: float = 10.0
    source_model: str = "noncoherent"
    method: str = "nuv_doa"
    methods: tuple[str, ...] = ()
    trials: int = 100
    seed: int = 0
    doa_sampling: DoaSampling = field(default_factory=lambda: DoaSampling("uniform_range"))
    snr_sweep: tuple[float, ...] = ()
    solver: SolverSettings = field(default_factory=SolverSettings)
    pipeline: PipelineSettings = field(default_factory=PipelineSettings)
    flat_grid_cells: int = 3000
    baseline_grid_cells: int = 1801
    detection_threshold_deg: float = 1.0
    timing: bool = False
    # Kept so that config files that say ``workers: 1`` still parse; the
    # sub-band scan runs on one thread, so no other value is accepted.
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 1 <= self.k_sources < self.n_sensors:
            raise ValueError("need 1 <= k_sources < n_sensors")
        if self.source_model not in SOURCE_MODELS:
            raise ValueError(f"unknown source model {self.source_model!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        self.doa_sampling.check(self.k_sources)
        for name in ("flat_grid_cells", "baseline_grid_cells"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if not self.detection_threshold_deg > 0:
            raise ValueError("detection_threshold_deg must be positive")
        if self.snr_db == -math.inf:
            raise ValueError("snr_db must be greater than -inf")
        if -math.inf in self.snr_sweep:
            raise ValueError("snr_sweep items must be greater than -inf")
        if self.workers != 1:
            raise ValueError("workers must be 1: the sub-band scan runs on one thread")
        # Build a solver spec once, so its checks fire here.
        self.solver_config(1.0 if self.solver.sigma2 is None else self.solver.sigma2)

    @property
    def method_list(self) -> tuple:
        return self.methods if self.methods else (self.method,)

    @property
    def snr_list(self) -> tuple:
        return self.snr_sweep if self.snr_sweep else (self.snr_db,)

    def solver_config(self, sigma2: float) -> SolverConfig:
        return self.solver.solver_config(self.n_snapshots, sigma2)

    def pipeline_settings(self, snr_db: float) -> PipelineSettings:
        """The pipeline settings with ``known_snr: "scenario"`` pinned to ``snr_db``."""
        if self.pipeline.known_snr == "scenario":
            return replace(self.pipeline, known_snr=snr_db)
        return self.pipeline


@dataclass(frozen=True, slots=True)
class TrialRecord:
    seed: int
    true_doas_deg: tuple
    estimates_deg: tuple | None
    matched_errors_deg: tuple | None
    method: str
    runtime_ms: float | None
    flags: tuple


@dataclass(frozen=True)
class Aggregates:
    rmse_deg: float | None
    median_abs_error_deg: float | None
    detection_rate: float
    false_alarm_count: int


@dataclass(frozen=True)
class RunReport:
    method: str
    snr_db: float
    n_snapshots: int
    k_sources: int
    trials: int
    detection_threshold_deg: float
    records: tuple
    aggregates: Aggregates


def match_and_score(estimates_deg, truth_deg):
    """Squared-error-optimal assignment of estimates to truths.

    Angles are plain degrees on a half-open interval, so differences are
    ordinary subtractions with no wraparound.  On a line, pairing the
    sorted estimates with the sorted truths minimizes the summed squared
    error.  Returns (matched errors in truth order, rmse).
    """
    est = np.asarray(estimates_deg, dtype=float)
    tru = np.asarray(truth_deg, dtype=float)
    if est.shape != tru.shape or est.ndim != 1:
        raise ValueError("estimates and truth must be equal-length vectors")
    order = np.argsort(tru, kind="stable")
    errors = np.empty_like(tru)
    errors[order] = np.sort(est) - tru[order]
    return errors, math.sqrt(float(np.sum(errors ** 2)) / est.size)


# Method table entries take (batch, config, snr_db).  They call the imported
# functions through this module's globals at call time, so wrapping those
# globals (as perfbench/tracing.py does) reaches every method.

def _nuv_doa(batch, config: ScenarioConfig, snr_db: float):
    angles, trace = estimate_multisource(
        batch, config.k_sources, config.pipeline_settings(snr_db), config.solver)
    return angles, tuple(trace.flags)


def _nuv_ssr_flat(batch, config: ScenarioConfig, snr_db: float):
    grid, dictionary = full_azimuth_dictionary(config.flat_grid_cells,
                                               config.n_sensors)
    sigma2 = resolve_sigma2(config.solver, snr_db)
    _, moments, _ = solve(dictionary, snapshot_mean(batch),
                          config.solver_config(sigma2), steering=True)
    return spectrum(moments, grid)


def _covariance_on_grid(batch, config: ScenarioConfig):
    return sample_covariance(batch), build_grid(config.baseline_grid_cells)


# name -> ("spectrum", function returning a Spectrum that run_method
# peak-picks) or ("estimator", function returning sorted radians and flags).
METHOD_TABLE = {
    "nuv_doa": ("estimator", _nuv_doa),
    "nuv_ssr_flat": ("spectrum", _nuv_ssr_flat),
    "bartlett": ("spectrum", lambda batch, config, snr_db:
                 bartlett_spectrum(*_covariance_on_grid(batch, config))),
    "mvdr": ("spectrum", lambda batch, config, snr_db:
             mvdr_spectrum(*_covariance_on_grid(batch, config))),
    "music": ("spectrum", lambda batch, config, snr_db:
              music_spectrum(*_covariance_on_grid(batch, config), config.k_sources)),
    "root_music": ("estimator", lambda batch, config, snr_db:
                   (root_music(sample_covariance(batch), config.k_sources), ())),
}

METHODS = tuple(METHOD_TABLE)
SPECTRUM_METHODS = tuple(m for m, (kind, _) in METHOD_TABLE.items() if kind == "spectrum")


def run_method(batch, method: str, config: ScenarioConfig, snr_db: float):
    """Angles (radians, sorted) and flags for one method on one batch.

    Failures surface as a ``None`` estimate with a flag rather than an
    exception, so sweeps keep going.
    """
    kind, func = METHOD_TABLE[method]
    try:
        if kind == "estimator":
            return func(batch, config, snr_db)
        peaks = select_peaks(func(batch, config, snr_db), config.k_sources)
    except RootDeficitError:
        return None, ("root_deficit",)
    except SolverNumericalError:
        return None, ("solver_numerical_failure",)
    flags = ("peak_fallback_filled",) if peaks.fallback_filled else ()
    return np.sort(peaks.angles), flags


def simulate_trial(config: ScenarioConfig, trial_index: int,
                   snr_db: float | None = None):
    """The scenario and snapshot batch of one trial.

    The trial seed ``config.seed + trial_index`` drives both the direction
    draw (through an rng tagged for that purpose) and the snapshot noise.
    ``snr_db`` defaults to ``config.snr_db``.  Returns (Scenario,
    SnapshotBatch).
    """
    trial_seed = config.seed + trial_index
    rng = np.random.default_rng((trial_seed, _DOA_STREAM_TAG))
    scenario = Scenario(
        geometry=UlaGeometry(config.n_sensors),
        true_doas=config.doa_sampling.draw(config.k_sources, rng),
        n_snapshots=config.n_snapshots,
        snr_db=config.snr_db if snr_db is None else snr_db,
        source_model=config.source_model,
    )
    return scenario, simulate_snapshots(scenario, trial_seed)


@lru_cache(maxsize=1)
def _float_tuple(data: bytes) -> tuple:
    """The float64 values packed in ``data``, as a tuple.

    Trials in a row with the same true directions (a fixed draw, or one
    trial run for several methods and SNRs) share one tuple rather than
    one each.  The key is the bytes, so -0.0 and 0.0 stay apart.
    """
    return tuple(np.frombuffer(data).tolist())


def run_trial(config: ScenarioConfig, trial_index: int,
              method: str | None = None, snr_db: float | None = None) -> TrialRecord:
    method = method or config.method_list[0]
    snr_db = config.snr_db if snr_db is None else snr_db
    trial_seed = config.seed + trial_index
    scenario, batch = simulate_trial(config, trial_index, snr_db)
    started = time.perf_counter() if config.timing else None
    estimates, flags = run_method(batch, method, config, snr_db)
    runtime_ms = ((time.perf_counter() - started) * 1e3
                  if started is not None else None)
    truth_deg = np.degrees(scenario.true_doas)
    estimates_deg = matched_errors_deg = None
    if estimates is not None:
        degrees = np.degrees(estimates)
        errors, _ = match_and_score(degrees, truth_deg)
        estimates_deg = tuple(degrees.tolist())
        matched_errors_deg = tuple(errors.tolist())
    return TrialRecord(seed=trial_seed, true_doas_deg=_float_tuple(truth_deg.tobytes()),
                       estimates_deg=estimates_deg,
                       matched_errors_deg=matched_errors_deg,
                       method=method, runtime_ms=runtime_ms, flags=flags)


def aggregate(records, threshold_deg: float) -> Aggregates:
    """Pooled per-source metrics; trials without estimates count as misses."""
    pooled = [e for r in records if r.matched_errors_deg is not None
              for e in r.matched_errors_deg]
    detected = sum(
        1 for r in records
        if r.matched_errors_deg is not None
        and all(abs(e) < threshold_deg for e in r.matched_errors_deg))
    false_alarms = sum(1 for e in pooled if abs(e) >= threshold_deg)
    if pooled:
        arr = np.abs(np.asarray(pooled))
        rmse = float(np.sqrt(np.mean(arr ** 2)))
        # np.median's value, read off the sorted errors: np.median imports
        # numpy.ma on first use, about half a megabyte.  Sorting puts NaN
        # last; np.median returns NaN if there is one.
        arr.sort()
        middle = arr.size // 2
        if arr.size % 2:
            median = float(arr[middle])
        else:
            median = float((arr[middle - 1] + arr[middle]) / 2)
        if np.isnan(arr[-1]):
            median = math.nan
    else:
        rmse = None
        median = None
    return Aggregates(rmse_deg=rmse, median_abs_error_deg=median,
                      detection_rate=detected / len(records) if records else 0.0,
                      false_alarm_count=false_alarms)


def run_cell(config: ScenarioConfig, method: str, snr_db: float) -> RunReport:
    """All trials of one (method, snr) cell, in deterministic trial order."""
    records = [run_trial(config, i, method=method, snr_db=snr_db)
               for i in range(config.trials)]
    return RunReport(method=method, snr_db=snr_db,
                     n_snapshots=config.n_snapshots,
                     k_sources=config.k_sources, trials=config.trials,
                     detection_threshold_deg=config.detection_threshold_deg,
                     records=tuple(records),
                     aggregates=aggregate(records, config.detection_threshold_deg))


def run_sweep(config: ScenarioConfig):
    """One RunReport per (method, snr) in the Cartesian product."""
    return [run_cell(config, method, snr)
            for method in config.method_list for snr in config.snr_list]


def calibrate_epsilon(config: ScenarioConfig):
    """Coarse-stage error std (degrees) per sweep SNR.

    A trial counts as successful when every coarse error is below the
    detection threshold; the std is taken over successful errors only, and
    entries backed by fewer than 30 successes are flagged.
    Returns (ErrorStdTable, per-entry flag tuples).
    """
    if not config.snr_list:
        raise ValueError("calibration needs at least one SNR point")
    snrs = []
    epsilons = []
    entry_flags = []
    for snr_db in config.snr_list:
        good = []
        settings = config.pipeline_settings(snr_db)
        for i in range(config.trials):
            scenario, batch = simulate_trial(config, i, snr_db)
            try:
                coarse = coarse_estimate(batch, config.k_sources, settings,
                                         config.solver)
            except (RootDeficitError, SolverNumericalError):
                continue
            errors, _ = match_and_score(np.degrees(coarse.angles),
                                        np.degrees(scenario.true_doas))
            if all(abs(e) < config.detection_threshold_deg for e in errors):
                good.extend(errors)
        snrs.append(snr_db)
        if len(good) >= 2:
            epsilons.append(max(float(np.std(good)), 1e-6))
        else:
            epsilons.append(1.0)
        entry_flags.append(("low_confidence",) if len(good) < 30 else ())
    table = ErrorStdTable(snrs_db=tuple(snrs), epsilons_deg=tuple(epsilons))
    return table, tuple(entry_flags)


def calibrate_sigma2(config: ScenarioConfig, candidates):
    """Pick the RMSE-minimizing solver noise floor per sweep SNR.

    Ties resolve toward the smaller candidate.  Returns a Sigma2Table.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    ordered = sorted(float(c) for c in candidates)
    snrs = []
    chosen = []
    for snr_db in config.snr_list:
        best = None
        best_rmse = None
        for cand in ordered:
            cfg = replace(config, solver=replace(config.solver, sigma2=cand))
            records = [run_trial(cfg, i, method="nuv_ssr_flat", snr_db=snr_db)
                       for i in range(config.trials)]
            agg = aggregate(records, config.detection_threshold_deg)
            rmse = agg.rmse_deg if agg.rmse_deg is not None else math.inf
            if best_rmse is None or rmse < best_rmse:
                best_rmse = rmse
                best = cand
        snrs.append(snr_db)
        chosen.append(best)
    return Sigma2Table(snrs_db=tuple(snrs), sigma2s=tuple(chosen))
