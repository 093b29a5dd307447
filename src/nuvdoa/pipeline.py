"""Hierarchical multi-source estimation: coarse fix, cancel, refine.

For each source the pipeline first locates all sources coarsely (a
covariance polynomial estimator at comfortable SNR, the sparse solver on a
coarse full-azimuth grid otherwise), then subtracts the least-squares fit
of the other sources' steering vectors from the snapshot mean, and finally
runs the sub-band scan on a window around the source's coarse angle whose
width comes from a calibrated table of coarse error standard deviations.
The module also reads and writes the files of both calibration tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Literal

import numpy as np

from .arrays import (
    SnapshotBatch,
    SufficientStatistic,
    UlaGeometry,
    build_dictionary,
    build_grid,
    sample_covariance,
    snapshot_mean,
    steering_matrix,
)
from .baselines import RootDeficitError, root_music
from .solver import (
    SolverConfig,
    SolverSettings,
    select_peaks,
    solve,
    spectrum,
)
from .subbands import plan_subbands, superres_scan

_FALLBACK_EPSILON_DEG = 1.0

# Version of the epsilon and sigma2 table files, apart from the report files'.
TABLE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ErrorStdTable:
    """Coarse-error standard deviation (degrees) per SNR point.

    Lookups interpolate linearly between the tabulated SNR points.  Outside
    the tabulated range the conservative 1 deg fallback applies, except for
    single-entry tables which always answer with their entry.
    """

    snrs_db: tuple
    epsilons_deg: tuple

    def __post_init__(self):
        snrs = tuple(float(s) for s in self.snrs_db)
        eps = tuple(float(e) for e in self.epsilons_deg)
        if len(snrs) != len(eps):
            raise ValueError("table columns differ in length")
        if any(e <= 0 for e in eps):
            raise ValueError("error std must be positive")
        if list(snrs) != sorted(set(snrs)):
            raise ValueError("SNR points must be strictly increasing")
        object.__setattr__(self, "snrs_db", snrs)
        object.__setattr__(self, "epsilons_deg", eps)

    def epsilon_for(self, snr_db: float) -> float:
        """Window half-scale (radians) for a coarse estimate at this SNR."""
        if len(self.snrs_db) == 0:
            eps_deg = _FALLBACK_EPSILON_DEG
        elif len(self.snrs_db) == 1:
            eps_deg = self.epsilons_deg[0]
        elif snr_db < self.snrs_db[0] or snr_db > self.snrs_db[-1]:
            eps_deg = _FALLBACK_EPSILON_DEG
        else:
            eps_deg = float(np.interp(snr_db, self.snrs_db, self.epsilons_deg))
        return max(math.radians(eps_deg), 1e-12)


@dataclass(frozen=True)
class Sigma2Table:
    """Solver noise-floor tuning per SNR point; nearest edge outside."""

    snrs_db: tuple
    sigma2s: tuple

    def __post_init__(self):
        snrs = tuple(float(s) for s in self.snrs_db)
        sig = tuple(float(s) for s in self.sigma2s)
        if len(snrs) != len(sig) or len(snrs) == 0:
            raise ValueError("table must have matching, nonempty columns")
        if any(s <= 0 for s in sig):
            raise ValueError("sigma2 values must be positive")
        if list(snrs) != sorted(set(snrs)):
            raise ValueError("SNR points must be strictly increasing")
        object.__setattr__(self, "snrs_db", snrs)
        object.__setattr__(self, "sigma2s", sig)

    def sigma2_for(self, snr_db: float) -> float:
        log_values = np.log10(self.sigma2s)
        return float(10.0 ** np.interp(snr_db, self.snrs_db, log_values))


def _load_packaged(name: str) -> dict:
    with resources.files("nuvdoa.data").joinpath(name).open() as handle:
        return json.load(handle)


def _dump_table(description: str, entries: list, path) -> None:
    payload = {"schema_version": TABLE_SCHEMA_VERSION,
               "description": description, "entries": entries}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def error_table_from_payload(payload: dict) -> ErrorStdTable:
    """An ErrorStdTable from a parsed ``{"entries": [...]}`` table file."""
    entries = payload["entries"]
    return ErrorStdTable(
        snrs_db=tuple(e["snr_db"] for e in entries),
        epsilons_deg=tuple(e["epsilon_deg"] for e in entries),
    )


def dump_error_table(table: ErrorStdTable, path, entry_flags=None) -> None:
    """Write an epsilon table file; a nonempty ``entry_flags[i]`` is kept
    as entry i's ``flags`` list."""
    entries = []
    for i, (snr, eps) in enumerate(zip(table.snrs_db, table.epsilons_deg)):
        entry = {"snr_db": snr, "epsilon_deg": eps}
        if entry_flags and entry_flags[i]:
            entry["flags"] = list(entry_flags[i])
        entries.append(entry)
    _dump_table("coarse-stage error std (degrees) by SNR", entries, path)


def sigma2_table_from_payload(payload: dict) -> Sigma2Table:
    """A Sigma2Table from a parsed ``{"entries": [...]}`` table file."""
    entries = payload["entries"]
    return Sigma2Table(
        snrs_db=tuple(e["snr_db"] for e in entries),
        sigma2s=tuple(e["sigma2"] for e in entries),
    )


def dump_sigma2_table(table: Sigma2Table, path) -> None:
    """Write a sigma2 table file."""
    _dump_table("solver noise floor by SNR",
                [{"snr_db": s, "sigma2": v}
                 for s, v in zip(table.snrs_db, table.sigma2s)], path)


@cache
def load_default_error_table() -> ErrorStdTable:
    return error_table_from_payload(_load_packaged("epsilon_table.json"))


@cache
def load_default_sigma2_table() -> Sigma2Table:
    return sigma2_table_from_payload(_load_packaged("sigma2_table.json"))


def resolve_sigma2(solver: SolverSettings, snr_db: float) -> float:
    """The solver noise floor: the configured one, else the packaged table's."""
    if solver.sigma2 is not None:
        return solver.sigma2
    return load_default_sigma2_table().sigma2_for(snr_db)


def resolve_epsilon(snr_db: float) -> float:
    """Coarse-error window half-scale (radians) from the packaged table."""
    return load_default_error_table().epsilon_for(snr_db)


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs of the hierarchical estimator, in degrees as in config files.

    ``known_snr`` is None (estimate the SNR from the sample covariance), a
    number in dB, or "scenario", which the harness replaces with the
    trial's true SNR before the pipeline sees it.
    """

    snr_gate_db: float = 7.0
    coarse_cells: int = 1801
    fine_step_deg: float = 0.01
    half_width_deg: float = 0.5
    known_snr: float | Literal["scenario"] | None = None

    def __post_init__(self):
        fine_step = math.radians(self.fine_step_deg)
        half_width = math.radians(self.half_width_deg)
        if self.coarse_cells < 2:
            raise ValueError("coarse grid needs at least 2 cells")
        if not math.isfinite(self.half_width_deg):
            raise ValueError("half_width_deg must be finite")
        if fine_step <= 0 or half_width < fine_step:
            raise ValueError("need 0 < fine_step <= half_width")
        if math.pi / self.coarse_cells <= fine_step:
            raise ValueError("coarse grid step must exceed the fine step")


@dataclass(frozen=True)
class CoarseEstimate:
    """Output of the coarse stage, sorted ascending."""

    angles: np.ndarray
    method: str
    effective_snr_db: float
    flags: tuple = ()


@dataclass(frozen=True)
class PipelineTrace:
    """Everything the hierarchical run decided along the way."""

    coarse: CoarseEstimate
    epsilon: float
    windows: tuple
    flags: tuple


def estimate_effective_snr(cov: np.ndarray) -> float:
    """SNR guess from the eigenvalue floor of a sample covariance.

    Treats the smallest eigenvalue as the noise power and everything above
    that floor as signal: ``10 log10((trace - n*lmin) / (n*lmin))``.  A
    rank-deficient covariance has no usable floor and reads as infinite.
    """
    values = np.linalg.eigvalsh(cov)
    n = cov.shape[0]
    trace = float(values.sum())
    floor = float(values[0]) * n
    if floor <= 1e-15 * max(trace, 1.0):
        return math.inf
    signal = trace - floor
    if signal <= 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / floor)


@cache
def full_azimuth_dictionary(m_cells: int, n_sensors: int):
    """The full-azimuth grid of ``m_cells`` points and its steering dictionary.

    Both depend only on the two counts, so they are built on the first call
    for a pair and shared by every later one; both are read-only.  The
    ``(n_sensors, m_cells)`` dictionary is the transpose of a C-contiguous
    ``(m_cells, n_sensors)`` array, the layout :func:`solver.solve_stack`
    works in, so solving on it copies nothing; its solves pass
    ``steering=True``, so the solver does not re-check its columns.  Each
    pair holds ``16 * m_cells * n_sensors`` bytes for the life of the
    process.
    """
    grid = build_grid(m_cells)
    grid.values.flags.writeable = False
    atoms = np.ascontiguousarray(
        build_dictionary(grid, UlaGeometry(n_sensors)).T)
    atoms.flags.writeable = False
    return grid, atoms.T


def coarse_estimate(batch: SnapshotBatch, n_sources: int,
                    settings: PipelineSettings,
                    solver: SolverSettings) -> CoarseEstimate:
    """Locate all sources coarsely.

    Uses the covariance polynomial estimator when the effective SNR clears
    the gate, otherwise (or when rooting comes up short) the sparse solver
    on a coarse full-azimuth grid with fixed-count peak picking.
    """
    geometry = UlaGeometry(batch.n_sensors)
    if not 1 <= n_sources < geometry.n_sensors:
        raise ValueError("n_sources must be positive and below the sensor count")
    cov = sample_covariance(batch)
    if settings.known_snr is not None:
        effective = settings.known_snr
    else:
        effective = estimate_effective_snr(cov)
    flags = []
    if effective >= settings.snr_gate_db:
        try:
            angles = root_music(cov, n_sources)
            return CoarseEstimate(angles=angles, method="root_music",
                                  effective_snr_db=effective)
        except RootDeficitError:
            flags.append("root_deficit_fallback")
    grid, dictionary = full_azimuth_dictionary(settings.coarse_cells,
                                               geometry.n_sensors)
    stat = snapshot_mean(batch)
    solver_cfg = solver.solver_config(batch.n_snapshots,
                                      resolve_sigma2(solver, effective))
    _, moments, _ = solve(dictionary, stat, solver_cfg, steering=True)
    peaks = select_peaks(spectrum(moments, grid), n_sources)
    if peaks.fallback_filled:
        flags.append("peak_fallback_filled")
    return CoarseEstimate(angles=np.sort(peaks.angles), method="nuv_coarse",
                          effective_snr_db=effective, flags=tuple(flags))


def cancel_interference(stat: SufficientStatistic, coarse_angles,
                        target_index: int, geometry: UlaGeometry):
    """Strip the other sources' least-squares fit from the snapshot mean.

    Returns the residual statistic and any flags.  The residual is exactly
    orthogonal to the neighbors' steering vectors up to rounding; with a
    single source the statistic passes through untouched.  Duplicate
    neighbor angles are collapsed before fitting.
    """
    angles = np.asarray(coarse_angles, dtype=float)
    if not 0 <= target_index < angles.size:
        raise ValueError("target_index out of range")
    others = np.delete(angles, target_index)
    if others.size == 0:
        return stat, ()
    flags = []
    others = np.sort(others)
    keep = np.concatenate([[True], np.diff(others) > 1e-9])
    if not np.all(keep):
        others = others[keep]
        flags.append("duplicate_neighbors_dropped")
    basis = steering_matrix(others, geometry)
    coeff, *_ = np.linalg.lstsq(basis, stat.mean, rcond=None)
    residual = stat.mean - basis @ coeff
    return (SufficientStatistic(mean=residual, n_snapshots=stat.n_snapshots),
            tuple(flags))


def refine_source(stat: SufficientStatistic, coarse_angle: float,
                  epsilon: float, settings: PipelineSettings,
                  config: SolverConfig, geometry: UlaGeometry):
    """Sub-band scan of a +-3 epsilon window around one coarse angle.

    Returns the scan argmax (ties fall to the lowest scan angle) plus
    flags; an empty post-clipping window falls back to the coarse angle and
    an all-zero scan is flagged as a non-detection.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    try:
        plan = plan_subbands(coarse_angle - 3.0 * epsilon,
                             coarse_angle + 3.0 * epsilon,
                             math.radians(settings.fine_step_deg),
                             math.radians(settings.half_width_deg))
    except ValueError:
        return coarse_angle, ("empty_window",)
    scan = superres_scan(plan, stat, config, geometry)
    best = int(np.argmax(scan.values))
    flags = () if scan.values[best] > 0.0 else ("no_detection",)
    return float(scan.grid.values[best]), flags


def estimate_multisource(batch: SnapshotBatch, n_sources: int,
                         settings: PipelineSettings, solver: SolverSettings):
    """Full hierarchical run; returns sorted angles and the trace."""
    geometry = UlaGeometry(batch.n_sensors)
    coarse = coarse_estimate(batch, n_sources, settings, solver)
    epsilon = resolve_epsilon(coarse.effective_snr_db)
    solver_cfg = solver.solver_config(
        batch.n_snapshots, resolve_sigma2(solver, coarse.effective_snr_db))
    stat = snapshot_mean(batch)
    refined = np.empty(n_sources)
    windows = []
    flags = list(coarse.flags)
    for index in range(n_sources):
        residual, cancel_flags = cancel_interference(
            stat, coarse.angles, index, geometry)
        angle, refine_flags = refine_source(
            residual, float(coarse.angles[index]), epsilon, settings,
            solver_cfg, geometry)
        refined[index] = angle
        windows.append((float(coarse.angles[index]) - 3.0 * epsilon,
                        float(coarse.angles[index]) + 3.0 * epsilon))
        flags.extend(cancel_flags)
        flags.extend(refine_flags)
    trace = PipelineTrace(coarse=coarse, epsilon=epsilon,
                          windows=tuple(windows), flags=tuple(flags))
    return np.sort(refined), trace
