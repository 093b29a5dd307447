"""Hierarchical multi-source estimation: coarse fix, cancel, refine.

For each source the pipeline first locates all sources coarsely with
root-MUSIC on the sample covariance, then subtracts the least-squares fit
of the other sources' steering vectors from the snapshot mean, and finally
runs the sub-band scan on a window around the source's coarse angle whose
width comes from a packaged table of coarse error standard deviations.
The module also looks up the window width and the solver noise floor by
SNR in two packaged tables, each read once into a pair of read-only arrays,
and builds the full-azimuth dictionaries of the flat sparse solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources

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
from .baselines import root_music
from .solver import (
    SolverConfig,
    select_peaks,  # noqa: F401  (kept: perfbench/tracing.py wraps this name)
    solve,  # noqa: F401  (kept: perfbench/tracing.py wraps this name)
)
from .subbands import plan_subbands, superres_scan

_FALLBACK_EPSILON_DEG = 1.0

# The sub-band scan's lattice step and band half-width, in radians.
FINE_STEP = math.radians(0.01)
HALF_WIDTH = math.radians(0.5)


# The packaged files under nuvdoa/data were made by an earlier solver and
# cannot be regenerated; they are the only source of both tables.
@cache
def _packaged_table(name: str, column: str):
    """The SNR points (dB) and one value column of a packaged table file.

    Returns both as read-only float arrays; the file is read and checked
    once per process.
    """
    with resources.files("nuvdoa.data").joinpath(name).open() as handle:
        entries = json.load(handle)["entries"]
    snrs = np.array([e["snr_db"] for e in entries], dtype=float)
    values = np.array([e[column] for e in entries], dtype=float)
    if snrs.size == 0 or not (np.all(np.diff(snrs) > 0) and np.all(values > 0)):
        raise ValueError(f"{name}: need entries with strictly increasing "
                         f"SNR points and positive {column} values")
    snrs.flags.writeable = False
    values.flags.writeable = False
    return snrs, values


def load_default_error_table():
    """SNR points and coarse-error standard deviations (degrees)."""
    return _packaged_table("epsilon_table.json", "epsilon_deg")


def load_default_sigma2_table():
    """SNR points and solver noise floors."""
    return _packaged_table("sigma2_table.json", "sigma2")


def resolve_sigma2(sigma2: float | None, snr_db: float) -> float:
    """The solver noise floor: ``sigma2`` when given, else the packaged
    table's, interpolated in log space and clamped to its edge values."""
    if sigma2 is not None:
        return sigma2
    snrs, sigma2s = load_default_sigma2_table()
    return float(10.0 ** np.interp(snr_db, snrs, np.log10(sigma2s)))


def resolve_epsilon(snr_db: float) -> float:
    """Coarse-error window half-scale (radians) from the packaged table.

    The table is interpolated linearly.  Outside the tabulated SNR range,
    which includes the +-inf that :func:`estimate_effective_snr` can
    return, the conservative 1 deg fallback applies.
    """
    snrs, epsilons = load_default_error_table()
    if snr_db < snrs[0] or snr_db > snrs[-1]:
        return math.radians(_FALLBACK_EPSILON_DEG)
    return math.radians(float(np.interp(snr_db, snrs, epsilons)))


@dataclass(frozen=True)
class CoarseEstimate:
    """Output of the coarse stage, sorted ascending.

    ``method`` is always ``"root_music"``; perfbench/tracing.py reads it.
    """

    angles: np.ndarray
    method: str
    effective_snr_db: float


@dataclass(frozen=True)
class PipelineTrace:
    """Everything the hierarchical run decided along the way."""

    coarse: CoarseEstimate
    epsilon: float
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
                    known_snr: float | None) -> CoarseEstimate:
    """Locate all sources coarsely: root-MUSIC on the sample covariance.

    The effective SNR is the declared ``known_snr`` (dB), else the
    estimate from the covariance's eigenvalue floor; it sizes the
    refinement windows and the solver noise floor.  A ``RootDeficitError``
    from root-MUSIC propagates to the caller.
    """
    if not 1 <= n_sources < batch.n_sensors:
        raise ValueError("n_sources must be positive and below the sensor count")
    cov = sample_covariance(batch)
    if known_snr is not None:
        effective = known_snr
    else:
        effective = estimate_effective_snr(cov)
    return CoarseEstimate(angles=root_music(cov, n_sources), method="root_music",
                          effective_snr_db=effective)


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
    return SufficientStatistic(mean=residual), tuple(flags)


def refine_source(stat: SufficientStatistic, coarse_angle: float,
                  epsilon: float, config: SolverConfig, geometry: UlaGeometry):
    """Sub-band scan of a +-3 epsilon window around one coarse angle.

    Returns the scan argmax (ties fall to the lowest scan angle) plus
    flags; an all-zero scan is flagged as a non-detection.  Root-MUSIC's
    angles lie in [-90, 90) deg, so the window always meets the domain; a
    window wholly outside it raises the planner's ValueError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    plan = plan_subbands(coarse_angle - 3.0 * epsilon,
                         coarse_angle + 3.0 * epsilon, FINE_STEP, HALF_WIDTH)
    scan = superres_scan(plan, stat, config, geometry)
    best = int(np.argmax(scan.values))
    flags = () if scan.values[best] > 0.0 else ("no_detection",)
    return float(scan.grid.values[best]), flags


def estimate_multisource(batch: SnapshotBatch, n_sources: int,
                         known_snr: float | None, sigma2: float | None):
    """Full hierarchical run; returns sorted angles and the trace.

    ``known_snr`` (dB) and ``sigma2`` may each be None: the SNR is then
    estimated from the data and the noise floor read off its table.
    """
    geometry = UlaGeometry(batch.n_sensors)
    coarse = coarse_estimate(batch, n_sources, known_snr)
    epsilon = resolve_epsilon(coarse.effective_snr_db)
    sigma2 = resolve_sigma2(sigma2, coarse.effective_snr_db)
    solver_cfg = SolverConfig(sigma2=sigma2, n_snapshots=batch.n_snapshots)
    stat = snapshot_mean(batch)
    refined = np.empty(n_sources)
    flags = []
    for index in range(n_sources):
        residual, cancel_flags = cancel_interference(
            stat, coarse.angles, index, geometry)
        angle, refine_flags = refine_source(
            residual, float(coarse.angles[index]), epsilon, solver_cfg,
            geometry)
        refined[index] = angle
        flags.extend(cancel_flags)
        flags.extend(refine_flags)
    trace = PipelineTrace(coarse=coarse, epsilon=epsilon, flags=tuple(flags))
    return np.sort(refined), trace
