"""Uniform linear array model: geometry, angle grids, steering, simulation.

Angles are azimuths in radians, measured from broadside, and live in the
half-open interval [-pi/2, pi/2).  Sensors sit on a half-wavelength lattice,
so the phase progression across the array for a source at azimuth ``theta``
is ``exp(-1j * pi * n * sin(theta))`` for sensor index ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = math.pi / 2.0

# Relative slack used when counting grid points, so that spans that are an
# exact multiple of the step in exact arithmetic are not truncated by
# floating-point rounding.
_GRID_EPS = 1e-9

# Source waveform models that simulate_snapshots draws from.
SOURCE_MODELS = ("noncoherent", "coherent")


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array with half-wavelength element spacing."""

    n_sensors: int

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ValueError(f"need at least 2 sensors, got {self.n_sensors}")


@dataclass(frozen=True)
class AngleGrid:
    """Ordered uniform grid of azimuth angles (radians)."""

    values: np.ndarray
    step: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.size == 0:
            raise ValueError("angle grid is empty")
        if values[0] < -HALF_PI or values[-1] >= HALF_PI:
            raise ValueError("grid values must lie in [-pi/2, pi/2)")
        if values.size > 1:
            gaps = np.diff(values)
            if np.any(gaps <= 0):
                raise ValueError("grid values must be strictly increasing")
            if np.max(np.abs(gaps - self.step)) > 1e-12:
                raise ValueError("grid spacing is not uniform")

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class Scenario:
    """Ground-truth description of one simulated observation.

    ``noise_variance`` is derived from ``snr_db`` under unit per-source
    power: ``snr_db = 10 log10(1 / noise_variance)``.  An SNR of +inf
    yields exactly zero noise; -inf (no signal) is refused.
    """

    geometry: UlaGeometry
    true_doas: tuple
    n_snapshots: int
    snr_db: float
    source_model: str = "noncoherent"
    noise_variance: float = field(init=False)

    def __post_init__(self):
        doas = tuple(float(t) for t in self.true_doas)
        if len(doas) == 0:
            raise ValueError("scenario needs at least one source")
        if len(doas) >= self.geometry.n_sensors:
            raise ValueError("need fewer sources than sensors")
        if len(set(doas)) != len(doas):
            raise ValueError("true DoAs must be pairwise distinct")
        for theta in doas:
            _check_azimuth(theta)
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be positive")
        if self.source_model not in SOURCE_MODELS:
            raise ValueError(f"unknown source model {self.source_model!r}")
        if self.snr_db == -math.inf:
            raise ValueError("snr_db must be greater than -inf")
        object.__setattr__(self, "true_doas", doas)
        variance = 0.0 if math.isinf(self.snr_db) else 10.0 ** (-self.snr_db / 10.0)
        object.__setattr__(self, "noise_variance", variance)

    @property
    def n_sources(self) -> int:
        return len(self.true_doas)


@dataclass(frozen=True)
class SnapshotBatch:
    """Array observations, one snapshot per column (shape n_sensors x L)."""

    snapshots: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.snapshots.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.snapshots.shape[0]


@dataclass(frozen=True)
class SufficientStatistic:
    """Snapshot mean; the solver takes the snapshot count from its config."""

    mean: np.ndarray


def _check_azimuth(theta: float):
    if not (-HALF_PI <= theta < HALF_PI):
        raise ValueError(f"azimuth {theta!r} outside [-pi/2, pi/2)")


def steering_matrix(thetas, geometry: UlaGeometry) -> np.ndarray:
    """Steering vectors for several azimuths, stacked as columns.

    Entry ``(n, k)`` is ``exp(-1j * pi * n * sin(thetas[k]))``.
    """
    thetas = np.asarray(thetas, dtype=float)
    outside = ~((-HALF_PI <= thetas) & (thetas < HALF_PI))
    if outside.any():
        _check_azimuth(thetas.flat[np.argmax(outside)])
    indices = np.arange(geometry.n_sensors)
    return np.exp(-1j * math.pi * np.outer(indices, np.sin(thetas)))


def build_grid(m_cells: int) -> AngleGrid:
    """Full-azimuth uniform grid with ``m_cells`` points.

    Point ``m`` sits at ``m * (pi / m_cells) - pi/2``, so the grid covers
    [-pi/2, pi/2) without including +pi/2.
    """
    if m_cells < 2:
        raise ValueError("need at least 2 grid cells")
    step = math.pi / m_cells
    values = np.arange(m_cells) * step - HALF_PI
    return AngleGrid(values=values, step=step)


def build_band_grid(lo: float, hi: float, step: float) -> AngleGrid:
    """Inclusive uniform grid from ``lo`` to ``hi``, clipped to the domain.

    Endpoints outside [-pi/2, pi/2) are pulled back to it; grid points that
    would land at or above +pi/2 are dropped.  Raises ``ValueError`` when an
    endpoint is not finite or the band lies outside the domain.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("band bounds must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo >= HALF_PI or hi < -HALF_PI:
        raise ValueError("band lies entirely outside the azimuth domain")
    lo_c = max(lo, -HALF_PI)
    hi_c = min(hi, HALF_PI)
    count = int(math.floor((hi_c - lo_c) / step + _GRID_EPS)) + 1
    values = lo_c + np.arange(count) * step
    return AngleGrid(values=values[values < HALF_PI], step=step)


def build_dictionary(grid: AngleGrid, geometry: UlaGeometry) -> np.ndarray:
    """Steering dictionary of the grid: shape (n_sensors, len(grid))."""
    return steering_matrix(grid.values, geometry)


def simulate_snapshots(scenario: Scenario, seed: int) -> SnapshotBatch:
    """Draw one batch of snapshots for the scenario.

    Sources are unit-power complex Gaussians; under the ``coherent`` model a
    single waveform is shared by all sources with unit deterministic gains,
    which makes the source batch rank one.  Noise is circular complex
    Gaussian with the scenario's derived variance.  Real and imaginary
    parts are drawn as independent real Gaussians carrying half the
    variance each; the same seed reproduces the batch bit for bit.
    """
    rng = np.random.default_rng(seed)
    k = scenario.n_sources
    n = scenario.geometry.n_sensors
    length = scenario.n_snapshots
    if scenario.source_model == "noncoherent":
        waveforms = _complex_normal(rng, (k, length), 1.0)
    else:
        shared = _complex_normal(rng, (1, length), 1.0)
        waveforms = np.repeat(shared, k, axis=0)
    steering = steering_matrix(scenario.true_doas, scenario.geometry)
    clean = steering @ waveforms
    if scenario.noise_variance > 0.0:
        noise = _complex_normal(rng, (n, length), scenario.noise_variance)
        return SnapshotBatch(snapshots=clean + noise)
    return SnapshotBatch(snapshots=clean)


def _complex_normal(rng, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def snapshot_mean(batch: SnapshotBatch) -> SufficientStatistic:
    """Average the snapshots; this is all the sparse solver consumes."""
    mean = batch.snapshots.mean(axis=1)
    return SufficientStatistic(mean=mean)


def sample_covariance(batch: SnapshotBatch) -> np.ndarray:
    """Sample covariance (1/L) sum of y y^H, symmetrized for safety."""
    y = batch.snapshots
    cov = (y @ y.conj().T) / batch.n_snapshots
    return (cov + cov.conj().T) / 2.0
