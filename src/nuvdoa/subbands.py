"""Sub-band scanning: spatially localized solves on overlapping fine grids.

A scan covers an angular span with a fine step.  Every scan point gets its
own narrow band (half-width ``half_width``, same fine step) centered on it;
the sparse solver runs on that band's dictionary alone and only the solved
magnitude of the band's center atom is kept.  Stitching the center values
together produces a spectrum whose resolution is set by the fine step
rather than by a full-azimuth grid, at the price of one small solve per
scan point.

Every band is a ``2h + 1``-point window of one fine lattice, the scan grid
extended ``h`` steps each way, so a scan builds one steering matrix.
Lattice points outside [-pi/2, pi/2) are zero columns, which the solver's
loop keeps at zero variance without coupling them into the solve: edge
bands are truncated, never wrapped.  The bands are solved as one stack,
each with its own stopping rule, on one thread and at most ``_MAX_STACK``
bands a stack, which bounds the memory of long scans.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .arrays import (
    _GRID_EPS,
    HALF_PI,
    AngleGrid,
    UlaGeometry,
    build_band_grid,
    steering_matrix,
)
from .solver import (
    SolverConfig,
    SolverNumericalError,
    Spectrum,
    _as_mean,
    solve_stack,
)

_MAX_STACK = 512


@dataclass(frozen=True)
class SubBand:
    """One localized solve region; the scan keeps only the center atom."""

    center: float
    grid: AngleGrid
    center_index: int


@dataclass(frozen=True)
class SubBandPlan:
    """A scan grid and the half span ``h`` of its bands, in fine steps."""

    scan_grid: AngleGrid
    half_span: int

    @property
    def lattice(self) -> np.ndarray:
        """``scan_lo + k * step`` for ``-h <= k < len(scan_grid) + h``, which
        holds the scan grid bit for bit; points beyond +-pi/2 are kept."""
        k = np.arange(-self.half_span, len(self.scan_grid) + self.half_span)
        return self.scan_grid.values[0] + k * self.scan_grid.step

    @property
    def bands(self) -> Sequence:
        """One band per scan point, built from the lattice when read."""
        return _Bands(self)


class _Bands(Sequence):
    def __init__(self, plan: SubBandPlan):
        self._plan, self._lattice = plan, plan.lattice

    def __len__(self) -> int:
        return len(self._plan.scan_grid)

    def __getitem__(self, index: int) -> SubBand:
        h, start = self._plan.half_span, range(len(self))[index]
        window = self._lattice[start:start + 2 * h + 1]
        live = (-HALF_PI <= window) & (window < HALF_PI)
        grid = AngleGrid(values=window[live], step=self._plan.scan_grid.step)
        return SubBand(center=float(window[h]), grid=grid,
                       center_index=h - int(np.argmax(live)))


def plan_subbands(scan_lo: float, scan_hi: float, fine_step: float,
                  half_width: float) -> SubBandPlan:
    """Lay out one sub-band per scan point.

    Interior bands hold ``2h + 1`` points, ``h = floor(half_width /
    fine_step)``; bands near +-90 deg are truncated at the domain edge,
    never wrapped.  Every band grid contains its scan point exactly.
    """
    if half_width < fine_step:
        raise ValueError("half_width must be at least the fine step")
    return SubBandPlan(
        scan_grid=build_band_grid(scan_lo, scan_hi, fine_step),
        half_span=int(math.floor(half_width / fine_step + _GRID_EPS)))


def band_stack(plan: SubBandPlan, geometry: UlaGeometry) -> np.ndarray:
    """Every band's dictionary, as a ``(bands, n_sensors, 2h + 1)`` stack.

    A read-only view of one steering matrix of the lattice, zero outside
    the domain: column ``j`` of band ``i`` is lattice point ``i + j``.
    Every nonzero column is a steering vector, so the scan solves the stack
    with ``steering=True``.
    """
    lattice = plan.lattice
    live = (-HALF_PI <= lattice) & (lattice < HALF_PI)
    columns = np.zeros((lattice.size, geometry.n_sensors), dtype=complex)
    columns[live] = steering_matrix(lattice[live], geometry).T
    return np.lib.stride_tricks.sliding_window_view(
        columns, 2 * plan.half_span + 1, axis=0)


def superres_scan(plan: SubBandPlan, stat, config: SolverConfig,
                  geometry: UlaGeometry) -> Spectrum:
    """Solve every band of the plan and stitch the center magnitudes.

    Stacks of at most ``_MAX_STACK`` bands are solved in scan order, each
    band on its own slice, so the chunking does not change the values.  A
    numerical failure names the centers of the failing bands.
    """
    mean = _as_mean(stat)
    n = geometry.n_sensors
    if mean.size != n:
        raise ValueError("statistic and geometry disagree on sensor count")
    stack = band_stack(plan, geometry)
    values = np.empty(len(stack))
    for start in range(0, len(stack), _MAX_STACK):
        chunk = stack[start:start + _MAX_STACK]
        try:
            _, post_mean, _, _, _ = solve_stack(
                chunk, np.broadcast_to(mean, (len(chunk), n)), config,
                steering=True)
        except SolverNumericalError as exc:
            centers = [round(float(np.degrees(plan.scan_grid.values[start + i])),
                             4) for i in exc.problems]
            raise SolverNumericalError(
                f"sub-band solve failed at centers {centers} deg: {exc.reason}",
                exc.iteration) from None
        values[start:start + len(chunk)] = np.abs(post_mean[:, plan.half_span])
    return Spectrum(values=values, grid=plan.scan_grid)
