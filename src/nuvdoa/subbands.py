"""Sub-band scanning: spatially localized solves on overlapping fine grids.

A scan covers an angular span with a fine step.  Every scan point gets its
own narrow band (half-width ``half_width``, same fine step) centered on it;
the sparse solver runs on that band's dictionary alone and only the solved
magnitude of the band's center atom is kept.  Stitching the center values
together produces a spectrum whose resolution is set by the fine step
rather than by a full-azimuth grid, at the price of one small solve per
scan point.

Bands are solved as one stack by the solver's fixed-point loop, the same
loop a flat solve runs as a stack of one: their dictionaries are padded to
a common width with zero columns (the loop starts a zero column at zero
variance, where it stays without coupling into the solve).  Every band still follows
its own convergence schedule; a band leaves the active stack the moment
its own stopping rule fires.  The scan runs on one thread, one stack of at
most ``_MAX_STACK`` bands after another, which bounds its memory on long
scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (
    AngleGrid,
    UlaGeometry,
    build_band_grid,
    build_centered_grid,
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
    """All bands of a scan, one per scan-grid point."""

    scan_grid: AngleGrid
    bands: tuple


def plan_subbands(scan_lo: float, scan_hi: float, fine_step: float,
                  half_width: float) -> SubBandPlan:
    """Lay out one sub-band per scan point.

    Interior bands hold exactly ``2 * (half_width / fine_step) + 1`` grid
    points when the ratio is integral; bands near +-90 deg are truncated at
    the domain edge, never wrapped.  Every band grid contains its scan point
    exactly.
    """
    if half_width < fine_step:
        raise ValueError("half_width must be at least the fine step")
    scan_grid = build_band_grid(scan_lo, scan_hi, fine_step)
    bands = []
    for center in scan_grid.values:
        grid = build_centered_grid(float(center), half_width, fine_step)
        center_index = int(np.nonzero(grid.values == center)[0][0])
        bands.append(SubBand(center=float(center), grid=grid,
                             center_index=center_index))
    return SubBandPlan(scan_grid=scan_grid, bands=tuple(bands))


def _solve_band_stack(bands, stat, config: SolverConfig,
                      geometry: UlaGeometry) -> np.ndarray:
    """Center-atom magnitudes for a list of bands sharing one statistic.

    The bands' zero-padded dictionaries go through the solver's stack loop
    as one stack, so every band runs the same variance fixed point, with its
    own stopping rule, as a single-problem solve.  A numerical failure names
    the centers of the failing bands.
    """
    mean = _as_mean(stat)
    n = geometry.n_sensors
    if mean.size != n:
        raise ValueError("statistic and geometry disagree on sensor count")
    width = max(band.grid.values.size for band in bands)
    # Filled as A^T, the layout the solver's loop works in, so that it does
    # not copy the stack.
    transposed = np.zeros((len(bands), width, n), dtype=complex)
    for i, band in enumerate(bands):
        transposed[i, :band.grid.values.size] = steering_matrix(
            band.grid.values, geometry).T
    means = np.broadcast_to(mean, (len(bands), n))
    try:
        _, post_mean, _, _, _ = solve_stack(transposed.swapaxes(1, 2), means,
                                            config)
    except SolverNumericalError as exc:
        centers = [round(float(np.degrees(bands[i].center)), 4)
                   for i in exc.problems]
        raise SolverNumericalError(
            f"sub-band solve failed at centers {centers} deg: {exc.reason}",
            exc.iteration) from None
    centers = [band.center_index for band in bands]
    return np.abs(post_mean[np.arange(len(bands)), centers])


def superres_scan(plan: SubBandPlan, stat, config: SolverConfig,
                  geometry: UlaGeometry) -> Spectrum:
    """Evaluate every band of the plan and stitch the center magnitudes.

    Bands are independent; they are solved in stacks of at most
    ``_MAX_STACK`` bands, in scan order, and the chunking has no effect on
    the values, because every band is solved on its own slice of the stack.
    """
    values = np.zeros(len(plan.bands))
    for start in range(0, len(plan.bands), _MAX_STACK):
        bands = list(plan.bands[start:start + _MAX_STACK])
        values[start:start + len(bands)] = _solve_band_stack(
            bands, stat, config, geometry)
    return Spectrum(values=values, grid=plan.scan_grid)
