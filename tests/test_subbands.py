"""Tests for the sub-band planning and scanning layer."""

import numpy as np
import pytest

from nuvdoa.arrays import (
    Scenario,
    SufficientStatistic,
    UlaGeometry,
    simulate_snapshots,
    snapshot_mean,
    steering_matrix,
)
from nuvdoa.solver import (
    SolverConfig,
    SolverNumericalError,
    select_peaks,
    solve,
)
from nuvdoa import subbands
from nuvdoa.subbands import plan_subbands, superres_scan

FINE = np.radians(0.01)
ALPHA = np.radians(0.5)


def _point_band(center):
    return plan_subbands(center, center, FINE, ALPHA).bands[0]


def _plain_solve(band, stat, cfg, geom):
    """Center-atom magnitude of a plain solve of the band's own grid."""
    _, moments, _ = solve(steering_matrix(band.grid.values, geom), stat, cfg)
    return float(np.abs(moments.mean[band.center_index]))


def _point_scan(center, stat, cfg, geom):
    """Center-atom magnitude of the one band a single-point scan solves."""
    plan = plan_subbands(center, center, FINE, ALPHA)
    return float(superres_scan(plan, stat, cfg, geom).values[0])


def _single_source_stat(theta, n_snapshots, snr_db, seed, n_sensors=16):
    scen = Scenario(
        geometry=UlaGeometry(n_sensors),
        true_doas=(theta,),
        n_snapshots=n_snapshots,
        snr_db=snr_db,
    )
    return snapshot_mean(simulate_snapshots(scen, seed))


class TestPlanSubbands:
    def test_interior_band_has_101_points(self):
        plan = plan_subbands(np.radians(-1.0), np.radians(1.0), FINE, ALPHA)
        assert plan.scan_grid.values.size == 201
        assert len(plan.bands) == 201
        mid = plan.bands[100]
        assert mid.grid.values.size == 101
        assert mid.center_index == 50

    def test_single_point_at_zero(self):
        plan = plan_subbands(0.0, 0.0, FINE, ALPHA)
        assert len(plan.bands) == 1
        band = plan.bands[0]
        assert band.center == 0.0
        assert band.grid.values.size == 101
        assert band.center_index == 50
        assert band.grid.values[50] == 0.0

    def test_band_clipped_above(self):
        # 89.9 + 0.5 runs past the domain; the grid stops one step short of 90.
        band = _point_band(np.radians(89.9))
        deg = np.degrees(band.grid.values)
        assert band.grid.values.size == 60
        assert deg[0] == pytest.approx(89.4, abs=1e-9)
        assert deg[-1] == pytest.approx(89.99, abs=1e-9)
        assert band.center_index == 50
        assert deg[band.center_index] == pytest.approx(89.9, abs=1e-9)

    def test_band_clipped_below_shifts_center_index(self):
        band = _point_band(np.radians(-89.9))
        deg = np.degrees(band.grid.values)
        assert band.grid.values.size == 61
        assert deg[0] == pytest.approx(-90.0, abs=1e-9)
        assert band.center_index == 10
        assert deg[band.center_index] == pytest.approx(-89.9, abs=1e-9)

    def test_interior_size_formula(self):
        # 2 * (alpha / step) + 1 whenever the ratio is integral
        for alpha_deg, expect in ((0.05, 11), (0.2, 41), (0.5, 101)):
            plan = plan_subbands(0.0, 0.0, FINE, np.radians(alpha_deg))
            assert plan.bands[0].grid.values.size == expect
            assert plan.bands[0].center_index == expect // 2

    def test_half_width_below_step_rejected(self):
        with pytest.raises(ValueError):
            plan_subbands(0.0, 0.0, FINE, FINE / 2)

    def test_one_band_per_scan_point(self):
        plan = plan_subbands(np.radians(3.0), np.radians(3.2), FINE, ALPHA)
        assert len(plan.bands) == plan.scan_grid.values.size
        for point, band in zip(plan.scan_grid.values, plan.bands):
            assert band.center == point
            assert band.grid.values[band.center_index] == point


class TestSolveSubband:
    """One band, solved through a single-point scan."""

    def test_zero_statistic_gives_zero(self):
        geom = UlaGeometry(16)
        stat = SufficientStatistic(mean=np.zeros(16, dtype=complex))
        cfg = SolverConfig(sigma2=0.5, n_snapshots=4)
        assert _point_scan(0.0, stat, cfg, geom) == 0.0

    def test_on_grid_noiseless_source_concentrates(self):
        # Single snapshot, no noise, source exactly on the band center.
        # The center magnitude recovers the source amplitude to within 1%.
        theta = np.radians(3.17)
        geom = UlaGeometry(16)
        stat = _single_source_stat(theta, n_snapshots=1, snr_db=np.inf, seed=3)
        source_mag = np.abs(stat.mean[0])
        cfg = SolverConfig(
            sigma2=1e-4,
            n_snapshots=1,
            max_iterations=2000,
            tolerance=1e-6,
        )
        value = _point_scan(theta, stat, cfg, geom)
        assert abs(value / source_mag - 1.0) < 0.01

    def test_distant_band_stays_small(self):
        # A band centered 5 deg from the only source returns well under a
        # tenth of the on-source value (measured 0.0023 at this setting).
        theta = np.radians(3.17)
        geom = UlaGeometry(16)
        stat = _single_source_stat(theta, n_snapshots=1, snr_db=np.inf, seed=1)
        cfg = SolverConfig(
            sigma2=1e-4,
            n_snapshots=1,
            max_iterations=2000,
            tolerance=1e-6,
        )
        on = _point_scan(theta, stat, cfg, geom)
        far = _point_scan(theta + np.radians(5.0), stat, cfg, geom)
        assert far < 0.1 * on

    def test_failure_tagged_with_band_center(self):
        geom = UlaGeometry(8)
        stat = SufficientStatistic(mean=np.full(8, 1e160, dtype=complex))
        cfg = SolverConfig(sigma2=1.0, n_snapshots=1, max_iterations=5)
        with np.errstate(all="ignore"):
            with pytest.raises(SolverNumericalError,
                               match=r"centers \[10\.0\] deg"):
                _point_scan(np.radians(10.0), stat, cfg, geom)


class TestSuperresScan:
    def test_zero_signal_gives_zero_spectrum(self):
        geom = UlaGeometry(16)
        stat = SufficientStatistic(mean=np.zeros(16, dtype=complex))
        plan = plan_subbands(np.radians(-0.05), np.radians(0.05), FINE, ALPHA)
        spec = superres_scan(plan, stat, SolverConfig(sigma2=0.5, n_snapshots=2), geom)
        assert spec.values.shape == (11,)
        assert np.all(spec.values == 0.0)

    def test_single_point_scan_matches_plain_solve(self):
        theta = np.radians(-20.4)
        geom = UlaGeometry(16)
        stat = _single_source_stat(theta, n_snapshots=50, snr_db=10.0, seed=7)
        cfg = SolverConfig(
            sigma2=0.5, n_snapshots=50, max_iterations=80
        )
        plan = plan_subbands(theta, theta, FINE, ALPHA)
        spec = superres_scan(plan, stat, cfg, geom)
        band = plan.bands[0]
        _, moments, _ = solve(steering_matrix(band.grid.values, geom), stat, cfg)
        assert spec.values.shape == (1,)
        assert spec.values[0] == np.abs(moments.mean[band.center_index])

    def test_chunked_scan_matches_one_stack(self, monkeypatch):
        theta = np.radians(12.3)
        geom = UlaGeometry(16)
        stat = _single_source_stat(theta, n_snapshots=100, snr_db=5.0, seed=11)
        cfg = SolverConfig(
            sigma2=1.0, n_snapshots=100, max_iterations=60
        )
        plan = plan_subbands(theta, theta + np.radians(0.11), FINE, ALPHA)
        assert len(plan.bands) == 12
        baseline = superres_scan(plan, stat, cfg, geom)
        stacks = []
        solve_stack = subbands.solve_stack

        def recording(matrices, *args, **kwargs):
            stacks.append(len(matrices))
            return solve_stack(matrices, *args, **kwargs)

        monkeypatch.setattr(subbands, "_MAX_STACK", 5)
        monkeypatch.setattr(subbands, "solve_stack", recording)
        chunked = superres_scan(plan, stat, cfg, geom)
        assert stacks == [5, 5, 2]
        assert np.array_equal(chunked.values, baseline.values)

    def test_batched_scan_matches_per_band_solves(self):
        theta = np.radians(-5.6)
        geom = UlaGeometry(16)
        stat = _single_source_stat(theta, n_snapshots=100, snr_db=8.0, seed=2)
        cfg = SolverConfig(
            sigma2=0.7, n_snapshots=100, max_iterations=40
        )
        plan = plan_subbands(
            theta - np.radians(0.03), theta + np.radians(0.03), FINE, ALPHA
        )
        spec = superres_scan(plan, stat, cfg, geom)
        singles = np.array([_plain_solve(band, stat, cfg, geom)
                            for band in plan.bands])
        assert np.array_equal(spec.values, singles)

    def test_noiseless_scan_argmax_hits_source(self):
        # 100 independent draws, source on a scan point; the peak never moves.
        theta = np.radians(3.17)
        geom = UlaGeometry(16)
        plan = plan_subbands(theta - 5 * FINE, theta + 5 * FINE, FINE, ALPHA)
        truth_idx = int(np.argmin(np.abs(plan.scan_grid.values - theta)))
        cfg = SolverConfig(
            sigma2=1e-2, n_snapshots=1, max_iterations=60
        )
        for seed in range(100):
            stat = _single_source_stat(theta, n_snapshots=1, snr_db=np.inf, seed=seed)
            spec = superres_scan(plan, stat, cfg, geom)
            assert int(np.argmax(spec.values)) == truth_idx

    def test_locality_contrast_statistic(self):
        # On-source band vs a band 12 deg away (beyond half_width plus one
        # beamwidth for 16 sensors). Individual draws fluctuate, the median
        # contrast over 50 seeds stays above 5 (measured about 7).
        theta = np.radians(3.17)
        geom = UlaGeometry(16)
        cfg = SolverConfig(
            sigma2=1.0,
            n_snapshots=100,
            max_iterations=2000,
            tolerance=1e-6,
        )
        ratios = []
        for seed in range(50):
            stat = _single_source_stat(theta, n_snapshots=100, snr_db=10.0, seed=seed)
            on = _point_scan(theta, stat, cfg, geom)
            far = _point_scan(theta + np.radians(12.0), stat, cfg, geom)
            ratios.append(on / far)
        assert np.median(ratios) > 5.0

    def test_scan_values_match_unpadded_solves(self):
        # Bands near +-90 deg run past the domain and are truncated to
        # different widths, their stack columns beyond it left at zero; each
        # center value still equals a plain solve of the band's own grid.
        geom = UlaGeometry(16)
        cfg = SolverConfig(
            sigma2=0.7, n_snapshots=40, max_iterations=50
        )
        for theta in np.radians([89.6, -89.95]):
            stat = _single_source_stat(theta, n_snapshots=40, snr_db=10.0,
                                       seed=4)
            plan = plan_subbands(theta - 3 * FINE, theta + 3 * FINE, FINE,
                                 ALPHA)
            assert len({b.grid.values.size for b in plan.bands}) > 1
            spec = superres_scan(plan, stat, cfg, geom)
            for value, band in zip(spec.values, plan.bands):
                assert value == _plain_solve(band, stat, cfg, geom)

    @pytest.mark.parametrize("theta_deg", [89.6, -89.95])
    def test_band_stack_is_the_lattice_near_the_edge(self, theta_deg):
        theta = np.radians(theta_deg)
        geom = UlaGeometry(16)
        plan = plan_subbands(theta - 3 * FINE, theta + 3 * FINE, FINE, ALPHA)
        lattice = plan.lattice
        h = plan.half_span
        assert np.array_equal(lattice[h:h + len(plan.scan_grid)],
                              plan.scan_grid.values)
        outside = (lattice < -np.pi / 2) | (lattice >= np.pi / 2)
        assert outside.any()
        stack = subbands.band_stack(plan, geom)
        assert stack.shape == (len(plan.bands), 16, 2 * h + 1)
        for i, band in enumerate(plan.bands):
            dead = outside[i:i + 2 * h + 1]
            assert np.array_equal(stack[i].any(axis=0), ~dead)
            assert np.array_equal(stack[i][:, ~dead],
                                  steering_matrix(band.grid.values, geom))
            assert band.grid.values[band.center_index] == band.center

    def test_failure_lists_band_centers(self):
        geom = UlaGeometry(8)
        stat = SufficientStatistic(mean=np.full(8, 1e160, dtype=complex))
        cfg = SolverConfig(sigma2=1.0, n_snapshots=1, max_iterations=5)
        plan = plan_subbands(np.radians(4.0), np.radians(4.02), FINE, ALPHA)
        with np.errstate(all="ignore"):
            with pytest.raises(SolverNumericalError, match="centers"):
                superres_scan(plan, stat, cfg, geom)


def test_select_peaks_on_stitched_spectrum():
    theta = np.radians(3.17)
    geom = UlaGeometry(16)
    stat = _single_source_stat(theta, n_snapshots=1, snr_db=np.inf, seed=0)
    plan = plan_subbands(theta - 2 * FINE, theta + 2 * FINE, FINE, ALPHA)
    cfg = SolverConfig(
        sigma2=1e-2, n_snapshots=1, max_iterations=60
    )
    spec = superres_scan(plan, stat, cfg, geom)
    picked = select_peaks(spec, 1)
    assert picked.angles.size == 1
    assert picked.angles[0] == pytest.approx(theta, abs=2 * FINE)
