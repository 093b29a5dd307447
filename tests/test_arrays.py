import math

import numpy as np
import numpy.testing as npt
import pytest

from nuvdoa.arrays import (
    AngleGrid,
    Scenario,
    UlaGeometry,
    build_band_grid,
    build_dictionary,
    build_grid,
    sample_covariance,
    simulate_snapshots,
    snapshot_mean,
    steering_matrix,
    steering_vector,
)

GEOM4 = UlaGeometry(n_sensors=4)
GEOM16 = UlaGeometry(n_sensors=16)

# exp(-1j*pi*n*sin(0.3)) for n = 0..7, evaluated element by element with the
# scalar math module and frozen here.
STEER_03_N8 = np.array([
    +1.000000000000000 - 0.000000000000000j,
    +0.599112517502856 - 0.800664843346696j,
    -0.282128382742780 - 0.959376659946939j,
    -0.937165808790928 - 0.348884288601888j,
    -0.840807151301887 + 0.541334771023999j,
    -0.070310369510829 + 0.997525163561928j,
    +0.756559506333510 + 0.653924853004071j,
    +0.976838910471203 - 0.213976033680019j,
])


def test_steering_broadside_is_all_ones():
    npt.assert_array_equal(steering_vector(0.0, GEOM4), np.ones(4))


def test_steering_thirty_degrees_quarter_turns():
    # sin(pi/6) = 1/2, so the phase steps down by pi/2 per sensor.
    expected = np.array([1, -1j, -1, 1j])
    npt.assert_allclose(steering_vector(math.pi / 6, GEOM4), expected,
                        atol=1e-15)


def test_steering_matches_frozen_elementwise_values():
    got = steering_vector(0.3, UlaGeometry(n_sensors=8))
    npt.assert_allclose(got, STEER_03_N8, atol=1e-14)


def test_steering_rejects_out_of_range_azimuth():
    with pytest.raises(ValueError):
        steering_vector(math.pi / 2, GEOM4)
    with pytest.raises(ValueError):
        steering_vector(-math.pi / 2 - 1e-9, GEOM4)
    # An array is checked at once; the message names the first bad azimuth.
    with pytest.raises(ValueError, match=r"^azimuth .*\b1\.6\b.* outside"):
        steering_matrix([0.1, -0.4, 1.6, 0.2, -1.7], GEOM4)


def test_steering_conjugate_symmetry():
    theta = 0.7342
    a_pos = steering_vector(theta, GEOM16)
    a_neg = steering_vector(-theta, GEOM16)
    npt.assert_allclose(a_neg, a_pos.conj(), atol=1e-15)


def test_build_grid_four_cells():
    grid = build_grid(4)
    npt.assert_allclose(np.degrees(grid.values), [-90.0, -45.0, 0.0, 45.0],
                        atol=1e-12)
    assert grid.step == math.pi / 4


@pytest.mark.parametrize("cells,step_deg", [(3000, 0.06), (18000, 0.01)])
def test_build_grid_fine_resolutions(cells, step_deg):
    grid = build_grid(cells)
    assert len(grid) == cells
    assert math.degrees(grid.step) == pytest.approx(step_deg, rel=1e-12)


def test_build_grid_rejects_single_cell():
    with pytest.raises(ValueError):
        build_grid(1)


def test_band_grid_101_points():
    grid = build_band_grid(math.radians(-0.5), math.radians(0.5),
                           math.radians(0.01))
    assert len(grid) == 101


def test_band_grid_two_point_endpoints():
    grid = build_band_grid(0.0, math.radians(0.1), math.radians(0.1))
    npt.assert_allclose(np.degrees(grid.values), [0.0, 0.1], atol=1e-12)


def test_band_grid_clips_at_domain_edge():
    grid = build_band_grid(math.radians(89.8), math.radians(90.5),
                           math.radians(0.1))
    assert grid.values[-1] < math.pi / 2
    assert grid.values[0] == pytest.approx(math.radians(89.8))


def test_band_grid_empty_after_clipping_raises():
    with pytest.raises(ValueError):
        build_band_grid(math.radians(90.0), math.radians(91.0),
                        math.radians(0.1))
    with pytest.raises(ValueError, match="entirely outside"):
        build_band_grid(math.radians(-92.0), math.radians(-90.05),
                        math.radians(0.1))


@pytest.mark.parametrize("lo, hi", [
    (float("nan"), 0.1), (-math.inf, 0.1), (0.0, math.inf),
])
def test_band_grid_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="band bounds must be finite"):
        build_band_grid(lo, hi, math.radians(0.1))


def test_dictionary_single_broadside_column():
    grid = AngleGrid(values=np.array([0.0]), step=1.0)
    d = build_dictionary(grid, GEOM4)
    npt.assert_array_equal(d[:, 0], np.ones(4))


def test_dictionary_first_row_all_ones():
    d = build_dictionary(build_grid(4), UlaGeometry(n_sensors=2))
    assert d.shape == (2, 4)
    npt.assert_array_equal(d[0], np.ones(4))


def test_dictionary_columns_match_elementwise_oracle():
    grid = build_grid(3000)
    d = build_dictionary(grid, GEOM16)
    rng = np.random.default_rng(5)
    for m in rng.integers(0, 3000, size=10):
        theta = grid.values[m]
        oracle = np.array([complex(math.cos(-math.pi * n * math.sin(theta)),
                                   math.sin(-math.pi * n * math.sin(theta)))
                           for n in range(16)])
        npt.assert_allclose(d[:, m], oracle, atol=1e-13)


def test_dictionary_unit_modulus():
    d = build_dictionary(build_grid(181), GEOM16)
    npt.assert_allclose(np.abs(d), 1.0, atol=1e-12)


def test_noiseless_snapshots_are_scaled_steering_vectors():
    theta = math.radians(20.0)
    scen = Scenario(geometry=GEOM4, true_doas=(theta,), n_snapshots=3,
                    snr_db=math.inf)
    batch = simulate_snapshots(scen, seed=0)
    a = steering_vector(theta, GEOM4)
    for t in range(3):
        s_t = batch.snapshots[0, t]  # first sensor has gain exactly 1
        npt.assert_allclose(batch.snapshots[:, t], s_t * a, atol=1e-14)


def test_noise_power_matches_scenario_variance():
    """Empirical per-element noise power should track sigma_v^2 closely."""
    scen = Scenario(geometry=GEOM4, true_doas=(0.2,), n_snapshots=10000,
                    snr_db=10.0)
    clean = Scenario(geometry=GEOM4, true_doas=(0.2,), n_snapshots=10000,
                     snr_db=math.inf)
    noisy_batch = simulate_snapshots(scen, seed=42)
    clean_batch = simulate_snapshots(clean, seed=42)
    noise = noisy_batch.snapshots - clean_batch.snapshots
    power = np.mean(np.abs(noise) ** 2)
    assert power == pytest.approx(scen.noise_variance, rel=0.05)


def test_coherent_sources_are_rank_one_before_noise():
    scen = Scenario(geometry=GEOM16, true_doas=(0.1, 0.6), n_snapshots=32,
                    snr_db=math.inf, source_model="coherent")
    batch = simulate_snapshots(scen, seed=3)
    s = np.linalg.svd(batch.snapshots, compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_simulation_is_reproducible():
    scen = Scenario(geometry=GEOM16, true_doas=(0.1,), n_snapshots=50,
                    snr_db=0.0)
    first = simulate_snapshots(scen, seed=99).snapshots
    second = simulate_snapshots(scen, seed=99).snapshots
    npt.assert_array_equal(first, second)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(geometry=GEOM4, true_doas=(0.0, 0.1, 0.2, 0.3),
                 n_snapshots=10, snr_db=0.0)
    with pytest.raises(ValueError):
        Scenario(geometry=GEOM4, true_doas=(0.1, 0.1), n_snapshots=10,
                 snr_db=0.0)
    with pytest.raises(ValueError):
        Scenario(geometry=GEOM4, true_doas=(), n_snapshots=10, snr_db=0.0)
    with pytest.raises(ValueError, match="-inf"):
        Scenario(geometry=GEOM4, true_doas=(0.1,), n_snapshots=10,
                 snr_db=-math.inf)


def test_snapshot_mean_single_snapshot():
    batch = simulate_snapshots(
        Scenario(geometry=GEOM4, true_doas=(0.3,), n_snapshots=1, snr_db=5.0),
        seed=1)
    stat = snapshot_mean(batch)
    npt.assert_array_equal(stat.mean, batch.snapshots[:, 0])
    assert stat.n_snapshots == 1


def test_snapshot_mean_cancels_opposite_pair():
    u = np.array([1.0 + 2.0j, -0.5j, 3.0, 0.25 - 0.25j])
    from nuvdoa.arrays import SnapshotBatch
    batch = SnapshotBatch(snapshots=np.column_stack([u, -u]))
    npt.assert_allclose(snapshot_mean(batch).mean, np.zeros(4), atol=0)


def test_snapshot_mean_matches_elementwise_average():
    scen = Scenario(geometry=GEOM16, true_doas=(0.4,), n_snapshots=100,
                    snr_db=0.0)
    batch = simulate_snapshots(scen, seed=7)
    stat = snapshot_mean(batch)
    oracle = np.zeros(16, dtype=complex)
    for t in range(100):
        oracle += batch.snapshots[:, t]
    oracle /= 100
    npt.assert_allclose(stat.mean, oracle, atol=1e-14)


def test_snapshot_mean_is_linear_in_concatenation():
    scen_a = Scenario(geometry=GEOM4, true_doas=(0.2,), n_snapshots=30,
                      snr_db=3.0)
    scen_b = Scenario(geometry=GEOM4, true_doas=(0.2,), n_snapshots=70,
                      snr_db=3.0)
    from nuvdoa.arrays import SnapshotBatch
    a = simulate_snapshots(scen_a, seed=1)
    b = simulate_snapshots(scen_b, seed=2)
    merged = SnapshotBatch(
        snapshots=np.concatenate([a.snapshots, b.snapshots], axis=1))
    expected = (30 * snapshot_mean(a).mean + 70 * snapshot_mean(b).mean) / 100
    npt.assert_allclose(snapshot_mean(merged).mean, expected, atol=1e-14)


def test_sample_covariance_single_snapshot_outer_product():
    u = np.array([1.0 + 1.0j, 2.0, -1.0j])
    from nuvdoa.arrays import SnapshotBatch
    cov = sample_covariance(SnapshotBatch(snapshots=u[:, None]))
    npt.assert_allclose(cov, np.outer(u, u.conj()), atol=1e-15)


def test_sample_covariance_zero_batch():
    from nuvdoa.arrays import SnapshotBatch
    cov = sample_covariance(SnapshotBatch(snapshots=np.zeros((4, 5), complex)))
    npt.assert_array_equal(cov, np.zeros((4, 4)))


def test_sample_covariance_hermitian_psd():
    scen = Scenario(geometry=GEOM16, true_doas=(0.5,), n_snapshots=50,
                    snr_db=10.0)
    cov = sample_covariance(simulate_snapshots(scen, seed=11))
    npt.assert_array_equal(cov, cov.conj().T)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -1e-12


def test_angle_grid_rejects_nonuniform_spacing():
    with pytest.raises(ValueError):
        AngleGrid(values=np.array([0.0, 0.1, 0.25]), step=0.1)


def test_angle_grid_rejects_out_of_domain_values():
    with pytest.raises(ValueError):
        AngleGrid(values=np.array([0.0, math.pi / 2]), step=math.pi / 2)
