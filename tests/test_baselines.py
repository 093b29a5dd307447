import math

import numpy as np
import numpy.testing as npt
import pytest

from nuvdoa.arrays import (
    Scenario,
    UlaGeometry,
    build_grid,
    sample_covariance,
    simulate_snapshots,
    steering_vector,
)
from nuvdoa.baselines import (
    RootDeficitError,
    bartlett_spectrum,
    default_diagonal_load,
    music_spectrum,
    mvdr_spectrum,
    noise_subspace,
    root_music,
)

GRID = build_grid(360)


def rank_one_cov(theta, n):
    a = steering_vector(theta, UlaGeometry(n))
    return np.outer(a, a.conj())


def test_bartlett_identity_cov_is_flat():
    spec = bartlett_spectrum(np.eye(8), GRID)
    npt.assert_allclose(spec.values, np.full(360, 1 / 8), atol=1e-12)


def test_bartlett_rank_one_peaks_at_source_with_unit_value():
    theta = GRID.values[250]
    spec = bartlett_spectrum(rank_one_cov(theta, 8), GRID)
    assert int(np.argmax(spec.values)) == 250
    assert spec.values[250] == pytest.approx(1.0, abs=1e-12)


def test_bartlett_matches_quadratic_form_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cov = x @ x.conj().T
    spec = bartlett_spectrum(cov, GRID)
    for m in (0, 77, 200, 359):
        a = steering_vector(GRID.values[m], UlaGeometry(6))
        oracle = (a.conj() @ cov @ a).real / 36
        assert spec.values[m] == pytest.approx(oracle, rel=1e-12)


def test_mvdr_identity_cov_is_flat():
    spec = mvdr_spectrum(np.eye(8), GRID, diagonal_load=0.0)
    npt.assert_allclose(spec.values, np.full(360, 1 / 8), atol=1e-12)


def test_mvdr_finds_source_at_high_snr():
    theta = GRID.values[100]
    cov = 100.0 * rank_one_cov(theta, 8) + np.eye(8)
    spec = mvdr_spectrum(cov, GRID)
    assert int(np.argmax(spec.values)) == 100


def test_mvdr_homogeneity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    cov = x @ x.conj().T + np.eye(5)
    one = mvdr_spectrum(cov, GRID, diagonal_load=0.5)
    two = mvdr_spectrum(2.0 * cov, GRID, diagonal_load=1.0)
    npt.assert_allclose(two.values, 2.0 * one.values, rtol=1e-10)


def test_mvdr_singular_without_load_raises_guidance():
    cov = rank_one_cov(0.3, 6)
    with pytest.raises(ValueError, match="diagonal_load"):
        mvdr_spectrum(cov, GRID, diagonal_load=0.0)


def test_default_diagonal_load_tracks_trace():
    assert default_diagonal_load(4.0 * np.eye(10)) == pytest.approx(4e-6)


def test_noise_subspace_diagonal_case():
    basis = noise_subspace(np.diag([4.0, 1.0, 1.0, 1.0]), 1)
    # Basis must span coordinates 1..3: projector has no component on e0.
    proj = basis @ basis.conj().T
    npt.assert_allclose(proj @ np.eye(4)[:, 0], np.zeros(4), atol=1e-12)


def test_noise_subspace_orthonormal_under_total_degeneracy():
    basis = noise_subspace(np.eye(5), 1)
    assert basis.shape == (5, 4)
    npt.assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-10)


def test_noise_subspace_is_invariant_subspace():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    cov = x @ x.conj().T
    basis = noise_subspace(cov, 2)
    residual = cov @ basis - basis @ (basis.conj().T @ cov @ basis)
    assert np.linalg.norm(residual) < 1e-9


def test_noise_subspace_bounds():
    with pytest.raises(ValueError):
        noise_subspace(np.eye(4), 0)
    with pytest.raises(ValueError):
        noise_subspace(np.eye(4), 4)


def test_music_noiseless_sources_blow_up():
    t1, t2 = GRID.values[120], GRID.values[240]
    cov = rank_one_cov(t1, 8) + rank_one_cov(t2, 8)
    spec = music_spectrum(cov, GRID, 2)
    floor = np.median(spec.values)
    assert spec.values[120] > 1e6 * floor
    assert spec.values[240] > 1e6 * floor


def test_music_identity_cov_is_flat():
    spec = music_spectrum(np.eye(6), GRID, 1)
    assert np.ptp(spec.values) < 1e-9 * spec.values.max()


def test_music_matches_projection_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cov = x @ x.conj().T
    basis = noise_subspace(cov, 2)
    spec = music_spectrum(cov, GRID, 2)
    for m in (5, 133, 301):
        a = steering_vector(GRID.values[m], UlaGeometry(6))
        oracle = 1.0 / np.linalg.norm(basis.conj().T @ a) ** 2
        assert spec.values[m] == pytest.approx(oracle, rel=1e-10)


def test_root_music_single_noiseless_source():
    theta = math.radians(20.0)
    angles = root_music(rank_one_cov(theta, 8) + 1e-12 * np.eye(8), 1)
    assert abs(angles[0] - theta) < 1e-6


def test_root_music_broadside_source():
    angles = root_music(rank_one_cov(0.0, 8), 1)
    assert abs(angles[0]) < 1e-6


def test_root_music_two_sources():
    cov = rank_one_cov(math.radians(-30), 8) + rank_one_cov(math.radians(30), 8)
    angles = root_music(cov, 2)
    npt.assert_allclose(angles, [math.radians(-30), math.radians(30)],
                        atol=1e-6)


def test_root_music_agrees_with_spectral_argmax():
    theta = math.radians(-47.3)
    cov = rank_one_cov(theta, 12)
    fine = build_grid(18000)
    spec = music_spectrum(cov, fine, 1)
    grid_angle = fine.values[int(np.argmax(spec.values))]
    root_angle = root_music(cov, 1)[0]
    assert abs(root_angle - grid_angle) <= fine.step


def test_spectra_argmax_scale_invariance():
    scen = Scenario(geometry=UlaGeometry(8), true_doas=(0.4,), n_snapshots=64,
                    snr_db=5.0)
    cov = sample_covariance(simulate_snapshots(scen, seed=4))
    for fn in (lambda c: bartlett_spectrum(c, GRID),
               lambda c: mvdr_spectrum(c, GRID),
               lambda c: music_spectrum(c, GRID, 1)):
        base = int(np.argmax(fn(cov).values))
        scaled = int(np.argmax(fn(3.7 * cov).values))
        assert base == scaled


def test_spectra_are_nonnegative():
    scen = Scenario(geometry=UlaGeometry(8), true_doas=(-0.7,), n_snapshots=16,
                    snr_db=0.0)
    cov = sample_covariance(simulate_snapshots(scen, seed=5))
    for spec in (bartlett_spectrum(cov, GRID), mvdr_spectrum(cov, GRID),
                 music_spectrum(cov, GRID, 1)):
        assert np.all(spec.values >= 0)


def test_root_deficit_error_is_distinct():
    assert issubclass(RootDeficitError, RuntimeError)
