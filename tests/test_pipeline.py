"""Tests for the hierarchical coarse-cancel-refine pipeline."""

import json
import math
from importlib import resources

import numpy as np
import pytest

import nuvdoa.pipeline as pipeline_mod
from nuvdoa.arrays import (
    Scenario,
    SufficientStatistic,
    UlaGeometry,
    build_dictionary,
    build_grid,
    sample_covariance,
    simulate_snapshots,
    snapshot_mean,
    steering_matrix,
)
from nuvdoa.baselines import RootDeficitError, root_music
from nuvdoa.cli import main
from nuvdoa.pipeline import (
    FINE_STEP,
    cancel_interference,
    coarse_estimate,
    estimate_effective_snr,
    estimate_multisource,
    full_azimuth_dictionary,
    load_default_error_table,
    load_default_sigma2_table,
    refine_source,
    resolve_epsilon,
    resolve_sigma2,
)
from nuvdoa.harness import FLAT_GRID_CELLS, ScenarioConfig, _nuv_ssr_flat, run_trial
from nuvdoa.solver import SolverConfig, solve

GEOM = UlaGeometry(16)


def _json_columns(name, column):
    """SNR points and one column of a packaged table, read with json, not
    with the loaders."""
    text = resources.files("nuvdoa.data").joinpath(name).read_text()
    entries = json.loads(text)["entries"]
    return [e["snr_db"] for e in entries], [e[column] for e in entries]


EPSILON_SNRS, EPSILONS_DEG = _json_columns("epsilon_table.json", "epsilon_deg")
SIGMA2_SNRS, SIGMA2S = _json_columns("sigma2_table.json", "sigma2")


def _batch(doas_deg, n_snapshots, snr_db, seed, model="noncoherent"):
    scen = Scenario(
        geometry=GEOM,
        true_doas=tuple(np.radians(doas_deg)),
        n_snapshots=n_snapshots,
        snr_db=snr_db,
        source_model=model,
    )
    return simulate_snapshots(scen, seed)


def _midpoints(snrs):
    return [(lo + hi) / 2.0 for lo, hi in zip(snrs, snrs[1:])]


def _assert_loads(loader, snrs, values):
    """Cached, read-only, and equal to the JSON entries value for value."""
    table = loader()
    assert loader() is table
    assert [column.tolist() for column in table] == [snrs, values]
    for column in table:
        assert column.dtype == np.float64
        with pytest.raises(ValueError):
            column[0] = 1.0


class TestResolveEpsilon:
    def test_interpolates_between_entries(self):
        for snr in EPSILON_SNRS + _midpoints(EPSILON_SNRS):
            expected = np.interp(snr, EPSILON_SNRS, EPSILONS_DEG)
            assert resolve_epsilon(snr) == math.radians(expected)

    def test_outside_range_falls_back_to_one_degree(self):
        # estimate_effective_snr reads +-inf on degenerate covariances.
        for snr in (-10.5, 20.5, -math.inf, math.inf):
            assert resolve_epsilon(snr) == math.radians(1.0)

    def test_packaged_table_loads(self):
        _assert_loads(load_default_error_table, EPSILON_SNRS, EPSILONS_DEG)


class TestResolveSigma2:
    def test_log_space_interpolation(self):
        for snr in _midpoints(SIGMA2_SNRS):
            expected = 10.0 ** np.interp(snr, SIGMA2_SNRS, np.log10(SIGMA2S))
            assert resolve_sigma2(None, snr) == expected
        # halfway between 800 at 5 dB and 300 at 10 dB: the geometric mean
        assert resolve_sigma2(None, 7.5) == pytest.approx(
            math.sqrt(800.0 * 300.0))

    def test_clamps_to_edges(self):
        assert resolve_sigma2(None, -30.0) == SIGMA2S[0]
        assert resolve_sigma2(None, 40.0) == SIGMA2S[-1]

    def test_packaged_table_loads(self):
        _assert_loads(load_default_sigma2_table, SIGMA2_SNRS, SIGMA2S)


class TestPackagedTable:
    """The checks a table file passes when it is read."""

    @staticmethod
    def _read(tmp_path, monkeypatch, entries, column="sigma2"):
        (tmp_path / "table.json").write_text(json.dumps({"entries": entries}))
        monkeypatch.setattr(pipeline_mod.resources, "files", lambda _: tmp_path)
        return pipeline_mod._packaged_table.__wrapped__("table.json", column)

    def test_reads_a_valid_file(self, tmp_path, monkeypatch):
        snrs, values = self._read(tmp_path, monkeypatch, [
            {"snr_db": 0.0, "sigma2": 2.0}, {"snr_db": 5.0, "sigma2": 3.0}])
        assert snrs.tolist() == [0.0, 5.0] and values.tolist() == [2.0, 3.0]

    def test_rejects_empty_entries(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="table.json"):
            self._read(tmp_path, monkeypatch, [])

    def test_rejects_unsorted_snrs(self, tmp_path, monkeypatch):
        for snrs in ((10.0, 0.0), (5.0, 5.0), (0.0, math.nan)):
            entries = [{"snr_db": snr, "sigma2": 1.0} for snr in snrs]
            with pytest.raises(ValueError, match="table.json"):
                self._read(tmp_path, monkeypatch, entries)

    def test_rejects_zero_epsilon(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="table.json"):
            self._read(tmp_path, monkeypatch,
                       [{"snr_db": 0.0, "epsilon_deg": 0.0}], "epsilon_deg")

    def test_rejects_zero_sigma2(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="table.json"):
            self._read(tmp_path, monkeypatch, [{"snr_db": 0.0, "sigma2": 0.0}])


class TestEffectiveSnr:
    def test_known_diagonal_case(self):
        # one signal eigenvalue of 161 over a unit noise floor: 160/16 = 10x
        cov = np.diag([1.0] * 15 + [161.0]).astype(complex)
        assert estimate_effective_snr(cov) == pytest.approx(10.0, abs=1e-12)

    def test_rank_deficient_reads_infinite(self):
        a = steering_matrix([0.3], GEOM)[:, 0]
        cov = np.outer(a, a.conj())
        assert estimate_effective_snr(cov) == math.inf

    def test_pure_noise_reads_negative_infinite(self):
        assert estimate_effective_snr(np.eye(8, dtype=complex)) == -math.inf


class TestPipelineConfig:
    """The sigma2 resolution."""

    def test_explicit_sigma2_wins_over_table(self):
        assert resolve_sigma2(None, 0.0) != 5.0
        assert resolve_sigma2(5.0, 0.0) == 5.0

    def test_table_used_when_sigma2_unset(self):
        for snr in (-20.0, 2.5, 12.0, 40.0):
            expected = 10.0 ** np.interp(snr, SIGMA2_SNRS, np.log10(SIGMA2S))
            assert resolve_sigma2(None, snr) == expected


class TestCoarseEstimate:
    def test_high_snr_takes_root_path_and_is_tight(self):
        # noiseless single source: covariance rooting is essentially exact
        batch = _batch([20.0], n_snapshots=8, snr_db=np.inf, seed=0)
        ce = coarse_estimate(batch, 1, 30.0)
        assert ce.method == "root_music"
        assert abs(ce.angles[0] - np.radians(20.0)) < 1e-6

    def test_every_snr_takes_root_music(self):
        """Declared SNRs from -10 to 30 dB, and an estimated SNR on an
        L < N batch, all give root-MUSIC's angles bit for bit."""
        batch = _batch([20.0, 35.0], n_snapshots=100, snr_db=0.0, seed=1)
        few = _batch([20.0, 35.0], n_snapshots=8, snr_db=0.0, seed=1)
        for known_snr, cell in [(-10.0, batch), (0.0, batch), (6.9, batch),
                                (7.0, batch), (30.0, batch), (None, few)]:
            ce = coarse_estimate(cell, 2, known_snr)
            reference = root_music(sample_covariance(cell), 2)
            assert ce.angles.tobytes() == reference.tobytes()
            assert ce.method == "root_music"
        assert ce.effective_snr_db == estimate_effective_snr(
            sample_covariance(few))

    def test_root_deficit_falls_back_flagged(self, monkeypatch, tmp_path, capsys):
        def broken(cov, n_sources):
            raise RootDeficitError("no admissible roots")

        monkeypatch.setattr(pipeline_mod, "root_music", broken)
        config = ScenarioConfig(trials=1, seed=2)
        record = run_trial(config, 0)
        assert record.estimates_deg is None
        assert record.flags == ("root_deficit",)
        path = tmp_path / "config.yaml"
        path.write_text("trials: 1\nseed: 2\n")
        assert main(["estimate", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["flags"] == ["root_deficit"]

    def test_two_sources_at_pm30_within_half_degree(self):
        worst = []
        for seed in range(20):
            batch = _batch([-30.0, 30.0], n_snapshots=100, snr_db=20.0, seed=seed)
            ce = coarse_estimate(batch, 2, 20.0)
            err = np.degrees(np.abs(np.sort(ce.angles) - np.radians([-30.0, 30.0])))
            worst.append(err.max())
        assert np.percentile(worst, 95) < 0.5

    def test_source_count_validated(self):
        batch = _batch([0.0], n_snapshots=4, snr_db=10.0, seed=0)
        with pytest.raises(ValueError):
            coarse_estimate(batch, 0, None)
        with pytest.raises(ValueError):
            coarse_estimate(batch, 16, None)


class TestFullAzimuthDictionary:
    def test_second_call_returns_the_same_read_only_objects(self):
        grid, dictionary = full_azimuth_dictionary(90, 16)
        again = full_azimuth_dictionary(90, 16)
        assert again[0] is grid and again[1] is dictionary
        with pytest.raises(ValueError):
            grid.values[0] = 0.0
        with pytest.raises(ValueError):
            dictionary[0, 0] = 0.0

    def test_is_a_fresh_build_in_the_solvers_layout(self):
        grid, dictionary = full_azimuth_dictionary(300, 16)
        fresh = build_grid(300)
        assert grid.step == fresh.step
        assert grid.values.tobytes() == fresh.values.tobytes()
        reference = build_dictionary(fresh, GEOM)
        assert dictionary.shape == reference.shape
        assert dictionary.tobytes() == reference.tobytes()
        stack = np.ascontiguousarray(dictionary[None].swapaxes(1, 2))
        assert np.shares_memory(stack, dictionary)

    def test_flat_and_coarse_solves_agree_on_miss_and_hit(self):
        batch = _batch([20.0], n_snapshots=100, snr_db=0.0, seed=3)
        config = ScenarioConfig(method="nuv_ssr_flat", snr_db=0.0)

        full_azimuth_dictionary.cache_clear()
        miss = _nuv_ssr_flat(batch, config, 0.0).values.tobytes()
        assert full_azimuth_dictionary.cache_info().misses == 1
        assert _nuv_ssr_flat(batch, config, 0.0).values.tobytes() == miss
        assert full_azimuth_dictionary.cache_info().hits == 1
        # The flat estimate is the one a per-call build gives.
        grid = build_grid(FLAT_GRID_CELLS)
        sigma2 = resolve_sigma2(config.sigma2, 0.0)
        _, moments, _ = solve(build_dictionary(grid, GEOM), snapshot_mean(batch),
                              config.solver_config(sigma2))
        assert np.abs(moments.mean).tobytes() == miss


class TestCancelInterference:
    def test_single_source_passes_through(self):
        stat = SufficientStatistic(mean=np.arange(16, dtype=complex) + 1j)
        out, flags = cancel_interference(stat, np.array([0.2]), 0, GEOM)
        assert out is stat
        assert flags == ()

    def test_matches_projection_oracle(self):
        t1, t2 = np.radians(-7.5), np.radians(7.5)
        a1, a2 = steering_matrix([t1, t2], GEOM).T
        ybar = 2.0 * a1 + (1.0 + 1.0j) * a2
        stat = SufficientStatistic(mean=ybar)
        out, _ = cancel_interference(stat, np.array([t1, t2]), 0, GEOM)
        oracle = 2.0 * (a1 - a2 * (a2.conj() @ a1) / 16.0)
        assert np.allclose(out.mean, oracle, atol=1e-12)
        # cancellation keeps nearly all of the target's own correlation
        kept = abs(a1.conj() @ out.mean)
        assert kept > 0.99 * abs(a1.conj() @ (2.0 * a1))

    def test_neighbor_span_is_annihilated(self):
        angles = np.radians([-40.0, 10.0, 35.0])
        a2 = steering_matrix([angles[1]], GEOM)[:, 0]
        a3 = steering_matrix([angles[2]], GEOM)[:, 0]
        ybar = 3.0 * a2 - 2.0j * a3
        stat = SufficientStatistic(mean=ybar)
        out, _ = cancel_interference(stat, angles, 0, GEOM)
        assert np.linalg.norm(out.mean) < 1e-10 * np.linalg.norm(ybar)

    def test_residual_orthogonal_to_every_neighbor(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            angles = np.sort(rng.uniform(-1.4, 1.4, size=k))
            ybar = rng.normal(size=16) + 1j * rng.normal(size=16)
            stat = SufficientStatistic(mean=ybar)
            target = int(rng.integers(0, k))
            out, _ = cancel_interference(stat, angles, target, GEOM)
            scale = np.linalg.norm(ybar)
            for j, angle in enumerate(angles):
                if j == target:
                    continue
                inner = abs(steering_matrix([angle], GEOM)[:, 0].conj() @ out.mean)
                assert inner < 1e-10 * scale

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        angles = np.radians([-20.0, 5.0, 50.0])
        ybar = rng.normal(size=16) + 1j * rng.normal(size=16)
        stat = SufficientStatistic(mean=ybar)
        once, _ = cancel_interference(stat, angles, 1, GEOM)
        twice, _ = cancel_interference(once, angles, 1, GEOM)
        assert np.allclose(twice.mean, once.mean, atol=1e-12)

    def test_duplicate_neighbors_dropped_and_flagged(self):
        angles = np.radians([10.0, 40.0, 40.0])
        a_dup = steering_matrix([angles[1]], GEOM)[:, 0]
        ybar = steering_matrix([angles[0]], GEOM)[:, 0] + 0.5 * a_dup
        stat = SufficientStatistic(mean=ybar)
        out, flags = cancel_interference(stat, angles, 0, GEOM)
        assert "duplicate_neighbors_dropped" in flags
        assert abs(a_dup.conj() @ out.mean) < 1e-10 * np.linalg.norm(ybar)

    def test_target_index_validated(self):
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            cancel_interference(stat, np.array([0.1, 0.2]), 2, GEOM)


class TestRefineSource:
    def _spec(self, n_snapshots, sigma2):
        return SolverConfig(sigma2=sigma2, n_snapshots=n_snapshots,
                            max_iterations=60)

    def test_noiseless_window_recovers_truth(self):
        truth = np.radians(14.0)
        batch = _batch([14.0], n_snapshots=1, snr_db=np.inf, seed=4)
        stat = snapshot_mean(batch)
        coarse = truth - np.radians(0.07)
        angle, flags = refine_source(
            stat, coarse, np.radians(0.1), self._spec(1, 1e-2), GEOM
        )
        assert flags == ()
        assert abs(angle - truth) < FINE_STEP + 1e-12

    def test_result_stays_inside_window(self):
        eps = np.radians(0.05)
        for seed in range(5):
            batch = _batch([-33.0], n_snapshots=50, snr_db=5.0, seed=seed)
            stat = snapshot_mean(batch)
            coarse = np.radians(-33.02)
            angle, _ = refine_source(stat, coarse, eps, self._spec(50, 1.0),
                                     GEOM)
            assert coarse - 3 * eps - 1e-12 <= angle <= coarse + 3 * eps + 1e-12

    def test_zero_signal_flags_no_detection(self):
        stat = SufficientStatistic(mean=np.zeros(16, dtype=complex))
        coarse = np.radians(10.0)
        eps = np.radians(0.05)
        angle, flags = refine_source(stat, coarse, eps, self._spec(1, 1.0),
                                     GEOM)
        assert "no_detection" in flags
        assert angle == pytest.approx(coarse - 3 * eps, abs=1e-12)

    def test_window_outside_domain_raises(self):
        # Root-MUSIC never returns such an angle; a direct call gets the
        # planner's error.
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex))
        with pytest.raises(ValueError, match="entirely outside the azimuth domain"):
            refine_source(stat, np.radians(-90.1), np.radians(0.01),
                          self._spec(1, 1.0), GEOM)

    def test_epsilon_must_be_positive(self):
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            refine_source(stat, 0.0, 0.0, self._spec(1, 1.0), GEOM)


class TestEstimateMultisource:
    def test_single_source_equals_coarse_plus_refine(self):
        batch = _batch([26.1], n_snapshots=100, snr_db=12.0, seed=6)
        est, trace = estimate_multisource(batch, 1, 12.0, 1.0)
        coarse = coarse_estimate(batch, 1, 12.0)
        eps = resolve_epsilon(coarse.effective_snr_db)
        angle, _ = refine_source(
            snapshot_mean(batch), float(coarse.angles[0]), eps,
            SolverConfig(sigma2=1.0, n_snapshots=batch.n_snapshots), GEOM
        )
        assert est[0] == angle
        assert trace.epsilon == eps

    def test_estimates_stay_in_windows(self):
        for seed in range(6):
            batch = _batch([-48.0, 3.0, 41.0], n_snapshots=100, snr_db=15.0, seed=seed)
            est, trace = estimate_multisource(batch, 3, 15.0, 1.0)
            assert len(trace.coarse.angles) == 3
            if "no_detection" not in trace.flags:
                half = 3 * trace.epsilon
                for angle in est:
                    assert any(
                        center - half - 1e-12 <= angle <= center + half + 1e-12
                        for center in trace.coarse.angles
                    )

    def test_two_noncoherent_sources_15_deg_apart(self):
        truths = np.radians([-7.5, 7.5])
        for seed in range(8):
            batch = _batch([-7.5, 7.5], n_snapshots=100, snr_db=10.0, seed=seed)
            est, _ = estimate_multisource(batch, 2, 10.0, None)
            err = np.degrees(np.abs(np.sort(est) - truths))
            assert np.all(err <= 0.5)

    def test_two_coherent_sources_30_deg_apart(self):
        # mean-statistic refinement handles a rank-one covariance pair
        truths = np.radians([-15.0, 15.0])
        hits = 0
        for seed in range(12):
            batch = _batch(
                [-15.0, 15.0], n_snapshots=100, snr_db=15.0, seed=seed,
                model="coherent",
            )
            est, _ = estimate_multisource(batch, 2, 15.0, None)
            err = np.degrees(np.abs(np.sort(est) - truths))
            hits += int(np.all(err < 1.0))
        assert hits >= 10
