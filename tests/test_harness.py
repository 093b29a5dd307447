"""Monte-Carlo harness tests: sampling, scoring, trials, calibration."""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import spearmanr

from nuvdoa.harness import (
    DoaSampling,
    PipelineSettings,
    ScenarioConfig,
    SolverSettings,
    TrialRecord,
    aggregate,
    calibrate_epsilon,
    calibrate_sigma2,
    match_and_score,
    run_cell,
    run_sweep,
    run_trial,
)


class TestDoaSampling:
    def test_fixed_replays_sorted_radians(self):
        ds = DoaSampling(kind="fixed", angles_deg=(25.0, -10.0))
        rng = np.random.default_rng(0)
        first = ds.draw(2, rng)
        second = ds.draw(2, rng)
        np.testing.assert_array_equal(first, np.radians([-10.0, 25.0]))
        np.testing.assert_array_equal(first, second)

    def test_fixed_count_mismatch(self):
        ds = DoaSampling(kind="fixed", angles_deg=(25.0,))
        with pytest.raises(ValueError, match="count"):
            ds.draw(2, np.random.default_rng(0))

    def test_uniform_range_within_bounds_and_sorted(self):
        ds = DoaSampling(kind="uniform_range", lo_deg=-30.0, hi_deg=40.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            doas = np.degrees(ds.draw(3, rng))
            assert np.all(doas >= -30.0) and np.all(doas <= 40.0)
            assert np.all(np.diff(doas) >= 0)

    def test_min_separation_enforced(self):
        ds = DoaSampling(kind="uniform_range", lo_deg=-30.0, hi_deg=30.0,
                         min_separation_deg=15.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            doas = np.degrees(ds.draw(2, rng))
            assert np.diff(doas).min() > 15.0

    def test_impossible_separation_raises(self):
        ds = DoaSampling(kind="uniform_range", lo_deg=0.0, hi_deg=1.0,
                         min_separation_deg=10.0)
        with pytest.raises(ValueError, match="no 2 directions fit"):
            ds.check(2)
        with pytest.raises(ValueError, match="no 2 directions fit"):
            ds.draw(2, np.random.default_rng(0))

    def test_tight_feasible_separation_draws(self):
        # Three sources 9.9 deg apart fill 19.8 of a 20 deg range: a draw
        # that rejected uniform draws would almost never land one.
        ds = DoaSampling(kind="uniform_range", lo_deg=-10.0, hi_deg=10.0,
                         min_separation_deg=9.9)
        ds.check(3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            doas = np.degrees(ds.draw(3, rng))
            assert np.diff(doas).min() >= 9.9
            assert doas[0] >= -10.0 and doas[-1] <= 10.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_separation_is_the_sorted_uniform_draw(self, k):
        ds = DoaSampling(kind="uniform_range", lo_deg=-30.0, hi_deg=40.0)
        drawn = ds.draw(k, np.random.default_rng(k))
        expected = np.radians(np.sort(
            np.random.default_rng(k).uniform(-30.0, 40.0, k)))
        np.testing.assert_array_equal(drawn, expected)

    @pytest.mark.parametrize("sep", [-1.0, math.inf])
    def test_separation_must_be_finite_and_nonnegative(self, sep):
        with pytest.raises(ValueError, match="min_separation_deg"):
            DoaSampling(kind="uniform_range", min_separation_deg=sep)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DoaSampling(kind="grid")

    def test_fixed_needs_angles(self):
        with pytest.raises(ValueError):
            DoaSampling(kind="fixed")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            DoaSampling(kind="uniform_range", lo_deg=10.0, hi_deg=-10.0)


class TestMatchAndScore:
    def test_identical_vectors_score_zero(self):
        errors, rmse = match_and_score([-10.0, 10.0], [-10.0, 10.0])
        np.testing.assert_array_equal(errors, [0.0, 0.0])
        assert rmse == 0.0

    def test_permutation_scores_zero(self):
        errors, rmse = match_and_score([10.0, -10.0], [-10.0, 10.0])
        np.testing.assert_array_equal(errors, [0.0, 0.0])
        assert rmse == 0.0

    def test_two_source_arithmetic(self):
        errors, rmse = match_and_score([1.0, 18.0], [0.0, 20.0])
        np.testing.assert_allclose(errors, [1.0, -2.0])
        assert rmse == pytest.approx(math.sqrt(5.0 / 2.0))

    def test_errors_follow_truth_order(self):
        errors, _ = match_and_score([19.5, -0.25], [0.0, 20.0])
        np.testing.assert_allclose(errors, [-0.25, -0.5])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-length"):
            match_and_score([1.0], [0.0, 20.0])

    def test_too_many_sources_raises(self):
        # Nine estimates for eight truths: the surplus estimate has no
        # partner.  Beyond that, the number of sources is not capped.
        with pytest.raises(ValueError, match="equal-length"):
            match_and_score(list(range(9)), list(range(8)))

    def test_sorted_matching_is_optimal_and_uncapped(self):
        # Brute force over all pairings for k <= 6, then a 10-source case
        # beyond the reach of brute force; source counts stay bounded by
        # the sensor count, not by the scorer.
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            est = rng.uniform(-90.0, 90.0, k)
            tru = rng.uniform(-90.0, 90.0, k)
            best = min(float(np.sum((est[list(p)] - tru) ** 2))
                       for p in permutations(range(k)))
            errors, rmse = match_and_score(est, tru)
            assert rmse == pytest.approx(math.sqrt(best / k), rel=1e-12)
            assert sorted(np.round(tru + errors, 9)) == sorted(np.round(est, 9))
        truth = np.linspace(-45.0, 45.0, 10)
        errors, rmse = match_and_score(truth[::-1] + 0.5, truth)
        np.testing.assert_allclose(errors, 0.5)
        assert rmse == pytest.approx(0.5)


class TestScenarioConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(trials=0)

    def test_rejects_too_many_sources(self):
        with pytest.raises(ValueError):
            ScenarioConfig(k_sources=16, n_sensors=16)
        assert ScenarioConfig(k_sources=10, n_sensors=16).k_sources == 10

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ScenarioConfig(method="esprit")
        with pytest.raises(ValueError, match="unknown method"):
            ScenarioConfig(methods=("music", "esprit"))

    def test_list_fallbacks(self):
        cfg = ScenarioConfig(method="music", snr_db=5.0)
        assert cfg.method_list == ("music",)
        assert cfg.snr_list == (5.0,)
        swept = ScenarioConfig(methods=("music", "mvdr"), snr_sweep=(0.0, 10.0))
        assert swept.method_list == ("music", "mvdr")
        assert swept.snr_list == (0.0, 10.0)


def _config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        k_sources=1, n_sensors=16, n_snapshots=100, snr_db=10.0,
        trials=4, seed=0,
        doa_sampling=DoaSampling(kind="uniform_range", lo_deg=-60.0,
                                 hi_deg=60.0),
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestRunTrial:
    def test_root_music_noiseless_fixed_angle(self):
        cfg = _config(n_snapshots=8, snr_db=np.inf, method="root_music",
                      doa_sampling=DoaSampling(kind="fixed", angles_deg=(20.0,)))
        record = run_trial(cfg, 0)
        assert abs(record.matched_errors_deg[0]) < 1e-4
        assert record.true_doas_deg == (20.0,)
        assert record.method == "root_music"

    def test_same_trial_twice_is_bit_identical(self):
        cfg = _config(method="root_music", trials=1, seed=11)
        assert run_trial(cfg, 0) == run_trial(cfg, 0)

    def test_trial_seed_offsets_from_config_seed(self):
        cfg = _config(method="root_music", seed=40)
        assert run_trial(cfg, 3).seed == 43

    def test_pipeline_trial_smoke(self):
        cfg = _config(method="nuv_doa", trials=1)
        record = run_trial(cfg, 0)
        assert isinstance(record.flags, tuple)
        assert len(record.estimates_deg) == 1
        assert abs(record.matched_errors_deg[0]) < 0.5

    def test_runtime_only_recorded_when_timing(self):
        cfg = _config(method="root_music", trials=1)
        assert run_trial(cfg, 0).runtime_ms is None
        timed = run_trial(_config(method="root_music", trials=1, timing=True), 0)
        assert isinstance(timed.runtime_ms, float) and timed.runtime_ms >= 0.0

    def test_method_argument_overrides_config(self):
        cfg = _config(method="root_music", trials=1)
        record = run_trial(cfg, 0, method="bartlett")
        assert record.method == "bartlett"

    def test_true_directions_keep_the_sign_of_zero(self):
        # Trials in a row with equal directions share one tuple; 0.0 and
        # -0.0 compare equal but are not the same directions record.
        records = [run_trial(_config(method="root_music", doa_sampling=DoaSampling(
            kind="fixed", angles_deg=(angle,))), 0) for angle in (0.0, -0.0, -0.0)]
        assert [math.copysign(1.0, r.true_doas_deg[0])
                for r in records] == [1.0, -1.0, -1.0]
        assert records[2].true_doas_deg is records[1].true_doas_deg


def _record(errors, method="music", seed=0):
    return TrialRecord(seed=seed, true_doas_deg=(0.0,) * len(errors)
                       if errors is not None else (0.0,),
                       estimates_deg=tuple(errors) if errors is not None else None,
                       matched_errors_deg=tuple(errors) if errors is not None else None,
                       method=method, runtime_ms=None, flags=())


class TestAggregate:
    def test_pooled_per_source_metrics(self):
        records = [_record([0.1, -0.2]), _record([2.0, 0.05])]
        agg = aggregate(records, 1.0)
        assert agg.rmse_deg == pytest.approx(math.sqrt((0.01 + 0.04 + 4.0 + 0.0025) / 4))
        assert agg.median_abs_error_deg == pytest.approx(0.15)
        assert agg.detection_rate == 0.5
        assert agg.false_alarm_count == 1

    def test_failed_trial_counts_as_miss(self):
        records = [_record([0.1]), _record(None)]
        agg = aggregate(records, 1.0)
        assert agg.detection_rate == 0.5
        assert agg.rmse_deg == pytest.approx(0.1)
        assert agg.false_alarm_count == 0

    def test_empty_records(self):
        agg = aggregate([], 1.0)
        assert agg.rmse_deg is None
        assert agg.median_abs_error_deg is None
        assert agg.detection_rate == 0.0
        assert agg.false_alarm_count == 0

    def test_threshold_is_strict_for_detection(self):
        agg = aggregate([_record([1.0])], 1.0)
        assert agg.detection_rate == 0.0
        assert agg.false_alarm_count == 1

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 301])
    def test_median_equals_numpy_median(self, count):
        rng = np.random.default_rng(count)
        errors = (rng.standard_normal(count) * 10.0 ** rng.integers(-4, 2, count)).tolist()
        records = [_record([e]) for e in errors]
        assert aggregate(records, 1.0).median_abs_error_deg == np.median(np.abs(errors))
        records[count // 2] = _record([math.nan])
        assert math.isnan(aggregate(records, 1.0).median_abs_error_deg)


class TestRunSweep:
    def test_single_trial_cell_reduces_to_run_trial(self):
        cfg = _config(method="root_music", trials=1, seed=21)
        report = run_cell(cfg, "root_music", 10.0)
        assert report.records == (run_trial(cfg, 0, method="root_music",
                                            snr_db=10.0),)
        assert report.trials == 1

    def test_cartesian_product_order_and_aggregates(self):
        cfg = _config(method="root_music", trials=3, seed=2,
                      methods=("root_music", "bartlett"), snr_sweep=(10.0, 30.0))
        reports = run_sweep(cfg)
        cells = [(r.method, r.snr_db) for r in reports]
        assert cells == [("root_music", 10.0), ("root_music", 30.0),
                         ("bartlett", 10.0), ("bartlett", 30.0)]
        for report in reports:
            assert report.aggregates == aggregate(report.records,
                                                  cfg.detection_threshold_deg)

    def test_high_snr_root_music_beats_coarse_grid_step(self):
        cfg = _config(method="root_music", trials=5, seed=2, snr_sweep=(30.0,))
        report = run_sweep(cfg)[0]
        assert report.aggregates.rmse_deg < 0.1

    def test_more_snapshots_shrink_pipeline_error(self):
        cells = {}
        for n_snapshots in (2, 100):
            cfg = _config(method="nuv_doa", trials=8, seed=4,
                          n_snapshots=n_snapshots,
                          pipeline=PipelineSettings(known_snr="scenario"))
            cells[n_snapshots] = run_cell(cfg, "nuv_doa", 10.0).aggregates
        assert cells[100].rmse_deg < cells[2].rmse_deg
        assert cells[2].detection_rate == 1.0
        assert cells[100].detection_rate == 1.0


class TestCalibrateEpsilon:
    def test_noiseless_point_bounded_by_grid_quantization(self):
        cfg = _config(trials=35, seed=9, snr_sweep=(100.0,),
                      pipeline=PipelineSettings(known_snr="scenario"))
        table, entry_flags = calibrate_epsilon(cfg)
        assert np.degrees(table.epsilon_for(100.0)) <= 0.1 / math.sqrt(12) + 0.01
        assert entry_flags == ((),)

    def test_epsilon_decreases_with_snr(self):
        cfg = _config(trials=60, seed=9,
                      snr_sweep=(8.0, 10.0, 12.0, 16.0, 20.0),
                      pipeline=PipelineSettings(known_snr="scenario"))
        table, _ = calibrate_epsilon(cfg)
        rho = spearmanr(table.snrs_db, table.epsilons_deg).statistic
        assert rho < 0.0

    def test_empty_sweep_raises(self):
        class NoSweepConfig(ScenarioConfig):
            @property
            def snr_list(self):
                return ()

        cfg = NoSweepConfig(trials=1)
        with pytest.raises(ValueError, match="SNR"):
            calibrate_epsilon(cfg)

    def test_scarce_successes_marked_low_confidence(self):
        cfg = _config(trials=5, seed=9, snr_sweep=(100.0,),
                      pipeline=PipelineSettings(known_snr="scenario"))
        _, entry_flags = calibrate_epsilon(cfg)
        assert entry_flags == (("low_confidence",),)


class TestCalibrateSigma2:
    TIE_CONFIG = dict(
        k_sources=1, n_sensors=16, n_snapshots=8, snr_db=np.inf,
        trials=3, seed=5,
        doa_sampling=DoaSampling(kind="fixed", angles_deg=(9.0,)),
        solver=SolverSettings(max_iterations=60),
        flat_grid_cells=600,
    )

    def test_single_candidate_returned(self):
        cfg = ScenarioConfig(**{**self.TIE_CONFIG, "trials": 2})
        table = calibrate_sigma2(cfg, candidates=(50.0,))
        assert table.sigma2s == (50.0,)
        assert table.snrs_db == (np.inf,)

    def test_tie_resolves_to_smaller_candidate(self):
        cfg = ScenarioConfig(**self.TIE_CONFIG)
        table = calibrate_sigma2(cfg, candidates=(1e-2, 1e-3))
        assert table.sigma2s == (1e-3,)

    def test_reproducible_under_fixed_seed(self):
        cfg = ScenarioConfig(**self.TIE_CONFIG)
        first = calibrate_sigma2(cfg, candidates=(1e-3, 1e-2))
        second = calibrate_sigma2(cfg, candidates=(1e-3, 1e-2))
        assert first == second

    def test_oversparse_floor_rejected_for_unequal_pair(self):
        # Some floor of the list makes the flat solve lose a source (two
        # peaks on one source, or a spurious one far off) in some trial;
        # calibration must not pick it.
        cfg = ScenarioConfig(
            k_sources=2, n_sensors=16, n_snapshots=100, snr_db=5.0,
            trials=8, seed=0, snr_sweep=(5.0,),
            doa_sampling=DoaSampling(kind="fixed", angles_deg=(-20.0, 25.0)),
        )
        candidates = (3e0, 3e1, 8e2, 1e4)
        table = calibrate_sigma2(cfg, candidates=candidates)
        losing = set()
        for cand in candidates:
            trial_cfg = replace(cfg, solver=replace(cfg.solver, sigma2=cand))
            for i in range(cfg.trials):
                record = run_trial(trial_cfg, i, method="nuv_ssr_flat")
                if max(map(abs, record.matched_errors_deg)) > 5.0:
                    losing.add(cand)
        assert losing
        assert table.sigma2s[0] not in losing

    def test_empty_candidates_raise(self):
        cfg = ScenarioConfig(**self.TIE_CONFIG)
        with pytest.raises(ValueError, match="candidate"):
            calibrate_sigma2(cfg, candidates=())
