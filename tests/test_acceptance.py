"""Acceptance gate: twelve end-to-end checks at frozen operating points.

Each test prints one line summarizing the measured quantity against its
threshold.  Comparative thresholds were calibrated once against this
implementation and then frozen (see README); they are asserted as-is, so
a regression shows up as a hard failure rather than a silent drift.
"""

import json
import math
import time

import numpy as np
import yaml

from nuvdoa.arrays import (
    Scenario,
    SnapshotBatch,
    SufficientStatistic,
    UlaGeometry,
    build_dictionary,
    build_grid,
    simulate_snapshots,
    snapshot_mean,
    steering_matrix,
)
from nuvdoa.baselines import root_music
from nuvdoa.cli import main
from nuvdoa.harness import (
    DoaSampling,
    PipelineSettings,
    ScenarioConfig,
    aggregate,
    run_cell,
)
from nuvdoa.pipeline import cancel_interference
from nuvdoa.reports import load_report
from nuvdoa.solver import (
    NuvState,
    SolverConfig,
    posterior_moments,
    precision_matrix,
    solve,
    spectrum,
)
from nuvdoa.subbands import plan_subbands

GEOMETRY = UlaGeometry(16)


def _cn(rng, *shape):
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return draw / np.sqrt(2.0)


def _report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {verdict} - {detail}")


def test_criterion_01_posterior_moment_oracle():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 11))
        matrix = _cn(rng, n, m)
        pv = rng.uniform(0.1, 3.0, m)
        sigma2 = rng.uniform(0.05, 2.0)
        n_snapshots = int(rng.integers(1, 20))
        ybar = _cn(rng, n)
        state = NuvState(prior_variances=pv)
        config = SolverConfig(sigma2=sigma2, n_snapshots=n_snapshots)
        precision = precision_matrix(matrix, state, config)
        moments = posterior_moments(matrix, state, precision, ybar)
        scale = sigma2 / n_snapshots
        covariance = np.linalg.inv(matrix.conj().T @ matrix / scale
                                   + np.diag(1.0 / pv))
        mean_oracle = covariance @ (matrix.conj().T @ ybar) / scale
        var_oracle = np.diag(covariance).real
        worst = max(
            worst,
            float(np.abs(moments.mean - mean_oracle).max()
                  / max(np.abs(mean_oracle).max(), 1e-300)),
            float(np.abs(moments.variance - var_oracle).max()
                  / var_oracle.max()),
        )
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 5.0
    _report(1, passed,
            f"worst relative moment error {worst:.2e} (limit 1e-9), "
            f"{elapsed:.2f} s (limit 5 s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_scalar_fixed_point():
    # The shrinkage branch (noise floor above the signal power) approaches
    # zero sublinearly, so no finite iteration budget reaches 1e-10 there;
    # the 50 pairs sample the contractive branch (see the decisions ledger).
    rng = np.random.default_rng(2)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        mag = rng.uniform(0.5, 2.0)
        ybar = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        scale = rng.uniform(0.01, 0.8) * mag ** 2
        n_snapshots = int(rng.integers(1, 51))
        config = SolverConfig(sigma2=scale * n_snapshots,
                              n_snapshots=n_snapshots,
                              max_iterations=5000, tolerance=1e-14,
                              init=1.0)
        state, _, _ = solve(np.ones((1, 1)), np.array([ybar]), config)
        target = max(0.0, mag ** 2 - scale)
        worst = max(worst, abs(float(state.prior_variances[0]) - target))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-10 and elapsed < 1.0
    _report(2, passed,
            f"worst fixed-point gap {worst:.2e} (limit 1e-10), "
            f"{elapsed:.2f} s (limit 1 s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_noise_scale_coupling():
    # The regularizer is sigma2 / L, so doubling both leaves every iterate
    # bit-identical; halving sigma2 while doubling L would change it.
    rng = np.random.default_rng(3)
    started = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 13))
        matrix = _cn(rng, n, m)
        ybar = _cn(rng, n)
        sigma2 = rng.uniform(0.1, 2.0)
        n_snapshots = int(rng.integers(1, 30))
        base = SolverConfig(sigma2=sigma2, n_snapshots=n_snapshots,
                            max_iterations=60)
        doubled = SolverConfig(sigma2=2.0 * sigma2,
                               n_snapshots=2 * n_snapshots,
                               max_iterations=60)
        _, _, trace_a = solve(matrix, ybar, base, keep_history=True)
        _, _, trace_b = solve(matrix, ybar, doubled, keep_history=True)
        assert len(trace_a.history) == len(trace_b.history)
        for left, right in zip(trace_a.history, trace_b.history):
            assert np.array_equal(left, right)
    elapsed = time.perf_counter() - started
    _report(3, elapsed < 10.0,
            f"20 paired runs bit-identical, {elapsed:.2f} s (limit 10 s)")
    assert elapsed < 10.0


def test_criterion_04_noiseless_on_grid_recovery():
    grid = build_grid(180)
    dictionary = build_dictionary(grid, GEOMETRY)
    config = SolverConfig(sigma2=1e-3, n_snapshots=1, max_iterations=2000,
                          tolerance=1e-10, init=1.0)
    rng = np.random.default_rng(4)
    started = time.perf_counter()
    hits = 0
    for _ in range(100):
        index = int(rng.integers(0, 180))
        amplitude = _cn(rng)
        ybar = amplitude * dictionary[:, index]
        _, moments, _ = solve(dictionary, ybar, config)
        hits += int(np.argmax(spectrum(moments, grid).values) == index)
    elapsed = time.perf_counter() - started
    passed = hits == 100 and elapsed < 30.0
    _report(4, passed,
            f"argmax hits {hits}/100 (need 100), {elapsed:.1f} s (limit 30 s)")
    assert hits == 100
    assert elapsed < 30.0


def test_criterion_05_interior_band_size():
    started = time.perf_counter()
    plan = plan_subbands(math.radians(-10.0), math.radians(10.0),
                         math.radians(0.01), math.radians(0.5))
    sizes = {len(band.grid) for band in plan.bands}
    centers = {band.center_index for band in plan.bands}
    elapsed = time.perf_counter() - started
    passed = sizes == {101} and centers == {50} and elapsed < 1.0
    _report(5, passed,
            f"interior band sizes {sorted(sizes)} (need all 101), "
            f"{elapsed:.2f} s")
    assert sizes == {101}
    assert centers == {50}
    assert elapsed < 1.0


def _pipeline_cell(k_sources, n_snapshots, snr_db, trials, seed, sampling,
                   method="nuv_doa"):
    config = ScenarioConfig(
        k_sources=k_sources, n_sensors=16, n_snapshots=n_snapshots,
        snr_db=snr_db, trials=trials, seed=seed, method=method,
        doa_sampling=sampling,
        pipeline=PipelineSettings(known_snr="scenario"),
    )
    return run_cell(config, method, snr_db)


def test_criterion_06_single_source_fine_accuracy():
    # Thresholds frozen at the one-time calibration run: measured median
    # 0.0999 deg and p95 0.1696 deg at this seed; the frozen gate is
    # median <= 0.12 deg, p95 <= 0.5 deg.
    started = time.perf_counter()
    report = _pipeline_cell(
        1, 100, 10.0, 200, 6,
        DoaSampling(kind="uniform_range", lo_deg=-75.0, hi_deg=75.0))
    errors = np.abs([e for r in report.records for e in r.matched_errors_deg])
    median = float(np.median(errors))
    p95 = float(np.percentile(errors, 95))
    elapsed = time.perf_counter() - started
    passed = median <= 0.12 and p95 <= 0.5 and elapsed < 600.0
    _report(6, passed,
            f"median {median:.4f} deg (limit 0.12), p95 {p95:.4f} deg "
            f"(limit 0.5), {elapsed:.0f} s (limit 600 s)")
    assert median <= 0.12
    assert p95 <= 0.5
    assert elapsed < 600.0


def test_criterion_07_few_snapshot_detection_vs_music():
    started = time.perf_counter()
    sampling = DoaSampling(kind="uniform_range", lo_deg=-75.0, hi_deg=75.0)
    ours = _pipeline_cell(1, 2, 15.0, 200, 7, sampling)
    music = _pipeline_cell(1, 2, 15.0, 200, 7, sampling, method="music")
    our_rate = ours.aggregates.detection_rate
    music_rate = music.aggregates.detection_rate
    elapsed = time.perf_counter() - started
    passed = our_rate >= 0.8 and our_rate > music_rate and elapsed < 600.0
    _report(7, passed,
            f"detection {our_rate:.3f} (need >= 0.8) vs music "
            f"{music_rate:.3f} (need strictly higher), "
            f"{elapsed:.0f} s (limit 600 s)")
    assert our_rate >= 0.8
    assert elapsed < 600.0
    assert our_rate > music_rate


def test_criterion_08_two_source_separation():
    started = time.perf_counter()
    report = _pipeline_cell(
        2, 100, 10.0, 100, 8,
        DoaSampling(kind="fixed", angles_deg=(-7.5, 7.5)))
    both_close = sum(
        1 for r in report.records
        if r.matched_errors_deg is not None
        and all(abs(e) <= 0.5 for e in r.matched_errors_deg))
    elapsed = time.perf_counter() - started
    passed = both_close >= 90 and elapsed < 900.0
    _report(8, passed,
            f"both sources within 0.5 deg in {both_close}/100 trials "
            f"(need >= 90), {elapsed:.0f} s (limit 900 s)")
    assert both_close >= 90
    assert elapsed < 900.0


def test_criterion_09_cancellation_orthogonality():
    rng = np.random.default_rng(9)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        while True:
            angles = np.sort(np.radians(rng.uniform(-70.0, 70.0, k)))
            if np.degrees(np.diff(angles)).min() > 2.0:
                break
        ybar = _cn(rng, 16)
        stat = SufficientStatistic(mean=ybar, n_snapshots=1)
        target = int(rng.integers(0, k))
        residual, _ = cancel_interference(stat, angles, target, GEOMETRY)
        neighbors = steering_matrix(np.delete(angles, target), GEOMETRY)
        leak = float(np.abs(neighbors.conj().T @ residual.mean).max())
        worst = max(worst, leak / float(np.linalg.norm(ybar)))
    elapsed = time.perf_counter() - started
    passed = worst < 1e-10 and elapsed < 5.0
    _report(9, passed,
            f"worst neighbor leakage {worst:.2e} of ||ybar|| (limit 1e-10), "
            f"{elapsed:.2f} s (limit 5 s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_10_root_music_round_trip():
    rng = np.random.default_rng(10)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        angle = math.radians(rng.uniform(-90.0, 90.0))
        steer = steering_matrix(np.array([angle]), GEOMETRY)[:, 0]
        cov = np.outer(steer, steer.conj())
        recovered = root_music(cov, 1)[0]
        worst = max(worst, abs(recovered - angle))
    elapsed = time.perf_counter() - started
    passed = worst < 1e-6 and elapsed < 10.0
    _report(10, passed,
            f"worst round-trip error {worst:.2e} rad (limit 1e-6), "
            f"{elapsed:.2f} s (limit 10 s)")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_11_noise_floor_tuning_shape():
    # Fixed seed, one on-grid source at SNR 10 dB; snapshots are scaled so
    # the candidate triple brackets the useful range, matching the regime
    # the triple illustrates.  Counting uses the max over the three spectra
    # as the shared reference level.
    grid = build_grid(3000)
    index = 1700
    angle = float(grid.values[index])
    scenario = Scenario(geometry=GEOMETRY, true_doas=np.array([angle]),
                        n_snapshots=100, snr_db=10.0,
                        source_model="noncoherent")
    batch = simulate_snapshots(scenario, 0)
    scaled = SnapshotBatch(snapshots=batch.snapshots * math.sqrt(200.0))
    stat = snapshot_mean(scaled)
    dictionary = build_dictionary(grid, GEOMETRY)
    started = time.perf_counter()
    spectra = []
    for sigma2 in (3e0, 8e2, 1e4):
        config = SolverConfig(sigma2=sigma2, n_snapshots=100,
                              max_iterations=500, tolerance=1e-6,
                              init=1.0)
        _, moments, _ = solve(dictionary, stat, config)
        spectra.append(spectrum(moments, grid).values)
    shared_max = max(float(values.max()) for values in spectra)
    counts = [int((values > 0.1 * shared_max).sum()) for values in spectra]
    errors = [abs(math.degrees(float(grid.values[int(np.argmax(values))])
                               - angle)) for values in spectra]
    elapsed = time.perf_counter() - started
    monotone = counts[0] >= counts[1] >= counts[2]
    middle_best = errors[1] <= errors[0] and errors[1] <= errors[2]
    passed = monotone and middle_best and elapsed < 60.0
    _report(11, passed,
            f"support counts {counts} (need non-increasing), "
            f"abs errors {[round(e, 3) for e in errors]} deg "
            f"(need middle <= both), {elapsed:.1f} s (limit 60 s)")
    assert monotone
    assert middle_best
    assert elapsed < 60.0


def test_criterion_12_sweep_determinism_and_round_trip(tmp_path):
    raw = {
        "schema_version": 1,
        "methods": ["nuv_doa", "root_music", "bartlett"],
        "snr_sweep": [15.0],
        "trials": 6,
        "seed": 12,
        "scenario": {"n_snapshots": 100, "snr_db": 15.0},
        "doa_sampling": {"kind": "uniform_range", "lo_deg": -75.0,
                         "hi_deg": 75.0},
        "pipeline": {"known_snr": "scenario"},
    }
    config_path = tmp_path / "sweep.yaml"
    config_path.write_text(yaml.safe_dump(raw))
    started = time.perf_counter()
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(["sweep", "--config", str(config_path), "--out", str(first)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(second)]) == 0
    names = sorted(f.name for f in first.iterdir())
    identical = all((first / n).read_bytes() == (second / n).read_bytes()
                    for n in names)
    reload_ok = True
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        report = load_report(first / name)
        redone = aggregate(report.records, report.detection_threshold_deg)
        reload_ok = reload_ok and redone == report.aggregates
    elapsed = time.perf_counter() - started
    passed = identical and reload_ok and elapsed < 120.0
    _report(12, passed,
            f"{len(names)} outputs bit-identical: {identical}, reloads "
            f"match recomputation: {reload_ok}, {elapsed:.0f} s (limit 120 s)")
    assert identical
    assert reload_ok
    assert elapsed < 120.0
