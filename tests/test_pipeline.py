"""Tests for the hierarchical coarse-cancel-refine pipeline."""

import importlib.util
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nuvdoa.pipeline as pipeline_mod
from nuvdoa.arrays import (
    Scenario,
    SufficientStatistic,
    UlaGeometry,
    simulate_snapshots,
    snapshot_mean,
    steering_vector,
)
from nuvdoa.baselines import RootDeficitError
from nuvdoa.pipeline import (
    TABLE_SCHEMA_VERSION,
    ErrorStdTable,
    PipelineSettings,
    Sigma2Table,
    cancel_interference,
    coarse_estimate,
    dump_error_table,
    dump_sigma2_table,
    error_table_from_payload,
    estimate_effective_snr,
    estimate_multisource,
    load_default_error_table,
    load_default_sigma2_table,
    refine_source,
    resolve_epsilon,
    resolve_sigma2,
    sigma2_table_from_payload,
)
from nuvdoa.solver import SolverSettings

GEOM = UlaGeometry(16)
MAKE_TABLES = Path(__file__).resolve().parents[1] / "scripts" / "make_tables.py"


def _batch(doas_deg, n_snapshots, snr_db, seed, model="noncoherent"):
    scen = Scenario(
        geometry=GEOM,
        true_doas=tuple(np.radians(doas_deg)),
        n_snapshots=n_snapshots,
        snr_db=snr_db,
        source_model=model,
    )
    return simulate_snapshots(scen, seed)


class TestErrorStdTable:
    def test_interpolates_between_entries(self):
        table = ErrorStdTable(snrs_db=(0.0, 10.0), epsilons_deg=(0.5, 0.1))
        assert np.degrees(table.epsilon_for(5.0)) == pytest.approx(0.3)
        assert np.degrees(table.epsilon_for(0.0)) == pytest.approx(0.5)

    def test_outside_range_falls_back_to_one_degree(self):
        table = ErrorStdTable(snrs_db=(0.0, 10.0), epsilons_deg=(0.5, 0.1))
        assert np.degrees(table.epsilon_for(-3.0)) == pytest.approx(1.0)
        assert np.degrees(table.epsilon_for(11.0)) == pytest.approx(1.0)

    def test_single_entry_always_answers(self):
        table = ErrorStdTable(snrs_db=(10.0,), epsilons_deg=(0.2,))
        for snr in (-20.0, 10.0, 40.0):
            assert np.degrees(table.epsilon_for(snr)) == pytest.approx(0.2)

    def test_empty_table_uses_fallback(self):
        table = ErrorStdTable(snrs_db=(), epsilons_deg=())
        assert np.degrees(table.epsilon_for(10.0)) == pytest.approx(1.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            ErrorStdTable(snrs_db=(0.0,), epsilons_deg=(0.0,))

    def test_rejects_unsorted_snrs(self):
        with pytest.raises(ValueError):
            ErrorStdTable(snrs_db=(10.0, 0.0), epsilons_deg=(0.1, 0.5))

    def test_packaged_table_loads(self):
        table = load_default_error_table()
        assert load_default_error_table() is table
        assert len(table.snrs_db) >= 4
        assert all(e > 0 for e in table.epsilons_deg)


class TestSigma2Table:
    def test_log_space_interpolation(self):
        table = Sigma2Table(snrs_db=(0.0, 10.0), sigma2s=(1.0, 100.0))
        assert table.sigma2_for(5.0) == pytest.approx(10.0)

    def test_clamps_to_edges(self):
        table = Sigma2Table(snrs_db=(0.0, 10.0), sigma2s=(1.0, 100.0))
        assert table.sigma2_for(-5.0) == pytest.approx(1.0)
        assert table.sigma2_for(25.0) == pytest.approx(100.0)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            Sigma2Table(snrs_db=(), sigma2s=())
        with pytest.raises(ValueError):
            Sigma2Table(snrs_db=(0.0,), sigma2s=(-1.0,))

    def test_packaged_table_loads(self):
        table = load_default_sigma2_table()
        assert load_default_sigma2_table() is table
        assert all(s > 0 for s in table.sigma2s)


class TestCalibrationTables:
    """The table file format, and the script that is its one producer."""

    def test_error_table_round_trip(self, tmp_path):
        table = ErrorStdTable(snrs_db=(0.0, 10.0, 20.0),
                              epsilons_deg=(0.5, 0.05, 0.01))
        path = tmp_path / "eps.json"
        dump_error_table(table, path, entry_flags=(("low_confidence",), (), ()))
        payload = json.loads(path.read_text())
        assert error_table_from_payload(payload) == table
        assert payload["schema_version"] == TABLE_SCHEMA_VERSION
        assert payload["entries"][0]["flags"] == ["low_confidence"]
        assert "flags" not in payload["entries"][1]

    def test_sigma2_table_round_trip(self, tmp_path):
        table = Sigma2Table(snrs_db=(0.0, 10.0), sigma2s=(100.0, 1.0))
        path = tmp_path / "sigma2.json"
        dump_sigma2_table(table, path)
        payload = json.loads(path.read_text())
        assert sigma2_table_from_payload(payload) == table
        assert payload["schema_version"] == TABLE_SCHEMA_VERSION

    def test_writers_reproduce_the_packaged_files(self, tmp_path):
        data = resources.files("nuvdoa.data")
        packaged = json.loads(data.joinpath("epsilon_table.json").read_text())
        flags = tuple(tuple(e.get("flags", ())) for e in packaged["entries"])
        dump_error_table(load_default_error_table(), tmp_path / "eps.json", flags)
        dump_sigma2_table(load_default_sigma2_table(), tmp_path / "sigma2.json")
        for name, path in (("epsilon_table.json", "eps.json"),
                           ("sigma2_table.json", "sigma2.json")):
            assert (tmp_path / path).read_text() == data.joinpath(name).read_text()

    def test_make_tables_script_writes_both_tables(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("make_tables", MAKE_TABLES)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "EPSILON_SNRS", (10.0,))
        monkeypatch.setattr(script, "SIGMA2_SNRS", (10.0,))
        monkeypatch.setattr(script, "SIGMA2_CANDIDATES", (1.0, 100.0))
        script.main(["--epsilon-trials", "2", "--sigma2-trials", "1",
                     "--out", str(tmp_path)])
        eps_payload = json.loads((tmp_path / "epsilon_table.json").read_text())
        sig_payload = json.loads((tmp_path / "sigma2_table.json").read_text())
        assert error_table_from_payload(eps_payload).snrs_db == (10.0,)
        assert eps_payload["entries"][0]["flags"] == ["low_confidence"]
        table = sigma2_table_from_payload(sig_payload)
        assert table.snrs_db == (10.0,)
        assert table.sigma2s[0] in (1.0, 100.0)


class TestEffectiveSnr:
    def test_known_diagonal_case(self):
        # one signal eigenvalue of 161 over a unit noise floor: 160/16 = 10x
        cov = np.diag([1.0] * 15 + [161.0]).astype(complex)
        assert estimate_effective_snr(cov) == pytest.approx(10.0, abs=1e-12)

    def test_rank_deficient_reads_infinite(self):
        a = steering_vector(0.3, GEOM)
        cov = np.outer(a, a.conj())
        assert estimate_effective_snr(cov) == math.inf

    def test_pure_noise_reads_negative_infinite(self):
        assert estimate_effective_snr(np.eye(8, dtype=complex)) == -math.inf


class TestPipelineConfig:
    """The `pipeline:` settings checks and the sigma2 resolution."""

    def test_rejects_fine_step_above_half_width(self):
        with pytest.raises(ValueError):
            PipelineSettings(fine_step_deg=0.5, half_width_deg=0.1)

    def test_rejects_coarse_step_at_or_below_fine_step(self):
        with pytest.raises(ValueError):
            PipelineSettings(coarse_cells=100000)

    def test_explicit_sigma2_wins_over_table(self):
        assert load_default_sigma2_table().sigma2_for(0.0) != 5.0
        assert resolve_sigma2(SolverSettings(sigma2=5.0), 0.0) == 5.0

    def test_table_used_when_sigma2_unset(self):
        table = load_default_sigma2_table()
        for snr in (-20.0, 2.5, 12.0, 40.0):
            assert resolve_sigma2(SolverSettings(), snr) == table.sigma2_for(snr)


class TestCoarseEstimate:
    def test_high_snr_takes_root_path_and_is_tight(self):
        # noiseless single source: covariance rooting is essentially exact
        batch = _batch([20.0], n_snapshots=8, snr_db=np.inf, seed=0)
        ce = coarse_estimate(batch, 1, PipelineSettings(known_snr=30.0), SolverSettings())
        assert ce.method == "root_music"
        assert abs(ce.angles[0] - np.radians(20.0)) < 1e-6

    def test_low_declared_snr_takes_sparse_path(self):
        batch = _batch([20.0], n_snapshots=100, snr_db=20.0, seed=1)
        ce = coarse_estimate(batch, 1, PipelineSettings(known_snr=0.0),
                             SolverSettings(sigma2=1.0))
        assert ce.method == "nuv_coarse"
        assert abs(np.degrees(ce.angles[0]) - 20.0) < 0.5

    def test_root_deficit_falls_back_flagged(self, monkeypatch):
        def broken(cov, n_sources):
            raise RootDeficitError("no admissible roots")

        monkeypatch.setattr(pipeline_mod, "root_music", broken)
        batch = _batch([10.0], n_snapshots=100, snr_db=20.0, seed=2)
        ce = coarse_estimate(batch, 1, PipelineSettings(known_snr=20.0),
                             SolverSettings(sigma2=1.0))
        assert ce.method == "nuv_coarse"
        assert "root_deficit_fallback" in ce.flags

    def test_two_sources_at_pm30_within_half_degree(self):
        worst = []
        for seed in range(20):
            batch = _batch([-30.0, 30.0], n_snapshots=100, snr_db=20.0, seed=seed)
            ce = coarse_estimate(batch, 2, PipelineSettings(known_snr=20.0),
                                 SolverSettings())
            err = np.degrees(np.abs(np.sort(ce.angles) - np.radians([-30.0, 30.0])))
            worst.append(err.max())
        assert np.percentile(worst, 95) < 0.5

    def test_source_count_validated(self):
        batch = _batch([0.0], n_snapshots=4, snr_db=10.0, seed=0)
        with pytest.raises(ValueError):
            coarse_estimate(batch, 0, PipelineSettings(), SolverSettings())
        with pytest.raises(ValueError):
            coarse_estimate(batch, 16, PipelineSettings(), SolverSettings())


class TestCancelInterference:
    def test_single_source_passes_through(self):
        stat = SufficientStatistic(
            mean=np.arange(16, dtype=complex) + 1j, n_snapshots=3
        )
        out, flags = cancel_interference(stat, np.array([0.2]), 0, GEOM)
        assert out is stat
        assert flags == ()

    def test_matches_projection_oracle(self):
        t1, t2 = np.radians(-7.5), np.radians(7.5)
        a1, a2 = steering_vector(t1, GEOM), steering_vector(t2, GEOM)
        ybar = 2.0 * a1 + (1.0 + 1.0j) * a2
        stat = SufficientStatistic(mean=ybar, n_snapshots=1)
        out, _ = cancel_interference(stat, np.array([t1, t2]), 0, GEOM)
        oracle = 2.0 * (a1 - a2 * (a2.conj() @ a1) / 16.0)
        assert np.allclose(out.mean, oracle, atol=1e-12)
        # cancellation keeps nearly all of the target's own correlation
        kept = abs(a1.conj() @ out.mean)
        assert kept > 0.99 * abs(a1.conj() @ (2.0 * a1))

    def test_neighbor_span_is_annihilated(self):
        angles = np.radians([-40.0, 10.0, 35.0])
        a2 = steering_vector(angles[1], GEOM)
        a3 = steering_vector(angles[2], GEOM)
        ybar = 3.0 * a2 - 2.0j * a3
        stat = SufficientStatistic(mean=ybar, n_snapshots=1)
        out, _ = cancel_interference(stat, angles, 0, GEOM)
        assert np.linalg.norm(out.mean) < 1e-10 * np.linalg.norm(ybar)

    def test_residual_orthogonal_to_every_neighbor(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            angles = np.sort(rng.uniform(-1.4, 1.4, size=k))
            ybar = rng.normal(size=16) + 1j * rng.normal(size=16)
            stat = SufficientStatistic(mean=ybar, n_snapshots=1)
            target = int(rng.integers(0, k))
            out, _ = cancel_interference(stat, angles, target, GEOM)
            scale = np.linalg.norm(ybar)
            for j, angle in enumerate(angles):
                if j == target:
                    continue
                inner = abs(steering_vector(angle, GEOM).conj() @ out.mean)
                assert inner < 1e-10 * scale

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        angles = np.radians([-20.0, 5.0, 50.0])
        ybar = rng.normal(size=16) + 1j * rng.normal(size=16)
        stat = SufficientStatistic(mean=ybar, n_snapshots=2)
        once, _ = cancel_interference(stat, angles, 1, GEOM)
        twice, _ = cancel_interference(once, angles, 1, GEOM)
        assert np.allclose(twice.mean, once.mean, atol=1e-12)

    def test_duplicate_neighbors_dropped_and_flagged(self):
        angles = np.radians([10.0, 40.0, 40.0])
        a_dup = steering_vector(angles[1], GEOM)
        ybar = steering_vector(angles[0], GEOM) + 0.5 * a_dup
        stat = SufficientStatistic(mean=ybar, n_snapshots=1)
        out, flags = cancel_interference(stat, angles, 0, GEOM)
        assert "duplicate_neighbors_dropped" in flags
        assert abs(a_dup.conj() @ out.mean) < 1e-10 * np.linalg.norm(ybar)

    def test_target_index_validated(self):
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex), n_snapshots=1)
        with pytest.raises(ValueError):
            cancel_interference(stat, np.array([0.1, 0.2]), 2, GEOM)


class TestRefineSource:
    CFG = PipelineSettings(known_snr=30.0)
    SOLVER = SolverSettings(sigma2=1e-2, max_iterations=60)

    def _spec(self, stat, sigma2):
        return self.SOLVER.solver_config(stat.n_snapshots, sigma2)

    def test_noiseless_window_recovers_truth(self):
        truth = np.radians(14.0)
        batch = _batch([14.0], n_snapshots=1, snr_db=np.inf, seed=4)
        stat = snapshot_mean(batch)
        coarse = truth - np.radians(0.07)
        angle, flags = refine_source(
            stat, coarse, np.radians(0.1), self.CFG, self._spec(stat, 1e-2), GEOM
        )
        assert flags == ()
        assert abs(angle - truth) < np.radians(self.CFG.fine_step_deg) + 1e-12

    def test_result_stays_inside_window(self):
        eps = np.radians(0.05)
        for seed in range(5):
            batch = _batch([-33.0], n_snapshots=50, snr_db=5.0, seed=seed)
            stat = snapshot_mean(batch)
            coarse = np.radians(-33.02)
            angle, _ = refine_source(stat, coarse, eps, self.CFG,
                                     self._spec(stat, 1.0), GEOM)
            assert coarse - 3 * eps - 1e-12 <= angle <= coarse + 3 * eps + 1e-12

    def test_zero_signal_flags_no_detection(self):
        stat = SufficientStatistic(mean=np.zeros(16, dtype=complex), n_snapshots=1)
        coarse = np.radians(10.0)
        eps = np.radians(0.05)
        angle, flags = refine_source(stat, coarse, eps, self.CFG,
                                     self._spec(stat, 1.0), GEOM)
        assert "no_detection" in flags
        assert angle == pytest.approx(coarse - 3 * eps, abs=1e-12)

    def test_empty_window_returns_coarse_flagged(self):
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex), n_snapshots=1)
        coarse = np.radians(-90.1)
        angle, flags = refine_source(
            stat, coarse, np.radians(0.01), self.CFG, self._spec(stat, 1.0), GEOM
        )
        assert flags == ("empty_window",)
        assert angle == coarse

    def test_epsilon_must_be_positive(self):
        stat = SufficientStatistic(mean=np.ones(16, dtype=complex), n_snapshots=1)
        with pytest.raises(ValueError):
            refine_source(stat, 0.0, 0.0, self.CFG, self._spec(stat, 1.0), GEOM)


class TestEstimateMultisource:
    def test_single_source_equals_coarse_plus_refine(self):
        batch = _batch([26.1], n_snapshots=100, snr_db=12.0, seed=6)
        cfg = PipelineSettings(known_snr=12.0)
        solver = SolverSettings(sigma2=1.0)
        est, trace = estimate_multisource(batch, 1, cfg, solver)
        coarse = coarse_estimate(batch, 1, cfg, solver)
        eps = resolve_epsilon(coarse.effective_snr_db)
        angle, _ = refine_source(
            snapshot_mean(batch), float(coarse.angles[0]), eps, cfg,
            solver.solver_config(batch.n_snapshots, 1.0), GEOM
        )
        assert est[0] == angle
        assert trace.epsilon == eps

    def test_estimates_stay_in_windows(self):
        for seed in range(6):
            batch = _batch([-48.0, 3.0, 41.0], n_snapshots=100, snr_db=15.0, seed=seed)
            cfg = PipelineSettings(known_snr=15.0)
            est, trace = estimate_multisource(batch, 3, cfg, SolverSettings(sigma2=1.0))
            assert trace.windows and len(trace.windows) == 3
            unflagged = not any(
                f in trace.flags for f in ("empty_window", "no_detection")
            )
            if unflagged:
                for angle in est:
                    assert any(
                        lo - 1e-12 <= angle <= hi + 1e-12
                        for lo, hi in trace.windows
                    )

    def test_two_noncoherent_sources_15_deg_apart(self):
        truths = np.radians([-7.5, 7.5])
        cfg = PipelineSettings(known_snr=10.0)
        for seed in range(8):
            batch = _batch([-7.5, 7.5], n_snapshots=100, snr_db=10.0, seed=seed)
            est, _ = estimate_multisource(batch, 2, cfg, SolverSettings())
            err = np.degrees(np.abs(np.sort(est) - truths))
            assert np.all(err <= 0.5)

    def test_two_coherent_sources_30_deg_apart(self):
        # mean-statistic refinement handles a rank-one covariance pair
        truths = np.radians([-15.0, 15.0])
        cfg = PipelineSettings(known_snr=15.0)
        hits = 0
        for seed in range(12):
            batch = _batch(
                [-15.0, 15.0], n_snapshots=100, snr_db=15.0, seed=seed,
                model="coherent",
            )
            est, _ = estimate_multisource(batch, 2, cfg, SolverSettings())
            err = np.degrees(np.abs(np.sort(est) - truths))
            hits += int(np.all(err < 1.0))
        assert hits >= 10
