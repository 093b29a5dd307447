import importlib.util
import math
import pathlib
import sys
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from nuvdoa.arrays import (
    Scenario,
    SufficientStatistic,
    UlaGeometry,
    build_dictionary,
    build_grid,
    simulate_snapshots,
    snapshot_mean,
    steering_matrix,
)
import nuvdoa.harness as harness_mod
import nuvdoa.solver as solver_mod
import nuvdoa.subbands as subbands_mod
from nuvdoa.harness import ScenarioConfig
from nuvdoa.pipeline import full_azimuth_dictionary, load_default_sigma2_table
from nuvdoa.solver import (
    NuvState,
    PosteriorMoments,
    SolverConfig,
    SolverNumericalError,
    Spectrum,
    _is_ula_stack,
    posterior_moments,
    precision_matrix,
    select_peaks,
    solve,
    solve_stack,
    spectrum,
)
from nuvdoa.subbands import band_stack, plan_subbands, superres_scan


def random_problem(rng, n, m):
    a = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    pv = rng.uniform(0.1, 2.0, size=m)
    ybar = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, pv, ybar


def test_precision_zero_variances_is_scaled_identity():
    a = steering_matrix(np.radians([-10.0, 0.0, 25.0]), UlaGeometry(4))
    cfg = SolverConfig(sigma2=2.0, n_snapshots=8, init=1.0)
    state = NuvState(prior_variances=np.zeros(3))
    w = precision_matrix(a, state, cfg)
    npt.assert_allclose(w, (8 / 2.0) * np.eye(4), atol=1e-12)


def test_precision_inverts_the_observation_covariance():
    rng = np.random.default_rng(0)
    a, pv, _ = random_problem(rng, 2, 3)
    cfg = SolverConfig(sigma2=0.7, n_snapshots=5, init=1.0)
    state = NuvState(prior_variances=pv)
    w = precision_matrix(a, state, cfg)
    cov = (a * pv) @ a.conj().T + cfg.noise_scale * np.eye(2)
    npt.assert_allclose(w @ cov, np.eye(2), atol=1e-10)


def test_precision_scalar_case():
    cfg = SolverConfig(sigma2=3.0, n_snapshots=3, init=1.0)
    state = NuvState(prior_variances=np.array([3.0]))
    w = precision_matrix(np.array([[1.0 + 0j]]), state, cfg)
    assert w[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_precision_raises_on_nonfinite_covariance():
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=1.0)
    state = NuvState(prior_variances=np.full(3, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverNumericalError):
            precision_matrix(np.ones((2, 3), dtype=complex), state, cfg)


def test_moments_zero_variances_annihilate():
    rng = np.random.default_rng(1)
    a, _, ybar = random_problem(rng, 3, 5)
    cfg = SolverConfig(sigma2=1.0, n_snapshots=4, init=1.0)
    state = NuvState(prior_variances=np.zeros(5))
    w = precision_matrix(a, state, cfg)
    mom = posterior_moments(a, state, w, ybar)
    npt.assert_array_equal(mom.mean, np.zeros(5))
    npt.assert_array_equal(mom.variance, np.zeros(5))


def test_moments_scalar_case():
    # a=1, pv=3, noise scale 1, ybar=2: mean = 3*(1/4)*2, var = 3 - 9/4.
    cfg = SolverConfig(sigma2=4.0, n_snapshots=4, init=1.0)
    state = NuvState(prior_variances=np.array([3.0]))
    a = np.array([[1.0 + 0j]])
    w = precision_matrix(a, state, cfg)
    mom = posterior_moments(a, state, w, np.array([2.0 + 0j]))
    assert mom.mean[0] == pytest.approx(1.5, abs=1e-14)
    assert mom.variance[0] == pytest.approx(0.75, abs=1e-14)


def test_moments_match_dense_posterior_covariance():
    """The marginal variance must equal the diagonal of the full posterior."""
    rng = np.random.default_rng(2)
    a, pv, ybar = random_problem(rng, 4, 8)
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, init=1.0)
    state = NuvState(prior_variances=pv)
    w = precision_matrix(a, state, cfg)
    mom = posterior_moments(a, state, w, ybar)
    gamma = np.diag(pv.astype(complex))
    dense_w = np.linalg.inv((a * pv) @ a.conj().T
                            + cfg.noise_scale * np.eye(4))
    post_cov = gamma - gamma @ a.conj().T @ dense_w @ a @ gamma
    npt.assert_allclose(mom.mean, (gamma @ a.conj().T @ dense_w @ ybar),
                        atol=1e-10)
    npt.assert_allclose(mom.variance, np.real(np.diag(post_cov)), atol=1e-10)


def test_moment_variance_never_exceeds_prior_variance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, pv, ybar = random_problem(rng, 3, 6)
        cfg = SolverConfig(sigma2=float(rng.uniform(0.05, 2.0)),
                           n_snapshots=int(rng.integers(1, 50)),
                           init=1.0)
        state = NuvState(prior_variances=pv)
        w = precision_matrix(a, state, cfg)
        mom = posterior_moments(a, state, w, ybar)
        assert np.all(mom.variance <= pv + 1e-10)
        assert np.all(mom.variance >= 0)


def test_solve_zero_column_stays_at_zero():
    # A zero column starts at zero variance, and zero is a fixed point.
    cfg = SolverConfig(sigma2=1.0, n_snapshots=2, init=1.0)
    state, _, trace = solve(np.zeros((1, 1)), np.array([2.0 + 0j]), cfg,
                            keep_history=True)
    npt.assert_array_equal(trace.history, [[0.0], [0.0]])
    npt.assert_array_equal(state.prior_variances, [0.0])
    assert trace.iterations == 1 and trace.converged


def _scalar_history(ybar, cfg):
    """Sweeps of the scalar problem ``a = 1``: ``pv <- pv |ybar|^2 / (pv + s)``."""
    _, _, trace = solve(np.ones((1, 1)), np.array([ybar + 0j]), cfg,
                        keep_history=True)
    history = np.array(trace.history)[:, 0]
    s = cfg.noise_scale
    expected = history[:-1] * abs(ybar) ** 2 / (history[:-1] + s)
    npt.assert_allclose(history[1:], expected, rtol=1e-14, atol=0)
    return history


def test_em_scalar_recursion_converges_to_analytic_fixed_point():
    # For a unit-modulus single atom the fixed point is |ybar|^2 - sigma2/L.
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=0.7,
                       max_iterations=600, tolerance=1e-300)
    history = _scalar_history(2.0, cfg)
    assert history[0] == 0.7
    assert history[-1] == pytest.approx(3.0, abs=1e-12)


def test_em_scalar_noise_dominated_decreases_toward_zero():
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=1.0,
                       max_iterations=50, tolerance=1e-300)
    history = _scalar_history(0.5, cfg)
    assert history.size == 51
    assert np.all(np.diff(history) < 0)
    assert history[-1] < 0.15


@pytest.mark.parametrize("ybar, target", [(2.0, 3.0), (0.5, 0.0)])
def test_scalar_solve_lands_on_analytic_fixed_point(ybar, target):
    """The MacKay loop reaches max(0, |ybar|^2 - s) on both branches.

    With ``s = sigma2 / L = 1`` the update is ``pv |ybar|^2 / (pv + s)``: it
    contracts to ``|ybar|^2 - s`` at rate ``s / |ybar|^2`` above the noise
    floor and to zero at rate ``|ybar|^2 / s`` below it.
    """
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, max_iterations=500,
                       tolerance=1e-14, init=1.0)
    state, _, trace = solve(np.ones((1, 1)), np.array([ybar + 0j]), cfg)
    assert trace.converged
    assert abs(state.prior_variances[0] - target) <= 1e-12


def test_solve_zero_statistic_collapses():
    d = build_dictionary(build_grid(90), UlaGeometry(8))
    cfg = SolverConfig(sigma2=1.0, n_snapshots=10, init=1.0)
    state, mom, trace = solve(d, np.zeros(8, dtype=complex), cfg)
    npt.assert_array_equal(np.abs(mom.mean), np.zeros(90))
    assert state.prior_variances.max() < 1e-3
    assert trace.converged


def test_solve_noiseless_on_grid_source_argmax():
    geom = UlaGeometry(16)
    grid = build_grid(180)
    d = build_dictionary(grid, geom)
    cfg = SolverConfig(sigma2=1e-4, n_snapshots=1, init=1.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        idx = int(rng.integers(0, 180))
        s = rng.standard_normal() + 1j * rng.standard_normal()
        ybar = s * d[:, idx]
        _, mom, _ = solve(d, ybar, cfg)
        assert int(np.argmax(np.abs(mom.mean))) == idx


def test_solve_depends_on_noise_scale_only_through_ratio():
    """Doubling sigma2 and the snapshot count together changes nothing."""
    rng = np.random.default_rng(7)
    a, _, ybar = random_problem(rng, 4, 12)
    base = SolverConfig(sigma2=0.8, n_snapshots=5, max_iterations=40,
                        init=1.0)
    doubled = replace(base, sigma2=1.6, n_snapshots=10)
    _, _, trace_a = solve(a, ybar, base, keep_history=True)
    _, _, trace_b = solve(a, ybar, doubled, keep_history=True)
    assert len(trace_a.history) == len(trace_b.history)
    for hist_a, hist_b in zip(trace_a.history, trace_b.history):
        npt.assert_array_equal(hist_a, hist_b)


def _mackay_reference(d, state, stat, cfg):
    """One MacKay sweep pv <- |mean|^2 / (1 - var/pv) on the reference moments.

    ``1 - var/pv`` is formed as ``pv * diag(A^H W A)``: the quotient of the
    clamped variance reads exactly 1 once ``pv`` is small, and would divide
    by zero.  Atoms at zero variance stay there.
    """
    pv = state.prior_variances
    precision = precision_matrix(d, state, cfg)
    mom = posterior_moments(d, state, precision, stat)
    gain = np.einsum("nm,nm->m", d.conj(), precision @ d).real
    update = np.zeros_like(pv)
    np.divide(np.abs(mom.mean) ** 2, pv * gain, out=update, where=pv > 0)
    return NuvState(update, state.iteration + 1)


def test_solve_history_follows_hand_iterated_sweeps():
    """solve's iterates are the MacKay update of the reference moments."""
    geom = UlaGeometry(16)
    d = build_dictionary(build_grid(180), geom)
    scen = Scenario(geometry=geom, true_doas=(0.3, -0.5), n_snapshots=10,
                    snr_db=5.0)
    stat = snapshot_mean(simulate_snapshots(scen, seed=3))
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, max_iterations=60,
                       tolerance=1e-300)
    state, moments, trace = solve(d, stat, cfg, keep_history=True)
    assert len(trace.history) == 61
    reference = NuvState(np.ones(180))
    for solved in trace.history[1:]:
        reference = _mackay_reference(d, reference, stat, cfg)
        scale = np.abs(solved).max()
        assert np.abs(reference.prior_variances - solved).max() <= 1e-12 * scale
    final = posterior_moments(d, state, precision_matrix(d, state, cfg), stat)
    npt.assert_allclose(moments.mean, final.mean,
                        rtol=0, atol=1e-12 * np.abs(final.mean).max())
    npt.assert_allclose(moments.variance, final.variance,
                        rtol=0, atol=1e-12 * final.variance.max())


def test_solve_raises_on_nonfinite_dictionary():
    a = np.ones((2, 3), dtype=complex)
    a[1, 2] = np.inf
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverNumericalError) as info:
            solve(a, np.ones(2, dtype=complex), cfg)
    assert info.value.iteration == 0


def test_solve_raises_on_failed_factorization():
    # Two identical sensor rows and a noise floor lost to rounding leave a
    # singular covariance in floating point.
    cfg = SolverConfig(sigma2=1e-30, n_snapshots=1, init=1.0)
    with pytest.raises(SolverNumericalError) as info:
        solve(np.ones((2, 1)), np.ones(2), cfg)
    assert info.value.iteration == 0


def test_solve_reports_nonconvergence_honestly():
    geom = UlaGeometry(8)
    d = build_dictionary(build_grid(90), geom)
    scen = Scenario(geometry=geom, true_doas=(0.3,), n_snapshots=20,
                    snr_db=0.0)
    stat = snapshot_mean(simulate_snapshots(scen, seed=0))
    cfg = SolverConfig(sigma2=0.5, n_snapshots=20, max_iterations=2,
                       init=1.0)
    _, _, trace = solve(d, stat, cfg)
    assert trace.iterations == 2
    assert not trace.converged


def test_stack_matches_problems_solved_alone():
    """Problems leaving the stack at different sweeps keep their own results."""
    rng = np.random.default_rng(8)
    problems = [random_problem(rng, 4, 8) for _ in range(4)]
    cfg = SolverConfig(sigma2=0.6, n_snapshots=3, max_iterations=400,
                       tolerance=1e-4)
    matrices = np.stack([a for a, _, _ in problems])
    means = np.stack([ybar for _, _, ybar in problems])
    final_pv, mean, variance, excursion, traces = solve_stack(
        matrices, means, cfg, keep_history=True)
    assert len(set(traces.iterations)) > 1
    for i, (a, _, ybar) in enumerate(problems):
        state, moments, trace = solve(a, ybar, cfg, keep_history=True)
        npt.assert_array_equal(final_pv[i], state.prior_variances)
        npt.assert_array_equal(mean[i], moments.mean)
        npt.assert_array_equal(variance[i], moments.variance)
        assert excursion[i] == moments.clamp_excursion
        assert traces.iterations[i] == trace.iterations
        assert traces.converged[i] == trace.converged
        assert traces.final_change[i] == trace.final_change
        assert traces.worst_clamp_excursion[i] == trace.worst_clamp_excursion
        assert len(traces.histories[i]) == trace.iterations + 1
        for left, right in zip(traces.histories[i], trace.history):
            npt.assert_array_equal(left, right)


def test_stack_starts_live_columns_at_init_and_padding_at_zero():
    """solve_stack sets its own start; padding starts and stays at zero."""
    geom = UlaGeometry(8)
    dictionaries = [build_dictionary(build_grid(m), geom)
                    for m in (20, 33, 41)]
    widths = [d.shape[1] for d in dictionaries]
    matrices = np.zeros((3, 8, max(widths)), dtype=complex)
    for i, d in enumerate(dictionaries):
        matrices[i, :, :widths[i]] = d
    scen = Scenario(geometry=geom, true_doas=(0.2,), n_snapshots=10,
                    snr_db=5.0)
    ybar = snapshot_mean(simulate_snapshots(scen, seed=5)).mean
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, max_iterations=200,
                       init=2.0)
    final_pv, mean, variance, excursion, traces = solve_stack(
        matrices, np.broadcast_to(ybar, (3, 8)), cfg, keep_history=True)
    for i, (d, m) in enumerate(zip(dictionaries, widths)):
        npt.assert_array_equal(traces.histories[i][0][:m], 2.0)
        npt.assert_array_equal(traces.histories[i][0][m:], 0.0)
        assert not final_pv[i, m:].any()
        assert not mean[i, m:].any() and not variance[i, m:].any()
        state, moments, trace = solve(d, ybar, cfg, keep_history=True)
        npt.assert_array_equal(final_pv[i, :m], state.prior_variances)
        npt.assert_array_equal(mean[i, :m], moments.mean)
        npt.assert_array_equal(variance[i, :m], moments.variance)
        assert excursion[i] == moments.clamp_excursion
        assert traces.iterations[i] == trace.iterations
        for left, right in zip(traces.histories[i], trace.history):
            npt.assert_array_equal(left[:m], right)


def _scan_problem(bands: int, sigma2: float):
    """A scan's band stack around a 10 dB source, its means and config."""
    geom = UlaGeometry(16)
    theta, fine = math.radians(10.3), math.radians(0.01)
    plan = plan_subbands(theta - (bands // 2) * fine,
                         theta + (bands - 1 - bands // 2) * fine, fine,
                         math.radians(0.5))
    scen = Scenario(geometry=geom, true_doas=(theta,), n_snapshots=100,
                    snr_db=10.0)
    ybar = snapshot_mean(simulate_snapshots(scen, seed=2)).mean
    stack = band_stack(plan, geom)
    return (stack, np.broadcast_to(ybar, (len(stack), 16)),
            SolverConfig(sigma2=sigma2, n_snapshots=100))


def test_steering_stack_trace_matches_problems_solved_alone():
    """On the Toeplitz branch too, each entry of the trace arrays, and each
    history, is the one the problem's own solve records."""
    stack, means, cfg = _scan_problem(5, 0.03)
    final_pv, _, _, _, traces = solve_stack(stack, means, cfg,
                                            keep_history=True, steering=True)
    assert len(set(traces.iterations)) == len(stack)
    assert len(traces.histories) == len(stack)
    for i in range(len(stack)):
        state, _, trace = solve(stack[i], means[i], cfg, keep_history=True,
                                steering=True)
        npt.assert_array_equal(final_pv[i], state.prior_variances)
        assert traces.iterations[i] == trace.iterations
        assert traces.converged[i] == trace.converged
        assert traces.final_change[i] == trace.final_change
        assert traces.worst_clamp_excursion[i] == trace.worst_clamp_excursion
        assert len(traces.histories[i]) == trace.iterations + 1
        for left, right in zip(traces.histories[i], trace.history):
            npt.assert_array_equal(left, right)


def test_solve_without_history_keeps_none():
    stack, means, cfg = _scan_problem(2, 300.0)
    *_, traces = solve_stack(stack, means, cfg, steering=True)
    assert traces.histories == ()
    assert solve(stack[0], means[0], cfg, steering=True)[2].history == ()


def test_band_stack_view_is_solved_without_a_copy(monkeypatch):
    """``band_stack``'s sliding window reaches the sweep as it is, and gives
    the results of a contiguous copy bit for bit."""
    stack, means, cfg = _scan_problem(22, 300.0)
    operands = []
    moments = solver_mod._moments

    def recording(transposed, *args):
        operands.append(transposed)
        return moments(transposed, *args)

    monkeypatch.setattr(solver_mod, "_moments", recording)
    viewed = solve_stack(stack, means, cfg, steering=True)
    assert np.shares_memory(operands[0], stack)
    operands.clear()
    copied = solve_stack(np.array(stack), means, cfg, steering=True)
    assert not np.shares_memory(operands[0], stack)
    for left, right in zip(viewed[:4], copied[:4]):
        npt.assert_array_equal(left, right)
    for field in ("iterations", "final_change", "converged",
                  "worst_clamp_excursion"):
        npt.assert_array_equal(getattr(viewed[4], field),
                               getattr(copied[4], field))


@pytest.mark.parametrize("count", [1, 22])
@pytest.mark.parametrize("n", [2, 3, 16])
def test_diagonal_sums_match_their_definition(n, count):
    """``c_0 = tr Q`` and ``c_d = 2 sum_k Q[k, k+d]``, for a whole stack."""
    rng = np.random.default_rng(n * count)
    roots = (rng.standard_normal((count, n, n))
             + 1j * rng.standard_normal((count, n, n)))
    precision = roots @ roots.conj().swapaxes(1, 2) + np.eye(n)
    sums = solver_mod._diagonal_sums(precision)
    assert sums.shape == (count, n)
    for q, row in zip(precision, sums):
        reference = np.array([np.trace(q, offset=d) * (1 if d == 0 else 2)
                              for d in range(n)])
        npt.assert_allclose(row, reference, rtol=0,
                            atol=1e-13 * np.abs(reference).max())


def test_zero_variance_columns_stay_zero_without_nan():
    """An all-zero column, in the dictionary or as padding, stays at exactly 0.

    Its gain is 0 and so is its mean, so the update must not form 0/0: the
    solve runs with division and invalid-value warnings raised as errors.
    """
    rng = np.random.default_rng(9)
    a, _, ybar = random_problem(rng, 4, 8)
    a[:, 3] = 0.0
    geom = UlaGeometry(8)
    steering = np.zeros((2, 8, 30), dtype=complex)
    steering[0, :, :20] = build_dictionary(build_grid(20), geom)
    steering[1] = build_dictionary(build_grid(30), geom)
    scen = Scenario(geometry=geom, true_doas=(0.2,), n_snapshots=10,
                    snr_db=5.0)
    stat = snapshot_mean(simulate_snapshots(scen, seed=5)).mean
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, max_iterations=50)
    with np.errstate(divide="raise", invalid="raise"):
        dense = solve_stack(a[None], ybar[None], cfg, keep_history=True)
        padded = solve_stack(steering, np.broadcast_to(stat, (2, 8)), cfg,
                             keep_history=True)
    for (final_pv, mean, variance, _, traces), zero in (
            (dense, (0, slice(3, 4))), (padded, (0, slice(20, None)))):
        assert not final_pv[zero].any()
        assert not mean[zero].any() and not variance[zero].any()
        assert all(np.isfinite(row).all() and not row[zero[1]].any()
                   for row in traces.histories[zero[0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_mean_raises(bad):
    """A non-finite statistic is refused before the first sweep."""
    a = build_dictionary(build_grid(20), UlaGeometry(8))
    ybar = np.ones(8, dtype=complex)
    ybar[2] = bad
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            solve_stack(a[None], ybar[None], cfg)


def test_overflowing_update_raises_numerical_error():
    """A MacKay update that overflows from finite inputs is a numerical
    failure (a flagged trial) naming its problem, not a ValueError."""
    d = build_dictionary(build_grid(180), UlaGeometry(16))
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1)
    with np.errstate(over="ignore"):
        with pytest.raises(SolverNumericalError) as info:
            solve(d, 1e200 * d[:, 40], cfg)
        assert info.value.problems == (0,)
        assert "not finite" in info.value.reason
        with pytest.raises(SolverNumericalError) as info:
            solve_stack(np.stack([d, d]),
                        np.stack([d[:, 3], 1e200 * d[:, 40]]), cfg)
        assert info.value.problems == (1,)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_tiny_noise_floor_on_steering_raises_numerical_error(seed):
    """A noise floor far below ``eps n^2 sum(pv)`` breaks the solve cleanly.

    Once the variance gathers on two atoms, ``Q`` grows like ``L / sigma2``
    off their span and the Toeplitz gain of a weak atom rounds to 0 or
    below.  Its update would be negative or infinite; the solve must raise
    SolverNumericalError (exit 3, a flagged trial), not a ValueError.
    """
    d = build_dictionary(build_grid(180), UlaGeometry(16))
    rng = np.random.default_rng(seed)
    atoms = rng.choice(180, size=2, replace=False)
    ybar = d[:, atoms] @ (rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2))
    cfg = SolverConfig(sigma2=1e-14, n_snapshots=1, max_iterations=200)
    with np.errstate(all="ignore"):
        with pytest.raises(SolverNumericalError):
            solve(d, ybar, cfg)


def test_stack_failure_names_problem_after_others_retire():
    """A failure names the problem's index in the stack passed in, also
    after earlier problems have left the active stack."""
    d = build_dictionary(build_grid(180), UlaGeometry(16))
    rng = np.random.default_rng(0)
    atoms = rng.choice(180, size=2, replace=False)
    ybar = d[:, atoms] @ (rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2))
    means = np.stack([np.zeros(16, dtype=complex), ybar])
    cfg = SolverConfig(sigma2=1e-14, n_snapshots=1, max_iterations=200)
    with np.errstate(all="ignore"):
        with pytest.raises(SolverNumericalError) as info:
            solve_stack(np.stack([d, d]), means, cfg)
    assert info.value.iteration > 1
    assert info.value.problems == (1,)


def _primal_moments(matrix, ybar, pv, scale):
    """Posterior moments from the atom-sized primal system.

    The posterior covariance is ``D (I + D A^H A D / s)^-1 D`` with
    ``D = diag(sqrt(pv))``: an m x m Cholesky factorization, a route the
    solver never takes.  The variances are ``pv`` times the squared column
    norms of the inverse factor, formed a block of columns at a time.
    """
    root = np.sqrt(pv)
    weighted = matrix * root
    system = weighted.conj().T @ weighted / scale
    system[np.diag_indices_from(system)] += 1.0
    factor = scipy.linalg.cholesky(system, lower=True, overwrite_a=True)
    mean = root * scipy.linalg.cho_solve(
        (factor, True), weighted.conj().T @ ybar / scale)
    norms = np.empty(pv.size)
    for start in range(0, pv.size, 500):
        stop = min(start + 500, pv.size)
        block = np.zeros((pv.size, stop - start), dtype=complex)
        block[np.arange(start, stop), np.arange(stop - start)] = 1.0
        inverse = scipy.linalg.solve_triangular(factor, block, lower=True)
        norms[start:stop] = np.sum(np.abs(inverse) ** 2, axis=0)
    return mean, pv * norms


def _gap(values, reference):
    """Largest deviation relative to the largest reference magnitude."""
    return np.abs(values - reference).max() / np.abs(reference).max()


def _check_against_references(matrix, ybar, pv, mean, variance, cfg):
    state = NuvState(prior_variances=pv)
    dual = posterior_moments(matrix, state, precision_matrix(matrix, state, cfg),
                             ybar)
    primal_mean, primal_variance = _primal_moments(matrix, ybar, pv,
                                                   cfg.noise_scale)
    assert _gap(mean, dual.mean) <= 1e-9
    assert _gap(variance, dual.variance) <= 1e-9
    assert _gap(mean, primal_mean) <= 1e-9
    assert _gap(variance, primal_variance) <= 1e-9


_TABLE = load_default_sigma2_table()


@pytest.mark.parametrize("sigma2", sorted(set(_TABLE.sigma2s)))
def test_steering_solve_matches_reference_moments(sigma2):
    """A 16x3000 flat solve at each noise floor of the packaged table."""
    geom = UlaGeometry(16)
    d = build_dictionary(build_grid(3000), geom)
    snr_db = _TABLE.snrs_db[_TABLE.sigma2s.index(sigma2)]
    scen = Scenario(geometry=geom, true_doas=(math.radians(10.3),),
                    n_snapshots=100, snr_db=snr_db)
    stat = snapshot_mean(simulate_snapshots(scen, seed=1))
    cfg = SolverConfig(sigma2=sigma2, n_snapshots=100, init=1.0)
    state, moments, _ = solve(d, stat, cfg)
    _check_against_references(d, stat.mean, state.prior_variances,
                              moments.mean, moments.variance, cfg)


def test_padded_edge_band_stack_matches_reference_moments():
    """Bands near +90 deg run past the domain, where their columns are zero."""
    geom = UlaGeometry(16)
    theta, fine = math.radians(89.6), math.radians(0.01)
    plan = plan_subbands(theta - 3 * fine, theta + 3 * fine, fine,
                         math.radians(0.5))
    matrices = band_stack(plan, geom)
    live = matrices.any(axis=1)
    assert len(set(live.sum(axis=1))) > 1
    scen = Scenario(geometry=geom, true_doas=(theta,), n_snapshots=40,
                    snr_db=10.0)
    ybar = snapshot_mean(simulate_snapshots(scen, seed=4)).mean
    cfg = SolverConfig(sigma2=0.7, n_snapshots=40, init=1.0)
    final_pv, mean, variance, _, _ = solve_stack(
        matrices, np.broadcast_to(ybar, (len(live), 16)), cfg)
    for i, cols in enumerate(live):
        assert not mean[i, ~cols].any() and not variance[i, ~cols].any()
        _check_against_references(matrices[i][:, cols], ybar,
                                  final_pv[i, cols], mean[i, cols],
                                  variance[i, cols], cfg)


def test_noiseless_long_solve_matches_primal_moments():
    """Criterion 04's first four trials: sigma2 1e-3, L = 1, run to convergence.

    One atom carries the source and its ``pv * gain`` sits next to 1, where
    the variance ``pv (1 - pv * gain)`` cancels.  Without recomputing such
    gains by whitening, the Toeplitz sweep missed the primal variance by up
    to 1e-7 on these trials.  The reference ``precision_matrix`` route
    cancels too and is itself up to about 1e-8 off the primal variance
    here, so the variance is held to the primal alone.
    """
    grid = build_grid(180)
    d = build_dictionary(grid, UlaGeometry(16))
    cfg = SolverConfig(sigma2=1e-3, n_snapshots=1, max_iterations=2000,
                       tolerance=1e-10, init=1.0)
    rng = np.random.default_rng(4)
    for _ in range(4):
        index = int(rng.integers(0, 180))
        amplitude = (rng.standard_normal()
                     + 1j * rng.standard_normal()) / np.sqrt(2)
        ybar = amplitude * d[:, index]
        state, moments, trace = solve(d, ybar, cfg)
        assert trace.converged
        dual = posterior_moments(d, state, precision_matrix(d, state, cfg),
                                 ybar)
        primal_mean, primal_variance = _primal_moments(
            d, ybar, state.prior_variances, cfg.noise_scale)
        assert _gap(moments.mean, dual.mean) <= 1e-9
        assert _gap(moments.mean, primal_mean) <= 1e-9
        assert _gap(moments.variance, primal_variance) <= 1e-9


def test_noiseless_long_solve_off_steering_matches_primal_moments():
    """Criterion 04's settings on a dictionary the Toeplitz sweep refuses.

    Reversing the rows of the 16x180 steering matrix keeps the problem's
    conditioning but starts every column at ``z^15``, so these solves run
    the dense sweep into the same ill-conditioned end states as
    :func:`test_noiseless_long_solve_matches_primal_moments`.
    """
    matrix = build_dictionary(build_grid(180), UlaGeometry(16))[::-1]
    assert not _is_ula_stack(matrix[None])
    cfg = SolverConfig(sigma2=1e-3, n_snapshots=1, max_iterations=2000,
                       tolerance=1e-10, init=1.0)
    rng = np.random.default_rng(4)
    for _ in range(4):
        index = int(rng.integers(0, 180))
        amplitude = (rng.standard_normal()
                     + 1j * rng.standard_normal()) / np.sqrt(2)
        ybar = amplitude * matrix[:, index]
        state, moments, _ = solve(matrix, ybar, cfg)
        primal_mean, primal_variance = _primal_moments(
            matrix, ybar, state.prior_variances, cfg.noise_scale)
        assert _gap(moments.mean, primal_mean) <= 1e-9
        assert _gap(moments.variance, primal_variance) <= 1e-9


def test_ula_detection_accepts_steering_and_padding():
    a = steering_matrix(np.radians([-89.0, -10.0, 0.0, 33.3]), UlaGeometry(16))
    padded = np.concatenate([a, np.zeros((16, 3))], axis=1)
    assert _is_ula_stack(a[None])
    assert _is_ula_stack(np.stack([padded, np.roll(padded, 2, axis=1)]))
    assert _is_ula_stack(np.ones((1, 2, 1), dtype=complex))


def _not_steering():
    a = steering_matrix(np.radians(np.linspace(-60.0, 60.0, 40)),
                        UlaGeometry(8))
    scaled = a.copy()
    scaled[5] *= 1.5
    # Rows z^d with |z| = 1.02 follow the recursion but are off the unit
    # circle, so A diag(pv) A^H is not Toeplitz.
    off_circle = a * 1.02 ** np.arange(8)[:, None]
    rng = np.random.default_rng(9)
    random, _, _ = random_problem(rng, 8, 40)
    return {"random": random, "rows_reversed": a[::-1], "row_scaled": scaled,
            "off_circle": off_circle}


@pytest.mark.parametrize("kind", ["random", "rows_reversed", "row_scaled",
                                  "off_circle"])
def test_ula_detection_rejects_other_dictionaries(kind):
    """Dictionaries that are not steering matrices take the whitening sweep."""
    matrix = _not_steering()[kind]
    assert not _is_ula_stack(matrix[None])
    rng = np.random.default_rng(10)
    ybar = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    cfg = SolverConfig(sigma2=0.3, n_snapshots=10, max_iterations=100,
                       init=1.0)
    state, moments, _ = solve(matrix, ybar, cfg)
    _check_against_references(matrix, ybar, state.prior_variances,
                              moments.mean, moments.variance, cfg)



@pytest.mark.parametrize("kind", ["random", "rows_reversed", "row_scaled",
                                  "off_circle", "steering"])
def test_undeclared_stacks_are_checked_for_their_branch(monkeypatch, kind):
    """With ``steering=None`` the check picks the sweep: only the steering
    dictionary takes the Toeplitz branch."""
    matrices = {**_not_steering(), "steering": steering_matrix(
        np.radians(np.linspace(-60.0, 60.0, 40)), UlaGeometry(8))}
    branches = []
    moments = solver_mod._moments

    def recording(transposed, conj_means, steering, *args):
        branches.append(steering)
        return moments(transposed, conj_means, steering, *args)

    monkeypatch.setattr(solver_mod, "_moments", recording)
    cfg = SolverConfig(sigma2=0.3, n_snapshots=10, max_iterations=100)
    solve(matrices[kind], np.ones(8, dtype=complex), cfg)
    assert branches and set(branches) == {kind == "steering"}


@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("m", [180, 1801, 3000])
def test_full_azimuth_dictionaries_pass_the_ula_check(m, n):
    """Their solves pass ``steering=True``: the check would say the same,
    and row 0 marks the same live columns as a scan of every entry."""
    stack = full_azimuth_dictionary(m, n)[1][None]
    assert _is_ula_stack(stack)
    assert np.array_equal(stack[:, 0] != 0, stack.any(axis=1))


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("lo_deg, hi_deg", [(-90.0, -89.9), (89.9, 90.0)])
def test_edge_band_stacks_pass_the_ula_check(lo_deg, hi_deg, n):
    plan = plan_subbands(np.radians(lo_deg), np.radians(hi_deg),
                         np.radians(0.01), np.radians(0.5))
    stack = band_stack(plan, UlaGeometry(n))
    assert not stack.any(axis=1).all()
    assert _is_ula_stack(stack)
    assert np.array_equal(stack[:, 0] != 0, stack.any(axis=1))


def _producers():
    """(module, solver entry it calls, run) for each steering-stack producer."""
    theta = np.radians(20.0)
    scenario = Scenario(geometry=UlaGeometry(16), true_doas=(theta,),
                        n_snapshots=100, snr_db=0.0)
    batch = simulate_snapshots(scenario, 3)
    plan = plan_subbands(theta - np.radians(0.05), theta + np.radians(0.05),
                         np.radians(0.01), np.radians(0.5))
    cfg = SolverConfig(sigma2=1.0, n_snapshots=100)
    flat_config = ScenarioConfig(method="nuv_ssr_flat", snr_db=0.0)
    return {
        "nuv_ssr_flat": (harness_mod, "solve", lambda: harness_mod._nuv_ssr_flat(
            batch, flat_config, 0.0).values),
        "superres_scan": (subbands_mod, "solve_stack", lambda: superres_scan(
            plan, snapshot_mean(batch), cfg, UlaGeometry(16)).values),
    }


@pytest.mark.parametrize("producer", ["nuv_ssr_flat", "superres_scan"])
def test_producers_declare_steering_and_skip_the_check(monkeypatch, producer):
    """Each producer's result is the one a ``steering=None`` solve of the
    same stacks gives, bit for bit, and it never runs the check."""
    module, name, run = _producers()[producer]
    original = getattr(module, name)
    declared = []

    def undeclared(*args, steering=None):
        declared.append(steering)
        return original(*args)

    monkeypatch.setattr(module, name, undeclared)
    reference = run()
    assert declared and all(flag is True for flag in declared)
    monkeypatch.setattr(module, name, original)

    def refuse(matrices):
        raise AssertionError("a declared steering stack was checked")

    monkeypatch.setattr(solver_mod, "_is_ula_stack", refuse)
    assert run().tobytes() == reference.tobytes()

def test_spectrum_is_elementwise_modulus():
    grid = build_grid(4)
    mom = PosteriorMoments(mean=np.array([0, 3 + 4j, 0, 0]),
                           variance=np.zeros(4))
    spec = spectrum(mom, grid)
    npt.assert_array_equal(spec.values, [0, 5, 0, 0])


def test_spectrum_rejects_length_mismatch():
    mom = PosteriorMoments(mean=np.zeros(3), variance=np.zeros(3))
    with pytest.raises(ValueError):
        spectrum(mom, build_grid(4))


def make_spectrum(values):
    return Spectrum(values=np.asarray(values, dtype=float),
                    grid=build_grid(len(values)))


def test_select_peaks_single_peak():
    sel = select_peaks(make_spectrum([0, 1, 5, 1, 0]), 1)
    npt.assert_array_equal(sel.indices, [2])
    assert not sel.fallback_filled


def test_select_peaks_fixed_two():
    sel = select_peaks(make_spectrum([0, 5, 0, 3, 0]), 2)
    npt.assert_array_equal(sel.indices, [1, 3])


def test_select_peaks_plateau_falls_back_to_lower_index():
    sel = select_peaks(make_spectrum([0, 5, 5, 0]), 1)
    npt.assert_array_equal(sel.indices, [1])
    assert sel.fallback_filled


def test_select_peaks_rejects_oversized_k():
    with pytest.raises(ValueError):
        select_peaks(make_spectrum([1, 0, 2]), 4)


def test_select_peaks_rejects_k_below_one():
    with pytest.raises(ValueError):
        select_peaks(make_spectrum([1, 0, 2]), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma2=0.0, n_snapshots=1)
    with pytest.raises(ValueError):
        SolverConfig(sigma2=1.0, n_snapshots=0)
    with pytest.raises(ValueError):
        SolverConfig(sigma2=1.0, n_snapshots=1, tolerance=0.0)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        SolverConfig(sigma2=math.nan, n_snapshots=1)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        SolverConfig(sigma2=1.0, n_snapshots=1, tolerance=math.nan)
    with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
        SolverConfig(sigma2=math.inf, n_snapshots=1)
    for init in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="init must be positive and finite"):
            SolverConfig(sigma2=1.0, n_snapshots=1, init=init)


def test_sweep_cost_script_runs(monkeypatch, capsys):
    """``scripts/sweep_cost.py`` drives the private sweep kernel."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "sweep_cost.py"
    spec = importlib.util.spec_from_file_location("sweep_cost", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["sweep_cost.py", "--sweeps", "1",
                                      "--rounds", "1", "--warmup", "1"])
    script.main()
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["16x3000", "16x180", "22x16x101", "12x16x101"]
