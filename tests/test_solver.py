import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

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
from nuvdoa.solver import (
    NuvState,
    PeakRule,
    PosteriorMoments,
    SolverConfig,
    SolverNumericalError,
    Spectrum,
    constant_init,
    em_step,
    fixed_k,
    initial_state,
    posterior_moments,
    precision_matrix,
    random_uniform_init,
    select_peaks,
    solve,
    solve_stack,
    spectrum,
    threshold,
)


def random_problem(rng, n, m):
    a = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    pv = rng.uniform(0.1, 2.0, size=m)
    ybar = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, pv, ybar


def test_precision_zero_variances_is_scaled_identity():
    a = steering_matrix(np.radians([-10.0, 0.0, 25.0]), UlaGeometry(4))
    cfg = SolverConfig(sigma2=2.0, n_snapshots=8, init=constant_init(1.0))
    state = NuvState(prior_variances=np.zeros(3))
    w = precision_matrix(a, state, cfg)
    npt.assert_allclose(w, (8 / 2.0) * np.eye(4), atol=1e-12)


def test_precision_inverts_the_observation_covariance():
    rng = np.random.default_rng(0)
    a, pv, _ = random_problem(rng, 2, 3)
    cfg = SolverConfig(sigma2=0.7, n_snapshots=5, init=constant_init(1.0))
    state = NuvState(prior_variances=pv)
    w = precision_matrix(a, state, cfg)
    cov = (a * pv) @ a.conj().T + cfg.noise_scale * np.eye(2)
    npt.assert_allclose(w @ cov, np.eye(2), atol=1e-10)


def test_precision_scalar_case():
    cfg = SolverConfig(sigma2=3.0, n_snapshots=3, init=constant_init(1.0))
    state = NuvState(prior_variances=np.array([3.0]))
    w = precision_matrix(np.array([[1.0 + 0j]]), state, cfg)
    assert w[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_precision_raises_on_nonfinite_covariance():
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=constant_init(1.0))
    state = NuvState(prior_variances=np.full(3, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverNumericalError):
            precision_matrix(np.ones((2, 3), dtype=complex), state, cfg)


def test_moments_zero_variances_annihilate():
    rng = np.random.default_rng(1)
    a, _, ybar = random_problem(rng, 3, 5)
    cfg = SolverConfig(sigma2=1.0, n_snapshots=4, init=constant_init(1.0))
    state = NuvState(prior_variances=np.zeros(5))
    w = precision_matrix(a, state, cfg)
    mom = posterior_moments(a, state, w, ybar)
    npt.assert_array_equal(mom.mean, np.zeros(5))
    npt.assert_array_equal(mom.variance, np.zeros(5))


def test_moments_scalar_case():
    # a=1, pv=3, noise scale 1, ybar=2: mean = 3*(1/4)*2, var = 3 - 9/4.
    cfg = SolverConfig(sigma2=4.0, n_snapshots=4, init=constant_init(1.0))
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
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, init=constant_init(1.0))
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
                           init=constant_init(1.0))
        state = NuvState(prior_variances=pv)
        w = precision_matrix(a, state, cfg)
        mom = posterior_moments(a, state, w, ybar)
        assert np.all(mom.variance <= pv + 1e-10)
        assert np.all(mom.variance >= 0)


def test_em_step_zero_state_is_fixed_point():
    rng = np.random.default_rng(4)
    a, _, ybar = random_problem(rng, 3, 4)
    cfg = SolverConfig(sigma2=1.0, n_snapshots=2, init=constant_init(1.0))
    state = NuvState(prior_variances=np.zeros(4))
    new = em_step(a, state, ybar, cfg)
    npt.assert_array_equal(new.prior_variances, np.zeros(4))
    assert new.iteration == 1


def test_em_scalar_recursion_converges_to_analytic_fixed_point():
    # For a unit-modulus single atom the fixed point is |ybar|^2 - sigma2/L.
    a = np.array([[1.0 + 0j]])
    ybar = np.array([2.0 + 0j])
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=constant_init(1.0),
                       max_iterations=600)
    state = NuvState(prior_variances=np.array([0.7]))
    for _ in range(600):
        state = em_step(a, state, ybar, cfg)
    assert state.prior_variances[0] == pytest.approx(3.0, abs=1e-12)


def test_em_scalar_noise_dominated_decreases_toward_zero():
    a = np.array([[1.0 + 0j]])
    ybar = np.array([0.5 + 0j])
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=constant_init(1.0))
    state = NuvState(prior_variances=np.array([1.0]))
    previous = 1.0
    for _ in range(50):
        state = em_step(a, state, ybar, cfg)
        assert state.prior_variances[0] < previous
        previous = state.prior_variances[0]
    assert previous < 0.15


def test_solve_zero_statistic_collapses():
    d = build_dictionary(build_grid(90), UlaGeometry(8))
    cfg = SolverConfig(sigma2=1.0, n_snapshots=10, init=constant_init(1.0))
    state, mom, trace = solve(d, np.zeros(8, dtype=complex), cfg)
    npt.assert_array_equal(np.abs(mom.mean), np.zeros(90))
    assert state.prior_variances.max() < 1e-3
    assert trace.converged


def test_solve_noiseless_on_grid_source_argmax():
    geom = UlaGeometry(16)
    grid = build_grid(180)
    d = build_dictionary(grid, geom)
    cfg = SolverConfig(sigma2=1e-4, n_snapshots=1, init=constant_init(1.0))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        idx = int(rng.integers(0, 180))
        s = rng.standard_normal() + 1j * rng.standard_normal()
        ybar = s * d.matrix[:, idx]
        _, mom, _ = solve(d, ybar, cfg)
        assert int(np.argmax(np.abs(mom.mean))) == idx


def test_solve_depends_on_noise_scale_only_through_ratio():
    """Doubling sigma2 and the snapshot count together changes nothing."""
    rng = np.random.default_rng(7)
    a, _, ybar = random_problem(rng, 4, 12)
    base = SolverConfig(sigma2=0.8, n_snapshots=5, max_iterations=40,
                        init=constant_init(1.0))
    doubled = replace(base, sigma2=1.6, n_snapshots=10)
    _, _, trace_a = solve(a, ybar, base, keep_history=True)
    _, _, trace_b = solve(a, ybar, doubled, keep_history=True)
    assert len(trace_a.history) == len(trace_b.history)
    for hist_a, hist_b in zip(trace_a.history, trace_b.history):
        npt.assert_array_equal(hist_a, hist_b)


def test_solve_history_follows_hand_iterated_sweeps():
    """solve's iterates are em_step's, and the reference moments' update."""
    geom = UlaGeometry(16)
    d = build_dictionary(build_grid(180), geom)
    scen = Scenario(geometry=geom, true_doas=(0.3, -0.5), n_snapshots=10,
                    snr_db=5.0)
    stat = snapshot_mean(simulate_snapshots(scen, seed=3))
    cfg = SolverConfig(sigma2=0.5, n_snapshots=10, max_iterations=60,
                       tolerance=1e-300)
    state, moments, trace = solve(d, stat, cfg, keep_history=True)
    assert len(trace.history) == 61
    stepped = initial_state(180, cfg.init)
    reference = stepped
    for solved in trace.history[1:]:
        stepped = em_step(d, stepped, stat, cfg)
        w = precision_matrix(d, reference, cfg)
        mom = posterior_moments(d, reference, w, stat)
        reference = NuvState(np.abs(mom.mean) ** 2 + mom.variance,
                             reference.iteration + 1)
        scale = np.abs(solved).max()
        assert np.abs(stepped.prior_variances - solved).max() <= 1e-12 * scale
        assert np.abs(reference.prior_variances - solved).max() <= 1e-12 * scale
    final = posterior_moments(d, state, precision_matrix(d, state, cfg), stat)
    npt.assert_allclose(moments.mean, final.mean,
                        rtol=0, atol=1e-12 * np.abs(final.mean).max())
    npt.assert_allclose(moments.variance, final.variance,
                        rtol=0, atol=1e-12 * final.variance.max())


def test_solve_raises_on_nonfinite_dictionary():
    a = np.ones((2, 3), dtype=complex)
    a[1, 2] = np.inf
    cfg = SolverConfig(sigma2=1.0, n_snapshots=1, init=constant_init(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverNumericalError) as info:
            solve(a, np.ones(2, dtype=complex), cfg)
    assert info.value.iteration == 0


def test_solve_raises_on_failed_factorization():
    # Two identical sensor rows and a noise floor lost to rounding leave a
    # singular covariance in floating point.
    cfg = SolverConfig(sigma2=1e-30, n_snapshots=1, init=constant_init(1.0))
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
                       init=constant_init(1.0))
    _, _, trace = solve(d, stat, cfg)
    assert trace.iterations == 2
    assert not trace.converged


def test_stack_matches_problems_solved_alone():
    """Problems leaving the stack at different sweeps keep their own results."""
    rng = np.random.default_rng(8)
    problems = [random_problem(rng, 4, 8) for _ in range(4)]
    cfg = SolverConfig(sigma2=0.6, n_snapshots=3, max_iterations=400,
                       tolerance=1e-4, init=random_uniform_init(2))
    matrices = np.stack([a for a, _, _ in problems])
    means = np.stack([ybar for _, _, ybar in problems])
    pv = np.stack([initial_state(8, cfg.init).prior_variances] * 4)
    final_pv, mean, variance, excursion, traces = solve_stack(
        matrices, means, pv, cfg, keep_history=True)
    assert len({trace.iterations for trace in traces}) > 1
    for i, (a, _, ybar) in enumerate(problems):
        state, moments, trace = solve(a, ybar, cfg, keep_history=True)
        npt.assert_array_equal(final_pv[i], state.prior_variances)
        npt.assert_array_equal(mean[i], moments.mean)
        npt.assert_array_equal(variance[i], moments.variance)
        assert excursion[i] == moments.clamp_excursion
        assert traces[i].iterations == trace.iterations
        assert traces[i].converged == trace.converged
        assert traces[i].final_change == trace.final_change
        assert traces[i].worst_clamp_excursion == trace.worst_clamp_excursion
        assert len(traces[i].history) == trace.iterations + 1
        for left, right in zip(traces[i].history, trace.history):
            npt.assert_array_equal(left, right)


def test_initial_state_random_bounds_and_determinism():
    state = initial_state(1000, random_uniform_init(seed=3))
    again = initial_state(1000, random_uniform_init(seed=3))
    npt.assert_array_equal(state.prior_variances, again.prior_variances)
    assert np.all(state.prior_variances > 0.5)
    assert np.all(state.prior_variances <= 1.5)


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
    sel = select_peaks(make_spectrum([0, 1, 5, 1, 0]), fixed_k(1))
    npt.assert_array_equal(sel.indices, [2])
    assert not sel.fallback_filled


def test_select_peaks_threshold():
    sel = select_peaks(make_spectrum([0, 5, 0, 3, 0]), threshold(4.0))
    npt.assert_array_equal(sel.indices, [1])


def test_select_peaks_fixed_two():
    sel = select_peaks(make_spectrum([0, 5, 0, 3, 0]), fixed_k(2))
    npt.assert_array_equal(sel.indices, [1, 3])


def test_select_peaks_plateau_falls_back_to_lower_index():
    sel = select_peaks(make_spectrum([0, 5, 5, 0]), fixed_k(1))
    npt.assert_array_equal(sel.indices, [1])
    assert sel.fallback_filled


def test_select_peaks_rejects_oversized_k():
    with pytest.raises(ValueError):
        select_peaks(make_spectrum([1, 0, 2]), fixed_k(4))


def test_peak_rule_validation():
    with pytest.raises(ValueError):
        PeakRule(kind="nonsense")
    with pytest.raises(ValueError):
        fixed_k(0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma2=0.0, n_snapshots=1)
    with pytest.raises(ValueError):
        SolverConfig(sigma2=1.0, n_snapshots=0)
    with pytest.raises(ValueError):
        SolverConfig(sigma2=1.0, n_snapshots=1, tolerance=0.0)
