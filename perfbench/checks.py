"""Output checks made apart from the program.

Each check either recomputes a quantity by a route the program does not take
(sorting instead of a permutation search, a dense primal posterior instead
of the solver's sensor-sized factorization) or tests a property every
correct output must have.  None compares against stored output.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import scipy.linalg

# Tolerances: matched errors are the same float subtractions, so only
# rounding may separate them; the oracle is a different factorization of an
# m x m system, held to the same 1e-9 as the acceptance oracle.
MATCH_TOL_DEG = 1e-9
AGGREGATE_RTOL = 1e-9
ORACLE_RTOL = 1e-9


def sorted_errors(estimates_deg, truth_deg):
    """Errors of the optimal 1-D assignment: both vectors sorted, in truth order."""
    return [e - t for e, t in zip(sorted(estimates_deg), sorted(truth_deg))]


def has_estimates(record, k_sources: int) -> bool:
    """True when a trial returned k finite angles."""
    return (record is not None and record.estimates_deg is not None
            and len(record.estimates_deg) == k_sources
            and all(math.isfinite(a) for a in record.estimates_deg))


def accuracy(errors):
    """(median absolute error, RMSE) of a pooled error list."""
    return (statistics.median(abs(e) for e in errors),
            math.sqrt(math.fsum(e * e for e in errors) / len(errors)))


def trial_problems(record, k_sources: int, workload: str, snr_db: float):
    """Reasons one trial record counts as failed; empty when it passes."""
    if record.estimates_deg is None:
        return [f"no estimate, flags {list(record.flags)}"]
    est = list(record.estimates_deg)
    problems = []
    if len(est) != k_sources:
        problems.append(f"{len(est)} estimates for {k_sources} sources")
    if not all(math.isfinite(a) and -90.0 <= a < 90.0 for a in est):
        problems.append(f"estimates {est} not finite in [-90, 90)")
    if est != sorted(est):
        problems.append(f"estimates {est} not sorted")
    if problems:
        return problems
    errors = sorted_errors(est, record.true_doas_deg)
    if any(abs(a - b) > MATCH_TOL_DEG
           for a, b in zip(errors, record.matched_errors_deg)):
        problems.append(f"matched errors {list(record.matched_errors_deg)} "
                        f"differ from sorted matching {errors}")
    if workload == "single_source_scan" and max(abs(e) for e in errors) > 1.0:
        problems.append(f"error {errors} beyond 1 deg")
    if workload == "two_source_scan" and not est[0] < 0.0 < est[1]:
        problems.append(f"pair not resolved about 0 deg: {est}")
    if (workload == "flat_and_baselines" and record.method in ("music", "root_music")
            and snr_db >= 15.0 and max(abs(e) for e in errors) > 1.0):
        problems.append(f"{record.method} error {errors} beyond 1 deg at {snr_db} dB")
    return problems


def report_problems(loaded_reports):
    """Aggregates recomputed by ``load_report`` against the benchmark's own."""
    problems = []
    for report in loaded_reports:
        errors = [e for r in report.records if r.estimates_deg is not None
                  for e in sorted_errors(r.estimates_deg, r.true_doas_deg)]
        if not errors:
            continue
        median, rmse = accuracy(errors)
        agg = report.aggregates
        if not (math.isclose(agg.median_abs_error_deg, median, rel_tol=AGGREGATE_RTOL)
                and math.isclose(agg.rmse_deg, rmse, rel_tol=AGGREGATE_RTOL)):
            problems.append(
                f"{report.method} @ {report.snr_db} dB: report median/rmse "
                f"{agg.median_abs_error_deg}/{agg.rmse_deg}, own {median}/{rmse}")
    return problems


def oracle_problems(solve_args, solve_result):
    """Posterior moments of one solve against a dense primal oracle.

    At the returned prior variances ``pv`` the posterior covariance is
    ``(A^H A / s + diag(1/pv))^-1`` with ``s = sigma2 / L``.  It is formed
    here in the scaled form ``D (I + D A^H A D / s)^-1 D`` with
    ``D = diag(sqrt(pv))``, an m x m Cholesky factorization, which stays
    well conditioned when some variances are tiny.
    """
    dictionary, stat, config = solve_args[:3]
    state, moments, _ = solve_result
    matrix = np.asarray(getattr(dictionary, "matrix", dictionary), dtype=complex)
    ybar = np.asarray(getattr(stat, "mean", stat), dtype=complex)
    pv = state.prior_variances
    scale = config.sigma2 / config.n_snapshots
    root = np.sqrt(pv)
    weighted = matrix * root
    system = weighted.conj().T @ weighted / scale
    system[np.diag_indices_from(system)] += 1.0
    factor = scipy.linalg.cholesky(system, lower=True)
    inverse_factor = scipy.linalg.solve_triangular(
        factor, np.eye(pv.size, dtype=complex), lower=True)
    rhs = weighted.conj().T @ ybar / scale
    mean = root * scipy.linalg.cho_solve((factor, True), rhs)
    variance = pv * np.sum(np.abs(inverse_factor) ** 2, axis=0)
    mean_err = np.abs(moments.mean - mean).max() / np.abs(mean).max()
    var_err = np.abs(moments.variance - variance).max() / variance.max()
    if max(mean_err, var_err) > ORACLE_RTOL:
        return [f"solve moments off the dense oracle: mean {mean_err:.2e}, "
                f"variance {var_err:.2e} (limit {ORACLE_RTOL:.0e})"]
    return []
