"""Sparse spectrum recovery from the snapshot mean via unknown prior variances.

Each grid atom gets a zero-mean complex Gaussian prior whose variance is a
free parameter; type-II maximum likelihood over those variances is run by
fixed-point iteration.  One sweep computes the posterior mean and variance
of the atom amplitudes under the current prior variances, then replaces each
prior variance by MacKay's update ``|mean|^2 / (1 - variance / pv)``
(Tipping, JMLR 2001), computed as ``pv |a^H Q ybar|^2 / gain`` from the
sweep's own gain ``a^H Q a``.  It has the fixed points of the EM update
``|mean|^2 + variance``, since ``pv - variance = |mean|^2`` at a fixed
point of either, and reaches them in a few sweeps where EM creeps: on the
shrinkage branch (noise floor above the signal) EM approaches zero
sublinearly, while MacKay's update contracts geometrically.  Atoms that
the data does not support collapse to zero variance, which is what
produces a sparse angular spectrum.

All computations run on the snapshot mean only; the snapshot count enters
through the noise scale ``sigma2 / n_snapshots``.  The loop sets its own
start: every atom at prior variance 1, and every all-zero column (a
sub-band's lattice point beyond +-pi/2) at zero, where it stays.

Every sweep runs one flow on a stack of problems: build the sensor-sized
Gram matrix ``G = A diag(pv) A^H + (sigma2/L) I``, factor it, and read the
posterior mean and the gains ``a^H G^-1 a`` off its inverse.  Only two
steps depend on the dictionary.  When every column is a half-wavelength
ULA steering vector ``a_d = z^d`` with ``|z| = 1`` (zero columns
allowed), ``G`` is Hermitian Toeplitz with first column ``r = A pv`` and
each gain is a trigonometric polynomial in the diagonal sums of ``G^-1``
(the identity behind root-MUSIC), so those two steps cost ``O(n m)``
rather than ``O(n^2 m)``.  The code that builds a steering stack says so
(``steering=True``); a stack of unknown origin is checked entry by entry,
once per solve.  Any other dictionary builds ``G`` by the dense product
and whitens every atom for its gain.

A sweep of the loop computes only what the loop reads: the mean, the
gains and the worst negative variance excursion, then the update, which
is checked once for values outside ``[0, inf)``.  The clamped variances
and the trace record are made once per solve, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import zpotrf, ztrtri

from .arrays import AngleGrid, SufficientStatistic


class SolverNumericalError(RuntimeError):
    """Raised when a precision-matrix factorization breaks down, or a live
    atom's gain rounds to zero or below.

    ``problems`` holds the stack indices of the failing problems when a
    stack of problems was being solved; ``reason`` is the message without
    the iteration.
    """

    def __init__(self, message: str, iteration: int, problems=()):
        super().__init__(f"{message} (iteration {iteration})")
        self.reason = message
        self.iteration = iteration
        self.problems = tuple(int(p) for p in problems)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of the variance iteration.

    ``sigma2`` is the noise-floor tuning parameter; together with the
    snapshot count it sets the regularization ``sigma2 / n_snapshots``.
    """

    sigma2: float
    n_snapshots: int
    max_iterations: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    @property
    def noise_scale(self) -> float:
        return self.sigma2 / self.n_snapshots


@dataclass(frozen=True)
class NuvState:
    """Per-atom prior variances at some iteration of the fixed point."""

    prior_variances: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        pv = np.asarray(self.prior_variances, dtype=float)
        if pv.ndim != 1:
            raise ValueError("prior variances must be a vector")
        if not np.isfinite(pv).all() or (pv < 0).any():
            raise ValueError("prior variances must be finite and nonnegative")
        object.__setattr__(self, "prior_variances", pv)


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean and (clamped) marginal variance of the atom amplitudes.

    ``clamp_excursion`` records how far below zero the worst raw variance
    went before clamping; it is zero when no clamping happened.
    """

    mean: np.ndarray
    variance: np.ndarray
    clamp_excursion: float = 0.0


@dataclass(frozen=True)
class Spectrum:
    """Magnitudes of the posterior mean over an angle grid."""

    values: np.ndarray
    grid: AngleGrid


@dataclass(frozen=True)
class SolveTrace:
    """Diagnostics of one solve run."""

    iterations: int
    final_change: float
    converged: bool
    worst_clamp_excursion: float
    history: tuple = ()


@dataclass(frozen=True)
class StackTrace:
    """Diagnostics of one :func:`solve_stack` run, one entry per problem.

    ``histories`` holds, when kept, each problem's prior variances from the
    start through every sweep it ran; otherwise it is empty.
    """

    iterations: np.ndarray
    final_change: np.ndarray
    converged: np.ndarray
    worst_clamp_excursion: np.ndarray
    histories: tuple = ()


@dataclass(frozen=True)
class PeakSelection:
    """Selected spectrum peaks, strongest first.

    ``fallback_filled`` marks selections where fewer strict local maxima
    existed than requested and the remaining slots were filled with the
    largest leftover spectrum values.
    """

    indices: np.ndarray
    angles: np.ndarray
    fallback_filled: bool = False


def _as_mean(stat) -> np.ndarray:
    if isinstance(stat, SufficientStatistic):
        return stat.mean
    return np.asarray(stat)


def precision_matrix(dictionary, state: NuvState, config: SolverConfig) -> np.ndarray:
    """Inverse of the marginal observation covariance under the current priors.

    Builds ``A diag(pv) A^H + (sigma2/L) I`` (sensor-count sized, never the
    atom-count sized dual) and inverts it through a Cholesky factorization.
    The result is symmetrized before it is returned.
    """
    matrix = np.asarray(dictionary)
    pv = state.prior_variances
    if matrix.shape[1] != pv.size:
        raise ValueError("dictionary and state disagree on atom count")
    gram = (matrix * pv) @ matrix.conj().T
    gram[np.diag_indices_from(gram)] += config.noise_scale
    if not np.all(np.isfinite(gram)):
        raise SolverNumericalError("observation covariance is not finite",
                                   state.iteration)
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except (LinAlgError, ValueError) as exc:
        raise SolverNumericalError(
            f"precision factorization failed: {exc}", state.iteration
        ) from None
    precision = cho_solve(factor, np.eye(matrix.shape[0], dtype=complex),
                          check_finite=False)
    return (precision + precision.conj().T) / 2.0


def posterior_moments(dictionary, state: NuvState, precision: np.ndarray,
                      stat) -> PosteriorMoments:
    """Closed-form posterior mean and marginal variances of the amplitudes.

    mean = pv * A^H W ybar, variance = pv - pv^2 * diag(A^H W A), with W the
    precision matrix.  Tiny negative variances from rounding are clamped to
    zero and the worst excursion is reported.

    The variance difference cancels where ``pv * gain`` is close to 1.  In
    ill-conditioned states, such as criterion 04's end states, it is then
    off the primal posterior ``D (I + D A^H A D / s)^-1 D`` (with
    ``D = diag(sqrt(pv))`` and ``s = sigma2 / L``) by up to about 5e-8 of
    the largest variance.  Tests of such states check against the primal
    form instead.
    """
    matrix = np.asarray(dictionary)
    pv = state.prior_variances
    ybar = _as_mean(stat)
    filtered = precision @ matrix
    mean = pv * (matrix.conj().T @ (precision @ ybar))
    gain = np.einsum("nm,nm->m", matrix.conj(), filtered).real
    raw = pv - pv * pv * gain
    excursion = float(max(0.0, -raw.min())) if raw.size else 0.0
    return PosteriorMoments(mean=mean, variance=np.maximum(raw, 0.0),
                            clamp_excursion=excursion)


def _is_ula_stack(matrices: np.ndarray) -> bool:
    """Whether every nonzero column is a half-wavelength ULA steering vector.

    Such a column is ``a_d = z^d`` with ``|z| = 1``: row 0 equals 1 and row
    ``d`` equals row 1 times row ``d - 1``, to a rounding slack that grows
    with the sensor count.  All-zero columns are allowed.  A
    one-sensor stack gains nothing from the Toeplitz form and is refused.
    """
    n = matrices.shape[1]
    if n < 2:
        return False
    tol = 32 * n * np.finfo(float).eps
    live = matrices[:, :1] == 1
    if not (live | ~matrices.any(axis=1, keepdims=True)).all():
        return False
    step = matrices[:, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        off_circle = np.abs(np.abs(step) - 1) * live[:, 0]
        # The recursion is checked one row at a time: a whole-stack residual
        # would allocate stack-sized complex temporaries.
        return bool(off_circle.max(initial=0.0) <= tol and all(
            np.abs(matrices[:, d] - step * matrices[:, d - 1]).max(initial=0.0)
            <= tol for d in range(1, n)))


@cache
def _toeplitz_tables(n: int):
    """Tables of the Toeplitz sweep for ``n`` sensors.

    ``lower[k, l] = |k - l|`` indexes the first column ``r`` of a Hermitian
    Toeplitz matrix into its lower triangle (the upper one is not read).
    ``upper`` lists the flat indices ``k (n + 1) + d`` of the upper
    triangle's entries ``Q[k, k+d]`` of an ``n x n`` matrix, diagonal by
    diagonal, and ``starts`` where each diagonal begins in that list.
    """
    k = np.arange(n)
    lower = np.abs(k[:, None] - k[None, :])
    upper = np.concatenate([k[: n - d] * (n + 1) + d for d in range(n)])
    lengths = np.arange(n, 0, -1)
    starts = np.cumsum(lengths) - lengths
    for table in (lower, upper, starts):
        table.setflags(write=False)
    return lower, upper, starts


def _diagonal_sums(precision: np.ndarray) -> np.ndarray:
    """``c_0 = tr Q`` and ``c_d = 2 sum_k Q[k, k+d]`` of every ``Q`` of a
    ``(b, n, n)`` stack, as ``(b, n)``: one gather of the upper triangles
    and one segmented sum."""
    count, n, _ = precision.shape
    _, upper, starts = _toeplitz_tables(n)
    sums = np.add.reduceat(precision.reshape(count, n * n)[:, upper], starts,
                           axis=1)
    sums[:, 1:] *= 2.0
    return sums


def _check_finite(gram: np.ndarray, iteration: int) -> None:
    """Refuse the problems whose Gram entries (or first columns) are not
    all finite."""
    if not np.isfinite(gram).all():
        bad = ~np.isfinite(gram.reshape(len(gram), -1)).all(axis=1)
        raise SolverNumericalError("observation covariance is not finite",
                                   iteration, np.flatnonzero(bad))


def _inverse_factors(gram: np.ndarray, iteration: int) -> np.ndarray:
    """``R^-1`` of every ``G = R R^H`` (lower Cholesky) of a stack.

    Overwrites ``gram``.  A failure names the failing problems.
    """
    inverses = np.empty_like(gram)
    failed = {}
    for index, block in enumerate(gram):
        factor, info = zpotrf(block, lower=True, overwrite_a=True)
        if info != 0:
            failed[index] = info
            continue
        # A successful factorization has a positive diagonal, so the
        # triangular inverse cannot fail.
        inverses[index], _ = ztrtri(factor, lower=True, overwrite_c=True)
    if failed:
        raise SolverNumericalError(
            "precision factorization failed: LAPACK potrf info "
            f"{next(iter(failed.values()))}", iteration, tuple(failed))
    return inverses


def _moments(transposed: np.ndarray, conj_means: np.ndarray, steering: bool,
             noise: float, pv: np.ndarray, iteration: int):
    """Posterior means and gains of every problem of a stack at prior
    variances ``pv``.

    ``transposed`` holds the dictionaries as ``A^T`` ``(b, m, n)``, with a
    unit-stride last axis, and ``conj_means`` the conjugated means
    ``(b, n)``; ``noise`` is the noise scale ``sigma2 / L`` and
    ``steering`` whether every live column is a ULA steering vector, as
    :func:`solve_stack` was told or found.  Returns ``(mean, gain,
    clamp_excursion)``, one row (or entry) per problem: the mean of
    :func:`posterior_moments` up to rounding, the gains ``a_j^H Q a_j``,
    and how far below zero the worst variance ``pv - pv^2 * gain`` goes.
    These are all a sweep of the loop reads; the clamped variance
    ``max(pv - pv^2 * gain, 0)`` is formed once, at the end of a solve.
    Every stack runs one flow: build ``G = A diag(pv) A^H + (sigma2/L) I``,
    factor ``G = R R^H`` (lower Cholesky), form ``Q = G^-1 = R^-H R^-1``;
    the mean is ``pv * conj(A^T conj(Q ybar))``.

    Two steps depend on the dictionary.  Any dictionary: ``G`` is the dense
    ``O(n^2 m)`` product, checked for finiteness entry by entry, and each
    gain is ``||R^-1 a_j||^2``.  Steering columns ``a_j = z_j^d``,
    ``|z_j| = 1``: ``G[k, l] = sum_j pv_j z_j^(k-l)`` is Hermitian
    Toeplitz, gathered from its first column ``r = A pv`` once ``r`` is
    checked for finiteness, and ``a_j^H Q a_j = Re(sum_d c_d z_j^d)`` with
    ``c_0 = tr Q`` and ``c_d = 2 sum_k Q[k, k+d]`` for ``d >= 1`` (the
    identity root-MUSIC's polynomial rests on), read off the whole stack
    by :func:`_diagonal_sums`; both cost ``O(n m)``.  Where
    ``pv * gain > 1/2`` the variance ``pv (1 - pv * gain)`` would cancel
    the absolute rounding of that sum, so those gains are recomputed as
    ``||R^-1 a_j||^2``.  Since ``sum_j pv_j gain_j = n - (sigma2/L) tr Q
    < n``, fewer than ``2n`` atoms per problem qualify.

    ``R^-1`` is formed explicitly (an n x n triangular inverse) and applied
    by matrix products rather than by a triangular solve against the m
    right-hand sides: the numpy and scipy wheels link separate BLAS builds,
    and a multithreaded solve on scipy's side between numpy products stalls
    on contended threads.  Keeping the m-sized work inside numpy's BLAS
    avoids that.  A failure names the failing problems.
    """
    count, m, n = transposed.shape
    if steering:
        # r = A pv, the first column of A diag(pv) A^H, is row 0 of a real
        # (b, 2, m) @ (b, m, 2n) product.  A one-row product (BLAS gemv)
        # rounds differently once zero columns lengthen m; this gemm sums
        # over m in the same order whatever the zero columns, so a band
        # with zero columns matches the band solved alone.
        weights = np.zeros((count, 2, m))
        weights[:, 0] = pv
        first = (weights @ transposed.view(float))[:, 0].view(complex)
        first[:, 0] += noise
        # Every entry of G is a copy of one of r.
        _check_finite(first, iteration)
        gram = first[:, _toeplitz_tables(n)[0]]
    else:
        gram = (transposed.swapaxes(1, 2) * pv[:, None, :]) @ transposed.conj()
        gram.reshape(count, n * n)[:, :: n + 1] += noise
        _check_finite(gram, iteration)
    inverses = _inverse_factors(gram, iteration)
    precision = inverses.conj().swapaxes(1, 2) @ inverses
    # Row ybar^H Q = (conj(Q ybar))^T goes under c on steering stacks and
    # under R^-1 on any other: A^T times the rows' transpose gives
    # sum_d c_d z_j^d, or (R^-1 a_j)^T, and conj(a_j^H Q ybar).
    head = _diagonal_sums(precision)[:, None, :] if steering else inverses
    rows = np.concatenate([head, conj_means[:, None, :] @ precision], axis=1)
    products = transposed @ rows.swapaxes(1, 2)
    mean = pv * products[:, :, -1].conj()
    if steering:
        gain = products[:, :, 0].real
        refine = pv * gain > 0.5
        if refine.any():
            problem, atom = np.nonzero(refine)
            parts = (inverses[problem]
                     @ transposed[problem, atom, :, None]).view(float)
            gain[problem, atom] = np.einsum("ijk,ijk->i", parts, parts)
    else:
        parts = products[:, :, :n].view(float)
        gain = np.einsum("bij,bij->bi", parts, parts)
    # The minimum is capped at zero; subtracting from 0.0 keeps zero
    # excursions at +0.0.
    excursion = 0.0 - (pv - pv * pv * gain).min(axis=1, initial=0.0)
    return mean, gain, excursion


def _mackay_update(pv: np.ndarray, mean: np.ndarray, gain: np.ndarray,
                   iteration: int) -> np.ndarray:
    """The MacKay variance update pv <- |mean|^2 / (1 - var/pv), validated.

    With ``var = pv - pv^2 gain`` and ``mean = pv conj(a^H Q ybar)`` this is
    ``|mean|^2 / (pv gain) = pv |a^H Q ybar|^2 / gain``, read off the sweep's
    own mean and gain rather than the clamped variance.  ``gain > 0`` for a
    nonzero column, since ``Q`` is positive definite; an atom at zero
    variance (a zero column, or one that underflowed) stays at zero.  Every
    update must lie in ``[0, inf)``; one minimum and one maximum check
    that, and only an update that fails is looked into.  A live atom whose
    computed gain is not positive (the Toeplitz sum's absolute rounding, at
    noise floors far below ``eps n^2 sum(pv)``), or an update that
    overflows from finite inputs, raises :class:`SolverNumericalError`
    naming its problems.
    """
    update = np.zeros_like(pv)
    np.divide(np.abs(mean) ** 2, pv * gain, out=update, where=pv > 0)
    # A NaN fails both comparisons.
    if not (update.min(initial=0.0) >= 0.0
            and update.max(initial=0.0) < np.inf):
        broken = ((pv > 0) & ~(gain > 0)).any(axis=1)
        if broken.any():
            raise SolverNumericalError("atom gain is not positive", iteration,
                                       np.flatnonzero(broken))
        bad = ~((update >= 0.0) & (update < np.inf)).all(axis=1)
        raise SolverNumericalError("variance update is not finite",
                                   iteration, np.flatnonzero(bad))
    return update


def solve_stack(matrices, means, config: SolverConfig,
                keep_history: bool = False, *, steering: bool | None = None):
    """Run the variance fixed point on a stack of independent problems.

    Each sweep evaluates the posterior means and gains and replaces the
    variances by :func:`_mackay_update`.  ``matrices`` is ``(b, n, m)`` and
    ``means`` ``(b, n)``, all finite (a non-finite mean is a
    ``ValueError``); a ``(b, n, m)`` view whose ``(b, m, n)`` transpose has
    a unit-stride last axis, such as a C-contiguous ``(b, m, n)`` array or
    the sliding window of ``subbands.band_stack``, is used without a copy.
    Every column with a nonzero entry starts at prior variance 1 and every
    all-zero column at 0, where it stays without coupling into its
    problem; the sub-band scan's zero columns mark
    lattice points beyond +-pi/2 (steering columns have unit-modulus
    entries, so no steering dictionary has one).  Each problem stops when
    the max-norm change of its variances drops below ``tolerance * max(1,
    ||pv||_inf)`` or at ``max_iterations``, then leaves the active stack.
    A sweep of the loop computes means, gains and the worst variance
    excursion only; every problem gets one final evaluation at its stopped
    variances, which also forms the clamped variances, and the trace
    record is built once, after it.  A problem's iterates do not depend on
    the other problems of the stack; zero columns change them at most by
    rounding.  ``steering=True`` says every nonzero column is a ULA
    steering vector, as in stacks built by ``steering_matrix``: the sweep
    takes the Toeplitz branch and reads the live columns off row 0 (1, or
    0 in a zero column).  ``None`` runs :func:`_is_ula_stack` and a scan
    of every entry instead, ``O(n m)`` work per solve.

    Returns ``(pv, mean, variance, clamp_excursion, trace)``: the final
    variances and the moments at them, one row per problem, and one
    :class:`StackTrace` of per-problem arrays.
    """
    matrices = np.asarray(matrices, dtype=complex)
    count = matrices.shape[0]
    transposed = matrices.swapaxes(1, 2)
    if transposed.strides[2] != transposed.itemsize:
        transposed = np.ascontiguousarray(transposed)
    conj_means = np.asarray(means, dtype=complex).conj()
    if not np.isfinite(conj_means).all():
        raise ValueError("snapshot mean contains non-finite entries")
    if steering is None:
        steering = _is_ula_stack(matrices)
    live = matrices[:, 0] != 0 if steering else matrices.any(axis=1)
    noise = config.noise_scale
    pv = np.where(live, 1.0, 0.0)
    final_pv = np.empty_like(pv)
    iterations = np.empty(count, dtype=int)
    changes = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    worst = np.empty(count)
    histories = [[row.copy()] for row in pv] if keep_history else None
    active = np.arange(count)
    work, work_means = transposed, conj_means
    worst_active = np.zeros(count)
    for iteration in range(1, config.max_iterations + 1):
        try:
            mean, gain, excursion = _moments(work, work_means, steering,
                                             noise, pv, iteration - 1)
            pv_new = _mackay_update(pv, mean, gain, iteration - 1)
        except SolverNumericalError as exc:
            # Name the failing problems by their index in the caller's stack.
            raise SolverNumericalError(exc.reason, exc.iteration,
                                       active[list(exc.problems)]) from None
        np.maximum(worst_active, excursion, out=worst_active)
        change = np.abs(pv_new - pv).max(axis=1)
        pv = pv_new
        if histories is not None:
            for row, problem in enumerate(active):
                histories[problem].append(pv[row].copy())
        done = change < config.tolerance * pv.max(axis=1, initial=1.0)
        leaving = done if iteration < config.max_iterations else np.ones_like(done)
        if not leaving.any():
            continue
        retired = active[leaving]
        final_pv[retired] = pv[leaving]
        iterations[retired] = iteration
        changes[retired] = change[leaving]
        converged[retired] = done[leaving]
        worst[retired] = worst_active[leaving]
        staying = ~leaving
        active = active[staying]
        if active.size == 0:
            break
        # Gather the active sub-stack only when it shrinks: indexing the
        # stack on every sweep would copy it every sweep.
        work, work_means = work[staying], work_means[staying]
        pv = pv[staying]
        worst_active = worst_active[staying]
    mean, gain, excursion = _moments(transposed, conj_means, steering, noise,
                                     final_pv, int(iterations.max()))
    variance = np.maximum(final_pv - final_pv * final_pv * gain, 0.0)
    trace = StackTrace(
        iterations=iterations, final_change=changes, converged=converged,
        worst_clamp_excursion=np.maximum(worst, excursion),
        histories=tuple(map(tuple, histories)) if keep_history else ())
    return final_pv, mean, variance, excursion, trace


def solve(dictionary, stat, config: SolverConfig, keep_history: bool = False,
          *, steering: bool | None = None):
    """Run the variance fixed point to convergence.

    Runs :func:`solve_stack` on a stack of one problem: from every live
    atom at prior variance 1 it repeats the moment sweep and MacKay's update
    until the max-norm change of the prior variances drops below
    ``tolerance * max(1, ||pv||_inf)`` or ``max_iterations`` is reached,
    then evaluates the posterior moments once more at the final variances.
    The state and moment records are built once, at the end, and the
    :class:`SolveTrace` from row 0 of the stack's :class:`StackTrace`.
    ``steering`` is passed on to :func:`solve_stack`.

    Returns
    -------
    (NuvState, PosteriorMoments, SolveTrace)
    """
    matrix = np.asarray(dictionary)
    ybar = _as_mean(stat)
    if matrix.shape[0] != ybar.size:
        raise ValueError("dictionary and statistic disagree on sensor count")
    pv, mean, variance, excursion, stack_trace = solve_stack(
        matrix[None], ybar[None], config, keep_history, steering=steering)
    trace = SolveTrace(
        iterations=int(stack_trace.iterations[0]),
        final_change=float(stack_trace.final_change[0]),
        converged=bool(stack_trace.converged[0]),
        worst_clamp_excursion=float(stack_trace.worst_clamp_excursion[0]),
        history=stack_trace.histories[0] if keep_history else ())
    return (NuvState(prior_variances=pv[0], iteration=trace.iterations),
            PosteriorMoments(mean=mean[0], variance=variance[0],
                             clamp_excursion=float(excursion[0])),
            trace)


def spectrum(moments: PosteriorMoments, grid: AngleGrid) -> Spectrum:
    """Angular spectrum: magnitude of the posterior mean per grid atom."""
    values = np.abs(moments.mean)
    if values.size != len(grid):
        raise ValueError("moments and grid disagree on atom count")
    return Spectrum(values=values, grid=grid)


def _strict_local_maxima(values: np.ndarray) -> np.ndarray:
    m = values.size
    if m == 1:
        return np.array([0])
    keep = np.zeros(m, dtype=bool)
    keep[0] = values[0] > values[1]
    keep[-1] = values[-1] > values[-2]
    if m > 2:
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        keep[1:-1] = interior
    return np.nonzero(keep)[0]


def select_peaks(spec: Spectrum, k: int) -> PeakSelection:
    """Pick the ``k`` strongest peaks of a spectrum.

    Strict local maxima (endpoints qualify against their single neighbor)
    are ranked by descending value, ties broken toward the lower grid index.
    Missing maxima are topped up with the largest non-peak values and the
    selection is flagged as fallback-filled.
    """
    values = spec.values
    if k < 1:
        raise ValueError("need k >= 1 peaks")
    if k > values.size:
        raise ValueError(f"cannot select {k} peaks from {values.size} grid points")
    maxima = _strict_local_maxima(values)
    order = maxima[np.argsort(-values[maxima], kind="stable")]
    fallback = order.size < k
    if fallback:
        rest = np.setdiff1d(np.arange(values.size), order, assume_unique=True)
        rest = rest[np.argsort(-values[rest], kind="stable")]
        chosen = np.concatenate([order, rest[: k - order.size]])
        chosen = chosen[np.argsort(-values[chosen], kind="stable")]
    else:
        chosen = order[:k]
    return PeakSelection(indices=chosen, angles=spec.grid.values[chosen],
                         fallback_filled=fallback)
