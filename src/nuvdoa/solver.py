"""Sparse spectrum recovery from the snapshot mean via unknown prior variances.

Each grid atom gets a zero-mean complex Gaussian prior whose variance is a
free parameter; type-II maximum likelihood over those variances is run by
fixed-point iteration.  One sweep computes the posterior mean and variance
of the atom amplitudes under the current prior variances, then replaces each
prior variance with posterior second moment ``|mean|^2 + variance``.  Atoms
that the data does not support collapse to zero variance, which is what
produces a sparse angular spectrum.

All computations run on the snapshot mean only; the snapshot count enters
through the noise scale ``sigma2 / n_snapshots``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import zpotrf, ztrtri

from .arrays import AngleGrid, SteeringDictionary, SufficientStatistic


class SolverNumericalError(RuntimeError):
    """Raised when a precision-matrix factorization breaks down.

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
class InitSpec:
    """How to seed the prior variances: constant, or uniform on (0.5, 1.5]."""

    kind: str
    value: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "random_uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "constant" and self.value <= 0:
            raise ValueError("constant init value must be positive")


def constant_init(value: float = 1.0) -> InitSpec:
    return InitSpec(kind="constant", value=value)


def random_uniform_init(seed: int = 0) -> InitSpec:
    return InitSpec(kind="random_uniform", seed=seed)


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
    init: InitSpec = field(default_factory=lambda: random_uniform_init(0))

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def noise_scale(self) -> float:
        return self.sigma2 / self.n_snapshots


@dataclass(frozen=True)
class SolverSettings:
    """Solver knobs as they appear in config files.

    ``sigma2 = None`` leaves the noise floor to the pipeline's SNR-indexed
    table.  The iteration budget and tolerance default to SolverConfig's.
    """

    sigma2: float | None = None
    max_iterations: int = SolverConfig.max_iterations
    tolerance: float = SolverConfig.tolerance
    init: InitSpec = constant_init(1.0)

    def solver_config(self, n_snapshots: int, sigma2: float) -> SolverConfig:
        """The per-solve spec at a resolved noise floor."""
        return SolverConfig(sigma2=sigma2, n_snapshots=n_snapshots,
                            max_iterations=self.max_iterations,
                            tolerance=self.tolerance, init=self.init)


@dataclass(frozen=True)
class NuvState:
    """Per-atom prior variances at some iteration of the fixed point."""

    prior_variances: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        pv = np.asarray(self.prior_variances, dtype=float)
        if pv.ndim != 1:
            raise ValueError("prior variances must be a vector")
        _check_prior_variances(pv)
        object.__setattr__(self, "prior_variances", pv)


def _check_prior_variances(pv: np.ndarray) -> None:
    if not np.isfinite(pv).all() or (pv < 0).any():
        raise ValueError("prior variances must be finite and nonnegative")


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
class PeakRule:
    """Peak-picking rule: fixed count (``fixed_k``) or threshold (``eta``)."""

    kind: str
    k: int = 0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed_k", "threshold"):
            raise ValueError(f"unknown peak rule {self.kind!r}")
        if self.kind == "fixed_k" and self.k < 1:
            raise ValueError("fixed_k needs k >= 1")


def fixed_k(k: int) -> PeakRule:
    return PeakRule(kind="fixed_k", k=k)


def threshold(eta: float) -> PeakRule:
    return PeakRule(kind="threshold", eta=eta)


@dataclass(frozen=True)
class PeakSelection:
    """Selected spectrum peaks, strongest first.

    ``fallback_filled`` marks selections where fewer strict local maxima
    existed than requested and the remaining slots were filled with the
    largest leftover spectrum values.
    """

    rule: PeakRule
    indices: np.ndarray
    angles: np.ndarray
    fallback_filled: bool = False


def _as_matrix(dictionary) -> np.ndarray:
    if isinstance(dictionary, SteeringDictionary):
        return dictionary.matrix
    return np.asarray(dictionary)


def _as_mean(stat) -> np.ndarray:
    if isinstance(stat, SufficientStatistic):
        return stat.mean
    return np.asarray(stat)


def initial_state(n_atoms: int, init: InitSpec) -> NuvState:
    """Starting prior variances for a dictionary with ``n_atoms`` columns."""
    if init.kind == "constant":
        pv = np.full(n_atoms, init.value, dtype=float)
    else:
        rng = np.random.default_rng(init.seed)
        # 1.5 - U[0,1) lands in (0.5, 1.5].
        pv = 1.5 - rng.random(n_atoms)
    return NuvState(prior_variances=pv, iteration=0)


def precision_matrix(dictionary, state: NuvState, config: SolverConfig) -> np.ndarray:
    """Inverse of the marginal observation covariance under the current priors.

    Builds ``A diag(pv) A^H + (sigma2/L) I`` (sensor-count sized, never the
    atom-count sized dual) and inverts it through a Cholesky factorization.
    The result is symmetrized before it is returned.
    """
    matrix = _as_matrix(dictionary)
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
    """
    matrix = _as_matrix(dictionary)
    pv = state.prior_variances
    ybar = _as_mean(stat)
    filtered = precision @ matrix
    mean = pv * (matrix.conj().T @ (precision @ ybar))
    gain = np.einsum("nm,nm->m", matrix.conj(), filtered).real
    raw = pv - pv * pv * gain
    excursion = float(max(0.0, -raw.min())) if raw.size else 0.0
    return PosteriorMoments(mean=mean, variance=np.maximum(raw, 0.0),
                            clamp_excursion=excursion)


def _operands(matrices, means):
    """Per-problem operands of a sweep over a stack of problems.

    Returns the dictionaries as complex ``(b, n, m)``, their adjoints
    ``(b, m, n)``, and the rows ``[A^T; ybar^T]`` of each problem
    ``(b, m + 1, n)``.
    """
    matrices = np.asarray(matrices, dtype=complex)
    adjoints = matrices.conj().swapaxes(1, 2).copy()
    rows = np.concatenate([matrices.swapaxes(1, 2), means[:, None, :]], axis=1)
    return matrices, adjoints, rows


def _moments(operands, noise: np.ndarray, pv: np.ndarray, iteration: int):
    """Posterior moments of every problem of a stack at prior variances ``pv``.

    Returns ``(mean, variance, clamp_excursion)``, one row (or entry) per
    problem, with the same values as :func:`precision_matrix` followed by
    :func:`posterior_moments`, computed without forming the precision.
    With ``G = A diag(pv) A^H + (sigma2/L) I = R R^H`` (Cholesky) and
    ``[B | b] = R^-1 [A | ybar]``, the mean is ``pv * B^H b`` and the gain
    ``diag(A^H G^-1 A)`` is the column-wise ``sum |B|^2``.

    ``R^-1`` is formed explicitly (an n x n triangular inverse) and applied
    by one matrix product rather than by a triangular solve against the
    m + 1 right-hand sides: the numpy and scipy wheels link separate BLAS
    builds, and a multithreaded solve on scipy's side between numpy
    products stalls on contended threads.  Keeping the m-sized work inside
    numpy's BLAS avoids that.  A failure names the failing problems.
    """
    matrices, adjoints, rows = operands
    gram = (matrices * pv[:, None, :]) @ adjoints
    gram += noise
    if not np.isfinite(gram).all():
        bad = ~np.isfinite(gram).all(axis=(1, 2))
        raise SolverNumericalError("observation covariance is not finite",
                                   iteration, np.flatnonzero(bad))
    # inverse_t[i] holds (R_i^-1)^T, so rows @ inverse_t gives the rows
    # (R^-1 a_j)^T and (R^-1 ybar)^T of every problem.
    inverse_t = np.empty_like(gram)
    failed = {}
    for index, block in enumerate(gram):
        factor, info = zpotrf(block, lower=True, overwrite_a=True)
        if info != 0:
            failed[index] = info
            continue
        # A successful factorization has a positive diagonal, so the
        # triangular inverse cannot fail.
        inverse, _ = ztrtri(factor, lower=True, overwrite_c=True)
        inverse_t[index] = inverse.T
    if failed:
        raise SolverNumericalError(
            "precision factorization failed: LAPACK potrf info "
            f"{next(iter(failed.values()))}", iteration, tuple(failed))
    whitened = rows @ inverse_t
    m = pv.shape[1]
    atoms, data = whitened[:, :m], whitened[:, m:]
    mean = pv * (atoms @ data.conj().swapaxes(1, 2))[:, :, 0].conj()
    parts = atoms.view(float)
    gain = np.einsum("bij,bij->bi", parts, parts)
    raw = pv - pv * pv * gain
    # The minimum is capped at zero; subtracting from 0.0 keeps zero
    # excursions at +0.0.
    excursion = 0.0 - raw.min(axis=1, initial=0.0)
    return mean, np.maximum(raw, 0.0), excursion


def _em_update(mean: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """The NUV-EM variance update pv <- |mean|^2 + var, validated."""
    pv = np.abs(mean) ** 2 + variance
    _check_prior_variances(pv)
    return pv


def solve_stack(matrices, means, pv: np.ndarray, config: SolverConfig,
                keep_history: bool = False):
    """Run the variance fixed point on a stack of independent problems.

    ``matrices`` is ``(b, n, m)``, ``means`` ``(b, n)`` and the starting
    variances ``pv`` ``(b, m)``.  A zero column with zero starting variance
    stays at zero and never couples into its problem, so dictionaries of
    different widths can share a stack by zero padding.  Each problem stops
    when the max-norm change of its variances drops below
    ``tolerance * max(1, ||pv||_inf)`` or at ``max_iterations``, then leaves
    the active stack; every problem gets one final moment evaluation at its
    stopped variances.  A problem's iterates do not depend on the other
    problems of the stack; zero padding changes them only by rounding.

    Returns ``(pv, mean, variance, clamp_excursion, traces)``: the final
    variances and the moments at them, one row per problem, and one
    :class:`SolveTrace` per problem.
    """
    operands = _operands(matrices, means)
    count, n, _ = operands[0].shape
    noise = config.noise_scale * np.eye(n)
    final_pv = np.empty_like(pv)
    iterations = np.empty(count, dtype=int)
    changes = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    worst = np.empty(count)
    histories = [[row.copy()] for row in pv] if keep_history else None
    active = np.arange(count)
    work = operands
    worst_active = np.zeros(count)
    for iteration in range(1, config.max_iterations + 1):
        mean, variance, excursion = _moments(work, noise, pv, iteration - 1)
        np.maximum(worst_active, excursion, out=worst_active)
        pv_new = _em_update(mean, variance)
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
        work = tuple(operand[staying] for operand in work)
        pv = pv[staying]
        worst_active = worst_active[staying]
    mean, variance, excursion = _moments(operands, noise, final_pv,
                                         int(iterations.max()))
    traces = tuple(
        SolveTrace(
            iterations=int(iterations[i]),
            final_change=float(changes[i]),
            converged=bool(converged[i]),
            worst_clamp_excursion=float(max(worst[i], excursion[i])),
            history=tuple(histories[i]) if histories is not None else (),
        )
        for i in range(count))
    return final_pv, mean, variance, excursion, traces


def em_step(dictionary, state: NuvState, stat, config: SolverConfig) -> NuvState:
    """One fixed-point sweep: posterior moments, then pv <- |mean|^2 + var."""
    matrix = _as_matrix(dictionary)
    if matrix.shape[1] != state.prior_variances.size:
        raise ValueError("dictionary and state disagree on atom count")
    operands = _operands(matrix[None], _as_mean(stat)[None])
    noise = config.noise_scale * np.eye(matrix.shape[0])
    mean, variance, _ = _moments(operands, noise, state.prior_variances[None],
                                 state.iteration)
    return NuvState(prior_variances=_em_update(mean, variance)[0],
                    iteration=state.iteration + 1)


def solve(dictionary, stat, config: SolverConfig, keep_history: bool = False):
    """Run the variance fixed point to convergence.

    Iterates :func:`em_step` until the max-norm change of the prior
    variances drops below ``tolerance * max(1, ||pv||_inf)`` or
    ``max_iterations`` is reached, then evaluates the posterior moments once
    more at the final variances.  This is the stack loop run on a stack of
    one problem; the state and moment records are built once, at the end.

    Returns
    -------
    (NuvState, PosteriorMoments, SolveTrace)
    """
    matrix = _as_matrix(dictionary)
    ybar = _as_mean(stat)
    if not np.all(np.isfinite(ybar)):
        raise ValueError("snapshot mean contains non-finite entries")
    if matrix.shape[0] != ybar.size:
        raise ValueError("dictionary and statistic disagree on sensor count")
    pv = initial_state(matrix.shape[1], config.init).prior_variances
    pv, mean, variance, excursion, (trace,) = solve_stack(
        matrix[None], ybar[None], pv[None], config, keep_history)
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


def select_peaks(spec: Spectrum, rule: PeakRule) -> PeakSelection:
    """Pick peaks of a spectrum under the given rule.

    Strict local maxima (endpoints qualify against their single neighbor)
    are ranked by descending value, ties broken toward the lower grid index.
    Under ``fixed_k``, missing maxima are topped up with the largest
    non-peak values and the selection is flagged as fallback-filled.
    """
    values = spec.values
    maxima = _strict_local_maxima(values)
    order = maxima[np.argsort(-values[maxima], kind="stable")]
    fallback = False
    if rule.kind == "threshold":
        chosen = order[values[order] > rule.eta]
    else:
        if rule.k > values.size:
            raise ValueError(
                f"cannot select {rule.k} peaks from {values.size} grid points")
        if order.size >= rule.k:
            chosen = order[: rule.k]
        else:
            fallback = True
            rest = np.setdiff1d(np.arange(values.size), order,
                                assume_unique=True)
            rest = rest[np.argsort(-values[rest], kind="stable")]
            fill = rest[: rule.k - order.size]
            chosen = np.concatenate([order, fill])
            chosen = chosen[np.argsort(-values[chosen], kind="stable")]
    return PeakSelection(
        rule=rule,
        indices=chosen,
        angles=spec.grid.values[chosen],
        fallback_filled=fallback,
    )
