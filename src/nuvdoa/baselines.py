"""Classical covariance-based spectra and the polynomial subspace estimator.

All functions consume a sample covariance (sensor-count square, Hermitian)
and work with the same steering convention as the rest of the package.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .arrays import AngleGrid, UlaGeometry, steering_matrix
from .solver import Spectrum

# Floor for inverted denominators; keeps noiseless spectra finite without
# visibly perturbing any realistic value.
_DENOM_FLOOR = 1e-30


class RootDeficitError(RuntimeError):
    """Fewer admissible polynomial roots than requested sources."""


def _check_cov(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    return cov


def bartlett_spectrum(cov: np.ndarray, grid: AngleGrid) -> Spectrum:
    """Conventional beamformer scan: a^H R a / n_sensors^2 per grid angle."""
    cov = _check_cov(cov)
    n = cov.shape[0]
    steering = steering_matrix(grid.values, UlaGeometry(n))
    values = np.einsum("nm,nm->m", steering.conj(), cov @ steering).real
    values = np.maximum(values / (n * n), 0.0)
    return Spectrum(values=values, grid=grid)


def default_diagonal_load(cov: np.ndarray) -> float:
    """Default loading: 1e-6 of the mean diagonal power."""
    cov = _check_cov(cov)
    return 1e-6 * float(np.trace(cov).real) / cov.shape[0]


def mvdr_spectrum(cov: np.ndarray, grid: AngleGrid,
                  diagonal_load: float | None = None) -> Spectrum:
    """Minimum-variance beamformer scan: 1 / (a^H (R + load I)^{-1} a).

    ``diagonal_load`` defaults to ``1e-6 * trace(R) / n``.  A covariance
    that stays singular after loading raises ``ValueError`` suggesting a
    larger load.
    """
    cov = _check_cov(cov)
    n = cov.shape[0]
    if diagonal_load is None:
        diagonal_load = default_diagonal_load(cov)
    if diagonal_load < 0:
        raise ValueError("diagonal_load must be nonnegative")
    loaded = cov + diagonal_load * np.eye(n)
    try:
        factor = cho_factor(loaded, lower=True, check_finite=False)
    except (LinAlgError, ValueError):
        raise ValueError(
            "covariance is singular even after loading; increase diagonal_load"
        ) from None
    steering = steering_matrix(grid.values, UlaGeometry(n))
    solved = cho_solve(factor, steering, check_finite=False)
    denom = np.einsum("nm,nm->m", steering.conj(), solved).real
    values = 1.0 / np.maximum(denom, _DENOM_FLOOR)
    return Spectrum(values=np.maximum(values, 0.0), grid=grid)


def noise_subspace(cov: np.ndarray, n_sources: int) -> np.ndarray:
    """Orthonormal noise-subspace basis of the covariance.

    The columns are the eigenvectors of the ``n - n_sources`` smallest
    eigenvalues.
    """
    cov = _check_cov(cov)
    n = cov.shape[0]
    if not 1 <= n_sources < n:
        raise ValueError(f"n_sources must be in [1, {n - 1}], got {n_sources}")
    _, eigenvectors = np.linalg.eigh(cov)
    return eigenvectors[:, : n - n_sources]


def music_spectrum(cov: np.ndarray, grid: AngleGrid, n_sources: int) -> Spectrum:
    """Subspace scan: 1 / ||U_n^H a(theta)||^2 per grid angle."""
    cov = _check_cov(cov)
    basis = noise_subspace(cov, n_sources)
    steering = steering_matrix(grid.values, UlaGeometry(cov.shape[0]))
    proj = basis.conj().T @ steering
    denom = np.einsum("nm,nm->m", proj.conj(), proj).real
    values = 1.0 / np.maximum(denom, _DENOM_FLOOR)
    return Spectrum(values=values, grid=grid)


@cache
def _derivative_factors(n: int):
    """``-1j*pi*idx`` and ``-(pi*idx)**2`` for ``idx = 0..n-1``: the factors
    that turn a steering vector in ``u`` into its first two derivatives."""
    idx = np.arange(n)
    factors = (idx, -1j * math.pi * idx, -((math.pi * idx) ** 2))
    for array in factors:
        array.flags.writeable = False
    return factors


def _polish_subspace_min(projector: np.ndarray, u: float) -> float:
    """Newton-refine a minimizer of ||U_n^H a||^2 in the variable u = sin(theta).

    The polynomial rooting locates the minimum to roughly sqrt(machine
    epsilon) because circle roots are double roots; a few Newton steps on
    the smooth objective recover it to full precision.
    """
    idx, first, second = _derivative_factors(projector.shape[0])
    for _ in range(4):
        a = np.exp(-1j * math.pi * idx * u)
        da = first * a
        d2a = second * a
        ca = projector @ a
        cda = projector @ da
        slope = 2.0 * np.vdot(ca, da).real
        curve = 2.0 * (np.vdot(da, cda).real + np.vdot(ca, d2a).real)
        if curve <= 0.0:
            break
        step = slope / curve
        if abs(step) > 0.05:
            step = math.copysign(0.05, step)
        u = float(min(max(u - step, -1.0), 1.0 - 1e-12))
    return u


def root_music(cov: np.ndarray, n_sources: int) -> np.ndarray:
    """Search-free subspace estimator via polynomial rooting.

    Builds the degree ``2(n-1)`` polynomial whose coefficients are the
    diagonal sums of ``U_n U_n^H``, keeps the ``n_sources`` roots inside the
    unit circle with modulus closest to one, and maps each root ``z`` to
    ``arcsin(-arg(z) / pi)``.  Each selected root is then polished against
    the noise-subspace objective, which matters near the +-90 deg edges
    where arcsin magnifies root-phase error.

    Returns sorted azimuths (radians).  Raises ``RootDeficitError`` when too
    few admissible roots exist.
    """
    cov = _check_cov(cov)
    n = cov.shape[0]
    basis = noise_subspace(cov, n_sources)
    projector = basis @ basis.conj().T
    projector = (projector + projector.conj().T) / 2.0
    # Coefficient of z^(d + n - 1) is the d-th diagonal sum; np.roots wants
    # the highest power first.
    coeffs = np.array([np.trace(projector, offset=d)
                       for d in range(n - 1, -n, -1)])
    roots = np.roots(coeffs)
    moduli = np.abs(roots)
    inside = roots[moduli < 1.0]
    if inside.size < n_sources:
        # A root pair that straddles the circle can round onto it; admit
        # on-circle roots before giving up.
        inside = roots[moduli <= 1.0 + 1e-12]
    if inside.size < n_sources:
        raise RootDeficitError(
            f"only {inside.size} admissible roots for {n_sources} sources")
    order = np.argsort(-np.abs(inside), kind="stable")
    chosen = inside[order[:n_sources]]
    sines = np.clip(-np.angle(chosen) / math.pi, -1.0, 1.0)
    polished = [_polish_subspace_min(projector, float(u)) for u in sines]
    return np.sort(np.arcsin(polished))
