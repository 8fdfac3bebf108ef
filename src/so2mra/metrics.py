"""Rotation-aligned recovery error, SNR helpers and sweep aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import FBImage, RotationDistribution

GRID_FACTOR = 16
NEWTON_ITERATIONS = 30
NEWTON_STEP_TOL = 1e-15

Estimable = FBImage | RotationDistribution


@dataclass(frozen=True)
class ErrorReport:
    relative_error: float
    best_angle: float
    aligned_estimate: np.ndarray


def _grid_overlap(c: np.ndarray, k_range: np.ndarray, n_grid: int) -> np.ndarray:
    """``Re sum_k c_k exp(1j*k*phi_j)`` on the grid ``phi_j = 2*pi*j/n_grid``.

    That grid is the FFT grid, so the sum is ``n_grid * ifft`` of ``c``
    placed at ``k mod n_grid`` (``n_grid`` must exceed the span of ``k``).
    """
    buf = np.zeros(n_grid, dtype=np.complex128)
    buf[k_range % n_grid] = c
    return (np.fft.ifft(buf) * n_grid).real


def recovery_error(estimate: Estimable, truth: Estimable) -> ErrorReport:
    """Relative squared error after aligning the estimate over all rotations.

    ``estimate`` and ``truth`` are both images or both rotation
    distributions, of one coefficient layout; a bare coefficient array
    raises ``TypeError``.

    Minimises ``|est - exp(-1j*k*phi) . truth|^2 / |truth|^2`` over the
    continuous angle ``phi``.  The objective's rotation-dependent part is the
    real part of a trigonometric polynomial, which is maximised on a dense
    grid (one FFT) and polished with Newton iterations on its derivative,
    stopped once a step falls below ``NEWTON_STEP_TOL``.  The polished angle
    replaces the grid angle when the polish converged or raised the overlap.
    """
    if not (isinstance(estimate, Estimable) and isinstance(truth, Estimable)):
        raise TypeError("recovery_error compares FBImage or RotationDistribution objects")
    e, ke = estimate.coeffs, estimate.k_values
    t, kt = truth.coeffs, truth.k_values
    if e.shape != t.shape or not np.array_equal(ke, kt):
        raise ValueError("estimate and truth must share shape and angular layout")
    norm_t = float(np.vdot(t, t).real)
    if norm_t == 0.0:
        raise ValueError("truth has zero norm")

    # <est, rotate(truth, phi)> = sum_k exp(1j*k*phi) * c_k with the radial
    # sums collapsed into c_k.
    k_lo, k_hi = int(ke.min()), int(ke.max())
    k_range = np.arange(k_lo, k_hi + 1)
    products = t.conj() * e
    c = np.empty(k_range.size, dtype=np.complex128)
    c.real = np.bincount(ke - k_lo, products.real, k_range.size)
    c.imag = np.bincount(ke - k_lo, products.imag, k_range.size)

    n_grid = GRID_FACTOR * k_range.size
    values = _grid_overlap(c, k_range, n_grid)
    spacing = 2.0 * np.pi / n_grid
    j = int(np.argmax(values))
    best, best_val = j * spacing, float(values[j])

    phi = best
    converged = False
    dc1, dc2 = 1j * k_range * c, -(k_range**2) * c  # the derivatives' coefficients
    for _ in range(NEWTON_ITERATIONS):
        ph = np.exp(1j * phi * k_range)
        d1 = float((dc1 * ph).sum().real)
        d2 = float((dc2 * ph).sum().real)
        if d2 >= 0.0:
            break
        step = d1 / d2
        if abs(step) > spacing:
            break
        phi -= step
        if abs(step) < NEWTON_STEP_TOL:
            converged = True
            break
    # A converged polish is kept even when its gain over the grid point is
    # below the rounding of the overlap value itself.
    if converged or float((np.exp(1j * phi * k_range) @ c).real) > best_val:
        best = phi % (2.0 * np.pi)
        if best == 2.0 * np.pi:  # a tiny negative phi rounds up to 2*pi
            best = 0.0

    aligned = e * np.exp(1j * ke * best)
    rel = float(np.vdot(aligned - t, aligned - t).real) / norm_t
    return ErrorReport(relative_error=rel, best_angle=best, aligned_estimate=aligned)


def snr(signal: FBImage, sigma: float) -> float:
    """Total signal power over total in-band noise power.

    Equals ``sum_kq P[k, q] / ((2B+1) * Q * sigma^2)`` for uniform-Q images; the
    denominator is the coefficient count times the per-coefficient variance.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return float(signal.power_spectrum.sum()) / (signal.size * sigma**2)


def sigma_for_snr(signal: FBImage, target_snr: float) -> float:
    """Noise level achieving the requested SNR for this signal."""
    if not target_snr > 0:
        raise ValueError("target SNR must be positive")
    return float(np.sqrt(signal.power_spectrum.sum() / (signal.size * target_snr)))


def aggregate(errors: np.ndarray) -> tuple[float, float, float]:
    """Median, 30th and 70th percentiles (linear interpolation between order statistics)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("cannot aggregate an empty error vector")
    med, lo, hi = np.percentile(errors, [50.0, 30.0, 70.0])
    return float(med), float(lo), float(hi)
