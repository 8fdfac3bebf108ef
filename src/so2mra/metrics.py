"""Rotation-aligned recovery error, SNR helpers and sweep aggregation."""

from __future__ import annotations

import math
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
    """``Re sum_k c_k exp(1j*k*phi_j)`` on the grid ``phi_j = 2*pi*j/n_grid``, for each row of ``c``.

    That grid is the FFT grid, so the sum is ``n_grid * ifft`` of ``c``
    placed at ``k mod n_grid`` (``n_grid`` must exceed the span of ``k``).
    """
    buf = np.zeros(c.shape[:-1] + (n_grid,), dtype=np.complex128)
    buf[..., k_range % n_grid] = c
    return (np.fft.ifft(buf, axis=-1) * n_grid).real


def _alignment_errors(e: np.ndarray, t: np.ndarray, ke: np.ndarray) -> tuple[list, list, np.ndarray]:
    """``recovery_error`` of each row of a stack of estimates ``e`` against the same row of ``t``.

    ``e`` and ``t`` are ``(S, d)`` coefficients whose angular indices are
    ``ke``.  Returns the relative errors and best angles as floats, and the
    ``(S, d)`` aligned estimates.  The grid search and the Newton steps run
    once for the stack, each row stopping by its own rule; each row's values
    are those of a stack of that row alone, bit for bit.
    """
    norms = [float(np.vdot(row, row).real) for row in t]
    if 0.0 in norms:
        raise ValueError("truth has zero norm")

    # <est, rotate(truth, phi)> = sum_k exp(1j*k*phi) * c_k with the radial
    # sums collapsed into c_k: one bincount over the stack, row r's
    # frequencies in bins r*K..r*K+K-1.
    k_lo, k_hi = int(ke.min()), int(ke.max())
    k_range = np.arange(k_lo, k_hi + 1)
    size = len(e) * k_range.size
    bins = (np.arange(len(e))[:, None] * k_range.size + (ke - k_lo)).ravel()
    products = t.conj() * e
    c = np.empty((len(e), k_range.size), dtype=np.complex128)
    c.real = np.bincount(bins, products.real.ravel(), size).reshape(c.shape)
    c.imag = np.bincount(bins, products.imag.ravel(), size).reshape(c.shape)

    n_grid = GRID_FACTOR * k_range.size
    values = _grid_overlap(c, k_range, n_grid)
    spacing = 2.0 * np.pi / n_grid
    j = np.argmax(values, axis=1)
    best_vals = values[np.arange(len(e)), j].tolist()
    angles = (j * spacing).tolist()

    # Newton steps: the phases and the derivatives are formed for the whole
    # stack, and each row still moving takes its step in Python floats.  The
    # polish looks for the maximum within one spacing of the best grid angle
    # (its cell).  Near a flat maximum a step can be cells long, so a step
    # that would leave the cell is halved until it lands inside.  A row
    # stops when the curvature is not negative or no halving lands inside
    # (phi kept), or when a step falls below NEWTON_STEP_TOL (converged).
    phis, live, converged = list(angles), range(len(e)), [False] * len(e)
    # The coefficients of the first and second derivatives, per row.
    dc = np.array([1j * k_range, -(k_range**2)]) * c[:, None, :]
    for _ in range(NEWTON_ITERATIONS):
        if not live:
            break
        ph = np.exp((1j * np.array(phis))[:, None] * k_range)
        d1s, d2s = (dc * ph[:, None, :]).sum(axis=2).real.T.tolist()
        moving = []
        for r in live:
            if d2s[r] >= 0.0:
                continue
            step = d1s[r] / d2s[r]
            while abs(phis[r] - step - angles[r]) > spacing and abs(step) >= NEWTON_STEP_TOL:
                step *= 0.5
            if abs(phis[r] - step - angles[r]) > spacing:
                continue
            phis[r] -= step
            if abs(step) < NEWTON_STEP_TOL:
                converged[r] = True
            else:
                moving.append(r)
        live = moving

    for r, (phi, done) in enumerate(zip(phis, converged)):
        # A converged polish is kept even when its gain over the grid point
        # is below the rounding of the overlap value itself.
        if done or float((np.exp(1j * phi * k_range) @ c[r]).real) > best_vals[r]:
            angles[r] = phi % (2.0 * np.pi)
            if angles[r] == 2.0 * np.pi:  # a tiny negative phi rounds up to 2*pi
                angles[r] = 0.0

    aligned = e * np.exp(1j * ke * np.array(angles)[:, None])
    errors = [float(np.vdot(row, row).real) / norm for row, norm in zip(aligned - t, norms)]
    return errors, angles, aligned


def recovery_error(estimate: Estimable, truth: Estimable) -> ErrorReport:
    """Relative squared error after aligning the estimate over all rotations.

    ``estimate`` and ``truth`` are both images or both rotation
    distributions, of one coefficient layout; anything else raises
    ``TypeError``.

    Minimises ``|est - exp(-1j*k*phi) . truth|^2 / |truth|^2`` over the
    continuous angle ``phi``.  The objective's rotation-dependent part is the
    real part of a trigonometric polynomial, which is maximised on a dense
    grid (one FFT) and polished with Newton iterations on its derivative,
    stopped once a step falls below ``NEWTON_STEP_TOL``.  The polished angle
    replaces the grid angle when the polish converged or raised the overlap.
    This is the stacked core ``_alignment_errors`` on one pair.
    """
    if not (isinstance(estimate, Estimable) and type(estimate) is type(truth)):
        raise TypeError("recovery_error compares FBImage or RotationDistribution objects of one type")
    e, ke = estimate.coeffs, estimate.k_values
    t, kt = truth.coeffs, truth.k_values
    if e.shape != t.shape or not np.array_equal(ke, kt):
        raise ValueError("estimate and truth must share shape and angular layout")
    [rel], [best], aligned = _alignment_errors(e[None], t[None], ke)
    return ErrorReport(relative_error=rel, best_angle=best, aligned_estimate=aligned[0])


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


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of sorted values, with numpy's arithmetic, bit for bit.

    numpy's default ("linear") method: the value at index ``(n - 1) * (q / 100)``
    of the sorted values, by numpy's ``_lerp``, which takes ``b - (b - a)(1 - t)``
    from the upper neighbour for ``t >= 1/2``.  At and past the last index
    both neighbours are the last value, and any NaN, which sorts last,
    makes the result NaN.  Python floats round as numpy's float64 does.
    """
    index = (len(ordered) - 1) * (q / 100)
    below = math.floor(index)
    above = below + 1
    if index >= len(ordered) - 1:
        below = above = -1
    a, b = float(ordered[below]), float(ordered[above])
    t = index - below
    diff = b - a
    value = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return float("nan") if math.isnan(ordered[-1]) else value


def aggregate(errors: np.ndarray) -> tuple[float, float, float]:
    """Median, 30th and 70th percentiles (linear interpolation between order statistics).

    The values of ``np.percentile``, bit for bit (``_percentile``), from one
    sort: ``np.percentile`` imports ``numpy.ma`` on its first call in
    numpy 2, which a sweep need not pay.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("cannot aggregate an empty error vector")
    ordered = np.sort(errors, axis=None)
    return _percentile(ordered, 50.0), _percentile(ordered, 30.0), _percentile(ordered, 70.0)
