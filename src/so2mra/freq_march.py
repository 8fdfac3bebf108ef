"""Frequency-marching recovery of a signal and its rotation distribution.

The debiased second moment reduces to the ratio matrix
``S = 2*pi * D_{M1}^{-1} M2 D_{M1}^{-H}``, whose entries depend only on the
rotation distribution: ``S[k1, k2] = rho[k1-k2] / (rho[k1]*conj(rho[k2]))``
for every radial pair of the blocks ``k1`` and ``k2``.
The marching recursion then recovers ``rho[k]`` for ``k = 1..2B`` from low to
high frequency, and the signal follows from the first moment.

The plain recursion uses a single entry of ``S`` per step.  The robust variant
averages each radial block of ``S`` and all admissible marching estimates
with uniform weights, and pins each magnitude for ``k <= B`` to the diagonal
of ``S``, which mitigates cascading errors on empirical moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MomentConsistencyError, VanishingCoefficientError
from .moments import MomentPair, debias
from .signal_model import (
    TWO_PI,
    UNIFORM_DENSITY,
    FBImage,
    RotationDistribution,
    _frozen,
    coefficient_layout,
    radial_block_mean,
)

RELATIVE_M1_TOL = 1e-10
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class FMOptions:
    """Options for the marching recursions."""

    variant: str = "plain"

    def __post_init__(self):
        if self.variant not in ("plain", "robust"):
            raise ValueError("variant must be 'plain' or 'robust'")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered signal and rotation distribution plus per-run diagnostics."""

    signal_est: FBImage
    rho_est: RotationDistribution
    diagnostics: dict


def _ratio_matrix(m: MomentPair) -> tuple[np.ndarray, float, float]:
    """Form ``S`` from debiased moments, refusing ``|M1|`` entries at or below
    ``RELATIVE_M1_TOL * max|M1|``."""
    abs_m1 = np.abs(m.M1)
    min_abs = float(abs_m1.min())
    tol = RELATIVE_M1_TOL * float(abs_m1.max(initial=0.0))
    if min_abs <= tol:
        raise VanishingCoefficientError(
            f"|M1| entry {min_abs:.3g} at or below the inversion guard {tol:.3g}"
        )
    s = TWO_PI * m.M2 / np.outer(m.M1, m.M1.conj())
    return s, min_abs, tol


def _march(s: np.ndarray, B: int, opts: FMOptions) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``rho[0..2B]`` from the reduced ratio matrix ``S``.

    ``s`` is indexed by ``k1, k2 = -B..B`` via offset ``B``.  Returns the
    nonnegative-frequency coefficients and the per-step diagonal residuals
    ``|2*pi*Re(S[k,k])*|rho[k]|^2 - 1|`` for ``k = 1..B``.
    """
    robust = opts.variant == "robust"
    rho = np.zeros(2 * B + 1, dtype=np.complex128)
    rho[0] = UNIFORM_DENSITY
    if B == 0:
        return rho, np.zeros(0)

    def ent(k1: int, k2: int) -> complex:
        return s[k1 + B, k2 + B]

    def diag_magnitude(k: int) -> float:
        skk = ent(k, k).real
        if skk <= DIAGONAL_TOL:
            raise MomentConsistencyError(
                f"Re S[{k},{k}] = {skk:.3g} is not positive; moments are inconsistent"
            )
        return 1.0 / np.sqrt(TWO_PI * skk)

    rho[1] = diag_magnitude(1)  # gauge: phase of rho[1] fixed to zero
    for k in range(2, B + 1):
        if robust:
            kp = np.arange(1, k)
            blended = (rho[k - kp] / (s[k + B, kp + B] * rho[kp].conj())).sum() / (k - 1)
            if abs(blended) <= 1e-14:
                raise MomentConsistencyError(
                    f"blended marching estimate for k={k} has undefined phase"
                )
            rho[k] = diag_magnitude(k) * blended / abs(blended)
        else:
            rho[k] = rho[1] / (ent(k, k - 1) * rho[k - 1].conj())
    high = np.arange(B + 1, 2 * B + 1)
    if robust:
        rows, cols, lo, kp, starts, counts = _high_gather(B)
        terms = s[rows, cols] * rho[lo] * rho[kp]
        rho[high] = np.add.reduceat(terms, starts) / counts
    else:
        rho[high] = s[high, 0] * rho[high - B] * rho[B]

    ks = np.arange(1, B + 1)
    residuals = np.abs(TWO_PI * s[ks + B, ks + B].real * np.abs(rho[ks]) ** 2 - 1.0)
    return rho, residuals


@lru_cache(maxsize=64)
def _high_gather(B: int) -> tuple[np.ndarray, ...]:
    """Indices of the robust step for every ``k = B+1..2B`` at once, built once per ``B``.

    Each such ``k`` averages ``s[k-k', -k'] rho[k-k'] rho[k']`` over
    ``k' = k-B..B``, which reads ``rho[<= B]`` only, so one gather serves
    all of them.  Returns the row and column of each term in ``s`` (offset
    ``B``), its ``k - k'`` and ``k'``, grouped by ``k`` with ``k'``
    ascending, and the start and length of each ``k``'s group; all read-only.
    """
    high = np.arange(B + 1, 2 * B + 1)
    counts = 2 * B + 1 - high
    starts = np.cumsum(counts) - counts
    k = high.repeat(counts)
    kp = np.concatenate([np.arange(h - B, B + 1) for h in high])
    return _frozen(k - kp + B, -kp + B, k - kp, kp, starts, counts)


def _reduce_radial(s_full: np.ndarray, starts: np.ndarray, opts: FMOptions) -> np.ndarray:
    """Collapse the block ratio matrix to one entry per ``(k1, k2)``.

    ``starts`` are the block starts of ``coefficient_layout``.  Plain: take
    the ``q1 = q2 = 0`` entry of each block.  Robust: the mean over all
    radial pairs of each block.
    """
    if opts.variant == "plain":
        return s_full[np.ix_(starts, starts)]
    return radial_block_mean(s_full, starts)


def _image_layout(B: int, qk, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_layout(B, qk)`` of a recovery's ``image_shape``, checked against the moment dimension."""
    try:
        k_index, starts = coefficient_layout(B, qk)
    except ValueError:
        raise ValueError("image_shape must be (B, Q_k for k = 0..B)") from None
    if k_index.size != dim:
        raise ValueError("moment dimension does not match the image shape")
    return k_index, starts


def fm_recover_2d(
    m: MomentPair, image_shape: tuple, opts: FMOptions = FMOptions()
) -> RecoveryResult:
    """Marching recovery from block moments.

    ``image_shape`` is ``(B, radial_bandwidths)`` with ``radial_bandwidths``
    holding ``Q_k`` for ``k = 0..B``; all ``Q_k = 1`` is the 1-D model.  The
    marching recursion is plain or robust per ``opts.variant``.
    """
    B, qk = image_shape
    k_index, starts = _image_layout(B, qk, m.dim)
    m = debias(m)
    s_full, min_abs_m1, tol = _ratio_matrix(m)
    s = _reduce_radial(s_full, starts, opts)
    rho_nonneg, residuals = _march(s, B, opts)
    rho_est = RotationDistribution.from_positive(B, rho_nonneg[1:])
    x_est = m.M1 / (TWO_PI * rho_est[k_index])
    diagnostics = {
        "variant": opts.variant,
        "gauge": "rho[1] phase fixed to zero",
        "min_abs_m1": min_abs_m1,
        "tol_m1": tol,
        "residuals": residuals,
    }
    return RecoveryResult(FBImage(B, qk, x_est), rho_est, diagnostics)
