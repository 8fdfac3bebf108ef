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
from .moments import MomentPair, _debias_in_place
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


def _ratio_matrix(
    m1: np.ndarray, m2: np.ndarray, starts: np.ndarray, robust: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced ``(S, 2B+1, 2B+1)`` ratio matrices of a stack of debiased pairs (``(S, d)`` and ``(S, d, d)``).

    ``starts`` are the block starts of ``coefficient_layout``.  Plain keeps
    one entry per ``(k1, k2)``, the ``q1 = q2 = 0`` one of ``S``, so only the
    block-start entries of ``M1`` and ``M2`` are divided.  Robust forms all
    of ``S`` and takes the mean over the radial pairs of each block.
    Refuses a pair with any ``|M1|`` entry at or below ``RELATIVE_M1_TOL``
    times its own ``max|M1|``.  Also returns each pair's ``min|M1|`` and guard.
    """
    abs_m1 = np.abs(m1)
    min_abs = abs_m1.min(axis=1)
    tol = RELATIVE_M1_TOL * abs_m1.max(axis=1, initial=0.0)
    bad = np.flatnonzero(min_abs <= tol)
    if bad.size:
        raise VanishingCoefficientError(
            f"|M1| entry {min_abs[bad[0]]:.3g} at or below the inversion guard {tol[bad[0]]:.3g}"
        )
    if not robust:
        m1, m2 = m1[:, starts], m2[:, starts[:, None], starts]
    s = TWO_PI * m2
    s /= m1[:, :, None] * m1.conj()[:, None, :]
    return (radial_block_mean(s, starts) if robust else s), min_abs, tol


def _scalar_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` for complex arrays of one shape, rounded as numpy rounds a product of two complex scalars.

    numpy's array loop may fuse the multiply and add of each part, which
    changes the last bit; the scalar product rounds every real product.
    """
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _march(s: np.ndarray, B: int, opts: FMOptions) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``rho[0..2B]`` from each reduced ratio matrix ``S`` of a stack.

    ``s`` is ``(S, 2B+1, 2B+1)``, indexed by ``k1, k2 = -B..B`` via offset
    ``B``.  The loop over ``k`` runs once for the whole stack, and it raises
    if any pair fails.  Returns each pair's nonnegative-frequency
    coefficients and its per-step diagonal residuals
    ``|2*pi*Re(S[k,k])*|rho[k]|^2 - 1|`` for ``k = 1..B``.  Each pair's
    values are those of a stack of that pair alone, bit for bit.
    """
    robust = opts.variant == "robust"
    rho = np.zeros((s.shape[0], 2 * B + 1), dtype=np.complex128)
    rho[:, 0] = UNIFORM_DENSITY
    if B == 0:
        return rho, np.zeros((s.shape[0], 0))
    ks = np.arange(1, B + 1)
    diag = s[:, ks + B, ks + B].real  # Re S[k, k], k = 1..B
    inconsistent = diag <= DIAGONAL_TOL
    # |rho[k]| pinned by the diagonal; a column that is not positive is
    # refused before it is used, so its (clipped) value never is.
    magnitude = 1.0 / np.sqrt(TWO_PI * np.maximum(diag, DIAGONAL_TOL))

    def pinned(k: int) -> np.ndarray:
        if inconsistent[:, k - 1].any():
            skk = diag[inconsistent[:, k - 1], k - 1][0]
            raise MomentConsistencyError(
                f"Re S[{k},{k}] = {skk:.3g} is not positive; moments are inconsistent"
            )
        return magnitude[:, k - 1]

    rho[:, 1] = pinned(1)  # gauge: phase of rho[1] fixed to zero
    below = s[:, ks[1:] + B, ks[:-1] + B]  # S[k, k-1], k = 2..B
    for k in range(2, B + 1):
        if robust:
            # k' = 1..k-1: rho[k-k'] / (S[k, k'] conj(rho[k'])).  Slices keep
            # the terms in C order, so each row is summed pairwise as one
            # pair's vector is; gathered, they come out in Fortran order and
            # a row's sum is rounded differently.
            ratios = rho[:, k - 1 : 0 : -1] / (s[:, k + B, B + 1 : B + k] * rho[:, 1:k].conj())
            blended = ratios.sum(axis=1) / (k - 1)
            size = np.hypot(blended.real, blended.imag)  # abs() of a complex scalar, to the bit
            if (size <= 1e-14).any():
                raise MomentConsistencyError(
                    f"blended marching estimate for k={k} has undefined phase"
                )
            rho[:, k] = pinned(k) * blended / size
        else:
            rho[:, k] = rho[:, 1] / _scalar_product(below[:, k - 2], rho[:, k - 1].conj())
    high = np.arange(B + 1, 2 * B + 1)
    if robust:
        rows, cols, lo, kp, starts, counts = _high_gather(B)
        terms = s[:, rows, cols] * rho[:, lo] * rho[:, kp]
        rho[:, high] = np.add.reduceat(terms, starts, axis=1) / counts
    else:
        rho[:, high] = s[:, high, 0] * rho[:, high - B] * rho[:, B, None]

    residuals = np.abs(TWO_PI * diag * np.abs(rho[:, 1 : B + 1]) ** 2 - 1.0)
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


def _image_layout(B: int, qk, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_layout(B, qk)`` of a recovery's ``image_shape``, checked against the moment dimension."""
    try:
        k_index, starts = coefficient_layout(B, qk)
    except ValueError:
        raise ValueError("image_shape must be (B, Q_k for k = 0..B)") from None
    if k_index.size != dim:
        raise ValueError("moment dimension does not match the image shape")
    return k_index, starts


def _fm_estimates(
    m1: np.ndarray, m2: np.ndarray, image_shape: tuple, opts: FMOptions
) -> tuple[np.ndarray, ...]:
    """Marching recovery of every debiased pair of a stack: ``(S, d)`` first and ``(S, d, d)`` second moments.

    Returns the ``(S, d)`` image estimates, the ``(S, 2B+1)`` coefficients
    ``rho[0..2B]``, and each pair's ``min|M1|``, guard and residuals.  A
    failing pair raises for the whole stack; each pair's values are those of
    a stack of that pair alone, bit for bit.  The estimates are not checked
    here: ``fm_recover_2d``'s value types refuse a non-finite one, and so
    does the sweep (``harness._cell_errors``).
    """
    B, qk = image_shape
    k_index, starts = _image_layout(B, qk, m1.shape[1])
    s, min_abs_m1, tol = _ratio_matrix(m1, m2, starts, opts.variant == "robust")
    rho, residuals = _march(s, B, opts)
    # rho[k] for k = -B..B, the negative ones mirrored as RotationDistribution does.
    signed = np.concatenate([rho[:, B:0:-1].conj(), rho[:, : B + 1]], axis=1)
    x_est = m1 / (TWO_PI * signed[:, k_index + B])
    return x_est, rho, min_abs_m1, tol, residuals


def fm_recover_2d(
    m: MomentPair, image_shape: tuple, opts: FMOptions = FMOptions()
) -> RecoveryResult:
    """Marching recovery from block moments.

    ``image_shape`` is ``(B, radial_bandwidths)`` with ``radial_bandwidths``
    holding ``Q_k`` for ``k = 0..B``; all ``Q_k = 1`` is the 1-D model.  The
    marching recursion is plain or robust per ``opts.variant``.  This is the
    stacked core ``_fm_estimates`` on one pair.
    """
    B, qk = image_shape
    m2 = np.array(m.M2[None])
    _debias_in_place(m2, [m.sigma])
    x_est, rho, min_abs_m1, tol, residuals = _fm_estimates(m.M1[None], m2, image_shape, opts)
    diagnostics = {
        "variant": opts.variant,
        "gauge": "rho[1] phase fixed to zero",
        "min_abs_m1": float(min_abs_m1[0]),
        "tol_m1": float(tol[0]),
        "residuals": residuals[0],
    }
    rho_est = RotationDistribution.from_positive(B, rho[0, 1:])
    return RecoveryResult(FBImage(B, qk, x_est[0]), rho_est, diagnostics)
