"""Frequency-marching recovery of a signal and its rotation distribution.

The debiased second moment reduces to the ratio matrix
``S = 2*pi * D_{M1}^{-1} M2 D_{M1}^{-H}``, whose entries depend only on the
rotation distribution: ``S[k1, k2] = rho[k1-k2] / (rho[k1]*conj(rho[k2]))``
for every radial pair of the blocks ``k1`` and ``k2``.
The marching recursion then recovers ``rho[k]`` for ``k = 1..2B`` from low to
high frequency, and the signal follows from the first moment.

The plain recursion uses a single entry of ``S`` per step.  The robust variant
averages all admissible entries with normalised weights and pins each
magnitude for ``k <= B`` to the diagonal of ``S``, which mitigates cascading
errors on empirical moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MomentConsistencyError, VanishingCoefficientError
from .moments import MomentPair, debias
from .signal_model import FBImage, RotationDistribution, TWO_PI, UNIFORM_DENSITY

RELATIVE_M1_TOL = 1e-10
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class FMOptions:
    """Options for the marching recursions.

    ``weights_omega[k]`` holds the weights over ``k' = 1..k-1`` used for
    ``2 <= k <= B``; ``weights_omega_tilde[k]`` the weights over
    ``k' = k-B..B`` used for ``B+1 <= k <= 2B``; ``weights_q[(k1, k2)]`` the
    radial-reduction weights of the robust variant.  Each family must sum
    to one; missing entries default to uniform weights.
    """

    variant: str = "plain"
    weights_omega: Optional[dict] = None
    weights_omega_tilde: Optional[dict] = None
    weights_q: Optional[dict] = None
    tol_m1: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("plain", "robust"):
            raise ValueError("variant must be 'plain' or 'robust'")
        for table in (self.weights_omega, self.weights_omega_tilde, self.weights_q):
            if table is None:
                continue
            for key, w in table.items():
                w = np.asarray(w, dtype=np.float64)
                if abs(w.sum() - 1.0) > 1e-12:
                    raise ValueError(f"weights for {key} must sum to one")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered signal and rotation distribution plus per-run diagnostics."""

    signal_est: FBImage
    rho_est: RotationDistribution
    diagnostics: dict


def _weights_for(table: Optional[dict], key, count: int) -> np.ndarray:
    if table is not None and key in table:
        w = np.asarray(table[key], dtype=np.float64)
        if w.size != count:
            raise ValueError(f"expected {count} weights for {key}, got {w.size}")
        return w
    return np.full(count, 1.0 / count)


def _ratio_matrix(m: MomentPair, tol_m1: Optional[float]) -> tuple[np.ndarray, float, float]:
    """Debias if needed and form ``S`` with a guard on the diagonal inversion."""
    if not m.debiased:
        m = debias(m)
    abs_m1 = np.abs(m.M1)
    min_abs = float(abs_m1.min())
    tol = RELATIVE_M1_TOL * float(abs_m1.max(initial=0.0)) if tol_m1 is None else tol_m1
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
            w = _weights_for(opts.weights_omega, k, kp.size)
            terms = rho[k - kp] / (s[k + B, kp + B] * rho[kp].conj())
            blended = np.sum(w * terms)
            if abs(blended) <= 1e-14:
                raise MomentConsistencyError(
                    f"blended marching estimate for k={k} has undefined phase"
                )
            rho[k] = diag_magnitude(k) * blended / abs(blended)
        else:
            rho[k] = rho[1] / (ent(k, k - 1) * rho[k - 1].conj())
    for k in range(B + 1, 2 * B + 1):
        if robust:
            kp = np.arange(k - B, B + 1)
            w = _weights_for(opts.weights_omega_tilde, k, kp.size)
            terms = s[k - kp + B, -kp + B] * rho[k - kp] * rho[kp]
            rho[k] = np.sum(w * terms)
        else:
            rho[k] = ent(k - B, -B) * rho[k - B] * rho[B]

    ks = np.arange(1, B + 1)
    residuals = np.abs(TWO_PI * s[ks + B, ks + B].real * np.abs(rho[ks]) ** 2 - 1.0)
    return rho, residuals


def _reduce_radial(s_full: np.ndarray, B: int, qk: np.ndarray, opts: FMOptions) -> np.ndarray:
    """Collapse the block ratio matrix to one entry per ``(k1, k2)``.

    Plain: take the ``q1 = q2 = 0`` entry of each block.  Robust: weighted
    average over all radial pairs (uniform unless ``opts.weights_q`` says
    otherwise).
    """
    ks = np.arange(-B, B + 1)
    sizes = qk[np.abs(ks)]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    if opts.variant == "plain" and opts.weights_q is None:
        idx0 = starts
        return s_full[np.ix_(idx0, idx0)]
    s = np.empty((2 * B + 1, 2 * B + 1), dtype=np.complex128)
    for i1, k1 in enumerate(ks):
        for i2, k2 in enumerate(ks):
            block = s_full[
                starts[i1] : starts[i1] + sizes[i1], starts[i2] : starts[i2] + sizes[i2]
            ]
            w = _weights_for(opts.weights_q, (int(k1), int(k2)), block.size)
            s[i1, i2] = np.sum(w.reshape(block.shape) * block)
    return s


def fm_recover_2d(
    m: MomentPair, image_shape: tuple, opts: FMOptions = FMOptions()
) -> RecoveryResult:
    """Marching recovery from block moments.

    ``image_shape`` is ``(B, radial_bandwidths)`` with ``radial_bandwidths``
    holding ``Q_k`` for ``k = 0..B``; all ``Q_k = 1`` is the 1-D model.  The
    marching recursion is plain or robust per ``opts.variant``.
    """
    B, qk = image_shape
    qk = np.asarray(qk, dtype=np.int64)
    if qk.shape != (B + 1,):
        raise ValueError("image_shape must be (B, Q_k for k = 0..B)")
    ks = np.arange(-B, B + 1)
    sizes = qk[np.abs(ks)]
    if m.dim != int(sizes.sum()):
        raise ValueError("moment dimension does not match the image shape")
    s_full, min_abs_m1, tol = _ratio_matrix(m, opts.tol_m1)
    s = _reduce_radial(s_full, B, qk, opts)
    rho_nonneg, residuals = _march(s, B, opts)
    rho_est = RotationDistribution.from_positive(B, rho_nonneg[1:])
    k_index = np.repeat(ks, sizes)
    denom = TWO_PI * rho_est.coeffs[k_index + 2 * B]
    x_est = m.M1 / denom
    diagnostics = {
        "variant": opts.variant,
        "gauge": "rho[1] phase fixed to zero",
        "min_abs_m1": min_abs_m1,
        "tol_m1": tol,
        "residuals": residuals,
    }
    return RecoveryResult(FBImage(B, qk, x_est), rho_est, diagnostics)
