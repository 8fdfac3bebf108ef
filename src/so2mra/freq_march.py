"""Frequency-marching recovery of a signal and its rotation distribution.

The debiased second moment reduces to the ratio matrix
``S = 2*pi * D_{M1}^{-1} M2 D_{M1}^{-H}``, whose entries depend only on the
rotation distribution: ``S[k1, k2] = rho[k1-k2] / (rho[k1]*conj(rho[k2]))``
for every radial pair of the blocks ``k1`` and ``k2``.
The marching recursion then recovers ``rho[k]`` for ``k = 1..2B`` from low to
high frequency, and the signal follows from the first moment.

Both variants march in one recursion.  Each step forms the admissible
marching estimates of ``rho[k]``; the plain variant takes the last of them,
which reads a single entry of ``S``.  The robust variant averages each radial
block of ``S`` and all of the estimates with uniform weights, and pins each
magnitude for ``k <= B`` to the diagonal of ``S``, which mitigates cascading
errors on empirical moments.
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
    _image_layout,
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


def _refuse(failures: list, cells: np.ndarray, bad: np.ndarray, error, *arrays: np.ndarray) -> tuple:
    """Refuse the rows of a live stack where ``bad`` holds, and keep the rest.

    ``cells`` holds each live row's index in the stack the core was given,
    and ``failures`` one entry per cell of that stack: each refused row's
    entry becomes ``error(row)``, the exception that the one-pair recovery
    raises on that cell.  Returns ``cells`` and each of ``arrays`` with only
    the rows that remain, the arrays themselves when none is refused.
    """
    if not bad.any():
        return (cells, *arrays)
    for row in np.flatnonzero(bad):
        failures[cells[row]] = error(row)
    return tuple(a[~bad] for a in (cells, *arrays))


def _one_pair(core, m: MomentPair, image_shape: tuple, setting) -> tuple[FBImage, dict]:
    """A stacked core (``_fm_estimates``, ``spectral._spectral_estimates``) on one pair: the one-pair recoveries' path.

    Debiases a copy of ``m.M2`` in place, runs ``core`` on a stack of that
    pair alone with ``setting`` (its options or rank tolerance) and raises
    the pair's failure if it has one.  Builds and checks no debiased
    ``MomentPair``.  Returns the estimate as an ``FBImage`` and the pair's
    row of each of the core's named diagnostics.
    """
    m2 = np.array(m.M2[None])
    _debias_in_place(m2, [m.sigma])
    x_est, [failure], diagnostics = core(m.M1[None], m2, image_shape, setting)
    if failure is not None:
        raise failure
    return FBImage(*image_shape, x_est[0]), {name: rows[0] for name, rows in diagnostics.items()}


def _ratio_matrix(m1: np.ndarray, m2: np.ndarray, starts: np.ndarray, robust: bool) -> np.ndarray:
    """The reduced ``(S, 2B+1, 2B+1)`` ratio matrices of a stack of debiased pairs (``(S, d)`` and ``(S, d, d)``).

    ``starts`` are the block starts of ``coefficient_layout``.  Plain keeps
    one entry per ``(k1, k2)``, the ``q1 = q2 = 0`` one of ``S``, so only the
    block-start entries of ``M1`` and ``M2`` are divided.  Robust forms all
    of ``S`` and takes the mean over the radial pairs of each block.  Every
    ``M1`` entry must be nonzero: ``_fm_estimates`` refuses the pairs with
    one that vanishes before it calls this.
    """
    if not robust:
        m1, m2 = m1[:, starts], m2[:, starts[:, None], starts]
    s = TWO_PI * m2
    s /= m1[:, :, None] * m1.conj()[:, None, :]
    return radial_block_mean(s, starts) if robust else s


def _step_error(k: int, flat: bool, skk: float) -> MomentConsistencyError:
    """The march's refusal of a pair at step ``k``: its blend has no phase if ``flat``, else ``Re S[k,k] = skk``."""
    if flat:
        return MomentConsistencyError(f"blended marching estimate for k={k} has undefined phase")
    return MomentConsistencyError(f"Re S[{k},{k}] = {skk:.3g} is not positive; moments are inconsistent")


def _march(
    s: np.ndarray, B: int, robust: bool, failures: list, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover ``rho[0..2B]`` from each reduced ratio matrix ``S`` of a stack.

    ``s`` is ``(S, 2B+1, 2B+1)``, indexed by ``k1, k2 = -B..B`` via offset
    ``B``, and ``cells`` its rows' cells (``_refuse``).  Both variants run
    one loop over ``k`` for the whole stack.  Each step's estimates are the
    robust average's terms; plain takes the last of them, which is one entry
    of ``S``: ``rho[1] / (S[k, k-1] conj(rho[k-1]))`` for ``k <= B`` and
    ``S[k-B, -B] rho[k-B] rho[B]`` above.  A pair is refused where its
    ``Re S[1,1]`` is not positive and, for robust, at each ``k`` where its
    blended estimate has no phase or, after that, its ``Re S[k,k]`` is not
    positive; it is dropped there, before the division or the pin that
    needs the check.  Returns the remaining pairs' nonnegative-frequency
    coefficients, their per-step diagonal residuals
    ``|2*pi*Re(S[k,k])*|rho[k]|^2 - 1|`` for ``k = 1..B``, and their cells.
    Each pair's values are those of a stack of that pair alone, bit for bit.
    """
    rho = np.zeros((s.shape[0], 2 * B + 1), dtype=np.complex128)
    rho[:, 0] = UNIFORM_DENSITY
    if B == 0:
        return rho, np.zeros((s.shape[0], 0)), cells
    ks = np.arange(1, B + 1)
    diag = s[:, ks + B, ks + B].real  # Re S[k, k], k = 1..B
    # |rho[k]| is pinned by Re S[k, k], which the check before the pin leaves
    # positive; the gauge fixes the phase of rho[1] to zero.
    refused = diag[:, 0] <= DIAGONAL_TOL
    cells, s, rho, diag = _refuse(
        failures, cells, refused, lambda row: _step_error(1, False, diag[row, 0]), s, rho, diag
    )
    rho[:, 1] = 1.0 / np.sqrt(TWO_PI * diag[:, 0])
    for k in range(2, B + 1):
        # k' = first..k-1: rho[k-k'] / (S[k, k'] conj(rho[k'])), all of them
        # for robust, the last alone for plain.  Slices keep the terms in C
        # order, so each row is summed pairwise as one pair's vector is;
        # gathered, they come out in Fortran order and a row's sum is
        # rounded differently.
        first = 1 if robust else k - 1
        ratios = rho[:, k - first : 0 : -1] / (s[:, k + B, B + first : B + k] * rho[:, first:k].conj())
        if robust:
            blended = ratios.sum(axis=1) / (k - 1)
            size = np.abs(blended)
            flat = size <= 1e-14
            refused = flat | (diag[:, k - 1] <= DIAGONAL_TOL)
            live = (s, rho, diag, blended, size)
            cells, s, rho, diag, blended, size = _refuse(
                failures, cells, refused, lambda row: _step_error(k, flat[row], diag[row, k - 1]), *live
            )
            rho[:, k] = 1.0 / np.sqrt(TWO_PI * diag[:, k - 1]) * blended / size
        else:
            rho[:, k] = ratios[:, 0]
    rows, cols, lo, kp, starts, counts = _high_gather(B)
    terms = s[:, rows, cols] * rho[:, lo] * rho[:, kp]
    if robust:
        rho[:, B + 1 :] = np.add.reduceat(terms, starts, axis=1) / counts
    else:
        rho[:, B + 1 :] = terms[:, starts + counts - 1]  # k' = B

    residuals = np.abs(TWO_PI * diag * np.abs(rho[:, 1 : B + 1]) ** 2 - 1.0)
    return rho, residuals, cells


@lru_cache(maxsize=64)
def _high_gather(B: int) -> tuple[np.ndarray, ...]:
    """Indices of the marching step for every ``k = B+1..2B`` at once, built once per ``B``.

    Each such ``k`` reads the terms ``s[k-k', -k'] rho[k-k'] rho[k']`` for
    ``k' = k-B..B`` (robust averages them, plain takes ``k' = B``), which
    read ``rho[<= B]`` only, so one gather serves all of them.  Returns the
    row and column of each term in ``s`` (offset ``B``), its ``k - k'`` and
    ``k'``, grouped by ``k`` with ``k'`` ascending, and the start and length
    of each ``k``'s group; all read-only.
    """
    high = np.arange(B + 1, 2 * B + 1)
    counts = 2 * B + 1 - high
    starts = np.cumsum(counts) - counts
    k = high.repeat(counts)
    kp = np.concatenate([np.arange(h - B, B + 1) for h in high])
    return _frozen(k - kp + B, -kp + B, k - kp, kp, starts, counts)


def _fm_estimates(
    m1: np.ndarray, m2: np.ndarray, image_shape: tuple, opts: FMOptions
) -> tuple[np.ndarray, list, dict]:
    """Marching recovery of every debiased pair of a stack: ``(S, d)`` first and ``(S, d, d)`` second moments.

    A pair is refused, and dropped from the stack, at the first check it
    fails: an ``|M1|`` entry at or below ``RELATIVE_M1_TOL`` times its own
    ``max|M1|`` (the inversion guard), then the march's (``_march``).
    Returns the passing pairs' ``(P, d)`` image estimates, in order; a list
    with each pair's failure, ``None`` or the exception that
    ``fm_recover_2d`` raises on that pair (the core raises none); and the
    passing pairs' diagnostics, one row per pair: ``rho``, the ``(P, 2B+1)``
    coefficients ``rho[0..2B]``; ``min_abs_m1``, ``min|M1|``; ``tol_m1``,
    the guard; and ``residuals``, ``(P, B)``.  Each pair's values are those
    of a stack of that pair alone, bit for bit.  The estimates are not
    checked here: ``fm_recover_2d``'s value types refuse a non-finite one,
    and so does the sweep (``harness._cell_errors``).  The variant is read
    here once; ``_ratio_matrix`` and ``_march`` take it as ``robust``.
    """
    B, qk = image_shape
    k_index, starts = _image_layout(B, qk, m1.shape[1])
    robust = opts.variant == "robust"
    failures = [None] * len(m1)
    abs_m1 = np.abs(m1)
    min_abs = abs_m1.min(axis=1)
    tol = RELATIVE_M1_TOL * abs_m1.max(axis=1, initial=0.0)

    def vanishing(row: int) -> VanishingCoefficientError:
        return VanishingCoefficientError(
            f"|M1| entry {min_abs[row]:.3g} at or below the inversion guard {tol[row]:.3g}"
        )

    cells, guarded, m2 = _refuse(failures, np.arange(len(m1)), min_abs <= tol, vanishing, m1, m2)
    rho, residuals, cells = _march(_ratio_matrix(guarded, m2, starts, robust), B, robust, failures, cells)
    # rho[k] for k = -B..B, the negative ones mirrored as RotationDistribution does.
    signed = np.concatenate([rho[:, B:0:-1].conj(), rho[:, : B + 1]], axis=1)
    x_est = m1[cells] / (TWO_PI * signed[:, k_index + B])
    diagnostics = {"rho": rho, "min_abs_m1": min_abs[cells], "tol_m1": tol[cells], "residuals": residuals}
    return x_est, failures, diagnostics


def fm_recover_2d(
    m: MomentPair, image_shape: tuple, opts: FMOptions = FMOptions()
) -> RecoveryResult:
    """Marching recovery from block moments.

    ``image_shape`` is ``(B, radial_bandwidths)`` with ``radial_bandwidths``
    holding ``Q_k`` for ``k = 0..B``; all ``Q_k = 1`` is the 1-D model.  The
    marching recursion is plain or robust per ``opts.variant``.  This is the
    stacked core ``_fm_estimates`` on one pair (``_one_pair``), which raises
    the pair's failure if it has one.
    """
    signal, cell = _one_pair(_fm_estimates, m, image_shape, opts)
    diagnostics = {
        "variant": opts.variant,
        "gauge": "rho[1] phase fixed to zero",
        "min_abs_m1": float(cell["min_abs_m1"]),
        "tol_m1": float(cell["tol_m1"]),
        "residuals": cell["residuals"],
    }
    rho_est = RotationDistribution.from_positive(signal.B, cell["rho"][1:])
    return RecoveryResult(signal, rho_est, diagnostics)
