"""Spectral recovery and its perturbation-bound evaluators.

The debiased second moment, conjugated by the inverse square root of the
power spectrum, equals ``2*pi * D_xt * T * D_xt^H`` where ``xt`` is the unit
phase vector of the signal and ``T`` is the (block) Toeplitz matrix of the
rotation distribution.  When ``T`` is (block) circulant the matrix has an
eigenvector equal to ``xt`` up to a grid rotation and a global phase, which
the algorithm extracts from the most isolated eigenvalue.  When ``T`` is not
circulant, the recovery error is controlled by the Frobenius distance to the
nearest circulant through a sin-theta eigenvector perturbation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MomentConsistencyError
from .freq_march import RecoveryResult, _image_layout
from .metrics import _grid_overlap
from .moments import MomentPair, _debias_in_place
from .signal_model import (
    FBImage,
    RotationDistribution,
    TWO_PI,
    coefficient_layout,
    radial_block_mean,
    rotate_distribution,
)

RANK_TOL_POPULATION = 1e-8
RANK_TOL_EMPIRICAL = 1e-3
PHASE_ANCHOR_TOL = 1e-12
# Window inside which two candidate isolation gaps count as tied (the larger
# |lambda| wins).
TIE_TOL = 1e-12
# Relative gap under which an eigenvalue counts as degenerate when checking
# bound applicability.
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class EigOptions:
    """Numerical knobs for the eigendecomposition-based steps.

    ``rank_tol`` is the relative threshold below which eigenvalues count as
    zero in the low-rank problem (use ``RANK_TOL_EMPIRICAL`` for sampled
    moments).  It must satisfy ``0 <= rank_tol < 1`` (else ``ValueError``):
    at 1 or above no eigenvalue would pass it, and below 0 every one would.
    """

    rank_tol: float = RANK_TOL_POPULATION

    def __post_init__(self):
        if not 0 <= self.rank_tol < 1:
            raise ValueError(f"rank_tol must satisfy 0 <= rank_tol < 1, not {self.rank_tol!r}")


@dataclass(frozen=True)
class CirculantApprox:
    """First column of the circulant closest to the distribution's Toeplitz form."""

    v_opt: np.ndarray
    s_b: float


@dataclass(frozen=True)
class SpectralReport:
    """Eigen-structure of a spectral run or of a bound evaluation.

    For recovery runs only ``eigenvalues`` (descending, the scanned set),
    ``kappa`` and ``gap`` are populated.  Bound evaluators fill the circulant
    spectrum, ``delta_kappa``, ``s_b``, the error bound (``None`` when not
    applicable) and the four applicability conditions; ``inner_sign`` is
    ``None`` when no recovery was supplied to check it against.
    """

    eigenvalues: np.ndarray
    kappa: int
    gap: float
    delta_kappa: Optional[float] = None
    s_b: Optional[float] = None
    bound: Optional[float] = None
    conditions_met: Optional[dict] = None
    eigenvalues_circ: Optional[np.ndarray] = None

    def all_conditions_met(self) -> bool:
        """Whether every checked condition holds; an unchecked one counts as met."""
        if self.conditions_met is None:
            return False
        return all(v is None or bool(v) for v in self.conditions_met.values())


def circulant_project(rho: RotationDistribution) -> CirculantApprox:
    """Frobenius-closest circulant to the Toeplitz matrix of ``rho``.

    ``v_opt[k] = (k*rho[-(N-k)] + (N-k)*rho[k]) / N`` for ``N = 2B+1``, with
    the squared distance
    ``s_b = sum_k |rho[k] - rho[-(N-k)]|^2 * k*(N-k)/N``.
    """
    n = 2 * rho.B + 1
    k = np.arange(1, n)
    pos = rho[k]
    wrap = rho[k - n]
    v = np.empty(n, dtype=np.complex128)
    v[0] = rho[0]
    v[1:] = (k * wrap + (n - k) * pos) / n
    s_b = float(np.sum(np.abs(pos - wrap) ** 2 * (k * (n - k)) / n))
    return CirculantApprox(v, s_b)


def toeplitz_matrix(rho: RotationDistribution) -> np.ndarray:
    """Hermitian Toeplitz matrix ``T[k1, k2] = rho[k1 - k2]``, ``k = -B..B``."""
    k = np.arange(-rho.B, rho.B + 1)
    return rho[k[:, None] - k[None, :]]


def _neighbour_gaps(lams: np.ndarray) -> np.ndarray:
    """Distance from each eigenvalue of a sorted spectrum to its nearest
    neighbour, which is adjacent; ``inf`` for a lone eigenvalue."""
    steps = np.abs(np.diff(lams))
    return np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))


def _select_isolated(lams: np.ndarray) -> tuple[int, float]:
    """Index of the eigenvalue of a sorted spectrum with the largest isolation gap.

    Ties within ``TIE_TOL`` resolve toward the larger ``|lambda|``, then the
    smaller index, so the choice is deterministic.
    """
    gaps = _neighbour_gaps(lams)
    gmax = gaps.max()
    cand = np.flatnonzero(gaps >= gmax - TIE_TOL)
    best = cand[int(np.argmax(np.abs(lams[cand])))]
    return int(best), float(gaps[best])


def _rho_from_first_moment(
    m1: np.ndarray, x_est: np.ndarray, starts: np.ndarray, B: int
) -> RotationDistribution:
    """Estimate ``rho[k]`` for ``k = 1..B`` from ``M1 / (2*pi*x_est)``.

    Radially redundant estimates are averaged per ``k``; frequencies above
    ``B`` are not identified by this route and are reported as zero.
    """
    means = radial_block_mean(m1 / (TWO_PI * x_est), starts)
    return RotationDistribution.from_positive(B, np.concatenate([means[B + 1 :], np.zeros(B)]))


def _spectral_estimates(
    m1: np.ndarray, m2: np.ndarray, image_shape: tuple, rank_tol: float
) -> tuple[np.ndarray, list]:
    """Spectral recovery of every debiased pair of a stack: ``(S, d)`` first and ``(S, d, d)`` second moments.

    The normalisation and the eigendecomposition run once for the stack;
    the rank cut and the choice of eigenvalue differ in length from pair to
    pair, so they run pair by pair.  Returns the ``(S, d)`` image estimates
    and, per pair, the scanned eigenvalues (descending), ``kappa``, its gap
    and the phase vector ``x_tilde``.  A failing pair raises for the whole
    stack; each pair's values are those of a stack of that pair alone, bit
    for bit.
    """
    B, qk = image_shape
    _k_index, starts = _image_layout(B, qk, m1.shape[1])
    if not (np.asarray(qk) == qk[0]).all():
        raise ValueError("the spectral path requires a uniform radial bandwidth")
    anchor = int(starts[B])
    p = np.diagonal(m2, axis1=1, axis2=2).real
    low = p.min(axis=1)
    bad = np.flatnonzero(low <= 0.0)
    if bad.size:
        raise MomentConsistencyError(
            f"power-spectrum entry {low[bad[0]]:.3g} is not positive after debiasing"
        )
    inv_sqrt = 1.0 / np.sqrt(p)
    all_lams, all_vecs = np.linalg.eigh(m2 * (inv_sqrt[:, :, None] * inv_sqrt[:, None, :]))
    scale = np.sqrt(float(m1.shape[1]))
    x_est = np.empty_like(m1)
    spectra = []
    for i, (lams, vecs) in enumerate(zip(all_lams[:, ::-1], all_vecs[:, :, ::-1])):
        keep = np.flatnonzero(np.abs(lams) > rank_tol * np.abs(lams).max(initial=0.0))
        if not keep.size:
            raise MomentConsistencyError("no eigenvalue above the rank threshold")
        lams = lams[keep]
        kappa, gap = _select_isolated(lams)
        x_tilde = scale * vecs[:, keep[kappa]]
        if abs(x_tilde[anchor]) < PHASE_ANCHOR_TOL:
            raise MomentConsistencyError("phase anchor entry of the eigenvector vanishes")
        x_tilde = np.exp(1j * (np.angle(m1[i, anchor]) - np.angle(x_tilde[anchor]))) * x_tilde
        x_est[i] = np.sqrt(p[i]) * x_tilde
        spectra.append((lams, kappa, gap, x_tilde))
    return x_est, spectra


def spectral_recover_2d(
    m: MomentPair, image_shape: tuple, opts: EigOptions = EigOptions()
) -> tuple[RecoveryResult, SpectralReport]:
    """Spectral recovery from block moments (uniform radial bandwidth only).

    Only eigenvalues above ``opts.rank_tol`` (relative) are scanned for the
    most isolated one: the conjugated second moment has rank at most
    ``2B+1``, the rest of the spectrum is structural zeros.  The chosen
    eigenvector carries the signal phases up to a grid rotation and a global
    phase, which the first ``k = 0`` entry of the first moment fixes.  This
    is the stacked core ``_spectral_estimates`` on one pair.
    """
    B, qk = image_shape
    m2 = np.array(m.M2[None])
    _debias_in_place(m2, [m.sigma])
    x_est, [(lams, kappa, gap, x_tilde)] = _spectral_estimates(m.M1[None], m2, image_shape, opts.rank_tol)
    rho_est = _rho_from_first_moment(m.M1, x_est[0], coefficient_layout(B, qk)[1], B)
    result = RecoveryResult(
        FBImage(B, qk, x_est[0]),
        rho_est,
        {"x_tilde": x_tilde, "kappa": kappa, "gap": gap},
    )
    report = SpectralReport(eigenvalues=lams, kappa=kappa, gap=gap)
    return result, report


def bound_value(s_b_eff: float, delta: float, p_max: float, dim_factor: float) -> Optional[float]:
    """Evaluate ``2*dim_factor*p_max*(1 - sqrt(1 - s_b_eff/delta^2))``.

    Returns ``None`` when the bound does not apply (``s_b_eff > delta^2``).
    A zero circulant distance always yields a zero bound.  With
    ``r = s_b_eff/delta^2``, ``1 - sqrt(1 - r)`` is computed as
    ``r / (1 + sqrt(1 - r))``, which keeps full precision at small ``r``;
    the subtraction cancels there, and reads 0 below ``r`` of about 1e-16.
    """
    if s_b_eff == 0.0:
        return 0.0
    if delta <= 0.0 or s_b_eff > delta**2:
        return None
    r = s_b_eff / delta**2
    return 2.0 * dim_factor * p_max * (r / (1.0 + np.sqrt(1.0 - r)))


def _inner_sign_condition(
    x_tilde_est: np.ndarray, x_tilde_true: np.ndarray, k_index: np.ndarray, B: int
) -> bool:
    """Post-hoc check that the extracted phase vector is positively aligned
    with some grid rotation of the true one.

    The overlap ``Re vdot(est, exp(-1j*k*phi) * true)`` at the grid angles
    ``phi = 2*pi*l/(2B+1)`` is a trigonometric polynomial with coefficient
    ``sum conj(est)*true`` at frequency ``-k``, evaluated by one FFT.

    The check cannot fail for an estimate ``c * R_theta(true)`` with
    ``c > 0``, which is what the spectral recovery returns when it finds a
    rotated copy (its gauge gives the first ``k = 0`` entry the phase of
    ``M1``'s).  With unit phases and ``Q`` coefficients per ``k``, the
    overlaps are ``c * Q * D(theta - phi)`` for the real Dirichlet kernel
    ``D(t) = sum_{|k| <= B} exp(1j*k*t)``, whose values at the ``2B+1`` grid
    angles sum to ``2B+1``; so one of them is positive.  The check can only
    fail for an estimate far from every rotated copy, and in the bound sweep
    it gates nothing.
    """
    c = np.zeros(2 * B + 1, dtype=np.complex128)
    np.add.at(c, B - k_index, x_tilde_est.conj() * x_tilde_true)
    return bool(_grid_overlap(c, np.arange(-B, B + 1), 2 * B + 1).max() >= 0.0)


def davis_kahan_bound_2d(
    x: FBImage,
    rho: RotationDistribution,
    recovery: Optional[RecoveryResult] = None,
) -> SpectralReport:
    """Evaluation-side error bound for the spectral algorithm: the one-angle
    case of ``min_bound_over_rotations``, whose docstring states the bound."""
    return min_bound_over_rotations(x, rho, 1, recovery)[1]


def _nonzero_desc(lams: np.ndarray) -> np.ndarray:
    """Eigenvalues above ``RANK_TOL_POPULATION`` (relative), sorted descending."""
    lams = np.sort(lams)[::-1]
    return lams[np.abs(lams) > RANK_TOL_POPULATION * np.abs(lams).max(initial=0.0)]


def min_bound_over_rotations(
    x: FBImage,
    rho: RotationDistribution,
    grid_size: int,
    recovery: Optional[RecoveryResult] = None,
) -> tuple[float, SpectralReport]:
    """Minimise the spectral algorithm's error bound over rotated representatives of ``rho``.

    The block matrices expand each Toeplitz/circulant entry into a constant
    ``Q x Q`` block, so their nonzero spectra are ``Q * eig(T)`` and
    ``Q * Re fft(v_opt)`` (a circulant is diagonalised by the DFT); only
    eigenvalues above ``RANK_TOL_POPULATION`` (relative) count.  Where
    applicable the bound is ``2*Q*(2B+1)*P_max*(1 - sqrt(1 - Q^2*s_b/delta^2))``.

    At ``a = 2*pi*j/grid_size``, ``rho[k] -> exp(-1j*k*a)*rho[k]`` pairs with
    the image rotated by ``-a``: the moments, and hence the error, stay the
    same.  ``T`` becomes ``D T D^H`` with ``D`` unitary and diagonal, so the
    Toeplitz spectrum, kappa, its gap, ``P_max`` and ``nonvanishing`` are
    computed once; only the circulant projection moves.  ``inner_sign`` is
    checked only against a supplied recovery.  Returns the first angle with
    the smallest applicable bound and its report, or angle 0 and the
    unrotated report (``bound=None``) if no angle has one.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if x.B != rho.B:
        raise ValueError("image and distribution bandwidths must agree")
    if not x.uniform_q:
        raise ValueError("the bound requires a uniform radial bandwidth")
    B, k = rho.B, x.k_values
    q = int(x.radial_bandwidths[0])
    lam_t = _nonzero_desc(q * np.linalg.eigvalsh(toeplitz_matrix(rho)))
    kappa, gap = _select_isolated(lam_t)
    others_t = np.delete(lam_t, kappa)
    scale_t = np.abs(lam_t).max(initial=0.0)
    p_max = float(x.power_spectrum.max())
    nonvanishing = bool(np.abs(x.coeffs).min() > 1e-12 * max(1.0, np.abs(x.coeffs).max()))
    est = None if recovery is None else recovery.diagnostics.get("x_tilde")
    x_tilde = None if est is None else x.coeffs / np.abs(x.coeffs)

    best_angle, best = 0.0, None
    for j in range(grid_size):
        alpha = TWO_PI * j / grid_size
        ca = circulant_project(rotate_distribution(rho, alpha))
        s_b_eff = q**2 * ca.s_b
        # The circulant is Hermitian, so its DFT spectrum is real.
        lam_c = _nonzero_desc(q * np.fft.fft(ca.v_opt).real)
        if kappa >= lam_c.size:
            delta = 0.0  # no matching circulant eigenvalue: bound cannot apply
        else:
            others_c = np.delete(lam_c, kappa)
            d1 = np.abs(lam_c[kappa] - others_t).min() if others_t.size else np.inf
            d2 = np.abs(others_c - lam_t[kappa]).min() if others_c.size else np.inf
            delta = float(max(d1, d2))
        deg_tol = DEGENERACY_TOL * max(scale_t, np.abs(lam_c).max(initial=0.0), 1e-30)
        simple_c = kappa < lam_c.size and _neighbour_gaps(lam_c)[kappa] > deg_tol
        conditions = {
            "nonvanishing": nonvanishing,
            "simple_eigenvalues": bool(gap > deg_tol and simple_c),
            # The image rotated by -alpha has the unit phases x_tilde*exp(1j*k*alpha).
            "inner_sign": None
            if est is None
            else _inner_sign_condition(est, x_tilde * np.exp(1j * k * alpha), k, B),
            "distance_within_gap": bool(s_b_eff <= delta**2),
        }
        bound = bound_value(s_b_eff, delta, p_max, float(q * (2 * B + 1)))
        if best is None or (bound is not None and (best.bound is None or bound < best.bound)):
            report = SpectralReport(lam_t, kappa, gap, delta, ca.s_b, bound, conditions, lam_c)
            best_angle, best = alpha, report
    return best_angle, best
