"""Spectral recovery and its perturbation-bound evaluators.

The debiased second moment, conjugated by the inverse square root of the
power spectrum, equals ``2*pi * D_xt * T * D_xt^H`` where ``xt`` is the unit
phase vector of the signal and ``T`` is the (block) Toeplitz matrix of the
rotation distribution.  When ``T`` is (block) circulant the matrix has an
eigenvector equal to ``xt`` up to a grid rotation and a global phase, which
the algorithm extracts from the most isolated eigenvalue.  When ``T`` is not
circulant, the recovery error is controlled by the Frobenius distance to the
nearest circulant through a sin-theta eigenvector perturbation bound.

The recovery needs the whole spectrum (to choose the eigenvalue) but only
one eigenvector.  So a stack of moments takes its spectra from one
``eigvalsh`` call, the choice runs on the whole stack at once
(``_pick_isolated``, which the bound evaluators share), and each pair's one
eigenvector comes from inverse iteration at its chosen eigenvalue
(``_phase_vectors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MomentConsistencyError
from .freq_march import RecoveryResult, _one_pair, _refuse
from .metrics import _grid_overlap
from .moments import MomentPair
from .signal_model import (
    FBImage,
    RotationDistribution,
    TWO_PI,
    circulant_project,
    _image_layout,
    _integer,
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
# Distance of the inverse-iteration shift from the chosen eigenvalue,
# relative to the largest |lambda|: far above the rounding of the diagonal,
# far below any gap the pick can choose.
_INVERSE_SHIFT = 1e-14


def _start_vector(d: int) -> np.ndarray:
    """The inverse iteration's right-hand side: the chirp ``exp(1j*sqrt(2)*j^2)``.

    Its entries are unit phases that follow no pattern of the moments'
    layout, so no eigenvector the moments' structure produces is orthogonal
    to it, as one can be to all-ones.
    """
    return np.exp(1j * np.sqrt(2.0) * np.arange(d) ** 2)


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


def toeplitz_matrix(rho: RotationDistribution) -> np.ndarray:
    """Hermitian Toeplitz matrix ``T[k1, k2] = rho[k1 - k2]``, ``k = -B..B``."""
    k = np.arange(-rho.B, rho.B + 1)
    return rho[k[:, None] - k[None, :]]


def _isolation_gaps(lams: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rank cut of a stack of descending spectra ``(S, d)``, and each kept eigenvalue's isolation gap.

    An eigenvalue is kept when its magnitude exceeds ``rank_tol`` times its
    row's largest.  The kept ones are a prefix (``lambda > thr``) and a
    suffix (``lambda < -thr``) of the row, so they stay sorted and each one's
    nearest kept neighbour is adjacent.  Returns each row's kept eigenvalues
    moved to its front, in order; their count; and their distances to their
    nearest kept neighbour (``inf`` for a lone one, ``-inf`` past the count).
    """
    mags = np.abs(lams)
    keep = mags > rank_tol * mags.max(axis=1, initial=0.0)[:, None]
    kept = np.take_along_axis(lams, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    counts = keep.sum(axis=1)
    steps = np.abs(np.diff(kept, axis=1))
    steps[np.arange(steps.shape[1]) >= counts[:, None] - 1] = np.inf
    edge = np.full((len(lams), 1), np.inf)
    gaps = np.minimum(np.hstack([edge, steps]), np.hstack([steps, edge]))
    gaps[np.arange(gaps.shape[1]) >= counts[:, None]] = -np.inf
    return kept, counts, gaps


def _pick_isolated(lams: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The most isolated kept eigenvalue of each row of a stack of descending spectra ``(S, d)``.

    The rank cut and the gaps are ``_isolation_gaps``'s.  Gaps within
    ``TIE_TOL`` of a row's largest tie, and a tie goes to the larger
    ``|lambda|``, then to the smaller index, so the choice is deterministic.
    Returns the kept eigenvalues (at each row's front), their count, and
    each row's chosen index ``kappa`` into them and its gap.
    """
    # Every row keeps its largest |lambda|, since rank_tol < 1 (EigOptions)
    # and no caller passes a zero matrix: the spectral core's normalised M2
    # has a unit diagonal, the bound's T has rho[0] = 1/(2*pi) on its own.
    kept, counts, gaps = _isolation_gaps(lams, rank_tol)
    tied = gaps >= gaps.max(axis=1, keepdims=True) - TIE_TOL
    kappa = np.argmax(np.where(tied, np.abs(kept), -np.inf), axis=1)
    return kept, counts, kappa, gaps[np.arange(len(lams)), kappa]


def _rho_from_first_moment(
    m1: np.ndarray, x_est: np.ndarray, starts: np.ndarray, B: int
) -> RotationDistribution:
    """Estimate ``rho[k]`` for ``k = 1..B`` from ``M1 / (2*pi*x_est)``.

    Radially redundant estimates are averaged per ``k``; frequencies above
    ``B`` are not identified by this route and are reported as zero.
    """
    means = radial_block_mean(m1 / (TWO_PI * x_est), starts)
    return RotationDistribution.from_positive(B, np.concatenate([means[B + 1 :], np.zeros(B)]))


def _phase_vectors(m2: np.ndarray, p: np.ndarray, rank_tol: float) -> tuple[np.ndarray, ...]:
    """The spectral pick and its eigenvector for each pair of a stack whose power spectra ``p`` are positive.

    One ``eigvalsh`` call gives the spectra of the normalised second moments
    ``A``, and ``_pick_isolated`` chooses each pair's eigenvalue.  Only that
    eigenvector is formed, by two steps of inverse iteration from a fixed
    start ``b`` (``_start_vector``): solves of ``(A - mu*I) x = b`` with
    ``mu`` the chosen eigenvalue moved by ``_INVERSE_SHIFT * max|lambda|``.
    In the eigenbasis ``x`` has the components ``(u_j^H b) / (lambda_j - mu)``,
    so each step damps every other eigenvector against the chosen one by the
    shift over its distance to the chosen eigenvalue.  That eigenvalue is
    the best isolated by construction, so the normalised ``x`` is ``eigh``'s
    vector times a unit phase, to rounding.  One step is not enough: on
    sampled B = 10, Q = 2 moments it left up to 4.5e-13 of the other
    eigenvectors, which moved the bound sweep's smallest errors (about 1e-9)
    by 9e-9 relative; the second step squares that.  The shift keeps
    ``A - mu*I`` nonsingular when the spectrum is exactly degenerate
    (``A = c*I``).  Returns the kept eigenvalues (descending, at each row's
    front), their count, ``kappa``, its gap and the unit vectors ``x``.
    """
    size, d = p.shape
    inv_sqrt = 1.0 / np.sqrt(p)
    a = m2 * (inv_sqrt[:, :, None] * inv_sqrt[:, None, :])
    lams = np.linalg.eigvalsh(a)[:, ::-1]
    kept, counts, kappa, gap = _pick_isolated(lams, rank_tol)
    rows, diag = np.arange(size), np.arange(d)
    a[:, diag, diag] -= (kept[rows, kappa] + _INVERSE_SHIFT * np.abs(lams).max(axis=1))[:, None]
    x = _start_vector(d)
    for _ in range(2):
        # The right-hand sides have shape (S, d, 1), which numpy 1.x and 2.x
        # both read as one column per pair.
        x = np.linalg.solve(a, np.broadcast_to(x[..., None], (size, d, 1)))[:, :, 0]
        x = x / np.sqrt((x.real**2 + x.imag**2).sum(axis=1))[:, None]
    return kept, counts, kappa, gap, x


def _lapack_failure(m2: np.ndarray, p: np.ndarray, rank_tol: float) -> Optional[np.linalg.LinAlgError]:
    """The ``LinAlgError`` that ``_phase_vectors`` raises on a stack, or ``None``."""
    try:
        _phase_vectors(m2, p, rank_tol)
    except np.linalg.LinAlgError as exc:
        return exc
    return None


def _spectral_estimates(
    m1: np.ndarray, m2: np.ndarray, image_shape: tuple, rank_tol: float
) -> tuple[np.ndarray, list, dict]:
    """Spectral recovery of every debiased pair of a stack: ``(S, d)`` first and ``(S, d, d)`` second moments.

    A pair is refused, and dropped from the stack, at the first check it
    fails: a power spectrum (the diagonal of ``M2``) that is not positive,
    before its square root; a ``LinAlgError`` of its ``eigvalsh`` or of its
    solves (``_phase_vectors``); a vanishing phase anchor, the eigenvector's
    first ``k = 0`` entry.  LAPACK runs matrix by matrix, but a stacked call
    raises for the whole stack, so only when it does is each pair run alone
    to find the pairs that raise.  That path guards a LAPACK failure on
    finite moments, which has never been seen; it is no check on non-finite
    ones.  A non-finite ``M2`` must be refused before the core, as
    ``MomentPair`` and ``moments._check_pairs`` do: at ``d <= 2`` a NaN
    entry makes ``eigvalsh`` return, not raise, and a later division warns.

    Returns the passing pairs' ``(P, d)`` image estimates, in order; a list
    with each pair's failure, ``None`` or the exception that
    ``spectral_recover_2d`` raises on that pair (the core raises none); and
    the passing pairs' diagnostics, one row per pair, from
    ``_phase_vectors``: ``eigenvalues``, each spectrum with the kept ones
    first (descending); ``count``, how many are kept; ``kappa``, the chosen
    one's index into them, and ``gap``, its isolation gap; and ``x_tilde``,
    the anchored phase vector.  Every other step runs row by row, so each
    pair's values are those of a stack of that pair alone, bit for bit.
    """
    B, qk = image_shape
    _k_index, starts = _image_layout(B, qk, m1.shape[1])
    if not (np.asarray(qk) == qk[0]).all():
        raise ValueError("the spectral path requires a uniform radial bandwidth")
    anchor = int(starts[B])
    failures = [None] * len(m1)
    p = np.diagonal(m2, axis1=1, axis2=2).real
    low = p.min(axis=1)

    def nonpositive(row: int) -> MomentConsistencyError:
        return MomentConsistencyError(f"power-spectrum entry {low[row]:.3g} is not positive after debiasing")

    cells, m1, m2, p = _refuse(failures, np.arange(len(m1)), low <= 0.0, nonpositive, m1, m2, p)
    try:
        kept, counts, kappa, gap, x = _phase_vectors(m2, p, rank_tol)
    except np.linalg.LinAlgError:
        raised = [_lapack_failure(m2[i : i + 1], p[i : i + 1], rank_tol) for i in range(len(m2))]
        bad = np.array([exc is not None for exc in raised])
        cells, m1, m2, p = _refuse(failures, cells, bad, raised.__getitem__, m1, m2, p)
        kept, counts, kappa, gap, x = _phase_vectors(m2, p, rank_tol)
    x_tilde = np.sqrt(float(m1.shape[1])) * x

    def unanchored(_row: int) -> MomentConsistencyError:
        return MomentConsistencyError("phase anchor entry of the eigenvector vanishes")

    vanishing = np.abs(x_tilde[:, anchor]) < PHASE_ANCHOR_TOL
    live = (m1, p, kept, counts, kappa, gap, x_tilde)
    _cells, m1, p, kept, counts, kappa, gap, x_tilde = _refuse(failures, cells, vanishing, unanchored, *live)
    x_tilde *= np.exp(1j * (np.angle(m1[:, anchor]) - np.angle(x_tilde[:, anchor])))[:, None]
    diagnostics = {"eigenvalues": kept, "count": counts, "kappa": kappa, "gap": gap, "x_tilde": x_tilde}
    return np.sqrt(p) * x_tilde, failures, diagnostics


def spectral_recover_2d(
    m: MomentPair, image_shape: tuple, opts: EigOptions = EigOptions()
) -> tuple[RecoveryResult, SpectralReport]:
    """Spectral recovery from block moments (uniform radial bandwidth only).

    Only eigenvalues above ``opts.rank_tol`` (relative) are scanned for the
    most isolated one: the conjugated second moment has rank at most
    ``2B+1``, the rest of the spectrum is structural zeros.  The chosen
    eigenvector carries the signal phases up to a grid rotation and a global
    phase, which the first ``k = 0`` entry of the first moment fixes.  This
    is the stacked core ``_spectral_estimates`` on one pair (``_one_pair``),
    which raises the pair's failure if it has one: the report's
    ``eigenvalues`` come from ``eigvalsh``, and the eigenvector from inverse
    iteration at the chosen one, which is ``eigh``'s vector up to a unit
    phase (the anchor removes that phase), to rounding.
    """
    signal, cell = _one_pair(_spectral_estimates, m, image_shape, opts.rank_tol)
    starts = coefficient_layout(signal.B, signal.radial_bandwidths)[1]
    rho_est = _rho_from_first_moment(m.M1, signal.coeffs, starts, signal.B)
    kappa, gap = int(cell["kappa"]), float(cell["gap"])
    result = RecoveryResult(signal, rho_est, {"x_tilde": cell["x_tilde"], "kappa": kappa, "gap": gap})
    report = SpectralReport(eigenvalues=cell["eigenvalues"][: cell["count"]], kappa=kappa, gap=gap)
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
    unrotated report (``bound=None``) if no angle has one.  A bool
    ``grid_size`` is a ``TypeError``.
    """
    if _integer(grid_size, "grid_size") < 1:
        raise ValueError("grid_size must be at least 1")
    if x.B != rho.B:
        raise ValueError("image and distribution bandwidths must agree")
    if not x.uniform_q:
        raise ValueError("the bound requires a uniform radial bandwidth")
    B, k = rho.B, x.k_values
    q = int(x.radial_bandwidths[0])
    # The isolation pick on a stack of one spectrum, ascending from eigvalsh.
    lam_t = (q * np.linalg.eigvalsh(toeplitz_matrix(rho)))[None, ::-1]
    kept, counts, kappa, gap = _pick_isolated(lam_t, RANK_TOL_POPULATION)
    lam_t, kappa, gap = kept[0, : counts[0]], int(kappa[0]), float(gap[0])
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
        lam_c = np.sort(q * np.fft.fft(ca.v_opt).real)[None, ::-1]
        kept_c, count_c, gaps_c = _isolation_gaps(lam_c, RANK_TOL_POPULATION)
        lam_c = kept_c[0, : count_c[0]]
        if kappa >= lam_c.size:
            delta = 0.0  # no matching circulant eigenvalue: bound cannot apply
        else:
            others_c = np.delete(lam_c, kappa)
            d1 = np.abs(lam_c[kappa] - others_t).min() if others_t.size else np.inf
            d2 = np.abs(others_c - lam_t[kappa]).min() if others_c.size else np.inf
            delta = float(max(d1, d2))
        deg_tol = DEGENERACY_TOL * max(scale_t, np.abs(lam_c).max(initial=0.0), 1e-30)
        simple_c = kappa < lam_c.size and gaps_c[0, kappa] > deg_tol
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
