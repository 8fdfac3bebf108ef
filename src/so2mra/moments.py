"""First and second moments of rotated-and-noised observations.

Closed-form population moments: with ``u[k] = 2*pi*rho[k]`` the mean of the
rotation phases, ``M1[k, .] = 2*pi*x[k, .]*rho[k]`` and
``M2[(k1, q1), (k2, q2)] = 2*pi*x[k1, q1]*conj(x[k2, q2])*rho[k1-k2]`` plus
``sigma^2`` on the diagonal.  Empirical moments average observation rows and
their rank-one outer products in a single streaming pass;
``simulate_empirical_moments`` draws them in distribution without forming
complex rows, as ``K F (K F)^H / n`` from one real factor ``F``.  The
sweeps draw a whole stack of trials at once (``_simulate_stack``: one
stacked Cholesky for the stack's Gram matrices, one factor stack, each
trial's draws from its own generator), and ``simulate_empirical_moments``
is that code on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal_model import (
    TWO_PI,
    FBImage,
    InverseCdf,
    RotationDistribution,
    _frozen,
    _gram_from_sums,
    _integer,
    _noise_level,
    _observation_draws,
    _readonly,
    inverse_cdf,
    observation_map,
)

DEFAULT_CHUNK = 4096
# The simulator's default chunk of angles.
_ANGLE_CHUNK = 65536


@dataclass(frozen=True)
class MomentPair:
    """First moment vector and Hermitian second-moment matrix at noise level sigma.

    ``sigma`` is kept as a float; a bool, a string or an array is a
    ``TypeError``, and a negative or non-finite one a ``ValueError``.
    """

    M1: np.ndarray
    M2: np.ndarray
    sigma: float

    def __post_init__(self):
        m1 = _readonly(self.M1, np.complex128)
        m2 = _readonly(self.M2, np.complex128)
        if m1.ndim != 1 or m2.shape != (m1.size, m1.size):
            raise ValueError("M1 must be a vector and M2 a matching square matrix")
        sigma = _noise_level(self.sigma)
        _check_pairs(m1[None], m2[None], np.array([sigma]))
        object.__setattr__(self, "M1", m1)
        object.__setattr__(self, "M2", m2)
        object.__setattr__(self, "sigma", sigma)


def _check_pairs(m1: np.ndarray, m2: np.ndarray, sigmas: np.ndarray) -> None:
    """``MomentPair``'s value checks on each pair of a stack, or ``ValueError``.

    ``m1`` is ``(S, d)``, ``m2`` is ``(S, d, d)`` and ``sigmas`` holds the
    ``S`` noise levels as floats.  Each pair must be finite, with
    ``sigma >= 0`` and ``M2`` Hermitian to 1e-12 relative to its own largest
    entry (or to 1).
    """
    if not (np.isfinite(m1).all() and np.isfinite(m2).all() and np.isfinite(sigmas).all()):
        raise ValueError("M1, M2 and sigma must be finite")
    if (sigmas < 0).any():
        raise ValueError("sigma must be nonnegative")
    scale = np.maximum(1.0, np.abs(m2).max(axis=(1, 2), initial=0.0))
    if (np.abs(m2 - m2.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) > 1e-12 * scale).any():
        raise ValueError("M2 must be Hermitian to 1e-12 relative")


def _debias_in_place(m2: np.ndarray, sigmas) -> None:
    """Replace each ``(d, d)`` matrix of a stack by ``M2 - sigma^2 I``, re-symmetrised, for its float ``sigma``.

    The same operations, in the same order, as ``(A + A^H) / 2`` for
    ``A = M2 - sigma^2 I`` formed in new arrays; in place, a stack takes
    one extra array of its size.  This and ``debias``, which calls it, own
    the symmetry of a second moment: the result is exactly Hermitian, and
    it has the same bits for an input that is Hermitian to rounding only
    (``simulate_empirical_moments``) as for that input made exactly
    Hermitian first, since each entry is ``(A_ij + conj(A_ji)) / 2`` either
    way and the diagonal's doubling and halving are exact.
    """
    # Each sigma^2 is Python's float power, as a single pair always took it;
    # off the diagonal, the subtracted zeros change no bit.
    diagonal = np.arange(m2.shape[-1])
    m2[:, diagonal, diagonal] -= np.array([sigma**2 for sigma in sigmas])[:, None]
    np.add(m2, m2.conj().transpose(0, 2, 1), out=m2)
    np.multiply(0.5, m2, out=m2)


def population_moments_2d(
    image: FBImage, rho: RotationDistribution, sigma: float
) -> MomentPair:
    """Exact moments of the observation model (block structure over k)."""
    if image.B != rho.B:
        raise ValueError("image and distribution bandwidths must agree")
    k_index = image.k_values
    m1 = TWO_PI * image.coeffs * rho[k_index]
    t = rho[k_index[:, None] - k_index[None, :]]
    m2 = TWO_PI * np.outer(image.coeffs, image.coeffs.conj()) * t
    m2 = m2 + sigma**2 * np.eye(image.size)
    return MomentPair(m1, m2, sigma)


class MomentAccumulator:
    """Streaming accumulation of first/second moments over observation rows.

    Rows may arrive in chunks of any size; each update adds the chunk's sums
    in call order, so the result is deterministic for a fixed chunking.  No
    observation matrix needs to be memory-resident.
    """

    def __init__(self, dim: int):
        self._sum1 = np.zeros(dim, dtype=np.complex128)
        self._sum2 = np.zeros((dim, dim), dtype=np.complex128)
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def update(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != self._sum1.size:
            raise ValueError("rows must be (n, dim)")
        self._sum1 += rows.sum(axis=0)
        self._sum2 += rows.T @ rows.conj()
        self._count += rows.shape[0]

    def finalize(self, sigma: float) -> MomentPair:
        if self._count == 0:
            raise ValueError("no observations accumulated")
        m1 = self._sum1 / self._count
        m2 = self._sum2 / self._count
        return MomentPair(m1, m2, sigma)


def empirical_moments(data: np.ndarray, sigma: float) -> MomentPair:
    """Moments of the ``(n, dim)`` observation rows ``data``, taken at noise level ``sigma``.

    The first moment averages the rows and the second their rank-one outer
    products, fed to a ``MomentAccumulator`` ``DEFAULT_CHUNK`` rows at a time.
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim != 2:
        raise ValueError("data must be a (n, dim) matrix")
    acc = MomentAccumulator(data.shape[1])
    for start in range(0, data.shape[0], DEFAULT_CHUNK):
        acc.update(data[start : start + DEFAULT_CHUNK])
    return acc.finalize(sigma)


def debias(m: MomentPair) -> MomentPair:
    """Remove the noise contribution ``sigma^2 I`` from the second moment.

    The result has ``sigma = 0``, so debiasing it again changes no bit.  It
    is re-symmetrised (``_debias_in_place``) so downstream Hermitian
    eigensolvers see an exactly Hermitian matrix; this runs at ``sigma = 0``
    too, since a population or simulated ``M2`` is Hermitian only to
    rounding.
    """
    m2 = np.array(m.M2[None])
    _debias_in_place(m2, [m.sigma])
    return MomentPair(m.M1, m2[0], 0.0)


def _angle_scratch(n: int, order: int, chunk: int) -> tuple:
    """The four scratch arrays of ``_angle_sums`` for ``n`` angles, sums up to ``order`` and draws of ``chunk``; contents undefined.

    The uniforms (reused for the lookup's gathers and the offset powers),
    the offsets and the int64 cell indices (which first hold each angle's
    CDF interval) are ``min(chunk, n)`` long, and the table is
    ``terms x cells``.  ``cells`` is the power of two nearest ``n / 8``
    (about eight angles per cell), clamped to ``[512, 8192]`` (with fewer
    cells, the extra Taylor terms cost more than the shorter FFTs save)
    and then doubled until it is at least ``4 * order``.  So
    ``|m * delta| <= x = order * pi / cells <= pi / 4``, and ``terms - 1``
    is the smallest ``R >= 1`` with ``x^(R+1) / (R+1)! <= 1e-15``, which
    bounds each angle's truncation error.  At the default chunk and
    B = 10, n >= 65,536, that is three 512 KiB arrays and a 384 KiB
    (``6 x 8192``) table.
    """
    cells = 1 << min(max(round(math.log2(n / 8)), 9), 13)
    while cells < 4 * order:
        cells *= 2
    x = order * math.pi / cells
    terms, bound = 2, x * (x / 2)
    while bound > 1e-15:
        terms += 1
        bound *= x / terms
    size = min(chunk, n)
    return np.empty(size), np.empty(size), np.empty(size, np.int64), np.empty((terms, cells))


def _angle_sums(table: InverseCdf, n: int, order: int, rng: np.random.Generator, scratch: tuple) -> np.ndarray:
    """``S_m = sum_i exp(1j*m*a_i)``, ``m = 0..order``, over ``n`` angles drawn like ``sample_rotations``.

    ``scratch`` is ``_angle_scratch(n, order, chunk)``, which fixes the
    chunk and the grid.  The angles are ``inverse_cdf`` of ``chunk``
    uniforms at a time, in the order drawn, so the random stream and each
    angle are ``sample_rotations``'.  They are gridded, not summed one by
    one: angle ``a`` falls in cell ``j = floor(a / h)`` with centre
    ``c_j = (j + 1/2) h``, ``h = 2 pi / cells``, and offset
    ``delta = a - c_j``.  ``np.bincount`` accumulates the offset powers
    ``P[r, j] = sum (delta / h)^r``, ``r < terms``, and a Taylor expansion
    of ``exp(1j*m*delta)`` gives
    ``S_m = exp(1j*m*h/2) sum_r (1j*m*h)^r / r! * sum_j P[r, j] exp(2j*pi*m*j/cells)``,
    one ``rfft`` per power (the gridding step of a non-uniform FFT: Dutt and
    Rokhlin, SIAM J. Sci. Comput. 1993).  The work is O(n * terms) for the
    powers plus ``terms`` real FFTs of ``cells`` points.

    Every scratch array is filled in place, so a call allocates only
    ``rfft``'s output and small temporaries (the lookup's boolean masks,
    ``np.bincount``'s ``cells``-long counts), and the caller may hand the
    same scratch to its next call.  The draws and the operations are those
    of the same loop on fresh arrays with ``np.interp`` in place of the
    lookup, so the sums are bit for bit the same.
    """
    uniform, offset_buf, cell_buf, power_sums = scratch
    terms, cells = power_sums.shape
    chunk = uniform.size
    power_sums.fill(0.0)
    rows = list(power_sums)
    for start in range(0, n, chunk):
        take = min(chunk, n - start)
        u, offset, cell = uniform[:take], offset_buf[:take], cell_buf[:take]
        rng.random(out=u)
        # The cell array receives each angle's CDF interval, then its grid cell.
        inverse_cdf(table, u, offset, cell)
        offset *= cells / TWO_PI
        np.copyto(cell, offset, casting="unsafe")
        offset -= cell
        offset -= 0.5
        # An angle of exactly 2*pi is the angle 0, at the same offset from cell 0's centre.
        cell &= cells - 1
        rows[0] += np.bincount(cell, minlength=cells)
        rows[1] += np.bincount(cell, offset, cells)
        power = np.multiply(offset, offset, out=u)
        for r in range(2, terms):
            rows[r] += np.bincount(cell, power, cells)
            if r + 1 < terms:
                power *= offset
    # rfft's phases are exp(-2j*pi*m*j/cells), the conjugates of the ones
    # wanted, so the series is summed with conjugate coefficients and
    # conjugated once: steps[r - 1, m] = -1j*m*h / r, and their running
    # products are (-1j*m*h)^r / r!.
    steps = np.arange(order + 1) * (-1j * TWO_PI / cells) / np.arange(1, terms)[:, None]
    spec = np.fft.rfft(power_sums, axis=1)[:, : order + 1]
    sums = spec[0] + np.einsum("rm,rm->m", np.cumprod(steps, axis=0), spec[1:])
    return np.exp(-0.5 * steps[0]) * sums.conj()


def _bartlett_factor(dim: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^T ~ Wishart_dim(dof, I)`` (Bartlett); needs ``dof >= dim``."""
    lower = np.zeros((dim, dim))
    lower[np.diag_indices(dim)] = np.sqrt(rng.chisquare(dof - np.arange(dim)))
    lower[_strict_lower(dim)] = rng.standard_normal(dim * (dim - 1) // 2)
    return lower


@lru_cache(maxsize=64)
def _strict_lower(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(dim, -1)``, built once per ``dim`` and read-only."""
    return _frozen(*np.tril_indices(dim, -1))


def _gram_roots(grams: np.ndarray) -> np.ndarray:
    """A real ``L`` with ``L L^T = G`` for each matrix ``G`` of a ``(T, p, p)`` stack of Gram matrices.

    One stacked Cholesky factorisation.  If it fails, each matrix is taken
    alone, and one that fails alone gets its eigenvalue root
    ``V sqrt(max(lambda, 0))``: ``G`` itself within rounding when the
    matrix is numerically singular.  So each matrix's ``L`` has the bits it
    has in a stack of one.
    """
    try:
        return np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if len(grams) > 1:
            return np.array([_gram_roots(gram[None])[0] for gram in grams])
    lam, vec = np.linalg.eigh(grams[0])
    return (vec * np.sqrt(np.maximum(lam, 0.0)))[None]


def _simulate_stack(trials, n: int, chunk: int = _ANGLE_CHUNK) -> tuple:
    """The empirical moments of ``n`` observations for each trial of a stack, exactly in distribution.

    ``trials`` yields ``(signal, rho, rng, sigmas)``: signals of one
    coefficient layout, each trial's own generator, and its noise levels as
    floats.  It is read once, trial by trial, and a trial's ``rho`` is let
    go once its angles are drawn; a ``rho`` that cannot be sampled raises
    ``NotSampleableError``, as in ``simulate_empirical_moments``.  Returns
    ``(m1, m2)``: the ``(C, d)`` first and ``(C, d, d)`` second moments of
    every trial's cells, trial by trial and, within a trial, in the order
    of its ``sigmas`` (empty stacks when ``trials`` yields none).
    ``simulate_empirical_moments``, which documents the factor ``F``, is
    this function on a stack of one, and a cell has the bits it has there
    on a fresh copy of its trial's generator: the stack changes no draw and
    no operation of a cell.

    Each trial draws its angles, then ``W``, then its Bartlett block, from
    its own generator, as ``simulate_empirical_moments`` does.  The Gram
    matrices form one stack with one Cholesky call (``_gram_roots``), the
    factors one ``(T, p + d, min(n, p + d))`` stack, and each cell's
    moments are written into the returned stacks in place.  The stack owns
    the angle sums' scratch (``_angle_scratch``): its trials share ``n``,
    ``chunk`` and the order ``2B``, so one allocation, made at the first
    trial that draws angle sums, serves every trial and is freed when the
    call returns.  ``n`` and ``chunk`` are integers (``_integer``: a bool is
    a ``TypeError``).
    """
    n, chunk = _integer(n, "n"), _integer(chunk, "chunk")
    if n < 1 or chunk < 1:
        raise ValueError("n and chunk must be positive integers")
    firsts, kept, scratch = [], [], None
    for signal, rho, rng, sigmas in trials:
        if signal.B != rho.B:
            raise ValueError("signal and distribution bandwidths must agree")
        p, dim = 2 * signal.B + 1, signal.size
        if n < p + dim:
            firsts.append(_observation_draws(signal, rho, n, rng).T)
        else:
            if scratch is None:
                scratch = _angle_scratch(n, 2 * signal.B, chunk)
            firsts.append(_angle_sums(rho.sampler, n, 2 * signal.B, rng, scratch))
        kept.append((signal, rng, sigmas))
    if not kept:
        return np.empty((0, 0), np.complex128), np.empty((0, 0, 0), np.complex128)
    if n < p + dim:
        factors = np.array(firsts)
    else:
        factors = np.zeros((len(kept), p + dim, p + dim))
        factors[:, :p, :p] = _gram_roots(_gram_from_sums(np.array(firsts)))
        for factor, (_signal, rng, _sigmas) in zip(factors, kept):
            factor[p:, :p] = rng.standard_normal((dim, p))
            factor[p:, p:] = _bartlett_factor(dim, n - p, rng)
    m1 = np.empty((sum(len(sigmas) for *_, sigmas in kept), dim), dtype=np.complex128)
    m2 = np.empty((len(m1), dim, dim), dtype=np.complex128)
    cell = 0
    for factor, (signal, _rng, sigmas) in zip(factors, kept):
        for sigma in sigmas:
            kf = observation_map(signal, sigma) @ factor
            np.divide(np.matmul(kf, factor[0], out=m1[cell]), n, out=m1[cell])
            np.divide(np.matmul(kf, kf.conj().T, out=m2[cell]), n, out=m2[cell])
            cell += 1
    return m1, m2


def simulate_empirical_moments(
    signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int = _ANGLE_CHUNK
) -> MomentPair:
    """Draw the empirical moments of ``n`` observations, exactly in distribution.

    Row ``i`` is ``K r_i`` with ``K = [C, sigma U]`` (``observation_map``, which
    ``generate_observations`` also uses) and the real ``r_i = [g(phi_i); z_i]``,
    ``z_i ~ N(0, I_d)``.  Every call forms one real ``F`` with
    ``F F^T = Gamma = [G Z]^T [G Z]`` and returns ``M1 = K F F[0] / n``
    (``g_0 = 1``) and ``M2 = K F (K F)^H / n``, which is Hermitian to
    rounding, not exactly: debiasing symmetrises it (``debias``).  When
    ``n < p + d`` (``p = 2B + 1``), ``F = [G Z]^T`` for the draws of
    ``signal_model._observation_draws``, which ``generate_observations``
    also reads.
    Otherwise ``G^T G`` comes from the gridded angle Fourier sums of
    ``_angle_sums``, whose ``n`` angles are drawn ``chunk`` at a time from
    the random stream of ``sample_rotations``, at O(n) per Taylor term, not
    O(n B).  Given ``G``, with ``G^T G = L L^T`` and ``W ~ N(0, 1)^{p x d}``,
    ``G^T Z = L W`` and ``Z^T Z = W^T W + Wishart_d(n - p, I)``:
    ``F = [[L, 0], [W^T, Bartlett factor]]``.  ``L`` is the Cholesky factor
    or, if ``G^T G`` is numerically singular, its eigenvalue root
    ``V sqrt(max(lambda, 0))``: exact when ``G`` has full column rank, and
    otherwise ``G^T G`` within rounding.  Any such ``L`` gives the same law.
    No draw depends on ``sigma``, which sets only ``K``.  A ``rho`` that
    cannot be sampled raises ``NotSampleableError`` (``rho.sampler``'s
    refusal) before any draw.

    This is ``_simulate_stack``, the sweeps' simulator, on a stack of one
    trial with one noise level, so each call allocates its own angle-sum
    scratch and frees it on return: at B = 10 and n >= 65,536, about
    1.9 MiB (three 65,536-element arrays and the ``6 x 8192`` table),
    more for a larger ``chunk`` or bandwidth.  A bool ``n`` or ``chunk``
    is a ``TypeError``.
    """
    sigma = _noise_level(sigma)
    m1, m2 = _simulate_stack([(signal, rho, rng, (sigma,))], n, chunk)
    return MomentPair(m1[0], m2[0], sigma)
