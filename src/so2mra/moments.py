"""First and second moments of rotated-and-noised observations.

Closed-form population moments: with ``u[k] = 2*pi*rho[k]`` the mean of the
rotation phases, ``M1[k, .] = 2*pi*x[k, .]*rho[k]`` and
``M2[(k1, q1), (k2, q2)] = 2*pi*x[k1, q1]*conj(x[k2, q2])*rho[k1-k2]`` plus
``sigma^2`` on the diagonal.  Empirical moments average observation rows and
their rank-one outer products in a single streaming pass;
``simulate_empirical_moments`` draws them in distribution without forming rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import (
    TWO_PI,
    FBImage,
    ObservationBatch,
    RotationDistribution,
    conjugate_noise_map,
    generate_observations,
    rotation_cdf,
)

DEFAULT_CHUNK = 4096


@dataclass(frozen=True)
class MomentPair:
    """First moment vector and Hermitian second-moment matrix at noise level sigma."""

    M1: np.ndarray
    M2: np.ndarray
    sigma: float

    def __post_init__(self):
        m1 = np.asarray(self.M1, dtype=np.complex128)
        m2 = np.asarray(self.M2, dtype=np.complex128)
        if m1.ndim != 1 or m2.shape != (m1.size, m1.size):
            raise ValueError("M1 must be a vector and M2 a matching square matrix")
        if not (np.isfinite(m1).all() and np.isfinite(m2).all() and np.isfinite(self.sigma)):
            raise ValueError("M1, M2 and sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        scale = max(1.0, float(np.abs(m2).max(initial=0.0)))
        if np.abs(m2 - m2.conj().T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("M2 must be Hermitian to 1e-12 relative")
        for a in (m1, m2):
            a.flags.writeable = False
        object.__setattr__(self, "M1", m1)
        object.__setattr__(self, "M2", m2)

    @property
    def dim(self) -> int:
        return self.M1.size


def population_moments_2d(
    image: FBImage, rho: RotationDistribution, sigma: float
) -> MomentPair:
    """Exact moments of the observation model (block structure over k)."""
    if image.B != rho.B:
        raise ValueError("image and distribution bandwidths must agree")
    k_index = image.k_values
    off = 2 * rho.B
    m1 = TWO_PI * image.coeffs * rho.coeffs[k_index + off]
    t = rho.coeffs[(k_index[:, None] - k_index[None, :]) + off]
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


def empirical_moments(batch: ObservationBatch, chunk: int = DEFAULT_CHUNK) -> MomentPair:
    """Averaged first moment and rank-one-accumulated second moment of a batch."""
    if batch.n == 0:
        raise ValueError("cannot form moments of an empty batch")
    acc = MomentAccumulator(batch.data.shape[1])
    for start in range(0, batch.n, chunk):
        acc.update(batch.data[start : start + chunk])
    return acc.finalize(batch.sigma)


def debias(m: MomentPair) -> MomentPair:
    """Remove the noise contribution ``sigma^2 I`` from the second moment.

    The result has ``sigma = 0``, so debiasing it again changes no bit.  It
    is re-symmetrised so downstream Hermitian eigensolvers see an exactly
    Hermitian matrix.
    """
    m2 = m.M2 - m.sigma**2 * np.eye(m.dim)
    m2 = 0.5 * (m2 + m2.conj().T)
    return MomentPair(m.M1, m2, 0.0)


def _fourier_sums(angles: np.ndarray, order: int) -> np.ndarray:
    """``S_m = sum_i exp(1j*m*angles_i)`` for ``m = 0..order``, by recursive powers."""
    sums = np.empty(order + 1, dtype=np.complex128)
    sums[0] = angles.size
    w = np.exp(1j * angles)
    power = w.copy()
    for m in range(1, order + 1):
        sums[m] = power.sum()
        power *= w
    return sums


def _gram_from_sums(sums: np.ndarray) -> np.ndarray:
    """``G^T G`` for the rows ``g(phi) = [1, cos phi, sin phi, ..., cos B phi, sin B phi]``.

    ``sums`` holds ``S_m`` for ``m = 0..2B``.  Column ``a`` is
    ``Re(c_a exp(1j*f_a*phi))`` (``c = 1`` for cosines, ``-1j`` for sines),
    and ``Re(u) Re(v) = Re(u v + u conj(v)) / 2`` turns every entry into
    ``Re(c_a c_b S[f_a+f_b] + c_a conj(c_b) S[f_a-f_b]) / 2``.
    """
    B = (sums.size - 1) // 2
    col = np.arange(2 * B + 1)
    freq = (col + 1) // 2
    c = np.where((col % 2 == 1) | (col == 0), 1.0, -1j)
    signed = np.concatenate([sums[:0:-1].conj(), sums])  # m = -2B..2B
    plus = signed[2 * B + freq[:, None] + freq[None, :]]
    minus = signed[2 * B + freq[:, None] - freq[None, :]]
    return 0.5 * (np.outer(c, c) * plus + np.outer(c, c.conj()) * minus).real


def _design_map(signal: FBImage) -> np.ndarray:
    """Complex ``C`` (dim x (2B+1)) with ``rotate(x, phi) = C @ g(phi)``.

    ``x[k] exp(-1j*k*phi) = x[k] cos(|k| phi) - 1j*sign(k)*x[k] sin(|k| phi)``.
    """
    k = signal.k_values
    rows = np.arange(signal.size)
    design = np.zeros((signal.size, 2 * signal.B + 1), dtype=np.complex128)
    design[rows, np.maximum(2 * np.abs(k) - 1, 0)] = signal.coeffs
    nz = k != 0
    design[rows[nz], 2 * np.abs(k[nz])] = -1j * np.sign(k[nz]) * signal.coeffs[nz]
    return design


def _bartlett_factor(dim: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^T ~ Wishart_dim(dof, I)`` (Bartlett); needs ``dof >= dim``."""
    lower = np.zeros((dim, dim))
    lower[np.diag_indices(dim)] = np.sqrt(rng.chisquare(dof - np.arange(dim)))
    lower[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    return lower


def _direct_moments(signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int) -> MomentPair:
    """Generate ``n`` observations chunk-wise and stream them into moments."""
    acc = MomentAccumulator(signal.size)
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        batch = generate_observations(signal, rho, take, sigma, rng)
        acc.update(batch.data)
        remaining -= take
    return acc.finalize(sigma)


def simulate_empirical_moments(
    signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int = 65536
) -> MomentPair:
    """Draw the empirical moments of ``n`` observations, exactly in distribution.

    Row ``i`` is ``K r_i`` with ``K = [C, sigma U]`` (``_design_map``,
    ``conjugate_noise_map``) and the real ``r_i = [g(phi_i); z_i]``,
    ``z_i ~ N(0, I_d)``.  So ``M1 = K Gamma[:, 0] / n`` (``g_0 = 1``) and
    ``M2 = K Gamma K^H / n``, which is
    ``(C G^T G C^H + sigma (C G^T Z U^H + h.c.) + sigma^2 U Z^T Z U^H) / n``,
    where ``Gamma = [G Z]^T [G Z]``.  ``G^T G`` comes from the angle Fourier
    sums, accumulated over ``chunk`` angles at a time (drawn like
    ``sample_rotations`` draws them).  Given ``G``, with ``G^T G = L L^T``
    and ``W ~ N(0, 1)^{p x d}``, ``G^T Z = L W`` and
    ``Z^T Z = W^T W + Wishart_d(n - p, I)``: ``Gamma = F F^T`` with
    ``F = [[L, 0], [W^T, Bartlett factor]]``.  When ``n < p + d`` the
    Wishart term is singular and the observations are generated and
    accumulated directly, as they are if ``G^T G`` is numerically singular.
    """
    if signal.B != rho.B:
        raise ValueError("signal and distribution bandwidths must agree")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    B, dim = signal.B, signal.size
    p = 2 * B + 1
    if n < p + dim:
        return _direct_moments(signal, rho, n, sigma, rng, chunk)
    levels, nodes = rotation_cdf(rho)
    sums = np.zeros(2 * B + 1, dtype=np.complex128)
    for start in range(0, n, chunk):
        u = rng.random(min(chunk, n - start))
        # The sums ignore the order of the angles, and sorted queries make
        # the interpolation's binary searches several times faster.
        u.sort()
        sums += _fourier_sums(np.interp(u, levels, nodes), 2 * B)
    try:
        lower = np.linalg.cholesky(_gram_from_sums(sums))
    except np.linalg.LinAlgError:
        return _direct_moments(signal, rho, n, sigma, rng, chunk)
    factor = np.zeros((p + dim, p + dim))
    factor[:p, :p] = lower
    factor[p:, :p] = rng.standard_normal((dim, p))
    factor[p:, p:] = _bartlett_factor(dim, n - p, rng)
    k_map = np.concatenate([_design_map(signal), sigma * conjugate_noise_map(signal.k_values)], axis=1)
    kf = k_map @ factor
    m2 = kf @ kf.conj().T / n
    return MomentPair(kf @ factor[0] / n, 0.5 * (m2 + m2.conj().T), sigma)
