"""First and second moments of rotated-and-noised observations.

Closed-form population moments: with ``u[k] = 2*pi*rho[k]`` the mean of the
rotation phases, ``M1[k, .] = 2*pi*x[k, .]*rho[k]`` and
``M2[(k1, q1), (k2, q2)] = 2*pi*x[k1, q1]*conj(x[k2, q2])*rho[k1-k2]`` plus
``sigma^2`` on the diagonal.  Empirical moments average observation rows and
their rank-one outer products in a single streaming pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import FBImage, ObservationBatch, RotationDistribution, TWO_PI

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
