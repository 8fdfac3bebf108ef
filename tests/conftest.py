"""Shared generators for randomized test instances."""

import numpy as np
import pytest

from so2mra.signal_model import (
    TWO_PI,
    FBImage,
    RotationDistribution,
    UNIFORM_DENSITY,
)


def signal_1d(coeffs, real=False):
    """1-D signal with Fourier coefficients ``x[-B..B]``: the Q_k = 1 image."""
    coeffs = np.asarray(coeffs, dtype=complex)
    B = (coeffs.size - 1) // 2
    return FBImage(B, np.ones(B + 1, dtype=np.int64), coeffs, is_real=real)


def shape_1d(B):
    """``image_shape`` of a 1-D signal of bandwidth ``B``."""
    return (B, np.ones(B + 1, dtype=np.int64))


def random_signal_1d(B, rng, real=True):
    """Non-vanishing conjugate-symmetric 1-D signal with moduli in [0.5, 1.5]."""
    mods = rng.uniform(0.5, 1.5, B)
    phases = rng.uniform(0, 2 * np.pi, B)
    pos = mods * np.exp(1j * phases)
    zero = rng.uniform(0.5, 1.5) * (1.0 if rng.integers(0, 2) else -1.0)
    coeffs = np.concatenate([pos[::-1].conj(), [zero], pos])
    return signal_1d(coeffs, real=real)


def _clamped_cdf(shift, freq, phase):
    """A trapezoid CDF table ``(levels, nodes)`` for the density ``max(cos(freq*theta + phase) + shift, 0)``.

    With ``shift < 1`` the density is clamped to zero on whole arcs, where
    the CDF is flat: runs of equal levels, intervals of zero width.  No
    ``RotationDistribution`` is clamped (one that dips below zero is
    refused), so such tables come from here, for ``inverse_cdf_table``.
    """
    nodes = np.linspace(0.0, TWO_PI, 8193)
    dens = np.maximum(np.cos(freq * nodes + phase) + shift, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    return cdf / cdf[-1], nodes


def random_rho(B, rng, min_mod=0.2, max_mod=1.0):
    """Non-vanishing rotation distribution; not necessarily a positive density."""
    mods = rng.uniform(min_mod, max_mod, 2 * B) * UNIFORM_DENSITY
    phases = rng.uniform(0, 2 * np.pi, 2 * B)
    return RotationDistribution.from_positive(B, mods * np.exp(1j * phases))


def random_image(B, Q, rng):
    """Non-vanishing real image with moduli in [0.5, 1.5]."""
    mods = rng.uniform(0.5, 1.5, B * Q)
    phases = rng.uniform(0, 2 * np.pi, B * Q)
    pos = (mods * np.exp(1j * phases)).reshape(B, Q)
    zero = rng.uniform(0.5, 1.5, Q) * np.where(rng.integers(0, 2, Q) == 0, -1.0, 1.0)
    blocks = [pos[k - 1].conj() for k in range(B, 0, -1)] + [zero.astype(complex)]
    blocks += [pos[k - 1] for k in range(1, B + 1)]
    return FBImage(B, np.full(B + 1, Q, dtype=np.int64), np.concatenate(blocks), is_real=True)


def rho_truncation(rho, B):
    """``rho`` restricted to ``k = -B..B``: the distribution of bandwidth ``B/2`` (``B`` even)."""
    assert B % 2 == 0
    return RotationDistribution.from_positive(B // 2, rho.positive_coeffs[:B])


class _Uniforms:
    """Stands in for a ``Generator``: ``random(size)`` and ``random(out=...)``
    hand out fixed uniforms in order."""

    def __init__(self, u):
        self._u, self._next = u, 0

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[...] = self._u[self._next : self._next + out.size]
        self._next += out.size
        return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
