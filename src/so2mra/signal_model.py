"""Domain types and samplers for rotational alignment in coefficient space.

Everything lives in coefficient space: images as steerable (angular/radial)
coefficients ``x[k, q]`` over ``{(k, q): -B <= k <= B, 0 <= q < Q_k}`` (a 1-D
signal on the circle is the case ``Q_k = 1``), and rotation
distributions as Fourier coefficients ``rho[k]`` for ``k = -2B..2B`` of a
density on ``[0, 2*pi)``.  An in-plane rotation by ``phi`` acts on a
coefficient with angular index ``k`` as multiplication by ``exp(-1j*k*phi)``.

Conventions:

* ``rho[k] = (1/2pi) * integral rho(theta) exp(-1j*k*theta) dtheta``, hence
  ``rho[0] == 1/(2*pi)`` and ``E[exp(-1j*k*phi)] == 2*pi*rho[k]`` for a
  random angle ``phi`` with density ``rho``.
* The density is synthesised as ``rho(theta) = sum_k rho[k] exp(1j*k*theta)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

from .errors import DegenerateDrawError, NotSampleableError

TWO_PI = 2.0 * np.pi
UNIFORM_DENSITY = 1.0 / TWO_PI

# Number of subintervals of [0, 2*pi] used for density evaluation, positivity
# checks and inverse-CDF rotation sampling.
DENSITY_GRID_SIZE = 8192


def _readonly(a, dtype=None) -> np.ndarray:
    """A read-only copy of ``a`` (as ``dtype``), so no array of the caller's can change what is kept."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only in place: for arrays that a cache hands to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _noise_level(sigma) -> float:
    """``sigma`` as a float, the one noise-level rule of every entry point.

    A bool, or anything but one real number, is a ``TypeError``; a value
    that is not finite and nonnegative is a ``ValueError``.
    """
    if isinstance(sigma, (bool, np.bool_)) or not isinstance(sigma, numbers.Real):
        raise TypeError(f"sigma must be a real number, not {sigma!r}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and nonnegative")
    return sigma


def _conj_tol(coeffs: np.ndarray) -> float:
    """Absolute tolerance of the conjugate-symmetry checks."""
    return 1e-12 * max(1.0, float(np.abs(coeffs).max(initial=0.0)))


def _check_conj_symmetric(coeffs: np.ndarray, what: str) -> None:
    if np.abs(coeffs - coeffs[::-1].conj()).max(initial=0.0) > _conj_tol(coeffs):
        raise ValueError(f"{what} requires conjugate-symmetric coefficients")


def coefficient_layout(B: int, radial_bandwidths) -> tuple[np.ndarray, np.ndarray]:
    """Angular index of every flat coefficient of an ``FBImage``, and the start of each block ``k = -B..B``.

    ``radial_bandwidths`` is checked on every call; the two arrays are built
    once per ``(B, Q_k)`` and shared, so they are read-only.
    """
    if B < 0:
        raise ValueError("bandwidth must be nonnegative")
    qk = np.asarray(radial_bandwidths)
    if qk.dtype.kind == "f" and np.isfinite(qk).all() and (qk == np.round(qk)).all():
        qk = qk.astype(np.int64)  # integral floats such as 2.0
    if qk.dtype.kind not in "iu" or qk.shape != (B + 1,) or qk.min() < 1:
        raise ValueError("radial_bandwidths must hold Q_k >= 1 for k = 0..B")
    return _cached_layout(B, tuple(qk.tolist()))


@lru_cache(maxsize=256)
def _cached_layout(B: int, qk: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_layout`` of checked bandwidths, as read-only arrays."""
    sizes = np.array(qk[:0:-1] + qk)  # Q_|k| for k = -B..B
    return _frozen(np.arange(-B, B + 1).repeat(sizes), sizes.cumsum() - sizes)


def radial_block_mean(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean over each radial block ``starts`` begins, of a flat vector, a square matrix or a stack of matrices.

    A vector is reduced along its one axis; a square matrix, or each matrix
    of a stack ``(S, d, d)``, along its two.
    """
    axes = range(max(a.ndim - 2, 0), a.ndim)
    sizes = np.add.reduceat(np.ones(a.shape[-1], dtype=np.int64), starts)
    for axis in axes:
        a = np.add.reduceat(a, starts, axis=axis)
    return a / reduce(np.multiply.outer, [sizes] * len(axes))


@dataclass(frozen=True)
class FBImage:
    """Bandlimited 2-D image as steerable coefficients ``x[k, q]``.

    ``radial_bandwidths[|k|]`` gives the number of radial coefficients
    ``Q_k`` for each angular frequency (symmetric in k).  Coefficients are
    stored flat in lexicographic order: blocks ``k = -B..B``, each holding
    ``q = 0..Q_|k|-1``.  A 1-D signal with Fourier coefficients ``x[k]`` is the
    image with every ``Q_k = 1``, so ``x[k]`` is ``x[k, 0]``.
    """

    B: int
    radial_bandwidths: np.ndarray
    coeffs: np.ndarray
    is_real: bool = False

    def __post_init__(self):
        k_index, starts = coefficient_layout(self.B, self.radial_bandwidths)
        qk = _readonly(self.radial_bandwidths, np.int64)  # exact: the layout checked it
        coeffs = _readonly(self.coeffs, np.complex128)
        if coeffs.shape != k_index.shape:
            raise ValueError(f"expected {k_index.size} coefficients, got shape {coeffs.shape}")
        _check_finite(coeffs, "image coefficients")
        object.__setattr__(self, "radial_bandwidths", qk)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_layout", (k_index, starts))
        if self.is_real:
            mismatch = max(
                np.abs(coeffs[_negative_partners(k_index)] - coeffs[k_index > 0].conj()).max(initial=0.0),
                np.abs(coeffs[k_index == 0].imag).max(),
            )
            if mismatch > _conj_tol(coeffs):
                raise ValueError("a real image requires x[-k, q] == conj(x[k, q])")

    @property
    def size(self) -> int:
        return self.coeffs.size

    @property
    def k_values(self) -> np.ndarray:
        """Angular index of every flat coefficient, in storage order (read-only)."""
        return self._layout[0]

    @property
    def uniform_q(self) -> bool:
        return bool((self.radial_bandwidths == self.radial_bandwidths[0]).all())

    def block_start(self, k: int) -> int:
        if abs(k) > self.B:
            raise IndexError(f"angular index {k} outside -{self.B}..{self.B}")
        return int(self._layout[1][k + self.B])

    def block(self, k: int) -> np.ndarray:
        start = self.block_start(k)
        return self.coeffs[start : start + int(self.radial_bandwidths[abs(k)])]

    def __getitem__(self, kq: tuple) -> complex:
        k, q = kq
        start, size = self.block_start(k), int(self.radial_bandwidths[abs(k)])
        if not 0 <= q < size:
            raise IndexError(f"radial index {q} outside 0..{size - 1}")
        return self.coeffs[start + q]

    @property
    def power_spectrum(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    @cached_property
    def _observation_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The sigma-free blocks ``C`` and ``U`` of ``observation_map``, built on first use and read-only."""
        return _frozen(_design_map(self), conjugate_noise_map(self.k_values))


@dataclass(frozen=True)
class RotationDistribution:
    """Density on ``[0, 2*pi)`` stored as Fourier coefficients ``rho[-2B..2B]``.

    The DC coefficient is pinned to ``1/(2*pi)`` and negative frequencies are
    mirrored from the positive ones, so normalisation and conjugate symmetry
    hold exactly.  ``sampleable`` says whether the synthesised density is
    nonnegative on the evaluation grid; the grid is synthesised on first
    use only.
    """

    B: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.B < 0:
            raise ValueError("bandwidth must be nonnegative")
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (4 * self.B + 1,):
            raise ValueError(
                f"expected {4 * self.B + 1} coefficients, got shape {coeffs.shape}"
            )
        _check_finite(coeffs, "rotation density coefficients")
        dc = coeffs[2 * self.B]
        if abs(dc - UNIFORM_DENSITY) > 1e-12:
            raise ValueError("rho[0] must equal 1/(2*pi)")
        _check_conj_symmetric(coeffs, "a rotation density")
        # Re-pin DC and mirror negatives so both invariants hold exactly.
        pos = coeffs[2 * self.B + 1 :]
        full = np.concatenate([pos[::-1].conj(), [UNIFORM_DENSITY + 0.0j], pos])
        object.__setattr__(self, "coeffs", _readonly(full))

    @classmethod
    def uniform(cls, B: int) -> "RotationDistribution":
        coeffs = np.zeros(4 * B + 1, dtype=np.complex128)
        coeffs[2 * B] = UNIFORM_DENSITY
        return cls(B, coeffs)

    @classmethod
    def from_positive(cls, B: int, positive_coeffs: np.ndarray) -> "RotationDistribution":
        """Build from the coefficients for ``k = 1..2B``; the rest is implied."""
        pos = np.asarray(positive_coeffs, dtype=np.complex128)
        if pos.shape != (2 * B,):
            raise ValueError(f"expected {2 * B} positive-frequency coefficients")
        full = np.concatenate([pos[::-1].conj(), [UNIFORM_DENSITY + 0.0j], pos])
        return cls(B, full)

    def __getitem__(self, k):
        """``rho[k]`` for an integer ``k`` or an integer array of them, in ``-2B..2B``."""
        if (np.abs(k) > 2 * self.B).any():
            raise IndexError(f"frequency outside -{2 * self.B}..{2 * self.B}")
        return self.coeffs[k + 2 * self.B]

    @property
    def k_values(self) -> np.ndarray:
        """Frequency of every stored coefficient, ``-2B..2B``."""
        return np.arange(-2 * self.B, 2 * self.B + 1)

    @property
    def positive_coeffs(self) -> np.ndarray:
        """Coefficients for ``k = 1..2B``."""
        return self.coeffs[2 * self.B + 1 :]

    def density(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate the density at arbitrary angles."""
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        return (np.exp(1j * np.outer(theta, self.k_values)) @ self.coeffs).real

    @cached_property
    def density_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Density on the closed uniform grid ``theta_j = 2*pi*j/M``, ``j = 0..M``.

        Uses an FFT synthesis, computed once and read-only; the final node
        repeats the first (periodicity) so the result is directly usable for
        trapezoidal integration.  ``np.add.at`` sums the coefficients that
        alias onto one FFT bin when ``4B+1 > M``.
        """
        m = DENSITY_GRID_SIZE
        buf = np.zeros(m, dtype=np.complex128)
        np.add.at(buf, self.k_values % m, self.coeffs)
        dens = (np.fft.ifft(buf) * m).real
        return _frozen(np.linspace(0.0, TWO_PI, m + 1), np.concatenate([dens, dens[:1]]))

    @cached_property
    def cdf_levels(self) -> Optional[np.ndarray]:
        """Normalised CDF at the ``density_grid`` nodes, computed once and read-only.

        The density is clamped at zero and integrated with the trapezoid
        rule, so the table stays monotone for a density that dips below zero,
        which ``rotation_cdf`` refuses.  ``None`` when the clamped density has
        no mass on the grid.
        """
        nodes, dens = self.density_grid
        dens = np.maximum(dens, 0.0)
        dtheta = nodes[1] - nodes[0]
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dtheta)])
        total = cdf[-1]
        if total <= 0.0:
            return None
        levels = cdf / total
        levels.flags.writeable = False
        return levels

    @cached_property
    def min_density(self) -> float:
        """Minimum of the density on the evaluation grid."""
        return float(self.density_grid[1].min())

    @property
    def sampleable(self) -> bool:
        return bool(self.min_density >= 0.0)


def make_experiment_signal_2d(B: int, Q: int, rng: np.random.Generator) -> FBImage:
    """Random real image with unit-modulus coefficients and uniform phases.

    All ``|x[k, q]| == 1``; phases for ``k > 0`` are uniform on ``[0, 2*pi)``,
    the ``k = 0`` coefficients are real with a uniformly random sign, and
    negative frequencies mirror the positive ones by conjugation.
    """
    if B < 0 or Q < 1:
        raise ValueError("need B >= 0 and Q >= 1")
    pos = np.exp(1j * rng.uniform(0.0, TWO_PI, size=B * Q))  # blocks k = 1..B
    signs = np.where(rng.integers(0, 2, size=Q) == 0, -1.0, 1.0)
    coeffs = np.concatenate([pos.reshape(B, Q)[::-1].conj().ravel(), signs, pos])
    return FBImage(B, np.full(B + 1, Q, dtype=np.int64), coeffs, is_real=True)


def make_experiment_distribution(
    B: int, rng: np.random.Generator, tol_pos: float = 0.0
) -> RotationDistribution:
    """Random nonnegative density whose Toeplitz form is exactly circulant.

    Real and imaginary parts of ``rho[k]``, ``k = 1..2B``, are drawn uniformly
    on ``[0, 1]``; each coefficient pair ``(k, -(2B+1-k))`` is replaced by its
    closest circulant-compatible value (the Frobenius-optimal weighted
    average), which forces the circulant distance to vanish.  The non-DC
    coefficients are then shrunk by the largest ``gamma`` in ``(0, 1]`` that
    keeps the density at or above ``tol_pos`` on the evaluation grid;
    shrinking is linear, so circulant compatibility is preserved.  The floor
    binds this draw only: what is derived from it must itself be nonnegative.
    """
    if B < 1:
        raise ValueError("need B >= 1")
    if not tol_pos >= 0.0:
        raise ValueError("tol_pos must be nonnegative")
    re = rng.random(2 * B)
    im = rng.random(2 * B)
    pos = re + 1j * im  # k = 1..2B
    n = 2 * B + 1
    # Closest circulant-compatible coefficients: for each k the pair
    # (rho[k], rho[-(n-k)]) collapses onto the weighted average
    # (k*rho[-(n-k)] + (n-k)*rho[k]) / n, mirrored conjugately.
    k = np.arange(1, n)
    pos = (k * pos[::-1].conj() + (n - k) * pos) / n

    if tol_pos > UNIFORM_DENSITY:
        raise DegenerateDrawError("positivity target exceeds the uniform density level")
    # The grid density is 1/(2*pi) + gamma*f(theta), affine in gamma, so the
    # largest feasible gamma is closed-form.  The relative 1e-12 shrink keeps
    # the rounded grid minimum at or above tol_pos.
    min_full = RotationDistribution.from_positive(B, pos).min_density
    if min_full >= tol_pos:
        gamma = 1.0
    else:
        gamma = (UNIFORM_DENSITY - tol_pos) / (UNIFORM_DENSITY - min_full) * (1.0 - 1e-12)
    if gamma <= 1e-6:
        raise DegenerateDrawError("no usable positive rescaling found for this draw")
    return RotationDistribution.from_positive(B, gamma * pos)


def perturb_distribution(rho: RotationDistribution, eta: float) -> RotationDistribution:
    """Phase-twist the positive coefficients: ``rho[k] -> exp(1j*eta*sqrt(k))*rho[k]``.

    Negative frequencies are re-mirrored by conjugation and the DC term is
    untouched.  Positivity is re-checked; the result may be non-sampleable.
    """
    k = np.arange(1, 2 * rho.B + 1)
    pos = rho.positive_coeffs * np.exp(1j * eta * np.sqrt(k))
    return RotationDistribution.from_positive(rho.B, pos)


def rotate_distribution(rho: RotationDistribution, angle: float) -> RotationDistribution:
    """Shift the density: acts on coefficients as ``rho[k] -> exp(-1j*k*angle)*rho[k]``."""
    k = np.arange(1, 2 * rho.B + 1)
    pos = rho.positive_coeffs * np.exp(-1j * k * angle)
    return RotationDistribution.from_positive(rho.B, pos)


def rotate_signal(signal: FBImage, angle: float) -> FBImage:
    """Rotate an image: ``x[k, .] -> x[k, .] * exp(-1j*k*angle)``."""
    coeffs = signal.coeffs * np.exp(-1j * signal.k_values * angle)
    return FBImage(signal.B, signal.radial_bandwidths, coeffs, signal.is_real)


def rotation_cdf(rho: RotationDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Grid inverse-CDF table: ``np.interp(u, levels, nodes)`` maps uniform ``u`` to angles.

    ``levels`` is ``rho.cdf_levels`` and ``nodes`` the ``density_grid`` nodes,
    both built once per distribution and read-only; the checks run on every call.
    """
    if not rho.sampleable:
        raise NotSampleableError(f"density dips to {rho.min_density:.3g}, below zero")
    levels = rho.cdf_levels
    if levels is None:
        raise NotSampleableError("density has no positive mass on the grid")
    return levels, rho.density_grid[0]


def sample_rotations(rho: RotationDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` angles in ``[0, 2*pi)`` by interpolating the ``rotation_cdf`` table."""
    levels, nodes = rotation_cdf(rho)
    return np.interp(rng.random(n), levels, nodes)


def _negative_partners(k_index: np.ndarray) -> np.ndarray:
    """For each flat index with ``k > 0`` (in order), the index of ``(-k, q)``.

    ``k_index`` is block-sorted (``k = -B..B``) and block ``-k`` has the size
    of block ``k``, so the partner is the start of block ``-k`` plus ``q``.
    """
    pos = np.flatnonzero(k_index > 0)
    k = k_index[pos]
    return np.searchsorted(k_index, -k) + pos - np.searchsorted(k_index, k)


def conjugate_noise_map(k_index: np.ndarray) -> np.ndarray:
    """Complex ``U`` with ``eps = U @ z`` distributed as unit-sigma conjugate noise.

    For real ``z ~ N(0, I_d)``: a ``k == 0`` entry is ``z_j``; the ``(k, q)``,
    ``k > 0``, entry is ``(z_j + 1j*z_j') / sqrt(2)`` and its ``(-k, q)``
    partner ``j'`` the conjugate.  ``U`` is unitary.
    """
    dim = k_index.size
    u = np.zeros((dim, dim), dtype=np.complex128)
    zero = np.flatnonzero(k_index == 0)
    u[zero, zero] = 1.0
    pos = np.flatnonzero(k_index > 0)
    neg = _negative_partners(k_index)
    h = 1.0 / np.sqrt(2.0)
    u[pos, pos] = h
    u[pos, neg] = 1j * h
    u[neg, pos] = h
    u[neg, neg] = -1j * h
    return u


def _design_map(signal: FBImage) -> np.ndarray:
    """Complex ``C`` (dim x (2B+1)) with ``rotate(x, phi) = C @ g(phi)`` for ``g`` of ``_trig_design``.

    ``x[k] exp(-1j*k*phi) = x[k] cos(|k| phi) - 1j*sign(k)*x[k] sin(|k| phi)``.
    """
    k = signal.k_values
    rows = np.arange(signal.size)
    design = np.zeros((signal.size, 2 * signal.B + 1), dtype=np.complex128)
    design[rows, np.maximum(2 * np.abs(k) - 1, 0)] = signal.coeffs
    nz = k != 0
    design[rows[nz], 2 * np.abs(k[nz])] = -1j * np.sign(k[nz]) * signal.coeffs[nz]
    return design


def _trig_design(angles: np.ndarray, B: int) -> np.ndarray:
    """Rows ``g(phi) = [1, cos phi, sin phi, ..., cos B phi, sin B phi]``, one per angle."""
    design = np.empty((angles.size, 2 * B + 1))
    design[:, 0] = 1.0
    phases = np.outer(angles, np.arange(1, B + 1))
    design[:, 1::2] = np.cos(phases)
    design[:, 2::2] = np.sin(phases)
    return design


def observation_map(signal: FBImage, sigma: float) -> np.ndarray:
    """``K = [C, sigma U]`` (``_design_map``, ``conjugate_noise_map``).

    An observation is ``K @ [g(phi); z]`` (``_trig_design``, real ``z ~ N(0, I)``).
    ``C`` and ``U`` do not depend on ``sigma``; each image builds them once.
    """
    design, noise = signal._observation_parts
    return np.concatenate([design, sigma * noise], axis=1)


def _observation_draws(signal: FBImage, rho: RotationDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """The real ``(n, 2B+1+d)`` rows ``[g(phi_i); z_i]`` of ``n`` observations, the one place they are drawn.

    The angles are the first draws, exactly ``sample_rotations(rho, n, rng)``;
    one ``(n, d)`` standard normal block ``z`` follows.
    """
    angles = sample_rotations(rho, n, rng)
    return np.concatenate([_trig_design(angles, signal.B), rng.standard_normal((n, signal.size))], axis=1)


def generate_observations(
    signal: FBImage,
    rho: RotationDistribution,
    n: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` observations ``y_i = rotate(x, phi_i) + eps_i`` in coefficient space.

    Returns a new ``(n, dim)`` complex array, one observation per row, that
    the caller owns.  Row ``i`` is ``observation_map(signal, sigma) @ [g(phi_i); z_i]``
    for the draws of ``_observation_draws``, which the simulator's small-``n``
    path also reads: the angles first, exactly ``sample_rotations(rho, n, rng)``,
    so a generator with the same seed gives them back, then one real
    ``(n, dim)`` normal block ``z``.
    """
    if signal.B != rho.B:
        raise ValueError("signal and distribution bandwidths must agree")
    # One real product with K^T's interleaved real and imaginary parts.
    k_t = np.ascontiguousarray(observation_map(signal, _noise_level(sigma)).T).view(np.float64)
    return (_observation_draws(signal, rho, n, rng) @ k_t).view(np.complex128)
