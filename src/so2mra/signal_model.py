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
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDrawError, NotSampleableError

TWO_PI = 2.0 * np.pi
UNIFORM_DENSITY = 1.0 / TWO_PI

# Number of subintervals of [0, 2*pi] used for density evaluation, positivity
# checks and inverse-CDF rotation sampling.
DENSITY_GRID_SIZE = 8192
# Buckets of the inverse-CDF lookup per CDF interval, at least: with four,
# a bucket of an experiment density (floor 0.05, about a third of the
# uniform level) holds at most one interval boundary.
BUCKETS_PER_INTERVAL = 4


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


def _integer(value, name: str) -> int:
    """``value`` as an int, the one rule for a count: a bool, or anything ``operator.index`` refuses, is a ``TypeError``."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


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


def _image_layout(B: int, qk, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_layout(B, qk)`` of a recovery's ``image_shape``, checked against the moment dimension."""
    try:
        k_index, starts = coefficient_layout(B, qk)
    except ValueError:
        raise ValueError("image_shape must be (B, Q_k for k = 0..B)") from None
    if k_index.size != dim:
        raise ValueError("moment dimension does not match the image shape")
    return k_index, starts


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
    nonnegative on the evaluation grid, and ``sampler`` is the lookup its
    rotations are drawn with; both are built on first use only.
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
    def sampler(self) -> "InverseCdf":
        """The inverse-CDF lookup that rotations are drawn with, built on first use and read-only.

        The CDF is the trapezoid rule on ``density_grid``, normalised to end
        at 1; ``np.interp(u, sampler.levels, sampler.nodes)`` maps uniform
        ``u`` to angles, and ``inverse_cdf`` does so bit for bit.  A
        distribution that cannot be sampled raises ``NotSampleableError``
        on every access, since a property that raises caches nothing: its
        density dips below zero on the grid, or has no positive mass there.
        """
        if not self.sampleable:
            raise NotSampleableError(f"density dips to {self.min_density:.3g}, below zero")
        nodes, dens = self.density_grid
        dtheta = nodes[1] - nodes[0]
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dtheta)])
        total = cdf[-1]
        if total <= 0.0:
            raise NotSampleableError("density has no positive mass on the grid")
        (levels,) = _frozen(cdf / total)
        return inverse_cdf_table(levels, nodes)

    @cached_property
    def min_density(self) -> float:
        """Minimum of the density on the evaluation grid."""
        return float(self.density_grid[1].min())

    @property
    def sampleable(self) -> bool:
        return bool(self.min_density >= 0.0)


@dataclass(frozen=True)
class CirculantApprox:
    """First column of the circulant closest to the distribution's Toeplitz form."""

    v_opt: np.ndarray
    s_b: float


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
    on ``[0, 1]``, and the draw is replaced by the first column of the
    circulant closest to its Toeplitz form (``circulant_project``), which
    forces the circulant distance to vanish.  The non-DC coefficients are
    then shrunk by the largest ``gamma`` in ``(0, 1]`` that keeps the
    density at or above ``tol_pos`` on the evaluation grid; shrinking is
    linear, so circulant compatibility is preserved.  The floor
    binds this draw only: what is derived from it must itself be nonnegative.
    """
    if B < 1:
        raise ValueError("need B >= 1")
    if not tol_pos >= 0.0:
        raise ValueError("tol_pos must be nonnegative")
    re = rng.random(2 * B)
    im = rng.random(2 * B)
    pos = circulant_project(RotationDistribution.from_positive(B, re + 1j * im)).v_opt[1:]

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


class InverseCdf(NamedTuple):
    """A CDF table and a bucket index over its levels, built by ``inverse_cdf_table``.

    ``RotationDistribution.sampler`` is the table a distribution's rotations
    are drawn with.  ``slopes`` and ``first`` are read-only; ``levels`` and
    ``nodes`` are the arrays given, which a distribution keeps read-only.
    """

    levels: np.ndarray
    nodes: np.ndarray
    # np.interp's slope of each interval, 0 on one of zero width.
    slopes: np.ndarray
    # For bucket b, covering uniforms in [b/G, (b+1)/G), the last interval
    # that starts at or below b/G.
    first: np.ndarray
    # Whether some bucket holds two or more levels, so that one step from
    # its first interval may fall short.
    crowded: bool


def inverse_cdf_table(levels: np.ndarray, nodes: np.ndarray) -> InverseCdf:
    """The lookup of ``inverse_cdf`` for the nondecreasing ``levels`` (0 first, 1 last) and their ``nodes``.

    The table cuts [0, 1) into ``G`` equal buckets, ``G`` the smallest power
    of two at or above ``BUCKETS_PER_INTERVAL`` times the number of
    intervals, so ``levels * G`` and ``u * G`` are exact.  A level ``L``
    lies at or below bucket ``b``'s start ``b / G`` exactly when
    ``ceil(L * G) <= b``, and the last such level starts the bucket's first
    interval (Chen and Asau's guide table, AIIE Trans. 1974).
    """
    intervals = levels.size - 1
    buckets = 1 << (BUCKETS_PER_INTERVAL * intervals - 1).bit_length()
    # Level k is the last at or below the start of every bucket from
    # ceil(levels[k] * G) up to the next level's, none if the two share it.
    spans = np.diff(np.ceil(levels * buckets).astype(np.intp), append=buckets)
    first = np.repeat(np.arange(levels.size, dtype=np.int64), spans)
    widths = np.diff(levels)
    slopes = np.divide(np.diff(nodes), widths, out=np.zeros(intervals), where=widths > 0)
    return InverseCdf(levels, nodes, *_frozen(slopes, first), not spans[:-1].all())


def inverse_cdf(table: InverseCdf, u: np.ndarray, angles: np.ndarray, index: np.ndarray) -> None:
    """Write ``np.interp(u, table.levels, table.nodes)`` of the uniforms ``u`` in ``[0, 1)`` into ``angles``.

    ``index`` (int64) receives each uniform's interval,
    ``searchsorted(levels, u, "right") - 1``: the first interval of its
    bucket (``inverse_cdf_table``), then one vectorised step, and a binary
    search only for the uniforms of a crowded table that the step leaves
    short.  Each angle is then ``slope[j] * (u - levels[j]) + nodes[j]``,
    np.interp's own formula, so it has np.interp's bits; the uniforms need
    not be sorted.  The three arrays have one length, and ``u`` is
    overwritten.  The gathers are ``np.take`` into these arrays, with
    ``angles`` and ``index`` also serving as scratch of each other's dtype
    (float64 and int64 items have one size), so the only temporaries are
    boolean masks.
    """
    levels, nodes, slopes, first, crowded = table
    np.multiply(u, first.size, out=angles)
    np.copyto(index, angles, casting="unsafe")  # each uniform's bucket
    interval = first.take(index, out=angles.view(np.int64), mode="clip")
    # The level that ends each uniform's interval so far.
    ends = levels[1:].take(interval, out=index.view(np.float64), mode="clip")
    interval += ends <= u
    if crowded:
        levels[1:].take(interval, out=ends, mode="clip")
        short = np.flatnonzero(ends <= u)
        interval[short] = np.searchsorted(levels, u[short], "right") - 1
    np.copyto(index, interval)
    levels.take(index, out=angles, mode="clip")
    np.subtract(u, angles, out=angles)
    angles *= slopes.take(index, out=u, mode="clip")
    angles += nodes.take(index, out=u, mode="clip")


def sample_rotations(rho: RotationDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` angles in ``[0, 2*pi)``: ``np.interp(u, rho.sampler.levels, rho.sampler.nodes)`` of ``n`` uniforms, bit for bit.

    The angles come from ``inverse_cdf`` on ``rho.sampler``, which the
    simulator's angle sums also use.  A ``rho`` that cannot be sampled
    raises ``NotSampleableError`` before any draw.
    """
    table = rho.sampler
    u = rng.random(n)
    angles = np.empty(n)
    inverse_cdf(table, u, angles, np.empty(n, np.int64))
    return angles


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


def _gram_from_sums(sums: np.ndarray) -> np.ndarray:
    """``G^T G`` for the rows ``g(phi) = [1, cos phi, sin phi, ..., cos B phi, sin B phi]`` of ``_trig_design``.

    ``sums`` holds ``S_m`` for ``m = 0..2B`` on its last axis; a stack of
    them gives the stack of matrices, each with the bits it has alone.
    Column ``a`` is ``Re(c_a exp(1j*f_a*phi))`` (``c = 1`` for cosines,
    ``-1j`` for sines),
    and ``Re(u) Re(v) = Re(u v + u conj(v)) / 2`` turns every entry into
    ``Re(c_a c_b S[f_a+f_b] + c_a conj(c_b) S[f_a-f_b]) / 2``.
    """
    plus, minus, c_c, c_conj_c = _gram_tables((sums.shape[-1] - 1) // 2)
    signed = np.concatenate([sums[..., :0:-1].conj(), sums], axis=-1)  # m = -2B..2B
    return 0.5 * (c_c * signed[..., plus] + c_conj_c * signed[..., minus]).real


@lru_cache(maxsize=64)
def _gram_tables(B: int) -> tuple[np.ndarray, ...]:
    """``_gram_from_sums``' tables for one ``B``, built once and read-only.

    The positions of ``S[f_a+f_b]`` and ``S[f_a-f_b]`` among ``S_m``,
    ``m = -2B..2B``, and the coefficient products ``c_a c_b`` and
    ``c_a conj(c_b)``.
    """
    col = np.arange(2 * B + 1)
    freq = (col + 1) // 2
    c = np.where((col % 2 == 1) | (col == 0), 1.0, -1j)
    return _frozen(
        2 * B + freq[:, None] + freq[None, :],
        2 * B + freq[:, None] - freq[None, :],
        np.outer(c, c),
        np.outer(c, c.conj()),
    )


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
