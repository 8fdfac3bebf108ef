import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from so2mra.errors import DegenerateDrawError, NotSampleableError
from so2mra.signal_model import (
    DENSITY_GRID_SIZE,
    FBImage,
    RotationDistribution,
    UNIFORM_DENSITY,
    TWO_PI,
    _design_map,
    _negative_partners,
    _observation_draws,
    _trig_design,
    circulant_project,
    coefficient_layout,
    conjugate_noise_map,
    generate_observations,
    inverse_cdf,
    inverse_cdf_table,
    make_experiment_distribution,
    make_experiment_signal_2d,
    observation_map,
    perturb_distribution,
    rotate_distribution,
    rotate_signal,
    sample_rotations,
)
from so2mra.moments import simulate_empirical_moments

from conftest import _Uniforms, _clamped_cdf, random_rho, random_signal_1d, signal_1d


class TestExperimentSignal:
    def test_paper_setup_b10_q2(self):
        img = make_experiment_signal_2d(10, 2, np.random.default_rng(0))
        assert img.size == 42
        assert np.allclose(np.abs(img.coeffs), 1.0)
        assert img.is_real and img.radial_bandwidths.tolist() == [2] * 11

    def test_b0_single_real_sign(self):
        seen = set()
        for seed in range(16):
            img = make_experiment_signal_2d(0, 1, np.random.default_rng(seed))
            assert img.size == 1
            val = img[0, 0]
            assert val.imag == 0 and val.real in (-1.0, 1.0)
            seen.add(val.real)
        assert seen == {-1.0, 1.0}

    def test_conjugate_symmetry_entrywise(self):
        img = make_experiment_signal_2d(2, 1, np.random.default_rng(3))
        for k in range(1, 3):
            assert img[-k, 0] == np.conj(img[k, 0])


class TestCoefficientLayout:
    @pytest.mark.parametrize("qk", [[2, 2, 2, 2], [2, 1, 3, 2], [1, 1, 1, 1]])
    def test_matches_block_loop_and_image(self, qk):
        B = 3
        k_index, starts = coefficient_layout(B, qk)
        expected_k, expected_starts = [], []
        for k in range(-B, B + 1):
            expected_starts.append(len(expected_k))
            expected_k += [k] * qk[abs(k)]
        assert np.array_equal(k_index, expected_k)
        assert np.array_equal(starts, expected_starts)
        img = FBImage(B, np.array(qk), np.zeros(len(expected_k), dtype=complex))
        assert img.size == k_index.size
        assert np.array_equal(img.k_values, k_index)
        assert [img.block_start(k) for k in range(-B, B + 1)] == expected_starts

    @pytest.mark.parametrize("B, qk", [(-1, []), (3, [2, 2]), (3, [2, 0, 2, 2]), (1, [[1], [1]])])
    def test_bad_shape_rejected(self, B, qk):
        with pytest.raises(ValueError):
            coefficient_layout(B, qk)

    @pytest.mark.parametrize("qk", [[2.7, 1.5], [2, 1.5], [np.nan, 1], [2, np.inf], [2, -np.inf], ["2", "1"]])
    def test_non_integral_bandwidth_rejected(self, qk):
        # Once truncated, [2.7, 1.5] read as [2, 1] and failed on the size.
        with pytest.raises(ValueError, match="radial_bandwidths must hold Q_k >= 1"):
            coefficient_layout(1, qk)
        with pytest.raises(ValueError, match="radial_bandwidths must hold Q_k >= 1"):
            FBImage(1, qk, np.ones(5))

    def test_integral_float_bandwidth_accepted(self):
        img = FBImage(1, [2.0, 1.0], np.ones(4))
        assert img.radial_bandwidths.dtype == np.int64
        assert img.radial_bandwidths.tolist() == [2, 1]
        assert np.array_equal(coefficient_layout(1, [2.0, 1.0])[0], coefficient_layout(1, [2, 1])[0])

    def test_block_start_out_of_range_raises(self):
        img = FBImage(2, [1, 2, 1], np.arange(7))
        assert [img.block_start(k) for k in range(-2, 3)] == [0, 1, 3, 4, 6]
        assert img[-2, 0] == 0 and img[2, 0] == 6
        for k in (-3, 3, -5):
            with pytest.raises(IndexError):
                img.block_start(k)
            with pytest.raises(IndexError):
                img.block(k)

    @pytest.mark.parametrize("B, qk", [(0, [3]), (2, [1, 1, 1]), (3, [2, 1, 3, 2]), (10, [2] * 11)])
    def test_cached_arrays_read_only_and_fresh(self, B, qk):
        # The layout is built once per (B, Q_k): every call, and every image
        # of that layout, shares read-only arrays equal to a fresh build.
        k_index, starts = coefficient_layout(B, qk)
        sizes = np.array(qk[:0:-1] + qk)
        assert np.array_equal(k_index, np.arange(-B, B + 1).repeat(sizes))
        assert np.array_equal(starts, sizes.cumsum() - sizes)
        assert not k_index.flags.writeable and not starts.flags.writeable
        again = coefficient_layout(B, np.array(qk, dtype=np.int32))
        assert again[0] is k_index and again[1] is starts
        img = FBImage(B, qk, np.zeros(k_index.size, dtype=complex))
        assert img.k_values is k_index

    def test_invalid_bandwidths_raise_after_valid_call(self):
        # The cache sits behind the checks: a valid call for B = 2 does not
        # let a bad Q_k of the same B through.
        coefficient_layout(2, [1, 1, 1])
        for qk in ([1, 0, 1], [1, 1], [1, 1.5, 1]):
            with pytest.raises(ValueError, match="radial_bandwidths must hold Q_k >= 1"):
                coefficient_layout(2, qk)

    @pytest.mark.parametrize("qk", [[2, 2, 2], [1, 3, 2]], ids=["uniform", "non_uniform"])
    def test_radial_index_out_of_range_raises(self, qk):
        # Each (k, q) reads its own coefficient; a q outside 0..Q_|k|-1
        # raises instead of reading a neighbouring block.
        img = FBImage(2, qk, np.arange(coefficient_layout(2, qk)[0].size))
        flat = [img[k, q] for k in range(-2, 3) for q in range(qk[abs(k)])]
        assert flat == list(img.coeffs)
        for k in range(-2, 3):
            for q in (-1, qk[abs(k)], qk[abs(k)] + 1):
                with pytest.raises(IndexError, match="radial index"):
                    img[k, q]


class TestDistributionIndexing:
    def test_index_arrays_read_the_offset_coefficients(self):
        rho = random_rho(3, np.random.default_rng(41))
        assert rho[-4] == rho.coeffs[-4 + 6]
        k = np.array([-6, -1, 0, 2, 6])
        assert np.array_equal(rho[k], rho.coeffs[k + 6])
        k2 = np.arange(-3, 4)[:, None] - np.arange(-3, 4)[None, :]
        assert np.array_equal(rho[k2], rho.coeffs[k2 + 6])
        assert np.array_equal(rho.k_values, np.arange(-6, 7))

    @pytest.mark.parametrize(
        "k",
        [-7, 7, np.int64(-9), np.array([-7]), np.array([0, 7]), np.array([[0, -7], [1, 2]]),
         np.array([[6], [13]])],
    )
    def test_out_of_range_frequency_raises(self, k):
        rho = random_rho(3, np.random.default_rng(42))
        with pytest.raises(IndexError):
            rho[k]

    def test_no_wraparound_below_minus_2b(self):
        # rho[-3] once read rho[2], and rho[[-5]] the DC term.
        rho = RotationDistribution.from_positive(1, [0.05, 0.02j])
        assert rho[-2] == -0.02j and rho[2] == 0.02j
        assert np.array_equal(rho[np.array([-2, -1, 0, 1, 2])], rho.coeffs)
        assert np.array_equal(rho[np.array([[2], [-2]])], [[0.02j], [-0.02j]])
        for k in (-3, np.array([-5]), np.array([[-3, 0]])):
            with pytest.raises(IndexError):
                rho[k]


class TestRealImageCheck:
    @pytest.mark.parametrize("qk", [[2, 2, 2, 2], [3, 1, 4, 2]])
    def test_mismatched_partner_rejected(self, qk):
        qk = np.array(qk)
        k_index = np.repeat(np.arange(-3, 4), qk[np.abs(np.arange(-3, 4))])
        rng = np.random.default_rng(40)
        coeffs = np.zeros(k_index.size, dtype=complex)
        pos = np.flatnonzero(k_index > 0)
        coeffs[pos] = rng.standard_normal(pos.size) + 1j * rng.standard_normal(pos.size)
        coeffs[_negative_partners(k_index)] = coeffs[pos].conj()
        coeffs[k_index == 0] = rng.standard_normal(qk[0])
        scale = np.abs(coeffs).max()
        FBImage(3, qk, coeffs, is_real=True)
        for i in np.flatnonzero(k_index != 0):
            for delta in (0.5e-12 * scale, 1j * 0.5e-12 * scale):
                nudged = coeffs.copy()
                nudged[i] += delta
                FBImage(3, qk, nudged, is_real=True)
            bad = coeffs.copy()
            bad[i] += 1e-9 * scale
            with pytest.raises(ValueError, match="real image"):
                FBImage(3, qk, bad, is_real=True)

    def test_imaginary_dc_rejected(self):
        img = make_experiment_signal_2d(2, 2, np.random.default_rng(41))
        coeffs = img.coeffs.copy()
        coeffs[img.block_start(0) + 1] += 1e-6j
        with pytest.raises(ValueError, match="real image"):
            FBImage(2, img.radial_bandwidths, coeffs, is_real=True)
        FBImage(2, img.radial_bandwidths, coeffs)

    def test_distribution_symmetry_tolerance(self):
        pos = make_experiment_distribution(3, np.random.default_rng(42)).positive_coeffs
        full = np.concatenate([pos[::-1].conj(), [UNIFORM_DENSITY], pos])
        near = full.copy()
        near[0] += 0.5e-12
        RotationDistribution(3, near)
        far = full.copy()
        far[0] += 1e-9
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            RotationDistribution(3, far)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_image(self, bad):
        coeffs = make_experiment_signal_2d(3, 2, np.random.default_rng(0)).coeffs.copy()
        coeffs[0] = bad
        with pytest.raises(ValueError, match="finite"):
            FBImage(3, np.full(4, 2), coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution(self, bad):
        pos = make_experiment_distribution(3, np.random.default_rng(1)).positive_coeffs.copy()
        pos[2] = bad
        with pytest.raises(ValueError, match="finite"):
            RotationDistribution.from_positive(3, pos)


class TestShapeAndRangeChecks:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: FBImage(1, [1, 1], np.ones(4)), "expected 3 coefficients"),
            (lambda: RotationDistribution(-1, np.ones(1)), "bandwidth must be nonnegative"),
            (lambda: RotationDistribution(1, np.full(3, UNIFORM_DENSITY)), "expected 5 coefficients"),
            (lambda: RotationDistribution(1, np.array([0, 0, 1.0, 0, 0])), r"rho\[0\] must equal"),
            (lambda: RotationDistribution.from_positive(1, np.zeros(3)), "expected 2 positive-frequency"),
            (lambda: make_experiment_signal_2d(-1, 2, np.random.default_rng(0)), "need B >= 0 and Q >= 1"),
            (lambda: make_experiment_signal_2d(2, 0, np.random.default_rng(0)), "need B >= 0 and Q >= 1"),
            (lambda: make_experiment_distribution(0, np.random.default_rng(0)), "need B >= 1"),
        ],
        ids=[
            "image_size",
            "distribution_bandwidth",
            "distribution_size",
            "distribution_dc",
            "positive_size",
            "signal_bandwidth",
            "signal_radial",
            "experiment_distribution_bandwidth",
        ],
    )
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestExperimentDistribution:
    @pytest.mark.parametrize("tol_pos", [-1.0, np.nan])
    def test_bad_tol_pos_fails_before_any_draw(self, tol_pos):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="tol_pos"):
            make_experiment_distribution(3, rng, tol_pos=tol_pos)
        assert rng.bit_generator.state == state

    def test_tol_pos_above_uniform_level_is_a_degenerate_draw(self):
        with pytest.raises(DegenerateDrawError):
            make_experiment_distribution(3, np.random.default_rng(0), tol_pos=0.2)

    def test_circulant_compatible_and_nonnegative(self):
        rho = make_experiment_distribution(10, np.random.default_rng(1))
        assert circulant_project(rho).s_b < 1e-12
        assert rho.min_density >= 0.0
        assert rho.sampleable

    def test_uniform_case_zero_distance(self):
        rho = RotationDistribution.uniform(1)
        assert circulant_project(rho).s_b == 0.0
        assert np.allclose(rho.density(np.linspace(0, 2 * np.pi, 64)), UNIFORM_DENSITY)

    def test_pairing_identity_b2(self):
        # rho[k] == rho[-(2B+1-k)] for k = 1..2B is the circulant fixed point.
        rho = make_experiment_distribution(2, np.random.default_rng(5))
        n = 5
        for k in range(1, 5):
            assert abs(rho[k] - rho[-(n - k)]) < 1e-15

    def test_normalization_and_symmetry_exact(self):
        rho = make_experiment_distribution(4, np.random.default_rng(7))
        assert rho[0] == UNIFORM_DENSITY
        assert np.array_equal(rho.coeffs[::-1].conj(), rho.coeffs)

    @pytest.mark.parametrize("tol_pos", [0.0, 0.05])
    @pytest.mark.parametrize("B", [1, 2, 3, 5, 10])
    def test_gamma_matches_bisection(self, B, tol_pos):
        # The closed-form shrink factor against a 40-step bisection on the
        # same draw; bisection is accurate to 2**-40 absolute.
        n = 2 * B + 1
        k = np.arange(1, n)
        for seed in range(4):
            rho = make_experiment_distribution(B, np.random.default_rng(seed), tol_pos=tol_pos)
            draw = np.random.default_rng(seed)
            pos = draw.random(2 * B) + 1j * draw.random(2 * B)
            merged = (k * pos[::-1].conj() + (n - k) * pos) / n

            def min_density(gamma):
                return RotationDistribution.from_positive(B, gamma * merged).min_density

            if min_density(1.0) >= tol_pos:
                reference = 1.0
            else:
                lo, hi = 0.0, 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if min_density(mid) >= tol_pos else (lo, mid)
                reference = lo
            gamma = (rho.positive_coeffs / merged).real
            assert np.allclose(gamma, gamma[0], rtol=1e-14, atol=0.0)
            assert abs(gamma[0] - reference) <= 2e-12
            assert rho.min_density >= tol_pos


    def test_floor_that_does_not_bind_keeps_the_draw(self):
        # Uniforms of at most 0.004 / B give 4B coefficients rho[+-k] of
        # modulus at most 0.004 * sqrt(2) / B, so the density stays within
        # 0.023 of 1/(2 pi) = 0.159, above the floor: gamma = 1, and the
        # result is the draw's closest circulant itself, unshrunk, with the
        # bits of each pair (rho[k], rho[-(n-k)]) averaged with weights
        # n - k and k.
        tol_pos = 0.05
        for B, seed in itertools.product([1, 2, 3, 10, 40], range(50)):
            n, k = 2 * B + 1, np.arange(1, 2 * B + 1)
            u = np.random.default_rng(seed).uniform(0.001, 0.004, 4 * B) / B
            rho = make_experiment_distribution(B, _Uniforms(u), tol_pos=tol_pos)
            pos = u[: 2 * B] + 1j * u[2 * B :]
            merged = (k * pos[::-1].conj() + (n - k) * pos) / n
            assert np.array_equal(rho.positive_coeffs, merged)
            assert rho.min_density > tol_pos


def _parent_density_grid(rho):
    # The eager synthesis made at construction before the grid was cached.
    m = DENSITY_GRID_SIZE
    buf = np.zeros(m, dtype=np.complex128)
    for k in range(-2 * rho.B, 2 * rho.B + 1):
        buf[k % m] += rho.coeffs[k + 2 * rho.B]
    dens = (np.fft.ifft(buf) * m).real
    return np.linspace(0.0, 2 * np.pi, m + 1), np.concatenate([dens, dens[:1]])


class TestLazyDensity:
    def test_lazy_values_equal_eager(self):
        rng = np.random.default_rng(43)
        draws = [make_experiment_distribution(B, rng, tol_pos=0.05) for B in (1, 3, 10)]
        draws += [perturb_distribution(d, 0.4) for d in draws]
        draws += [random_rho(2, rng, min_mod=0.9, max_mod=1.0), RotationDistribution.uniform(2)]
        # 4B+1 = 8193 coefficients on 8192 grid nodes: two alias onto one bin.
        draws += [make_experiment_distribution(2048, rng)]
        for rho in draws:
            nodes, dens = _parent_density_grid(rho)
            assert np.array_equal(rho.density_grid[0], nodes)
            assert np.array_equal(rho.density_grid[1], dens)
            assert rho.min_density == float(dens.min())
            assert rho.sampleable is bool(dens.min() >= 0.0)
        assert {rho.sampleable for rho in draws} == {True, False}

    def test_grid_cached_and_read_only(self):
        rho = make_experiment_distribution(3, np.random.default_rng(44))
        assert rho.density_grid is rho.density_grid
        with pytest.raises(ValueError):
            rho.density_grid[1][0] = 1.0

    def test_non_sampleable_draw_raises_in_sampler(self):
        rho = random_rho(2, np.random.default_rng(1), min_mod=0.9, max_mod=1.0)
        with pytest.raises(NotSampleableError, match="dips to"):
            rho.sampler


class TestCdfTable:
    def test_table_cached_read_only_and_equal_to_formula(self):
        rng = np.random.default_rng(45)
        base = make_experiment_distribution(10, rng, tol_pos=0.05)
        draws = [base, perturb_distribution(base, 0.1), RotationDistribution.uniform(2)]
        draws += [make_experiment_distribution(3, rng), make_experiment_distribution(2048, rng)]
        # Negative on arcs, where the clamp would act: refused, no table.
        draws += [random_rho(2, rng, min_mod=0.9, max_mod=1.0)]
        for rho in draws:
            if not rho.sampleable:
                with pytest.raises(NotSampleableError, match="dips to"):
                    rho.sampler
                continue
            levels, nodes = rho.sampler.levels, rho.sampler.nodes
            assert rho.sampler is rho.sampler and nodes is rho.density_grid[0]
            for a in (levels, nodes):
                with pytest.raises(ValueError):
                    a[0] = 1.0
            grid, dens = _parent_density_grid(rho)
            dens = np.maximum(dens, 0.0)
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * (grid[1] - grid[0]))])
            assert np.array_equal(nodes, grid)
            assert np.array_equal(levels, cdf / cdf[-1])
        assert any(rho.min_density < 0 for rho in draws)

    def test_concurrent_first_use(self):
        # Threads racing to build one distribution's table all read the same values.
        rho = make_experiment_distribution(10, np.random.default_rng(46), tol_pos=0.05)
        reference = make_experiment_distribution(10, np.random.default_rng(46), tol_pos=0.05).sampler
        barrier = threading.Barrier(8)
        results = []

        def first_use():
            barrier.wait(timeout=10)
            results.append(rho.sampler)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=first_use) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(results) == 8
        for table in results:
            assert np.array_equal(table.levels, reference.levels) and np.array_equal(table.nodes, reference.nodes)
        assert rho.sampler is rho.sampler

    def test_non_sampleable_raises_on_every_call(self):
        rho = random_rho(2, np.random.default_rng(1), min_mod=0.9, max_mod=1.0)
        for _ in range(3):
            with pytest.raises(NotSampleableError, match="dips to"):
                rho.sampler
        with pytest.raises(NotSampleableError):
            sample_rotations(rho, 10, np.random.default_rng(0))

    def test_no_positive_mass_is_refused_before_any_draw(self):
        # (1 - cos(8192 theta)) / 2pi is nonnegative, but at B = 4096 it
        # aliases to exactly 0 at every node of the 8192-point grid: it
        # passes the sign check and has no mass to sample.
        pos = np.zeros(2 * 4096, dtype=np.complex128)
        pos[-1] = -1.0 / (4.0 * np.pi)
        rho = RotationDistribution.from_positive(4096, pos)
        assert rho.sampleable and rho.min_density == 0.0
        for _ in range(2):
            with pytest.raises(NotSampleableError, match="no positive mass"):
                rho.sampler
        signal = signal_1d(np.ones(2 * 4096 + 1))
        # n = 10 draws the observations themselves, n = 30000 >= p + d the
        # angle sums: both refuse before the generator moves.
        draws = [
            lambda rng: sample_rotations(rho, 10, rng),
            lambda rng: simulate_empirical_moments(signal, rho, 10, 0.5, rng),
            lambda rng: simulate_empirical_moments(signal, rho, 30_000, 0.5, rng),
        ]
        for draw in draws:
            rng = np.random.default_rng(97)
            with pytest.raises(NotSampleableError, match="no positive mass"):
                draw(rng)
            assert rng.random() == np.random.default_rng(97).random()


def _looked_up(levels, nodes, u):
    """``inverse_cdf``'s angles and intervals for the uniforms ``u``, on arrays of its own."""
    angles, index = np.empty(u.size), np.empty(u.size, np.int64)
    inverse_cdf(inverse_cdf_table(levels, nodes), u.copy(), angles, index)
    return angles, index


class TestInverseCdfLookup:
    """The bucket lookup gives np.interp's angle and searchsorted's interval, bit for bit."""

    @staticmethod
    def check(levels, nodes, u):
        angles, index = _looked_up(levels, nodes, u)
        assert np.array_equal(index, np.searchsorted(levels, u, "right") - 1)
        assert np.array_equal(angles, np.interp(u, levels, nodes))

    @staticmethod
    def edges(levels):
        """The uniform 0, every level of a flat stretch (or one level), and the largest below 1."""
        flat = levels[:-1][np.diff(levels) == 0.0]
        return np.concatenate([[0.0], flat if flat.size else levels[1:2], [1.0 - 2.0**-53, np.nextafter(1.0, 0.0)]])

    @pytest.mark.parametrize("B, eta, seed", [(1, 0.0, 0), (3, 0.1, 1), (10, 0.0, 2), (10, 0.1, 3), (40, 0.1, 4)])
    def test_experiment_tables(self, B, eta, seed):
        rng = np.random.default_rng((90, seed))
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), eta)
        if not rho.sampleable:
            pytest.skip("this draw dips below zero")
        levels, nodes = rho.sampler.levels, rho.sampler.nodes
        u = np.concatenate([self.edges(levels), levels[:-1], rng.random(100_000)])
        self.check(levels, nodes, u)
        # A density at or above 0.05, about a third of the uniform level,
        # keeps every bucket below two level boundaries.
        if rho.min_density >= 0.05:
            assert not rho.sampler.crowded

    @pytest.mark.parametrize(
        "shift, freq, phase", [(-0.5, 1, 0.0), (0.0, 3, 1.0), (0.5, 5, 2.5), (-0.9, 2, 0.3), (0.9, 1, 4.0)]
    )
    def test_tables_with_flat_stretches(self, shift, freq, phase):
        # Zero-width intervals get no slope and raise no warning (the
        # suite fails on a RuntimeWarning); a uniform equal to a run of
        # equal levels lands past the whole run.
        levels, nodes = _clamped_cdf(shift, freq, phase)
        assert (np.diff(levels) == 0.0).any()
        rng = np.random.default_rng((91, freq))
        u = np.concatenate([self.edges(levels), levels[:-1], rng.random(100_000)])
        self.check(levels, nodes, u)
        assert inverse_cdf_table(levels, nodes).crowded

    def test_three_node_table_with_a_zero_width_angle_stretch(self):
        # Every u >= 1/2 maps to exactly 2*pi; the first interval has zero
        # width in angle, the table only three nodes (two buckets each).
        levels, nodes = np.array([0.0, 0.5, 1.0]), np.array([0.0, TWO_PI, TWO_PI])
        u = np.concatenate([[0.0, 0.5, 0.25, 1.0 - 2.0**-53], np.random.default_rng(92).random(10_000)])
        self.check(levels, nodes, u)
        assert inverse_cdf_table(levels, nodes).first.size == 8

    def test_crowded_bucket_takes_the_binary_search(self):
        # Three levels inside one bucket of [0, 1/4): the step reaches the
        # second, the search the third.
        levels = np.array([0.0, 0.01, 0.02, 0.03, 0.5, 1.0])
        nodes = np.linspace(0.0, TWO_PI, levels.size)
        u = np.concatenate([levels[:-1], [0.015, 0.025, 0.035, 1.0 - 2.0**-53], np.random.default_rng(93).random(1000)])
        self.check(levels, nodes, u)

    def test_sampler_cached_read_only_and_refused(self):
        rho = perturb_distribution(make_experiment_distribution(10, np.random.default_rng(94), tol_pos=0.05), 0.1)
        table = rho.sampler
        assert rho.sampler is table and table.nodes is rho.density_grid[0]
        for a in table[:4]:
            with pytest.raises(ValueError):
                a[0] = 1
        # G = 4 * 8192 buckets, a power of two.
        assert table.first.size == 4 * DENSITY_GRID_SIZE
        bad = random_rho(2, np.random.default_rng(1), min_mod=0.9, max_mod=1.0)
        for _ in range(2):
            with pytest.raises(NotSampleableError, match="dips to"):
                bad.sampler

    def test_sample_rotations_is_the_lookup(self):
        rho = perturb_distribution(make_experiment_distribution(10, np.random.default_rng(95), tol_pos=0.05), 0.1)
        u = np.random.default_rng(96).random(5000)
        angles, _index = _looked_up(rho.sampler.levels, rho.sampler.nodes, u)
        assert np.array_equal(angles, np.interp(u, rho.sampler.levels, rho.sampler.nodes))
        assert np.array_equal(sample_rotations(rho, 5000, np.random.default_rng(96)), angles)


class TestPerturbation:
    def test_zero_eta_is_identity(self):
        rho = make_experiment_distribution(3, np.random.default_rng(2))
        pert = perturb_distribution(rho, 0.0)
        assert np.array_equal(pert.coeffs, rho.coeffs)

    def test_paper_scale_distance(self):
        # With the documented experimental draw (B=10) the phase twist at
        # eta=0.1 lands near the reported circulant distance of 0.0014; the
        # base draw is random, so match within 20%.
        rho = make_experiment_distribution(10, np.random.default_rng(15))
        pert = perturb_distribution(rho, 0.1)
        s_b = circulant_project(pert).s_b
        assert abs(s_b - 0.0014) <= 0.2 * 0.0014

    def test_b1_closed_form(self):
        c = 0.05 * np.exp(0.3j)
        rho = RotationDistribution.from_positive(1, np.array([c, np.conj(c)]))
        assert circulant_project(rho).s_b < 1e-18  # compatible base
        eta = 0.2
        pert = perturb_distribution(rho, eta)
        expected = (4.0 / 3.0) * abs(c) ** 2 * abs(np.exp(1j * eta) - np.exp(-1j * eta * np.sqrt(2))) ** 2
        assert circulant_project(pert).s_b == pytest.approx(expected, rel=1e-12)

    def test_invertible(self):
        rho = make_experiment_distribution(5, np.random.default_rng(9))
        back = perturb_distribution(perturb_distribution(rho, 0.37), -0.37)
        assert np.abs(back.coeffs - rho.coeffs).max() < 1e-14

    def test_positivity_rechecked_without_error(self):
        rho = make_experiment_distribution(10, np.random.default_rng(0))
        pert = perturb_distribution(rho, 0.1)
        assert isinstance(pert.sampleable, bool)  # may be False, but no raise


class TestRotationSampling:
    def test_uniform_ks(self):
        rho = RotationDistribution.uniform(3)
        angles = sample_rotations(rho, 100_000, np.random.default_rng(4))
        stat = stats.kstest(angles / (2 * np.pi), "uniform").statistic
        assert stat < 0.01

    def test_empty(self):
        rho = RotationDistribution.uniform(2)
        assert sample_rotations(rho, 0, np.random.default_rng(0)).size == 0

    def test_moment_identity_monte_carlo(self):
        # E[exp(-1j*k*phi)] == 2*pi*rho[k] for |k| <= 2B.
        rho = make_experiment_distribution(2, np.random.default_rng(21))
        angles = sample_rotations(rho, 1_000_000, np.random.default_rng(22))
        for k in range(-4, 5):
            emp = np.exp(-1j * k * angles).mean()
            assert abs(emp - 2 * np.pi * rho[k]) < 5e-3

    def test_draw_bit_identical_to_parent_formula(self):
        rho = perturb_distribution(
            make_experiment_distribution(10, np.random.default_rng(31), tol_pos=0.05), 0.1
        )
        angles = sample_rotations(rho, 1000, np.random.default_rng(32))
        nodes, dens = _parent_density_grid(rho)
        dens = np.maximum(dens, 0.0)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * (nodes[1] - nodes[0]))])
        expected = np.interp(np.random.default_rng(32).random(1000), cdf / cdf[-1], nodes)
        assert np.array_equal(angles, expected)
        # Stored from the same draw before the density grid was cached.
        stored = [1.0906068318783462, 3.8872543319523865, 2.5535897304482713, 2.170179955332551]
        assert angles[:4].tolist() == stored
        assert float(angles.sum()) == 3315.5329491606335

    def test_not_sampleable_raises(self):
        rho = random_rho(2, np.random.default_rng(1), min_mod=0.9, max_mod=1.0)
        assert not rho.sampleable
        with pytest.raises(NotSampleableError):
            sample_rotations(rho, 10, np.random.default_rng(0))

    def test_twisted_draw_dipping_below_zero_is_not_sampled(self):
        # The draw's floor (tol_pos) is no allowance for what is derived from
        # it: this twist dips to about -0.036, and sampling it after clamping
        # would draw the moments of another density.
        base = make_experiment_distribution(3, np.random.default_rng(7), tol_pos=0.05)
        assert base.sampleable and base.min_density >= 0.05
        rho = perturb_distribution(base, 2.0)
        assert -0.05 < rho.min_density < 0.0
        assert not rho.sampleable
        with pytest.raises(NotSampleableError, match="dips to"):
            rho.sampler


def _complex_image(qk, rng):
    """Image with non-uniform ``Q_k`` and coefficients that are not conjugate-symmetric."""
    size = 2 * sum(qk) - qk[0]
    coeffs = rng.uniform(0.5, 1.5, size) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size))
    return FBImage(len(qk) - 1, np.array(qk), coeffs)


def _rows_and_angles(signal, rho, n, sigma, seed):
    """Generated rows and their true angles: the generator's first draws are ``sample_rotations``'."""
    rows = generate_observations(signal, rho, n, sigma, np.random.default_rng(seed))
    return rows, sample_rotations(rho, n, np.random.default_rng(seed))


class TestObservations:
    # These tests pin the generator to the model y = R_phi x + eps with
    # formulas of their own, not the observation map that generates.
    def test_noiseless_rows_of_a_complex_image_are_rotations(self):
        rng = np.random.default_rng(21)
        img = _complex_image([3, 1, 4, 2], rng)
        rho = make_experiment_distribution(3, rng)
        rows, angles = _rows_and_angles(img, rho, 500, 0.0, 21)
        expected = img.coeffs[None, :] * np.exp(-1j * np.outer(angles, img.k_values))
        assert np.abs(rows - expected).max() <= 1e-13

    def test_noise_covariance_and_pseudo_covariance(self):
        # E[eps eps^H] = sigma^2 I, and E[eps eps^T] = sigma^2 P with P
        # pairing (k, q) with (-k, q): a k = 0 entry is real, and (k, q),
        # k > 0, is circular.  Each entry's standard error comes from the
        # sampled |eps_i|^2 |eps_j|^2, the second moment of both products.
        rng = np.random.default_rng(22)
        img = _complex_image([3, 1, 4, 2], rng)
        rho = make_experiment_distribution(3, rng)
        n, sigma = 40_000, 0.7
        rows, angles = _rows_and_angles(img, rho, n, sigma, 22)
        clean = img.coeffs[None, :] * np.exp(-1j * np.outer(angles, img.k_values))
        eps = rows - clean
        k_index = img.k_values
        assert np.abs(eps[:, k_index == 0].imag).max() <= 1e-12
        pairing = np.zeros((img.size, img.size))
        for i, k in enumerate(k_index):
            j = img.block_start(-k) + i - img.block_start(k)
            pairing[i, j] = 1.0
        mags = np.abs(eps) ** 2
        second = mags.T @ mags / n
        for got, want in ((eps.T @ eps.conj() / n, np.eye(img.size)), (eps.T @ eps / n, pairing)):
            want = sigma**2 * want
            stderr = np.sqrt(np.maximum(second - np.abs(want) ** 2, 0.0) / n)
            assert (np.abs(got - want) <= 6 * stderr + 1e-12).all()

    def test_noiseless_rows_are_rotations(self):
        rng = np.random.default_rng(8)
        x = random_signal_1d(3, rng)
        rho = make_experiment_distribution(3, rng)
        rows, angles = _rows_and_angles(x, rho, 50, 0.0, 8)
        k = x.k_values
        for i in range(len(rows)):
            expected = x.coeffs * np.exp(-1j * k * angles[i])
            assert np.allclose(rows[i], expected, atol=1e-14)

    def test_noise_variances(self):
        rng = np.random.default_rng(12)
        x = random_signal_1d(3, rng)
        rho = make_experiment_distribution(3, rng)
        rows, angles = _rows_and_angles(x, rho, 100_000, 1.0, 12)
        clean = x.coeffs[None, :] * np.exp(-1j * np.outer(angles, x.k_values))
        noise = rows - clean
        assert noise[:, 3].real.var() == pytest.approx(1.0, rel=0.05)
        assert abs(noise[:, 3].imag).max() < 1e-12
        for col in (4, 5, 6):
            assert noise[:, col].real.var() == pytest.approx(0.5, rel=0.05)
            assert noise[:, col].imag.var() == pytest.approx(0.5, rel=0.05)

    def test_conjugation_rule_1d(self):
        rng = np.random.default_rng(13)
        x = random_signal_1d(2, rng)
        rho = make_experiment_distribution(2, rng)
        rows = generate_observations(x, rho, 200, 0.8, rng)
        assert np.allclose(rows[:, ::-1].conj(), rows, atol=1e-13)

    def test_conjugation_rule_2d(self):
        rng = np.random.default_rng(14)
        img = make_experiment_signal_2d(3, 2, rng)
        rho = make_experiment_distribution(3, rng)
        rows = generate_observations(img, rho, 200, 0.8, rng)
        for k in range(1, 4):
            for q in range(2):
                i = img.block_start(k) + q
                j = img.block_start(-k) + q
                assert np.allclose(rows[:, j], rows[:, i].conj(), atol=1e-13)

    @pytest.mark.parametrize("qk", [[2, 2, 2, 2], [3, 1, 4, 2]])
    def test_negative_partners_match_loop(self, qk):
        img = FBImage(3, np.array(qk), np.zeros(2 * sum(qk) - qk[0], dtype=complex))
        k_index = img.k_values
        expected = []
        for i in np.flatnonzero(k_index > 0):
            block = np.flatnonzero(k_index == k_index[i])
            q = int(np.where(block == i)[0][0])
            expected.append(np.flatnonzero(k_index == -k_index[i])[q])
        assert np.array_equal(_negative_partners(k_index), expected)
        for k in range(1, 4):
            for q in range(qk[k]):
                assert _negative_partners(k_index)[sum(qk[1:k]) + q] == img.block_start(-k) + q

    def test_conjugate_noise_map_covariances(self):
        # E[eps eps^H] = U U^H = I and E[eps eps^T] = U U^T pairs (k, q)
        # with (-k, q): the covariances of the sampled noise.
        img = FBImage(2, np.array([1, 2, 3]), np.zeros(11, dtype=complex))
        k_index = img.k_values
        u = conjugate_noise_map(k_index)
        assert np.allclose(u @ u.conj().T, np.eye(11), atol=1e-15)
        pairing = np.zeros((11, 11))
        zero = np.flatnonzero(k_index == 0)
        pairing[zero, zero] = 1.0
        pos = np.flatnonzero(k_index > 0)
        neg = _negative_partners(k_index)
        pairing[pos, neg] = pairing[neg, pos] = 1.0
        assert np.allclose(u @ u.T, pairing, atol=1e-15)

    def test_observation_map_parts_built_once(self):
        # Each image builds C and U once; at every sigma the map has the
        # bits of a fresh build.
        img = FBImage(2, np.array([1, 2, 3]), np.arange(11) * (1 + 0.5j))
        design, noise = img._observation_parts
        assert img._observation_parts[0] is design
        assert not design.flags.writeable and not noise.flags.writeable
        for sigma in (0.0, 0.3, 2.0):
            fresh = np.concatenate([_design_map(img), sigma * conjugate_noise_map(img.k_values)], axis=1)
            assert np.array_equal(observation_map(img, sigma), fresh)

    def test_generated_rows_are_held_once(self):
        # The rows returned are the generator's product array: the traced
        # peak of the call stays below twice their size (a copy of them
        # peaked at 2.8 times).
        rng = np.random.default_rng(23)
        img = make_experiment_signal_2d(10, 2, rng)
        rho = make_experiment_distribution(10, rng)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows = generate_observations(img, rho, 65536, 0.3, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rows.shape == (65536, 42) and rows.dtype == np.complex128
        assert peak <= 2 * rows.nbytes

    def test_bandwidth_mismatch(self):
        x = random_signal_1d(2, np.random.default_rng(0))
        rho = RotationDistribution.uniform(3)
        with pytest.raises(ValueError):
            generate_observations(x, rho, 5, 0.1, np.random.default_rng(0))

    def test_generator_and_simulator_read_one_set_of_draws(self):
        # _observation_draws is where [g(phi); z] is drawn: the angles of
        # sample_rotations first, then the normals.  The generator's rows
        # are K times them, and below p + d observations the simulator's
        # factor is their transpose: its moments are K F F[0] / n and
        # K F (K F)^H / n for F = draws^T.
        rng = np.random.default_rng(23)
        img = make_experiment_signal_2d(2, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(2, rng, tol_pos=0.05), 0.1)
        n = 6
        draws = _observation_draws(img, rho, n, np.random.default_rng(24))
        angles = sample_rotations(rho, n, np.random.default_rng(24))
        assert draws.shape == (n, 5 + img.size) and draws.dtype == np.float64
        assert np.array_equal(draws[:, :5], _trig_design(angles, 2))
        rows = generate_observations(img, rho, n, 0.4, np.random.default_rng(24))
        assert np.abs(rows - draws @ observation_map(img, 0.4).T).max() <= 1e-13
        m = simulate_empirical_moments(img, rho, n, 0.4, np.random.default_rng(24))
        kf = observation_map(img, 0.4) @ draws.T
        assert np.array_equal(m.M1, kf @ draws[:, 0] / n)
        assert np.array_equal(m.M2, kf @ kf.conj().T / n)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_bad_sigma_fails_before_any_draw(self, sigma):
        x = random_signal_1d(2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sigma"):
            generate_observations(x, RotationDistribution.uniform(2), 5, sigma, rng)
        assert rng.bit_generator.state == state


class TestValueTypesKeepTheirOwnCopy:
    # A value type validates and keeps a read-only copy of each array it is
    # given, so no array of the caller's can change it later: not a
    # writeable one, and not one frozen after a writeable view was taken.
    @pytest.mark.parametrize("field", ["coeffs", "radial_bandwidths"])
    @pytest.mark.parametrize("freeze", [False, True], ids=["writeable", "frozen"])
    def test_image(self, field, freeze):
        given = {"coeffs": np.array([1, 2, 1], dtype=complex), "radial_bandwidths": np.array([1, 1])}
        original = given[field].copy()
        view = given[field][:]
        given[field].flags.writeable = not freeze
        img = FBImage(1, given["radial_bandwidths"], given["coeffs"])
        view[1] = 5
        kept = getattr(img, field)
        assert np.array_equal(kept, original) and not kept.flags.writeable

    @pytest.mark.parametrize("freeze", [False, True], ids=["writeable", "frozen"])
    def test_distribution(self, freeze):
        coeffs = np.array(RotationDistribution.from_positive(1, [0.02 + 0.01j, 0.01j]).coeffs)
        original = coeffs.copy()
        view = coeffs[:]
        coeffs.flags.writeable = not freeze
        rho = RotationDistribution(1, coeffs)
        view[3] = view[1] = 0.05
        assert np.array_equal(rho.coeffs, original) and not rho.coeffs.flags.writeable


class TestRotationHelpers:
    def test_rotate_signal_preserves_realness(self):
        x = random_signal_1d(4, np.random.default_rng(3))
        rx = rotate_signal(x, 1.234)
        assert rx.is_real
        assert np.allclose(rx.coeffs, x.coeffs * np.exp(-1j * x.k_values * 1.234))

    def test_rotate_distribution_shifts_density(self):
        rho = make_experiment_distribution(3, np.random.default_rng(6))
        alpha = 0.7
        shifted = rotate_distribution(rho, alpha)
        theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        assert np.allclose(shifted.density(theta), rho.density(theta - alpha), atol=1e-12)
