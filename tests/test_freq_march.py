import numpy as np
import pytest

from so2mra.errors import MomentConsistencyError, VanishingCoefficientError
from so2mra.freq_march import (
    DIAGONAL_TOL,
    FMOptions,
    RELATIVE_M1_TOL,
    _fm_estimates,
    _high_gather,
    _march,
    _ratio_matrix,
    fm_recover_2d,
)
from so2mra.harness import _RECOVERIES, _cell_errors
from so2mra.metrics import recovery_error, sigma_for_snr
from so2mra.moments import (
    MomentPair,
    _debias_in_place,
    debias,
    population_moments_2d,
    simulate_empirical_moments,
)
from so2mra.spectral import RANK_TOL_EMPIRICAL, EigOptions, spectral_recover_2d
from so2mra.signal_model import (
    FBImage,
    RotationDistribution,
    TWO_PI,
    UNIFORM_DENSITY,
    coefficient_layout,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    radial_block_mean,
    rotate_distribution,
    rotate_signal,
)

from conftest import random_image, random_rho, random_signal_1d, shape_1d, signal_1d


class TestExactRecovery1D:
    def test_population_moments_b10(self):
        rng = np.random.default_rng(0)
        x = random_signal_1d(10, rng)
        rho = random_rho(10, rng)
        rec = fm_recover_2d(population_moments_2d(x, rho, sigma=0.6), shape_1d(x.B))
        assert recovery_error(rec.signal_est, x).relative_error < 1e-10
        assert recovery_error(rec.rho_est, rho).relative_error < 1e-10

    def test_many_instances_across_bandwidths(self):
        count = 0
        for B in (1, 2, 5, 10):
            for seed in range(10):
                rng = np.random.default_rng((B, seed))
                x = random_signal_1d(B, rng)
                rho = random_rho(B, rng)
                rec = fm_recover_2d(population_moments_2d(x, rho, sigma=0.3), shape_1d(x.B))
                assert recovery_error(rec.signal_est, x).relative_error < 1e-9
                assert recovery_error(rec.rho_est, rho).relative_error < 1e-9
                count += 1
        assert count == 40

    def test_gauge_fixed_point(self):
        # A distribution whose rho[1] is already real positive is the gauge's
        # fixed point: the estimate matches without any rotation.
        rng = np.random.default_rng(1)
        B = 3
        pos = random_rho(B, rng).positive_coeffs.copy()
        pos[0] = abs(pos[0])
        rho = RotationDistribution.from_positive(B, pos)
        x = random_signal_1d(B, rng)
        rec = fm_recover_2d(population_moments_2d(x, rho, sigma=0.2), shape_1d(x.B))
        assert np.abs(rec.rho_est.coeffs - rho.coeffs).max() < 1e-12
        assert np.abs(rec.signal_est.coeffs - x.coeffs).max() < 1e-12

    def test_empirical_regression(self):
        # Frozen from a seeded run: error 8.13e-5 at n=1e6, SNR=100.
        rng = np.random.default_rng(123)
        B = 10
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        sigma = sigma_for_snr(x, 100.0)
        m = simulate_empirical_moments(x, rho, 1_000_000, sigma, rng)
        rec = fm_recover_2d(m, shape_1d(x.B))
        assert recovery_error(rec.signal_est, x).relative_error < 2e-4

    def test_b0_passthrough(self):
        x = signal_1d([1.5])
        rho = RotationDistribution.uniform(0)
        rec = fm_recover_2d(population_moments_2d(x, rho, sigma=0.1), shape_1d(x.B))
        assert np.allclose(rec.signal_est.coeffs, x.coeffs)

    def test_vanishing_m1_raises(self):
        rng = np.random.default_rng(2)
        B = 2
        coeffs = random_signal_1d(B, rng).coeffs.copy()
        coeffs[0] = 0.0
        coeffs[-1] = 0.0
        x = signal_1d(coeffs)
        rho = random_rho(B, rng)
        with pytest.raises(VanishingCoefficientError):
            fm_recover_2d(population_moments_2d(x, rho, sigma=0.1), shape_1d(x.B))

    def test_inconsistent_moments_raise(self):
        # A second moment with the wrong sign on S[1,1] is rejected.
        m1 = np.ones(3, dtype=complex)
        m2 = -np.eye(3, dtype=complex)
        m = MomentPair(m1, m2, 0.0)
        with pytest.raises(MomentConsistencyError):
            fm_recover_2d(m, shape_1d(1))


class TestRobustVariant:
    def test_matches_plain_on_population(self):
        rng = np.random.default_rng(3)
        x = random_signal_1d(7, rng)
        rho = random_rho(7, rng)
        m = population_moments_2d(x, rho, sigma=0.4)
        plain = fm_recover_2d(m, shape_1d(x.B))
        robust = fm_recover_2d(m, shape_1d(x.B), FMOptions(variant="robust"))
        assert np.abs(plain.rho_est.coeffs - robust.rho_est.coeffs).max() < 1e-10
        assert np.abs(plain.signal_est.coeffs - robust.signal_est.coeffs).max() < 1e-10

    def test_paired_monte_carlo_improvement(self):
        # Uniform-weight averaging plus diagonal magnitude pinning should not
        # lose to the plain recursion in median over seeded trials.
        plain_errors, robust_errors = [], []
        for trial in range(100):
            rng = np.random.default_rng((9000, trial))
            x = random_signal_1d(10, rng)
            rho = perturb_distribution(make_experiment_distribution(10, rng, tol_pos=0.05), 0.1)
            sigma = sigma_for_snr(x, 100.0)
            m = simulate_empirical_moments(x, rho, 100_000, sigma, rng)
            for variant, errors in (("plain", plain_errors), ("robust", robust_errors)):
                try:
                    rec = fm_recover_2d(m, shape_1d(10), FMOptions(variant=variant))
                    errors.append(recovery_error(rec.signal_est, x).relative_error)
                except MomentConsistencyError:
                    errors.append(np.inf)
        assert np.median(robust_errors) <= np.median(plain_errors)


class TestRobustKernels:
    @pytest.mark.parametrize("qk", [[2, 2, 2, 2], [2, 1, 3, 2], [1, 1, 1, 1]])
    def test_reduce_radial_is_block_mean(self, qk):
        # The radial reduction inside _ratio_matrix; with M1 all ones, S is 2 pi M2.
        rng = np.random.default_rng(30)
        B = 3
        qk = np.array(qk)
        sizes = qk[np.abs(np.arange(-B, B + 1))]
        d = int(sizes.sum())
        m2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s_full = TWO_PI * m2
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        expected = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
        for i1 in range(2 * B + 1):
            for i2 in range(2 * B + 1):
                total = 0.0
                for a in range(sizes[i1]):
                    for b in range(sizes[i2]):
                        total += s_full[starts[i1] + a, starts[i2] + b]
                expected[i1, i2] = total / (sizes[i1] * sizes[i2])
        m1 = np.ones((1, d), dtype=complex)
        got = _ratio_matrix(m1, m2[None], starts, robust=True)[0]
        assert np.abs(got - expected).max() < 1e-13 * TWO_PI
        plain = _ratio_matrix(m1, m2[None], starts, robust=False)[0]
        assert np.array_equal(plain, s_full[np.ix_(starts, starts)])

    @pytest.mark.parametrize("B", [1, 2, 5, 10])
    def test_march_high_frequencies_match_per_k_loop(self, B):
        # The k > B step of the robust recursion: the mean over k' = k-B..B of
        # s[k-k', -k'] rho[k-k'] rho[k'], computed one k at a time.
        rng = np.random.default_rng((31, B))
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        m = simulate_empirical_moments(x, rho, 5_000, sigma_for_snr(x, 10.0), rng)
        m = debias(m)
        s = 2 * np.pi * m.M2 / np.outer(m.M1, m.M1.conj())
        got = _march_passing(s[None], B, robust=True)[0][0]
        expected = got.copy()
        expected[B + 1 :] = 0.0
        for k in range(B + 1, 2 * B + 1):
            kp = np.arange(k - B, B + 1)
            terms = s[k - kp + B, -kp + B] * expected[k - kp] * expected[kp]
            expected[k] = np.sum(np.full(kp.size, 1.0 / kp.size) * terms)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() < 1e-13 * scale


def _meshgrid_gather(B):
    """The robust k > B gather in its meshgrid form: (row, column, k - k', k', group starts, counts)."""
    k, kp = np.meshgrid(np.arange(B + 1, 2 * B + 1), np.arange(1, B + 1), indexing="ij")
    admissible = kp >= k - B
    k, kp = k[admissible], kp[admissible]
    counts = admissible.sum(axis=1)
    return k - kp + B, -kp + B, k - kp, kp, np.cumsum(counts) - counts, counts


def _robust_march_reference(s, B):
    """The robust recursion on one pair, in arrays: ``.mean()`` for k <= B and the meshgrid gather for k > B."""
    rho = np.zeros(2 * B + 1, dtype=np.complex128)
    rho[0] = UNIFORM_DENSITY
    rho[1] = 1.0 / np.sqrt(2 * np.pi * s[1 + B, 1 + B].real)
    for k in range(2, B + 1):
        kp = np.arange(1, k)
        blended = (rho[k - kp] / (s[k + B, kp + B] * rho[kp].conj())).mean(keepdims=True)
        rho[k : k + 1] = 1.0 / np.sqrt(2 * np.pi * s[k + B, k + B].real) * blended / np.abs(blended)
    rows, cols, lo, kp, starts, counts = _meshgrid_gather(B)
    rho[B + 1 :] = np.add.reduceat(s[rows, cols] * rho[lo] * rho[kp], starts) / counts
    return rho


def _plain_march_reference(s, B):
    """The plain recursion on one pair, in arrays: one entry of ``S`` per step."""
    rho = np.zeros(2 * B + 1, dtype=np.complex128)
    rho[0] = UNIFORM_DENSITY
    rho[1] = 1.0 / np.sqrt(2 * np.pi * s[1 + B, 1 + B].real)
    for k in range(2, B + 1):
        rho[k : k + 1] = rho[1:2] / (s[k + B, k - 1 + B : k + B] * rho[k - 1 : k].conj())
    high = np.arange(B + 1, 2 * B + 1)
    rho[high] = s[high, 0] * rho[high - B] * rho[B : B + 1]
    return rho


def _plain_march_scalar(s, B):
    """The plain recursion on one pair, one numpy complex scalar at a time."""
    rho = np.zeros(2 * B + 1, dtype=np.complex128)
    rho[0] = UNIFORM_DENSITY
    rho[1] = 1.0 / np.sqrt(2 * np.pi * s[1 + B, 1 + B].real)
    for k in range(2, B + 1):
        rho[k] = rho[1] / (s[k + B, k - 1 + B] * rho[k - 1].conj())
    for k in range(B + 1, 2 * B + 1):
        rho[k] = s[k, 0] * rho[k - B] * rho[B]
    return rho


def _march_passing(s, B, robust):
    """``_march`` on a stack that refuses no pair: its coefficients and residuals."""
    failures = [None] * len(s)
    rho, residuals, cells = _march(s, B, robust, failures, np.arange(len(s)))
    assert failures == [None] * len(s) and np.array_equal(cells, np.arange(len(s)))
    return rho, residuals


def _sampled_ratio_matrix(seed, B, uniform, robust):
    """The reduced ratio matrix ``(1, 2B+1, 2B+1)`` of a debiased sampled pair at SNR 100."""
    rng = np.random.default_rng(seed)
    qk = np.full(B + 1, 2) if uniform else rng.integers(1, 4, B + 1)
    k_index, starts = coefficient_layout(B, qk)
    coeffs = rng.uniform(0.5, 1.5, k_index.size) * np.exp(2j * np.pi * rng.random(k_index.size))
    x = FBImage(B, qk, coeffs)
    rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
    m = debias(simulate_empirical_moments(x, rho, 5_000, sigma_for_snr(x, 100.0), rng))
    return _ratio_matrix(m.M1[None], m.M2[None], starts, robust)


class TestRobustGather:
    """The cached k > B gather, and both marches against one-pair references in arrays, bit for bit."""

    @pytest.mark.parametrize("B", range(1, 13))
    def test_gather_matches_meshgrid(self, B):
        got = _high_gather(B)
        for a, b in zip(got, _meshgrid_gather(B), strict=True):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
        assert _high_gather(B) is got

    @pytest.mark.parametrize("B", range(1, 13))
    @pytest.mark.parametrize("uniform", [True, False])
    def test_march_matches_reference(self, B, uniform):
        s = _sampled_ratio_matrix((47, B, uniform), B, uniform, robust=True)
        got = _march_passing(s, B, robust=True)[0][0]
        assert np.array_equal(got, _robust_march_reference(s[0], B))

    @pytest.mark.parametrize("B", range(1, 13))
    @pytest.mark.parametrize("uniform", [True, False])
    def test_plain_march_matches_reference(self, B, uniform):
        # Bit for bit against the one-pair array recursion; the scalar loop
        # rounds each complex product on its own, so it agrees to rounding.
        s = _sampled_ratio_matrix((67, B, uniform), B, uniform, robust=False)
        got = _march_passing(s, B, robust=False)[0][0]
        assert np.array_equal(got, _plain_march_reference(s[0], B))
        scalar = _plain_march_scalar(s[0], B)
        assert np.abs(got - scalar).max() <= 1e-13 * np.abs(scalar).max()

    @pytest.mark.parametrize("B", [1, 2, 5, 10])
    def test_plain_high_step_is_the_last_robust_term(self, B):
        # Above B the plain step is the k' = B term of the robust average:
        # s[k, 0] rho[k-B] rho[B] in the march's offset indexing, bit for bit.
        s = np.concatenate([_sampled_ratio_matrix((71, B, i), B, True, robust=False) for i in range(7)])
        rho = _march_passing(s, B, robust=False)[0]
        high = np.arange(B + 1, 2 * B + 1)
        assert np.array_equal(rho[:, high], s[:, high, 0] * rho[:, high - B] * rho[:, B, None])


def _block_scaled(m2, starts, q, i, j, factor):
    """A copy of ``M2`` with its blocks ``(i, j)`` and ``(j, i)`` of ``q`` rows each scaled, Hermitian kept."""
    out = m2.copy()
    rows, cols = starts[i] + np.arange(q), starts[j] + np.arange(q)
    out[np.ix_(rows, cols)] *= factor
    if i != j:
        out[np.ix_(cols, rows)] *= np.conj(factor)
    return out


class TestMixedFailures:
    """Each algorithm refuses the same pairs inside a stack as alone, with the same exception, and the pairs it
    passes keep their bits; plain FM refuses only the pair whose rho[1] it pins."""

    def test_failing_pairs_fail_in_a_mixed_stack(self):
        rng = np.random.default_rng(29)
        B, q = 3, 2
        x = make_experiment_signal_2d(B, q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        m = population_moments_2d(x, rho, 0.0)
        _k_index, starts = coefficient_layout(B, x.radial_bandwidths)
        anchor = int(starts[B])
        vanishing = m.M1.copy()
        vanishing[anchor - 1] = 0.0
        decoupled = m.M2.copy()
        decoupled[anchor, :] = decoupled[:, anchor] = 0.0
        decoupled[anchor, anchor] = m.M2[anchor, anchor]
        blended = _block_scaled(m.M2, starts, q, 2 + B, 1 + B, 1e20)
        pairs = {
            "good": (m.M1, m.M2),
            # Re S[1,1] < 0: both variants refuse (plain pins rho[1] too), and
            # the power spectrum is negative there.
            "diag1": (m.M1, _block_scaled(m.M2, starts, q, 1 + B, 1 + B, -1.0)),
            # Re S[2,2] < 0 only: robust pins |rho[2]| to it, plain never reads it.
            "diag2": (m.M1, _block_scaled(m.M2, starts, q, 2 + B, 2 + B, -1.0)),
            # S[2,1] scaled by 1e20: the robust blend for k = 2 is about 1e-21,
            # and the chosen eigenvector misses the phase anchor.
            "blend": (m.M1, blended),
            # Both at k = 2: robust checks the blend before Re S[2,2].
            "blend+diag2": (m.M1, _block_scaled(blended, starts, q, 2 + B, 2 + B, -1.0)),
            # An M1 entry next to the anchor vanishes: both marches refuse to
            # invert it, and spectral divides by no M1 entry.
            "vanish": (vanishing, m.M2),
            # The anchor's row and column of M2 vanish off the diagonal, so
            # only an eigenvector of its own reaches the anchor, and that one
            # is not chosen.
            "anchor": (m.M1, decoupled),
        }
        s_diag1 = _ratio_matrix(m.M1[None], pairs["diag1"][1][None], starts, robust=True)[0]
        assert s_diag1[1 + B, 1 + B].real <= DIAGONAL_TOL
        names = ["good", "diag1", "good", "diag2", "good", "blend", "good", "blend+diag2", "good", "vanish", "good"]
        names += ["anchor", "good"]
        m1 = np.array([pairs[name][0] for name in names])
        m2 = np.array([pairs[name][1] for name in names])
        _debias_in_place(m2, [0.0] * len(names))
        truths = np.array([x.coeffs] * len(names))
        shape = (B, x.radial_bandwidths)
        consistency, guard = MomentConsistencyError, VanishingCoefficientError
        # algorithm: (its one-pair call, {refused pair: (exception class, message)})
        refused = {
            "fm_plain": (
                lambda pair: fm_recover_2d(pair, shape, FMOptions(variant="plain")),
                {"diag1": (consistency, r"Re S\[1,1\]"), "vanish": (guard, "inversion guard")},
            ),
            "fm_robust": (
                lambda pair: fm_recover_2d(pair, shape, FMOptions(variant="robust")),
                {
                    "diag1": (consistency, r"Re S\[1,1\]"),
                    "diag2": (consistency, r"Re S\[2,2\]"),
                    "blend": (consistency, "undefined phase"),
                    "blend+diag2": (consistency, "undefined phase"),
                    "vanish": (guard, "inversion guard"),
                },
            ),
            "spectral": (
                lambda pair: spectral_recover_2d(pair, shape, EigOptions(rank_tol=RANK_TOL_EMPIRICAL))[0],
                {
                    "diag1": (consistency, "power-spectrum entry"),
                    "diag2": (consistency, "power-spectrum entry"),
                    "blend": (consistency, "phase anchor"),
                    "blend+diag2": (consistency, "power-spectrum entry"),
                    "anchor": (consistency, "phase anchor"),
                },
            ),
        }
        for algo, (one_pair, failing) in refused.items():
            errors = _cell_errors(_RECOVERIES[algo], m1, m2, truths, shape, x.k_values)
            assert [err is None for err in errors] == [name in failing for name in names]
            if algo != "spectral":  # the distribution is not circulant
                assert all(err < 1e-10 for err, name in zip(errors, names) if name == "good")
            estimates, failures, _diagnostics = _RECOVERIES[algo](m1, m2, shape)
            passing = iter(estimates)
            for name, failure in zip(names, failures, strict=True):
                pair = MomentPair(*pairs[name], 0.0)
                if name in failing:
                    kind, message = failing[name]
                    with pytest.raises(kind, match=message) as raised:
                        one_pair(pair)
                    assert type(failure) is type(raised.value) is kind
                    assert str(failure) == str(raised.value)
                else:
                    assert failure is None
                    assert np.array_equal(next(passing), one_pair(pair).signal_est.coeffs)
            assert next(passing, None) is None


def _ratio_matrix_reference(m1, m2, starts, robust):
    """The reduced ratio matrices formed from all ``d^2`` entries of ``S``: block means (robust) or block starts (plain)."""
    s = TWO_PI * m2 / (m1[:, :, None] * m1.conj()[:, None, :])
    return radial_block_mean(s, starts) if robust else s[:, starts[:, None], starts]


class TestReducedRatioMatrix:
    """``_ratio_matrix`` divides only the entries each variant reads, with the bits of dividing all of them."""

    @pytest.mark.parametrize("B", range(1, 13))
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
    def test_matches_full_division(self, B, uniform, robust):
        rng = np.random.default_rng((83, B, uniform, robust))
        for size in range(1, 6):
            qk = np.full(B + 1, 2) if uniform else rng.integers(1, 5, B + 1)
            _k_index, starts = coefficient_layout(B, qk)
            d = int(_k_index.size)
            m1 = rng.uniform(0.1, 2.0, (size, d)) * np.exp(2j * np.pi * rng.random((size, d)))
            m2 = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
            got = _ratio_matrix(m1, m2, starts, robust)
            assert got.shape == (size, 2 * B + 1, 2 * B + 1)
            assert np.array_equal(got, _ratio_matrix_reference(m1, m2, starts, robust))
            # The core reports min|M1| and its guard for the pairs it passes,
            # in order; a random M2 makes the march refuse some of them.
            opts = FMOptions(variant="robust" if robust else "plain")
            _est, failures, diagnostics = _fm_estimates(m1, m2, (B, qk), opts)
            passed = [i for i, failure in enumerate(failures) if failure is None]
            assert np.array_equal(diagnostics["min_abs_m1"], np.abs(m1).min(axis=1)[passed])
            assert np.array_equal(diagnostics["tol_m1"], RELATIVE_M1_TOL * np.abs(m1).max(axis=1)[passed])

    @pytest.mark.parametrize("cell", [0, 2])
    def test_guard_reads_entries_off_the_block_starts(self, cell):
        # The plain march divides no entry off the block starts, yet a
        # vanishing one there still refuses the pair, as a stack and alone.
        rng = np.random.default_rng(84)
        x = make_experiment_signal_2d(3, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        m = population_moments_2d(x, rho, 0.0)
        _k_index, starts = coefficient_layout(x.B, x.radial_bandwidths)
        off_start = int(starts[4]) + 1  # the second radial entry of block k = 1
        assert off_start not in starts
        m1 = np.array([m.M1] * 3)
        m1[cell, off_start] = 0.0
        m2 = np.array([m.M2] * 3)
        shape = (x.B, x.radial_bandwidths)
        estimates, failures, _diagnostics = _fm_estimates(m1, m2, shape, FMOptions(variant="plain"))
        assert len(estimates) == 2
        assert [type(failure) for failure in failures] == [
            VanishingCoefficientError if i == cell else type(None) for i in range(3)
        ]
        with pytest.raises(VanishingCoefficientError) as raised:
            fm_recover_2d(MomentPair(m1[cell], m.M2, 0.0), shape, FMOptions(variant="plain"))
        assert str(raised.value) == str(failures[cell])


class TestImageShapeCheck:
    @pytest.mark.parametrize("recover", [fm_recover_2d, spectral_recover_2d])
    @pytest.mark.parametrize(
        "shape, dim", [((3, [2, 2]), 14), ((3, [2, 0, 2, 2]), 10), ((3, [2, 2, 2, 2]), 13)]
    )
    def test_bad_shape_rejected_before_any_work(self, recover, shape, dim):
        m = MomentPair(np.ones(dim, dtype=complex), np.eye(dim, dtype=complex), 0.0)
        with pytest.raises(ValueError, match="image_shape|moment dimension"):
            recover(m, shape)

    @pytest.mark.parametrize("recover", [fm_recover_2d, spectral_recover_2d])
    @pytest.mark.parametrize("qk", [[2.7, 1.5], [2, np.nan], [1.5, 1.0]])
    def test_non_integral_bandwidth_rejected(self, recover, qk):
        m = MomentPair(np.ones(5, dtype=complex), np.eye(5, dtype=complex), 0.0)
        with pytest.raises(ValueError, match="image_shape must be"):
            recover(m, (1, qk))


class TestOptions:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            FMOptions(variant="weighted")


class TestExactRecovery2D:
    def test_population_moments_b10_q2(self):
        rng = np.random.default_rng(5)
        img = random_image(10, 2, rng)
        rho = random_rho(10, rng)
        rec = fm_recover_2d(population_moments_2d(img, rho, 0.5), (10, np.full(11, 2)))
        assert recovery_error(rec.signal_est, img).relative_error < 1e-10
        assert recovery_error(rec.rho_est, rho).relative_error < 1e-10

    def test_nonuniform_radial_bandwidths(self):
        rng = np.random.default_rng(7)
        B = 3
        qk = np.array([3, 2, 2, 1])
        ks = np.arange(-B, B + 1)
        sizes = qk[np.abs(ks)]
        coeffs = []
        pos_blocks = [
            (rng.uniform(0.5, 1.5, qk[k]) * np.exp(1j * rng.uniform(0, 2 * np.pi, qk[k])))
            for k in range(1, B + 1)
        ]
        zero = rng.uniform(0.5, 1.5, qk[0]).astype(complex)
        blocks = [pos_blocks[k - 1].conj() for k in range(B, 0, -1)] + [zero] + pos_blocks
        img = FBImage(B, qk, np.concatenate(blocks), is_real=True)
        rho = random_rho(B, rng)
        rec = fm_recover_2d(population_moments_2d(img, rho, 0.2), (B, qk))
        assert recovery_error(rec.signal_est, img).relative_error < 1e-10

    def test_robust_2d_matches_plain_on_population(self):
        rng = np.random.default_rng(8)
        img = random_image(4, 3, rng)
        rho = random_rho(4, rng)
        m = population_moments_2d(img, rho, 0.3)
        shape = (4, np.full(5, 3))
        plain = fm_recover_2d(m, shape, FMOptions(variant="plain"))
        robust = fm_recover_2d(m, shape, FMOptions(variant="robust"))
        assert np.abs(plain.signal_est.coeffs - robust.signal_est.coeffs).max() < 1e-10

    def test_one_over_n_rate_at_snr_100(self):
        # The recovery error should fall like 1/n; check the last decade's
        # ratio within a factor of three of the rate.
        rng = np.random.default_rng(9)
        img = random_image(10, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(10, rng, tol_pos=0.05), 0.1)
        sigma = sigma_for_snr(img, 100.0)
        shape = (10, np.full(11, 2))
        errs = {}
        for n in (100_000, 1_000_000):
            m = simulate_empirical_moments(img, rho, n, sigma, np.random.default_rng(10))
            errs[n] = recovery_error(fm_recover_2d(m, shape).signal_est, img).relative_error
        ratio = errs[100_000] / errs[1_000_000]
        assert 10.0 / 3.0 <= ratio <= 10.0 * 3.0


class TestInvariants:
    def test_gauge_covariance(self):
        # Jointly rotated ground truth has identical moments, so the aligned
        # error is unchanged.
        rng = np.random.default_rng(10)
        B = 5
        x = random_signal_1d(B, rng)
        rho = random_rho(B, rng)
        alpha = 1.1
        m_base = population_moments_2d(x, rho, 0.4)
        m_rot = population_moments_2d(rotate_signal(x, alpha), rotate_distribution(rho, -alpha), 0.4)
        assert np.abs(m_base.M1 - m_rot.M1).max() < 1e-14
        assert np.abs(m_base.M2 - m_rot.M2).max() < 1e-14
        err_base = recovery_error(fm_recover_2d(m_base, shape_1d(x.B)).signal_est, x).relative_error
        err_rot = recovery_error(fm_recover_2d(m_rot, shape_1d(x.B)).signal_est, x).relative_error
        assert abs(err_base - err_rot) < 1e-12

    def test_idempotent_on_reconstructed_moments(self):
        rng = np.random.default_rng(11)
        B = 6
        x = random_signal_1d(B, rng)
        rho = random_rho(B, rng)
        rec = fm_recover_2d(population_moments_2d(x, rho, 0.2), shape_1d(x.B))
        m2 = population_moments_2d(rec.signal_est, rec.rho_est, 0.0)
        rec2 = fm_recover_2d(m2, shape_1d(x.B))
        assert np.abs(rec2.signal_est.coeffs - rec.signal_est.coeffs).max() < 1e-12
        assert np.abs(rec2.rho_est.coeffs - rec.rho_est.coeffs).max() < 1e-12

    def test_diagnostics_present(self):
        rng = np.random.default_rng(12)
        x = random_signal_1d(3, rng)
        rho = random_rho(3, rng)
        rec = fm_recover_2d(population_moments_2d(x, rho, 0.1), shape_1d(x.B))
        assert rec.diagnostics["variant"] == "plain"
        assert rec.diagnostics["min_abs_m1"] > 0
        assert rec.diagnostics["residuals"].max() < 1e-10
        assert rec.rho_est[0] == UNIFORM_DENSITY
