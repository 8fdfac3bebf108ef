import decimal
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from so2mra import harness, signal_model, spectral
from so2mra.errors import MomentConsistencyError
from so2mra.freq_march import RecoveryResult
from so2mra.metrics import recovery_error
from so2mra.moments import MomentPair, debias, population_moments_2d
from so2mra.signal_model import (
    FBImage,
    RotationDistribution,
    UNIFORM_DENSITY,
    coefficient_layout,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    rotate_distribution,
    rotate_signal,
)
from so2mra.spectral import (
    DEGENERACY_TOL,
    RANK_TOL_EMPIRICAL,
    RANK_TOL_POPULATION,
    TIE_TOL,
    bound_value,
    EigOptions,
    SpectralReport,
    _inner_sign_condition,
    _isolation_gaps,
    _pick_isolated,
    _rho_from_first_moment,
    _spectral_estimates,
    circulant_project,
    davis_kahan_bound_2d,
    min_bound_over_rotations,
    spectral_recover_2d,
    toeplitz_matrix,
)

from conftest import random_image, random_rho, random_signal_1d, rho_truncation, shape_1d


def neighbour_gaps(lams):
    """Distance from each eigenvalue of a sorted spectrum to its nearest
    neighbour, which is adjacent; ``inf`` for a lone eigenvalue."""
    steps = np.abs(np.diff(lams))
    return np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))


def select_isolated(lams):
    """Index and gap of the eigenvalue of a sorted spectrum with the largest
    isolation gap; ties within ``TIE_TOL`` go to the larger ``|lambda|``,
    then to the smaller index.  The per-pair rule the stacked pick replaces."""
    gaps = neighbour_gaps(lams)
    cand = np.flatnonzero(gaps >= gaps.max() - TIE_TOL)
    best = cand[int(np.argmax(np.abs(lams[cand])))]
    return int(best), float(gaps[best])


def brute_force_toeplitz(rho):
    B = rho.B
    t = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
    for i, k1 in enumerate(range(-B, B + 1)):
        for j, k2 in enumerate(range(-B, B + 1)):
            t[i, j] = rho[k1 - k2]
    return t


def brute_force_circulant(v):
    n = v.size
    c = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i, j] = v[(i - j) % n]
    return c


def circulant_matrix(v):
    """Circulant matrix with first column ``v``: ``C[i, j] = v[(i - j) mod N]``."""
    n = v.size
    i = np.arange(n)
    return v[(i[:, None] - i[None, :]) % n]


def isolated_gap_ok(rho, rel_tol=1e-6):
    lam = np.sort(np.linalg.eigvalsh(circulant_matrix(circulant_project(rho).v_opt)))
    diffs = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(diffs, np.inf)
    spread = max(lam.max() - lam.min(), 1e-30)
    return diffs.min(axis=1).max() > rel_tol * spread


class TestCirculantProjection:
    def test_compatible_coefficients_are_fixed_point(self):
        rho = make_experiment_distribution(3, np.random.default_rng(0))
        ca = circulant_project(rho)
        assert ca.s_b < 1e-15
        # the projection returns the positive-frequency coefficients unchanged
        assert ca.v_opt[0] == rho[0]
        assert np.abs(ca.v_opt[1:] - rho.positive_coeffs).max() < 1e-14

    def test_uniform(self):
        ca = circulant_project(RotationDistribution.uniform(2))
        expected = np.zeros(5, dtype=complex)
        expected[0] = UNIFORM_DENSITY
        assert np.array_equal(ca.v_opt, expected)
        assert ca.s_b == 0.0

    def test_b1_closed_form_and_brute_force(self):
        rng = np.random.default_rng(1)
        a = 0.04 * np.exp(1j * 0.9)
        b = 0.03 * np.exp(-1j * 0.4)
        rho = RotationDistribution.from_positive(1, np.array([a, b]))
        ca = circulant_project(rho)
        closed = (4.0 / 3.0) * abs(a - np.conj(b)) ** 2
        assert ca.s_b == pytest.approx(closed, rel=1e-12)
        t = brute_force_toeplitz(rho)
        c = brute_force_circulant(ca.v_opt)
        assert np.linalg.norm(t - c, "fro") ** 2 == pytest.approx(ca.s_b, rel=1e-12, abs=1e-18)

    def test_frobenius_identity_random(self):
        for seed in range(20):
            rho = random_rho(3, np.random.default_rng(seed))
            ca = circulant_project(rho)
            t = brute_force_toeplitz(rho)
            c = brute_force_circulant(ca.v_opt)
            assert np.linalg.norm(t - c, "fro") ** 2 == pytest.approx(ca.s_b, rel=1e-12, abs=1e-18)

    def test_minimality_against_perturbed_columns(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_rho(2, rng)
            ca = circulant_project(rho)
            t = toeplitz_matrix(rho)
            base = np.linalg.norm(t - circulant_matrix(ca.v_opt), "fro")
            v = ca.v_opt + 1e-3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            assert np.linalg.norm(t - circulant_matrix(v), "fro") >= base


class TestSpectralRecovery1D:
    def test_exact_recovery_compatible_rho(self):
        for seed in range(10):
            rng = np.random.default_rng((50, seed))
            B = 10
            x = random_signal_1d(B, rng)
            rho = make_experiment_distribution(B, rng)
            if not isolated_gap_ok(rho):
                continue
            m = population_moments_2d(x, rho, sigma=0.4)
            rec, report = spectral_recover_2d(m, shape_1d(x.B))
            assert recovery_error(rec.signal_est, x).relative_error < 1e-8
            est = rho_truncation(rec.rho_est, B)
            truth = rho_truncation(rho, B)
            assert recovery_error(est, truth).relative_error < 1e-8

    def test_rank_one_point_mass(self):
        # rho[k] = 1/(2*pi) everywhere: M2 - sigma^2 I = x x^H, and the
        # conjugated matrix is the rank-one phase outer product.
        rng = np.random.default_rng(3)
        B = 4
        x = random_signal_1d(B, rng)
        rho = RotationDistribution.from_positive(B, np.full(2 * B, UNIFORM_DENSITY, dtype=complex))
        m = population_moments_2d(x, rho, sigma=0.7)
        # Eigenvalues at or below 1e-10 in absolute value are discarded.
        rec, report = spectral_recover_2d(m, shape_1d(B), EigOptions(rank_tol=1e-10 / (2 * B + 1)))
        assert report.eigenvalues.shape == (1,)
        assert report.eigenvalues[0] == pytest.approx(2 * B + 1, rel=1e-12)
        assert recovery_error(rec.signal_est, x).relative_error < 1e-10

    def test_error_within_bound_for_perturbed_rho(self):
        rng = np.random.default_rng(4)
        B = 10
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.05)
        m = population_moments_2d(x, rho, sigma=0.0)
        rec, _ = spectral_recover_2d(m, shape_1d(x.B))
        report = davis_kahan_bound_2d(x, rho, recovery=rec)
        if report.all_conditions_met():
            abs_err = recovery_error(rec.signal_est, x).relative_error * float(
                np.vdot(x.coeffs, x.coeffs).real
            )
            assert abs_err <= report.bound

    def test_conjugate_flip_symmetry(self):
        rng = np.random.default_rng(5)
        B = 6
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.08)
        rec, _ = spectral_recover_2d(population_moments_2d(x, rho, 0.2), shape_1d(x.B))
        xt = rec.diagnostics["x_tilde"]
        assert np.abs(xt - xt[::-1].conj()).max() < 1e-10

    def test_spectrum_matches_toeplitz(self):
        rng = np.random.default_rng(6)
        B = 5
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.03)
        _, report = spectral_recover_2d(population_moments_2d(x, rho, 0.3), shape_1d(x.B))
        lam_t = np.sort(np.linalg.eigvalsh(toeplitz_matrix(rho)))[::-1]
        assert np.abs(report.eigenvalues - 2 * np.pi * lam_t).max() < 1e-10

    def test_nonpositive_power_spectrum_raises(self):
        m1 = np.ones(3, dtype=complex)
        m2 = np.diag([1.0, 0.5, 1.0]).astype(complex)
        m = MomentPair(m1, m2, sigma=1.0)  # debias drives diag negative
        with pytest.raises(MomentConsistencyError):
            spectral_recover_2d(m, shape_1d(1))


class TestDavisKahan1D:
    def test_zero_distance_zero_bound(self):
        rng = np.random.default_rng(7)
        x = random_signal_1d(4, rng)
        rho = make_experiment_distribution(4, rng)
        report = davis_kahan_bound_2d(x, rho)
        assert report.s_b < 1e-15
        assert report.bound == 0.0

    def test_boundary_algebra(self):
        # At s_b == delta^2 the square root vanishes and the bound saturates.
        assert bound_value(0.25, 0.5, 2.0, 21.0) == pytest.approx(2 * 21 * 2.0)
        assert bound_value(0.26, 0.5, 2.0, 21.0) is None
        assert bound_value(0.0, 0.0, 2.0, 21.0) == 0.0

    @pytest.mark.parametrize("r", [1e-4, 1e-8, 1e-12, 1e-18])
    def test_small_ratio_has_no_cancellation(self, r):
        # 2 * 0.5 * 1 * (1 - sqrt(1 - r)) at delta = 1 against 50-digit decimal
        # arithmetic on the same double r: within 4 ulp, and never 0 for r > 0.
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = float(1 - (1 - decimal.Decimal(r)).sqrt())
        got = bound_value(r, 1.0, 0.5, 1.0)
        assert got > 0.0
        assert abs(got - exact) <= 4 * np.spacing(exact)

    def test_bound_tracks_perturbation_sweep(self):
        rng = np.random.default_rng(8)
        B = 10
        x = random_signal_1d(B, rng)
        base = make_experiment_distribution(B, rng)
        norm_sq = float(np.vdot(x.coeffs, x.coeffs).real)
        errors, bounds, sbs = [], [], []
        for eta in np.logspace(-3, -1, 8):
            rho = perturb_distribution(base, eta)
            rec, _ = spectral_recover_2d(population_moments_2d(x, rho, 0.0), shape_1d(x.B))
            report = davis_kahan_bound_2d(x, rho, recovery=rec)
            if not report.all_conditions_met():
                continue
            errors.append(recovery_error(rec.signal_est, x).relative_error * norm_sq)
            bounds.append(report.bound)
            sbs.append(report.s_b)
        assert len(bounds) >= 5
        assert all(e <= b for e, b in zip(errors, bounds))
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))


class TestSpectralRecovery2D:
    def test_exact_recovery_b10_q2(self):
        B, Q = 10, 2
        for seed in range(20):
            rng = np.random.default_rng((90, seed))
            img = make_experiment_signal_2d(B, Q, rng)
            rho = make_experiment_distribution(B, rng)
            if isolated_gap_ok(rho):
                break
        else:
            raise AssertionError("no draw with an isolated gap in 20 attempts")
        m = population_moments_2d(img, rho, sigma=0.5)
        rec, report = spectral_recover_2d(m, (B, np.full(B + 1, Q)))
        assert recovery_error(rec.signal_est, img).relative_error < 1e-8
        est = rho_truncation(rec.rho_est, B)
        truth = rho_truncation(rho, B)
        assert recovery_error(est, truth).relative_error < 1e-8

    def test_rank_at_most_2b_plus_1(self):
        rng = np.random.default_rng(11)
        B, Q = 3, 3
        img = random_image(B, Q, rng)
        rho = random_rho(B, rng)
        m = debias(population_moments_2d(img, rho, 0.3))
        p = np.sqrt(np.diag(m.M2).real)
        mat = m.M2 / np.outer(p, p)
        lam = np.linalg.eigvalsh(mat)
        above = (np.abs(lam) > 1e-8 * np.abs(lam).max()).sum()
        assert above <= 2 * B + 1

    def test_conjugate_flip_symmetry_2d(self):
        # x_tilde[k, q] == conj(x_tilde[-k, q]) for the anchored eigenvector.
        rng = np.random.default_rng(18)
        B, Q = 4, 2
        img = random_image(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.04)
        rec, _ = spectral_recover_2d(population_moments_2d(img, rho, 0.2), (B, np.full(B + 1, Q)))
        xt = rec.diagnostics["x_tilde"]
        for k in range(1, B + 1):
            for q in range(Q):
                i = img.block_start(k) + q
                j = img.block_start(-k) + q
                assert abs(xt[j] - np.conj(xt[i])) < 1e-10

    def test_nonuniform_q_rejected(self):
        rng = np.random.default_rng(12)
        qk = np.array([2, 2, 1])
        with pytest.raises(ValueError):
            spectral_recover_2d(
                MomentPair(np.ones(8, dtype=complex), np.eye(8, dtype=complex), 0.0),
                (2, qk),
            )


class TestEigOptions:
    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1e-3, 1.0, 2.0])
    def test_rank_tol_outside_unit_interval_rejected(self, rank_tol):
        # At 1 or above (or nan) no eigenvalue would pass the threshold, and
        # the caller's mistake would surface as a MomentConsistencyError, an
        # expected failure; below 0 every structural zero would be scanned.
        with pytest.raises(ValueError, match="rank_tol"):
            EigOptions(rank_tol=rank_tol)

    @pytest.mark.parametrize("rank_tol", [RANK_TOL_POPULATION, spectral.RANK_TOL_EMPIRICAL, 0.0])
    def test_valid_rank_tol_accepted(self, rank_tol):
        assert EigOptions(rank_tol=rank_tol).rank_tol == rank_tol
        assert EigOptions().rank_tol == RANK_TOL_POPULATION


class TestRhoFromFirstMoment:
    @pytest.mark.parametrize("Q", [1, 2, 3])
    def test_block_mean_matches_per_k_loop(self, Q):
        rng = np.random.default_rng(50 + Q)
        B = 4
        k_index, starts = coefficient_layout(B, np.full(B + 1, Q))
        m1 = rng.standard_normal(k_index.size) + 1j * rng.standard_normal(k_index.size)
        x_est = rng.uniform(0.5, 1.5, k_index.size) * np.exp(1j * rng.uniform(0, 2 * np.pi, k_index.size))
        ratios = m1 / (2 * np.pi * x_est)
        pos = np.zeros(2 * B, dtype=complex)
        for k in range(1, B + 1):
            pos[k - 1] = ratios[k_index == k].mean()
        got = _rho_from_first_moment(m1, x_est, starts, B)
        # The block sums add in another order than the loop's means.
        assert np.abs(got.positive_coeffs - pos).max() <= 4 * np.finfo(float).eps * np.abs(ratios).max()
        assert np.array_equal(got.positive_coeffs[B:], np.zeros(B))


class TestDavisKahan2D:
    def test_zero_distance_zero_bound(self):
        rng = np.random.default_rng(14)
        img = make_experiment_signal_2d(3, 2, rng)
        rho = make_experiment_distribution(3, rng)
        assert davis_kahan_bound_2d(img, rho).bound == 0.0

    def test_block_frobenius_identity(self):
        # || T_blocks - C_blocks ||_F^2 == Q^2 * s_b, by explicit construction.
        for B in (1, 2, 3):
            for Q in (1, 2, 3):
                rng = np.random.default_rng((B, Q))
                rho = random_rho(B, rng)
                ca = circulant_project(rho)
                n = 2 * B + 1
                t_big = np.zeros((n * Q, n * Q), dtype=complex)
                c_big = np.zeros((n * Q, n * Q), dtype=complex)
                for i, k1 in enumerate(range(-B, B + 1)):
                    for j, k2 in enumerate(range(-B, B + 1)):
                        t_big[i * Q : (i + 1) * Q, j * Q : (j + 1) * Q] = rho[k1 - k2]
                        c_big[i * Q : (i + 1) * Q, j * Q : (j + 1) * Q] = ca.v_opt[(i - j) % n]
                dist = np.linalg.norm(t_big - c_big, "fro") ** 2
                assert dist == pytest.approx(Q**2 * ca.s_b, rel=1e-12, abs=1e-18)


class TestMinBoundOverRotations:
    def test_periodicity(self):
        rng = np.random.default_rng(15)
        x = random_signal_1d(3, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng), 0.05)
        r0 = davis_kahan_bound_2d(x, rotate_distribution(rho, 0.0))
        r2pi = davis_kahan_bound_2d(x, rotate_distribution(rho, 2 * np.pi))
        assert r0.bound == pytest.approx(r2pi.bound, rel=1e-10)
        assert np.allclose(r0.eigenvalues_circ, r2pi.eigenvalues_circ, atol=1e-12)

    def test_grid_size_one_is_identity(self):
        rng = np.random.default_rng(16)
        x = random_signal_1d(3, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng), 0.05)
        angle, report = min_bound_over_rotations(x, rho, 1)
        direct = davis_kahan_bound_2d(x, rho)
        assert angle == 0.0
        assert report.bound == direct.bound

    def test_grid_rotations_leave_bound_unchanged(self):
        # The 2B+1 grid rotations leave s_b, both spectra and the power
        # spectrum unchanged, so minimising over them gives the unrotated bound.
        rng = np.random.default_rng(19)
        B, Q = 10, 2
        img = make_experiment_signal_2d(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.01)
        direct = davis_kahan_bound_2d(img, rho)
        assert direct.bound is not None
        _, report = min_bound_over_rotations(img, rho, 2 * B + 1)
        assert report.bound == pytest.approx(direct.bound, rel=1e-10)

    def test_minimised_bound_still_dominates(self):
        rng = np.random.default_rng(17)
        B, Q = 10, 2
        img = make_experiment_signal_2d(B, Q, rng)
        base = make_experiment_distribution(B, rng)
        norm_sq = float(np.vdot(img.coeffs, img.coeffs).real)
        gaps = []
        for eta in (0.003, 0.01, 0.05):
            rho = perturb_distribution(base, eta)
            rec, _ = spectral_recover_2d(population_moments_2d(img, rho, 0.0), (B, np.full(B + 1, Q)))
            _, report = min_bound_over_rotations(img, rho, 90, recovery=rec)
            if report.bound is None:
                continue
            abs_err = recovery_error(rec.signal_est, img).relative_error * norm_sq
            assert abs_err <= report.bound
            gaps.append(report.bound - abs_err)
        assert gaps and all(g > 0 for g in gaps)

    def test_no_applicable_rotation_returns_unrotated_report(self):
        rng = np.random.default_rng((21, 0))
        x = random_image(3, 2, rng)
        rho = random_rho(3, rng)
        grid = 16
        for j in range(grid):
            a = 2 * np.pi * j / grid
            assert davis_kahan_bound_2d(rotate_signal(x, -a), rotate_distribution(rho, a)).bound is None
        angle, report = min_bound_over_rotations(x, rho, grid)
        direct = davis_kahan_bound_2d(x, rho)
        assert angle == 0.0
        assert report.bound is None
        assert np.array_equal(report.eigenvalues, direct.eigenvalues)
        assert np.array_equal(report.eigenvalues_circ, direct.eigenvalues_circ)
        assert report.delta_kappa == direct.delta_kappa
        assert report.conditions_met == direct.conditions_met


    def test_no_matching_circulant_eigenvalue(self):
        # rho[1] = 1/(2 pi) + 1/8 and rho[2] = 1/(2 pi) - 1/4 project onto the
        # constant circulant column 1/(2 pi), of rank one, while the most
        # isolated Toeplitz eigenvalue is the third: there is no circulant
        # eigenvalue to pair it with, so the gap is 0 and no bound applies.
        rho = RotationDistribution.from_positive(1, UNIFORM_DENSITY + np.array([0.125, -0.25]))
        for q in (1, 2):
            _angle, report = min_bound_over_rotations(FBImage(1, [q, q], np.ones(3 * q)), rho, 1)
            assert report.eigenvalues_circ.size == 1 and report.kappa == 2
            assert report.delta_kappa == 0.0 and report.bound is None
            assert report.conditions_met["distance_within_gap"] is False
            assert report.conditions_met["simple_eigenvalues"] is False

    @pytest.mark.parametrize(
        "x, rho, grid_size, message",
        [
            (FBImage(1, [1, 1], np.ones(3)), RotationDistribution.uniform(1), 0, "grid_size"),
            (FBImage(1, [1, 1], np.ones(3)), RotationDistribution.uniform(2), 1, "bandwidths"),
            (FBImage(1, [2, 1], np.ones(4)), RotationDistribution.uniform(1), 1, "uniform radial"),
        ],
        ids=["empty_grid", "bandwidth_mismatch", "non_uniform_q"],
    )
    def test_input_checks(self, x, rho, grid_size, message):
        with pytest.raises(ValueError, match=message):
            min_bound_over_rotations(x, rho, grid_size)

    def test_grid_size_is_an_integer_not_a_bool(self):
        # True would otherwise evaluate a grid of one rotation.
        x, rho = FBImage(1, [1, 1], np.ones(3)), RotationDistribution.uniform(1)
        for flag in (True, False, np.True_):
            with pytest.raises(TypeError, match="grid_size must be an integer"):
                min_bound_over_rotations(x, rho, flag)
        (angle, report), (want_angle, want) = (min_bound_over_rotations(x, rho, g) for g in (np.int64(3), 3))
        assert angle == want_angle and report.s_b == want.s_b and report.bound == want.bound


def per_angle_scan(x, rho, grid_size, recovery=None):
    """Reference rotation scan: a full one-angle evaluation of every rotated pair.

    Returns the first angle with the smallest applicable bound (angle 0 if
    none applies), its index and every angle's report.
    """
    reports = [
        davis_kahan_bound_2d(rotate_signal(x, -a), rotate_distribution(rho, a), recovery)
        for a in 2 * np.pi * np.arange(grid_size) / grid_size
    ]
    best = 0
    for j, report in enumerate(reports):
        if report.bound is not None and (reports[best].bound is None or report.bound < reports[best].bound):
            best = j
    return best, reports


def near(a, b, rtol=1e-9):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class TestRotationScan:
    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 6),
        Q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        eta=st.floats(0.0, 1.0),
        grid=st.sampled_from((1, 2, 7, "2B+1", 16)),
        recovery=st.sampled_from((None, "spectral", "random phases")),
    )
    def test_matches_per_angle_reference(self, B, Q, seed, eta, grid, recovery):
        grid_size = 2 * B + 1 if grid == "2B+1" else grid
        rng = np.random.default_rng(seed)
        x = random_image(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.02), eta)
        rec = None
        if recovery == "spectral":
            rec, _ = spectral_recover_2d(population_moments_2d(x, rho, 0.0), (B, np.full(B + 1, Q)))
        elif recovery == "random phases":
            # A spectral estimate passes the inner-sign check at every angle;
            # arbitrary phases make its outcome depend on the angle.
            rec = RecoveryResult(x, rho, {"x_tilde": np.exp(1j * rng.uniform(0.0, 2 * np.pi, x.size))})
        best, reports = per_angle_scan(x, rho, grid_size, rec)
        # Keep every angle off the knife edges where rounding decides: the
        # degeneracy and distance thresholds, and the choice of kappa.
        for r in reports:
            lam_c = r.eigenvalues_circ
            deg_tol = DEGENERACY_TOL * max(np.abs(r.eigenvalues).max(), np.abs(lam_c).max(initial=0.0), 1e-30)
            assume(not near(r.gap, deg_tol))
            assume(r.kappa >= lam_c.size or not near(neighbour_gaps(lam_c)[r.kappa], deg_tol))
            assume(not near(Q**2 * r.s_b, r.delta_kappa**2))
            assume(r.kappa == reports[0].kappa)
        # bound_value rounds 1 - s_b/delta^2 once, an absolute error of about
        # 2*Q*(2B+1)*P_max*eps; within that, equal bounds tie.
        slack = 8 * Q * (2 * B + 1) * x.power_spectrum.max() * np.finfo(float).eps

        def close(b, ref, rtol=1e-12):
            return abs(b - ref) <= rtol * abs(ref) + slack

        angle, report = min_bound_over_rotations(x, rho, grid_size, rec)
        j = int(round(angle * grid_size / (2 * np.pi)))
        assert angle == 2 * np.pi * j / grid_size
        ref = reports[j]
        if reports[best].bound is None:
            assert j == 0
        else:
            low = reports[best].bound
            tied = [i for i, r in enumerate(reports) if r.bound is not None and close(r.bound, low, 1e-9)]
            assert j == best if tied == [best] else j in tied
        assert (report.bound is None) == (ref.bound is None)
        if ref.bound is not None:
            assert close(report.bound, ref.bound)
        assert report.conditions_met == ref.conditions_met
        assert (report.conditions_met["inner_sign"] is None) == (rec is None)
        assert report.eigenvalues_circ.shape == ref.eigenvalues_circ.shape
        scale = np.abs(ref.eigenvalues).max()
        assert np.abs(report.eigenvalues_circ - ref.eigenvalues_circ).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(report.eigenvalues - ref.eigenvalues).max() <= 1e-12 * scale

    def test_inner_sign_reads_the_image_rotated_by_minus_the_angle(self):
        # rho0 scans best at angle 0, so rho, rho0 turned by -pi/2, scans best
        # at a = pi/2.  There the image is x rotated by -a, with the unit
        # phases x_tilde*exp(1j*k*a).  The estimate below overlaps them as
        # Q*(-1 + 1.5*cos(phi)), positive at phi = 0.  Against the phases
        # turned the other way it overlaps as Q*(-1 - 1.5*cos(phi)), negative
        # on the whole grid phi = 2*pi*l/3.
        rng = np.random.default_rng(27)
        x = random_image(1, 2, rng)
        rho = rotate_distribution(perturb_distribution(make_experiment_distribution(1, rng), 0.1), -np.pi / 2)
        a = np.pi / 2
        assert min_bound_over_rotations(x, rho, 4)[0] == a
        k = x.k_values
        x_tilde = x.coeffs / np.abs(x.coeffs)
        est = x_tilde * np.exp(1j * k * a) * np.where(k == 0, -1.0, 0.75)
        assert not _inner_sign_condition(est, x_tilde * np.exp(-1j * k * a), k, 1)
        rec = RecoveryResult(x, rho, {"x_tilde": est})
        _, report = min_bound_over_rotations(x, rho, 4, recovery=rec)
        reference = davis_kahan_bound_2d(rotate_signal(x, -a), rotate_distribution(rho, a), rec)
        assert report.conditions_met["inner_sign"] is reference.conditions_met["inner_sign"] is True

    def test_one_toeplitz_eigensolve_and_no_rotated_image(self, monkeypatch):
        rng = np.random.default_rng(26)
        B, Q = 10, 2
        img = make_experiment_signal_2d(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng), 0.01)
        rec, _ = spectral_recover_2d(population_moments_2d(img, rho, 0.0), (B, np.full(B + 1, Q)))
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(spectral, "toeplitz_matrix", counted("toeplitz_matrix", toeplitz_matrix))
        monkeypatch.setattr(signal_model, "rotate_signal", counted("rotate_signal", rotate_signal))
        monkeypatch.setattr(FBImage, "__post_init__", counted("FBImage", FBImage.__post_init__))
        _angle, report = min_bound_over_rotations(img, rho, 24, recovery=rec)
        assert calls == ["toeplitz_matrix"]
        assert report.conditions_met["inner_sign"] is not None
        assert not hasattr(spectral, "rotate_signal")


def block_matrix_bound(x, rho, recovery=None):
    """Reference bound from the explicit ``Q``-times-larger block matrices.

    Builds ``kron(T, 1_Q)`` and ``kron(C, 1_Q)`` and runs a general
    eigensolver on them; the selection, gap and applicability rules are those
    of ``davis_kahan_bound_2d``.
    """
    B = rho.B
    q = int(x.radial_bandwidths[0])
    ca = circulant_project(rho)
    s_b_eff = q**2 * ca.s_b

    def nonzero_desc(mat):
        lams = np.sort(np.linalg.eigvalsh(np.kron(mat, np.ones((q, q)))))[::-1]
        return lams[np.abs(lams) > RANK_TOL_POPULATION * np.abs(lams).max()]

    lam_t = nonzero_desc(toeplitz_matrix(rho))
    lam_c = nonzero_desc(circulant_matrix(ca.v_opt))
    _kept, _count, [kappa], [gap] = _pick_isolated(lam_t[None], 0.0)
    if kappa >= lam_c.size:
        delta = 0.0
    else:
        others_t = np.delete(lam_t, kappa)
        others_c = np.delete(lam_c, kappa)
        d1 = np.abs(lam_c[kappa] - others_t).min() if others_t.size else np.inf
        d2 = np.abs(others_c - lam_t[kappa]).min() if others_c.size else np.inf
        delta = float(max(d1, d2))
    deg_tol = DEGENERACY_TOL * max(np.abs(lam_t).max(), np.abs(lam_c).max(), 1e-30)

    def simple(lams, idx):
        if idx >= lams.size:
            return False
        diffs = np.abs(lams - lams[idx])
        diffs[idx] = np.inf
        return bool(diffs.min(initial=np.inf) > deg_tol)

    conditions = {
        "nonvanishing": bool(np.abs(x.coeffs).min() > 1e-12 * max(1.0, np.abs(x.coeffs).max())),
        "simple_eigenvalues": simple(lam_t, kappa) and simple(lam_c, kappa),
        "inner_sign": None,
        "distance_within_gap": bool(s_b_eff <= delta**2),
    }
    if recovery is not None:
        conditions["inner_sign"] = _inner_sign_condition(
            recovery.diagnostics["x_tilde"], x.coeffs / np.abs(x.coeffs), x.k_values, B
        )
    bound = bound_value(s_b_eff, delta, float(x.power_spectrum.max()), float(q * (2 * B + 1)))
    return lam_t, lam_c, kappa, gap, delta, conditions, bound


def rel_close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * abs(b)


class TestClosedFormSpectra:
    @pytest.mark.parametrize("Q", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 3, 10])
    def test_block_toeplitz_spectrum_is_q_times_toeplitz(self, B, Q):
        # kron(T, 1_Q) has the eigenvalues Q*eig(T) plus (Q-1)(2B+1) zeros.
        t = toeplitz_matrix(random_rho(B, np.random.default_rng((22, B, Q))))
        big = np.sort(np.linalg.eigvalsh(np.kron(t, np.ones((Q, Q)))))
        expected = np.sort(np.concatenate([Q * np.linalg.eigvalsh(t), np.zeros((Q - 1) * (2 * B + 1))]))
        assert np.abs(big - expected).max() <= 1e-12 * np.abs(big).max()

    @pytest.mark.parametrize("Q", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 3, 10])
    def test_block_circulant_spectrum_is_q_times_dft(self, B, Q):
        v = circulant_project(random_rho(B, np.random.default_rng((23, B, Q)))).v_opt
        dft = np.fft.fft(v)
        c = circulant_matrix(v)
        scale = np.abs(np.linalg.eigvalsh(c)).max()
        assert np.abs(dft.imag).max() <= 1e-12 * scale
        assert np.abs(np.sort(dft.real) - np.linalg.eigvalsh(c)).max() <= 1e-12 * scale
        big = np.sort(np.linalg.eigvalsh(np.kron(c, np.ones((Q, Q)))))
        expected = np.sort(np.concatenate([Q * dft.real, np.zeros((Q - 1) * (2 * B + 1))]))
        assert np.abs(big - expected).max() <= 1e-12 * Q * scale

    @pytest.mark.parametrize("B, Q", [(1, 1), (3, 2), (10, 1), (10, 2), (4, 3)])
    def test_bound_matches_block_matrices(self, B, Q):
        rng = np.random.default_rng((24, B, Q))
        img = make_experiment_signal_2d(B, Q, rng)
        base = make_experiment_distribution(B, rng)
        applicable = set()
        for eta in (0.003, 0.05, 0.1, 0.3, 1.0):
            rho = perturb_distribution(base, eta)
            rec, _ = spectral_recover_2d(population_moments_2d(img, rho, 0.0), (B, np.full(B + 1, Q)))
            report = davis_kahan_bound_2d(img, rho, recovery=rec)
            lam_t, lam_c, kappa, gap, delta, conditions, bound = block_matrix_bound(img, rho, rec)
            assert report.kappa == kappa
            assert report.conditions_met == conditions
            assert rel_close(report.gap, gap) and rel_close(report.delta_kappa, delta)
            assert report.eigenvalues.shape == lam_t.shape
            assert report.eigenvalues_circ.shape == lam_c.shape
            scale = np.abs(lam_t).max()
            assert np.abs(report.eigenvalues - lam_t).max() <= 1e-12 * scale
            assert np.abs(report.eigenvalues_circ - lam_c).max() <= 1e-12 * scale
            if bound is None:
                assert report.bound is None
            else:
                assert rel_close(report.bound, bound)
            applicable.add(bound is not None)
        assert applicable == {True, False}

    def test_random_toeplitz_matches_block_matrices(self):
        for seed in range(10):
            rng = np.random.default_rng((25, seed))
            x = random_image(3, 2, rng)
            rho = random_rho(3, rng)
            report = davis_kahan_bound_2d(x, rho)
            lam_t, lam_c, kappa, gap, delta, conditions, bound = block_matrix_bound(x, rho)
            assert report.kappa == kappa and report.conditions_met == conditions
            assert rel_close(report.gap, gap) and rel_close(report.delta_kappa, delta)
            assert (report.bound is None) == (bound is None)

    @settings(max_examples=40, deadline=None)
    @given(
        B=st.integers(1, 6),
        Q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        angle=st.floats(-10.0, 10.0, allow_nan=False),
    )
    def test_toeplitz_spectrum_rotation_invariant(self, B, Q, seed, angle):
        rng = np.random.default_rng(seed)
        x = random_image(B, Q, rng)
        rho = random_rho(B, rng)
        direct = davis_kahan_bound_2d(x, rho).eigenvalues
        rotated = davis_kahan_bound_2d(rotate_signal(x, -angle), rotate_distribution(rho, angle)).eigenvalues
        assert rotated.shape == direct.shape
        assert np.abs(rotated - direct).max() <= 1e-12 * np.abs(direct).max()


class TestReportConditions:
    def test_unchecked_condition_counts_as_met(self):
        def report(conditions):
            return SpectralReport(np.ones(1), 0, np.inf, conditions_met=conditions)

        assert report({"a": True, "b": None}).all_conditions_met()
        assert not report({"a": False, "b": None}).all_conditions_met()
        assert not report(None).all_conditions_met()


class TestNeighbourGaps:
    @pytest.mark.parametrize("size", [1, 2, 7, 21])
    def test_matches_all_pairs_minimum(self, size):
        # The kept eigenvalues of a descending spectrum are a prefix and a
        # suffix of it; on them the nearest neighbour is adjacent, so the
        # stacked gaps equal the all-pairs minimum bit for bit, ties included.
        rng = np.random.default_rng(size)
        lams = np.sort(np.round(rng.standard_normal((20, size)), 1), axis=1)[:, ::-1]
        kept, counts, gaps = _isolation_gaps(lams, 0.1)
        for row, count, kept_row, gap_row in zip(lams, counts, kept, gaps):
            ref = row[np.abs(row) > 0.1 * np.abs(row).max()]
            assert count == ref.size and kept_row[:count].tobytes() == ref.tobytes()
            diffs = np.abs(ref[:, None] - ref[None, :])
            np.fill_diagonal(diffs, np.inf)
            assert gap_row[:count].tobytes() == diffs.min(axis=1, initial=np.inf).tobytes()
            assert (gap_row[count:] == -np.inf).all()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def workload_values(name, seed):
    """A benchmark workload's sweep config, read from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config(name, seed, "unused.csv")


def reference_pick(lams, rank_tol):
    """The rank cut and ``select_isolated``, pair by pair: the kept
    eigenvalues, kappa and gap of each row."""
    picks = []
    for row in lams:
        kept = row[np.abs(row) > rank_tol * np.abs(row).max(initial=0.0)]
        picks.append((kept, *select_isolated(kept)))
    return picks


def eigh_spectral_estimates(m1, m2, image_shape, rank_tol):
    """The core the stacked one replaced, on a stack of one pair: ``eigh``'s
    vector of the eigenvalue ``select_isolated`` picks, in the return format
    of ``_spectral_estimates``."""
    B, qk = image_shape
    anchor = int(coefficient_layout(B, qk)[1][B])
    p = np.diagonal(m2, axis1=1, axis2=2).real
    inv_sqrt = 1.0 / np.sqrt(p)
    lams, vecs = np.linalg.eigh(m2[0] * (inv_sqrt[0, :, None] * inv_sqrt[0, None, :]))
    lams, vecs = lams[::-1], vecs[:, ::-1]
    keep = np.flatnonzero(np.abs(lams) > rank_tol * np.abs(lams).max())
    kappa, gap = select_isolated(lams[keep])
    x_tilde = np.sqrt(float(m1.shape[1])) * vecs[:, keep[kappa]]
    x_tilde *= np.exp(1j * (np.angle(m1[0, anchor]) - np.angle(x_tilde[anchor])))
    diagnostics = {
        "eigenvalues": lams[keep][None],
        "count": [keep.size],
        "kappa": [kappa],
        "gap": [gap],
        "x_tilde": x_tilde[None],
    }
    return np.sqrt(p) * x_tilde, [None], diagnostics


@st.composite
def descending_spectra(draw):
    """Stacks of 1-8 descending spectra whose kept eigenvalues are a prefix
    only, a suffix only, both, or one alone, on a coarse grid (exact ties)
    moved by less than ``TIE_TOL`` (ties within the window)."""
    rank_tol = draw(st.sampled_from([0.0, 1e-3, 0.25]))
    d = draw(st.integers(1, 10))
    # Kept magnitudes are at least 1.5, above 0.25 times the largest, 5.
    kept_value = st.tuples(st.integers(6, 20), st.sampled_from([0.0, 0.4 * TIE_TOL, -0.4 * TIE_TOL]))
    dropped = st.sampled_from([0.0] if rank_tol == 0.0 else [0.0, 1e-4, -1e-4])
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["prefix", "suffix", "both", "lone"]))
        if kind == "lone" or d == 1:
            signs = [draw(st.sampled_from([1.0, -1.0]))]
        elif kind == "both":
            n_pos = draw(st.integers(1, d - 1))
            signs = [1.0] * n_pos + [-1.0] * draw(st.integers(1, d - n_pos))
        else:
            signs = [1.0 if kind == "prefix" else -1.0] * draw(st.integers(1, d))
        row = [sign * (k / 4 + jitter) for sign in signs for k, jitter in [draw(kept_value)]]
        row += [draw(dropped) for _ in range(d - len(row))]
        rows.append(sorted(row, reverse=True))
    return np.array(rows), rank_tol


class TestStackedCore:
    @settings(max_examples=300, deadline=None)
    @given(case=descending_spectra())
    def test_pick_matches_per_pair_rule(self, case):
        lams, rank_tol = case
        picks = reference_pick(lams, rank_tol)
        kept, counts, kappa, gap = _pick_isolated(lams, rank_tol)
        for i, (ref_kept, ref_kappa, ref_gap) in enumerate(picks):
            assert kept[i, : counts[i]].tobytes() == ref_kept.tobytes()
            assert (kappa[i], gap[i].tobytes()) == (ref_kappa, np.float64(ref_gap).tobytes())
            # A stack of that row alone picks the same, bit for bit.
            alone = _pick_isolated(lams[i : i + 1], rank_tol)
            assert (alone[2][0], alone[3].tobytes()) == (kappa[i], gap[i : i + 1].tobytes())

    @staticmethod
    def assert_eigh_vectors(m1, m2, image_shape, rank_tol, tol=1e-10):
        """The core's phase vectors against ``eigh``'s vectors of the chosen
        eigenvalues, up to a unit phase; returns the chosen eigenvalues."""
        d = m1.shape[1]
        _est, failures, diagnostics = _spectral_estimates(m1, m2, image_shape, rank_tol)
        assert failures == [None] * len(m1)
        kept, kappa, x_tilde = diagnostics["eigenvalues"], diagnostics["kappa"], diagnostics["x_tilde"]
        p = np.diagonal(m2, axis1=1, axis2=2).real
        lams, vecs = np.linalg.eigh(m2 / np.sqrt(p[:, :, None] * p[:, None, :]))
        chosen = kept[np.arange(len(m1)), kappa]
        for i, lam in enumerate(chosen):
            scale = np.abs(lams[i]).max()
            j = int(np.argmin(np.abs(lams[i] - lam)))
            assert abs(lams[i, j] - lam) <= 1e-12 * scale
            assert np.abs(np.sort(lams[i]) - np.sort(kept[i])).max() <= 1e-12 * scale
            v, x = vecs[i, :, j], x_tilde[i] / np.sqrt(d)
            phase = np.vdot(v, x)
            assert abs(abs(phase) - 1.0) <= tol
            assert np.abs(x - phase / abs(phase) * v).max() <= tol
        return chosen

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 21, 34, 42, 60])
    def test_eigenvector_matches_eigh_on_random_stacks(self, d):
        # I + H with a zero-diagonal Hermitian H: a unit diagonal, so the
        # core's normalisation leaves the matrix as it is, and a spectrum
        # around 1 whose most isolated eigenvalue is one of its two ends,
        # negative in some draws.
        rng = np.random.default_rng((28, d))
        signs = set()
        for size in range(1, 9):
            h = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
            h = (h + h.conj().transpose(0, 2, 1)) / np.sqrt(8.0 * d) * 1.5
            h[:, np.arange(d), np.arange(d)] = 0.0
            m2 = np.eye(d) + h
            m1 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (size, d)))
            chosen = self.assert_eigh_vectors(m1, m2, (0, np.array([d])), RANK_TOL_EMPIRICAL)
            signs.update(np.sign(chosen))
        # At d = 2 the eigenvalues 1 +- |h| tie in gap, and 1 + |h| is larger.
        assert signs == ({1.0} if d < 3 else {1.0, -1.0})

    @pytest.mark.parametrize("workload", ["snr_desk", "n_fixed_gt"])
    @pytest.mark.parametrize("seed", [2024, 7])
    def test_eigenvector_matches_eigh_on_sweep_stacks(self, monkeypatch, workload, seed):
        stacks = []
        core = harness._RECOVERIES["spectral"]

        def recording(m1, m2, shape):
            stacks.append((m1.copy(), m2.copy(), shape))
            return core(m1, m2, shape)

        monkeypatch.setitem(harness._RECOVERIES, "spectral", recording)
        values = {**workload_values(workload, seed), "threads": 1}
        harness.run_experiment(harness.config_from_sources(values))
        assert sum(len(m1) for m1, _m2, _shape in stacks) == {"snr_desk": 30, "n_fixed_gt": 64}[workload]
        for m1, m2, shape in stacks:
            self.assert_eigh_vectors(m1, m2, shape, RANK_TOL_EMPIRICAL)

    def test_bound_sweep_matches_eigh_core(self, monkeypatch):
        # The default bound sweep recovers from exact moments, so its errors
        # are about 1e-9 and a change of the estimate shows up magnified:
        # one inverse-iteration step moved them by 9e-9 relative, the two
        # steps move them by less than 1e-9.  Every other cell is unchanged.
        cfg = harness.ExperimentConfig(experiment="bound_sweep")
        rows = harness.run_experiment(cfg)
        calls = []

        def reference(*args):
            calls.append(args)
            return eigh_spectral_estimates(*args)

        monkeypatch.setattr(spectral, "_spectral_estimates", reference)
        refs = harness.run_experiment(cfg)
        assert len(calls) == len(rows) == 20
        for row, ref in zip(rows, refs, strict=True):
            for column in ("median_error", "lower", "upper"):
                assert abs(row[column] - ref[column]) <= 1e-9 * ref[column]
            assert {k: v for k, v in row.items() if k not in ("median_error", "lower", "upper")} == {
                k: v for k, v in ref.items() if k not in ("median_error", "lower", "upper")
            }

    def test_eigenvector_orthogonal_to_ones(self):
        # A Hermitian circulant has the Fourier vectors as eigenvectors and a
        # constant diagonal, here 1.  The isolated eigenvalue 5 (before the
        # scaling) sits at frequency 3, whose vector sums to zero.
        d, f = 12, 3
        lam = 0.5 + 0.01 * np.arange(d)
        lam[f] = 5.0
        lam /= lam.mean()
        fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        m2 = (fourier * lam) @ fourier.conj().T
        assert abs(fourier[:, f].sum()) < 1e-14
        assert abs(np.vdot(fourier[:, f], spectral._start_vector(d))) > 0.1
        self.assert_eigh_vectors(np.ones((1, d), dtype=complex), m2[None], (0, np.array([d])), 0.0, tol=1e-12)

    def test_lapack_failure_stays_with_its_cell(self):
        # No finite moments are known to make LAPACK fail, so a NaN entry,
        # which every entry point refuses, stands in for one here: at d = 6
        # it makes eigvalsh fail on its matrix and raise for any stack that
        # holds it.  This tests the per-cell path, not non-finite input (at
        # d <= 2 a NaN entry raises nothing in eigvalsh).  The core refuses
        # that cell with the error a stack of it alone records, and the
        # others keep their bits.
        d, size, bad = 6, 5, 2
        rng = np.random.default_rng(32)
        h = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
        h = (h + h.conj().transpose(0, 2, 1)) / 8.0
        h[:, np.arange(d), np.arange(d)] = 0.0
        m2 = np.eye(d) + h
        m2[bad, 0, d - 1] = m2[bad, d - 1, 0] = np.nan
        m1 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (size, d)))
        shape = (0, np.array([d]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(m2)
        estimates, failures, _spectra = _spectral_estimates(m1, m2, shape, RANK_TOL_EMPIRICAL)
        assert isinstance(failures[bad], np.linalg.LinAlgError)
        assert len(estimates) == size - 1
        passing = iter(estimates)
        for i, failure in enumerate(failures):
            alone, [failure_alone], _ = _spectral_estimates(m1[i : i + 1], m2[i : i + 1], shape, RANK_TOL_EMPIRICAL)
            if i == bad:
                assert type(failure_alone) is type(failure) and str(failure_alone) == str(failure)
                assert len(alone) == 0
            else:
                assert failure is None and failure_alone is None
                assert np.array_equal(next(passing), alone[0])

    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_exactly_degenerate_spectrum(self, c):
        # Every eigenvalue ties: no LinAlgError, which a sweep would count as
        # a failed cell, and the vector is a unit phase vector times sqrt(d).
        for d in (1, 5, 42):
            m2 = np.broadcast_to(c * np.eye(d, dtype=complex), (3, d, d)).copy()
            est, failures, diagnostics = _spectral_estimates(
                np.ones((3, d), dtype=complex), m2, (0, np.array([d])), RANK_TOL_EMPIRICAL
            )
            assert failures == [None] * 3
            assert (diagnostics["count"] == d).all() and (diagnostics["kappa"] == 0).all()
            assert np.isfinite(est).all()
            assert np.allclose(np.linalg.norm(diagnostics["x_tilde"], axis=1), np.sqrt(d), rtol=1e-14)

    def test_population_moments_at_uniform_rho(self):
        # At a uniform rho the normalised second moment is Q times a rank
        # 2B+1 projector: 2B+1 tied eigenvalues.  The recovery returns a
        # vector of that eigenspace.
        B, Q = 3, 2
        img = random_image(B, Q, np.random.default_rng(28))
        m = population_moments_2d(img, RotationDistribution.uniform(B), 0.5)
        rec, report = spectral_recover_2d(m, (B, np.full(B + 1, Q)))
        assert report.eigenvalues.size == 2 * B + 1
        assert np.abs(report.eigenvalues - Q).max() <= 1e-12
        md = debias(m)
        p = np.sqrt(np.diag(md.M2).real)
        a = md.M2 / np.outer(p, p)
        xt = rec.diagnostics["x_tilde"]
        assert np.abs(a @ xt - Q * xt).max() <= 1e-10


class TestInnerSign:
    def test_matches_grid_rotation_loop(self):
        # Reference: one vdot per grid rotation phi_l = 2*pi*l/(2B+1).
        outcomes = set()
        for B in (1, 2, 3, 5, 10):
            for Q in (1, 2, 3):
                rng = np.random.default_rng(100 * B + Q)
                k = np.repeat(np.arange(-B, B + 1), Q)
                for _ in range(200):
                    est = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
                    true = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k.size))
                    best = max(
                        np.vdot(est, np.exp(-1j * k * (2.0 * np.pi * ell / (2 * B + 1))) * true).real
                        for ell in range(2 * B + 1)
                    )
                    met = _inner_sign_condition(est, true, k, B)
                    assert met == (best >= 0.0)
                    outcomes.add(met)
        assert outcomes == {True, False}
