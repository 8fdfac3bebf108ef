import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from so2mra import metrics
from so2mra.metrics import (
    GRID_FACTOR,
    NEWTON_ITERATIONS,
    NEWTON_STEP_TOL,
    _grid_overlap,
    aggregate,
    recovery_error,
    sigma_for_snr,
    snr,
)
from so2mra.signal_model import (
    FBImage,
    RotationDistribution,
    coefficient_layout,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    rotate_distribution,
    rotate_signal,
)

from conftest import random_image, random_signal_1d, signal_1d


def brute_force_error(est, truth, k, n_grid=1_000_000):
    phis = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    # evaluate |est - exp(-1j*k*phi) truth|^2 via the overlap expansion
    c = np.zeros(int(k.max() - k.min()) + 1, dtype=complex)
    np.add.at(c, k - k.min(), truth.conj() * est)
    overlap = (np.exp(1j * np.outer(phis, np.arange(k.min(), k.max() + 1))) @ c).real
    norms = np.vdot(est, est).real + np.vdot(truth, truth).real
    return (norms - 2 * overlap.max()) / np.vdot(truth, truth).real


def add_at_error(estimate, truth):
    """``recovery_error``'s (error, angle, aligned estimate), with the coefficients collapsed by
    ``np.add.at`` and the derivative products formed inside the Newton loop."""
    e, ke, t = estimate.coeffs, estimate.k_values, truth.coeffs
    k_lo = int(ke.min())
    k_range = np.arange(k_lo, int(ke.max()) + 1)
    c = np.zeros(k_range.size, dtype=np.complex128)
    np.add.at(c, ke - k_lo, t.conj() * e)
    n_grid = GRID_FACTOR * k_range.size
    values = _grid_overlap(c, k_range, n_grid)
    spacing = 2.0 * np.pi / n_grid
    j = int(np.argmax(values))
    best, best_val = j * spacing, float(values[j])
    phi, converged = best, False
    for _ in range(NEWTON_ITERATIONS):
        ph = np.exp(1j * phi * k_range)
        d1 = float((1j * k_range * c * ph).sum().real)
        d2 = float((-(k_range**2) * c * ph).sum().real)
        if d2 >= 0.0:
            break
        step = d1 / d2
        if abs(step) > spacing:
            break
        phi -= step
        if abs(step) < NEWTON_STEP_TOL:
            converged = True
            break
    if converged or float((np.exp(1j * phi * k_range) @ c).real) > best_val:
        best = phi % (2.0 * np.pi)
        if best == 2.0 * np.pi:
            best = 0.0
    aligned = e * np.exp(1j * ke * best)
    return float(np.vdot(aligned - t, aligned - t).real) / float(np.vdot(t, t).real), best, aligned


class TestCollapsedCoefficients:
    """``recovery_error`` gives the bits of its ``np.add.at`` form."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("qk", [[1, 1, 1, 1], [2, 2, 2, 2], [3, 1, 2, 4], [40, 9, 25, 16]])
    def test_images(self, seed, qk, monkeypatch):
        rng = np.random.default_rng((53, seed, *qk))
        k_index, _starts = coefficient_layout(3, qk)
        truth = FBImage(3, qk, rng.standard_normal(k_index.size) + 1j * rng.standard_normal(k_index.size))
        noise = rng.standard_normal(k_index.size) + 1j * rng.standard_normal(k_index.size)
        estimate = FBImage(3, qk, rotate_signal(truth, rng.uniform(0, 2 * np.pi)).coeffs + 0.1 * noise)
        # The grid search reads the collapsed coefficients first, as a stack of one row.
        seen = []
        monkeypatch.setattr(metrics, "_grid_overlap", lambda c, *args: seen.append(c) or _grid_overlap(c, *args))
        report = recovery_error(estimate, truth)
        expected = np.zeros(7, dtype=np.complex128)
        np.add.at(expected, k_index + 3, truth.coeffs.conj() * estimate.coeffs)
        assert np.array_equal(seen[0], expected[None])
        err, angle, aligned = add_at_error(estimate, truth)
        assert (report.relative_error, report.best_angle) == (err, angle)
        assert np.array_equal(report.aligned_estimate, aligned)

    @pytest.mark.parametrize("seed", range(4))
    def test_distributions(self, seed):
        rng = np.random.default_rng((59, seed))
        truth = make_experiment_distribution(4, rng, tol_pos=0.05)
        estimate = perturb_distribution(rotate_distribution(truth, rng.uniform(0, 2 * np.pi)), 0.05)
        report = recovery_error(estimate, truth)
        err, angle, aligned = add_at_error(estimate, truth)
        assert (report.relative_error, report.best_angle) == (err, angle)
        assert np.array_equal(report.aligned_estimate, aligned)


class TestRecoveryError:
    def test_identity(self):
        x = random_signal_1d(4, np.random.default_rng(0))
        rep = recovery_error(x, x)
        assert rep.relative_error < 1e-15
        assert 0.0 <= rep.best_angle < 2 * np.pi
        assert rep.best_angle == pytest.approx(0.0, abs=1e-9) or rep.best_angle == pytest.approx(
            2 * np.pi, abs=1e-9
        )

    def test_zero_rotation_angle_below_two_pi(self):
        # The Newton polish ends at a tiny negative angle here, whose
        # remainder modulo 2*pi rounds up to exactly 2*pi.
        x = random_image(1, 1, np.random.default_rng(2))
        rep = recovery_error(rotate_signal(x, 0.0), x)
        assert 0.0 <= rep.best_angle < 2 * np.pi
        assert rep.best_angle == pytest.approx(0.0, abs=1e-12)
        assert rep.relative_error < 1e-20

    def test_pure_rotation(self):
        x = random_signal_1d(5, np.random.default_rng(1))
        est = rotate_signal(x, 0.3)
        rep = recovery_error(est, x)
        assert rep.relative_error < 1e-12
        assert rep.best_angle == pytest.approx(0.3, abs=1e-6)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(2)
        B = 5
        truth = random_signal_1d(B, rng)
        est = signal_1d(truth.coeffs + 0.1 * (rng.standard_normal(11) + 1j * rng.standard_normal(11)))
        rep = recovery_error(est, truth)
        brute = brute_force_error(est.coeffs, truth.coeffs, truth.k_values)
        assert rep.relative_error <= brute + 1e-9
        assert rep.relative_error == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_literal_brute_force_small(self):
        # fully independent check: explicit vector differences on a coarse grid
        rng = np.random.default_rng(3)
        B = 3
        truth = random_signal_1d(B, rng)
        est = signal_1d(truth.coeffs + 0.2 * (rng.standard_normal(7) + 1j * rng.standard_normal(7)))
        rep = recovery_error(est, truth)
        k = truth.k_values
        errs = [
            np.linalg.norm(est.coeffs - np.exp(-1j * k * phi) * truth.coeffs) ** 2
            for phi in np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
        ]
        brute = min(errs) / np.linalg.norm(truth.coeffs) ** 2
        assert rep.relative_error <= brute + 1e-9

    def test_invariant_under_joint_rotation(self):
        rng = np.random.default_rng(4)
        truth = random_image(3, 2, rng)
        est_coeffs = truth.coeffs + 0.05 * (
            rng.standard_normal(truth.size) + 1j * rng.standard_normal(truth.size)
        )
        est = type(truth)(truth.B, truth.radial_bandwidths, est_coeffs)
        base = recovery_error(est, truth).relative_error
        rot = recovery_error(rotate_signal(est, 1.2), rotate_signal(truth, 1.2)).relative_error
        assert abs(base - rot) < 1e-12

    def test_aligned_not_worse_than_unaligned(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            truth = random_signal_1d(4, rng)
            est = signal_1d(truth.coeffs * np.exp(-1j * truth.k_values * rng.uniform(0, 2 * np.pi)))
            unaligned = np.linalg.norm(est.coeffs - truth.coeffs) ** 2 / np.linalg.norm(truth.coeffs) ** 2
            assert recovery_error(est, truth).relative_error <= unaligned + 1e-12

    def test_newton_beats_grid_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            truth = random_signal_1d(5, rng)
            est = signal_1d(truth.coeffs + 0.3 * (rng.standard_normal(11) + 1j * rng.standard_normal(11)))
            rep = recovery_error(est, truth)
            brute = brute_force_error(est.coeffs, truth.coeffs, truth.k_values, n_grid=100_000)
            assert rep.relative_error <= brute + 1e-9

    def test_aligned_estimate_invariant(self):
        rng = np.random.default_rng(7)
        truth = random_signal_1d(3, rng)
        est = signal_1d(truth.coeffs + 0.1j * rng.standard_normal(7))
        rep = recovery_error(est, truth)
        recomputed = np.linalg.norm(rep.aligned_estimate - truth.coeffs) ** 2
        assert rep.relative_error == pytest.approx(
            recomputed / np.linalg.norm(truth.coeffs) ** 2, abs=1e-12
        )

    def test_zero_norm_truth_raises(self):
        z = signal_1d(np.zeros(3))
        x = random_signal_1d(1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            recovery_error(x, z)

    @pytest.mark.parametrize(
        "estimate, truth",
        [
            (FBImage(1, [1, 1], np.ones(3)), FBImage(2, [1, 1, 1], np.ones(5))),
            (FBImage(1, [2, 1], np.ones(4)), FBImage(0, [4], np.ones(4))),
            (RotationDistribution.uniform(1), RotationDistribution.uniform(2)),
        ],
        ids=["image_shape", "image_layout", "distribution_shape"],
    )
    def test_layout_mismatch_rejected(self, estimate, truth):
        with pytest.raises(ValueError, match="shape and angular layout"):
            recovery_error(estimate, truth)

    @pytest.mark.parametrize(
        "coeffs, rule",
        [
            # The k = -1 and k = 1 terms cancel, so the overlap is constant
            # and its curvature is zero at every angle.
            ([-0.2 - 0.6j, -1 - 0.7j, 0.2 - 0.6j], "curvature"),
            # 8 cos(phi) - 2 cos(2 phi) has a quartic maximum at 0; shifted
            # by 0.03, with a small cubic term, the curvature at the grid
            # point 0 is barely negative and the first step is 3.3 cells.
            ([0, 0, 0, 8.017849 + 0.005302j, -2.004351 - 0.002594j], "step"),
        ],
    )
    def test_newton_stop_keeps_the_grid_angle(self, coeffs, rule):
        # Against a truth of ones the collapsed coefficients are the
        # estimate's own, so the first Newton step is read off them here.
        estimate, truth = signal_1d(np.array(coeffs)), signal_1d(np.ones(len(coeffs)))
        k, c = truth.k_values, estimate.coeffs
        n_grid = GRID_FACTOR * k.size
        spacing = 2.0 * np.pi / n_grid
        j = int(np.argmax(_grid_overlap(c, k, n_grid)))
        phase = np.exp(1j * k * (j * spacing))
        d1, d2 = (1j * k * c * phase).sum().real, (-(k**2) * c * phase).sum().real
        if rule == "curvature":
            assert d2 >= 0.0
        else:
            assert d2 < 0.0 and abs(d1 / d2) > spacing
        rep = recovery_error(estimate, truth)
        assert rep.best_angle == j * spacing
        assert np.array_equal(rep.aligned_estimate, c * np.exp(1j * k * (j * spacing)))

    def test_image_against_distribution_rejected(self):
        # Same flat shape and k values (-2..2), but an image is not a distribution.
        image = FBImage(2, [1, 1, 1], np.ones(5))
        rho = RotationDistribution.uniform(1)
        for est, truth in [(image, rho), (rho, image)]:
            with pytest.raises(TypeError, match="of one type"):
                recovery_error(est, truth)

    def test_raw_coefficient_array_rejected(self):
        # An array carries no layout; none is guessed from its length.
        x = random_signal_1d(2, np.random.default_rng(0))
        for est, truth in [(x.coeffs, x), (x, x.coeffs), (x.coeffs, x.coeffs)]:
            with pytest.raises(TypeError, match="FBImage or RotationDistribution"):
                recovery_error(est, truth)

    def test_continuous_alignment_never_worse_than_grid(self):
        # The discrete l/(2B+1) rotations are a subset of the continuous ones.
        rng = np.random.default_rng(8)
        B = 4
        truth = random_signal_1d(B, rng)
        est = signal_1d(truth.coeffs + 0.2 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        rep = recovery_error(est, truth)
        k = truth.k_values
        norm_sq = np.linalg.norm(truth.coeffs) ** 2
        discrete = min(
            np.linalg.norm(est.coeffs - np.exp(-1j * k * (2 * np.pi * l / (2 * B + 1))) * truth.coeffs) ** 2
            for l in range(2 * B + 1)
        )
        assert rep.relative_error <= discrete / norm_sq + 1e-12


    @pytest.mark.parametrize("k_lo, k_hi", [(-3, 3), (-20, 20), (-40, 40), (-2, 5)])
    def test_fft_grid_matches_dense_overlap(self, k_lo, k_hi):
        rng = np.random.default_rng(9)
        k_range = np.arange(k_lo, k_hi + 1)
        c = rng.standard_normal(k_range.size) + 1j * rng.standard_normal(k_range.size)
        n_grid = GRID_FACTOR * k_range.size
        grid = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
        dense = (np.exp(1j * np.outer(grid, k_range)) @ c).real
        assert np.abs(_grid_overlap(c, k_range, n_grid) - dense).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    # At these angles the polish gains less over the grid point at 0 than the
    # rounding of the overlap value, so only a converged polish reaches them.
    @example(B=1, Q=1, seed=0, angle=1e-10)
    @example(B=2, Q=1, seed=1, angle=1e-10)
    @example(B=1, Q=1, seed=2, angle=0.0)
    @given(
        B=st.integers(1, 8),
        Q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        angle=st.floats(-20.0, 20.0, allow_nan=False),
    )
    def test_pure_rotation_recovered_exactly(self, B, Q, seed, angle):
        x = random_image(B, Q, np.random.default_rng(seed))
        rep = recovery_error(rotate_signal(x, angle), x)
        assert rep.relative_error < 1e-20
        assert 0.0 <= rep.best_angle < 2 * np.pi
        assert abs(np.exp(1j * rep.best_angle) - np.exp(1j * angle)) < 1e-12


    def test_polish_reaches_a_stationary_angle(self):
        # The Newton stop leaves the overlap's derivative at rounding level.
        rng = np.random.default_rng(10)
        for _ in range(100):
            truth = random_image(5, 2, rng)
            noise = rng.standard_normal(truth.size) + 1j * rng.standard_normal(truth.size)
            est = type(truth)(truth.B, truth.radial_bandwidths, truth.coeffs + 0.3 * noise)
            rep = recovery_error(est, truth)
            k = truth.k_values
            terms = k * truth.coeffs.conj() * est.coeffs
            slope = (1j * terms * np.exp(1j * k * rep.best_angle)).sum().real
            assert abs(slope) <= 1e-12 * np.abs(terms).sum()


class TestSnr:
    def test_unit_modulus_image(self):
        img = make_experiment_signal_2d(10, 2, np.random.default_rng(0))
        assert snr(img, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_scaling_homogeneity(self):
        x = random_signal_1d(3, np.random.default_rng(1))
        scaled = signal_1d(2.5 * x.coeffs)
        assert snr(scaled, 0.7) == pytest.approx(2.5**2 * snr(x, 0.7), rel=1e-12)

    def test_sigma_scaling(self):
        x = random_signal_1d(2, np.random.default_rng(2))
        assert snr(x, 0.1) == pytest.approx(100 * snr(x, 1.0), rel=1e-12)

    def test_sigma_zero_rejected(self):
        x = random_signal_1d(2, np.random.default_rng(3))
        with pytest.raises(ValueError):
            snr(x, 0.0)

    def test_sigma_nan_rejected(self):
        x = random_signal_1d(2, np.random.default_rng(3))
        with pytest.raises(ValueError):
            snr(x, np.nan)


class TestSigmaForSnr:
    def test_round_trip(self):
        x = random_signal_1d(4, np.random.default_rng(4))
        for target in (0.1, 1.0, 100.0):
            assert snr(x, sigma_for_snr(x, target)) == pytest.approx(target, rel=1e-12)

    def test_unit_modulus_closed_form(self):
        img = make_experiment_signal_2d(10, 2, np.random.default_rng(5))
        assert sigma_for_snr(img, 100.0) == pytest.approx(0.1, rel=1e-14)
        assert sigma_for_snr(img, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_nonpositive_target_rejected(self):
        x = random_signal_1d(2, np.random.default_rng(6))
        with pytest.raises(ValueError):
            sigma_for_snr(x, 0.0)

    def test_nan_target_rejected(self):
        x = random_signal_1d(2, np.random.default_rng(6))
        with pytest.raises(ValueError):
            sigma_for_snr(x, np.nan)


class TestAggregate:
    def test_constant_vector(self):
        med, lo, hi = aggregate(np.full(9, 3.5))
        assert med == lo == hi == 3.5

    def test_linear_interpolation_percentiles(self):
        med, lo, hi = aggregate(np.arange(1.0, 101.0))
        assert (med, lo, hi) == (50.5, pytest.approx(30.7), pytest.approx(70.3))

    def test_single_element(self):
        med, lo, hi = aggregate(np.array([0.25]))
        assert med == lo == hi == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.array([]))
