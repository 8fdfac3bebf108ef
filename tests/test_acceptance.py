"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The experiment-shape criteria run the harness at desk scale (smaller n and
trial counts than the full-scale figures); the slope, ordering and dominance
assertions below are the scale-independent features being checked.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import stats

from so2mra.harness import ExperimentConfig, rows_to_csv, run_experiment
from so2mra.metrics import recovery_error
from so2mra.moments import population_moments_2d, simulate_empirical_moments
from so2mra.signal_model import (
    circulant_project,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
)
from so2mra.freq_march import fm_recover_2d
from so2mra.spectral import spectral_recover_2d

from conftest import random_image, random_rho, random_signal_1d, rho_truncation, shape_1d

from test_spectral import isolated_gap_ok


def report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]", flush=True)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_exact_fm_1d():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for B in (1, 2, 5, 10):
        for seed in range(50):
            rng = np.random.default_rng((1, B, seed))
            x = random_signal_1d(B, rng)
            rho = random_rho(B, rng)
            m = population_moments_2d(x, rho, sigma=0.4)
            rec = fm_recover_2d(m, shape_1d(B))
            ok &= recovery_error(rec.signal_est, x).relative_error < 1e-9
            ok &= recovery_error(rec.rho_est, rho).relative_error < 1e-9
            count += 1
    assert count == 200
    report(1, "exact 1-D frequency marching", ok, time.perf_counter() - t0, 10.0)


def test_criterion_2_exact_fm_2d():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for Q, n_inst in ((1, 34), (2, 33), (3, 33)):
        for seed in range(n_inst):
            rng = np.random.default_rng((2, Q, seed))
            img = random_image(10, Q, rng)
            rho = random_rho(10, rng)
            m = population_moments_2d(img, rho, sigma=0.4)
            rec = fm_recover_2d(m, (10, np.full(11, Q)))
            ok &= recovery_error(rec.signal_est, img).relative_error < 1e-9
            ok &= recovery_error(rec.rho_est, rho).relative_error < 1e-9
            count += 1
    assert count == 100
    report(2, "exact 2-D frequency marching", ok, time.perf_counter() - t0, 30.0)


def test_criterion_3_exact_spectral():
    t0 = time.perf_counter()
    ok = True
    B = 10
    done = 0
    seed = 0
    while done < 50 and seed < 500:
        rng = np.random.default_rng((3, 1, seed))
        seed += 1
        x = random_signal_1d(B, rng)
        rho = make_experiment_distribution(B, rng)
        if not isolated_gap_ok(rho):
            continue
        rec, _ = spectral_recover_2d(population_moments_2d(x, rho, 0.3), shape_1d(B))
        ok &= recovery_error(rec.signal_est, x).relative_error < 1e-8
        ok &= (
            recovery_error(rho_truncation(rec.rho_est, B), rho_truncation(rho, B)).relative_error
            < 1e-8
        )
        done += 1
    assert done == 50
    done = 0
    seed = 0
    while done < 50 and seed < 500:
        rng = np.random.default_rng((3, 2, seed))
        seed += 1
        img = make_experiment_signal_2d(B, 2, rng)
        rho = make_experiment_distribution(B, rng)
        if not isolated_gap_ok(rho):
            continue
        rec, _ = spectral_recover_2d(population_moments_2d(img, rho, 0.3), (B, np.full(B + 1, 2)))
        ok &= recovery_error(rec.signal_est, img).relative_error < 1e-8
        ok &= (
            recovery_error(rho_truncation(rec.rho_est, B), rho_truncation(rho, B)).relative_error
            < 1e-8
        )
        done += 1
    assert done == 50
    report(3, "exact spectral recovery", ok, time.perf_counter() - t0, 60.0)


def test_criterion_4_moment_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    n = 1_000_000
    for seed in range(5):
        rng = np.random.default_rng((4, 1, seed))
        x = random_signal_1d(3, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        sig = 0.5
        emp = simulate_empirical_moments(x, rho, n, sig, rng)
        pop = population_moments_2d(x, rho, sig)
        bound = 6 * max(sig**2, float(np.abs(x.coeffs).max()) ** 2) / np.sqrt(n)
        ok &= float(np.abs(emp.M2 - pop.M2).max()) < bound
    for seed in range(5):
        rng = np.random.default_rng((4, 2, seed))
        img = random_image(2, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(2, rng, tol_pos=0.05), 0.1)
        sig = 0.3
        emp = simulate_empirical_moments(img, rho, n, sig, rng)
        pop = population_moments_2d(img, rho, sig)
        bound = 6 * max(sig**2, float(np.abs(img.coeffs).max()) ** 2) / np.sqrt(n)
        ok &= float(np.abs(emp.M2 - pop.M2).max()) < bound
    report(4, "moment oracle equivalence", ok, time.perf_counter() - t0, 120.0)


def test_criterion_5_bound_dominance():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="bound_sweep", b=10, q=2, seed=2024)
    rows = run_experiment(cfg)
    assert len(rows) == 20
    norm_sq = 42.0  # unit-modulus experiment image
    applicable = [r for r in rows if r["bound"] is not None]
    assert len(applicable) >= 10
    dominance = all(r["median_error"] * norm_sq <= r["bound"] for r in applicable)
    finite_ratio = all(
        np.isfinite(r["bound"] / (r["median_error"] * norm_sq)) for r in applicable
    )
    sb = [r["s_b"] for r in applicable]
    err = [r["median_error"] for r in applicable]
    bnd = [r["bound"] for r in applicable]
    rho_err = stats.spearmanr(sb, err).statistic
    rho_bnd = stats.spearmanr(sb, bnd).statistic
    ok = dominance and finite_ratio and rho_err > 0.95 and rho_bnd > 0.95
    report(5, "theoretical bound dominance", ok, time.perf_counter() - t0, 300.0)


@pytest.fixture(scope="module")
def snr_sweep_rows():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="snr_sweep", b=10, q=2, n=100_000, trials=50, seed=2024, threads=8
    )
    rows = run_experiment(cfg)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def n_sweep_rows():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="n_sweep", b=10, q=2, snr=100.0, trials=50, seed=2024, threads=8
    )
    rows = run_experiment(cfg)
    return rows, time.perf_counter() - t0


def _medians(rows, algorithm):
    pick = [(r["grid_param_value"], r["median_error"]) for r in rows if r["algorithm"] == algorithm]
    pick.sort()
    return np.array([v for v, _ in pick]), np.array([m for _, m in pick])


def test_criterion_6_snr_sweep_shape(snr_sweep_rows):
    # The marching curves (both variants) fall like 1/SNR over the top two
    # decades, the spectral curve flattens there, and the spectral algorithm
    # wins the lowest decade.
    rows, elapsed = snr_sweep_rows
    t0 = time.perf_counter()
    snrs, fm_robust = _medians(rows, "fm_robust")
    _, fm_plain = _medians(rows, "fm_plain")
    _, spec = _medians(rows, "spectral")
    top = snrs >= 100.0
    slope_r = np.polyfit(np.log10(snrs[top]), np.log10(fm_robust[top]), 1)[0]
    slope_p = np.polyfit(np.log10(snrs[top]), np.log10(fm_plain[top]), 1)[0]
    slope_ok = (-1.25 <= slope_r <= -0.75) and (-1.25 <= slope_p <= -0.75)
    flat = spec[top]
    flat_ok = flat.max() / flat.min() <= 2.0
    low = snrs <= 10.0
    low_ok = bool((spec[low] < fm_robust[low]).all() and (spec[low] < fm_plain[low]).all())
    ok = slope_ok and flat_ok and low_ok
    elapsed += time.perf_counter() - t0
    print(
        f"  snr sweep: fm slopes {slope_r:.3f}/{slope_p:.3f}, spectral plateau ratio "
        f"{flat.max()/flat.min():.2f}, low-SNR spectral<fm: {low_ok}",
        flush=True,
    )
    report(6, "SNR sweep shape", ok, elapsed, 1800.0)


def test_criterion_7_n_sweep_shape(n_sweep_rows):
    # FM here is the robust marching variant, the one prescribed for
    # empirical moments; the plain recursion's slope is asserted too, but at
    # desk scale (50 trials) its n=1e6 median has not yet crossed below the
    # spectral curve.
    rows, elapsed = n_sweep_rows
    t0 = time.perf_counter()
    ns, fm = _medians(rows, "fm_robust")
    _, fm_plain = _medians(rows, "fm_plain")
    _, spec = _medians(rows, "spectral")
    slope = np.polyfit(np.log10(ns), np.log10(fm), 1)[0]
    slope_p = np.polyfit(np.log10(ns), np.log10(fm_plain), 1)[0]
    slope_ok = (-1.25 <= slope <= -0.75) and (-1.25 <= slope_p <= -0.75)
    final_ok = fm[-1] < spec[-1]
    ok = slope_ok and final_ok
    elapsed += time.perf_counter() - t0
    print(
        f"  n sweep: fm slopes {slope:.3f}/{slope_p:.3f}, fm<spectral at n=1e6: {final_ok}",
        flush=True,
    )
    report(7, "observation-count sweep shape", ok, elapsed, 2700.0)


def test_criterion_8_circulant_distance_consistency():
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng((8, seed))
        B = int(rng.integers(1, 5))
        rho = random_rho(B, rng)
        ca = circulant_project(rho)
        n = 2 * B + 1
        t = np.empty((n, n), dtype=complex)
        c = np.empty((n, n), dtype=complex)
        for i, k1 in enumerate(range(-B, B + 1)):
            for j, k2 in enumerate(range(-B, B + 1)):
                t[i, j] = rho[k1 - k2]
                c[i, j] = ca.v_opt[(i - j) % n]
        ok &= abs(np.linalg.norm(t - c, "fro") ** 2 - ca.s_b) <= 1e-12 * max(1.0, ca.s_b)
        for Q in (2, 3):
            t_big = np.kron(t, np.ones((Q, Q)))
            c_big = np.kron(c, np.ones((Q, Q)))
            dist = np.linalg.norm(t_big - c_big, "fro") ** 2
            ok &= abs(dist - Q**2 * ca.s_b) <= 1e-12 * max(1.0, Q**2 * ca.s_b)
    report(8, "circulant distance consistency", ok, time.perf_counter() - t0, 60.0)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="snr_sweep", b=3, q=2, n=4000, trials=4, snr_grid=(2.0, 200.0), seed=99
    )
    base = rows_to_csv(run_experiment(cfg))
    rerun = rows_to_csv(run_experiment(cfg))
    pooled = rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=8)))
    bcfg = ExperimentConfig(
        experiment="bound_sweep", b=3, q=2, eta_grid=(0.01, 0.05), seed=3
    )
    bound_a = rows_to_csv(run_experiment(bcfg))
    bound_b = rows_to_csv(run_experiment(bcfg))
    ok = base == rerun == pooled and bound_a == bound_b
    report(9, "byte-identical determinism", ok, time.perf_counter() - t0, 120.0)
