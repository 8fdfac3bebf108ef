import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import so2mra
from so2mra import harness, moments, signal_model
from so2mra.errors import NotSampleableError
from so2mra.moments import (
    MomentAccumulator,
    MomentPair,
    _angle_sums,
    _bartlett_factor,
    _check_pairs,
    _debias_in_place,
    _simulate_stack,
    debias,
    empirical_moments,
    population_moments_2d,
    simulate_empirical_moments,
)
from so2mra.signal_model import (
    TWO_PI,
    _negative_partners,
    RotationDistribution,
    UNIFORM_DENSITY,
    _gram_from_sums,
    _gram_tables,
    _trig_design,
    _observation_draws,
    generate_observations,
    inverse_cdf_table,
    make_experiment_distribution,
    make_experiment_signal_2d,
    observation_map,
    perturb_distribution,
    rotation_cdf,
)

from conftest import _Uniforms, _clamped_cdf, random_image, random_rho, random_signal_1d


class TestPopulation1D:
    def test_uniform_distribution(self):
        rng = np.random.default_rng(0)
        x = random_signal_1d(3, rng)
        m = population_moments_2d(x, RotationDistribution.uniform(3), sigma=0.4)
        expected_m1 = np.zeros(7, dtype=complex)
        expected_m1[3] = x[0, 0]
        assert np.allclose(m.M1, expected_m1, atol=1e-14)
        assert np.allclose(m.M2, np.diag(np.abs(x.coeffs) ** 2) + 0.16 * np.eye(7), atol=1e-14)

    def test_truncated_point_mass(self):
        # rho[k] = 1/(2*pi) for all |k| <= 2B makes every phase mean equal one.
        rng = np.random.default_rng(1)
        B = 2
        x = random_signal_1d(B, rng)
        rho = RotationDistribution.from_positive(B, np.full(2 * B, UNIFORM_DENSITY, dtype=complex))
        m = population_moments_2d(x, rho, sigma=0.3)
        assert np.allclose(m.M1, x.coeffs, atol=1e-14)
        assert np.allclose(m.M2, np.outer(x.coeffs, x.coeffs.conj()) + 0.09 * np.eye(5), atol=1e-14)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        B, n, sig = 3, 1_000_000, 0.5
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        pop = population_moments_2d(x, rho, sig)
        acc = MomentAccumulator(x.size)
        fourth = np.zeros((x.size, x.size))
        remaining, chunk = n, 65536
        while remaining:
            take = min(chunk, remaining)
            rows = generate_observations(x, rho, take, sig, rng)
            acc.update(rows)
            mags = np.abs(rows) ** 2
            fourth += mags.T @ mags
            remaining -= take
        emp = acc.finalize(sig)
        # Entrywise three-standard-error bands from the sampled fourth moments.
        var_m2 = np.maximum(fourth / n - np.abs(pop.M2) ** 2, 1e-12)
        assert (np.abs(emp.M2 - pop.M2) <= 3 * np.sqrt(var_m2 / n) + 1e-9).all()
        var_m1 = np.abs(x.coeffs) ** 2 + sig**2 - np.abs(pop.M1) ** 2
        assert (np.abs(emp.M1 - pop.M1) <= 3 * np.sqrt(var_m1 / n) + 1e-9).all()


class TestPopulation2D:
    def test_uniform_distribution_block_structure(self):
        # Uniform rho keeps only the k1 == k2 blocks: rank-one x_k x_k^H on
        # the block diagonal, so diag(M2) is the power spectrum plus sigma^2.
        rng = np.random.default_rng(4)
        img = make_experiment_signal_2d(2, 2, rng)
        m = population_moments_2d(img, RotationDistribution.uniform(2), sigma=0.5)
        nonzero = np.abs(m.M1) > 1e-14
        assert np.array_equal(np.flatnonzero(nonzero), [img.block_start(0), img.block_start(0) + 1])
        expected = 0.25 * np.eye(img.size, dtype=complex)
        for k in range(-2, 3):
            s = img.block_start(k)
            blk = img.block(k)
            expected[s : s + 2, s : s + 2] += np.outer(blk, blk.conj())
        assert np.allclose(m.M2, expected, atol=1e-14)
        assert np.allclose(np.diag(m.M2).real, np.abs(img.coeffs) ** 2 + 0.25, atol=1e-14)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(6)
        B, Q, n, sig = 2, 2, 1_000_000, 0.3
        img = random_image(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        pop = population_moments_2d(img, rho, sig)
        acc = MomentAccumulator(img.size)
        fourth = np.zeros((img.size, img.size))
        remaining, chunk = n, 65536
        while remaining:
            take = min(chunk, remaining)
            rows = generate_observations(img, rho, take, sig, rng)
            acc.update(rows)
            mags = np.abs(rows) ** 2
            fourth += mags.T @ mags
            remaining -= take
        emp = acc.finalize(sig)
        var_m2 = np.maximum(fourth / n - np.abs(pop.M2) ** 2, 1e-12)
        assert (np.abs(emp.M2 - pop.M2) <= 3 * np.sqrt(var_m2 / n) + 1e-9).all()

    def test_bandwidth_mismatch(self):
        img = make_experiment_signal_2d(2, 2, np.random.default_rng(5))
        with pytest.raises(ValueError, match="bandwidths must agree"):
            population_moments_2d(img, RotationDistribution.uniform(3), 0.1)


class TestEmpirical:
    def test_single_noiseless_observation(self):
        rng = np.random.default_rng(7)
        x = random_signal_1d(2, rng)
        rho = make_experiment_distribution(2, rng)
        rows = generate_observations(x, rho, 1, 0.0, rng)
        m = empirical_moments(rows, 0.0)
        assert np.array_equal(m.M1, rows[0])
        assert np.allclose(m.M2, np.outer(m.M1, m.M1.conj()), atol=1e-15)

    def test_two_observations_average(self):
        rows = np.array([[1 + 1j, 2.0], [3.0, -1j]], dtype=complex)
        m = empirical_moments(rows, 0.0)
        assert np.allclose(m.M1, rows.mean(axis=0))
        expected = 0.5 * (np.outer(rows[0], rows[0].conj()) + np.outer(rows[1], rows[1].conj()))
        assert np.allclose(m.M2, expected, atol=1e-15)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            empirical_moments(np.zeros((0, 3), dtype=complex), 0.1)

    @pytest.mark.parametrize("rows", [np.ones(3), np.ones((2, 3, 1))], ids=["vector", "3d"])
    def test_data_must_be_a_matrix(self, rows):
        with pytest.raises(ValueError, match=r"data must be a \(n, dim\) matrix"):
            empirical_moments(rows, 0.1)

    @pytest.mark.parametrize("rows", [np.ones(3), np.ones((2, 4))], ids=["vector", "wrong_dim"])
    def test_accumulator_rows_must_match_its_dimension(self, rows):
        acc = MomentAccumulator(3)
        with pytest.raises(ValueError, match=r"rows must be \(n, dim\)"):
            acc.update(rows)
        assert acc.count == 0

    def test_clt_scale_deviation(self):
        rng = np.random.default_rng(8)
        B, n, sig = 2, 1_000_000, 0.5
        x = random_signal_1d(B, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        emp = simulate_empirical_moments(x, rho, n, sig, rng)
        pop = population_moments_2d(x, rho, sig)
        bound = 6 * max(sig**2, np.abs(x.coeffs).max() ** 2) / np.sqrt(n)
        assert np.abs(emp.M2 - pop.M2).max() < bound

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        x = random_signal_1d(2, rng)
        rho = make_experiment_distribution(2, rng)
        rows = generate_observations(x, rho, 500, 0.4, rng)
        perm = rng.permutation(500)
        a = empirical_moments(rows, 0.4)
        b = empirical_moments(rows[perm], 0.4)
        assert np.abs(a.M2 - b.M2).max() < 1e-12 * np.abs(a.M2).max()
        assert np.abs(a.M1 - b.M1).max() < 1e-12

    def test_chunking_independent(self):
        rng = np.random.default_rng(10)
        x = random_signal_1d(2, rng)
        rho = make_experiment_distribution(2, rng)
        rows = generate_observations(x, rho, 1000, 0.4, rng)
        chunked, whole = MomentAccumulator(x.size), MomentAccumulator(x.size)
        for start in range(0, len(rows), 64):
            chunked.update(rows[start : start + 64])
        whole.update(rows)
        a, b = chunked.finalize(0.4), whole.finalize(0.4)
        assert chunked.count == whole.count == len(rows)
        assert np.abs(a.M1 - b.M1).max() < 1e-13
        assert np.abs(a.M2 - b.M2).max() < 1e-13


def _fourier_sums(angles, order):
    """``S_m = sum_i exp(1j*m*angles_i)`` for ``m = 0..order``, by recursive powers."""
    sums = np.empty(order + 1, dtype=np.complex128)
    sums[0] = angles.size
    w = np.exp(1j * angles)
    power = w.copy()
    for m in range(1, order + 1):
        sums[m] = power.sum()
        power *= w
    return sums


def _per_angle_simulation(signal, rho, n, sigma, rng, chunk=65536):
    """The simulator with per-angle complex-power sums, on the same draws in the same order."""
    p, dim = 2 * signal.B + 1, signal.size
    levels, nodes = rotation_cdf(rho)
    sums = np.zeros(p, dtype=np.complex128)
    for start in range(0, n, chunk):
        u = rng.random(min(chunk, n - start))
        sums += _fourier_sums(np.interp(u, levels, nodes), p - 1)
    factor = np.zeros((p + dim, p + dim))
    factor[:p, :p] = np.linalg.cholesky(_gram_from_sums(sums))
    factor[p:, :p] = rng.standard_normal((dim, p))
    factor[p:, p:] = _bartlett_factor(dim, n - p, rng)
    kf = observation_map(signal, sigma) @ factor
    return kf @ factor[0] / n, kf @ kf.conj().T / n


def _fresh_array_angle_sums(levels, nodes, n, order, rng, chunk):
    """``_angle_sums``' loop on arrays allocated afresh for every chunk, with
    np.interp in place of the bucket lookup: the reference that its
    per-thread workspace and its lookup must match bit for bit."""
    cells = 1 << min(max(round(math.log2(n / 8)), 9), 13)
    while cells < 4 * order:
        cells *= 2
    x = order * math.pi / cells
    terms, bound = 2, x * (x / 2)
    while bound > 1e-15:
        terms += 1
        bound *= x / terms
    power_sums = np.zeros((terms, cells))
    rows = list(power_sums)
    for start in range(0, n, chunk):
        u = rng.random(min(chunk, n - start))
        offset = np.interp(u, levels, nodes)
        offset *= cells / TWO_PI
        cell = offset.astype(np.intp)
        offset -= cell
        offset -= 0.5
        cell &= cells - 1
        rows[0] += np.bincount(cell, minlength=cells)
        rows[1] += np.bincount(cell, offset, cells)
        power = offset * offset
        for r in range(2, terms):
            rows[r] += np.bincount(cell, power, cells)
            if r + 1 < terms:
                power *= offset
    steps = np.arange(order + 1) * (-1j * TWO_PI / cells) / np.arange(1, terms)[:, None]
    spec = np.fft.rfft(power_sums, axis=1)[:, : order + 1]
    sums = spec[0] + np.einsum("rm,rm->m", np.cumprod(steps, axis=0), spec[1:])
    return np.exp(-0.5 * steps[0]) * sums.conj()


def _experiment_cdf(B, seed):
    rng = np.random.default_rng(seed)
    return rotation_cdf(perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1))


def _one_trial_factor(signal, rho, n, rng):
    """The factor ``F`` of one trial drawn step by step, with no stack: the
    draws ``_simulate_stack`` makes for that trial, in the same order."""
    p, dim = 2 * signal.B + 1, signal.size
    if n < p + dim:
        return _observation_draws(signal, rho, n, rng).T
    sums = _angle_sums(rho._inverse_cdf, n, 2 * signal.B, rng, 65536)
    gram = _gram_from_sums(sums)
    factor = np.zeros((p + dim, p + dim))
    try:
        factor[:p, :p] = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(gram)
        factor[:p, :p] = vec * np.sqrt(np.maximum(lam, 0.0))
    factor[p:, :p] = rng.standard_normal((dim, p))
    factor[p:, p:] = _bartlett_factor(dim, n - p, rng)
    return factor


def _fejer_density(B):
    """The Fejer density ``rho_k = (1 - |k| / (2B+1)) / (2 pi)``: nonnegative, and peaked at 0."""
    return RotationDistribution.from_positive(B, (1 - np.arange(1, 2 * B + 1) / (2 * B + 1)) / TWO_PI + 0j)


def _record_cholesky(monkeypatch):
    """Record whether each ``np.linalg.cholesky`` call factored its matrix or failed."""
    outcomes, cholesky = [], np.linalg.cholesky

    def recorded(a):
        try:
            lower = cholesky(a)
        except np.linalg.LinAlgError:
            outcomes.append("failed")
            raise
        outcomes.append("factored")
        return lower

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return outcomes


def _forbid_generated_observations(monkeypatch):
    """Make generating or accumulating observations fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("observations were generated")

    for module in (so2mra, signal_model):
        monkeypatch.setattr(module, "generate_observations", forbidden)
    monkeypatch.setattr(MomentAccumulator, "update", forbidden)


def _oracle_moments(signal, rho, n, sigma, rng, chunk):
    """Moments of ``n`` generated observations, streamed chunk by chunk."""
    acc = MomentAccumulator(signal.size)
    for start in range(0, n, chunk):
        acc.update(generate_observations(signal, rho, min(chunk, n - start), sigma, rng))
    return acc.finalize(sigma)


def _gram_from_sums_direct(sums):
    """``_gram_from_sums`` with its index tables and coefficient products built on every call."""
    B = (sums.size - 1) // 2
    col = np.arange(2 * B + 1)
    freq = (col + 1) // 2
    c = np.where((col % 2 == 1) | (col == 0), 1.0, -1j)
    signed = np.concatenate([sums[:0:-1].conj(), sums])
    plus = signed[2 * B + freq[:, None] + freq[None, :]]
    minus = signed[2 * B + freq[:, None] - freq[None, :]]
    return 0.5 * (np.outer(c, c) * plus + np.outer(c, c.conj()) * minus).real


class TestSufficientStatisticSimulator:
    def test_one_simulator_under_every_import_path(self):
        # perfbench imports the simulator from so2mra.harness.
        assert so2mra.simulate_empirical_moments is simulate_empirical_moments
        assert harness.simulate_empirical_moments is simulate_empirical_moments

    @pytest.mark.parametrize("B", [0, 1, 2, 3, 10, 25])
    def test_gram_tables_give_the_bits_of_the_direct_form(self, B):
        # The per-B tables are built once and read-only; the Gram matrix has
        # the bits of the form that built its index tables on every call.
        rng = np.random.default_rng((61, B))
        sums = rng.standard_normal(2 * B + 1) + 1j * rng.standard_normal(2 * B + 1)
        sums[0] = 5000.0
        assert np.array_equal(_gram_from_sums(sums), _gram_from_sums_direct(sums))
        tables = _gram_tables(B)
        assert _gram_tables(B) is tables and not any(t.flags.writeable for t in tables)

    @pytest.mark.parametrize("B", [1, 3, 10])
    def test_gram_from_sums_matches_explicit(self, B):
        angles = np.random.default_rng(B).uniform(0.0, 2 * np.pi, 5000)
        k = np.arange(1, B + 1)
        g = np.empty((angles.size, 2 * B + 1))
        g[:, 0] = 1.0
        g[:, 1::2] = np.cos(np.outer(angles, k))
        g[:, 2::2] = np.sin(np.outer(angles, k))
        # The simulator's Gram, the generator's rows and the observation map
        # share this column order.
        assert np.array_equal(_trig_design(angles, B), g)
        explicit = g.T @ g
        gram = _gram_from_sums(_fourier_sums(angles, 2 * B))
        assert np.abs(gram - explicit).max() <= 1e-12 * np.abs(explicit).max()

    @settings(max_examples=40, deadline=None)
    @given(
        B=st.integers(1, 40),
        n_extra=st.integers(0, 200_000),
        chunk=st.integers(100, 70_000),
        shift=st.floats(-0.5, 0.9),
        freq=st.integers(1, 5),
        phase=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_angle_sums_match_per_angle_sums(self, B, n_extra, chunk, shift, freq, phase, seed):
        # n runs from p + d of a 1-D signal (the simulator's smallest) to 2e5.
        n = min(2 * (2 * B + 1) + n_extra, 200_000)
        assume(n % chunk != 0)
        levels, nodes = _clamped_cdf(shift, freq, phase)
        u = np.random.default_rng(seed).random(n)
        # Angles at 0, in the flat (zero-density) part of the table and just below 2*pi.
        edges = [0.0, levels[np.argmax(np.diff(levels) == 0.0)], 1.0 - 2.0**-53, np.nextafter(1.0, 0.0)]
        u[: len(edges)] = edges
        got = _angle_sums(inverse_cdf_table(levels, nodes), n, 2 * B, _Uniforms(u), chunk)
        want = _fourier_sums(np.interp(u, levels, nodes), 2 * B)
        assert np.abs(got - want).max() <= 1e-13 * n
        assert np.array_equal(got, _fresh_array_angle_sums(levels, nodes, n, 2 * B, _Uniforms(u), chunk))

    def test_angle_sums_of_order_zero_count_the_angles(self):
        table = RotationDistribution.uniform(0)._inverse_cdf
        for n in (1, 7, 100_000):
            sums = _angle_sums(table, n, 0, np.random.default_rng(n), 4096)
            assert sums.shape == (1,) and sums[0] == n

    @pytest.mark.parametrize("Q", [1, 2])
    def test_bandwidth_zero(self, Q):
        # No rotation acts at B = 0, so M1 is x plus the mean of n noise draws.
        rng = np.random.default_rng(37)
        x = make_experiment_signal_2d(0, Q, rng)
        sigma, n = 0.5, 100
        m = simulate_empirical_moments(x, RotationDistribution.uniform(0), n, sigma, rng)
        assert np.isfinite(m.M1).all() and np.isfinite(m.M2).all()
        assert np.abs(m.M1 - x.coeffs).max() <= 6 * sigma / np.sqrt(n)

    def test_angle_of_two_pi_is_angle_zero(self):
        # The table maps every u >= 1/2 to exactly 2*pi (a zero-density stretch at the end).
        levels, nodes = np.array([0.0, 0.5, 1.0]), np.array([0.0, TWO_PI, TWO_PI])
        u = np.random.default_rng(40).random(3001)
        angles = np.interp(u, levels, nodes)
        assert (angles == TWO_PI).sum() > 1000
        got = _angle_sums(inverse_cdf_table(levels, nodes), u.size, 20, _Uniforms(u), 1024)
        assert np.abs(got - _fourier_sums(angles, 20)).max() <= 1e-13 * u.size
        assert np.array_equal(got, _fresh_array_angle_sums(levels, nodes, u.size, 20, _Uniforms(u), 1024))

    @pytest.mark.parametrize("n", [777, 4096, 65536, 100_000])
    @pytest.mark.parametrize("chunk", [4096, 5000, 65536])
    def test_workspace_sums_equal_fresh_array_sums(self, n, chunk):
        # n below, equal to, a multiple of and not a multiple of the chunk:
        # filling the workspace in place changes no bit of the sums.
        levels, nodes = _experiment_cdf(10, 50)
        got = _angle_sums(inverse_cdf_table(levels, nodes), n, 20, np.random.default_rng(n + chunk), chunk)
        want = _fresh_array_angle_sums(levels, nodes, n, 20, np.random.default_rng(n + chunk), chunk)
        assert np.array_equal(got, want)

    def test_no_stale_workspace_across_sizes(self):
        # One thread, starting with an empty workspace: a large call, a small
        # one that reuses the front of its buffers and table, then a large one.
        levels, nodes = _experiment_cdf(10, 52)
        table = inverse_cdf_table(levels, nodes)

        def calls():
            return [
                (
                    _angle_sums(table, n, 20, np.random.default_rng(n), 65536),
                    _fresh_array_angle_sums(levels, nodes, n, 20, np.random.default_rng(n), 65536),
                )
                for n in (100_000, 1000, 100_000)
            ]

        with ThreadPoolExecutor(1) as pool:
            results = pool.submit(calls).result(timeout=60)
        for got, want in results:
            assert np.array_equal(got, want)

    def test_concurrent_threads_equal_serial_calls(self):
        # More threads than cores, each with its own n, all started together
        # and switching often: every thread's sums equal the serial ones.
        table = inverse_cdf_table(*_experiment_cdf(10, 53))
        sizes = [100_000, 1000, 70_000, 4096]
        serial = {n: _angle_sums(table, n, 20, np.random.default_rng(n), 65536) for n in sizes}
        start = threading.Barrier(len(sizes))

        def run(n):
            start.wait(timeout=30)
            return [_angle_sums(table, n, 20, np.random.default_rng(n), 65536) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(sizes)) as pool:
                futures = {n: pool.submit(run, n) for n in sizes}
                results = {n: f.result(timeout=120) for n, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        for n in sizes:
            assert all(np.array_equal(got, serial[n]) for got in results[n])

    def test_workspace_keeps_every_array_it_grows(self):
        # One thread, starting with an empty workspace: each array is kept at
        # the largest size asked for, the table and a chunk above the default
        # included, and a call no larger reuses the same array objects.
        table = inverse_cdf_table(*_experiment_cdf(100, 54))

        def kept_arrays():
            kept = []
            calls = [(70_000, 200, 65536), (70_000, 200, 65536), (200_000, 20, 200_000), (100_000, 20, 65536)]
            for n, order, chunk in calls:
                _angle_sums(table, n, order, np.random.default_rng(n), chunk)
                kept.append(dict(vars(moments._workspace)))
            return kept

        with ThreadPoolExecutor(1) as pool:
            first, second, large, default = pool.submit(kept_arrays).result(timeout=60)
        # At B = 100 and n = 70,000 the table is 9 x 8192, above the default
        # chunk.  The bucket lookup keeps no array of its own: its intervals
        # and scratch share the offsets and the int64 cell indices.
        assert {name: a.size for name, a in first.items()} == {
            "uniform": 65536, "offset": 65536, "cell": 65536, "table": 9 * 8192
        }
        assert first["cell"].dtype == np.int64
        assert all(second[name] is first[name] for name in first)
        # The 200,000-angle chunk grows the angle arrays; its 6 x 8192 table fits the kept one.
        assert {name: a.size for name, a in large.items()} == {
            "uniform": 200_000, "offset": 200_000, "cell": 200_000, "table": 9 * 8192
        }
        assert large["table"] is first["table"]
        assert all(default[name] is large[name] for name in large)

    def test_second_call_allocates_little(self):
        # Once a thread has simulated at n = 1e5, another call allocates only
        # rfft's output (6 x 4097 complex, 384 KiB), the lookup's boolean
        # masks and small temporaries: its traced peak stays below 512 KiB,
        # a bound that still separates it from fresh arrays per chunk, which
        # peak at 2.6 MiB.
        rng = np.random.default_rng(55)
        img = make_experiment_signal_2d(10, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(10, rng, tol_pos=0.05), 0.1)
        simulate_empirical_moments(img, rho, 100_000, 0.5, rng)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_empirical_moments(img, rho, 100_000, 0.5, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 512 * 1024

    @pytest.mark.parametrize(
        "B, Q, n, chunk",
        [
            (1, 1, 50, 65536),
            (3, 2, 5000, 777),
            (10, 2, 100_000, 65536),
            (32, 1, 20_000, 4096),
            (65, 1, 1000, 65536),
        ],
    )
    def test_same_draws_as_per_angle_simulation(self, B, Q, n, chunk):
        # The gridded sums read the random stream exactly as the per-angle
        # sums did, so the result is the same draw up to rounding, and the
        # in-distribution test against the direct oracle covers it.  At
        # B = 65 the order 2B = 130 needs 4 * 130 = 520 cells, more than the
        # 512 that n = 1000 gives, so the grid doubles to 1024.
        rng = np.random.default_rng(41 + B)
        img = make_experiment_signal_2d(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        got = simulate_empirical_moments(img, rho, n, 0.7, np.random.default_rng(42), chunk)
        m1, m2 = _per_angle_simulation(img, rho, n, 0.7, np.random.default_rng(42), chunk)
        assert np.abs(got.M1 - m1).max() <= 1e-12 * np.abs(m1).max()
        assert np.abs(got.M2 - m2).max() <= 1e-12 * np.abs(m2).max()

    def test_distribution_matches_direct_oracle(self):
        # Every real and imaginary entry of M1 and M2, over independent
        # repetitions of each simulator: equal means (two-sample z), equal
        # spreads and equal correlations between entries (the joint law of
        # the signal, cross and noise terms, not only each marginal).
        B, Q, n, sig, reps = 2, 2, 60, 0.6, 3000
        rng = np.random.default_rng(31)
        img = make_experiment_signal_2d(B, Q, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)

        def draws(simulate, key):
            out = []
            for r in range(reps):
                m = simulate(img, rho, n, sig, np.random.default_rng((key, r)), 65536)
                out.append(np.concatenate([m.M1, m.M2.ravel()]))
            out = np.array(out)
            return np.concatenate([out.real, out.imag], axis=1)

        new = draws(simulate_empirical_moments, 1)
        old = draws(_oracle_moments, 2)
        var_new, var_old = new.var(axis=0, ddof=1), old.var(axis=0, ddof=1)
        random_entry = var_old > 1e-20
        # Entries that are exactly zero on the oracle side (Im of real ones).
        assert np.abs(new[:, ~random_entry]).max() < 1e-12
        z = (new.mean(axis=0) - old.mean(axis=0))[random_entry] / np.sqrt(
            (var_new + var_old)[random_entry] / reps
        )
        spread = np.sqrt(var_new[random_entry] / var_old[random_entry])
        assert np.abs(z).max() < 4.5
        assert 0.9 <= spread.min() and spread.max() <= 1.1
        corr_new = np.corrcoef(new[:, random_entry].T)
        corr_old = np.corrcoef(old[:, random_entry].T)
        assert np.abs(corr_new - corr_old).max() < 0.2

    def test_conjugate_symmetry_for_real_image(self):
        rng = np.random.default_rng(32)
        img = make_experiment_signal_2d(3, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        m = simulate_empirical_moments(img, rho, 5000, 0.8, rng)
        k_index = img.k_values
        mirror = np.arange(img.size)
        mirror[np.flatnonzero(k_index > 0)] = _negative_partners(k_index)
        mirror[_negative_partners(k_index)] = np.flatnonzero(k_index > 0)
        assert np.abs(m.M1[mirror] - m.M1.conj()).max() <= 1e-12
        assert np.abs(m.M2[np.ix_(mirror, mirror)] - m.M2.conj()).max() <= 1e-12 * np.abs(m.M2).max()

    def test_few_observations_factor_their_own_draws(self):
        # n < (2B+1) + d leaves the Wishart term singular: the factor is the
        # draws of one generate_observations batch, so the moments are that
        # batch's, up to the order of the products.
        rng = np.random.default_rng(33)
        img = make_experiment_signal_2d(2, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(2, rng, tol_pos=0.05), 0.1)
        n = 5 + img.size - 1
        for chunk in (4, 65536):
            a = simulate_empirical_moments(img, rho, n, 0.4, np.random.default_rng(34), chunk)
            b = _oracle_moments(img, rho, n, 0.4, np.random.default_rng(34), n)
            assert np.abs(a.M1 - b.M1).max() <= 1e-13 * np.abs(b.M1).max()
            assert np.abs(a.M2 - b.M2).max() <= 1e-13 * np.abs(b.M2).max()
        c = simulate_empirical_moments(img, rho, n + 1, 0.4, np.random.default_rng(34))
        d = _oracle_moments(img, rho, n + 1, 0.4, np.random.default_rng(34), n + 1)
        assert np.abs(c.M2 - d.M2).max() > 1e-3 * np.abs(d.M2).max()

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_singular_gram_takes_eigenvalue_root(self, monkeypatch, B):
        # A Cholesky failure on the angle Gram matrix switches to its
        # eigenvalue root; no observation is generated.  For a unit-modulus
        # image every entry of y y^H, and of y, has variance at most
        # max_a E|y_a|^4 = 1 + 6 sigma^2 + 3 sigma^4 (a real k = 0 entry),
        # which bounds each entry's standard error.
        calls = []

        def singular(a):
            calls.append("cholesky")
            raise np.linalg.LinAlgError("stand-in: singular Gram matrix")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        _forbid_generated_observations(monkeypatch)
        rng = np.random.default_rng((37, B))
        img = make_experiment_signal_2d(B, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=0.05), 0.1)
        n, sig = 20_000, 0.5
        m = simulate_empirical_moments(img, rho, n, sig, rng)
        assert calls == ["cholesky"]
        pop = population_moments_2d(img, rho, sig)
        se = math.sqrt((1 + 6 * sig**2 + 3 * sig**4) / n)
        assert np.abs(m.M1 - pop.M1).max() < 5 * se
        assert np.abs(m.M2 - pop.M2).max() < 5 * se

    def test_concentrated_density_needs_no_generated_observations(self, monkeypatch):
        # The Fejer density packs the angles so close that G^T G is
        # numerically singular in most draws, with no patching.  At
        # sigma = 0, M2 = C G^T G C^H / n and M1 = C G^T G e_0 / n for the
        # G^T G of the same angle sums.
        B = 10
        rho, img = _fejer_density(B), make_experiment_signal_2d(B, 1, np.random.default_rng(0))
        design = observation_map(img, 0.0)[:, : 2 * B + 1]
        outcomes = _record_cholesky(monkeypatch)
        _forbid_generated_observations(monkeypatch)
        for seed in range(5):
            for n in (42, 63, 100, 150):
                m = simulate_empirical_moments(img, rho, n, 0.0, np.random.default_rng(seed))
                sums = _angle_sums(rho._inverse_cdf, n, 2 * B, np.random.default_rng(seed), 65536)
                gram = _gram_from_sums(sums)
                m2 = design @ gram @ design.conj().T / n
                m1 = design @ gram[:, 0] / n
                assert np.abs(m.M2 - m2).max() <= 1e-12 * np.abs(m2).max()
                assert np.abs(m.M1 - m1).max() <= 1e-12 * np.abs(m1).max()
        assert len(outcomes) == 20 and outcomes.count("failed") > 10

    @pytest.mark.parametrize(
        "Q, fejer, n, path",
        [(2, False, 62, []), (2, False, 5000, ["factored"]), (1, True, 63, ["failed"])],
        ids=["few_observations", "cholesky", "singular_gram"],
    )
    def test_no_observation_is_generated(self, monkeypatch, Q, fejer, n, path):
        # n < p + d (63 at Q = 2), a Cholesky factor, and a genuinely
        # singular G^T G: every path factors Gamma without forming an observation.
        assert not hasattr(moments, "_direct_moments")
        assert not hasattr(moments, "generate_observations")
        rng = np.random.default_rng(38)
        img = make_experiment_signal_2d(10, Q, rng)
        rho = _fejer_density(10) if fejer else make_experiment_distribution(10, rng)
        outcomes = _record_cholesky(monkeypatch)
        _forbid_generated_observations(monkeypatch)
        m = simulate_empirical_moments(img, rho, n, 0.3, np.random.default_rng(0))
        assert outcomes == path
        assert np.isfinite(m.M1).all() and np.isfinite(m.M2).all()

    @pytest.mark.parametrize("n", [5, 10_000])
    def test_density_dipping_below_zero_is_not_simulated(self, n):
        # Both paths (the draws themselves at small n, angle sums above)
        # refuse a density that is negative on the grid, instead of drawing
        # the moments of its clamped version.
        rng = np.random.default_rng(7)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 2.0)
        img = make_experiment_signal_2d(3, 1, np.random.default_rng(0))
        with pytest.raises(NotSampleableError, match="dips to"):
            simulate_empirical_moments(img, rho, n, 0.0, np.random.default_rng(1))

    def test_input_checks(self):
        img = make_experiment_signal_2d(2, 2, np.random.default_rng(35))
        rho = RotationDistribution.uniform(2)
        with pytest.raises(ValueError):
            simulate_empirical_moments(img, RotationDistribution.uniform(3), 100, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_empirical_moments(img, rho, 100, -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n, sigma, error",
        [
            (100, np.nan, ValueError),
            (100, np.inf, ValueError),
            (0, 0.1, ValueError),
            (-5, 0.1, ValueError),
            (2.5, 0.1, TypeError),
            (100, True, TypeError),
            (100, "0.1", TypeError),
        ],
    )
    def test_bad_input_fails_before_any_draw(self, n, sigma, error):
        img = make_experiment_signal_2d(2, 2, np.random.default_rng(36))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(error):
            simulate_empirical_moments(img, RotationDistribution.uniform(2), n, sigma, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("chunk, error", [(0, ValueError), (-1, ValueError), (2.5, TypeError)])
    def test_bad_chunk_fails_before_any_draw(self, chunk, error):
        img = make_experiment_signal_2d(2, 2, np.random.default_rng(36))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(error, match="chunk|integer"):
            simulate_empirical_moments(img, RotationDistribution.uniform(2), 100, 0.1, rng, chunk)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dim", [1, 2, 42])
    def test_bartlett_factor_fills_tril_indices(self, dim):
        # The strict lower triangle's indices are kept per dimension; the
        # factor has the bits of one filled through np.tril_indices.
        got = _bartlett_factor(dim, dim + 5, np.random.default_rng(dim))
        rng = np.random.default_rng(dim)
        expected = np.zeros((dim, dim))
        expected[np.diag_indices(dim)] = np.sqrt(rng.chisquare(dim + 5 - np.arange(dim)))
        expected[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
        assert np.array_equal(got, expected)
        assert np.array_equal(_bartlett_factor(dim, dim + 5, np.random.default_rng(dim)), expected)


class TestStackedSimulator:
    """``_simulate_stack`` on a stack gives each cell the bits of the one-trial simulator."""

    @staticmethod
    def specs(seed):
        """Five B = 10, Q = 1 trials ``(image, rho, generator key, sigmas)``: experiment
        densities, one density that cannot be sampled (position 1), and the
        Fejer density (position 2), whose Gram matrix is singular at
        n = 42, 63 and 150 for its key and not at 5000."""
        rng = np.random.default_rng(seed)
        base = make_experiment_distribution(10, rng, tol_pos=0.05)
        rhos = [
            perturb_distribution(base, 0.1),
            random_rho(10, np.random.default_rng(1), min_mod=0.9, max_mod=1.0),
            _fejer_density(10),
            make_experiment_distribution(10, rng, tol_pos=0.05),
            perturb_distribution(base, 0.05),
        ]
        assert not rhos[1].sampleable
        sigmas = [(0.3,), (0.5, 2.0), (0.0, 0.7, 1e-3), (1.0,), (0.2, 0.4)]
        return [
            (make_experiment_signal_2d(10, 1, rng), rho, (97, key), sigma)
            for key, (rho, sigma) in enumerate(zip(rhos, sigmas), start=8)
        ]

    @pytest.mark.parametrize("n", [30, 42, 63, 150, 5000])
    def test_each_cell_is_the_one_trial_simulators(self, monkeypatch, n):
        # n = 30 lies below p + d = 42 (the draws are the factor); from 42 on
        # the Gram matrices form one stack.  The trial that cannot be
        # sampled makes the stack of all five raise; the Fejer trial's
        # singular matrix fails the stacked Cholesky of the other four, and
        # every matrix is then factored alone.
        specs = self.specs(98)
        trials = [(img, rho, np.random.default_rng(key), sigmas) for img, rho, key, sigmas in specs]
        with pytest.raises(NotSampleableError, match="dips to"):
            _simulate_stack(iter(trials), n)
        sampleable = [spec for t, spec in enumerate(specs) if t != 1]
        outcomes = _record_cholesky(monkeypatch)
        trials = [(img, rho, np.random.default_rng(key), sigmas) for img, rho, key, sigmas in sampleable]
        m1, m2 = _simulate_stack(iter(trials), n)
        stacked = list(outcomes)
        assert m1.shape == (7, 21) and m2.shape == (7, 21, 21)
        cell = 0
        for img, rho, key, sigmas in sampleable:
            for sigma in sigmas:
                want = simulate_empirical_moments(img, rho, n, sigma, np.random.default_rng(key))
                assert np.array_equal(m1[cell], want.M1) and np.array_equal(m2[cell], want.M2)
                cell += 1
        if n < 42:
            assert stacked == []
        elif n < 5000:
            assert stacked == ["failed", "factored", "failed", "factored", "factored"]
        else:
            assert stacked == ["factored"]

    @pytest.mark.parametrize("n", [30, 5000])
    def test_each_cell_equals_the_factor_drawn_trial_by_trial(self, n):
        # The reference draws each trial's factor alone (_one_trial_factor)
        # and forms the moments as K F F[0] / n and K F (K F)^H / n.
        specs = [spec for t, spec in enumerate(self.specs(99)) if t != 1]
        trials = [(img, rho, np.random.default_rng(key), sigmas) for img, rho, key, sigmas in specs]
        m1, m2 = _simulate_stack(trials, n)
        assert len(m1) == sum(len(sigmas) for *_, sigmas in specs)
        cell = 0
        for img, rho, key, sigmas in specs:
            factor = _one_trial_factor(img, rho, n, np.random.default_rng(key))
            for sigma in sigmas:
                kf = observation_map(img, sigma) @ factor
                assert np.array_equal(m1[cell], kf @ factor[0] / n)
                assert np.array_equal(m2[cell], kf @ kf.conj().T / n)
                cell += 1

    def test_unsampleable_trial_raises(self):
        img, rho, key, sigmas = self.specs(100)[1]
        with pytest.raises(NotSampleableError, match="dips to"):
            _simulate_stack([(img, rho, np.random.default_rng(key), sigmas)], 5000)

    def test_nothing_drawn_gives_empty_stacks(self):
        m1, m2 = _simulate_stack(iter([]), 5000)
        assert m1.shape == (0, 0) and m2.shape == (0, 0, 0)


class TestDebias:
    def test_population_structure(self):
        # Debiased second moment equals 2*pi*D_x T D_x^H, which is PSD.
        rng = np.random.default_rng(11)
        B = 4
        x = random_signal_1d(B, rng)
        rho = make_experiment_distribution(B, rng)
        m = debias(population_moments_2d(x, rho, sigma=0.8))
        k = x.k_values
        t = rho.coeffs[(k[:, None] - k[None, :]) + 2 * B]
        expected = 2 * np.pi * np.outer(x.coeffs, x.coeffs.conj()) * t
        assert np.allclose(m.M2, expected, atol=1e-13)
        lam = np.linalg.eigvalsh(m.M2)
        assert lam.min() >= -1e-10 * abs(lam).max()

    def test_sigma_zero_unchanged(self):
        rng = np.random.default_rng(12)
        x = random_signal_1d(2, rng)
        m = population_moments_2d(x, RotationDistribution.uniform(2), sigma=0.0)
        md = debias(m)
        assert np.allclose(md.M2, m.M2, atol=0)

    def test_empirical_floor(self):
        rng = np.random.default_rng(77)
        x = random_signal_1d(3, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        m = simulate_empirical_moments(x, rho, 1_000_000, 1.0, rng)
        lam = np.linalg.eigvalsh(debias(m).M2)
        assert lam.min() >= -0.05 * lam.max()

    def test_debias_idempotent(self):
        rng = np.random.default_rng(13)
        x = random_signal_1d(2, rng)
        m = debias(population_moments_2d(x, RotationDistribution.uniform(2), 0.2))
        assert m.sigma == 0.0
        assert debias(m).M2.tobytes() == m.M2.tobytes()

    def test_sigma_zero_still_resymmetrised(self):
        # A population M2 is Hermitian only to rounding, so debiasing it at
        # sigma = 0 changes bits: it must not be skipped.
        rng = np.random.default_rng(16)
        x = make_experiment_signal_2d(10, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(10, rng, tol_pos=0.05), 0.1)
        m = population_moments_2d(x, rho, 0.0)
        assert not np.array_equal(m.M2, m.M2.conj().T)
        assert debias(m).M2.tobytes() == (0.5 * (m.M2 + m.M2.conj().T)).tobytes()

    def test_hermitian_preserved(self):
        rng = np.random.default_rng(14)
        x = random_signal_1d(3, rng)
        rho = make_experiment_distribution(3, rng)
        md = debias(population_moments_2d(x, rho, 0.3))
        assert np.array_equal(md.M2, md.M2.conj().T)


class TestStackedDebias:
    """The stacked pair checks and debias act on each pair of a stack as on that pair alone."""

    @staticmethod
    def pairs(count: int, seed: int) -> list:
        rng = np.random.default_rng(seed)
        img = random_image(3, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        return [
            simulate_empirical_moments(img, rho, int(rng.integers(20, 5000)), float(rng.uniform(0.0, 2.0)), rng)
            for _ in range(count)
        ]

    def test_each_pair_debiased_as_alone(self):
        pairs = self.pairs(6, 71)
        stack = np.array([m.M2 for m in pairs])
        _debias_in_place(stack, [m.sigma for m in pairs])
        for row, m in zip(stack, pairs):
            assert np.array_equal(row, debias(m).M2)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 40),
        n=st.integers(1, 60),
        sigmas=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_debias_needs_no_symmetric_input(self, dim, n, sigmas, seed):
        # Debias owns the symmetry of M2: on a product R = X X^H / n, which
        # is Hermitian to rounding only, it gives the bytes it gives on R
        # made exactly Hermitian first.  Each entry is (A_ij + conj(A_ji)) / 2
        # either way, and the diagonal's doubling and halving are exact.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, (len(sigmas), 1, 1))
        x = scales * (rng.standard_normal((len(sigmas), dim, n)) + 1j * rng.standard_normal((len(sigmas), dim, n)))
        product = x @ x.conj().transpose(0, 2, 1) / n
        symmetrised = 0.5 * (product + product.conj().transpose(0, 2, 1))
        _debias_in_place(product, sigmas)
        _debias_in_place(symmetrised, sigmas)
        assert product.tobytes() == symmetrised.tobytes()

    @pytest.mark.parametrize("n", [15, 5000], ids=["draws_as_factor", "bartlett_factor"])
    def test_simulated_second_moment_is_the_product(self, n):
        # simulate_empirical_moments returns K F (K F)^H / n as computed;
        # debias makes it exactly Hermitian, with the bits of debiasing it
        # made exactly Hermitian first.
        rng = np.random.default_rng(73)
        img = random_image(3, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(3, rng, tol_pos=0.05), 0.1)
        m = simulate_empirical_moments(img, rho, n, 0.4, np.random.default_rng(74))
        kf = observation_map(img, 0.4) @ _one_trial_factor(img, rho, n, np.random.default_rng(74))
        assert np.array_equal(m.M2, kf @ kf.conj().T / n)
        md = debias(m)
        assert np.array_equal(md.M2, md.M2.conj().T)
        symmetrised = MomentPair(m.M1, 0.5 * (m.M2 + m.M2.conj().T), m.sigma)
        assert debias(symmetrised).M2.tobytes() == md.M2.tobytes()

    @pytest.mark.parametrize("bad_cell", [0, 3])
    @pytest.mark.parametrize("fault", ["non_finite", "non_hermitian", "negative_sigma"])
    def test_one_bad_pair_fails_the_stack(self, bad_cell, fault):
        pairs = self.pairs(4, 72)
        m1 = np.array([m.M1 for m in pairs])
        m2 = np.array([m.M2 for m in pairs])
        sigmas = np.array([m.sigma for m in pairs])
        _check_pairs(m1, m2, sigmas)
        if fault == "non_finite":
            m1[bad_cell, 2] = np.nan
        elif fault == "non_hermitian":
            m2[bad_cell, 0, 1] += 1e-6
        else:
            sigmas[bad_cell] = -0.1
        with pytest.raises(ValueError, match="finite|Hermitian|nonnegative"):
            _check_pairs(m1, m2, sigmas)
        with pytest.raises(ValueError, match="finite|Hermitian|nonnegative"):
            MomentPair(m1[bad_cell], m2[bad_cell], sigmas[bad_cell])


class TestMomentPairValidation:
    def test_rejects_non_hermitian(self):
        m2 = np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            MomentPair(np.ones(2, dtype=complex), m2, 0.1)

    def test_rejects_non_finite(self):
        img = random_image(3, 2, np.random.default_rng(15))
        m = population_moments_2d(img, random_rho(3, np.random.default_rng(16)), 0.2)
        m2 = m.M2.copy()
        m2[0, 0] = np.nan
        with pytest.raises(ValueError):
            MomentPair(m.M1, m2, m.sigma)
        m1 = m.M1.copy()
        m1[1] = np.inf
        with pytest.raises(ValueError):
            MomentPair(m1, m.M2, m.sigma)
        with pytest.raises(ValueError):
            MomentPair(m.M1, m.M2, np.nan)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            MomentPair(np.ones(2, dtype=complex), np.eye(2, dtype=complex), -0.1)

    @pytest.mark.parametrize(
        "m1, m2",
        [(np.ones((2, 1)), np.eye(2)), (np.ones(2), np.eye(3)), (np.ones(2), np.ones(4))],
        ids=["m1_matrix", "m2_size", "m2_vector"],
    )
    def test_rejects_mismatched_shapes(self, m1, m2):
        with pytest.raises(ValueError, match="M1 must be a vector and M2 a matching square matrix"):
            MomentPair(m1, m2, 0.1)

    def test_keeps_a_read_only_copy_of_the_callers_arrays(self):
        # The caller's arrays stay writeable, and a write through a view of
        # one taken earlier cannot make the validated M2 non-Hermitian.
        m1, m2 = np.ones(2, dtype=complex), np.eye(2, dtype=complex)
        view = m2[:]
        m = MomentPair(m1, m2, 0.1)
        assert m1.flags.writeable and m2.flags.writeable
        view[0, 1] = 5.0
        assert np.array_equal(m.M2, np.eye(2)) and not m.M1.flags.writeable and not m.M2.flags.writeable

    @pytest.mark.parametrize(
        "sigma, kept",
        [(0.1, 0.1), (np.float64(0.25), 0.25), (np.float32(0.5), 0.5), (0, 0.0), (np.int64(2), 2.0)],
        ids=["float", "float64", "float32", "int", "int64"],
    )
    def test_sigma_kept_as_a_float(self, sigma, kept):
        m = MomentPair(np.ones(2, dtype=complex), np.eye(2, dtype=complex), sigma)
        assert type(m.sigma) is float and m.sigma == kept

    @pytest.mark.parametrize(
        "sigma",
        [True, False, np.bool_(True), "0.1", np.array([0.1]), [0.1], 0.1 + 0j],
        ids=["True", "False", "np_bool", "str", "array", "list", "complex"],
    )
    def test_sigma_must_be_one_real_number(self, sigma):
        with pytest.raises(TypeError, match="sigma must be a real number"):
            MomentPair(np.ones(2, dtype=complex), np.eye(2, dtype=complex), sigma)


class TestNoiseLevel:
    """Every entry point that takes a noise level applies one rule to it, before any draw."""

    @staticmethod
    def drawn(draw, sigma):
        image = random_image(2, 2, np.random.default_rng(1))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        try:
            draw(image, RotationDistribution.uniform(2), 100, sigma, rng)
        finally:
            assert rng.bit_generator.state == state

    @classmethod
    def generate(cls, sigma):
        cls.drawn(generate_observations, sigma)

    @classmethod
    def simulate(cls, sigma):
        cls.drawn(simulate_empirical_moments, sigma)

    @staticmethod
    def pair(sigma):
        MomentPair(np.ones(2, dtype=complex), np.eye(2, dtype=complex), sigma)

    @pytest.mark.parametrize("entry", ["generate", "simulate", "pair"])
    @pytest.mark.parametrize(
        "sigma, error",
        [
            (True, TypeError),
            (np.True_, TypeError),
            (np.array([0.1]), TypeError),
            ([0.1], TypeError),
            (0.1 + 0j, TypeError),
            ("0.1", TypeError),
            (np.nan, ValueError),
            (np.inf, ValueError),
            (-1, ValueError),
        ],
        ids=["True", "np_True", "array", "list", "complex", "str", "nan", "inf", "negative"],
    )
    def test_one_rule_at_every_entry_point(self, entry, sigma, error):
        with pytest.raises(error, match="sigma"):
            getattr(self, entry)(sigma)
