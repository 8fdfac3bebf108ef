import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from so2mra import freq_march, harness, moments
from so2mra.errors import ConfigError, DegenerateDrawError, MomentConsistencyError, NotSampleableError
from so2mra.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    ExperimentConfig,
    config_from_argv,
    config_from_sources,
    load_config_file,
    main,
    rows_to_csv,
    run_experiment,
    write_csv,
)
from so2mra.freq_march import FMOptions, fm_recover_2d
from so2mra.metrics import _alignment_errors, recovery_error, sigma_for_snr
from so2mra.moments import MomentPair, debias, simulate_empirical_moments
from so2mra.signal_model import (
    UNIFORM_DENSITY,
    FBImage,
    coefficient_layout,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
)
from so2mra.spectral import RANK_TOL_EMPIRICAL, EigOptions, spectral_recover_2d

TINY_SNR = dict(
    experiment="snr_sweep", b=3, q=2, n=1500, trials=3, snr_grid=(1.0, 50.0), seed=7
)
TINY_N = dict(experiment="n_sweep", b=3, q=2, trials=3, n_grid=(1500, 3000), seed=7)


def misspecify_sigma(monkeypatch, factor: float = 50.0) -> None:
    """Make every simulated moment pair debias at ``factor`` times its true noise level.

    A grossly overstated sigma drives the debiased power spectrum negative,
    so the recoveries fail through their real error paths.
    """
    real = harness._debias_in_place

    def misspecified(m2, sigmas):
        real(m2, [factor * sigma for sigma in sigmas])

    monkeypatch.setattr(harness, "_debias_in_place", misspecified)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="pca_sweep").validated()

    def test_grid_must_match_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="snr_sweep", n_grid=(10,)).validated()

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="snr_sweep", snr_grid=()).validated()

    def test_defaults_populated(self):
        cfg = ExperimentConfig(experiment="bound_sweep").validated()
        assert len(cfg.eta_grid) == 20
        assert cfg.eta_grid[0] == pytest.approx(1e-3)
        assert cfg.eta_grid[-1] == pytest.approx(1e-1)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algos=("fm_plain", "gradient_descent")).validated()

    @pytest.mark.parametrize("algos", [("spectral", "spectral"), ("fm_plain", "spectral", "fm_plain")])
    def test_repeated_algorithm_rejected(self, algos):
        # A repeated name would write the same CSV rows twice.
        with pytest.raises(ConfigError, match="each once"):
            ExperimentConfig(algos=algos).validated()
        with pytest.raises(ConfigError, match="each once"):
            config_from_sources({"algos": ", ".join(algos)})

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": 0},
            {"q": 0},
            {"n": 0},
            {"trials": 0},
            {"threads": 0},
            {"snr": 0.0},
            {"eta": -0.1},
            {"seed": -1},
            {"snr_grid": (10.0, 0.0)},
            {"experiment": "n_sweep", "n_grid": (1000, -5)},
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validated()

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": 2.5},
            {"trials": 2.5},
            {"snr": np.nan},
            {"eta": np.inf},
            {"snr_grid": (10.0, np.nan)},
            {"experiment": "n_sweep", "n_grid": (1000, 2.5)},
            {"fixed_ground_truth": "no"},
            {"snr_grid": 5.0},
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_mistyped_or_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validated()


class TestSamplingSweeps:
    def test_snr_sweep_rows(self):
        cfg = ExperimentConfig(**TINY_SNR)
        rows = run_experiment(cfg)
        assert len(rows) == 2 * len(ALGORITHMS)
        for row in rows:
            assert row["grid_param_name"] == "snr"
            assert row["trials"] == 3
            assert row["s_b"] is None and row["bound"] is None
            if row["failures"] < row["trials"]:
                assert row["lower"] <= row["median_error"] <= row["upper"]

    def test_n_sweep_rows(self):
        cfg = ExperimentConfig(
            experiment="n_sweep", b=3, q=2, snr=100.0, trials=2, n_grid=(500, 2000), seed=3
        )
        rows = run_experiment(cfg)
        values = sorted({row["grid_param_value"] for row in rows})
        assert values == [500, 2000]
        by_n = {
            n: [r for r in rows if r["grid_param_value"] == n and r["algorithm"] == "fm_plain"][0]
            for n in values
        }
        assert by_n[2000]["median_error"] < by_n[500]["median_error"]

    def test_runner_dispatch_enforced(self):
        # run_experiment validates before it dispatches on the experiment.
        cfg = ExperimentConfig(**{**TINY_SNR, "n_grid": (500,)})
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_algorithm_subset(self):
        cfg = ExperimentConfig(**{**TINY_SNR, "algos": ("spectral",)})
        rows = run_experiment(cfg)
        assert {row["algorithm"] for row in rows} == {"spectral"}

    def test_failures_recorded_not_raised(self, monkeypatch):
        misspecify_sigma(monkeypatch)
        rows = run_experiment(ExperimentConfig(**TINY_SNR))
        assert any(row["failures"] > 0 for row in rows)

    @pytest.mark.parametrize("exc", [TypeError, ValueError])
    def test_programming_errors_propagate(self, monkeypatch, exc):
        # Only expected numerical failures count as failed trials; a bug in a
        # recovery (here a stand-in shape error) must abort the sweep.
        def broken(*args, **kwargs):
            raise exc("operands could not be broadcast together")

        monkeypatch.setattr(harness, "_fm_estimates", broken)
        with pytest.raises(exc):
            run_experiment(ExperimentConfig(**TINY_SNR))

    def test_algorithm_names_are_the_recovery_table(self):
        assert ALGORITHMS == tuple(harness._RECOVERIES) == ("fm_plain", "fm_robust", "spectral")

    def test_unknown_algorithm_is_not_a_failed_trial(self):
        # Validation rejects an unknown name; one that slips past it is a bug
        # and aborts the sweep instead of counting failed trials.
        cfg = dataclasses.replace(ExperimentConfig(**TINY_SNR).validated(), algos=("fm_plain", "fm_fast"))
        with pytest.raises(KeyError):
            harness._run_sampling_sweep(cfg)

    def test_fixed_ground_truth_shares_instance(self):
        cfg = ExperimentConfig(**{**TINY_SNR, "fixed_ground_truth": True})
        rows = run_experiment(cfg)
        assert len(rows) == 2 * len(ALGORITHMS)


class TestFixedGroundTruth:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_instance_drawn_once_per_sweep(self, monkeypatch, threads):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("make_experiment_signal_2d", "make_experiment_distribution"):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
        cfg = ExperimentConfig(**{**TINY_N, "fixed_ground_truth": True, "threads": threads})
        run_experiment(cfg)
        assert sorted(calls) == ["make_experiment_distribution", "make_experiment_signal_2d"]
        calls.clear()
        run_experiment(dataclasses.replace(cfg, fixed_ground_truth=False))
        assert len(calls) == 2 * len(cfg.n_grid) * cfg.trials

    @pytest.mark.parametrize("experiment", ["snr_sweep", "n_sweep"])
    def test_csv_matches_per_trial_draw(self, monkeypatch, experiment):
        # Reference: every trial draws the instance itself from the (0, 0)
        # ground-truth key, as each trial did before the draw was shared.
        base_cfg = TINY_SNR if experiment == "snr_sweep" else TINY_N
        cfg = ExperimentConfig(**{**base_cfg, "fixed_ground_truth": True})
        csvs = [rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=t))) for t in (1, 4)]
        real_task = harness._sampling_task
        code = harness.SWEEPS[experiment][0]

        def draw():
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, code, 0, 0, 1)))
            image = make_experiment_signal_2d(cfg.b, cfg.q, rng)
            base = make_experiment_distribution(cfg.b, rng, tol_pos=harness.TOL_POS)
            return image, perturb_distribution(base, cfg.eta)

        def per_trial_draw(cfg, task, instance):
            key_gi, tis, n, points = task
            errors = {}
            for ti in tis:
                errors.update(real_task(cfg, (key_gi, (ti,), n, points), draw()))
            return errors

        monkeypatch.setattr(harness, "_sampling_task", per_trial_draw)
        reference = rows_to_csv(run_experiment(cfg))
        assert csvs == [reference, reference]

    # At the default floor, eta = 3 twists seed 2's instance to a grid
    # minimum of about -0.047: it is not sampled after clamping.
    @pytest.mark.parametrize(
        "tol_pos, settings",
        [(UNIFORM_DENSITY, "seed = 7\n"), (harness.TOL_POS, "seed = 2\neta = 3\n")],
        ids=["draw_raises", "not_sampleable"],
    )
    def test_failing_instance_fails_every_trial(self, tmp_path, monkeypatch, capsys, tol_pos, settings):
        monkeypatch.setattr(harness, "TOL_POS", tol_pos)
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text(
            "experiment = n_sweep\nb = 3\nq = 2\nn_grid = 1500, 3000\ntrials = 3\n"
            "fixed_ground_truth = true\n" + settings,
            encoding="utf-8",
        )
        assert main([str(cfg_file), "--out", str(out)]) == 3
        lines = out.read_text(encoding="utf-8").splitlines()
        failures = CSV_COLUMNS.index("failures")
        assert len(lines) == 1 + 2 * len(ALGORITHMS)
        assert all(line.split(",")[failures] == "3" for line in lines[1:])
        # 2 n values x 3 trials, each failed in all 3 algorithms: the message
        # counts (trial, algorithm) results, not 18 trials.
        assert capsys.readouterr().out == f"wrote {out}: 6 rows, 18 of 18 (trial, algorithm) results failed\n"


class TestTrialFailureRule:
    """Only a ``So2MraError`` fails a trial, and the instance draw refuses a density it cannot sample."""

    @staticmethod
    def failing_draw(monkeypatch, exc, failing_trial):
        real = harness._ground_truth

        def ground_truth(cfg, gi, ti):
            if ti == failing_trial:
                raise exc("stand-in failure of the instance draw")
            return real(cfg, gi, ti)

        monkeypatch.setattr(harness, "_ground_truth", ground_truth)

    @pytest.mark.parametrize("fixed", [False, True], ids=["per_trial", "fixed"])
    @pytest.mark.parametrize("base", [TINY_SNR, TINY_N], ids=["snr_sweep", "n_sweep"])
    def test_lapack_error_in_the_instance_draw_propagates(self, monkeypatch, base, fixed):
        # The instance draw makes no LAPACK call, so a LinAlgError there is
        # a bug, not a failed trial.  A fixed instance is trial (0, 0)'s.
        self.failing_draw(monkeypatch, np.linalg.LinAlgError, 0 if fixed else 1)
        with pytest.raises(np.linalg.LinAlgError, match="stand-in"):
            run_experiment(ExperimentConfig(**{**base, "fixed_ground_truth": fixed}))

    def test_lapack_error_in_the_bound_sweeps_draw_propagates(self, monkeypatch):
        self.failing_draw(monkeypatch, np.linalg.LinAlgError, 0)
        with pytest.raises(np.linalg.LinAlgError, match="stand-in"):
            run_experiment(ExperimentConfig(experiment="bound_sweep", b=3, q=2, eta_grid=(0.01, 0.02)))

    @pytest.mark.parametrize("base", [TINY_SNR, TINY_N], ids=["snr_sweep", "n_sweep"])
    def test_package_error_in_the_instance_draw_fails_only_its_trial(self, monkeypatch, base):
        self.failing_draw(monkeypatch, DegenerateDrawError, 1)
        rows = run_experiment(ExperimentConfig(**base))
        assert [row["failures"] for row in rows] == [1] * len(rows)
        assert all(np.isfinite(row["median_error"]) for row in rows)

    def test_unsampleable_instances_never_reach_the_simulator(self, monkeypatch):
        # At eta = 3 the fixed instance of seed 2024 cannot be sampled, so
        # the sweep makes no simulator call; at eta = 0.5 trials 4 and 7
        # cannot be sampled, and only the other six are handed on.
        calls = []
        real = harness._simulate_stack

        def recording(trials, n, **kwargs):
            trials = list(trials)
            calls.append([rho for _image, rho, _rng, _sigmas in trials])
            return real(trials, n, **kwargs)

        monkeypatch.setattr(harness, "_simulate_stack", recording)
        failfix = dict(experiment="n_sweep", b=3, q=2, eta=3.0, n_grid=(100, 1000), trials=4, fixed_ground_truth=True)
        rows = run_experiment(ExperimentConfig(**failfix))
        assert calls == []
        assert [row["failures"] for row in rows] == [4] * 6
        skip = dict(experiment="snr_sweep", snr_grid=(1.0, 100.0), n=20000, trials=8, eta=0.5)
        rows = run_experiment(ExperimentConfig(**skip))
        handed = [rho for call in calls for rho in call]
        assert len(handed) == 6 and all(rho.sampleable for rho in handed)
        assert [row["failures"] for row in rows] == [2] * 6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tasks_whose_every_instance_fails_score_nothing(self, tmp_path, monkeypatch, threads):
        # Every trial's instance draw fails, so no task hands a trial to the
        # simulator and no stacked recovery core runs.
        def unsampleable(cfg, gi, ti):
            raise NotSampleableError("stand-in: the density dips below zero")

        def core(*args):
            raise AssertionError("a stacked recovery core ran")

        monkeypatch.setattr(harness, "_instance", unsampleable)
        monkeypatch.setattr(harness, "_fm_estimates", core)
        monkeypatch.setattr(harness, "_spectral_estimates", core)
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text(
            "experiment = n_sweep\nb = 3\nq = 2\nn_grid = 100, 1000\ntrials = 4\nseed = 7\n", encoding="utf-8"
        )
        assert main([str(cfg_file), "--threads", str(threads), "--out", str(out)]) == 3
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 * len(ALGORITHMS)
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            assert row["failures"] == row["trials"] == "4"
            assert (row["median_error"], row["lower"], row["upper"]) == ("nan", "nan", "nan")


class TestSnrSweepSharesDraws:
    """An SNR-sweep trial draws its instance and Gram factor once and reuses them at every SNR."""

    @pytest.mark.parametrize("n", [15, 1500], ids=["draws_as_factor", "bartlett_factor"])
    def test_moments_at_every_snr_are_the_simulators(self, monkeypatch, n):
        # Bit equality: each SNR's moments are the same operations on the
        # same draws as one simulator call on a fresh copy of the trial's
        # stream-2 generator.  n = 15 < p + d = 21 factors the draws
        # themselves; n = 1500 takes the Cholesky/Bartlett factor.
        cfg = ExperimentConfig(**{**TINY_SNR, "n": n, "snr_grid": (1.0, 50.0, 1000.0)}).validated()
        seen = []
        real = harness._simulate_stack

        def recording(trials, n_value, **kwargs):
            trials = list(trials)
            m1, m2 = real(trials, n_value, **kwargs)
            sigmas = [sigma for *_, trial_sigmas in trials for sigma in trial_sigmas]
            seen.extend(MomentPair(a, b, sigma) for a, b, sigma in zip(m1, m2, sigmas, strict=True))
            return m1, m2

        monkeypatch.setattr(harness, "_simulate_stack", recording)
        run_experiment(cfg)
        assert len(seen) == cfg.trials * len(cfg.snr_grid)
        for ti in range(cfg.trials):
            image, rho = harness._instance(cfg, 0, ti)
            for gi, snr in enumerate(cfg.snr_grid):
                rng = harness._trial_rng(cfg, 0, ti, 2)
                want = simulate_empirical_moments(image, rho, n, sigma_for_snr(image, snr), rng)
                got = seen[ti * len(cfg.snr_grid) + gi]
                assert got.sigma == want.sigma
                assert np.array_equal(got.M1, want.M1) and np.array_equal(got.M2, want.M2)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_instance_and_one_factor_per_trial(self, monkeypatch, threads):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("make_experiment_signal_2d", "make_experiment_distribution"):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
        # Each trial's Gram factor starts from one draw of its angle sums.
        monkeypatch.setattr(moments, "_angle_sums", counted(moments._angle_sums))
        cfg = ExperimentConfig(**{**TINY_SNR, "snr_grid": (1.0, 50.0, 1000.0), "threads": threads})
        run_experiment(cfg)
        assert len(calls) == 3 * cfg.trials
        assert calls.count("_angle_sums") == cfg.trials
        calls.clear()
        run_experiment(dataclasses.replace(cfg, fixed_ground_truth=True))
        assert sorted(calls) == [
            "_angle_sums", "_angle_sums", "_angle_sums",
            "make_experiment_distribution", "make_experiment_signal_2d",
        ]

    def test_first_snr_rows_do_not_depend_on_the_rest_of_the_grid(self):
        # The first SNR's cells use grid index 0's keys, as every cell did
        # when each (SNR, trial) cell drew on its own.
        cfg = ExperimentConfig(**{**TINY_SNR, "snr_grid": (1.0, 50.0, 1000.0)})
        full = rows_to_csv(run_experiment(cfg)).splitlines()
        alone = rows_to_csv(run_experiment(dataclasses.replace(cfg, snr_grid=(1.0,)))).splitlines()
        assert full[: 1 + len(ALGORITHMS)] == alone

    def test_failing_instance_fails_its_trial_at_every_snr(self, monkeypatch):
        real = harness._instance

        def second_trial_unsampleable(cfg, gi, ti):
            if ti == 1:
                raise NotSampleableError("stand-in: the density dips below zero")
            return real(cfg, gi, ti)

        monkeypatch.setattr(harness, "_instance", second_trial_unsampleable)
        cfg = ExperimentConfig(**{**TINY_SNR, "snr_grid": (10.0, 50.0, 1000.0)})
        rows = run_experiment(cfg)
        assert len(rows) == 3 * len(ALGORITHMS)
        assert [row["failures"] for row in rows] == [1] * len(rows)


# 36 of its 72 (trial, algorithm) results fail, spread over every algorithm
# and both grid points.
MIXED_FAILURES = dict(experiment="n_sweep", b=3, q=2, snr=0.1, n_grid=(30, 200), trials=12)
# The benchmark's two workloads, at fewer trials.
SNR_DESK = dict(experiment="snr_sweep", b=10, q=2, n=100_000, snr_grid=(1.0, 100.0, 10_000.0), trials=4, threads=2)
N_FIXED_GT = dict(
    experiment="n_sweep", b=10, q=2, snr=100.0, n_grid=(1000, 10_000), trials=12, fixed_ground_truth=True
)


def assert_same_bits(a, b) -> None:
    """``a`` and ``b`` hold the same bits, as arrays of the same dtype and shape (a Python scalar as numpy's)."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestStacks:
    """A task's cells form one stack per algorithm; a cell's result does not depend on its stack."""

    @staticmethod
    def stack_sizes(monkeypatch) -> list:
        sizes = []
        real = harness._cell_errors

        def recording(recover, m1, *args):
            sizes.append(len(m1))
            return real(recover, m1, *args)

        monkeypatch.setattr(harness, "_cell_errors", recording)
        return sizes

    @pytest.mark.parametrize(
        "config, stacked",
        [(MIXED_FAILURES, [12] * 6), (SNR_DESK, [6] * 6), (N_FIXED_GT, [12] * 6)],
        ids=["mixed_failures", "snr_desk", "n_fixed_gt"],
    )
    def test_csv_does_not_depend_on_the_stack_size(self, monkeypatch, config, stacked):
        # One trial per task, the default budget (on two cores, so the
        # two-thread config splits its trials between two workers), and every
        # trial of a grid point in one task, on one thread, write the same
        # bytes.
        sizes = self.stack_sizes(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cfg = ExperimentConfig(**config)
        default = rows_to_csv(run_experiment(cfg))
        assert sizes == stacked
        points = len(cfg.snr_grid or (None,))
        csvs = []
        for budget, threads, cells in [(1, cfg.threads, points), (1 << 30, 1, points * cfg.trials)]:
            sizes.clear()
            monkeypatch.setattr(harness, "_STACK_BYTES", budget)
            csvs.append(rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=threads))))
            assert set(sizes) == {cells}
        assert csvs == [default, default]

    def test_every_worker_gets_a_task(self, monkeypatch):
        # The default budget fits every trial of this sweep in one task, but
        # each worker gets a group of trials, as long as there are trials.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        groups = []
        real_task = harness._sampling_task

        def recording_task(cfg, task, instance):
            groups.append(task[1])
            return real_task(cfg, task, instance)

        monkeypatch.setattr(harness, "_sampling_task", recording_task)
        cfg = ExperimentConfig(**TINY_SNR)
        csvs = []
        for threads, expected in [(2, [(0, 1), (2,)]), (4, [(0,), (1,), (2,)]), (1, [(0, 1, 2)])]:
            groups.clear()
            csvs.append(rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=threads))))
            assert sorted(groups) == expected
        assert csvs == [csvs[0]] * 3

    @staticmethod
    def desk_pair() -> tuple:
        """A B = 4, Q = 2 image and one pair of its sampled moments at SNR 100."""
        rng = np.random.default_rng(3)
        image = make_experiment_signal_2d(4, 2, rng)
        rho = perturb_distribution(make_experiment_distribution(4, rng, tol_pos=harness.TOL_POS), 0.1)
        return image, simulate_empirical_moments(image, rho, 20_000, sigma_for_snr(image, 100.0), rng)

    def test_public_recovery_makes_no_second_pair(self, monkeypatch):
        # A public recovery debiases a copy of its pair's M2 once, through
        # the one-pair path (freq_march._one_pair, where the debias is looked
        # up), and runs its core on it, bit for bit as the core on
        # debias(m), without building (and checking) a debiased MomentPair.
        image, m = self.desk_pair()
        md = debias(m)
        shape = (image.B, image.radial_bandwidths)
        checks, debiased = [], []
        real_check, real_debias = moments._check_pairs, freq_march._debias_in_place

        def counting_check(*args):
            checks.append(args)
            real_check(*args)

        def counting_debias(m2, sigmas):
            debiased.append((m2.shape, list(sigmas)))
            real_debias(m2, sigmas)

        monkeypatch.setattr(moments, "_check_pairs", counting_check)
        monkeypatch.setattr(freq_march, "_debias_in_place", counting_debias)
        for algo, one_pair in [
            ("fm_plain", lambda: fm_recover_2d(m, shape, FMOptions(variant="plain"))),
            ("fm_robust", lambda: fm_recover_2d(m, shape, FMOptions(variant="robust"))),
            ("spectral", lambda: spectral_recover_2d(m, shape, EigOptions(rank_tol=RANK_TOL_EMPIRICAL))[0]),
        ]:
            checks.clear()
            debiased.clear()
            estimate = one_pair().signal_est.coeffs
            assert checks == []
            assert debiased == [((1, *m.M2.shape), [m.sigma])]
            estimates, failures, _diagnostics = harness._RECOVERIES[algo](md.M1[None], md.M2[None], shape)
            assert failures == [None]
            assert np.array_equal(estimate, estimates[0])

    def test_public_diagnostics_keep_their_keys(self):
        # The one-pair path hands a public recovery its cell's row of every
        # diagnostic its core names; the public results keep their own keys
        # and types, so a core-only one (rho, count, eigenvalues) does not
        # leak through.
        image, m = self.desk_pair()
        shape = (image.B, image.radial_bandwidths)
        for variant in ("plain", "robust"):
            diagnostics = fm_recover_2d(m, shape, FMOptions(variant=variant)).diagnostics
            assert set(diagnostics) == {"variant", "gauge", "min_abs_m1", "tol_m1", "residuals"}
            assert diagnostics["variant"] == variant
            assert type(diagnostics["min_abs_m1"]) is float and type(diagnostics["tol_m1"]) is float
            assert diagnostics["residuals"].shape == (image.B,)
        result, report = spectral_recover_2d(m, shape, EigOptions(rank_tol=RANK_TOL_EMPIRICAL))
        assert set(result.diagnostics) == {"x_tilde", "kappa", "gap"}
        assert type(result.diagnostics["kappa"]) is int and type(result.diagnostics["gap"]) is float
        assert (report.kappa, report.gap) == (result.diagnostics["kappa"], result.diagnostics["gap"])

    def test_one_stacked_call_per_stack_and_algorithm(self, monkeypatch):
        # Half of this sweep's results fail, yet each algorithm runs once on
        # each of its two stacks (one per n, 96 cells each): a failing cell
        # never makes an algorithm run again on a part of its stack.
        calls = []
        for algo, recover in harness._RECOVERIES.items():

            def counting(m1, m2, shape, algo=algo, recover=recover):
                calls.append((algo, len(m1)))
                return recover(m1, m2, shape)

            monkeypatch.setitem(harness._RECOVERIES, algo, counting)
        rows = run_experiment(ExperimentConfig(**{**MIXED_FAILURES, "trials": 96}))
        assert sorted(calls) == sorted([(algo, 96) for algo in ALGORITHMS] * 2)
        assert 0 < sum(row["failures"] for row in rows) < 6 * 96

    def test_failures_stay_with_their_cells(self):
        rows = run_experiment(ExperimentConfig(**MIXED_FAILURES))
        failures = [row["failures"] for row in rows]
        assert sum(failures) == 36
        # Every algorithm has a grid point where its stack mixes failing and
        # passing cells.
        for algo in ALGORITHMS:
            assert any(0 < row["failures"] < row["trials"] for row in rows if row["algorithm"] == algo)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_non_finite_estimate_aborts_the_sweep(self, monkeypatch, algo):
        # The sweep builds no FBImage, whose check would refuse a non-finite
        # estimate; it checks every algorithm's stacked estimates itself, and
        # a non-finite one is a programming error that aborts the sweep, not
        # a failed cell.  Zero blocks (2, 1) and (1, 2) of M2 make both
        # marches divide by zero; spectral gets a stand-in core.
        if algo == "spectral":
            real_core = harness._spectral_estimates

            def nan_entry(m1, m2, shape, rank_tol):
                x_est, failures, diagnostics = real_core(m1, m2, shape, rank_tol)
                x_est[0, 0] = np.nan
                return x_est, failures, diagnostics

            monkeypatch.setattr(harness, "_spectral_estimates", nan_entry)
        else:
            real = harness._simulate_stack

            def zero_blocks(trials, n, **kwargs):
                trials = list(trials)
                m1, m2 = real(trials, n, **kwargs)
                k_values = trials[0][0].k_values
                two, one = np.flatnonzero(k_values == 2), np.flatnonzero(k_values == 1)
                m2[:, two[:, None], one] = m2[:, one[:, None], two] = 0.0
                return m1, m2

            monkeypatch.setattr(harness, "_simulate_stack", zero_blocks)
        # The floating-point error state is per thread, so it is set in the
        # pool thread that runs each task.
        task = harness._sampling_task

        def quiet_task(*args, **kwargs):
            with np.errstate(divide="ignore", invalid="ignore"):
                return task(*args, **kwargs)

        monkeypatch.setattr(harness, "_sampling_task", quiet_task)
        cfg = ExperimentConfig(**{**TINY_N, "algos": (algo,)})
        with pytest.raises(ValueError, match="image coefficients must"):
            run_experiment(cfg)

    @settings(max_examples=25, deadline=None)
    # The robust march sums k - 1 >= 8 terms, past numpy's sequential
    # short-sum branch, only from B = 9 on.
    @example(B=10, uniform=True, cells=8, seed=1)
    @example(B=12, uniform=False, cells=6, seed=2)
    # Cells fail in every algorithm's stack, beside passing ones.
    @example(B=3, uniform=True, cells=5, seed=2)
    @given(B=st.integers(1, 6), uniform=st.booleans(), cells=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_each_cell_equals_its_one_cell_call(self, B, uniform, cells, seed):
        # The stacked cores against the public one-pair functions on every
        # cell: a failed cell carries the exception its one-pair call raises,
        # and a passing cell's estimate, error, angle, aligned estimate and
        # each named diagnostic are the one-pair call's, bit for bit.  At SNRs
        # down to 0.01 a stack often mixes failing and passing cells.
        # Spectral runs at uniform Q_k only.
        rng = np.random.default_rng(seed)
        qk = np.full(B + 1, int(rng.integers(1, 4))) if uniform else rng.integers(1, 5, B + 1)
        rho = perturb_distribution(make_experiment_distribution(B, rng, tol_pos=harness.TOL_POS), 0.1)
        images, pairs = [], []
        for _ in range(cells):
            k_index, _starts = coefficient_layout(B, qk)
            image = FBImage(B, qk, rng.uniform(0.5, 1.5, k_index.size) * np.exp(2j * np.pi * rng.random(k_index.size)))
            sigma = sigma_for_snr(image, 10.0 ** rng.uniform(-2.0, 3.0))
            images.append(image)
            pairs.append(simulate_empirical_moments(image, rho, int(rng.integers(30, 5000)), sigma, rng))
        m1 = np.array([m.M1 for m in pairs])
        m2 = np.array([m.M2 for m in pairs])
        harness._debias_in_place(m2, [m.sigma for m in pairs])
        truths = np.array([image.coeffs for image in images])
        shape = (B, qk)
        # algorithm: its one-pair call, as (result, spectral report or None)
        algos = {
            "fm_plain": lambda m: (fm_recover_2d(m, shape, FMOptions(variant="plain")), None),
            "fm_robust": lambda m: (fm_recover_2d(m, shape, FMOptions(variant="robust")), None),
        }
        if uniform:
            algos["spectral"] = lambda m: spectral_recover_2d(m, shape, EigOptions(rank_tol=RANK_TOL_EMPIRICAL))
        for algo, one_pair in algos.items():
            estimates, failures, diagnostics = harness._RECOVERIES[algo](m1, m2, shape)
            passed = [failure is None for failure in failures]
            assert len(estimates) == sum(passed)
            errors, angles, aligned = _alignment_errors(estimates, truths[passed], images[0].k_values)
            i = 0  # the passing cell's row
            for m, image, failure in zip(pairs, images, failures, strict=True):
                if failure is not None:
                    with pytest.raises(type(failure)) as raised:
                        one_pair(m)
                    assert type(raised.value) is type(failure) and str(raised.value) == str(failure)
                    continue
                result, spectral_report = one_pair(m)
                report = recovery_error(result.signal_est, image)
                assert np.array_equal(result.signal_est.coeffs, estimates[i])
                assert (report.relative_error, report.best_angle) == (errors[i], angles[i])
                assert np.array_equal(report.aligned_estimate, aligned[i])
                cell = {name: rows[i] for name, rows in diagnostics.items()}
                public = result.diagnostics
                if spectral_report is None:
                    assert_same_bits(cell["rho"][1:], result.rho_est.positive_coeffs)
                    for name in ("min_abs_m1", "tol_m1", "residuals"):
                        assert_same_bits(cell[name], public[name])
                else:
                    assert_same_bits(cell["eigenvalues"][: cell["count"]], spectral_report.eigenvalues)
                    for name in ("x_tilde", "kappa", "gap"):
                        assert_same_bits(cell[name], public[name])
                    assert (spectral_report.kappa, spectral_report.gap) == (public["kappa"], public["gap"])
                i += 1


class TestBoundSweep:
    def test_rows_have_sb_and_bound(self):
        cfg = ExperimentConfig(
            experiment="bound_sweep", b=3, q=2, eta_grid=(0.005, 0.02, 0.08), seed=5
        )
        rows = run_experiment(cfg)
        assert len(rows) == 3
        sbs = [row["s_b"] for row in rows]
        assert all(s > 0 for s in sbs)
        assert sbs == sorted(sbs)
        norm_sq = (2 * cfg.b + 1) * cfg.q  # unit-modulus experiment signal
        for row in rows:
            assert row["algorithm"] == "spectral"
            if row["bound"] is not None:
                assert row["median_error"] * norm_sq <= row["bound"]

    def test_failing_point_fails_its_row_only(self, tmp_path, monkeypatch):
        # An expected failure of the recovery at one eta, and a LAPACK
        # failure at another, each fail their own row; the other rows keep
        # their bytes.
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            "experiment = bound_sweep\nb = 3\nq = 2\nseed = 5\neta_grid = 0.005, 0.01, 0.02, 0.04, 0.08\n",
            encoding="utf-8",
        )
        assert main([str(cfg_file), "--out", str(tmp_path / "plain.csv")]) == 0
        calls = []
        real = harness.spectral_recover_2d

        def failing_at_two_points(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise MomentConsistencyError("stand-in inconsistent moments")
            if len(calls) == 4:
                raise np.linalg.LinAlgError("stand-in LAPACK failure")
            return real(*args)

        monkeypatch.setattr(harness, "spectral_recover_2d", failing_at_two_points)
        assert main([str(cfg_file), "--out", str(tmp_path / "failed.csv")]) == 3
        assert len(calls) == 5
        header, *plain = (tmp_path / "plain.csv").read_text(encoding="utf-8").splitlines()
        failed_header, *failed = (tmp_path / "failed.csv").read_text(encoding="utf-8").splitlines()
        assert failed_header == header and len(failed) == len(plain) == 5
        for i, (line, plain_line) in enumerate(zip(failed, plain)):
            if i in (1, 3):
                row = dict(zip(header.split(","), line.split(",")))
                assert row["grid_param_value"] == plain_line.split(",")[3]
                assert row["failures"] == "1"
                assert (row["median_error"], row["lower"], row["upper"]) == ("nan", "nan", "nan")
                assert (row["s_b"], row["bound"]) == ("", "")
            else:
                assert line == plain_line

    def test_failing_draw_fails_every_eta_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "TOL_POS", UNIFORM_DENSITY)
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text(
            "experiment = bound_sweep\nb = 3\nq = 2\neta_grid = 0.01, 0.1\n",
            encoding="utf-8",
        )
        assert main([str(cfg_file), "--out", str(out)]) == 3
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            assert (row["failures"], row["s_b"], row["bound"]) == ("1", "", "")


class TestDeterminism:
    def test_rerun_and_thread_count_byte_identical(self):
        cfg = ExperimentConfig(**TINY_SNR)
        first = rows_to_csv(run_experiment(cfg))
        second = rows_to_csv(run_experiment(cfg))
        threaded = [rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=t))) for t in (2, 4)]
        assert first == second == threaded[0] == threaded[1]

    @staticmethod
    def recording_pool(monkeypatch) -> list:
        """Replace the harness's pool by one that records its size and runs the tasks in order.

        The test then starts no threads.  Returns the list of sizes.
        """
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        return sizes

    def test_pool_capped_at_core_count(self, monkeypatch):
        # Three cores stand in for the runner's, so the cap is tested on a
        # runner of any size.
        sizes = self.recording_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        cfg = ExperimentConfig(**TINY_SNR)
        pooled = rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=4)))
        assert sizes == [3]
        assert pooled == rows_to_csv(run_experiment(cfg))

    @pytest.mark.parametrize("threads, cores", [(1, 3), (2, 1), (4, None)])
    def test_one_worker_runs_a_one_thread_pool(self, monkeypatch, threads, cores):
        # One worker, asked for or left by the core count (None counts as
        # one core), takes the one pool path: a pool of one thread, not the
        # calling thread, runs every task of a sweep.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        seen = []
        trial = harness._sampling_task

        def recording_trial(cfg, task, instance):
            seen.append(threading.get_ident())
            return trial(cfg, task, instance)

        monkeypatch.setattr(harness, "_sampling_task", recording_trial)
        configs = [dataclasses.replace(ExperimentConfig(**c), threads=threads) for c in (TINY_SNR, TINY_N)]
        for cfg in configs:
            seen.clear()
            run_experiment(cfg)
            assert len(set(seen)) == 1 and threading.get_ident() not in seen
        sizes = self.recording_pool(monkeypatch)
        for cfg in configs:
            run_experiment(cfg)
        assert sizes == [1, 1]

    def test_blas_serial_during_sweep_and_restored(self, monkeypatch):
        controls = harness._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy bundles no OpenBLAS")
        get_threads, set_threads = controls[0]
        original = get_threads()
        set_threads(2)
        before = get_threads()
        seen = []
        real_trial = harness._sampling_task

        def recording_trial(cfg, task, instance):
            seen.append(get_threads())
            return real_trial(cfg, task, instance)

        def failing_trial(cfg, task, instance):
            raise RuntimeError("trial crashed")

        try:
            monkeypatch.setattr(harness, "_sampling_task", recording_trial)
            run_experiment(ExperimentConfig(**TINY_SNR))
            assert seen and set(seen) == {1}
            assert get_threads() == before
            monkeypatch.setattr(harness, "_sampling_task", failing_trial)
            with pytest.raises(RuntimeError):
                run_experiment(ExperimentConfig(**TINY_SNR))
            assert get_threads() == before
        finally:
            set_threads(original)

    def test_seed_changes_output(self):
        cfg = ExperimentConfig(**TINY_SNR)
        other = dataclasses.replace(cfg, seed=8)
        assert rows_to_csv(run_experiment(cfg)) != rows_to_csv(run_experiment(other))


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY_SNR, "trials": 2})
        rows = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert all(line.count(",") == len(CSV_COLUMNS) - 1 for line in lines)

    def test_full_precision_floats(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY_SNR, "trials": 2})
        rows = run_experiment(cfg)
        med = rows[0]["median_error"]
        assert format(med, ".17g") in rows_to_csv(rows)


class TestConfigFileAndCli:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            """
            # comment
            experiment = "n_sweep"
            b = 4
            n_grid = 100, 200
            algos = fm_plain, spectral
            fixed_ground_truth = TRUE
            out = a.csv  # a '#' starts a comment anywhere in a line
            n = 1e4
            snr = 50
            seed = 12345678901234567891
            """,
            encoding="utf-8",
        )
        values = load_config_file(str(path))
        cfg = config_from_sources(values, {})
        assert cfg.experiment == "n_sweep" and cfg.b == 4
        assert cfg.n_grid == (100, 200)
        assert cfg.algos == ("fm_plain", "spectral")
        assert cfg.fixed_ground_truth is True
        assert cfg.out == "a.csv"
        assert type(cfg.n) is int and cfg.n == 10_000
        assert type(cfg.snr) is float and cfg.snr == 50.0
        assert cfg.seed == 12345678901234567891

    @pytest.mark.parametrize("experiment", list(harness.SWEEPS))
    def test_text_round_trip(self, tmp_path, experiment):
        # Every field written as config text reads back to the typed default.
        def text(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, tuple):
                return ", ".join(text(v) for v in value)
            return repr(value) if isinstance(value, float) else str(value)

        expected = ExperimentConfig(experiment=experiment).validated()
        path = tmp_path / "cfg.txt"
        path.write_text(
            "".join(
                f"{f.name} = {text(getattr(expected, f.name))}\n"
                for f in dataclasses.fields(expected)
                if getattr(expected, f.name) is not None
            ),
            encoding="utf-8",
        )
        assert config_from_sources(load_config_file(str(path))) == expected

    @pytest.mark.parametrize(
        "text, value",
        [
            ("a.csv", "a.csv"),
            ('"a.csv"', "a.csv"),
            ("'a.csv'", "a.csv"),
            ("'a\"b.csv'", 'a"b.csv'),
            ("\"'a.csv'\"", "'a.csv'"),
            ("it's.csv", "it's.csv"),
            ('""', ""),
        ],
        ids=["bare", "double", "single", "single_around_double", "double_around_single", "apostrophe", "empty"],
    )
    def test_one_matching_quote_pair_stripped(self, tmp_path, text, value):
        path = tmp_path / "cfg.txt"
        path.write_text(f"out = {text}\n", encoding="utf-8")
        assert load_config_file(str(path)) == {"out": value}

    @pytest.mark.parametrize(
        "text",
        ['"spectral', "spectral'", "'spectral\"", '"', "'"],
        ids=["open_double", "close_single", "mismatched", "lone_double", "lone_single"],
    )
    def test_unmatched_quote_rejected(self, tmp_path, text):
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text(f"b = 2\nn = 500\ntrials = 1\nalgos = {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unmatched quote"):
            load_config_file(str(cfg_file))
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_line_without_equals_rejected(self, tmp_path):
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text("b = 2\ntrials 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: expected 'key = value'"):
            load_config_file(str(cfg_file))
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_quoted_text_keeps_its_spaces(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text('out = " a b.csv "\nalgos = " spectral , fm_plain "\n', encoding="utf-8")
        cfg = config_from_sources(load_config_file(str(path)))
        assert cfg.out == " a b.csv "
        # Comma-list items are stripped where the list is split.
        assert cfg.algos == ("spectral", "fm_plain")

    def test_quoted_experiment_with_spaces_rejected(self, tmp_path):
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text('experiment = "  n_sweep"\nb = 2\nn_grid = 500\ntrials = 1\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown experiment '  n_sweep'"):
            config_from_sources(load_config_file(str(cfg_file)))
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_file_not_utf8_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_bytes(b"b = 2\nout = \xff\xfe.csv\n")
        with pytest.raises(ConfigError, match=r"cfg.txt: not UTF-8 text \(byte 12\)"):
            load_config_file(str(cfg_file))
        assert main([str(cfg_file)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]

    def test_byte_order_mark_ignored(self, tmp_path):
        # Some editors start a UTF-8 file with a byte-order mark.
        text = b"b = 2\nseed = 5\nout = a.csv\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config_file(str(marked)) == load_config_file(str(plain)) == {"b": "2", "seed": "5", "out": "a.csv"}
        assert config_from_sources(load_config_file(str(marked))).b == 2
        # A bad byte after the mark is reported at its offset in the file.
        marked.write_bytes(b"\xef\xbb\xbfb = 2\nout = \xff.csv\n")
        with pytest.raises(ConfigError, match=r"not UTF-8 text \(byte 15\)"):
            load_config_file(str(marked))

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = snr_sweep\nb = 3\ntrials = 2\n", encoding="utf-8")
        values = load_config_file(str(path))
        cfg = config_from_sources(values, {"trials": 9})
        assert cfg.trials == 9

    def test_repeated_key_in_a_file_rejected(self, tmp_path):
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text("b = 3\nn = 500\ntrials = 1\nb = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="lines 1 and 4 both set b"):
            load_config_file(str(cfg_file))
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nb = 3\nout = a.csv\n", encoding="utf-8")
        cfg = config_from_argv([str(path), "--seed", "5", "--b", "4", "--out", "b.csv"])
        assert (cfg.seed, cfg.b, cfg.out) == (5, 4, "b.csv")

    def test_cli_flags_set_fields(self):
        cfg = config_from_argv(["--algos", "spectral,fm_plain", "--seed", "5", "--out", "x.csv"])
        assert cfg.algos == ("spectral", "fm_plain")
        assert cfg.seed == 5
        assert cfg.out == "x.csv"

    def test_flags_are_the_non_grid_fields(self):
        parser = harness._build_parser()
        flags = [action for action in parser._actions if action.option_strings and action.dest != "help"]
        settable = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is not None}
        assert {action.dest for action in flags} == settable | {"paper_scale"}
        assert sorted(s for action in flags for s in action.option_strings) == sorted(
            ["--experiment", "--b", "--q", "--n", "--snr", "--trials", "--eta", "--algos", "--seed",
             "--out", "--fixed-ground-truth", "--threads", "--paper-scale"]
        )

    # The sweeps have no rotation grid, noise misspecification, percentile
    # margin or positivity floor to set: they run the paths that the removed
    # keys selected at these values.  Each setting has one name, so the old
    # spellings of seed, out, algos and fixed_ground_truth are unknown too.
    @pytest.mark.parametrize(
        "key, value",
        [("granularity", "3"), ("rotation_grid", "1"), ("sigma_misspec", "1.0"), ("margin", "0.2"), ("tol_pos", "0.05"),
         ("master_seed", "1"), ("out_path", "a.csv"), ("algorithms", "spectral"), ("fixed-ground-truth", "true")],
    )
    def test_unknown_key_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            config_from_sources({key: value}, {})
        cfg_file, out = tmp_path / "cfg.txt", tmp_path / "res.csv"
        cfg_file.write_text(f"b = 2\nn = 500\ntrials = 1\n{key} = {value}\n", encoding="utf-8")
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_main_exit_codes(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main(
            [
                "--experiment", "snr_sweep", "--b", "3", "--q", "2", "--n", "800",
                "--trials", "2", "--seed", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        rc = main(["--experiment", "snr_sweep", "--trials", "0", "--out", str(out)])
        assert rc == 2

    def test_main_exit_code_2_on_out_of_range_values(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        out = tmp_path / "res.csv"
        cfg_file.write_text(
            "experiment = snr_sweep\nb = 3\nq = 2\nn = 500\ntrials = 1\n"
            "threads = 0\nsnr = -1\n",
            encoding="utf-8",
        )
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert main(["--seed", "-1", "--b", "2", "--n", "500", "--trials", "1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, monkeypatch):
        calls = []
        real_trial = harness._sampling_task

        def counting_trial(cfg, task, instance):
            calls.append(task)
            return real_trial(cfg, task, instance)

        monkeypatch.setattr(harness, "_sampling_task", counting_trial)
        out = tmp_path / "missing" / "y.csv"
        assert main(["--b", "2", "--n", "500", "--trials", "2", "--out", str(out)]) == 2
        assert calls == []

    def test_out_untouched_until_sweep_finishes(self, tmp_path, monkeypatch):
        old, fresh = tmp_path / "old.csv", tmp_path / "fresh.csv"
        old.write_text("old\n", encoding="utf-8")

        def crashing_trial(cfg, task, instance):
            assert old.read_text(encoding="utf-8") == "old\n" and not fresh.exists()
            raise RuntimeError("trial crashed")

        monkeypatch.setattr(harness, "_sampling_task", crashing_trial)
        for out in (old, fresh):
            with pytest.raises(RuntimeError):
                main(["--b", "2", "--n", "500", "--trials", "1", "--out", str(out)])
        assert old.read_text(encoding="utf-8") == "old\n" and not fresh.exists()

    def test_main_exit_code_2_on_non_finite_values(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["--snr", "nan", "--out", str(out)]) == 2
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("experiment = n_sweep\nn_grid = 1000, nan\n", encoding="utf-8")
        assert main([str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_integral_float_count_runs(self, tmp_path):
        csvs = []
        for n in ("1e4", "10000"):
            cfg_file = tmp_path / f"cfg-{n}.txt"
            out = tmp_path / f"res-{n}.csv"
            cfg_file.write_text(
                f"b = 3\nq = 2\nn = {n}\ntrials = 1\nsnr_grid = 10\nout = {out}\n",
                encoding="utf-8",
            )
            assert main([str(cfg_file)]) in (0, 3)
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_module_entry_point_loads_once(self, tmp_path):
        # runpy warns when the module it runs was already imported as a package member.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "so2mra", "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")

    def test_main_missing_config_file(self, tmp_path):
        rc = main([str(tmp_path / "nope.txt")])
        assert rc == 2

    def test_paper_scale_preset(self):
        snr_cfg = config_from_argv(["--experiment", "snr_sweep", "--paper-scale"])
        assert snr_cfg.n == 1_000_000 and snr_cfg.trials == 400
        n_cfg = config_from_argv(["--experiment", "n_sweep", "--paper-scale"])
        assert n_cfg.trials == 800
        b_cfg = config_from_argv(["--experiment", "bound_sweep", "--paper-scale"])
        assert b_cfg.trials == ExperimentConfig().trials

    def test_explicit_values_beat_paper_scale(self, tmp_path):
        cfg = config_from_argv(["--trials", "3", "--n", "1000", "--paper-scale"])
        assert (cfg.experiment, cfg.trials, cfg.n) == ("snr_sweep", 3, 1000)
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = snr_sweep\ntrials = 5\n", encoding="utf-8")
        cfg = config_from_argv([str(path), "--paper-scale"])
        assert (cfg.trials, cfg.n) == (5, 1_000_000)
        cfg = config_from_argv([str(path), "--trials", "7", "--paper-scale"])
        assert cfg.trials == 7

    def test_main_exit_code_3_on_failed_trials(self, tmp_path, monkeypatch):
        misspecify_sigma(monkeypatch)
        cfg_file = tmp_path / "cfg.txt"
        out = tmp_path / "res.csv"
        cfg_file.write_text(
            "experiment = snr_sweep\nb = 3\nq = 2\nn = 500\ntrials = 2\n"
            "snr_grid = 5.0\nseed = 1\n",
            encoding="utf-8",
        )
        rc = main([str(cfg_file), "--out", str(out)])
        assert rc == 3
        assert out.exists()  # rows are still written
