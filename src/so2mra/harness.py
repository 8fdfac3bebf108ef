"""Deterministic experiment runner with CSV output.

Three sweep types are supported: recovery error versus SNR at fixed sample
count, versus sample count at fixed SNR, and spectral error versus the
circulant distance (exact moments, swept perturbation strength) together
with the theoretical bound at the unrotated distribution.

Every trial derives its generators from ``(seed, experiment code,
grid index, trial index)``, so the CSV is a pure function of the
configuration: reruns and different thread-pool sizes produce byte-identical
output.  An SNR-sweep trial ``t`` covers the whole SNR grid: it draws its
instance and the Gram factor of its ``n`` observations once, at grid index
0, and forms the moments at every SNR from that factor, since the SNR sets
only the noise level of the observation map.  Each (SNR, trial) cell keeps
the law of an independent draw, because it equals
``simulate_empirical_moments`` on trial ``t``'s generator; only the cells
of one trial are dependent (common random numbers), which makes the
error-versus-SNR slopes far less noisy.  A sweep on one fixed ground truth
draws it once, from trial ``(0, 0)``'s generator.  Failed trials are
counted per row instead of aborting the sweep.  Only a ``So2MraError``
fails a trial; any other exception is a bug and aborts the sweep.  The
instance draw (``_instance``) owns sampleability: it builds the
distribution's ``sampler``, which refuses a density that cannot be
sampled, so an instance that cannot be drawn or sampled fails its trial at
every SNR and never reaches the simulator, and a fixed instance that fails
fails every trial of the sweep, which then simulates nothing.

A task is a few trials that share ``n``: as many as keep its stack of
``(d, d)`` second moments within ``_STACK_BYTES``, at least one, with
the trials split evenly between tasks.  A grid point's trials form at
least as many tasks as the sweep has workers, so that none idles, unless
there are fewer trials.  Every sweep runs its tasks in a thread pool of
that many workers (the ``threads`` setting, capped at the core count), a
pool of one thread included: one execution path at every thread
count.  The task simulates its trials as one stack
(``moments._simulate_stack``): one stacked Cholesky for their Gram
matrices, one factor stack and one angle-sum scratch, each trial drawing
from its own generators, so a cell has the bits of
``simulate_empirical_moments`` on its trial's generator, and no thread
keeps state from one task to the next.  Its (trial, SNR) cells form one
stack, and each algorithm recovers and scores the whole stack in one
call to its stacked core; the public one-pair functions are those cores
on one cell.  A core raises no expected failure: it returns each cell's
failure beside the passing cells' estimates, so a failure stays with its
cell and only the passing cells are scored.  A task returns its cells'
errors keyed by (grid index, trial index), and the sweep merges them.  A
cell's result does not depend on the stack it is in, bit for bit, so
neither the grouping nor the thread count changes the CSV.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, So2MraError
from .freq_march import FMOptions, _fm_estimates
from .metrics import _alignment_errors, aggregate, recovery_error, sigma_for_snr
from .moments import (
    _check_pairs,
    _debias_in_place,
    _simulate_stack,
    population_moments_2d,
    simulate_empirical_moments,  # noqa: F401  (perfbench/tracing.py imports it from here; ROADMAP 9f)
)
from .signal_model import (
    FBImage,
    _check_finite,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
)
from .spectral import (
    RANK_TOL_EMPIRICAL,
    EigOptions,
    _spectral_estimates,
    davis_kahan_bound_2d,
    spectral_recover_2d,
)

# Each sweep algorithm on a stack of debiased moments, ``(S, d)`` first and
# ``(S, d, d)`` second, and the image shape: the passing cells' image
# estimates, each cell's failure (``None`` where it passed) and the passing
# cells' diagnostics, a dict of arrays with one row per passing cell, named
# as the one-pair recoveries name them: ``rho``, ``min_abs_m1``, ``tol_m1``
# and ``residuals`` for FM; ``eigenvalues``, ``count``, ``kappa``, ``gap`` and
# ``x_tilde`` for spectral.  The lambdas look the stacked cores up when
# called, so a patched module attribute (a test's stand-in) is what a sweep
# runs.
_RECOVERIES = {
    "fm_plain": lambda m1, m2, shape: _fm_estimates(m1, m2, shape, FMOptions(variant="plain")),
    "fm_robust": lambda m1, m2, shape: _fm_estimates(m1, m2, shape, FMOptions(variant="robust")),
    "spectral": lambda m1, m2, shape: _spectral_estimates(m1, m2, shape, RANK_TOL_EMPIRICAL),
}
ALGORITHMS = tuple(_RECOVERIES)
# experiment: (code keying its trial generators, grid field, grid element type,
# default grid, --paper-scale preset)
SWEEPS = {
    "snr_sweep": (1, "snr_grid", float, tuple(np.logspace(0.0, 4.0, 9)), {"n": 1_000_000, "trials": 400}),
    "n_sweep": (2, "n_grid", int, tuple(int(round(v)) for v in np.logspace(3.0, 6.0, 7)), {"trials": 800}),
    "bound_sweep": (3, "eta_grid", float, tuple(np.logspace(-3.0, -1.0, 20)), {}),
}
# Positivity floor of every base distribution the sweeps draw, so that the
# phase-twist perturbation keeps the density nonnegative.  An instance whose
# perturbed density still dips below zero cannot be sampled: its trials fail.
TOL_POS = 0.05

CSV_COLUMNS = (
    "experiment",
    "algorithm",
    "grid_param_name",
    "grid_param_value",
    "trials",
    "failures",
    "median_error",
    "lower",
    "upper",
    "s_b",
    "bound",
)


def _row(*cells) -> dict:
    """A CSV row from its cells, given in ``CSV_COLUMNS`` order."""
    return dict(zip(CSV_COLUMNS, cells, strict=True))


# Largest size in bytes of one task's stack of complex (d, d) second moments.
# A sampling task takes as many trials as fit, and at least one: 18 cells at
# B = 10, Q = 2 (d = 42); an n-sweep task holds one trial above d = 181.
# While it simulates, a task holds this stack, its first moments and the
# real (p + d, p + d) factor of each trial (p = 2B + 1), about 0.57 MB for
# 18 trials at B = 10, Q = 2, and one trial's rotation distribution at a
# time unless the sweep has one fixed instance; while it recovers, the
# stacked cores hold up to about four arrays of the stack's size at once,
# per worker.  Each stacked call has a fixed Python cost, which a bigger stack
# spreads over more cells.  Against 128 KiB, this budget ran the benchmark's
# SNR sweep at 1.17 times the trials per second and its fixed-instance n
# sweep at 1.25 times, for 1.1-1.3 MB more peak RSS; 256 KiB gave 64-92% of
# the CPU saving, and 1 MiB ran no faster than this budget and took a
# further 1.9 MB of RSS on the n sweep (2 vCPUs; BENCH_26.json).
_STACK_BYTES = 1 << 19


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "text"}


def _typed(name: str, value, kind: type, element: type = str):
    """``value`` as a ``kind`` (for ``tuple``, of ``element``), or ``ConfigError``.

    Config text and Python values follow the same rules.  Integer text
    converts exactly, since a seed may exceed float precision.
    """
    if kind is tuple:
        items = [t for t in map(str.strip, value.split(",")) if t] if isinstance(value, str) else value
        try:
            return tuple(_typed(name, item, element) for item in items)
        except TypeError:
            raise ConfigError(f"{name} must be a comma list or a sequence, not {value!r}") from None
    if kind is bool and isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        if kind is int and isinstance(value, (str, int, np.integer)):
            with suppress(ValueError):
                return int(value)
        with suppress(TypeError, ValueError, OverflowError):
            number = float(value)
            if kind is float and np.isfinite(number):
                return number
            if kind is int and number.is_integer():
                return int(number)
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, not {value!r}")


@dataclass
class ExperimentConfig:
    """Full description of one sweep; the CSV output is a function of this.

    The field names are the settings' only names: the keys of a config file
    and of ``config_from_sources``' dicts, and the flags of ``main`` (the
    grids are set in a file only).  Every field is validated, but
    ``snr_sweep`` ignores ``snr``, ``n_sweep`` ignores ``n``, and the bound
    sweep reads only ``b``, ``q``, ``seed``, ``eta_grid`` and ``out``.
    """

    experiment: str = "snr_sweep"
    b: int = 10
    q: int = 2
    n: int = 100_000
    snr: float = 100.0
    trials: int = 50
    algos: tuple = ALGORITHMS
    eta: float = 0.1
    seed: int = 2024
    out: str = "results.csv"
    fixed_ground_truth: bool = False
    threads: int = 1
    snr_grid: tuple | None = None
    n_grid: tuple | None = None
    eta_grid: tuple | None = None

    def validated(self) -> "ExperimentConfig":
        """A range-checked copy, each value converted to the type of its field's default.

        The grids default to ``None``: only the experiment's own may be set.
        """
        experiment = _typed("experiment", self.experiment, str)
        if experiment not in SWEEPS:
            raise ConfigError(f"unknown experiment {experiment!r}")
        _code, own, element, default, _preset = SWEEPS[experiment]
        values = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is not None:
                values[f.name] = _typed(f.name, value, type(f.default))
            elif f.name == own:
                values[f.name] = _typed(f.name, default if value is None else value, tuple, element)
            elif value is not None:
                raise ConfigError(f"{f.name} does not belong to experiment {experiment}")
        cfg = replace(self, **values)
        if len(values[own]) == 0:
            raise ConfigError(f"{own} must not be empty")
        if any(v <= 0 for v in values[own]):
            raise ConfigError(f"{own} values must be positive")
        names = set(cfg.algos)
        if not names or not names <= set(ALGORITHMS) or len(names) < len(cfg.algos):
            raise ConfigError(f"algos must name one or more of {ALGORITHMS}, each once")
        if cfg.b < 1 or cfg.q < 1:
            raise ConfigError("need b >= 1 and q >= 1")
        if cfg.trials < 1 or cfg.n < 1 or cfg.threads < 1:
            raise ConfigError("trials, n and threads must be positive")
        if cfg.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if cfg.snr <= 0 or cfg.eta < 0:
            raise ConfigError("snr must be positive and eta nonnegative")
        return cfg


def _trial_rng(cfg: ExperimentConfig, grid_idx: int, trial_idx: int, stream: int) -> np.random.Generator:
    """Generator of trial ``(grid_idx, trial_idx)``'s ground truth (stream 1) or observations (stream 2).

    An SNR sweep keys trial ``t`` at ``(0, t)`` and reuses both streams'
    draws, the instance and the Gram factor, at every SNR.  Each cell keeps
    its law, since its moments are ``simulate_empirical_moments`` on the
    stream-2 generator; only the SNRs of one trial share draws.
    """
    code = SWEEPS[cfg.experiment][0]
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, code, grid_idx, trial_idx, stream)))


def _ground_truth(cfg: ExperimentConfig, grid_idx: int, trial_idx: int):
    """Trial ``(grid_idx, trial_idx)``'s image and base distribution.

    A sweep on one fixed instance draws trial ``(0, 0)``'s, once.
    """
    rng = _trial_rng(cfg, grid_idx, trial_idx, 1)
    image = make_experiment_signal_2d(cfg.b, cfg.q, rng)
    base = make_experiment_distribution(cfg.b, rng, tol_pos=TOL_POS)
    return image, base


def _instance(cfg: ExperimentConfig, grid_idx: int, trial_idx: int):
    """Trial ``(grid_idx, trial_idx)``'s image and its perturbed rotation distribution.

    A distribution that cannot be sampled is refused here, by
    ``rho.sampler``'s ``NotSampleableError``, so every instance a sweep
    hands to the simulator can be sampled; the lookup built here is the
    one the simulator draws its angles with.
    """
    image, base = _ground_truth(cfg, grid_idx, trial_idx)
    rho = perturb_distribution(base, cfg.eta)
    rho.sampler
    return image, rho


def _sampling_task(cfg: ExperimentConfig, task: tuple, instance) -> dict:
    """Each algorithm's relative error on each cell of ``task``, ``None`` where it failed.

    ``task`` is ``(key grid index, trial indices, n, (grid index, SNR) points)``.
    ``instance`` is the sweep's fixed ``(image, rho)``; with ``None`` each
    trial draws its own, as the simulator reaches it, so that its
    distribution is freed once its angles are drawn.  The trials are
    simulated as one stack (``_simulate_stack``): each draws one Gram
    factor for ``n`` observations from its stream-2 generator and forms the
    moments at every point from it.  A trial whose instance draw fails
    (``_instance``) fails at every point and is not handed to the
    simulator.  The cells of the trials handed form one stack, which each
    algorithm recovers and scores in one call (``_cell_errors``).  Returns
    ``{(grid index, trial index): {algorithm: error or None}}`` for every
    cell of the task.
    """
    key_gi, trial_idxs, n_value, points = task
    errors = {(gi, ti): dict.fromkeys(cfg.algos) for ti in trial_idxs for gi, _snr in points}
    handed = []  # (trial index, image, noise levels) of each trial handed to the simulator

    def trials():
        for ti in trial_idxs:
            try:
                image, rho = _instance(cfg, key_gi, ti) if instance is None else instance
            except So2MraError:
                continue
            sigmas = [sigma_for_snr(image, snr) for _gi, snr in points]
            handed.append((ti, image, sigmas))
            yield image, rho, _trial_rng(cfg, key_gi, ti, 2), sigmas

    m1, m2 = _simulate_stack(trials(), n_value)
    if not handed:
        return errors
    cells = [(gi, ti) for ti, _image, _sigmas in handed for gi, _snr in points]
    sigmas = [sigma for *_, trial_sigmas in handed for sigma in trial_sigmas]
    truths = np.array([image.coeffs for _ti, image, _sigmas in handed for _point in points])
    _check_pairs(m1, m2, np.array(sigmas))
    _debias_in_place(m2, sigmas)
    image = handed[0][1]
    shape = (image.B, image.radial_bandwidths)
    for algo in cfg.algos:
        scores = _cell_errors(_RECOVERIES[algo], m1, m2, truths, shape, image.k_values)
        for cell, err in zip(cells, scores, strict=True):
            errors[cell][algo] = err
    return errors


def _cell_errors(recover, m1, m2, truths, shape, k_values) -> list:
    """One algorithm's relative error on each cell of a stack, ``None`` where the cell failed.

    The algorithm runs once on the whole stack and returns the passing
    cells' estimates, each cell's failure and the passing cells'
    diagnostics, which are dropped here; only the passing cells are
    scored.  This is where the sweep checks every algorithm's estimates: a
    non-finite one is a programming error, a ``ValueError`` that aborts the
    sweep, as the value types of the public recoveries refuse it.
    """
    estimates, failures, _diagnostics = recover(m1, m2, shape)
    _check_finite(estimates, "image coefficients")
    passed = [failure is None for failure in failures]
    scores = iter(_alignment_errors(estimates, truths[passed], k_values)[0])
    return [next(scores) if ok else None for ok in passed]


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _run_sampling_sweep(cfg: ExperimentConfig) -> list[dict]:
    snr_sweep = cfg.experiment == "snr_sweep"
    grid, param = (cfg.snr_grid, "snr") if snr_sweep else (cfg.n_grid, "n")
    # A task is the grid index of its generator keys, its trial indices, n,
    # and its (grid index, SNR) points; its cells, trials x points, form one
    # stack.  The trials are split evenly between the fewest groups that
    # keep each stack within the budget and number at least the workers (so
    # none idles), but never more groups than trials.  An SNR sweep's trial
    # covers every SNR; an n sweep's covers one point.
    workers = min(cfg.threads, os.cpu_count() or 1)
    dim = (2 * cfg.b + 1) * cfg.q
    per_task = max(1, _STACK_BYTES // ((len(grid) if snr_sweep else 1) * 16 * dim * dim))
    count = max(-(-cfg.trials // per_task), min(cfg.trials, workers))
    groups = [tuple(g.tolist()) for g in np.array_split(np.arange(cfg.trials), count)]
    if snr_sweep:
        tasks = [(0, tis, cfg.n, tuple(enumerate(grid))) for tis in groups]
    else:
        tasks = [(gi, tis, n, ((gi, cfg.snr),)) for gi, n in enumerate(grid) for tis in groups]

    try:
        fixed = _instance(cfg, 0, 0) if cfg.fixed_ground_truth else None
    except So2MraError:
        # Every trial would have drawn this failing instance.
        errors = {(gi, ti): dict.fromkeys(cfg.algos) for gi in range(len(grid)) for ti in range(cfg.trials)}
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(functools.partial(_sampling_task, cfg, instance=fixed), tasks))
        errors = {cell: errs for outcome in outcomes for cell, errs in outcome.items()}

    rows = []
    for gi, value in enumerate(grid):
        for algo in cfg.algos:
            errs = [errors[gi, ti][algo] for ti in range(cfg.trials)]
            good = [e for e in errs if e is not None]
            failures = cfg.trials - len(good)
            if good:
                med, lo, hi = aggregate(np.asarray(good))
            else:
                med = lo = hi = float("nan")
            rows.append(_row(cfg.experiment, algo, param, value, cfg.trials, failures, med, lo, hi, None, None))
    return rows


def _bound_point(cfg: ExperimentConfig, image: FBImage, base, eta: float) -> dict:
    rho = perturb_distribution(base, eta)
    m = population_moments_2d(image, rho, sigma=0.0)
    shape = (image.B, image.radial_bandwidths)
    result, _ = spectral_recover_2d(m, shape, EigOptions())
    err = recovery_error(result.signal_est, image).relative_error
    report = davis_kahan_bound_2d(image, rho, recovery=result)
    bound = report.bound if report.all_conditions_met() else None
    return _row(cfg.experiment, "spectral", "eta", eta, 1, 0, err, err, err, report.s_b, bound)


def _bound_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Exact-moment sweep of the perturbation strength with one fixed base draw.

    A single ground truth is used across the grid so that both the measured
    error and the bound trace monotone curves against the circulant distance.
    """

    def failed(eta: float) -> dict:
        nan = float("nan")
        return _row(cfg.experiment, "spectral", "eta", eta, 1, 1, nan, nan, nan, None, None)

    try:
        image, base = _ground_truth(cfg, 0, 0)
    except So2MraError:
        # Every eta point would have used this failing draw.
        return [failed(eta) for eta in cfg.eta_grid]
    rows = []
    for eta in cfg.eta_grid:
        # A LAPACK failure fails its point too: spectral_recover_2d raises
        # its cell's, and the bound calls eigvalsh.
        try:
            rows.append(_bound_point(cfg, image, base, eta))
        except (So2MraError, np.linalg.LinAlgError):
            rows.append(failed(eta))
    return rows


# (get, set) thread-count entry points of the OpenBLAS in numpy wheels:
# numpy >= 2.0 first, then numpy 1.22-1.26.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.lru_cache(maxsize=None)
def _openblas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of the OpenBLAS bundled with numpy.

    Empty when numpy's wheel bundles no OpenBLAS (e.g. a system or MKL build).
    """
    package = Path(np.__file__).resolve().parent
    libs = sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")])
    controls = []
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                controls.append((getattr(lib, get_name), getattr(lib, set_name)))
                break
    return tuple(controls)


@contextmanager
def _serial_blas():
    """Run numpy's OpenBLAS on one thread inside the block, then restore its count.

    A trial's matrices are tiny (d x (2B+1+d) at most), so BLAS threads add
    wake-up latency instead of speed, and their spinning workers occupy a
    second core: with a busy neighbour on that core an ``n_fixed_gt`` sweep
    ran at half speed.  Sweeps parallelise over trials with their own pool.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _set in controls]
    for _get, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_get, set_threads), count in zip(controls, saved):
            set_threads(count)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    cfg = cfg.validated()
    runner = {
        "snr_sweep": _run_sampling_sweep,
        "n_sweep": _run_sampling_sweep,
        "bound_sweep": _bound_sweep,
    }[cfg.experiment]
    with _serial_blas():
        return runner(cfg)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` configuration file into ``{key: text}``.

    The file must be UTF-8 text, with or without a byte-order mark.  Values
    stay text, with one matching pair of surrounding ``"`` or ``'`` quotes
    stripped (a quote without its match at the other end is an error);
    ``ExperimentConfig.validated`` types them.
    Spaces around a key or an unquoted value are stripped here, and nowhere
    else: a quoted value keeps the spaces inside its quotes.  A ``#`` starts
    a comment that runs to the end of its line, wherever it stands, so no
    value can contain one: ``out = run#1.csv`` sets ``out`` to ``run``.
    Lines left blank are ignored.  A key set twice is an error that names
    both lines.
    """
    try:
        content = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(content.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if {text[:1], text[-1:]} & {'"', "'"}:
            if len(text) < 2 or text[0] != text[-1]:
                raise ConfigError(f"{path}:{lineno}: unmatched quote in {text!r}")
            text = text[1:-1]
        if key in lines:
            raise ConfigError(f"{path}: lines {lines[key]} and {lineno} both set {key}")
        lines[key], values[key] = lineno, text
    return values


def config_from_sources(*sources: dict) -> ExperimentConfig:
    """Merge configuration layers, lowest priority first, into a validated config.

    Each key must be an ``ExperimentConfig`` field name.
    """
    merged = {key: value for source in sources for key, value in source.items()}
    allowed = {f.name for f in fields(ExperimentConfig)}
    for key in merged:
        if key not in allowed:
            raise ConfigError(f"unknown configuration key {key!r}")
    return ExperimentConfig(**merged).validated()


def _build_parser() -> argparse.ArgumentParser:
    """One flag per field with a default, ``--<name>`` with ``-`` for ``_``; the grids are file-only."""
    parser = argparse.ArgumentParser(
        prog="so2mra",
        description="Run a rotational-alignment recovery sweep and write a CSV.",
    )
    parser.add_argument("config", nargs="?", help="flat key=value configuration file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", default=None)
        elif f.default is not None:
            parser.add_argument(flag, help=", ".join(SWEEPS) if f.name == "experiment" else None)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full-scale preset (n=1e6; 400 trials for the SNR sweep, 800 for the n sweep)"
        " for every value the config file and the flags leave unset",
    )
    return parser


def config_from_argv(argv=None) -> ExperimentConfig:
    """Validated config from the command line.

    Layers, lowest priority first: the ``--paper-scale`` preset, the config
    file, the flags.  The preset depends on the experiment, which the file
    and the flags choose.
    """
    args = _build_parser().parse_args(argv)
    file_values = load_config_file(args.config) if args.config else {}
    cli_values = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config", "paper_scale") and value is not None
    }
    cfg = config_from_sources(file_values, cli_values)
    if not args.paper_scale:
        return cfg
    return config_from_sources(SWEEPS[cfg.experiment][4], file_values, cli_values)


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv)
        # Fail on an unwritable path before the sweep; an old CSV stays until it ends.
        existed = os.path.exists(cfg.out)
        open(cfg.out, "a", encoding="utf-8").close()
        if not existed:
            os.remove(cfg.out)
        rows = run_experiment(cfg)
        write_csv(rows, cfg.out)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # A row counts its grid point's trials that failed in its algorithm, so
    # the sums count (trial, algorithm) results, not trials.
    failures = sum(int(row["failures"]) for row in rows)
    results = sum(int(row["trials"]) for row in rows)
    print(f"wrote {cfg.out}: {len(rows)} rows, {failures} of {results} (trial, algorithm) results failed")
    return 3 if failures else 0
