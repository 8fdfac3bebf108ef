"""Deterministic experiment runner with CSV output.

Three sweep types are supported: recovery error versus SNR at fixed sample
count, versus sample count at fixed SNR, and spectral error versus the
circulant distance (exact moments, swept perturbation strength) together
with the rotation-minimised theoretical bound.

Every trial derives its generators from ``(master_seed, experiment code,
grid index, trial index)``, so the CSV is a pure function of the
configuration: reruns and different thread-pool sizes produce byte-identical
output.  Failed trials are counted per row instead of aborting the sweep.
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
from .freq_march import FMOptions, fm_recover_2d
from .metrics import aggregate, recovery_error, sigma_for_snr
from .moments import MomentAccumulator, MomentPair, population_moments_2d
from .signal_model import (
    UNIFORM_DENSITY,
    FBImage,
    conjugate_noise_map,
    generate_observations,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    rotation_cdf,
)
from .spectral import (
    RANK_TOL_EMPIRICAL,
    EigOptions,
    circulant_project,
    min_bound_over_rotations,
    spectral_recover_2d,
)

ALGORITHMS = ("fm_plain", "fm_robust", "spectral")
# experiment: (code keying its trial generators, grid field, grid element type, default grid)
SWEEPS = {
    "snr_sweep": (1, "snr_grid", float, tuple(np.logspace(0.0, 4.0, 9))),
    "n_sweep": (2, "n_grid", int, tuple(int(round(v)) for v in np.logspace(3.0, 6.0, 7))),
    "bound_sweep": (3, "eta_grid", float, tuple(np.logspace(-3.0, -1.0, 20))),
}

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


# Expected numerical failures, which mark a single trial/algorithm as failed
# instead of aborting; any other exception is a bug and propagates.
_TRIAL_ERRORS = (So2MraError, np.linalg.LinAlgError)


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "text"}


def _typed(name: str, value, kind: type, element: type = str):
    """``value`` as a ``kind`` (for ``tuple``, of ``element``), or ``ConfigError``.

    Config text and Python values follow the same rules.  Integer text
    converts exactly, since a seed may exceed float precision.
    """
    if kind is tuple:
        items = [t for t in value.split(",") if t.strip()] if isinstance(value, str) else value
        try:
            return tuple(_typed(name, item, element) for item in items)
        except TypeError:
            raise ConfigError(f"{name} must be a comma list or a sequence, not {value!r}") from None
    if isinstance(value, str):
        value = value.strip()
        if kind is bool and value.lower() in ("true", "false"):
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
    """Full description of one sweep; the CSV output is a function of this."""

    experiment: str = "snr_sweep"
    b: int = 10
    q: int = 2
    n: int = 100_000
    snr: float = 100.0
    trials: int = 50
    algorithms: tuple = ALGORITHMS
    eta: float = 0.1
    margin: float = 0.2
    master_seed: int = 2024
    out_path: str = "results.csv"
    fixed_ground_truth: bool = False
    threads: int = 1
    tol_pos: float = 0.05
    rotation_grid: int = 1
    sigma_misspec: float = 1.0
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
        _code, own, element, default = SWEEPS[experiment]
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
        unknown = [a for a in cfg.algorithms if a not in ALGORITHMS]
        if unknown or not cfg.algorithms:
            raise ConfigError(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        if cfg.b < 1 or cfg.q < 1:
            raise ConfigError("need b >= 1 and q >= 1")
        if cfg.trials < 1 or cfg.n < 1 or cfg.threads < 1:
            raise ConfigError("trials, n and threads must be positive")
        if not 0.0 <= cfg.margin <= 0.5:
            raise ConfigError("margin must lie in [0, 0.5]")
        if cfg.snr <= 0 or cfg.eta < 0 or cfg.rotation_grid < 1:
            raise ConfigError("snr must be positive, eta nonnegative, rotation_grid >= 1")
        if not cfg.sigma_misspec > 0:
            raise ConfigError("sigma_misspec must be positive")
        if not 0.0 <= cfg.tol_pos < UNIFORM_DENSITY:
            raise ConfigError("tol_pos must lie in [0, 1/(2*pi))")
        return cfg


def _trial_rngs(cfg: ExperimentConfig, grid_idx: int, trial_idx: int):
    code = SWEEPS[cfg.experiment][0]
    gt_key = (0, 0) if cfg.fixed_ground_truth else (grid_idx, trial_idx)
    gt = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, code, *gt_key, 1)))
    obs = np.random.default_rng(
        np.random.SeedSequence((cfg.master_seed, code, grid_idx, trial_idx, 2))
    )
    return gt, obs


def _ground_truth(cfg: ExperimentConfig, rng: np.random.Generator):
    image = make_experiment_signal_2d(cfg.b, cfg.q, rng)
    base = make_experiment_distribution(cfg.b, rng, tol_pos=cfg.tol_pos)
    return image, base


def _fourier_sums(angles: np.ndarray, order: int) -> np.ndarray:
    """``S_m = sum_i exp(1j*m*angles_i)`` for ``m = 0..order``, by recursive powers."""
    sums = np.empty(order + 1, dtype=np.complex128)
    sums[0] = angles.size
    w = np.exp(1j * angles)
    power = w.copy()
    for m in range(1, order + 1):
        sums[m] = power.sum()
        power *= w
    return sums


def _gram_from_sums(sums: np.ndarray) -> np.ndarray:
    """``G^T G`` for the rows ``g(phi) = [1, cos phi, sin phi, ..., cos B phi, sin B phi]``.

    ``sums`` holds ``S_m`` for ``m = 0..2B``.  Column ``a`` is
    ``Re(c_a exp(1j*f_a*phi))`` (``c = 1`` for cosines, ``-1j`` for sines),
    and ``Re(u) Re(v) = Re(u v + u conj(v)) / 2`` turns every entry into
    ``Re(c_a c_b S[f_a+f_b] + c_a conj(c_b) S[f_a-f_b]) / 2``.
    """
    B = (sums.size - 1) // 2
    col = np.arange(2 * B + 1)
    freq = (col + 1) // 2
    c = np.where((col % 2 == 1) | (col == 0), 1.0, -1j)
    signed = np.concatenate([sums[:0:-1].conj(), sums])  # m = -2B..2B
    plus = signed[2 * B + freq[:, None] + freq[None, :]]
    minus = signed[2 * B + freq[:, None] - freq[None, :]]
    return 0.5 * (np.outer(c, c) * plus + np.outer(c, c.conj()) * minus).real


def _design_map(signal: FBImage) -> np.ndarray:
    """Complex ``C`` (dim x (2B+1)) with ``rotate(x, phi) = C @ g(phi)``.

    ``x[k] exp(-1j*k*phi) = x[k] cos(|k| phi) - 1j*sign(k)*x[k] sin(|k| phi)``.
    """
    k = signal.k_values
    rows = np.arange(signal.size)
    design = np.zeros((signal.size, 2 * signal.B + 1), dtype=np.complex128)
    design[rows, np.maximum(2 * np.abs(k) - 1, 0)] = signal.coeffs
    nz = k != 0
    design[rows[nz], 2 * np.abs(k[nz])] = -1j * np.sign(k[nz]) * signal.coeffs[nz]
    return design


def _bartlett_factor(dim: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^T ~ Wishart_dim(dof, I)`` (Bartlett); needs ``dof >= dim``."""
    lower = np.zeros((dim, dim))
    lower[np.diag_indices(dim)] = np.sqrt(rng.chisquare(dof - np.arange(dim)))
    lower[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    return lower


def _direct_moments(signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int) -> MomentPair:
    """Generate ``n`` observations chunk-wise and stream them into moments."""
    acc = MomentAccumulator(signal.size)
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        batch = generate_observations(signal, rho, take, sigma, rng)
        acc.update(batch.data)
        remaining -= take
    return acc.finalize(sigma)


def simulate_empirical_moments(
    signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int = 65536
) -> MomentPair:
    """Draw the empirical moments of ``n`` observations, exactly in distribution.

    Row ``i`` is ``K r_i`` with ``K = [C, sigma U]`` (``_design_map``,
    ``conjugate_noise_map``) and the real ``r_i = [g(phi_i); z_i]``,
    ``z_i ~ N(0, I_d)``.  So ``M1 = K Gamma[:, 0] / n`` (``g_0 = 1``) and
    ``M2 = K Gamma K^H / n``, which is
    ``(C G^T G C^H + sigma (C G^T Z U^H + h.c.) + sigma^2 U Z^T Z U^H) / n``,
    where ``Gamma = [G Z]^T [G Z]``.  ``G^T G`` comes from the angle Fourier
    sums, accumulated over ``chunk`` angles at a time (drawn like
    ``sample_rotations`` draws them).  Given ``G``, with ``G^T G = L L^T``
    and ``W ~ N(0, 1)^{p x d}``, ``G^T Z = L W`` and
    ``Z^T Z = W^T W + Wishart_d(n - p, I)``: ``Gamma = F F^T`` with
    ``F = [[L, 0], [W^T, Bartlett factor]]``.  When ``n < p + d`` the
    Wishart term is singular and the observations are generated and
    accumulated directly, as they are if ``G^T G`` is numerically singular.
    """
    if signal.B != rho.B:
        raise ValueError("signal and distribution bandwidths must agree")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    B, dim = signal.B, signal.size
    p = 2 * B + 1
    if n < p + dim:
        return _direct_moments(signal, rho, n, sigma, rng, chunk)
    levels, nodes = rotation_cdf(rho)
    sums = np.zeros(2 * B + 1, dtype=np.complex128)
    for start in range(0, n, chunk):
        u = rng.random(min(chunk, n - start))
        # The sums ignore the order of the angles, and sorted queries make
        # the interpolation's binary searches several times faster.
        u.sort()
        sums += _fourier_sums(np.interp(u, levels, nodes), 2 * B)
    try:
        lower = np.linalg.cholesky(_gram_from_sums(sums))
    except np.linalg.LinAlgError:
        return _direct_moments(signal, rho, n, sigma, rng, chunk)
    factor = np.zeros((p + dim, p + dim))
    factor[:p, :p] = lower
    factor[p:, :p] = rng.standard_normal((dim, p))
    factor[p:, p:] = _bartlett_factor(dim, n - p, rng)
    k_map = np.concatenate([_design_map(signal), sigma * conjugate_noise_map(signal.k_values)], axis=1)
    kf = k_map @ factor
    m2 = kf @ kf.conj().T / n
    return MomentPair(kf @ factor[0] / n, 0.5 * (m2 + m2.conj().T), sigma)


def _recover(algorithm: str, m: MomentPair, image: FBImage):
    shape = (image.B, image.radial_bandwidths)
    if algorithm == "fm_plain":
        return fm_recover_2d(m, shape, FMOptions(variant="plain"))
    if algorithm == "fm_robust":
        return fm_recover_2d(m, shape, FMOptions(variant="robust"))
    if algorithm == "spectral":
        result, _report = spectral_recover_2d(m, shape, EigOptions(rank_tol=RANK_TOL_EMPIRICAL))
        return result
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _sampling_trial(cfg: ExperimentConfig, grid_idx: int, trial_idx: int, snr_value: float, n_value: int) -> dict:
    gt_rng, obs_rng = _trial_rngs(cfg, grid_idx, trial_idx)
    errors: dict = {}
    try:
        image, base = _ground_truth(cfg, gt_rng)
        rho = perturb_distribution(base, cfg.eta)
        sigma = sigma_for_snr(image, snr_value)
        m = simulate_empirical_moments(image, rho, n_value, sigma, obs_rng)
        if cfg.sigma_misspec != 1.0:
            m = MomentPair(m.M1, m.M2, sigma * cfg.sigma_misspec)
    except _TRIAL_ERRORS:
        return {algo: None for algo in cfg.algorithms}
    for algo in cfg.algorithms:
        try:
            result = _recover(algo, m, image)
            err = recovery_error(result.signal_est, image).relative_error
            errors[algo] = None if np.isnan(err) else err
        except _TRIAL_ERRORS:
            errors[algo] = None
    return errors


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
    tasks = [(gi, ti) for gi in range(len(grid)) for ti in range(cfg.trials)]
    results: dict = {}

    def run(task):
        gi, ti = task
        snr, n = (grid[gi], cfg.n) if snr_sweep else (cfg.snr, grid[gi])
        return task, _sampling_trial(cfg, gi, ti, snr, n)

    if cfg.threads == 1:
        for task in tasks:
            key, errors = run(task)
            results[key] = errors
    else:
        with ThreadPoolExecutor(max_workers=min(cfg.threads, os.cpu_count() or 1)) as pool:
            for key, errors in pool.map(run, tasks):
                results[key] = errors

    rows = []
    for gi, value in enumerate(grid):
        for algo in cfg.algorithms:
            errs = [results[(gi, ti)][algo] for ti in range(cfg.trials)]
            good = [e for e in errs if e is not None]
            failures = cfg.trials - len(good)
            if good:
                med, lo, hi = aggregate(np.asarray(good), cfg.margin)
            else:
                med = lo = hi = float("nan")
            rows.append(_row(cfg.experiment, algo, param, value, cfg.trials, failures, med, lo, hi, None, None))
    return rows


def _bound_point(cfg: ExperimentConfig, image: FBImage, base, eta: float) -> dict:
    rho = perturb_distribution(base, eta)
    s_b = circulant_project(rho).s_b
    m = population_moments_2d(image, rho, sigma=0.0)
    shape = (image.B, image.radial_bandwidths)
    result, _ = spectral_recover_2d(m, shape, EigOptions())
    err = recovery_error(result.signal_est, image).relative_error
    _angle, report = min_bound_over_rotations(image, rho, cfg.rotation_grid, recovery=result)
    bound = report.bound if report.all_conditions_met() else None
    return _row(cfg.experiment, "spectral", "eta", eta, 1, 0, err, err, err, s_b, bound)


def _bound_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Exact-moment sweep of the perturbation strength with one fixed base draw.

    A single ground truth is used across the grid so that both the measured
    error and the bound trace monotone curves against the circulant distance.
    """
    gt_rng, _ = _trial_rngs(replace(cfg, fixed_ground_truth=True), 0, 0)
    image, base = _ground_truth(cfg, gt_rng)
    rows = []
    for eta in cfg.eta_grid:
        try:
            rows.append(_bound_point(cfg, image, base, eta))
        except _TRIAL_ERRORS:
            nan = float("nan")
            rows.append(_row(cfg.experiment, "spectral", "eta", eta, 1, 1, nan, nan, nan, None, None))
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

    Values stay text, with surrounding quotes stripped;
    ``ExperimentConfig.validated`` types them.  Lines starting with ``#``
    and blank lines are ignored.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            values[key] = text.strip().strip('"')
    return values


_KEY_ALIASES = {"out": "out_path", "seed": "master_seed", "algos": "algorithms"}


def config_from_sources(*sources: dict) -> ExperimentConfig:
    """Merge configuration layers, lowest priority first, into a validated config."""
    allowed = {f.name for f in fields(ExperimentConfig)}
    merged = {}
    for source in sources:
        for key, value in source.items():
            key = _KEY_ALIASES.get(key, key)
            if key not in allowed:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
    return ExperimentConfig(**merged).validated()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so2mra",
        description="Run a rotational-alignment recovery sweep and write a CSV.",
    )
    parser.add_argument("config", nargs="?", help="flat key=value configuration file")
    parser.add_argument("--experiment", help=", ".join(SWEEPS))
    parser.add_argument("--b")
    parser.add_argument("--q")
    parser.add_argument("--n")
    parser.add_argument("--snr")
    parser.add_argument("--trials")
    parser.add_argument("--eta")
    parser.add_argument("--algos", dest="algorithms")
    parser.add_argument("--seed", dest="master_seed")
    parser.add_argument("--out", dest="out_path")
    parser.add_argument("--fixed-ground-truth", dest="fixed_ground_truth", action="store_true", default=None)
    parser.add_argument("--threads")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full-scale preset (n=1e6; 400 trials for the SNR sweep, 800 for the n sweep)"
        " for every value the config file and the flags leave unset",
    )
    return parser


def _paper_scale_preset(experiment: str) -> dict:
    """Full-scale preset: n=1e6 observations; 400/800 trials per sweep type."""
    if experiment == "snr_sweep":
        return {"n": 1_000_000, "trials": 400}
    if experiment == "n_sweep":
        return {"trials": 800}
    return {}


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
    return config_from_sources(_paper_scale_preset(cfg.experiment), file_values, cli_values)


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv)
        rows = run_experiment(cfg)
        write_csv(rows, cfg.out_path)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    failures = sum(int(row["failures"]) for row in rows)
    print(f"wrote {cfg.out_path}: {len(rows)} rows, {failures} failed trials")
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
