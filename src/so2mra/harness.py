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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, So2MraError
from .freq_march import FMOptions, fm_recover_2d
from .metrics import aggregate, recovery_error, sigma_for_snr
from .moments import MomentAccumulator, MomentPair, population_moments_2d
from .signal_model import (
    UNIFORM_DENSITY,
    FBImage,
    generate_observations,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
)
from .spectral import (
    EigOptions,
    circulant_project,
    min_bound_over_rotations,
    spectral_recover_2d,
)

EXPERIMENTS = ("snr_sweep", "n_sweep", "bound_sweep")
ALGORITHMS = ("fm_plain", "fm_robust", "spectral")
_EXPERIMENT_CODE = {"snr_sweep": 1, "n_sweep": 2, "bound_sweep": 3}

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

# Expected numerical failures, which mark a single trial/algorithm as failed
# instead of aborting; any other exception is a bug and propagates.
_TRIAL_ERRORS = (So2MraError, np.linalg.LinAlgError)


def _default_snr_grid() -> tuple:
    return tuple(np.logspace(0.0, 4.0, 9))


def _default_n_grid() -> tuple:
    return tuple(int(round(v)) for v in np.logspace(3.0, 6.0, 7))


def _default_eta_grid() -> tuple:
    return tuple(np.logspace(-3.0, -1.0, 20))


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
    rank_tol: float = 1e-3
    rotation_grid: int = 1
    sigma_misspec: float = 1.0
    chunk: int = 65536
    snr_grid: tuple | None = None
    n_grid: tuple | None = None
    eta_grid: tuple | None = None

    def validated(self) -> "ExperimentConfig":
        cfg = replace(self)
        if cfg.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {cfg.experiment!r}")
        grids = {"snr_sweep": "snr_grid", "n_sweep": "n_grid", "bound_sweep": "eta_grid"}
        own = grids[cfg.experiment]
        for name in grids.values():
            value = getattr(cfg, name)
            if name != own and value is not None:
                raise ConfigError(f"{name} does not belong to experiment {cfg.experiment}")
        if getattr(cfg, own) is None:
            defaults = {
                "snr_grid": _default_snr_grid,
                "n_grid": _default_n_grid,
                "eta_grid": _default_eta_grid,
            }
            setattr(cfg, own, defaults[own]())
        grid = tuple(getattr(cfg, own))
        if len(grid) == 0:
            raise ConfigError(f"{own} must not be empty")
        if own == "n_grid":
            grid = tuple(int(v) for v in grid)
            if any(v < 1 for v in grid):
                raise ConfigError("sample counts must be positive")
        else:
            grid = tuple(float(v) for v in grid)
            if any(v <= 0 for v in grid):
                raise ConfigError("grid values must be positive")
        setattr(cfg, own, grid)
        cfg.algorithms = tuple(cfg.algorithms)
        unknown = [a for a in cfg.algorithms if a not in ALGORITHMS]
        if unknown or not cfg.algorithms:
            raise ConfigError(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        if cfg.b < 1 or cfg.q < 1:
            raise ConfigError("need b >= 1 and q >= 1")
        if cfg.trials < 1 or cfg.n < 1 or cfg.threads < 1 or cfg.chunk < 1:
            raise ConfigError("trials, n, threads and chunk must be positive")
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
    code = _EXPERIMENT_CODE[cfg.experiment]
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


def simulate_empirical_moments(
    signal, rho, n: int, sigma: float, rng: np.random.Generator, chunk: int = 65536
) -> MomentPair:
    """Generate ``n`` observations chunk-wise and stream them into moments."""
    acc = MomentAccumulator(signal.size)
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        batch = generate_observations(signal, rho, take, sigma, rng)
        acc.update(batch.data)
        remaining -= take
    return acc.finalize(sigma)


def _recover(algorithm: str, m: MomentPair, image: FBImage, rank_tol: float):
    shape = (image.B, image.radial_bandwidths)
    if algorithm == "fm_plain":
        return fm_recover_2d(m, shape, FMOptions(variant="plain"))
    if algorithm == "fm_robust":
        return fm_recover_2d(m, shape, FMOptions(variant="robust"))
    if algorithm == "spectral":
        result, _report = spectral_recover_2d(m, shape, EigOptions(rank_tol=rank_tol))
        return result
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _sampling_trial(cfg: ExperimentConfig, grid_idx: int, trial_idx: int, snr_value: float, n_value: int) -> dict:
    gt_rng, obs_rng = _trial_rngs(cfg, grid_idx, trial_idx)
    errors: dict = {}
    try:
        image, base = _ground_truth(cfg, gt_rng)
        rho = perturb_distribution(base, cfg.eta)
        sigma = sigma_for_snr(image, snr_value)
        m = simulate_empirical_moments(image, rho, n_value, sigma, obs_rng, cfg.chunk)
        if cfg.sigma_misspec != 1.0:
            m = MomentPair(m.M1, m.M2, sigma * cfg.sigma_misspec, debiased=False)
    except _TRIAL_ERRORS:
        return {algo: None for algo in cfg.algorithms}
    for algo in cfg.algorithms:
        try:
            result = _recover(algo, m, image, cfg.rank_tol)
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
    if cfg.experiment == "snr_sweep":
        grid = cfg.snr_grid
        param = "snr"
        snr_of = lambda v: float(v)
        n_of = lambda v: cfg.n
    else:
        grid = cfg.n_grid
        param = "n"
        snr_of = lambda v: cfg.snr
        n_of = lambda v: int(v)

    tasks = [(gi, ti) for gi in range(len(grid)) for ti in range(cfg.trials)]
    results: dict = {}

    def run(task):
        gi, ti = task
        value = grid[gi]
        return task, _sampling_trial(cfg, gi, ti, snr_of(value), n_of(value))

    if cfg.threads == 1:
        for task in tasks:
            key, errors = run(task)
            results[key] = errors
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
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
            rows.append(
                {
                    "experiment": cfg.experiment,
                    "algorithm": algo,
                    "grid_param_name": param,
                    "grid_param_value": value,
                    "trials": cfg.trials,
                    "failures": failures,
                    "median_error": med,
                    "lower": lo,
                    "upper": hi,
                    "s_b": None,
                    "bound": None,
                }
            )
    return rows


def _bound_point(cfg: ExperimentConfig, image: FBImage, base, eta: float) -> dict:
    rho = perturb_distribution(base, eta)
    s_b = circulant_project(rho).s_b
    m = population_moments_2d(image, rho, sigma=0.0)
    shape = (image.B, image.radial_bandwidths)
    result, _ = spectral_recover_2d(m, shape, EigOptions())
    err = recovery_error(result.signal_est, image).relative_error
    _angle, report = min_bound_over_rotations(image, rho, cfg.rotation_grid, recovery=result)
    bound = report.bound if report is not None and report.all_conditions_met() else None
    return {
        "experiment": cfg.experiment,
        "algorithm": "spectral",
        "grid_param_name": "eta",
        "grid_param_value": eta,
        "trials": 1,
        "failures": 0,
        "median_error": err,
        "lower": err,
        "upper": err,
        "s_b": s_b,
        "bound": bound,
    }


def _bound_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Exact-moment sweep of the perturbation strength with one fixed base draw.

    A single ground truth is used across the grid so that both the measured
    error and the bound trace monotone curves against the circulant distance.
    """
    gt_rng, _ = _trial_rngs(replace(cfg, fixed_ground_truth=True), 0, 0)
    image, base = _ground_truth(cfg, gt_rng)
    rows = []
    for gi, eta in enumerate(cfg.eta_grid):
        try:
            rows.append(_bound_point(cfg, image, base, float(eta)))
        except _TRIAL_ERRORS:
            rows.append(
                {
                    "experiment": cfg.experiment,
                    "algorithm": "spectral",
                    "grid_param_name": "eta",
                    "grid_param_value": float(eta),
                    "trials": 1,
                    "failures": 1,
                    "median_error": float("nan"),
                    "lower": float("nan"),
                    "upper": float("nan"),
                    "s_b": None,
                    "bound": None,
                }
            )
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    cfg = cfg.validated()
    runner = {
        "snr_sweep": _run_sampling_sweep,
        "n_sweep": _run_sampling_sweep,
        "bound_sweep": _bound_sweep,
    }[cfg.experiment]
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
    """Parse a flat ``key = value`` configuration file.

    Comma-separated values become tuples; ``true``/``false`` become booleans;
    numeric-looking tokens become int or float.  Lines starting with ``#``
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
            values[key] = _parse_value(text.strip())
    return values


def _parse_scalar(token: str):
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_value(text: str):
    text = text.strip().strip('"')
    if "," in text:
        return tuple(_parse_scalar(t.strip()) for t in text.split(",") if t.strip())
    return _parse_scalar(text)


_KEY_ALIASES = {"out": "out_path", "seed": "master_seed", "algos": "algorithms"}


def config_from_sources(*sources: dict) -> ExperimentConfig:
    """Merge configuration layers, lowest priority first, into a config."""
    allowed = {f.name for f in fields(ExperimentConfig)}
    merged = {}
    for source in sources:
        for key, value in source.items():
            key = _KEY_ALIASES.get(key, key)
            if key not in allowed:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
    for key in ("algorithms",):
        if key in merged and isinstance(merged[key], str):
            merged[key] = tuple(t.strip() for t in merged[key].split(",") if t.strip())
    for key in ("snr_grid", "n_grid", "eta_grid"):
        if key in merged and np.isscalar(merged[key]):
            merged[key] = (merged[key],)
    return ExperimentConfig(**merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so2mra",
        description="Run a rotational-alignment recovery sweep and write a CSV.",
    )
    parser.add_argument("config", nargs="?", help="flat key=value configuration file")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--b", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--snr", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--algos", dest="algorithms")
    parser.add_argument("--seed", dest="master_seed", type=int)
    parser.add_argument("--out", dest="out_path")
    parser.add_argument("--fixed-ground-truth", dest="fixed_ground_truth", action="store_true", default=None)
    parser.add_argument("--threads", type=int)
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
    if args.paper_scale:
        cfg = config_from_sources(_paper_scale_preset(cfg.experiment), file_values, cli_values)
    return cfg.validated()


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
