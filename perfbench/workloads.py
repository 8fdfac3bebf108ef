"""The benchmark's workloads: the sweep each one runs and the checks on its CSV.

A workload is a flat so2mra config (the keys of ``so2mra.harness.main``'s
config file) built from the benchmark seed, a tiny warm-up config of the same
experiment, and a check on the CSV the sweep writes.  Checks return a list of
failure messages; an empty list means the output is correct.  They test
properties the paper's method must have, never a stored copy of a CSV.
"""

from __future__ import annotations

import csv
import io
import math

B, Q = 10, 2
# Error-vs-SNR and error-vs-n slopes of the FM methods must be about -1; the
# spectral error has a bias floor at eta=0.1, so its slope must be about 0.
# The windows are +-0.5 wide because a slope of two medians of a few dozen
# trials scatters by ~0.1 (up to 0.13 for fm_plain at 10 trials per SNR, and
# fixed instances differ in how far n=1e3 is from the 1/n regime); the two
# windows meet at -0.5, so neither method passes the other's check.
SLOPE_WINDOW = (-1.5, -0.5)
SPECTRAL_PLATEAU_WINDOW = (-0.5, 0.5)

WORKLOADS = {
    # Moment simulation is ~95% of each trial; the thread pool is in use.
    "snr_desk": {
        "experiment": "snr_sweep",
        "b": B,
        "q": Q,
        "n": 100_000,
        "snr_grid": (1.0, 100.0, 10_000.0),
        "trials": 10,
        "threads": 2,
    },
    # Per-trial fixed cost (ground-truth draw, recoveries, error) is about
    # half of each trial; one shared instance; plain single-threaded run.
    "n_fixed_gt": {
        "experiment": "n_sweep",
        "b": B,
        "q": Q,
        "snr": 100.0,
        "n_grid": (1000, 10_000),
        "trials": 32,
        "fixed_ground_truth": True,
        "threads": 1,
    },
}

WARMUP = {
    "snr_desk": {"n": 2000, "snr_grid": (100.0,), "trials": 2},
    "n_fixed_gt": {"n_grid": (1000,), "trials": 1},
}


def config(workload: str, seed: int, out: str, warmup: bool = False) -> dict:
    values = dict(WORKLOADS[workload])
    if warmup:
        values.update(WARMUP[workload])
    values.update(seed=seed, out=out)
    return values


def config_text(values: dict) -> str:
    """Render a config in the harness's flat ``key = value`` format."""

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return ", ".join(fmt(x) for x in v)
        return str(v)

    return "".join(f"{key} = {fmt(value)}\n" for key, value in values.items())


def trials_per_pass(values: dict) -> int:
    """Trials one sweep attempts: (grid point, trial index) pairs."""
    grid = values["snr_grid"] if values["experiment"] == "snr_sweep" else values["n_grid"]
    return len(grid) * values["trials"]


def parse_csv(text: str) -> list[dict]:
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for key in ("grid_param_value", "median_error", "lower", "upper", "s_b", "bound"):
            row[key] = float(raw[key]) if raw[key] != "" else None
        row["trials"] = int(raw["trials"])
        row["failures"] = int(raw["failures"])
        rows.append(row)
    return rows


def failed_trials(rows: list[dict]) -> int:
    """Trials with at least one failed algorithm, counted per grid point.

    The CSV holds failures per (grid point, algorithm); the largest of them at
    a grid point is the fewest trials that can have failed there.
    """
    per_point: dict = {}
    for row in rows:
        key = row["grid_param_value"]
        per_point[key] = max(per_point.get(key, 0), row["failures"])
    return sum(per_point.values())


def _medians(rows: list[dict], algorithm: str) -> dict:
    return {r["grid_param_value"]: r["median_error"] for r in rows if r["algorithm"] == algorithm}


def _slope(med: dict, x_lo: float, x_hi: float) -> float:
    return math.log10(med[x_hi] / med[x_lo]) / math.log10(x_hi / x_lo)


def _within(value: float, window: tuple) -> bool:
    return window[0] <= value <= window[1]


def _no_failures(rows: list[dict]) -> list[str]:
    bad = [r for r in rows if r["failures"]]
    return [f"{len(bad)} CSV rows report failed trials"] if bad else []


def check_snr_desk(rows: list[dict]) -> list[str]:
    problems = _no_failures(rows)
    snrs = sorted(_medians(rows, "spectral"))
    lo, mid, hi = snrs[0], snrs[-2], snrs[-1]
    for algo in ("fm_plain", "fm_robust"):
        s = _slope(_medians(rows, algo), mid, hi)
        if not _within(s, SLOPE_WINDOW):
            problems.append(f"{algo} error slope {s:.3f} over SNR {mid:g}..{hi:g} outside {SLOPE_WINDOW}")
    spec = _medians(rows, "spectral")
    s = _slope(spec, mid, hi)
    if not _within(s, SPECTRAL_PLATEAU_WINDOW):
        problems.append(f"spectral error slope {s:.3f} over SNR {mid:g}..{hi:g} outside {SPECTRAL_PLATEAU_WINDOW}")
    for algo in ("fm_plain", "fm_robust"):
        if not spec[lo] < _medians(rows, algo)[lo]:
            problems.append(f"at SNR {lo:g} spectral ({spec[lo]:.3g}) does not beat {algo}")
    return problems


def check_n_fixed_gt(rows: list[dict]) -> list[str]:
    problems = _no_failures(rows)
    med = _medians(rows, "fm_robust")
    ns = sorted(med)
    s = _slope(med, ns[0], ns[-1])
    if not _within(s, SLOPE_WINDOW):
        problems.append(f"fm_robust n-slope {s:.3f} outside {SLOPE_WINDOW}")
    return problems


CHECKS = {
    "snr_desk": check_snr_desk,
    "n_fixed_gt": check_n_fixed_gt,
}


def _scaled(rows: list[dict], algorithms: tuple, factor) -> list[dict]:
    out = []
    for r in rows:
        r = dict(r)
        if r["algorithm"] in algorithms:
            r["median_error"] *= factor(r["grid_param_value"])
        out.append(r)
    return out


def corruptions(workload: str, rows: list[dict]) -> dict:
    """Corrupted copies of a correct CSV, each of which its check must reject."""
    first_failed = [dict(rows[0], failures=1)] + [dict(r) for r in rows[1:]]
    cases = {"a failed trial": first_failed}
    if workload == "snr_desk":
        cases["FM slope flipped"] = _scaled(rows, ("fm_plain", "fm_robust"), lambda x: x**2)
        cases["spectral decays as 1/SNR"] = _scaled(rows, ("spectral",), lambda x: 1.0 / x)
        lo = min(r["grid_param_value"] for r in rows)
        cases["spectral loses at low SNR"] = _scaled(
            rows, ("spectral",), lambda x: 1e6 if x == lo else 1.0
        )
    else:
        cases["n-slope flipped"] = _scaled(rows, ("fm_robust",), lambda x: x**2)
    return cases
