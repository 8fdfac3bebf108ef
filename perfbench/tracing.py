"""The serial traced run: spans around each layer call, and the layer metrics.

Spans are recorded here, in the benchmark, around calls into so2mra's public
functions, in the order the harness makes them.  A span holds its name
(``<module>.<function>``), start and end (``perf_counter_ns``), its parent
span and the trial it belongs to.  Spans are kept in memory and written out
once at the end.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import Counter

import numpy as np

from so2mra.errors import So2MraError
from so2mra.freq_march import FMOptions, fm_recover_2d
from so2mra.harness import simulate_empirical_moments
from so2mra.metrics import recovery_error, sigma_for_snr
from so2mra.moments import MomentAccumulator, population_moments_2d
from so2mra.signal_model import (
    generate_observations,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    sample_rotations,
)
from so2mra.spectral import (
    EigOptions,
    circulant_project,
    davis_kahan_bound_2d,
    min_bound_over_rotations,
    spectral_recover_2d,
)

import reference

LAYERS = ("signal_model", "moments", "freq_march", "spectral", "metrics", "harness")
# Harness defaults the workloads keep.
CHUNK = 65536
TOL_POS = 0.05
ETA = 0.1
RANK_TOL = 1e-3
# The reference instance: one harness-sized trial at B=10, Q=2.  SNR=1 puts
# as much weight on the noise as on the signal, so the simulated-moments
# check sees an error in either part (at SNR=100 a 20% noise-variance error
# would hide inside one standard error).
REF_B, REF_Q, REF_SNR, REF_N = 10, 2, 1.0, 100_000
# The bound is checked at a weaker perturbation, where it applies on every
# instance seen (at eta=0.1 it does not apply on a few).
REF_BOUND_ETA = 0.01
REF_TRIAL = "ref"
_TRACE_KEY, _REF_KEY, _PROBE_KEY = 7001, 7002, 7003


class Tracer:
    """In-memory span recorder with per-layer ``So2MraError`` counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.errors: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._counted: list = []

    @contextlib.contextmanager
    def span(self, name: str, trial, **attrs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        except So2MraError as exc:
            # Count each error once, at the innermost layer that raised it.
            if not any(e is exc for e in self._counted):
                self._counted.append(exc)
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "parent": parent, "trial": trial, "name": name, "start": start, "end": end, **attrs}
            )

    def call(self, name: str, trial, fn, *args, **kwargs):
        with self.span(name, trial):
            return fn(*args, **kwargs)

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _chunk_probe(tr: Tracer, trial, image, rho, sigma, n: int, rng) -> None:
    """Time the simulator's oracle path on one harness-sized chunk."""
    rows = min(CHUNK, n)
    dim = image.size
    with tr.span("bench.chunk_probe", trial):
        with tr.span("signal_model.sample_rotations", trial, rows=rows):
            sample_rotations(rho, rows, rng)
        with tr.span("signal_model.generate_observations", trial, rows=rows, dim=dim):
            batch = generate_observations(image, rho, rows, sigma, rng)
        acc = MomentAccumulator(dim)
        with tr.span("moments.MomentAccumulator.update", trial, rows=rows, dim=dim):
            acc.update(batch.data)


def _recover(tr: Tracer, trial, algorithm: str, m, image):
    shape = (image.B, image.radial_bandwidths)
    if algorithm == "spectral":
        return tr.call("spectral.spectral_recover_2d", trial, spectral_recover_2d, m, shape, EigOptions(rank_tol=RANK_TOL))[0]
    variant = algorithm.removeprefix("fm_")
    return tr.call(f"freq_march.fm_recover_2d.{variant}", trial, fm_recover_2d, m, shape, FMOptions(variant=variant))


def sampling_trials(tr: Tracer, cfg: dict, seed: int) -> int:
    """Replay a snr/n sweep's trials serially; returns the number that failed."""
    snr_sweep = cfg["experiment"] == "snr_sweep"
    grid = cfg["snr_grid"] if snr_sweep else cfg["n_grid"]
    failed = 0
    for gi, value in enumerate(grid):
        snr, n = (float(value), cfg["n"]) if snr_sweep else (cfg["snr"], int(value))
        for ti in range(cfg["trials"]):
            trial = f"{gi}.{ti}"
            try:
                with tr.span("harness.trial", trial, n=n, snr=snr):
                    gt_key = (0, 0) if cfg.get("fixed_ground_truth") else (gi, ti)
                    gt_rng = _rng(seed, _TRACE_KEY, *gt_key, 1)
                    obs_rng = _rng(seed, _TRACE_KEY, gi, ti, 2)
                    image = tr.call("signal_model.make_experiment_signal_2d", trial, make_experiment_signal_2d, cfg["b"], cfg["q"], gt_rng)
                    base = tr.call("signal_model.make_experiment_distribution", trial, make_experiment_distribution, cfg["b"], gt_rng, tol_pos=TOL_POS)
                    rho = tr.call("signal_model.perturb_distribution", trial, perturb_distribution, base, ETA)
                    sigma = tr.call("metrics.sigma_for_snr", trial, sigma_for_snr, image, snr)
                    with tr.span("harness.simulate_empirical_moments", trial, n=n):
                        m = simulate_empirical_moments(image, rho, n, sigma, obs_rng, CHUNK)
                    for algorithm in ("fm_plain", "fm_robust", "spectral"):
                        result = _recover(tr, trial, algorithm, m, image)
                        tr.call("metrics.recovery_error", trial, recovery_error, result.signal_est, image)
                _chunk_probe(tr, trial, image, rho, sigma, n, _rng(seed, _PROBE_KEY, gi, ti))
            except (So2MraError, np.linalg.LinAlgError):
                failed += 1
    return failed


def reference_section(tr: Tracer, seed: int) -> dict:
    """Run every layer once on a reference instance; returns what the checks need."""
    t = REF_TRIAL
    rng = _rng(seed, _REF_KEY)
    ref: dict = {}
    with tr.span("bench.reference", t):
        image = tr.call("signal_model.make_experiment_signal_2d", t, make_experiment_signal_2d, REF_B, REF_Q, rng)
        base = tr.call("signal_model.make_experiment_distribution", t, make_experiment_distribution, REF_B, rng, tol_pos=TOL_POS)
        rho = tr.call("signal_model.perturb_distribution", t, perturb_distribution, base, ETA)
        sigma = tr.call("metrics.sigma_for_snr", t, sigma_for_snr, image, REF_SNR)
        ref.update(image=image, rho=rho, sigma=sigma)
        ref["m"] = tr.call("moments.population_moments_2d", t, population_moments_2d, image, rho, sigma)
        shape = (image.B, image.radial_bandwidths)
        for variant in ("plain", "robust"):
            result = tr.call(f"freq_march.fm_recover_2d.{variant}", t, fm_recover_2d, ref["m"], shape, FMOptions(variant=variant))
            ref[f"fm_error.{variant}"] = tr.call("metrics.recovery_error", t, recovery_error, result.signal_est, image).relative_error
        ref["circulant"] = tr.call("spectral.circulant_project", t, circulant_project, rho)
        rho_b = tr.call("signal_model.perturb_distribution", t, perturb_distribution, base, REF_BOUND_ETA)
        m0 = tr.call("moments.population_moments_2d", t, population_moments_2d, image, rho_b, 0.0)
        spec = tr.call("spectral.spectral_recover_2d", t, spectral_recover_2d, m0, shape, EigOptions())[0]
        err = tr.call("metrics.recovery_error", t, recovery_error, spec.signal_est, image).relative_error
        ref["spectral_error"] = err * image.size  # unit-modulus image: squared norm = size
        ref["dk"] = tr.call("spectral.davis_kahan_bound_2d", t, davis_kahan_bound_2d, image, rho_b, recovery=spec)
        ref["min_bound"] = tr.call(
            "spectral.min_bound_over_rotations", t, min_bound_over_rotations, image, rho_b, 2 * REF_B + 1, recovery=spec
        )[1]
        with tr.span("harness.simulate_empirical_moments", t, n=REF_N):
            ref["simulated"] = simulate_empirical_moments(image, rho, REF_N, sigma, rng, CHUNK)
    _chunk_probe(tr, t, image, rho, sigma, REF_N, _rng(seed, _PROBE_KEY, _REF_KEY))
    return ref


REFERENCE_CHECKS = ("population_moments", "exact_recovery", "circulant", "bound", "simulated_moments")


def reference_checks(ref: dict, corrupt: str | None = None) -> dict:
    """Check the reference section's outputs; returns ``{check: failure messages}``.

    ``corrupt`` names one check whose input is corrupted first, to show that
    the check can fail.
    """
    image, rho, sigma, m = ref["image"], ref["rho"], ref["sigma"], ref["m"]
    ref_m1, ref_m2 = reference.closed_form_moments(image.coeffs, image.k_values, rho.coeffs, sigma)
    out = {}

    m2 = m.M2 * 1.01 if corrupt == "population_moments" else m.M2
    out["population_moments"] = reference.check_population_moments(m.M1, m2, ref_m1, ref_m2)

    errors = {v: ref[f"fm_error.{v}"] for v in ("plain", "robust")}
    if corrupt == "exact_recovery":
        bad = type(m)(m.M1, m.M2 * 1.01, m.sigma)
        shape = (image.B, image.radial_bandwidths)
        for v in errors:
            est = fm_recover_2d(bad, shape, FMOptions(variant=v)).signal_est
            errors[v] = recovery_error(est, image).relative_error
    out["exact_recovery"] = [p for v, e in errors.items() for p in reference.check_exact_recovery(v, e)]

    ca = ref["circulant"]
    s_b = ca.s_b * 1.01 if corrupt == "circulant" else ca.s_b
    out["circulant"] = reference.check_circulant(ca.v_opt, s_b, rho.coeffs)

    dk, mb = ref["dk"], ref["min_bound"]
    scaled_error = ref["spectral_error"]
    if corrupt == "bound":
        scaled_error = 2.0 * max(dk.bound or 0.0, mb.bound or 0.0) + 1.0
    out["bound"] = reference.check_bound(
        (dk.bound, dk.all_conditions_met()), (mb.bound, mb.all_conditions_met()), scaled_error
    )

    sim = ref["simulated"]
    se1, se2 = reference.standard_error_bounds(image.coeffs, ref_m1, sigma, REF_N)
    sim_m2 = sim.M2 * 1.05 if corrupt == "simulated_moments" else sim.M2
    out["simulated_moments"] = reference.check_simulated_moments(sim.M1, sim_m2, ref_m1, ref_m2, se1, se2)
    return out


def _dur(span) -> int:
    return span["end"] - span["start"]


def traced_seconds(tr: Tracer) -> float:
    """Summed duration of the workload's own trial spans."""
    return sum(_dur(s) for s in tr.spans if s["parent"] is None and s["name"].startswith("harness.")) / 1e9


def layer_metrics(tr: Tracer, untraced_wall_s: float) -> dict:
    """Per-layer metrics from the recorded spans (medians over spans of a name)."""
    by_name: dict = {}
    child_ns: Counter = Counter()
    for s in tr.spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_ns[s["parent"]] += _dur(s)

    def med(name, fn):
        return statistics.median(fn(s) for s in by_name[name])

    out = {
        f"{name}.ms": (med(name, lambda s: _dur(s) / 1e6), "ms")
        for name in (
            "harness.simulate_empirical_moments",
            "signal_model.make_experiment_distribution",
            "signal_model.make_experiment_signal_2d",
            "signal_model.perturb_distribution",
            "freq_march.fm_recover_2d.plain",
            "freq_march.fm_recover_2d.robust",
            "spectral.spectral_recover_2d",
            "spectral.min_bound_over_rotations",
            "spectral.davis_kahan_bound_2d",
            "spectral.circulant_project",
            "moments.population_moments_2d",
            "metrics.recovery_error",
        )
    }
    out["harness.simulate_empirical_moments.obs_per_s"] = (
        med("harness.simulate_empirical_moments", lambda s: s["n"] / _dur(s) * 1e9), "1/s")
    out["signal_model.generate_observations.ns_per_entry"] = (
        med("signal_model.generate_observations", lambda s: _dur(s) / (s["rows"] * s["dim"])), "ns")
    out["signal_model.sample_rotations.ns_per_angle"] = (
        med("signal_model.sample_rotations", lambda s: _dur(s) / s["rows"]), "ns")
    out["moments.MomentAccumulator.update.gflops"] = (
        med("moments.MomentAccumulator.update", lambda s: 8.0 * s["rows"] * s["dim"] ** 2 / _dur(s)), "GFLOP/s")
    out["harness.trial_overhead_ms"] = (med("harness.trial", lambda s: (_dur(s) - child_ns[s["id"]]) / 1e6), "ms")
    out["harness.pool_speedup"] = (traced_seconds(tr) / untraced_wall_s, "ratio")
    for layer in LAYERS:
        out[f"{layer}.calls"] = (sum(1 for s in tr.spans if s["name"].split(".")[0] == layer), "count")
        out[f"{layer}.errors"] = (tr.errors[layer], "count")
    return out
