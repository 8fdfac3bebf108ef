"""One benchmark process: set up, run one workload through ``so2mra.harness.main``, check it.

run.py starts this script; it prints one JSON object as its last line.  With
``--setup-only`` it stops after set-up and reports only the set-up time.
Set-up is everything from process start (``--spawned``, a ``time.monotonic``
reading taken by the parent just before the start) to the first timed sweep:
interpreter start, imports, config parsing and validation, and a warm-up
sweep of the same experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def machine_info() -> dict:
    """nproc, versions and the OpenBLAS thread count this process runs with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = int(getattr(lib, name)())
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _determinism(texts: list[str]) -> list[str]:
    if any(t != texts[0] for t in texts[1:]):
        return ["a config rerun did not reproduce the CSV byte for byte"]
    return []


def main() -> int:
    args = _args()
    sys.path.insert(0, str(SRC))
    import so2mra
    from so2mra import harness

    if Path(so2mra.__file__).resolve().parent != (SRC / "so2mra").resolve():
        print(f"so2mra imported from {so2mra.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    out = Path(args.out)

    def sweep(values: dict, name: str) -> str:
        cfg_path = out / f"{name}.cfg"
        cfg_path.write_text(workloads.config_text(values), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = harness.main([str(cfg_path)])
        if rc not in (0, 3):  # 3: some trials failed, the CSV is still written
            raise RuntimeError(f"so2mra exited with {rc} on {cfg_path}")
        return Path(values["out"]).read_text(encoding="utf-8")

    sweep(workloads.config(args.workload, args.seed, str(out / "warmup.csv"), warmup=True), "warmup")
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    values = workloads.config(args.workload, args.seed, str(out / "sweep.csv"))
    per_pass = workloads.trials_per_pass(values)
    check = workloads.CHECKS[args.workload]
    result = {"setup_s": setup_s}
    if args.trace:
        result.update(_traced(args, values, per_pass, check, lambda: sweep(values, "sweep")))
    else:
        result.update(_timed(args, values, per_pass, check, lambda: sweep(values, "sweep")))
    print(json.dumps(result))
    return 0


def _timed(args, values, per_pass, check, run_sweep) -> dict:
    """Whole sweeps back to back until ``--seconds`` have passed; medians per sweep."""
    rates, cpu, texts = [], [], []
    start = time.perf_counter()
    while not texts or time.perf_counter() - start < args.seconds:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        texts.append(run_sweep())
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        rates.append(per_pass / wall)
        cpu.append((ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime) / per_pass)
    rows = workloads.parse_csv(texts[0])
    problems = check(rows) + _determinism(texts)
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": per_pass * len(texts),
        "failed": workloads.failed_trials(rows) * len(texts),
        "metrics": {
            "trials_per_s": (statistics.median(rates), "1/s"),
            "cpu_s_per_trial": (statistics.median(cpu), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        },
    }


def _traced(args, values, per_pass, check, run_sweep) -> dict:
    """One untraced sweep, then the serial traced replay, the reference checks
    and the proofs that every check can fail."""
    import tracing

    t0 = time.perf_counter()
    text = run_sweep()
    wall = time.perf_counter() - t0
    rows = workloads.parse_csv(text)
    problems = check(rows)

    tr = tracing.Tracer()
    replay_failed = tracing.sampling_trials(tr, values, args.seed)
    if replay_failed:
        problems.append(f"{replay_failed} traced trials failed")
    ref = tracing.reference_section(tr, args.seed)
    for name, found in tracing.reference_checks(ref).items():
        problems += [f"reference {name}: {p}" for p in found]

    blind = []
    for name, corrupted in workloads.corruptions(args.workload, rows).items():
        if not check(corrupted):
            blind.append(f"CSV check passed {name}")
    for name in tracing.REFERENCE_CHECKS:
        if not tracing.reference_checks(ref, corrupt=name)[name]:
            blind.append(f"reference check {name} passed corrupted input")
    if not _determinism([text, text.replace("\n", "\n ", 1)]):
        blind.append("determinism check passed differing CSVs")
    problems += blind

    traced_s = tracing.traced_seconds(tr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": wall,
        "traced_trials_s": traced_s,
        "trace_overhead_s": traced_s - wall,
        "machine": machine_info(),
        "problems": problems,
    }
    tr.write(Path(args.out) / "trace.jsonl", summary)
    print(json.dumps({"trace_summary": summary}), file=sys.stderr)
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": per_pass * 2,
        "failed": workloads.failed_trials(rows) + replay_failed,
        "metrics": tracing.layer_metrics(tr, wall),
    }


if __name__ == "__main__":
    sys.exit(main())
