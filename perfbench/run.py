#!/usr/bin/env python3
"""so2mra benchmark: sweep throughput on two workloads, per-layer times from a traced run.

    python3 perfbench/run.py --workload {snr_desk,n_fixed_gt} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is the ``so2mra``
package in ``src/``, driven through its entry point ``so2mra.harness.main``
with generated config files.  With ``--trace 0`` a worker process runs whole
sweeps back to back for ``--seconds`` and reports the end-to-end metrics;
extra worker processes that only set up give more samples of ``setup_s``.
With ``--trace 1`` one worker runs a sweep untraced, replays it serially with
a span around every layer call, runs the reference checks, and reports the
per-layer metrics.  Every run checks the program's outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Configs, CSVs and the trace go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("snr_desk", "n_fixed_gt")
SETUP_PROBES = 6  # set-up-only processes per untraced run, besides the measuring one
DEADLINE_S = 170.0


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def _worker(args, out: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    args = _args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "so2mra" / "__init__.py").is_file():
        print(f"so2mra sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            setups = [_worker(args, out, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
        result = _worker(args, out, deadline, False)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups + [result["setup_s"]]), "s")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
