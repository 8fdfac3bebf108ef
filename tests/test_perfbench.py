"""The benchmark in ``perfbench/`` still runs against the package.

The benchmark builds its workload configs from the harness's config keys and
calls library functions in its reference check.  A key or a function it
needs that goes missing fails here, not first in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from so2mra.harness import config_from_sources, load_config_file
from so2mra.signal_model import make_experiment_distribution, make_experiment_signal_2d

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``workloads`` and ``tracing`` modules, imported from its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]


@pytest.mark.parametrize("warmup", [False, True], ids=["sweep", "warmup"])
def test_workload_configs_validate(perfbench, tmp_path, warmup):
    workloads, _tracing = perfbench
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS:
        values = workloads.config(workload, 2024, str(tmp_path / f"{workload}.csv"), warmup=warmup)
        cfg = config_from_sources(values)
        # The benchmark hands each sweep its config as a file.
        path = tmp_path / f"{workload}.txt"
        path.write_text(workloads.config_text(values), encoding="utf-8")
        assert config_from_sources(load_config_file(str(path))) == cfg


def test_reference_checks_pass(perfbench):
    _workloads, tracing = perfbench
    ref = tracing.reference_section(tracing.Tracer(), 2024)
    assert tracing.reference_checks(ref) == {name: [] for name in tracing.REFERENCE_CHECKS}


def test_chunk_probe_records_its_spans(perfbench):
    # The per-layer metrics of the observation generator and the streaming
    # accumulator are medians over these spans; without them they are empty.
    _workloads, tracing = perfbench
    rng = np.random.default_rng(2024)
    image = make_experiment_signal_2d(2, 2, rng)
    rho = make_experiment_distribution(2, rng)
    tr = tracing.Tracer()
    tracing._chunk_probe(tr, "probe", image, rho, 0.5, 300, rng)
    spans = {s["name"]: s for s in tr.spans}
    probe = spans["bench.chunk_probe"]
    for name in ("signal_model.generate_observations", "moments.MomentAccumulator.update"):
        assert spans[name]["parent"] == probe["id"]
        assert (spans[name]["rows"], spans[name]["dim"]) == (300, image.size)
