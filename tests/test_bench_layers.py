import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    # the tracer skips a renamed or deleted function and reports its metrics
    # as absent, so a refactor could drop a per-layer metric without an error
    tracer = load_layers().Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()


def load_workloads():
    # workloads.py imports its sibling layers.py by module name
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_one_tiny_operation(name, tmp_path):
    # the benchmark calls the package through its own files, which a change
    # to the package must keep working: return types, arities and names
    wl = WORKLOADS[name](seed=1, ops=1, tiny=True, workdir=tmp_path)
    wl.setup()
    x = wl.input(wl.warmup)
    problems = wl.check(x, wl.run(x))
    assert problems + wl.finish() == []
