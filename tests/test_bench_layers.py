import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
