"""Per-layer tracing from outside the package.

The tracer replaces public functions of the curveprob modules with timing
wrappers, everywhere a module holds a reference to them (``from x import f``
copies the reference, so patching the defining module alone would miss most
calls). Each wrapper opens a span: the span's inclusive time, its self time
(inclusive minus the time of spans opened inside it) and its call count are
accumulated by span name. A few wrappers also add counts such as rows drawn
or curves simulated.

A wrapped name that no longer exists is skipped, and every metric that
depends on it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SETUP_METRICS = (
    "flm.to_json.ms", "flm.from_json.ms", "flm.model_bytes",
    "io.save_curves.ms", "cli.fit.ms", "cli.import_s",
)
"""Metrics of work that only the set-up does; reported as set-up totals.
Every other per-layer metric is reported per timed operation."""

EVENT_KINDS = ("level", "complement", "extremal", "excursion", "contrast",
               "boundary", "uniform_band")

_BATCH = "events.contains_batch"


class Stats:
    """Accumulated span times, call counts and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.stack = []
        self.stats = Stats()
        self.setup_stats = None
        self.absent = set()
        self.active = False  # the worker turns recording on around program calls only
        self._restore = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Span wrapper; ``name`` is a string or a function of the call args,
        ``after(result)`` adds counters when the call returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                stats = tracer.stats
                stats.calls[span] += 1
                stats.total[span] += elapsed
                stats.self_time[span] += elapsed - frame[1]
                if span.startswith(_BATCH) and not (parent or "").startswith(_BATCH):
                    stats.calls[_BATCH] += 1
                    stats.total[_BATCH] += elapsed
                    stats.counts["events.rows_tested"] += len(args[1])
                    if parent == "conddist.quantile":
                        stats.counts["conddist.quantile.prob_evals"] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, key, value=1):
        self.stats.counts[key] += value

    def peak(self, key, value):
        self.stats.counts[key] = max(self.stats.counts[key], value)

    # -- installing ------------------------------------------------------

    def wrap_function(self, module_name, attr, key, after=None, name=None):
        """Wrap ``module.attr`` as span ``key``, or as ``name(args)`` when given."""
        original = _lookup(module_name, attr)
        if original is None:
            self.absent.add(key)
            return
        self._restore.extend(replace_everywhere(original, self._wrap(original, name or key, after)))

    def wrap_method(self, module_name, cls_name, attr, name, after=None):
        cls = _lookup(module_name, cls_name)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.absent.add(name)
            return
        setattr(cls, attr, self._wrap(original, name, after))
        self._restore.append((cls, attr, original))

    def install(self):
        """Wrap every layer the benchmark reports on."""
        fn, meth = self.wrap_function, self.wrap_method
        fn("curveprob.harness.experiments", "run_coverage_experiment", "experiments.coverage")
        fn("curveprob.harness.experiments", "run_entropy_eval", "experiments.entropy_eval")
        fn("curveprob.harness.dgp", "simulate_far", "dgp.simulate_far",
           after=lambda r: self.count("dgp.curves_simulated", len(r)))
        fn("curveprob.flm", "fit", "flm.fit")
        fn("curveprob.flm", "build_far_design", "flm.build_far_design")
        fn("curveprob.flm", "predict", "flm.predict")
        fn("curveprob.flm", "to_json", "flm.to_json",
           after=lambda r: self.count("flm.model_bytes", len(r)))
        fn("curveprob.flm", "from_json", "flm.from_json")
        fn("curveprob.spectral", "eigendecompose", "spectral.eigendecompose",
           after=lambda r: self.peak("spectral.eigendecompose.max_dim", len(r.eigenvalues)))
        meth("curveprob.conddist", "GaussSampler", "draw_matrix", "conddist.draw_matrix",
             after=lambda r: self.count("conddist.noise_rows_drawn", r.shape[0]))
        fn("curveprob.conddist", "quantile_over_family", "conddist.quantile",
           after=lambda r: self.count("conddist.quantile.found"))
        fn("curveprob.conddist", "calibrate_uniform_band", "conddist.band")
        fn("curveprob.conddist", "boot_prob", "conddist.boot_prob")
        fn("curveprob.conddist", "gauss_prob", "conddist.gauss_prob")
        fn("curveprob.events", "contains_batch", _BATCH,
           name=lambda a: f"{_BATCH}.{a[0].kind}")
        meth("curveprob.curves", "Curve", "__post_init__", "curves.Curve.construct")
        meth("curveprob.curves", "Covariate", "coords", "curves.coords")
        fn("curveprob.baselines", "nw_select_bandwidth", "baselines.nw_select_bandwidth")
        fn("curveprob.baselines", "nw_prob", "baselines.nw_prob")
        fn("curveprob.baselines", "fglm_fit", "baselines.fglm_fit",
           after=lambda r: self.count("baselines.fglm_fit.separations", int(r.separation)))
        fn("curveprob.baselines", "fglm_prob", "baselines.fglm_prob")
        fn("curveprob.harness.seasonal", "deseasonalize", "seasonal.deseasonalize")
        fn("curveprob.harness.io", "save_curves", "io.save_curves")
        fn("curveprob.harness.cli", "main", "cli.fit",
           name=lambda a: f"cli.{a[0][0]}" if a and a[0] else "cli.main")
        fn("curveprob.rng", "substream", "rng.substream")

    def uninstall(self):
        restore(self._restore)
        self._restore.clear()

    def begin_work(self):
        """Close the set-up phase: later spans count towards the timed operations."""
        self.setup_stats = self.stats
        self.stats = Stats()

    # -- reporting -------------------------------------------------------

    def metrics(self, ops: int, import_s: float) -> dict:
        """Per-layer metrics: set-up totals for SETUP_METRICS, else per operation.
        ``spectral.eigendecompose.max_dim`` is the largest over the whole run."""
        work, setup = self.stats, self.setup_stats or Stats()
        out = {}

        def put(metric, span, value):
            if span not in self.absent:
                out[metric] = value if metric in SETUP_METRICS else value / ops

        for metric, span, kind in _SPAN_METRICS:
            stats = setup if metric in SETUP_METRICS else work
            value = {"ms": stats.total, "self_ms": stats.self_time}.get(kind, stats.calls)[span]
            put(metric, span, 1000.0 * value if kind != "calls" else float(value))
        for kind in EVENT_KINDS:
            put(f"{_BATCH}.{kind}.ms", _BATCH, 1000.0 * work.self_time[f"{_BATCH}.{kind}"])
        for metric, span in _COUNT_METRICS:
            put(metric, span, (setup if metric in SETUP_METRICS else work).counts[metric])
        put("curves.Curve.constructed", "curves.Curve.construct",
            work.calls["curves.Curve.construct"])
        if "spectral.eigendecompose" not in self.absent:
            key = "spectral.eigendecompose.max_dim"
            out[key] = max(work.counts[key], setup.counts[key])
        if "conddist.quantile" not in self.absent and _BATCH not in self.absent:
            found = work.counts["conddist.quantile.found"]
            evals = work.counts["conddist.quantile.prob_evals"]
            out["conddist.quantile.prob_evals_per_search"] = evals / found if found else 0.0
        out["cli.import_s"] = import_s
        return out


# (metric, span, what): "ms" inclusive time, "self_ms" self time, "calls" count
_SPAN_METRICS = (
    ("experiments.coverage.self_ms", "experiments.coverage", "self_ms"),
    ("experiments.entropy_eval.self_ms", "experiments.entropy_eval", "self_ms"),
    ("dgp.simulate_far.ms", "dgp.simulate_far", "ms"),
    ("flm.fit.self_ms", "flm.fit", "self_ms"),
    ("flm.fit.calls", "flm.fit", "calls"),
    ("flm.build_far_design.ms", "flm.build_far_design", "ms"),
    ("flm.predict.ms", "flm.predict", "ms"),
    ("flm.predict.calls", "flm.predict", "calls"),
    ("flm.to_json.ms", "flm.to_json", "ms"),
    ("flm.from_json.ms", "flm.from_json", "ms"),
    ("spectral.eigendecompose.ms", "spectral.eigendecompose", "ms"),
    ("spectral.eigendecompose.calls", "spectral.eigendecompose", "calls"),
    ("conddist.draw_matrix.ms", "conddist.draw_matrix", "ms"),
    ("conddist.quantile.self_ms", "conddist.quantile", "self_ms"),
    ("conddist.band.self_ms", "conddist.band", "self_ms"),
    ("conddist.boot_prob.ms", "conddist.boot_prob", "ms"),
    ("conddist.gauss_prob.self_ms", "conddist.gauss_prob", "self_ms"),
    ("events.contains_batch.ms", _BATCH, "ms"),
    ("events.contains_batch.calls", _BATCH, "calls"),
    ("curves.coords.calls", "curves.coords", "calls"),
    ("curves.coords.ms", "curves.coords", "ms"),
    ("baselines.nw_select_bandwidth.ms", "baselines.nw_select_bandwidth", "ms"),
    ("baselines.nw_prob.ms", "baselines.nw_prob", "ms"),
    ("baselines.fglm_fit.ms", "baselines.fglm_fit", "ms"),
    ("baselines.fglm_prob.ms", "baselines.fglm_prob", "ms"),
    ("seasonal.deseasonalize.ms", "seasonal.deseasonalize", "ms"),
    ("io.save_curves.ms", "io.save_curves", "ms"),
    ("cli.fit.ms", "cli.fit", "ms"),
    ("rng.substream.calls", "rng.substream", "calls"),
    ("rng.substream.ms", "rng.substream", "ms"),
)

# (counter metric, span whose absence makes it absent)
_COUNT_METRICS = (
    ("dgp.curves_simulated", "dgp.simulate_far"),
    ("conddist.noise_rows_drawn", "conddist.draw_matrix"),
    ("events.rows_tested", _BATCH),
    ("flm.model_bytes", "flm.to_json"),
    ("baselines.fglm_fit.separations", "baselines.fglm_fit"),
)


def _unit(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    return {"flm.model_bytes": "bytes", "cli.import_s": "s",
            "spectral.eigendecompose.max_dim": "rows",
            "conddist.quantile.prob_evals_per_search": "evals/search"}.get(metric, "count")


PER_LAYER = {
    metric: _unit(metric)
    for metric in [m for m, _, _ in _SPAN_METRICS]
    + [f"{_BATCH}.{k}.ms" for k in EVENT_KINDS]
    + [m for m, _ in _COUNT_METRICS]
    + ["spectral.eigendecompose.max_dim", "conddist.quantile.prob_evals_per_search",
       "curves.Curve.constructed", "cli.import_s"]
}
"""Every per-layer metric name with its unit, in the order BENCHMARK.json lists them."""


def replace_everywhere(original, replacement) -> list:
    """Point every curveprob module attribute that holds ``original`` at
    ``replacement``; returns (module, name, original) triples for restoring."""
    replaced = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("curveprob"):
            continue
        for ref, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, ref, replacement)
                replaced.append((mod, ref, original))
    return replaced


def restore(replaced) -> None:
    for owner, ref, original in reversed(replaced):
        setattr(owner, ref, original)


def _lookup(module_name: str, attr: str):
    """``module.attr``, or None when either is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)
