"""Fast self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Runs every workload end to end through run.py, traced and untraced, and
checks the result line against BENCHMARK.json. Checks that run.py refuses
to run without the package sources. Then shows that each correctness check
rejects a deliberately corrupted result. Exits 1 if anything is wrong.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from curveprob.curves import Curve  # noqa: E402

failures = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        failures.append(label)


def end_to_end() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            label = f"{workload} trace={trace} runs end to end"
            if proc.returncode != 0:
                expect(f"{label} (exit {proc.returncode})", False)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(label, set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0)
            expect(f"{workload} trace={trace} reports every {section} metric",
                   units == {m["name"]: m["unit"] for m in bench[section]})


def refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "coverage", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
        expect("run.py fails without the package sources",
               proc.returncode != 0 and not proc.stdout.strip())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def coverage_checks() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reps = run.operation_count("coverage", bench["run_seconds"])

    def problems(boot: float, gauss: float) -> list:
        """The run-level check on a run's replicate count, at these coverages."""
        return workloads.coverage_problems(
            {"boot": round(boot * reps), "gauss": round(gauss * reps)}, reps)

    expect(f"coverage: reference coverage passes at {reps} replicates",
           not problems(0.913, 0.95))
    expect("coverage: the pooled measured coverage passes", not problems(0.925, 0.938))
    for boot, gauss, label in ((0.85, 0.95, "boot coverage 0.85"),
                               (0.98, 0.95, "boot coverage 0.98"),
                               (0.913, 0.895, "gauss coverage 0.895"),
                               (0.913, 1.0, "gauss coverage 1.0")):
        expect(f"coverage: {label} at {reps} replicates is rejected",
               bool(problems(boot, gauss)))
    cov = workloads.Coverage(1, 1, True, None)
    report = cov.run(cov.input(0))
    expect("coverage: a real replicate passes", not cov.check(0, report))
    bad = dataclasses.replace(report, rows=(("boot", 0.5, 0.0, 1),) + report.rows[1:])
    expect("coverage: a replicate hit that is not 0/1 is rejected", bool(cov.check(0, bad)))


def query_checks() -> None:
    workdir = WORK / "selftest-query"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        q = workloads.Query(1, 1, True, workdir)
        q.setup()
        x = q.input(q.warmup)
        out = q.run(x)
        expect("query: a real bundle passes", not q.check(x, out))
        expect("query: the model file matches the fit", not q.finish())

        def corrupted(section, key, **changes):
            """The bundle with one estimate changed."""
            estimate = dataclasses.replace(out[section][key], **changes)
            return {**out, section: {**out[section], key: estimate}}

        est = out["boot"]["level"]
        expect("query: boot level count off by one is rejected",
               bool(q.check(x, corrupted("boot", "level", count=est.count + 1))))
        est = out["boot"]["extremal"]
        expect("query: boot extremal count off by one is rejected",
               bool(q.check(x, corrupted("boot", "extremal", count=est.count - 1))))
        est = out["gauss"]["not_level"]
        expect("query: gauss complement count off by one is rejected",
               bool(q.check(x, corrupted("gauss", "not_level", count=est.count + 1))))
        for family, method in workloads.QUANTILE_RUNS:
            fam = workloads.FAMILIES[family]
            tol = 1e-4 * (fam.hi - fam.lo)
            for shift, label in ((tol, "one step too high"), (-tol, "one step too low")):
                xi = out["quantile"][family, method] + shift
                bad = {**out, "quantile": {**out["quantile"], (family, method): xi}}
                expect(f"query: {family}/{method} quantile {label} is rejected",
                       bool(q.check(x, bad)))
        band = out["band"]
        bad = dict(out, band=dataclasses.replace(
            band, lower=Curve(band.lower.grid, -np.abs(band.lower.values) - 1e-3)))
        expect("query: band floor above its center is rejected", bool(q.check(x, bad)))
        nudged = dataclasses.replace(q.model, coef_w=q.model.coef_w + 1e-9)
        expect("query: a model file that predicts differently is rejected",
               bool(workloads.model_file_problems(nudged, q.model, [x])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def daily_checks() -> None:
    d = workloads.Daily(1, 1, True, None)
    inputs = d.input(0)
    report = d.run(inputs)
    expect("daily: a real report passes", not d.check(inputs, report))
    summary = dict(report.summary, monotonicity_violations_gauss=1)
    expect("daily: a gauss monotonicity violation is rejected",
           bool(workloads.daily_problems(dataclasses.replace(report, summary=summary), d.days)))
    summary = dict(report.summary, monotonicity_violations_boot=2)
    expect("daily: a boot monotonicity violation is rejected",
           bool(workloads.daily_problems(dataclasses.replace(report, summary=summary), d.days)))
    row = report.rows[0]
    for value in (float("nan"), float("inf"), 0.0, -0.1):
        rows = ((*row[:3], value, row[4]),) + report.rows[1:]
        expect(f"daily: cross-entropy {value} is rejected",
               bool(workloads.daily_problems(dataclasses.replace(report, rows=rows), d.days)))
    expect("daily: a missing row is rejected",
           bool(workloads.daily_problems(dataclasses.replace(report, rows=report.rows[1:]),
                                         d.days)))
    rows = ((*row[:4], row[4] + 1),) + report.rows[1:]
    expect("daily: an n_test that does not match the split is rejected",
           bool(workloads.daily_problems(dataclasses.replace(report, rows=rows), d.days)))


def main() -> int:
    end_to_end()
    refuses_without_sources()
    coverage_checks()
    query_checks()
    daily_checks()
    try:
        WORK.rmdir()
    except OSError:
        pass
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
