"""One run of one workload, in its own interpreter; started by run.py.

Imports the package, sets the workload up (inputs, its own set-up step and
warm-up operations), then times a fixed number of operations one by one and
checks each output outside the timed span. Prints one JSON object as its
last line of output. With ``--role setup`` it stops after the set-up and
reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN_PROBLEMS = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("full", "setup"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started this interpreter")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import curveprob.harness.cli  # noqa: F401  the import every CLI command pays
    import_s = time.perf_counter() - start
    import curveprob
    if not Path(curveprob.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"curveprob was imported from {curveprob.__file__}, not {ROOT / 'src'}\n")
        return 2

    import numpy as np

    import layers
    import workloads

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
            tracer.active = True
        wl = workloads.WORKLOADS[args.workload](args.seed, args.ops, args.tiny, workdir)
        wl.setup()
        setup_s = time.monotonic() - args.spawned_at
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.active = False
            tracer.begin_work()

        latencies, failed, wrong, shown = [], 0, 0, 0
        for i in range(wl.warmup, wl.warmup + args.ops):
            x = wl.input(i)
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = wl.run(x)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                if shown < SHOWN_PROBLEMS:
                    shown += 1
                    traceback.print_exc()
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.active = False
            latencies.append(elapsed)
            problems = wl.check(x, out)
            if problems:
                failed += 1
                wrong += 1
                if shown < SHOWN_PROBLEMS:
                    shown += 1
                    sys.stderr.write(f"operation {i}: {'; '.join(problems)}\n")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer:
            tracer.uninstall()
        run_problems = wl.finish()
        for problem in run_problems:
            sys.stderr.write(f"run check: {problem}\n")

        if not latencies:
            sys.stderr.write("no operation completed\n")
            return 1
        lat = np.asarray(latencies) * 1000.0
        p90 = float(np.percentile(lat, 90))
        result = {
            "ops": args.ops,
            "failed": failed,
            "wrong": wrong,
            "run_problems": run_problems,
            "setup_s": setup_s,
            "work_per_s": lat.size / (lat.sum() / 1000.0),
            "latency_p50_ms": float(np.median(lat)),
            "latency_p90_ms": p90,
            "beyond_p90": int(np.count_nonzero(lat > p90)),
            "peak_rss_mb": peak_rss_mb,
            "model_json_mb": wl.model_json_bytes() / 1e6,
            "notes": wl.notes,
        }
        if tracer:
            result["layers"] = tracer.metrics(args.ops, import_s)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    raise SystemExit(main())
