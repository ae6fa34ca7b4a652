"""curveprob benchmark: one workload per call, each run in fresh interpreters.

    python3 bench/run.py --workload coverage --seed 1 --seconds 15 --trace 0

Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a run with every layer wrapped) with ``--trace 1``.
Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails when it is not there. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("coverage", "query", "daily")
# operations per second of --seconds; every run does round(rate * seconds)
# operations, at least MIN_OPS so that ten samples lie beyond p90
OPS_PER_SECOND = {"coverage": 40, "query": 35, "daily": 2}
MIN_OPS = 100
TINY_OPS = 3
SETUP_REPEATS = 5          # set-up is timed in this many interpreters; the median is reported
BLAS_THREADS = 1           # never more than nproc; see README
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "model_json_mb": "MB",
}


def operation_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))


def run_worker(args, ops: int, role: str, deadline: float) -> dict:
    # no .pyc files: set-up time must not depend on what an earlier run compiled
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARIABLES})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--ops", str(ops), "--trace", str(args.trace),
           "--role", role]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} worker ({role}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and three operations, for the self-test")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "curveprob" / "__init__.py").is_file():
        sys.stderr.write(f"no curveprob sources under {ROOT / 'src'}\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    ops = TINY_OPS if args.tiny else operation_count(args.workload, args.seconds)
    full = run_worker(args, ops, "full", deadline)
    setups = [full["setup_s"]]
    if args.trace:
        import layers
        metrics = {name: (full["layers"][name], unit)
                   for name, unit in layers.PER_LAYER.items() if name in full["layers"]}
    else:
        setups += [run_worker(args, ops, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_REPEATS - 1)]
        full["setup_s"] = statistics.median(setups)
        metrics = {name: (full[name], unit) for name, unit in END_TO_END.items()}

    sys.stderr.write(
        f"{args.workload} seed={args.seed} ops={ops} trace={args.trace}: "
        f"work_per_s={full['work_per_s']:.3f} beyond_p90={full['beyond_p90']} "
        f"setups={json.dumps([round(s, 4) for s in setups])} "
        f"notes={json.dumps(full['notes'])}\n")
    print(json.dumps({
        "correct": full["wrong"] == 0 and not full["run_problems"],
        "attempted": ops,
        "failed": full["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
