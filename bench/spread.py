"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload coverage --seeds 1-10 \
        --out bench/results/coverage-a.jsonl
    python3 bench/spread.py --summarize bench/results/coverage-a.jsonl \
        bench/results/coverage-b.jsonl

Each run measures for BENCHMARK.json's ``run_seconds`` with ``--trace 0``.
For every metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median. Given two result files it also
prints how far the second median lies from the first, as a share of the
first, signed so that positive means worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(args) -> None:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(workload=args.workload, seed=seed, started=started,
                      wall_s=time.time() - started)
        with out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: {time.time() - started:.1f}s "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)


def summarize(path: str) -> dict:
    rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"{path}: {len(rows)} runs, correct={all(r['correct'] for r in rows)}, "
          f"failed shares={sorted(shares)}")
    medians = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}")
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out")
    parser.add_argument("--summarize", nargs="+", metavar="JSONL")
    args = parser.parse_args()
    if args.summarize:
        sets = [summarize(p) for p in args.summarize]
        if len(sets) == 2:
            first, second = sets
            bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
            higher = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]
                      if m["better"] == "higher"}
            for name, base in first.items():
                if not base:
                    continue
                change = (second[name] - base) / base
                worse = -change if name in higher else change
                print(f"  {name:32s} second vs first: {worse:+7.2%} (positive is worse)")
        return 0
    if not (args.workload and args.out):
        parser.error("--workload and --out are needed to run")
    run(args)
    summarize(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
