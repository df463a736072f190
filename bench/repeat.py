"""Run a workload once per seed and summarise each metric.

    python3 bench/repeat.py --workload segment --seeds 1-10 [--trace 1]

Runs bench/run.py one process at a time, each after the previous has
exited, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
distance between the quartiles as a share of the median.  The run
length is BENCHMARK.json's `run_seconds` unless --seconds is given.
Every run's result line is appended to bench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def figures(stdout: str, workload: str) -> dict[str, dict]:
    """The 'workload name value unit' lines a run prints before its result."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == workload:
            try:
                out[parts[1]] = {"value": float(parts[2]), "unit": " ".join(parts[3:])}
            except ValueError:
                pass
    return out


def summarise(runs: list[dict[str, dict]]) -> dict[str, dict]:
    out = {}
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def table(title: str, summary: dict[str, dict]) -> None:
    print(f"\n{title:40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
    for name, s in summary.items():
        print(f"{name:40s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.4f}  {s['unit']}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results, named = [], []
    (BENCH / "out").mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        named.append(figures(proc.stdout, args.workload))
        with open(BENCH / "out" / "results.jsonl", "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s, "
          f"all correct: {all(r['correct'] for r in results)}, "
          f"failed/attempted: {sum(r['failed'] for r in results)}"
          f"/{sum(r['attempted'] for r in results)}")
    table("metric", summarise([r["metrics"] for r in results]))
    table("figure", summarise(named))
    return 0


if __name__ == "__main__":
    sys.exit(main())
