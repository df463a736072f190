"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {train,segment,geometry} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/`.
BLAS is pinned to one thread before NumPy loads and no other thread or
process is started.  After set-up the workload runs whole rounds until S
seconds have passed, then checks its outputs.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0; with --trace 1 the
per-layer metrics of a traced run, whose spans are also written to
bench/out/).  Lines before it list every figure by its own name.
"""

from __future__ import annotations

import os
import sys
import time

SCRIPT_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# name -> unit of the end-to-end metrics every untraced run prints
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rate_per_s": "1/s",
    "median_ms": "ms",
    "ref_s": "s",
}


def process_start() -> float:
    """The perf_counter() reading at which this process was started."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return SCRIPT_START
    # the kernel counts in clock ticks; keep only a plausible reading
    return now - age if now - SCRIPT_START <= age < 60.0 else SCRIPT_START


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "segment", "geometry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = process_start()
    if not (ROOT / "src" / "boundseg" / "__init__.py").is_file():
        print(f"bench: no program sources at {ROOT / 'src' / 'boundseg'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    from spans import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if tracer:
            tracer.install()
        workload.setup()
        window_start = time.perf_counter()
        rounds = 0
        while True:
            workload.round(rounds)
            rounds += 1
            if time.perf_counter() - window_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        problems = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures = {"setup_s": (window_start - started, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB"),
               "rounds": (rounds, "count"),
               **workload.figures()}
    if tracer:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        figures["trace_file"] = (str(trace_path.relative_to(ROOT)), "")
        layers = layer_metrics(tracer.spans, window_start, rounds)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = {"setup_s": figures["setup_s"][0], "peak_rss_mb": peak_rss_mb,
                  **workload.end_to_end()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} {value} {unit}".rstrip())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
