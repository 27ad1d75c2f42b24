"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workloads blobs_fit gradcheck --seeds 1-10 \\
        --seconds 22 [--out results.json]

Each run is a separate ``run.py`` process, one after another.  For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--out`` keeps
every run's JSON result with its ``unscaled`` line (wall times and the
reference-task times the scaled metrics were derived from).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    unscaled = next(json.loads(line.partition(" ")[2]) for line in lines
                    if line.startswith("unscaled "))
    return {**json.loads(lines[-1]), "unscaled": unscaled,
            "wall_s": time.perf_counter() - t0}


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median if median else float("nan"),
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    everything = {}
    for workload in args.workloads:
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", flush=True)
            results.append({"seed": seed, **result})
        everything[workload] = {"runs": results, "summary": summarize(results)}
        for name, row in everything[workload]["summary"].items():
            print(f"{workload:11s} {name:42s} median {row['median']:12.6g} "
                  f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} "
                  f"spread {row['spread']:.4f} {row['unit']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
