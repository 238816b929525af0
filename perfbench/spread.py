"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads walk,stack,check] [--out FILE]

Runs the benchmark command from BENCHMARK.json once per seed and workload,
one run at a time, and prints for each metric the median of the runs and
the distance between their first and third quartiles as a share of that
median.  With --out, writes every run's figures and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def revision():
    """The checkout's git commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"revision": revision(), "run_seconds": bench["run_seconds"],
              "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "python": sys.version.split()[0], "cpus": os.cpu_count(),
              "summary": {}, "runs": {}}
    for wl in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.monotonic() - t0
            runs.append(result)
            print("%s seed %d: %.1f s, correct=%s, %s" % (
                wl, seed, result["wall_s"], result["correct"],
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                flush=True)
        report["runs"][wl] = runs
        report["summary"][wl] = {}
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            report["summary"][wl][metric] = s
            bound = bounds.get(metric)
            print("  %-12s %-14s median %-12.5g spread %.3f%s" % (
                wl, metric, s["median"], s["iqr_share"],
                "" if bound is None else " (bound %.2f)" % bound), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
