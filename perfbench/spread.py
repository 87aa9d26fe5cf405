#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json on several seeds per workload, from the
repository root, and prints for every end-to-end metric the median of the
runs and their spread: (q3 - q1) / median, with the quartiles taken by
statistics.quantiles(values, n=4). A spread at or below a third of the
metric's bound is marked "steady"; the spread of setup_s is not gated, only
its median.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads detailed,sweep]

Each run's final JSON line is appended to --out (default
perfbench/out/spread.jsonl) together with its workload and seed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "spread.jsonl"))
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    failed = False
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            with out.open("a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "(spread not gated)"
            else:
                verdict = "steady" if spread <= m["bound"] / 3 else "NOT steady"
            print(f"{w:<9} {m['name']:<12} median {med:<12.6g} spread {spread:7.4f} "
                  f"bound {m['bound']:<5} n={len(v)} {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
