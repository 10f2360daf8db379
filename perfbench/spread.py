#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's
median, quartiles and spread (interquartile distance over the median, from
`statistics.quantiles(n=4)`), against the bounds declared in
BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--workload serve_poll ...]
        [--first-seed 1] [--trace 0] [--bin path/to/perfbench]

Run from the repository root. Without --bin it runs the declared command.
Each run's full output is kept under <target dir>/perfbench-work/runs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    command = [args.bin] if args.bin else bench["command"]
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", "perfbench/target"), "perfbench-work", "runs")
    os.makedirs(out_dir, exist_ok=True)

    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in declared}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = command + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            log = os.path.join(out_dir, f"{workload}-seed{seed}-trace{args.trace}.txt")
            with open(log, "w") as f:
                f.write(proc.stdout + "\n--- stderr ---\n" + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode}), see {log}")
                sys.exit(1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        print(f"\n{workload}: {args.runs} runs")
        for m in declared:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {m['name']:<32} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}" + (f"  bound {bound} {flag}" if bound is not None else ""))
        print()
    if args.trace != "1":
        print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
