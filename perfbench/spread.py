"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads jobs kernel balls --seeds 10 \\
        [--first-seed 1] [--traced] [--out FILE]

For every end-to-end metric of every workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  With ``--traced`` it also makes one ``--trace 1`` run per
workload and keeps its per-layer metrics.  ``--out`` writes everything,
with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {}
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(w, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
        stats = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bound}
            print(f"{w:7s} {name:13s} median {med:11.4f}  q1 {q1:11.4f}  "
                  f"q3 {q3:11.4f}  spread {spread:6.3f}  bound {bound}",
                  flush=True)
        report[w] = {"runs": runs, "end_to_end": stats}
        if args.traced:
            res = run_once(w, args.first_seed, bench["run_seconds"], 1)
            report[w]["per_layer"] = {k: v["value"]
                                      for k, v in res["metrics"].items()}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
