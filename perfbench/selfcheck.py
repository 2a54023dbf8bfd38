"""Self-check of the benchmark: its gates can fail and its counts repeat.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json lists exactly the metrics ``run.py`` prints.
2. A corrupted golden-job digest (``--inject digest``) and a flipped kernel
   label (``--inject label``) each make a run report failures and exit
   non-zero.
3. Two traced runs of each workload with one seed print identical counts.
4. In a directory holding only BENCHMARK.json and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ["setup_s", "peak_rss_mib", "ok_frac", "pass_s", "focus_s",
              "rest_s"]


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def main():
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    expect([m["name"] for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS],
           "BENCHMARK.json per_layer matches layers.py")

    for workload, inject in (("jobs", "digest"), ("kernel", "label")):
        code, res = bench(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           "--inject", inject])
        expect(code != 0 and res is not None and res["failed"] > 0
               and res["correct"] is False
               and res["metrics"]["ok_frac"]["value"] < 1,
               f"--inject {inject} on {workload} fails the run "
               f"(exit {code}, failed {res and res['failed']})")

    counted = [n for n, u, _b, _m in layers.LAYER_METRICS if u == "count"]
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [bench(["--workload", workload, "--seed", "7", "--seconds",
                       "1", "--trace", "1"]) for _ in range(2)]
        ok = all(code == 0 and res is not None for code, res in runs)
        counts = [{n: res["metrics"][n]["value"] for n in counted}
                  for _code, res in runs] if ok else []
        expect(ok and counts[0] == counts[1]
               and all(isinstance(v, int) for v in counts[0].values()),
               f"traced counts on {workload} are integers and repeat")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, res = bench(["--workload", "jobs", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None,
           f"without the sources the run fails (exit {code})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
