"""gogtools benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {jobs,kernel,balls} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the toolkit is imported from ``src/`` and
the golden jobs are read from ``jobs/``.  Load comes from this one process
in a closed loop, one operation at a time.

``--trace 0`` measures set-up (several cold interpreters), then repeats
passes of the workload for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a warm-up pass, then one untraced and one traced pass of
the same inputs, and prints the per-layer metrics of the traced pass, with
its overhead.  Every
output is checked after the clock stops; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any operation failed.  A fuller record, with provenance and every
percentile's sample count, goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import layers
import reference
import tracer
import workloads as W

SETUP_REPEATS = 7
MAX_REASONS = 20


class Run:
    """Operations attempted in one run, their times and their failures."""

    def __init__(self, workload, args):
        self.workload = workload
        self.args = args
        self.attempted = 0
        self.reasons = []
        self.failed = 0
        self.samples = defaultdict(list)   # (part, slot) -> seconds
        self.latency = defaultdict(list)   # series name -> seconds
        self.passes = 0
        self.setup = []
        self.start = None
        self.peak_rss = 0
        self.speed = reference.Speed()
        self.setup_speed = reference.Speed()

    def begin(self):
        self.start = time.perf_counter()

    def note_pass(self):
        """Count a finished pass.  Peak memory is read after the first one:
        later passes repeat its work, and the outputs the benchmark keeps
        for its checks should not count."""
        self.passes += 1
        if self.passes == 1:
            self.peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def time_up(self):
        """True once a whole pass is done and ``--seconds`` have passed."""
        return self.passes > 0 and \
            time.perf_counter() - self.start >= self.args.seconds

    def op(self, part, slot, seconds, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{slot}: {problem}")
            return
        self.samples[(part, slot)].append(seconds)

    def part_s(self, parts=None):
        """Sum over the operation slots of ``parts`` of each slot's median
        over passes."""
        return sum(statistics.median(v) for (part, _), v in self.samples.items()
                   if parts is None or part in parts)


def summary(values):
    """Median and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v) if v else None,
           "tail": None}
    if len(v) >= 11:
        i = len(v) - 11
        out["tail"] = {"pct": 100 * (i + 1) // len(v), "value": v[i],
                       "beyond": len(v) - 1 - i}
    return out


def _exc(e):
    return f"{type(e).__name__}: {e}"


# -- set-up ------------------------------------------------------------------


def measure_setup(run):
    """Cold interpreters: ``gogtool --print-schema`` for jobs, otherwise the
    toolkit import plus the workload's models and transversals."""
    if run.workload == "jobs":
        cmd = [sys.executable, "-m", "gogtools.cli", "--print-schema"]
    else:
        cmd = [sys.executable, str(W.CHILD), "setup", run.workload]
    for _ in range(SETUP_REPEATS):
        run.setup_speed.samples.append(reference.probe())
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=W.OUT, env=W.child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        seconds = time.perf_counter() - start
        run.attempted += 1
        if proc.returncode != 0:
            run.failed += 1
            run.reasons.append(f"set-up exit {proc.returncode}: "
                               f"{proc.stderr.decode()[-300:]}")
        else:
            run.setup.append(seconds)
    run.setup_speed.samples.append(reference.probe())


# -- jobs --------------------------------------------------------------------


def load_digests(inject):
    with open(Path(__file__).parent / "digests.json") as f:
        ref = json.load(f)["jobs"]
    if inject == "digest":
        name = sorted(ref)[0]
        rel = sorted(ref[name])[0]
        ref[name][rel] = ("0" if ref[name][rel][0] != "0" else "1") + \
            ref[name][rel][1:]
    return ref


def jobs_pass(run, order, ref, workdir, trace_dir=None, timed=False):
    """Each job once; returns the pass's summed job seconds.  With
    ``timed``, stops after any job once the run's time is up (the later
    passes need not be whole: each job's median is taken separately)."""
    total = 0.0
    for name in order:
        for rel in ref.get(name, {}):
            (workdir / rel).unlink(missing_ok=True)
        trace_file = None if trace_dir is None else trace_dir / f"{name}.json"
        if timed:
            run.speed.tick()
        seconds, code, err = W.run_job(name, workdir, trace_file)
        total += seconds
        problem = None
        if name not in ref:
            problem = "no reference digests for this job"
        elif code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        else:
            problem = checks.job_outputs(workdir, ref[name])
        part = "focus" if name in W.THIN_JOBS else "rest"
        run.op(part, name, seconds, problem)
        if problem is None:
            run.latency["job"].append(seconds)
        if timed and run.time_up():
            break
    return total


def workload_jobs(run):
    ref = load_digests(run.args.inject)
    workdir = W.OUT / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(run.args.seed)
    names = W.job_names()
    if run.args.trace:
        order = names[:]
        rng.shuffle(order)
        jobs_pass(run, order, ref, workdir)  # warm-up
        plain = jobs_pass(run, order, ref, workdir)
        trace_dir = W.OUT / "spans"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        traced = jobs_pass(run, order, ref, workdir, trace_dir=trace_dir)
        dumps = []
        for name in order:
            path = trace_dir / f"{name}.json"
            if path.is_file():
                with open(path) as f:
                    dumps.append(json.load(f))
        return plain, traced, tracer.merge(dumps)
    run.begin()
    while not run.time_up():
        order = names[:]
        rng.shuffle(order)
        jobs_pass(run, order, ref, workdir, timed=True)
        run.passes += 1
    run.peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return None


# -- kernel ------------------------------------------------------------------


def traced_pair(one_pass):
    """A warm-up call of ``one_pass``, then one untraced and one traced
    call; returns the last two wall times and the merged spans of the
    traced call."""
    one_pass()
    start = time.perf_counter()
    one_pass()
    plain = time.perf_counter() - start
    tr = tracer.Tracer()
    tr.install()
    try:
        start = time.perf_counter()
        one_pass()
        traced = time.perf_counter() - start
    finally:
        tr.remove()
    return plain, traced, tracer.merge([tr.dump()])


def kernel_pass(run, models, batch, tick=None):
    """One round; records and checks every operation."""
    ops = []
    W.kernel_round(models, batch, ops, tick)
    decisions = iter(batch)
    for kind, name, secs, out in ops:
        if kind == "build":
            run.op("rest", name, secs, _exc(out) if isinstance(out, Exception)
                   else None)
            continue
        cls, _word, label = next(decisions)
        if isinstance(out, Exception):
            problem = _exc(out)
        else:
            problem = checks.kernel_decision(out, label)
        run.op("focus", name, secs, problem)
        if problem is None:
            run.latency["decision"].append(secs)
            run.latency[f"decision.{cls}"].append(secs)
            run.latency[f"decision.method.{out['method']}"].append(secs)


def workload_kernel(run):
    models = W.kernel_models()
    rng = random.Random(run.args.seed)

    def batch():
        b = W.kernel_batch(rng, models)
        if run.args.inject == "label":
            cls, word, label = b[0]
            b[0] = (cls, word, not label)
        return b

    if run.args.trace:
        b = batch()
        return traced_pair(lambda: kernel_pass(run, models, b))
    run.begin()
    while not run.time_up():
        kernel_pass(run, models, batch(), run.speed.tick)
        run.note_pass()
    return None


# -- balls -------------------------------------------------------------------


def check_balls(run, ops):
    """Check one pass's outputs; records every operation."""
    balls = {}
    for kind, name, secs, out in ops:
        part = "focus" if kind == "quotient" else "rest"
        slot = f"{kind}:{name}"
        if isinstance(out, Exception):
            run.op(part, slot, secs, _exc(out))
            continue
        if kind == "quotient":
            problem = checks.dihedral_ball(out, int(name[1:]))
        elif kind == "tree":
            # SL2(Z) = C4 *_C2 C6: indices 4/2 and 6/2
            problem = checks.tree_levels(out, int(name.rsplit("R", 1)[1]),
                                         (2, 3))
        elif kind == "coset":
            problem = checks.grid_ball(out, int(name.rsplit("R", 1)[1]),
                                       coned=name.startswith("coned"))
        else:
            problem = checks.hyperbolicity(out, balls[name[len("delta_"):]],
                                           samples=W.DELTA_SAMPLES)
        balls[name] = out
        run.op(part, slot, secs, problem)


def workload_balls(run):
    models = W.balls_models()
    seed = run.args.seed
    passes = []

    def one_pass(tick=None):
        passes.append([])
        W.balls_pass(models, seed, passes[-1], tick)

    traced = None
    if run.args.trace:
        traced = traced_pair(one_pass)
    else:
        run.begin()
        while not run.time_up():
            one_pass(run.speed.tick)
            run.note_pass()
    for ops in passes:
        check_balls(run, ops)
    return traced


WORKLOADS = {"jobs": workload_jobs, "kernel": workload_kernel,
             "balls": workload_balls}


# -- reporting ---------------------------------------------------------------


def provenance(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "git_head": git_head(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "inject": args.inject}


def git_head():
    """HEAD of the checkout when it is a git work tree, read from
    ``.git`` without running git; None otherwise."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(run):
    """The metrics of BENCHMARK.json; times in reference seconds."""
    focus, rest = run.part_s({"focus"}), run.part_s({"rest"})
    setup = statistics.median(run.setup) if run.setup else 0.0
    k, ks = run.speed.factor(), run.setup_speed.factor()
    return {
        "setup_s": (setup * ks, "s"),
        "peak_rss_mib": (run.peak_rss / 1024, "MiB"),
        "ok_frac": (1 - run.failed / max(run.attempted, 1), "frac"),
        "pass_s": ((focus + rest) * k, "s"),
        "focus_s": (focus * k, "s"),
        "rest_s": (rest * k, "s"),
    }


def workload_detail(run):
    """The workload's own figures, in wall seconds, named by workload."""
    w = run.workload
    d = {"passes": run.passes,
         "note": "times below are wall seconds; multiply by speed.factor "
                 "for the reference seconds of the metrics",
         "speed": {"reference_s": reference.REFERENCE_S,
                   "factor": run.speed.factor(),
                   "probes": summary(run.speed.samples),
                   "setup_factor": run.setup_speed.factor(),
                   "setup_probes": summary(run.setup_speed.samples)},
         "setup_s": {"n": len(run.setup),
                     "median": statistics.median(run.setup)
                     if run.setup else None, "samples": run.setup},
         "slots": {f"{p}:{s}": {"n": len(v), "median": statistics.median(v),
                                "samples": v}
                   for (p, s), v in sorted(run.samples.items())}}
    if w == "jobs":
        d["jobs.pass_s"] = run.part_s()
        d["jobs.thin_s"] = run.part_s({"focus"})
        d["jobs.light_s"] = run.part_s({"rest"})
    elif w == "kernel":
        decisions = run.latency["decision"]
        d["kernel.build_s"] = run.part_s({"rest"})
        d["kernel.decisions_per_s"] = len(decisions) / sum(decisions) \
            if decisions else 0.0
        lat = summary(decisions)
        d["kernel.latency_p50_ms"] = None if lat["median"] is None \
            else 1e3 * lat["median"]
        d["kernel.latency_tail_ms"] = lat["tail"] and dict(
            lat["tail"], value=1e3 * lat["tail"]["value"])
    else:
        for kind in ("quotient", "tree", "coset", "delta"):
            d[f"balls.{kind}_s"] = sum(
                statistics.median(v) for (_p, s), v in run.samples.items()
                if s.startswith(kind + ":"))
        d["balls.pass_s"] = run.part_s()
    d["latency"] = {k: summary(v) for k, v in sorted(run.latency.items())}
    return d


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("digest", "label"),
                    help="corrupt one reference value (self-check only): "
                         "a golden-job digest or a kernel label")
    args = ap.parse_args(argv)
    if not (W.SRC / "gogtools" / "__init__.py").is_file() or \
            not W.JOBS.is_dir():
        print(f"error: no toolkit sources under {W.SRC} or no jobs under "
              f"{W.JOBS}; run from the root of a gogtools checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    W.OUT.mkdir(parents=True, exist_ok=True)

    run = Run(args.workload, args)
    if not args.trace:
        measure_setup(run)
    traced = WORKLOADS[args.workload](run)

    record = {"provenance": provenance(args), "attempted": run.attempted,
              "failed": run.failed,
              "failed_frac": run.failed / max(run.attempted, 1),
              "failures": run.reasons}
    if traced is None:
        metrics = end_to_end(run)
        record["detail"] = workload_detail(run)
    else:
        plain, traced_s, (calls, total, self_s, counts) = traced
        overhead = traced_s / plain - 1 if plain and traced_s else 0.0
        values = layers.layer_values(calls, total, self_s, counts, overhead)
        units = {n: u for n, u, _b, _m in layers.LAYER_METRICS}
        metrics = {n: (values[n], units[n]) for n in units}
        record["detail"] = {"untraced_pass_s": plain, "traced_pass_s": traced_s,
                            "spans": {n: {"calls": calls[n], "total_s": total[n],
                                          "self_s": self_s[n]}
                                      for n in sorted(calls)}}
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    results = W.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    for reason in run.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
