"""The library calls the benchmark makes, run once in-process.

``perfbench/workloads.py`` and ``perfbench/checks.py`` are read from the
checkout and executed as plain modules (nothing under ``perfbench/`` is
imported as a package or written), so a change to a signature the
benchmark calls — ``KernelOracle(gog, r, m, T)``,
``quotient_tree_ball(..., transversals=)``,
``build_tree_ball(..., transversals=)`` or
``hyperbolicity_estimate(ball, seed=, samples=)`` — fails here as a raised
operation rather than only in a benchmark run.
"""

from __future__ import annotations

import pathlib
import random
import types

REPO = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    path = REPO / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


W = _load("workloads")
checks = _load("checks")


def _raised(ops):
    return [f"{kind}:{name}: {out!r}" for kind, name, _secs, out in ops
            if isinstance(out, Exception)]


def test_kernel_round_decides_every_label():
    models = W.kernel_models()
    batch = W.kernel_batch(random.Random(1), models)
    ops = []
    W.kernel_round(models, batch, ops)
    assert not _raised(ops)
    decisions = [out for kind, _name, _secs, out in ops if kind == "decide"]
    assert len(ops) == len(W.KERNEL_POWERS) + len(batch) == 52
    problems = [checks.kernel_decision(cert, label)
                for cert, (_cls, _word, label) in zip(decisions, batch)]
    assert problems == [None] * len(batch)


def test_balls_pass_runs_every_operation():
    ops = []
    W.balls_pass(W.balls_models(), 1, ops)
    assert not _raised(ops)
    kinds = [kind for kind, _name, _secs, _out in ops]
    assert kinds.count("quotient") == len(W.DIHEDRAL_ORDERS)
    assert kinds.count("tree") == len(W.TREE_RADII) + 1
    assert kinds.count("coset") == 2 and kinds.count("delta") == 2
