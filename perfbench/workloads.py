"""The three workloads, driven through the public API and the job runner.

Each workload is a list of *operations* grouped into one *pass*; a run
repeats whole passes until its time is used.  Every operation's output is
kept so that :mod:`checks` can verify it after the clock stops.

* ``jobs``   -- every golden job in ``jobs/`` as its own ``python -m
  gogtools.cli JOB`` process; the seed shuffles the order.
* ``kernel`` -- four ``KernelOracle`` constructions (m = 12, 24, 48, 96) for
  r = a b a^2 b^2 a^3 b^3 over C4 * C6, then a seeded batch of raw words sent
  to ``certificate`` on the m = 12 oracle.
* ``balls``  -- dihedral quotient balls, SL2(Z) tree balls, two coset-graph
  balls and two hyperbolicity estimates.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOBS = ROOT / "jobs"
OUT = Path(__file__).resolve().parent / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

THIN_JOBS = ("m_thin_r12", "claim_audit_r12")
KERNEL_POWERS = (12, 24, 48, 96)
DIHEDRAL_ORDERS = (10, 20, 40, 80)
TREE_RADII = (12, 14, 16)
GRID_RADIUS = 20
SL2Z_QUOTIENT_RADIUS = 10
DELTA_SAMPLES = 20000


def child_env():
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- jobs ----------------------------------------------------------------------


def job_names():
    return sorted(p.stem for p in JOBS.glob("*.json"))


def run_job(name, workdir, trace_file=None):
    """One job in a fresh interpreter, from ``workdir`` so that its relative
    output paths land there.  Returns (seconds, exit code, stderr)."""
    job = str(JOBS / f"{name}.json")
    if trace_file is None:
        cmd = [sys.executable, "-m", "gogtools.cli", job]
    else:
        cmd = [sys.executable, str(CHILD), "job", job, str(trace_file)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=170)
    return time.perf_counter() - start, proc.returncode, proc.stderr.decode()


# -- models ------------------------------------------------------------------


def loop_word(gog, syllables):
    """Loop at vertex 0 of a two-vertex model from (vertex, element)
    syllables, closing the path with an identity step if needed."""
    from gogtools.gog import GroupWord

    head = 0
    rest = list(syllables)
    if rest and rest[0][0] == 0:
        head = rest.pop(0)[1]
    at, pairs = 0, []
    for v, x in rest:
        pairs.append((0 if at == 0 else 1, x))
        at = v
    if at != 0:
        pairs.append((1, 0))
    return GroupWord(gog, 0, head, pairs)


def ab_word(gog, exponents):
    """a^{e0} b^{e1} a^{e2} ... as a loop at vertex 0."""
    return loop_word(gog, [(i % 2, k) for i, k in enumerate(exponents)])


def kernel_models():
    from gogtools.finite import make_cyclic
    from gogtools.gog import fix_transversals, free_product

    fp = free_product(make_cyclic(4), make_cyclic(6))
    return {"gog": fp, "T": fix_transversals(fp),
            "r": ab_word(fp, [1, 1, 2, 2, 3, 3])}


def balls_models():
    from gogtools.concrete import FreeAbelian, SubgroupHandle, trivial_handle
    from gogtools.finite import make_cyclic, make_dihedral
    from gogtools.gog import amalgam, fix_transversals, free_product
    from gogtools.smallcanc import evaluation_wp

    c2c2 = free_product(make_cyclic(2), make_cyclic(2))
    dihedral = {}
    for n in DIHEDRAL_ORDERS:
        wp = evaluation_wp(c2c2, make_dihedral(n), [[0, n], [0, n + 1]])
        dihedral[n] = (ab_word(c2c2, [1] * (2 * n)), wp)
    tree = amalgam(make_cyclic(4), make_cyclic(6), make_cyclic(2),
                   [0, 2], [0, 3])  # SL2(Z) = C4 *_C2 C6
    Z2 = FreeAbelian(2)
    line = SubgroupHandle("line", contains=lambda x: x[1] == 0,
                          coset_key=lambda x: x[1], is_finite=False)
    return {"c2c2": c2c2, "c2c2_T": fix_transversals(c2c2),
            "dihedral": dihedral, "sl2z": tree,
            "sl2z_T": fix_transversals(tree), "Z2": Z2,
            "Z2_U": trivial_handle(Z2), "line": line}


# -- kernel ------------------------------------------------------------------


def _random_loop(rng, gog, n):
    """Reduced loop at vertex 0 with n nontrivial syllables, alternating
    the two vertex groups from a random side."""
    orders = (gog.vgroup(0).order, gog.vgroup(1).order)
    side = rng.randrange(2)
    syl = []
    for _ in range(n):
        syl.append((side, rng.randrange(1, orders[side])))
        side = 1 - side
    return loop_word(gog, syl)


def _member(rng, models, rm, rm_inv, k, conj_len):
    w = None
    for _ in range(k):
        c = _random_loop(rng, models["gog"], conj_len)
        part = c * (rm if rng.random() < 0.5 else rm_inv) * c.inverse()
        w = part if w is None else w * part
    return w


# Words per batch and class.  Slot i of a class has a fixed shape: members
# and near-misses take k = 1 + i % 3 conjugates whose conjugators have an
# even share of CONJ_MAX[k] syllables, so that word lengths spread evenly up
# to about 1000 syllables whatever k is; short words have 1 + i % 10
# syllables.  The seed draws every letter and the sign of each power.
BATCH_PER_CLASS = 16
CONJ_MAX = {1: 460, 2: 210, 3: 130}


def kernel_batch(rng, models):
    """One stratified batch of raw (unreduced) words with the label each
    has by construction: (class, word, in_kernel).  Position i holds a
    word of the same class and shape in every batch, so that per-position
    medians over batches compare like with like."""
    gog, r = models["gog"], models["r"]
    rm = r
    for _ in range(KERNEL_POWERS[0] - 1):
        rm = rm * r
    rm_inv = rm.inverse()
    comm = ab_word(gog, [1, 1, 3, 5])  # [a, b] = a b a^-1 b^-1
    batch = []
    for i in range(BATCH_PER_CLASS):
        k = 1 + i % 3
        conj = round(CONJ_MAX[k] * (i + 0.5) / BATCH_PER_CLASS)
        batch.append(("member", _member(rng, models, rm, rm_inv, k, conj),
                      True))
        batch.append(("near-miss",
                      _member(rng, models, rm, rm_inv, k, conj) * comm, False))
        batch.append(("short", _random_loop(rng, gog, 1 + i % 10), False))
    return batch


def timer(ops, tick=None):
    """A function that calls fn, appending (kind, name, seconds, output) to
    ops; ``tick`` runs before each call, outside its time.  An exception is
    the operation's output: the run goes on and the check counts it as
    failed."""
    def timed(kind, name, fn, *args, **kwargs):
        if tick is not None:
            tick()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 -- a failed operation
            out = exc
        ops.append((kind, name, time.perf_counter() - start, out))
        return out
    return timed


def kernel_round(models, batch, ops, tick=None):
    """Build the four oracles, then decide the batch on the m = 12 one."""
    from gogtools.smallcanc import KernelOracle

    timed = timer(ops, tick)
    gog, T, r = models["gog"], models["T"], models["r"]
    oracle = None
    for m in KERNEL_POWERS:
        built = timed("build", f"m{m}", KernelOracle, gog, r, m, T)
        if m == KERNEL_POWERS[0]:
            oracle = built
    for i, (cls, word, _label) in enumerate(batch):
        if isinstance(oracle, Exception):
            ops.append(("decide", f"{cls}[{i}]", 0.0, oracle))
        else:
            timed("decide", f"{cls}[{i}]", oracle.certificate, word)


# -- balls -------------------------------------------------------------------


def balls_pass(models, seed, ops, tick=None):
    """Every ball build and estimate once; the seed drives the sampled
    hyperbolicity estimate.  An estimate whose ball failed is skipped."""
    from gogtools.cayley_abels import coset_graph_ball, quotient_tree_ball
    from gogtools.complexes import hyperbolicity_estimate
    from gogtools.tree import build_tree_ball

    timed = timer(ops, tick)
    c2c2, T = models["c2c2"], models["c2c2_T"]
    dn = {}
    for n, (rel, wp) in models["dihedral"].items():
        dn[n] = timed("quotient", f"D{n}", quotient_tree_ball, c2c2,
                      [rel], n, wp=wp, transversals=T)
    tree, TT = models["sl2z"], models["sl2z_T"]
    for R in TREE_RADII:
        timed("tree", f"sl2z_R{R}", build_tree_ball, tree, R,
              transversals=TT)
    R = SL2Z_QUOTIENT_RADIUS
    sl2z_ball = timed("tree", f"sl2z_quotient_R{R}", quotient_tree_ball,
                      tree, [], R, transversals=TT)
    Z2, U = models["Z2"], models["Z2_U"]
    timed("coset", f"grid_R{GRID_RADIUS}", coset_graph_ball, Z2, U,
          [(1, 0), (0, 1)], [], GRID_RADIUS)
    timed("coset", f"coned_R{GRID_RADIUS}", coset_graph_ball, Z2, U,
          [(1, 0), (0, 1)], [models["line"]], GRID_RADIUS)
    for name, ball, kwargs in (
            ("delta_D20", dn[20], {}),
            (f"delta_sl2z_quotient_R{R}", sl2z_ball,
             {"seed": seed, "samples": DELTA_SAMPLES})):
        if not isinstance(ball, Exception):
            timed("delta", name, hyperbolicity_estimate, ball, **kwargs)
