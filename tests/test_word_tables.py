"""The word layer against its dict- and method-based predecessor.

``reduce_word``, ``rotate_once``, ``cyclically_reduce``, ``syllable_length``
and the ``GroupWord`` product, inverse and end read the flat per-edge
tuples of ``GraphOfGroups.transversals``.  The versions below are
the ones they replaced, kept as the reference: they build their own
dict-based transversal table and call ``SerreGraph`` and
``GraphOfGroups`` methods at every syllable.  Seeded raw words with forced
pinches (backtracking edges carrying image elements, w·w⁻¹ splices and
conjugates) run over every named model and a relabelled S3 ∗_{C2} D4, and
each routine must give exactly the reference's output.

The Dehn path is pinned as well: the (in_kernel, method, area) of every
word of the seed-1 ``kernel`` benchmark batch, and a digest of the Dehn
traces of those words, were recorded before the tables went in.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
import random
import types

import pytest

from gogtools.gog import (
    GroupWord,
    cyclically_reduce,
    identity_word,
    reduce_word,
    rotate_once,
    syllable_length,
)
from gogtools.models import MODELS
from gogtools.smallcanc import _dehn_reduce
from test_tree import _relabelled_s3_d4


# -- the reference: the word layer before the flat tables -------------------


def _image(gog, e):
    return frozenset(gog.inj[e].map)


class OldTransversals:
    def __init__(self, gog):
        self.gog = gog
        self.reps = {}
        self.decomp = {}
        g = gog.graph
        for e in range(g.num_edges):
            G = gog.vgroup(g.t(e))
            h = gog.inj[e]
            image = sorted(h.map)
            pre = {h.map[c]: c for c in range(h.source.order)}
            seen = {}
            reps = []
            for x in range(G.order):
                if x in seen:
                    continue
                coset = sorted(G.table[y][x] for y in image)
                rep = G.identity if G.identity in coset else coset[0]
                reps.append(rep)
                for z in coset:
                    seen[z] = rep
            table = {}
            for gg in range(G.order):
                x = seen[gg]
                hx = G.table[gg][G.inv[x]]  # g * x^-1 ∈ H
                table[gg] = (pre[hx], x)
            self.reps[e] = reps
            self.decomp[e] = table


@functools.cache
def _old_decomp(gog):
    return OldTransversals(gog).decomp


def old_end(w):
    if not w.pairs:
        return w.start
    return w.gog.graph.t(w.pairs[-1][0])


def old_mul(self, other):
    if other.start != old_end(self):
        raise ValueError("cannot concatenate")
    if not self.pairs:
        G = self.gog.vgroup(self.start)
        return GroupWord._trusted(self.gog, self.start,
                                  G.op(self.head, other.head), other.pairs)
    e_last, x_last = self.pairs[-1]
    G = self.gog.vgroup(old_end(self))
    merged = self.pairs[:-1] + ((e_last, G.op(x_last, other.head)),) + other.pairs
    return GroupWord._trusted(self.gog, self.start, self.head, merged)


def old_inverse(self):
    gog = self.gog
    g = gog.graph
    verts = [self.start] + [g.t(e) for e, _ in self.pairs]
    elements = [self.head] + [x for _, x in self.pairs]
    invs = [gog.vgroup(v).inv[x] for v, x in zip(verts, elements)]
    pairs = [(g.bar(self.pairs[i][0]), invs[i])
             for i in range(len(self.pairs) - 1, -1, -1)]
    return GroupWord._trusted(gog, verts[-1], invs[-1], pairs)


def old_reduce_word(w):
    gog = w.gog
    g = gog.graph
    decomp = _old_decomp(gog)
    head = w.head
    items = []
    for e, x in w.pairs:
        if items:
            e1, h1 = items[-1]
            if e == g.bar(e1) and h1 in _image(gog, e1):
                c = decomp[e1][h1][0]
                items.pop()
                Gm = gog.vgroup(g.t(e))
                merged = Gm.op(gog.inj[e].map[c], x)
                if items:
                    items[-1][1] = Gm.op(items[-1][1], merged)
                else:
                    head = Gm.op(head, merged)
                continue
        items.append([e, x])
    for j in range(len(items) - 1, -1, -1):
        e, x = items[j]
        c, rep = decomp[e][x]
        items[j][1] = rep
        corr = gog.inj[g.bar(e)].map[c]
        Gm = gog.vgroup(g.o(e))
        if j == 0:
            head = Gm.op(head, corr)
        else:
            items[j - 1][1] = Gm.op(items[j - 1][1], corr)
    return GroupWord._trusted(gog, w.start, head, map(tuple, items))


def old_syllable_length(w):
    gog = w.gog
    n = 0
    if w.head != gog.vgroup(w.start).identity:
        n += 1
    g = gog.graph
    for e, x in w.pairs:
        if x != gog.vgroup(g.t(e)).identity:
            n += 1
    return n


def old_sweep(head, start, items, j, corr, gog):
    g = gog.graph
    decomp = _old_decomp(gog)
    while j >= 0:
        e, x = items[j]
        x = gog.vgroup(g.t(e)).op(x, corr)
        c, rep = decomp[e][x]
        items[j] = (e, rep)
        if rep == x:
            return head
        corr = gog.inj[g.bar(e)].map[c]
        j -= 1
    return gog.vgroup(start).op(head, corr)


def old_notch(head, items, gog):
    g = gog.graph
    e1, new_head = items.pop(0)
    v1 = g.t(e1)
    G1 = gog.vgroup(v1)
    if not items:
        items.append((e1, G1.identity))
        return v1, G1.op(new_head, head)
    e_n, x_n = items[-1]
    seam = gog.vgroup(g.t(e_n)).op(x_n, head)
    if e1 == g.bar(e_n) and seam in _image(gog, e_n):
        items.pop()
        decomp = _old_decomp(gog)
        j, corr = len(items) - 1, gog.inj[e1].map[decomp[e_n][seam][0]]
    else:
        items.append((e1, G1.identity))
        j, corr = len(items) - 2, head
    return v1, old_sweep(new_head, v1, items, j, corr, gog)


def old_rotate_once(w):
    if not w.pairs:
        return w
    items = list(w.pairs)
    start, head = old_notch(w.head, items, w.gog)
    return GroupWord._trusted(w.gog, start, head, items)


def old_cyclically_reduce(w):
    red = old_reduce_word(w)
    core, steps = old_cyclic_core(red)
    return core, old_conjugator(red, steps)


def old_cyclic_core(red):
    gog = red.gog
    g = gog.graph
    start, head = red.start, red.head
    items = list(red.pairs)
    steps = []
    for _ in range(len(items) + 2):
        if not items:
            break
        e_last, x_last = items[-1]
        G_at = gog.vgroup(start)
        f1 = items[0][0]
        pinchable = (len(items) >= 2 and f1 == g.bar(e_last)
                     and G_at.op(x_last, head) in _image(gog, e_last))
        if not pinchable and x_last == G_at.identity:
            break
        steps.append((head, f1))
        start, head = old_notch(head, items, gog)
    else:
        raise RuntimeError("cyclic reduction failed to stabilize")
    if not steps:
        return red, steps
    return GroupWord._trusted(gog, start, head, items), steps


def old_conjugator(red, steps):
    gog, start = red.gog, red.start
    if not steps:
        return identity_word(gog, start)
    g = gog.graph
    pairs = [(f, h) for (_h, f), (h, _f) in zip(steps, steps[1:])]
    f_k = steps[-1][1]
    pairs.append((f_k, gog.vgroup(g.t(f_k)).identity))
    return old_reduce_word(GroupWord._trusted(gog, start, steps[0][0], pairs))


# -- seeded raw words with forced pinches -----------------------------------


def _walk(gog, rng, start, n, end=None):
    """A raw path of n steps from ``start``, closed at ``end`` by one more
    edge if needed (every model here has at most two vertices); half the
    steps backtrack across the previous edge and half the elements lie in
    the edge's image, so pinches, and cascades of them, are common."""
    g = gog.graph
    at, pairs = start, []
    for _ in range(n):
        if pairs and rng.random() < 0.5:
            e = pairs[-1][0] ^ 1
        else:
            e = rng.choice(g.edges_at(at))
        if rng.random() < 0.5:
            x = rng.choice(gog.inj[e].map)
        else:
            x = rng.randrange(gog.vgroup(g.t(e)).order)
        pairs.append((e, x))
        at = g.t(e)
    if end is not None and at != end:
        e = next(e for e in g.edges_at(at) if g.t(e) == end)
        pairs.append((e, rng.randrange(gog.vgroup(end).order)))
    return GroupWord(gog, start, rng.randrange(gog.vgroup(start).order), pairs)


def _raw_loops(gog, rng, count):
    for i in range(count):
        w = _walk(gog, rng, 0, rng.randrange(0, 14), end=0)
        if i % 3 == 1:
            # splice u·u⁻¹ into the middle of w
            cut = rng.randrange(len(w.pairs) + 1)
            left = GroupWord._trusted(gog, 0, w.head, w.pairs[:cut])
            right_start = old_end(left)
            u = _walk(gog, rng, right_start, rng.randrange(1, 8))
            rest = GroupWord._trusted(gog, right_start,
                                      gog.vgroup(right_start).identity,
                                      w.pairs[cut:])
            w = old_mul(old_mul(old_mul(left, u), old_inverse(u)), rest)
        elif i % 3 == 2:
            # a conjugate c·w·c⁻¹
            c = _walk(gog, rng, 0, rng.randrange(1, 8), end=0)
            w = old_mul(old_mul(c, w), old_inverse(c))
        yield w


MODELS_UNDER_TEST = [MODELS[name] for name in sorted(MODELS)]
MODELS_UNDER_TEST.append(_relabelled_s3_d4)


@pytest.mark.parametrize("make", MODELS_UNDER_TEST,
                         ids=[*sorted(MODELS), "relabelled_s3_d4"])
def test_word_layer_matches_the_method_based_reference(make):
    gog = make()
    rng = random.Random(0x7AB1E)
    for w in _raw_loops(gog, rng, 150):
        assert syllable_length(w) == old_syllable_length(w)
        assert w.end == old_end(w)
        inv = w.inverse()
        assert inv == old_inverse(w) and inv.pairs == old_inverse(w).pairs
        assert w * inv == old_mul(w, inv)
        red = reduce_word(w)
        assert red == old_reduce_word(w), w
        assert syllable_length(red) == old_syllable_length(red)
        assert reduce_word(inv) == old_reduce_word(old_inverse(w))
        assert cyclically_reduce(w) == old_cyclically_reduce(w), w
        cur = red
        for _ in range(len(red.pairs) + 1):
            nxt = rotate_once(cur)
            assert nxt == old_rotate_once(cur), cur
            cur = nxt


# -- the Dehn path of the kernel benchmark batch ----------------------------

REPO = pathlib.Path(__file__).resolve().parents[1]


def _load_workloads():
    path = REPO / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


# Recorded before the flat tables: slot i of the batch holds a member and
# a near-miss of 1 + i % 3 conjugates, each decided by Dehn reduction in
# 1 + i % 3 steps, then a short word refuted by its abelianized image.
PINNED_DECISIONS = [
    decision
    for i in range(16)
    for decision in ((True, "dehn", 1 + i % 3), (False, "dehn", 1 + i % 3),
                     (False, "abelianized-image", None))
]
PINNED_TRACE_DIGEST = (
    "9456bebcca7270a906439815e3a6384190b89464e7891112593ff378dd6c24c7")


def test_kernel_batch_dehn_path_is_pinned():
    from gogtools.smallcanc import KernelOracle

    W = _load_workloads()
    models = W.kernel_models()
    batch = W.kernel_batch(random.Random(1), models)
    oracle = KernelOracle(models["gog"], models["r"], W.KERNEL_POWERS[0])
    got, traces = [], []
    for _cls, word, _label in batch:
        cert = oracle.certificate(word)
        got.append((cert["in_kernel"], cert["method"], cert.get("area")))
        if cert["method"] == "dehn":
            red = reduce_word(word)
            res = _dehn_reduce(red, oracle.S, syllable_length(red))
            traces.append(repr((res.word, res.area, res.trace)))
    assert got == PINNED_DECISIONS
    digest = hashlib.sha256("\n".join(traces).encode()).hexdigest()
    assert digest == PINNED_TRACE_DIGEST
