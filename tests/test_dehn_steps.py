"""Local Dehn steps against the full-rebuild loop they replaced.

``smallcanc._dehn_reduce`` scans the word's (edge, element) pairs keyed
on q of them, reduces each complement once per (member, l) and splices
the replacement in at its seams (``gog._splice``), counting syllables
over the changed window.  The versions below are the ones it replaced,
kept as the reference: a one-position anchor table, a replacement that
runs two full reductions, and a loop that rebuilds the position list
after every step.  Seeded conjugates, products of conjugates and
near-misses run over every named model, and both must return the same
(word, area, trace).  ``KernelOracle.certificate``, which runs Dehn on
the cyclic core over trivial edge groups, is checked against the same
decisions made on the reduced word.
"""

from __future__ import annotations

import random

import pytest

from fixtures import (
    counting,
    positions,
    random_amalgam_word,
    random_hnn_word,
)
from gogtools import smallcanc
from gogtools.errors import UnsupportedInput
from gogtools.gog import (
    GroupWord,
    _conjugator,
    _cyclic_core,
    cyclically_reduce,
    reduce_word,
    syllable_length,
)
from gogtools.models import MODELS, ab_word
from gogtools.smallcanc import (
    DehnResult,
    KernelOracle,
    _dehn_reduce,
    symmetrize,
    word_power,
)
from test_tree import _relabelled_s3_d4
from test_word_tables import _load_workloads, old_reduce_word


# -- the reference: the Dehn loop before local steps -------------------------


def old_match_table(S):
    ident = [G.identity for G in S.gog.vgroups]
    tab = {}
    mempos = []
    for idx, s in enumerate(S.members):
        ps = positions(s)
        syls = [int(x != ident[v]) for v, x, _ in ps]
        mempos.append((s, ps, syls, sum(syls)))
        if len(ps) > 1:
            tab.setdefault(ps[1], []).append(idx)
    return tab, mempos


def old_best_match_at(wpos, wsyl, i, cands, mempos):
    best = None
    for idx in cands:
        _s, ps, syls, total = mempos[idx]
        if ps[0][0] != wpos[i][0]:
            continue
        run = 0
        while (1 + run < len(ps) and i + 1 + run < len(wpos)
               and ps[1 + run] == wpos[i + 1 + run]):
            run += 1
        if 2 * (run + 2) <= total:
            continue
        for l in (run + 2, run + 1):
            if l > len(ps) or i + l > len(wpos):
                continue
            if l == run + 2 and ps[l - 1][2] != wpos[i + l - 1][2]:
                continue
            if l < 2:
                continue
            matched = (syls[0] * wsyl[i] + sum(syls[1:l - 1])
                       + syls[l - 1] * wsyl[i + l - 1])
            if 2 * matched <= total:
                continue
            if best is None or l > best[0]:
                best = (l, idx, matched)
            break
    return best


def old_replace(cur, wpos, i, l, member):
    s, ps, _syls, _tot = member
    gog = cur.gog
    u = GroupWord._trusted(gog, s.start, s.head, s.pairs[:l - 1])
    Gv = gog.vgroup(ps[0][0])
    p_elt = Gv.op(wpos[i][1], Gv.inv[ps[0][1]])
    if i == 0:
        A_hat = GroupWord._trusted(gog, cur.start, p_elt)
    else:
        e_i = wpos[i][2]
        A_hat = GroupWord._trusted(gog, cur.start, cur.head,
                                   cur.pairs[:i - 1] + ((e_i, p_elt),))
    Gq = gog.vgroup(ps[l - 1][0])
    q_elt = Gq.op(Gq.inv[ps[l - 1][1]], wpos[i + l - 1][1])
    C_hat = GroupWord._trusted(gog, ps[l - 1][0], q_elt,
                               cur.pairs[i + l - 1:])
    t_comp = reduce_word(u.inverse() * s)
    return A_hat, reduce_word(A_hat * t_comp.inverse() * C_hat)


def old_dehn_reduce(cur, S, guard=10 ** 4):
    ident = [G.identity for G in S.gog.vgroups]
    tab, mempos = old_match_table(S)
    original = cur
    trace = []
    area = 0
    for _step in range(guard):
        wpos = positions(cur)
        wsyl = [int(x != ident[v]) for v, x, _e in wpos]
        before = sum(wsyl)
        step = None
        for i in range(len(wpos) - 1):
            cands = tab.get(wpos[i + 1], ())
            hit = old_best_match_at(wpos, wsyl, i, cands, mempos)
            if hit is None:
                continue
            l, idx, _matched = hit
            A_hat, nxt = old_replace(cur, wpos, i, l, mempos[idx])
            if syllable_length(nxt) < before:
                step = (A_hat, idx, nxt)
                break
        if step is None:
            core, steps = _cyclic_core(cur)
            if syllable_length(core) < before:
                trace.append(("conjugate", _conjugator(cur, steps)))
                cur = core
                continue
            break
        A_hat, idx, cur = step
        trace.append(("relator", A_hat, idx))
        area += 1
    else:
        raise RuntimeError(f"Dehn reduction exceeded {guard} steps")
    return DehnResult(original, cur, area, trace, S)


# -- seeded inputs ------------------------------------------------------------


def _path(gog, rng, start, n, end=None):
    """A path of about n steps from ``start`` that never backtracks, with
    random elements (image elements included, so seams carry corrections),
    closed at ``end`` by one more edge where needed."""
    g = gog.graph
    at, pairs = start, []
    for _ in range(n):
        edges = [e for e in g.edges_at(at)
                 if not pairs or e != pairs[-1][0] ^ 1] or g.edges_at(at)
        e = rng.choice(edges)
        at = g.t(e)
        pairs.append((e, rng.randrange(gog.vgroup(at).order)))
    if end is not None and at != end:
        e = next(e for e in g.edges_at(at) if g.t(e) == end)
        pairs.append((e, rng.randrange(gog.vgroup(end).order)))
    return GroupWord(gog, start, rng.randrange(gog.vgroup(start).order),
                     pairs)


def _symmetrized(gog, rng):
    """The symmetrized set of the cube of a random cyclically reduced loop
    with at least four edges."""
    while True:
        core, _ = cyclically_reduce(_path(gog, rng, 0, rng.randrange(4, 9),
                                          end=0))
        if len(core.pairs) >= 4:
            return symmetrize(word_power(core, 3))


def _words(S, rng, count):
    """Conjugates of members, products of two or three of them, and
    near-misses (a conjugate times a short loop), all based at vertex 0."""
    gog = S.gog

    def conjugate():
        s = rng.choice(S.members)
        g = _path(gog, rng, 0, rng.randrange(0, 5), end=s.start)
        return g * s * g.inverse()

    for i in range(count):
        w = conjugate()
        if i % 3 == 1:
            for _ in range(rng.randrange(1, 3)):
                w = w * conjugate()
        elif i % 3 == 2:
            w = w * _path(gog, rng, 0, rng.randrange(1, 4), end=0)
        yield reduce_word(w)


MODELS_UNDER_TEST = [MODELS[name] for name in sorted(MODELS)]
MODELS_UNDER_TEST.append(_relabelled_s3_d4)
IDS = [*sorted(MODELS), "relabelled_s3_d4"]


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_splice_is_a_full_reduction_with_its_window(make):
    # raw words w[:i]·x·mid·w[k:] whose mid often ends on the bar of
    # w's edge at k with an image element, so the seam itself pinches
    gog = make()
    rng = random.Random(0x5B1 + MODELS_UNDER_TEST.index(make))
    for _ in range(200):
        w = reduce_word(_path(gog, rng, 0, rng.randrange(0, 10), end=0))
        wpos, n = positions(w), len(w.pairs)
        i = rng.randrange(n + 1)
        k = rng.randrange(i, n + 1)
        x = rng.randrange(gog.vgroup(wpos[i][0]).order)
        if k < n and rng.random() < 0.5:
            f = w.pairs[k][0] ^ 1
            mid = _path(gog, rng, wpos[i][0], rng.randrange(0, 4),
                        end=gog.graph.o(f)).pairs
            mid += ((f, rng.choice(gog.inj[f].map)),)
        else:
            mid = _path(gog, rng, wpos[i][0], rng.randrange(0, 4),
                        end=wpos[k][0]).pairs
        head = x if i == 0 else w.head
        pairs = w.pairs[:i - 1] + ((w.pairs[i - 1][0], x),) if i else ()
        raw = GroupWord(gog, w.start, head, pairs + mid + w.pairs[k:])
        got, lo, j = smallcanc._splice(w, i, x, mid, k)
        assert got == old_reduce_word(raw), raw
        assert positions(got)[:lo] == wpos[:lo]
        assert got.pairs[len(got.pairs) - (n - j):] == w.pairs[j:]


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_splice_sweeps_from_the_pair_below_its_first_position(make):
    # x at position i >= 1 is item i - 1 of the stack, not item i: with
    # x off its transversal and outside the edge image, that pair is the
    # only one needing a correction, so a sweep guard reading items from
    # i on would leave the word uncorrected
    gog = make()
    T = gog.transversals
    trivial = all(gog.egroup(e).order == 1
                  for e in range(gog.graph.num_edges))
    assert (not T.moved) == trivial
    rng = random.Random(0x6A4D + MODELS_UNDER_TEST.index(make))
    checked = 0
    for _ in range(200):
        w = reduce_word(_path(gog, rng, 0, rng.randrange(1, 10), end=0))
        if not w.pairs:
            continue
        i = rng.randrange(1, len(w.pairs) + 1)
        e = w.pairs[i - 1][0]
        off = [x for x in range(len(T.decomp[e]))
               if (e, x) in T.moved and T.pinch[e][x] is None]
        if not off:
            continue
        x = rng.choice(off)
        raw = GroupWord(gog, w.start, w.head,
                        w.pairs[:i - 1] + ((e, x),) + w.pairs[i:])
        got, lo, _j = smallcanc._splice(w, i, x, (), i)
        assert got == old_reduce_word(raw), raw
        assert lo <= i - 1
        checked += 1
    assert checked > 0 or trivial


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_local_steps_match_the_full_rebuild(make, monkeypatch):
    gog = make()
    rng = random.Random(0xDE4 + MODELS_UNDER_TEST.index(make))
    splices = []
    splice = smallcanc._splice

    def recorded(w, i, *args):
        out = splice(w, i, *args)
        splices.append((i, out[1]))
        return out

    monkeypatch.setattr(smallcanc, "_splice", recorded)
    area = 0
    for _ in range(3):
        S = _symmetrized(gog, rng)
        for w in _words(S, rng, 12):
            want = old_dehn_reduce(w, S)
            got = _dehn_reduce(w, S, syllable_length(w))
            assert repr((got.word, got.area, got.trace)) == repr(
                (want.word, want.area, want.trace)), w
            assert got.word == want.word and got.trace == want.trace
            area += got.area
    if make is not MODELS["free_rank2"]:  # no syllables, so no match
        assert area > 0
    if make in (MODELS["sl2z"], MODELS["hnn_c6"]):
        # nontrivial edge groups: some step changes the word left of its
        # match, so the window patch is exercised below position i
        assert any(lo < i for i, lo in splices)


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_q_position_anchors_lose_no_hit(make):
    gog = make()
    rng = random.Random(0xA4C + MODELS_UNDER_TEST.index(make))
    hits = 0
    for _ in range(3):
        S = _symmetrized(gog, rng)
        tab1, mempos1 = old_match_table(S)
        tab, members, q = S.match_table
        ident = [G.identity for G in gog.vgroups]
        for w in _words(S, rng, 12):
            wpos = positions(w)
            wsyl = [int(x != ident[v]) for v, x, _e in wpos]
            for i in range(len(w.pairs)):
                want = old_best_match_at(wpos, wsyl, i,
                                         tab1.get(wpos[i + 1], ()), mempos1)
                cands = tab.get(w.pairs[i:i + q])
                got = cands and smallcanc._best_match_at(w, i, cands,
                                                         members)
                assert (got or None) == want, (w, i)
                hits += want is not None
    if make is not MODELS["free_rank2"]:  # no syllables, so no match
        assert hits > 0


# -- the core route of KernelOracle.certificate ------------------------------


def _decide(oracle, w, monkeypatch=None):
    """The certificate dict, or ("unsupported", message); with
    ``monkeypatch``, by the reduced-word route: Dehn runs on the reduced
    word instead of whatever word the oracle hands it."""
    if monkeypatch is not None:
        red, dehn = reduce_word(w), smallcanc._dehn_reduce
        monkeypatch.setattr(smallcanc, "_dehn_reduce",
                            lambda _cur, S, _n: dehn(red, S,
                                                     syllable_length(red)))
    try:
        return oracle.certificate(w)
    except UnsupportedInput as exc:
        return "unsupported", str(exc)
    finally:
        if monkeypatch is not None:
            monkeypatch.undo()


def _products(oracle, conjugator, rng, count):
    """Products of one to three conjugates of r^{±m}, every third one
    times a short conjugator loop (a near-miss)."""
    rm, rm_inv = oracle.rm, oracle.rm.inverse()
    for i in range(count):
        w = None
        for _ in range(1 + i % 3):
            c = conjugator(rng)
            part = c * (rm if rng.random() < 0.5 else rm_inv) * c.inverse()
            w = part if w is None else w * part
        yield w * conjugator(rng) if i % 3 == 2 else w


def test_core_route_decides_as_the_reduced_word(monkeypatch):
    # over trivial edge groups Dehn runs on the cyclic core; the kernel
    # batches of seeds 1-40 must get the same dicts as the reduced word
    W = _load_workloads()
    models = W.kernel_models()
    oracle = KernelOracle(models["gog"], models["r"], W.KERNEL_POWERS[0])
    assert oracle.trivial_seams
    methods = set()
    for seed in range(1, 41):
        for _cls, word, label in W.kernel_batch(random.Random(seed), models):
            got = _decide(oracle, word)
            assert got == _decide(oracle, word, monkeypatch), word
            assert got["in_kernel"] == label
            methods.add(got["method"])
    assert "dehn" in methods
    # over nontrivial edge groups the core route would decide other
    # words than the reduced one, so the oracle keeps the reduced word
    sl2z, hnn = MODELS["sl2z"](), MODELS["hnn_c6"]()
    oracles = [
        (KernelOracle(sl2z, ab_word(sl2z, [1, 1, 1, 2, 1, 1, 1, 2]), 7),
         lambda rng: random_amalgam_word(sl2z, rng, 6)),
        (KernelOracle(hnn, GroupWord(hnn, 0, 0, [(0, 0), (0, 3)]), 7),
         lambda rng: random_hnn_word(hnn, rng, 4)),
        (KernelOracle(hnn, GroupWord(hnn, 0, 1, [(0, 1), (1, 1), (0, 3)]), 7),
         lambda rng: random_hnn_word(hnn, rng, 5)),
    ]
    outcomes = set()
    for k, (oracle, conjugator) in enumerate(oracles):
        assert not oracle.trivial_seams
        for w in _products(oracle, conjugator, random.Random(0xC07E + k), 150):
            got = _decide(oracle, w)
            assert got == _decide(oracle, w, monkeypatch), w
            outcomes.add(got[0] if isinstance(got, tuple) else got["method"])
    assert {"dehn", "unsupported"} <= outcomes


# -- work bounds on the kernel benchmark batch -------------------------------


def test_kernel_batch_dehn_work_is_bounded(monkeypatch):
    W = _load_workloads()
    models = W.kernel_models()
    batch = W.kernel_batch(random.Random(1), models)
    oracle = KernelOracle(models["gog"], models["r"], W.KERNEL_POWERS[0])
    S = oracle.S
    words = [reduce_word(word) for _cls, word, _label in batch]
    matcher = counting(monkeypatch, smallcanc, "_best_match_at")
    reductions = [0]

    def counted(w):
        reductions[0] += 1
        return reduce_word(w)

    # inside _dehn_reduce, smallcanc reduces only complements
    monkeypatch.setattr(smallcanc, "reduce_word", counted)
    runs = 0
    for w in words:
        core, _ = _cyclic_core(w)
        if syllable_length(core) > oracle.length_gate:
            _dehn_reduce(w, S, syllable_length(w))
            runs += 1
    assert runs == 32
    # each complement reduced at most once per (member, l) on this set
    assert reductions[0] == len(S.complements) > 0
    # recorded: 232 matcher calls for the 32 runs; the one-position key
    # and the full rescans entered the matcher 6,860 times
    assert matcher[0] <= 232
