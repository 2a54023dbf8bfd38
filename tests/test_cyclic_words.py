"""Cyclic words: rotation, cyclic reduction, symmetrization, self-overlap
and powers, checked against the quadratic reference implementations.

The ``oracle_*`` functions below are the straightforward versions: every
rotation is a full ``reduce_word`` of the rotated word, cyclic reduction
rotates one notch at a time and grows its conjugator by one product per
notch, the rotation list always has one word per edge, the self-overlap
compares every shift position by position, and a power is reduced after
every factor.  The toolkit's versions must agree with them exactly, on
the canonical words themselves and on every field of the piece report.
"""

import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fixtures import MODEL_IDS, counting, positions
from gogtools import smallcanc
from gogtools.errors import UnsupportedInput
from gogtools.gog import (
    GroupWord,
    _conjugator,
    _cyclic_core,
    cyclically_reduce,
    identity_word,
    reduce_word,
    rotate_once,
)
from gogtools.models import (
    MODELS,
    c2c2_free,
    c4c6_free,
    free_rank2,
    hnn_c6,
    s3_d4,
    sl2z,
)
from gogtools.smallcanc import (
    KernelOracle,
    check_cprime,
    common_prefix_syllables,
    pieces,
    rotations,
    self_overlap,
    symmetrize,
    word_power,
)
from test_tree import _relabelled_s3_d4
from test_word_tables import _load_workloads

FIXTURES = [sl2z, s3_d4, hnn_c6, c4c6_free, c2c2_free, free_rank2]
MODELS_UNDER_TEST = [MODELS[name] for name in sorted(MODELS)]
MODELS_UNDER_TEST.append(_relabelled_s3_d4)
IDS = [*sorted(MODELS), "relabelled_s3_d4"]


# -- reference implementations ----------------------------------------------


def oracle_rotate_once(w, gog):
    if not w.pairs:
        return w
    g = gog.graph
    e1, x1 = w.pairs[0]
    v1 = g.t(e1)
    id1 = gog.vgroup(v1).identity
    rest = list(w.pairs[1:])
    if rest:
        e_n, x_n = rest[-1]
        rest[-1] = (e_n, gog.vgroup(g.t(e_n)).op(x_n, w.head))
        rotated = GroupWord._trusted(gog, v1, x1, rest + [(e1, id1)])
    else:
        rotated = GroupWord(gog, v1, gog.vgroup(v1).op(x1, w.head),
                            [(e1, id1)])
    return reduce_word(rotated)


def oracle_cyclically_reduce(w, gog):
    g = gog.graph
    cur = reduce_word(w)
    conj = identity_word(gog, w.start)
    while cur.pairs:
        n = len(cur.pairs)
        e_last, x_last = cur.pairs[-1]
        G_at = gog.vgroup(cur.start)
        f1 = cur.pairs[0][0]
        seam = G_at.op(x_last, cur.head)
        pinchable = (n >= 2 and f1 == g.bar(e_last)
                     and seam in gog.inj[e_last].map)
        if not pinchable and x_last == G_at.identity:
            break
        conj = conj * GroupWord(gog, cur.start, cur.head,
                                ((f1, gog.vgroup(g.t(f1)).identity),))
        cur = oracle_rotate_once(cur, gog)
    return cur, reduce_word(conj)


def oracle_rotations(w, gog):
    out = [w]
    cur = w
    for _ in range(len(w.pairs) - 1):
        cur = oracle_rotate_once(cur, gog)
        out.append(cur)
    return out


def oracle_self_overlap(w, gog):
    pos = positions(w)
    n = len(pos)
    best = 0
    for shift in range(1, n):
        syl = 0
        for i in range(n - shift):
            v1, x1, e1 = pos[shift + i]
            v2, x2, e2 = pos[i]
            if v1 != v2 or x1 != x2 or (i > 0 and e1 != e2):
                break
            if x1 != gog.vgroup(v1).identity:
                syl += 1
        best = max(best, syl)
    return best


def old_prefix_syllables(p1, p2, gog, fudge):
    """The position-list piece comparison: positions match when vertex,
    element and incoming edge agree, and the last one may differ by a
    seam correction."""
    syl = 0
    for j in range(min(len(p1), len(p2))):
        v1, x1, e1 = p1[j]
        v2, x2, e2 = p2[j]
        if v1 != v2 or (j > 0 and e1 != e2):
            break
        G = gog.vgroup(v1)
        if x1 == x2:
            if x1 != G.identity:
                syl += 1
            continue
        if any(x1 == G.op(x2, c) for c in fudge[v1]):
            syl += 1
        break
    return syl


def old_self_overlap(w, pos):
    """The position-list Z-array; the head is compared by vertex and
    element only."""
    n = len(pos)
    syl = [0]
    for v, x, _e in pos:
        syl.append(syl[-1] + (x != w.gog.vgroup(v).identity))
    z = [0] * n
    best = lo = hi = 0
    for s in range(1, n):
        if s < hi and z[s - lo] < hi - s:
            z[s] = z[s - lo]
            continue
        k = hi - s if s < hi else 0
        while s + k < n and (pos[s + k] == pos[k] if k
                             else pos[s][:2] == pos[0][:2]):
            k += 1
        z[s] = k
        lo, hi = s, s + k
        best = max(best, k)
    return syl[best]


def oracle_word_power(w, m, gog):
    acc = identity_word(gog, w.start)
    for _ in range(m):
        acc = reduce_word(acc * w)
    return acc


def oracle_symmetrize(core, gog):
    """(members, base) from the reference rotations and cyclic reduction,
    given the reference core."""
    inv_core, _ = oracle_cyclically_reduce(core.inverse(), gog)
    seen = {}
    for w0 in (core, inv_core):
        for w in oracle_rotations(w0, gog):
            seen.setdefault((w.start, w.head, w.pairs), w)
    members = sorted(seen.values(), key=lambda w: (w.start, w.key()))
    return tuple(members), min(members, key=lambda w: w.key())


def oracle_piece_report(members, gog):
    """Every pair, every member's self-overlap, and a proper power found by
    rotating every member through all its edges, as the six fields of a
    piece report."""
    max_piece, witness = 0, None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            l = common_prefix_syllables(members[i], members[j])
            if l > max_piece:
                max_piece, witness = l, (i, j)
    min_length = min(_syl(w, gog) for w in members)
    if len(members) > 1 and max_piece >= min_length:
        raise RuntimeError("a piece reaches the member length")
    so = max(oracle_self_overlap(w, gog) for w in members)
    proper = any(rot == w
                 for w in members
                 for rot in oracle_rotations(w, gog)[1:])
    return SimpleNamespace(max_piece=max_piece, witness=witness,
                           min_length=min_length, members_count=len(members),
                           self_overlap=so, proper_power=proper)


def _syl(w, gog):
    return sum(1 for v, x, _e in positions(w)
               if x != gog.vgroup(v).identity)


# -- seeded loops -----------------------------------------------------------


def _random_loop(gog, rng, n, start=0):
    """A random walk of n steps from start, each step a random edge and a
    random element (trivial ones included, so unreduced stretches occur),
    closed by one edge back to start when needed; every fixture's vertices
    are adjacent to vertex 0."""
    g = gog.graph
    at = start
    pairs = []
    for _ in range(n):
        e = rng.choice(g.edges_at(at))
        at = g.t(e)
        pairs.append((e, rng.randrange(gog.vgroup(at).order)))
    if at != start:
        e = next(e for e in g.edges_at(at) if g.t(e) == start)
        pairs.append((e, rng.randrange(gog.vgroup(start).order)))
    return GroupWord(gog, start, rng.randrange(gog.vgroup(start).order),
                     pairs)


def _long_conjugator(gog, rng, n=70):
    """A reduced loop of at least n - 10 edges: a walk that never steps
    back across an edge it can pinch with, its elements outside the edge
    image wherever the vertex group allows."""
    g = gog.graph
    while True:
        at, pairs = 0, []
        while len(pairs) < n or at != 0:
            e = rng.choice(g.edges_at(at))
            G = gog.vgroup(g.t(e))
            outside = [x for x in range(G.order) if x not in gog.inj[e].map]
            x = rng.choice(outside or [G.identity])
            if pairs and e == g.bar(pairs[-1][0]) and \
                    pairs[-1][1] in gog.inj[pairs[-1][0]].map:
                continue
            pairs.append((e, x))
            at = g.t(e)
        c = reduce_word(GroupWord(gog, 0, rng.randrange(gog.vgroup(0).order),
                                  pairs))
        if len(c.pairs) >= n - 10:
            return c


def _seeded_loops(gog, seed, count):
    rng = random.Random(seed)
    for k in range(count):
        u = _random_loop(gog, rng, rng.randrange(0, 9))
        if k % 2:
            c = _long_conjugator(gog, rng)
            yield c * u * c.inverse()
        else:
            yield u


# -- differential tests -----------------------------------------------------


def _report_fields(rep):
    return (rep.max_piece, rep.witness, rep.min_length, rep.members_count,
            rep.self_overlap, rep.proper_power)


@pytest.mark.parametrize("make", FIXTURES, ids=MODEL_IDS.get)
def test_cyclic_words_match_reference(make):
    gog = make()
    compared = 0
    for w in _seeded_loops(gog, 0x5EA4 + FIXTURES.index(make), 12):
        core, conj = cyclically_reduce(w)
        o_core, o_conj = oracle_cyclically_reduce(w, gog)
        assert core == o_core and conj == o_conj, w
        for m in range(5):
            wm = word_power(w, m)
            assert wm == oracle_word_power(w, m, gog), (w, m)
            if m == 0:
                continue
            core_m, conj_m = cyclically_reduce(wm)
            o_core_m, o_conj_m = oracle_cyclically_reduce(wm, gog)
            assert core_m == o_core_m and conj_m == o_conj_m
            if o_core_m.is_identity():
                with pytest.raises(ValueError):
                    symmetrize(wm)
                continue
            S = symmetrize(wm)
            members, base = oracle_symmetrize(o_core_m, gog)
            assert S.members == members and S.base == base
            for u in members:
                assert (rotate_once(u)
                        == oracle_rotate_once(u, gog))
                assert self_overlap(u) == oracle_self_overlap(u, gog)
                orbit = rotations(u)
                full = oracle_rotations(u, gog)
                assert orbit == full[:len(orbit)]
                assert set(orbit) == set(full)
            try:
                expected = oracle_piece_report(members, gog)
            except RuntimeError:
                # a piece reaches the member length; elliptic and
                # stable-letter-only relators name that cause
                with pytest.raises((RuntimeError, UnsupportedInput)):
                    pieces(S)
                continue
            assert _report_fields(pieces(S)) == _report_fields(expected)
            compared += 1
    # free_rank2 has a trivial vertex group: every relator has length 0
    assert compared > 0 or make is free_rank2


def test_long_conjugators_peel_in_one_pass():
    """c·u·c⁻¹ with c of 60+ syllables: the conjugator comes back whole,
    equal to the reference's, over an amalgam and an HNN extension."""
    for make in (sl2z, s3_d4, hnn_c6):
        gog = make()
        rng = random.Random(0xC0C0)
        for _ in range(6):
            u = reduce_word(_random_loop(gog, rng, 5))
            c = _long_conjugator(gog, rng)
            w = c * u * c.inverse()
            core, conj = cyclically_reduce(w)
            o_core, o_conj = oracle_cyclically_reduce(w, gog)
            assert core == o_core and conj == o_conj
            assert _syl(conj, gog) >= 50


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_two_thousand_step_conjugators_peel_like_the_reference(make):
    """c·u·c⁻¹ with c of at least 2,000 edges: the front-index peel of
    ``_cyclic_core`` takes as many notches as the rotate-and-reduce
    reference and lands on the same core and conjugator.  u is a reduced
    walk of at least 8 edges with a trivial head, so the peel stops on a
    hyperbolic core, not an empty one.  Over C2∗C2, the infinite dihedral
    group, a translation u commutes with every translation and a
    reflection inverts it, so c·u·c⁻¹ is u^±1 and no long peel ends on a
    hyperbolic core; there the long peel is checked on the reflection
    a·u instead."""
    gog = make()
    rng = random.Random(0x2000)
    u = GroupWord(gog, 0, gog.vgroup(0).identity,
                  _long_conjugator(gog, rng, 8).pairs)
    c = _long_conjugator(gog, rng, 2010)
    w = c * u * c.inverse()
    o_core, o_conj = oracle_cyclically_reduce(w, gog)
    assert o_core.pairs
    if make is c2c2_free:
        assert o_core == reduce_word(u) or o_core == reduce_word(u.inverse())
        w = c * GroupWord(gog, 0, 1, u.pairs) * c.inverse()
        o_core, o_conj = oracle_cyclically_reduce(w, gog)
    red = reduce_word(w)
    core, notches = _cyclic_core(red)
    assert core == o_core and _conjugator(red, notches) == o_conj
    assert cyclically_reduce(w) == (o_core, o_conj)
    assert notches[0] >= 2000  # the notch count


def test_the_correction_reaching_the_head_decides_the_next_pinch():
    """Two words over S3 ∗_{C2} D4 whose third notch is decided by a
    correction that travelled from the tail to the head.  In the first,
    the second notch pinches and its correction turns the head from 1
    into 5; with head 5 the third notch does not pinch, where head 1
    would.  In the second, the first notch's correction runs through the
    whole window, and the element that heads the third notch becomes 1
    instead of 2, which again does not pinch.  A notch pass that decided
    from cosets alone and dropped the corrections that travel past the
    tail would peel both words down to a single syllable."""
    gog = s3_d4()
    cases = [
        ((4, [(0, 4), (1, 2), (0, 5), (1, 1), (0, 4), (1, 1)]),
         (1, 7, [(1, 1), (0, 0)]), (4, [(0, 4), (1, 2), (0, 0)])),
        ((5, [(0, 1), (1, 2), (0, 5), (1, 2), (0, 1), (1, 2)]),
         (1, 5, [(1, 2), (0, 0)]), (1, [(0, 1), (1, 1), (0, 0)])),
    ]
    for (head, pairs), (v, core_head, core_pairs), (c_head, c_pairs) in cases:
        w = GroupWord(gog, 0, head, pairs)
        assert reduce_word(w) == w
        core, conj = cyclically_reduce(w)
        assert core == GroupWord(gog, v, core_head, core_pairs)
        assert conj == GroupWord(gog, 0, c_head, c_pairs)
        assert _cyclic_core(w)[1][0] == 3


# -- growth in the conjugator length ----------------------------------------


GROWTH_MODELS = [sl2z, s3_d4, _relabelled_s3_d4, hnn_c6]
GROWTH_IDS = ["sl2z", "s3_d4", "relabelled_s3_d4", "hnn_c6"]


class _OverBudget(Exception):
    pass


def _lines_in_gog(fn, *args, budget=math.inf):
    """The line events in ``gogtools/gog.py`` frames while fn(*args) runs,
    a count of the work done that does not depend on the host's speed;
    None once the count passes ``budget`` (the call is cut short there)."""
    path = _cyclic_core.__code__.co_filename
    count = 0

    def line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise _OverBudget
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    except _OverBudget:
        return None
    finally:
        sys.settrace(previous)
    return count


def _conjugated(gog, rng, n):
    """c·u·c⁻¹ with c a reduced loop of at least n edges and u one of at
    least 6."""
    u = _long_conjugator(gog, rng, 16)
    c = _long_conjugator(gog, rng, n + 10)
    return c * u * c.inverse()


@pytest.mark.parametrize("make", GROWTH_MODELS, ids=GROWTH_IDS)
def test_cyclic_reduction_work_grows_linearly(make):
    """Doubling the conjugator of c·u·c⁻¹ from 1,000 to 4,000 edges at
    most doubles the work of ``cyclically_reduce``, with 15 % to spare:
    the notch pass composes the edge-group corrections instead of
    sweeping each one toward the head.  A pass that sweeps is cut off at
    the budget of its next rung."""
    gog = make()
    rng = random.Random(0x11E)
    counts = []
    for n in (1000, 2000, 4000):
        budget = 2.3 * counts[-1] if counts else math.inf
        counts.append(_lines_in_gog(cyclically_reduce, _conjugated(gog, rng, n),
                                    budget=budget))
        assert counts[-1] is not None, f"over ×2.3 at {n} edges: {counts}"


@pytest.mark.parametrize("make", GROWTH_MODELS, ids=GROWTH_IDS)
def test_eight_thousand_edge_conjugators_meet_the_definition(make):
    """At 8,000 conjugator edges, where the rotate-and-reduce reference
    would be slow, the result is checked against the definition: the
    conjugate of the core is w, the core takes no further notch, and its
    trailing element is the identity."""
    gog = make()
    w = _conjugated(gog, random.Random(0x8000), 8000)
    core, conj = cyclically_reduce(w)
    assert reduce_word(conj * core * conj.inverse()) == reduce_word(w)
    assert _cyclic_core(core) == (core, (0, None, None))
    assert core.pairs and core.pairs[-1][1] == gog.vgroup(core.start).identity
    assert len(conj.pairs) >= 8000


def test_self_overlap_on_repetitive_words():
    """Words over two syllable values per vertex repeat themselves at
    many shifts, so the Z-array reuses its matched window; the overlap
    must still equal the shift-by-shift scan."""
    rng = random.Random(0x2A)
    for make in (c4c6_free, sl2z, hnn_c6):
        gog = make()
        for _ in range(60):
            u = _random_loop(gog, rng, rng.randrange(1, 5))
            w = reduce_word(word_power(u, rng.randrange(1, 5))
                            * _random_loop(gog, rng, rng.randrange(0, 3)))
            assert self_overlap(w) == oracle_self_overlap(w, gog), w


# -- pieces and self-overlap on pairs ---------------------------------------


def _walk(gog, rng, start, n):
    """A reduced word of a random n-step walk from start (not a loop)."""
    g, at, pairs = gog.graph, start, []
    for _ in range(n):
        e = rng.choice(g.edges_at(at))
        at = g.t(e)
        pairs.append((e, rng.randrange(gog.vgroup(at).order)))
    return reduce_word(GroupWord(gog, start,
                                 rng.randrange(gog.vgroup(start).order),
                                 pairs))


def _corrected(w, k, c, f=None):
    """w with its element at position k (the head is 0) times c, and with
    the edge f into position k when given (f must end where it did)."""
    gog = w.gog
    if k == 0:
        return GroupWord._trusted(gog, w.start,
                                  gog.vgroup(w.start).op(w.head, c), w.pairs)
    pairs = list(w.pairs)
    e, x = pairs[k - 1]
    pairs[k - 1] = (e if f is None else f, gog.vgroup(gog.graph.t(e)).op(x, c))
    return GroupWord._trusted(gog, w.start, w.head, pairs)


def _word_pairs(gog, rng, count):
    """Seeded pairs: different starts, a word against its prefix, a word
    against a copy corrected at one position (the head included) by a
    seam correction or the identity, there also switched to any edge with
    the same ends, and two independent walks from one start."""
    g, fudge = gog.graph, smallcanc._fudge_sets(gog)
    nv = g.num_vertices
    for _ in range(count):
        v = rng.randrange(nv)
        w = _walk(gog, rng, v, rng.randrange(0, 12))
        if nv > 1:
            yield w, _walk(gog, rng, (v + 1) % nv, rng.randrange(0, 12))
        yield w, GroupWord._trusted(gog, v, w.head,
                                    w.pairs[:rng.randrange(len(w.pairs) + 1)])
        for k in range(len(w.pairs) + 1):
            if k == 0:
                at, edges = v, [None]
            else:
                e = w.pairs[k - 1][0]
                at = g.t(e)
                edges = [f for f in g.edges_at(g.o(e)) if g.t(f) == at]
            for f in edges:
                for c in [gog.vgroup(at).identity, *sorted(fudge[at])]:
                    yield w, _corrected(w, k, c, f)
        yield w, _walk(gog, rng, v, rng.randrange(0, 12))


@pytest.mark.parametrize("make", MODELS_UNDER_TEST, ids=IDS)
def test_pair_reading_matches_position_lists(make):
    """``_prefix_syllables`` and ``self_overlap`` read heads and pairs;
    they must agree with the position-list versions on every ordered
    member pair and every member of seeded symmetrized sets, and on
    seeded word pairs; over nontrivial edge groups some comparisons end
    in a seam correction."""
    gog = make()
    rng = random.Random(0x9A1 + MODELS_UNDER_TEST.index(make))
    fudge = smallcanc._fudge_sets(gog)
    exact = {v: () for v in fudge}
    compared = corrected = 0

    def check(a, b, pa, pb):
        nonlocal compared, corrected
        want = old_prefix_syllables(pa, pb, gog, fudge)
        assert smallcanc._prefix_syllables(a, b, fudge) == want, (a, b)
        compared += 1
        corrected += want != old_prefix_syllables(pa, pb, gog, exact)

    for _ in range(12):
        u = _random_loop(gog, rng, rng.randrange(1, 9))
        try:
            S = symmetrize(word_power(u, rng.randrange(1, 4)))
        except ValueError:
            continue
        pos = [positions(w) for w in S.members]
        for a, pa in zip(S.members, pos):
            assert self_overlap(a) == old_self_overlap(a, pa), a
            for b, pb in zip(S.members, pos):
                check(a, b, pa, pb)
    for a, b in _word_pairs(gog, rng, 40):
        check(a, b, positions(a), positions(b))
        assert self_overlap(a) == old_self_overlap(a, positions(a))
    assert compared > 0
    assert (corrected > 0) == any(fudge.values())


def test_oracle_builds_and_decides_without_self_overlap(monkeypatch):
    """The four oracles of the ``kernel`` benchmark and the decisions of
    its seed-1 batch run no Z-array; a C'(λ) check runs one per member,
    and symmetrizing keys each member once."""
    W = _load_workloads()
    models = W.kernel_models()
    gog, r = models["gog"], models["r"]
    runs = counting(monkeypatch, smallcanc, "self_overlap")
    key, keyed = GroupWord.key, [0]

    def counted_key(w):
        keyed[0] += 1
        return key(w)

    monkeypatch.setattr(GroupWord, "key", counted_key)
    oracles = [KernelOracle(gog, r, m) for m in W.KERNEL_POWERS]
    assert keyed[0] == sum(len(o.S) for o in oracles)
    methods = set()
    for _cls, word, label in W.kernel_batch(random.Random(1), models):
        cert = oracles[0].certificate(word)
        assert cert["in_kernel"] == label
        methods.add(cert["method"])
    assert "dehn" in methods and runs[0] == 0
    keyed[0] = 0
    rep = check_cprime(r, 12, Fraction(1, 6))
    assert rep["self_overlap"] == 66
    assert runs[0] == keyed[0] == rep["members"] == 12
    for make in MODELS_UNDER_TEST:
        other = make()
        rng = random.Random(0x5E7)
        for _ in range(6):
            keyed[0] = 0
            try:
                S = symmetrize(_random_loop(other, rng, rng.randrange(1, 9)))
            except ValueError:
                continue
            assert keyed[0] == len(S)
