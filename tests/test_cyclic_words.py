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

import random

import pytest

from fixtures import (
    c2_c2_free,
    c4_c6_free,
    free_rank2,
    hnn_c6,
    s3_d4_amalgam,
    sl2z_gog,
)
from gogtools.errors import UnsupportedInput
from gogtools.gog import (
    GroupWord,
    cyclically_reduce,
    identity_word,
    reduce_word,
    rotate_once,
)
from gogtools.smallcanc import (
    PieceReport,
    common_prefix_syllables,
    pieces,
    positions,
    rotations,
    self_overlap,
    symmetrize,
    word_power,
)

FIXTURES = [sl2z_gog, s3_d4_amalgam, hnn_c6, c4_c6_free, c2_c2_free,
            free_rank2]


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
        rotated = GroupWord(gog, v1, x1, rest + [(e1, id1)])
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
                     and seam in gog.image(e_last))
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
    rotating every member through all its edges."""
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
    return PieceReport(max_piece, witness, min_length, len(members), so,
                       proper)


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


def _long_conjugator(gog, rng):
    """A reduced loop of at least 60 edges: a walk that never steps back
    across an edge it can pinch with, its elements outside the edge image
    wherever the vertex group allows."""
    g = gog.graph
    while True:
        at, pairs = 0, []
        while len(pairs) < 70 or at != 0:
            e = rng.choice(g.edges_at(at))
            G = gog.vgroup(g.t(e))
            outside = [x for x in range(G.order) if x not in gog.image(e)]
            x = rng.choice(outside or [G.identity])
            if pairs and e == g.bar(pairs[-1][0]) and \
                    pairs[-1][1] in gog.image(pairs[-1][0]):
                continue
            pairs.append((e, x))
            at = g.t(e)
        c = reduce_word(GroupWord(gog, 0, rng.randrange(gog.vgroup(0).order),
                                  pairs))
        if len(c.pairs) >= 60:
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


@pytest.mark.parametrize("make", FIXTURES)
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
    for make in (sl2z_gog, s3_d4_amalgam, hnn_c6):
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


def test_self_overlap_on_repetitive_words():
    """Words over two syllable values per vertex repeat themselves at
    many shifts, so the Z-array reuses its matched window; the overlap
    must still equal the shift-by-shift scan."""
    rng = random.Random(0x2A)
    for make in (c4_c6_free, sl2z_gog, hnn_c6):
        gog = make()
        for _ in range(60):
            u = _random_loop(gog, rng, rng.randrange(1, 5))
            w = reduce_word(word_power(u, rng.randrange(1, 5))
                            * _random_loop(gog, rng, rng.randrange(0, 3)))
            assert self_overlap(w) == oracle_self_overlap(w, gog), w
