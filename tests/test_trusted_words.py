"""Words built inside the toolkit skip the public checks.

``GroupWord(...)`` checks every field; products, inverses, reductions,
rotations, powers and tree steps build their results with
``GroupWord._trusted``, which only stores them.  The property test
rebuilds every trusted result through the public constructor, so a path
or range fault in any of those operations fails it; the counter test
pins that the hot paths build no checked word at all.
"""

import random
from itertools import chain

import pytest

from fixtures import MODEL_IDS
from gogtools.cayley_abels import quotient_tree_ball
from gogtools.finite import make_dihedral
from gogtools.gog import (
    GroupWord,
    _cyclic_core,
    cyclically_reduce,
    identity_word,
    reduce_word,
    rotate_once,
)
from gogtools.models import (
    ab_word,
    c2c2_free,
    c4c6_free,
    free_rank2,
    hnn_c6,
    s3_d4,
    sl2z,
)
from gogtools.smallcanc import (
    KernelOracle,
    dehn_reduce,
    evaluation_wp,
    word_power,
)
from gogtools.tree import (
    _child_steps,
    _fan_table,
    build_tree_ball,
    canonical_coset_word,
)

FIXTURES = [sl2z, c4c6_free, c2c2_free, s3_d4, hnn_c6, free_rank2]


def _walk(gog, rng, n, start, close):
    """A checked word: n random steps from start with random elements
    (trivial ones included, so pinches occur), closed back to start when
    ``close`` is set; every fixture's vertices are adjacent to vertex 0."""
    g = gog.graph
    at, pairs = start, []
    for _ in range(n):
        e = rng.choice(g.edges_at(at))
        at = g.t(e)
        pairs.append((e, rng.randrange(gog.vgroup(at).order)))
    if close and at != start:
        e = next(e for e in g.edges_at(at) if g.t(e) == start)
        pairs.append((e, rng.randrange(gog.vgroup(start).order)))
    return GroupWord(gog, start, rng.randrange(gog.vgroup(start).order),
                     pairs)


def _recording(monkeypatch):
    """Every word ``GroupWord._trusted`` returns from now on."""
    built = []
    trusted = GroupWord._trusted.__func__

    def recorded(cls, *args):
        w = trusted(cls, *args)
        built.append(w)
        return w

    monkeypatch.setattr(GroupWord, "_trusted", classmethod(recorded))
    return built


@pytest.mark.parametrize("make", FIXTURES, ids=MODEL_IDS.get)
def test_trusted_words_pass_the_public_checks(make, monkeypatch):
    gog = make()
    rng = random.Random(0x7A57 + FIXTURES.index(make))
    loops = [_walk(gog, rng, rng.randrange(9), 0, True) for _ in range(12)]
    opens = [_walk(gog, rng, rng.randrange(1, 6), 0, False)
             for _ in range(6)]
    built = _recording(monkeypatch)
    for u, v in zip(loops, loops[1:]):
        (u * v).inverse()
        reduce_word(u * v * u.inverse())
    for w in opens:
        reduce_word(w.inverse() * loops[0] * w)
        canonical_coset_word(reduce_word(w))
    for u in loops:
        red = reduce_word(u)
        if red.is_identity():
            continue
        core, _ = _cyclic_core(red)
        rotate_once(rotate_once(core))
        for m in range(4):
            word_power(u, m)
    fan = _fan_table(gog)
    for base in range(gog.graph.num_vertices):
        level = [canonical_coset_word(identity_word(gog, base))]
        for _ in range(3):
            level = [child for w in level
                     for _e, _rep, child, _redone in _child_steps(w, fan)]
            level = rng.sample(level, min(8, len(level)))
    assert len(built) > 100
    for w in built:
        assert type(w.pairs) is tuple
        assert all(type(p) is tuple and len(p) == 2 for p in w.pairs)
        again = GroupWord(w.gog, w.start, w.head, w.pairs)
        assert again == w and hash(again) == hash(w)
        assert again.key() == w.key()


@pytest.mark.parametrize("make", FIXTURES, ids=MODEL_IDS.get)
def test_word_key_orders_as_the_flat_tuple(make):
    # pairs are 2-tuples, so GroupWord.key orders any two words as the flat
    # tuple of all their numbers does: over mixed lengths, starts, reduced
    # and unreduced words, and prefixes of one another
    gog = make()
    rng = random.Random(0x6E7 + FIXTURES.index(make))
    words = []
    for _ in range(30):
        w = _walk(gog, rng, rng.randrange(9),
                  rng.randrange(gog.graph.num_vertices), False)
        cut = rng.randrange(len(w.pairs) + 1)
        words += [w, reduce_word(w), GroupWord(gog, w.start, w.head,
                                               w.pairs[:cut])]
    flat = {w: (len(w.pairs), (w.start, w.head, *chain.from_iterable(w.pairs)))
            for w in words}
    assert sorted(words, key=GroupWord.key) == sorted(words, key=flat.get)
    assert all((a.key() < b.key()) == (flat[a] < flat[b])
               for a in words for b in words)


def test_hot_paths_build_no_checked_word(monkeypatch):
    # inputs first: the D_40 relator and evaluation, the SL2(Z) model, and
    # a certificate batch of conjugates of r^12 and of raw words over C4∗C6
    d_gog = c2c2_free()
    rel = ab_word(d_gog, [1] * 80)
    ev = evaluation_wp(d_gog, make_dihedral(40), [[0, 40], [0, 41]])
    sl2 = sl2z()
    k_gog = c4c6_free()
    ko = KernelOracle(k_gog, ab_word(k_gog, [1, 1, 2, 2, 3, 3]), 12)
    rng = random.Random(0xC0DE)
    batch = []
    for _ in range(6):
        g = _walk(k_gog, rng, rng.randrange(1, 8), 0, True)
        batch.append(g * ko.rm * g.inverse())
        batch.append(_walk(k_gog, rng, rng.randrange(1, 20), 0, True))
    checked = [0]
    init = GroupWord.__init__

    def counted(self, *args, **kwargs):
        checked[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupWord, "__init__", counted)
    ball = quotient_tree_ball(d_gog, [rel], 40, wp=ev)
    tree = build_tree_ball(sl2, 8)
    verdicts = [ko.certificate(w)["in_kernel"] for w in batch]
    assert ball.vertex_count() == 80 and len(tree.verts) == 91
    assert verdicts[0::2] == [True] * 6
    assert checked[0] == 0


@pytest.mark.parametrize("make", FIXTURES, ids=MODEL_IDS.get)
def test_word_operations_return_tuples_of_pairs(make):
    # GroupWord._trusted copies only the outer sequence, so every word the
    # toolkit builds must come with its pairs as 2-tuples already
    gog = make()
    rng = random.Random(0x2D + FIXTURES.index(make))
    loops = [_walk(gog, rng, rng.randrange(1, 9), 0, True) for _ in range(8)]
    out = []
    for u, v in zip(loops, loops[1:]):
        out += [u * v, u.inverse(), reduce_word(u * v * u.inverse()),
                word_power(u, 3)]
        core, conj = cyclically_reduce(u)
        out += [core, conj, rotate_once(core)]
    if make is c4c6_free:
        ko = KernelOracle(gog, ab_word(gog, [1, 1, 2, 2, 3, 3]), 12)
        for u in loops:
            res = dehn_reduce(reduce_word(u * ko.rm * u.inverse()), ko.S)
            assert res.is_trivial
            out += [res.word, *(step[1] for step in res.trace)]
    assert len(out) > 40
    for w in out:
        assert type(w.pairs) is tuple
        assert all(type(p) is tuple and len(p) == 2 for p in w.pairs)
