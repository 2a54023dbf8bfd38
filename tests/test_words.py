"""Words, reduction, normal forms: unit examples plus the oracle properties.

The fixpoint pinch pass that the one-pass stack reduction replaced is kept
here, in both scan orders, as a reference oracle for ``reduce_word``.
"""

import random

import pytest

from gogtools.finite import make_cyclic
from gogtools.gog import (
    GroupWord,
    SerreGraph,
    GraphOfGroups,
    Transversals,
    amalgam,
    cyclically_reduce,
    fix_transversals,
    hnn_sub,
    identity_word,
    reduce_word,
    syllable_length,
    validate,
    words_equal,
)

from fixtures import (
    ab_word,
    c4_c6_free,
    hnn_c6,
    loop_word,
    random_amalgam_word,
    random_hnn_word,
    s3_d4_amalgam,
    sl2z_gog,
    sl2z_matrix,
)


def _pinch_pass(gog, head, items, order):
    """Apply Britton pinches until none fire, restarting the scan ("lr" or
    "rl") after each one.  items is a mutable list of [edge, element].
    Returns the new head."""
    g = gog.graph
    changed = True
    while changed:
        changed = False
        indices = range(len(items) - 1)
        if order == "rl":
            indices = range(len(items) - 2, -1, -1)
        for j in indices:
            e1, h1 = items[j]
            e2, _ = items[j + 1]
            if e2 != g.bar(e1):
                continue
            if h1 not in gog.image(e1):
                continue
            inj = gog.inj[e1]
            c = inj.map.index(h1)
            corr = gog.inj[g.bar(e1)].map[c]
            Gm = gog.vgroup(g.o(e1))
            h2 = items[j + 1][1]
            merged = Gm.op(corr, h2)
            if j == 0:
                head = Gm.op(head, merged)
            else:
                items[j - 1][1] = Gm.op(items[j - 1][1], merged)
            del items[j : j + 2]
            changed = True
            break
    return head


def oracle_reduce(w, gog, tr, order):
    """Reference normal form: the fixpoint pinch pass in the given scan
    order, then the right-to-left transversal sweep."""
    g = gog.graph
    items = [[e, x] for e, x in w.pairs]
    head = _pinch_pass(gog, w.head, items, order)
    for j in range(len(items) - 1, -1, -1):
        e, x = items[j]
        c, rep = tr.decomp[e][x]
        items[j][1] = rep
        corr = gog.inj[g.bar(e)].map[c]
        Gm = gog.vgroup(g.o(e))
        if j == 0:
            head = Gm.op(head, corr)
        else:
            items[j - 1][1] = Gm.op(items[j - 1][1], corr)
    return GroupWord(gog, w.start, head, items)


def agrees_with_oracle(w, gog, tr):
    """reduce_word matches the fixpoint oracle in both scan orders."""
    nf = reduce_word(w)
    return nf == oracle_reduce(w, gog, tr, "lr") == oracle_reduce(w, gog, tr, "rl")


def test_validate_ok():
    assert validate(sl2z_gog()) == []
    assert validate(c4_c6_free()) == []
    assert validate(hnn_c6()) == []


def test_validate_bad_hom():
    # C2 generator -> a (order 4) is not a homomorphism
    C4, C6, C2 = make_cyclic(4), make_cyclic(6), make_cyclic(2)
    bad = amalgam(C4, C6, C2, [0, 1], [0, 3])
    problems = validate(bad)
    assert any("not a homomorphism" in p for p in problems)


def test_validate_not_injective():
    C4, C6, C2 = make_cyclic(4), make_cyclic(6), make_cyclic(2)
    bad = amalgam(C4, C6, C2, [0, 0], [0, 3])
    problems = validate(bad)
    assert any("injective" in p for p in problems)


def test_validate_disconnected():
    C2 = make_cyclic(2)
    g = SerreGraph(3, [(0, 1)])
    from gogtools.finite import GroupHom

    C1 = make_cyclic(1)
    gog = GraphOfGroups(g, [C2, C2, C2], [C1], [GroupHom(C1, C2, [0]), GroupHom(C1, C2, [0])])
    assert any("connected" in p for p in validate(gog))


def test_transversal_reps():
    gog = sl2z_gog()
    tr = fix_transversals(gog)
    # edge 0 targets C6, image {0,3}: cosets {0,3},{1,4},{2,5} -> reps 0,1,2
    assert sorted(tr.reps[0]) == [0, 1, 2]
    # edge 1 targets C4, image {0,2}: reps 0,1
    assert sorted(tr.reps[1]) == [0, 1]
    # identity decomposes as (identity, identity)
    assert tr.decomp[0][0] == (0, 0)


def test_transversal_trivial_image():
    gog = c4_c6_free()
    tr = fix_transversals(gog)
    assert sorted(tr.reps[0]) == [0, 1, 2, 3, 4, 5]
    assert sorted(tr.reps[1]) == [0, 1, 2, 3]


def test_graph_owns_its_table():
    gog = sl2z_gog()
    table = gog.transversals
    assert gog.transversals is table
    assert fix_transversals(gog) is table
    # the constructor builds no table, so validate() still reports on a
    # graph whose injection is not injective
    bad = amalgam(make_cyclic(4), make_cyclic(6), make_cyclic(2),
                  [0, 0], [0, 3])
    assert bad._transversals is None
    assert validate(bad)


def test_entry_points_take_only_the_graphs_table():
    from gogtools.cayley_abels import quotient_tree_ball
    from gogtools.smallcanc import KernelOracle
    from gogtools.tree import build_tree_ball

    gog = c4_c6_free()
    r = ab_word(gog, [1, 1, 2, 2, 3, 3])
    own = gog.transversals
    assert (build_tree_ball(gog, 2, transversals=own).vertex_count()
            == build_tree_ball(gog, 2).vertex_count())
    assert (quotient_tree_ball(gog, [], 2, transversals=own).verts[-1].rep
            == quotient_tree_ball(gog, [], 2).verts[-1].rep)
    assert KernelOracle(gog, r, 12, own).rm == KernelOracle(gog, r, 12).rm
    other = Transversals(gog)
    with pytest.raises(ValueError):
        build_tree_ball(gog, 2, transversals=other)
    with pytest.raises(ValueError):
        quotient_tree_ball(gog, [], 2, transversals=other)
    with pytest.raises(ValueError):
        KernelOracle(gog, r, 12, other)


def test_reduce_relation_word():
    # a^2 b^3 = c * c = identity in C4 *_{C2} C6
    gog = sl2z_gog()
    w = ab_word(gog, [2, 3])
    assert reduce_word(w) == identity_word(gog, 0)


def test_reduce_gg_inverse():
    gog = sl2z_gog()
    rng = random.Random(7)
    for _ in range(50):
        w = random_amalgam_word(gog, rng)
        prod = w * w.inverse()
        assert reduce_word(prod) == identity_word(gog, w.start)


def test_britton_pinch_hnn():
    # t^-1 b^2 t -> b^4 in the HNN of C6 over <b^2>, alpha(b^2) = b^4
    gog = hnn_c6()
    w = GroupWord(gog, 0, 0, ((1, 2), (0, 0)))
    assert reduce_word(w) == GroupWord(gog, 0, 4, ())


def test_no_t1t_inverse_left():
    # after reduction no consecutive t^eps 1 t^-eps survives
    gog = hnn_c6()
    rng = random.Random(11)
    for _ in range(300):
        w = random_hnn_word(gog, rng)
        nf = reduce_word(w)
        for (e1, x1), (e2, _) in zip(nf.pairs, nf.pairs[1:]):
            if e2 == gog.graph.bar(e1):
                assert x1 not in gog.image(e1)


def test_words_equal_basics():
    gog = sl2z_gog()
    assert words_equal(ab_word(gog, [2, 3]), identity_word(gog, 0))
    free = c4_c6_free()
    a = loop_word(free, [(0, 1)])
    b = loop_word(free, [(1, 1)])
    assert not words_equal(a, b)
    assert words_equal(a, a)


def test_words_equal_basepoint_mismatch():
    gog = sl2z_gog()
    with pytest.raises(ValueError):
        words_equal(identity_word(gog, 0), identity_word(gog, 1))


def test_syllable_length_examples():
    free = c4_c6_free()
    assert syllable_length(reduce_word(identity_word(free, 0))) == 0
    r = ab_word(free, [1, 1, 2, 2, 3, 3])
    assert syllable_length(reduce_word(r)) == 6
    gog = sl2z_gog()
    assert syllable_length(reduce_word(ab_word(gog, [2, 3]))) == 0


def test_cyclically_reduce_conjugate():
    free = c4_c6_free()
    # a b a^-1 -> core b at the C6 vertex, conjugator a
    w = loop_word(free, [(0, 1), (1, 1), (0, 3)])
    core, conj = cyclically_reduce(w)
    assert core == GroupWord(free, 1, 1, ())
    assert conj == GroupWord(free, 0, 1, ((0, 0),))
    # conj * core * conj^-1 == w
    back = conj * core * conj.inverse()
    assert words_equal(back, w)


def test_cyclically_reduce_already_reduced():
    free = c4_c6_free()
    w = ab_word(free, [1, 1])
    core, conj = cyclically_reduce(w)
    assert core == reduce_word(w)
    assert conj == identity_word(free, 0)


def test_cyclically_reduce_seam():
    free = c4_c6_free()
    # b^3 a b^-2 based at the C6 vertex: core a*b after the seam merge
    w = loop_word(free, [(1, 3), (0, 1), (1, 4)], start=1)
    core, conj = cyclically_reduce(w)
    assert core == GroupWord(free, 0, 1, ((0, 1), (1, 0)))
    back = conj * core * conj.inverse()
    assert words_equal(back, w)


def _random_loop(gog, rng):
    """Random loop word, half of them conjugates u·v·u⁻¹ so that the
    conjugator has work to do."""
    if gog.graph.num_vertices == 1:
        u, v = random_hnn_word(gog, rng, 6), random_hnn_word(gog, rng, 6)
    else:
        start = rng.randrange(2)
        u = random_amalgam_word(gog, rng, 6, start=start)
        v = random_amalgam_word(gog, rng, 6, start=start)
    return u * v * u.inverse() if rng.randrange(2) else v


@pytest.mark.parametrize("make", [sl2z_gog, s3_d4_amalgam, hnn_c6])
def test_cyclically_reduce_properties(make):
    gog = make()
    g = gog.graph
    rng = random.Random(0xC0DE)
    for _ in range(500):
        w = _random_loop(gog, rng)
        core, conj = cyclically_reduce(w)
        assert words_equal(conj * core * conj.inverse(), w), w
        assert core == reduce_word(core)
        if not core.pairs:
            continue
        e_last, x_last = core.pairs[-1]
        assert x_last == gog.vgroup(core.start).identity, core
        # no pinch across the seam (last edge, head, first edge)
        if len(core.pairs) >= 2 and core.pairs[0][0] == g.bar(e_last):
            assert core.head not in gog.image(e_last), core


def _long_word(gog, rng, n):
    """Loop word with n random vertex-group syllables; exponents may be
    trivial, so unreduced stretches occur."""
    if gog.graph.num_vertices == 1:
        B = gog.vgroup(0)
        return GroupWord(gog, 0, rng.randrange(B.order),
                         [(rng.randrange(2), rng.randrange(B.order))
                          for _ in range(n)])
    return ab_word(gog, [rng.randrange(24) for _ in range(n)])


@pytest.mark.parametrize("make", [c4_c6_free, s3_d4_amalgam, hnn_c6])
def test_full_cancellation_long_words(make):
    gog = make()
    rng = random.Random(0x1000)
    for n in (1, 10, 100, 500):
        w = _long_word(gog, rng, n)
        ident = identity_word(gog, w.start)
        assert reduce_word(w * w.inverse()) == ident
        assert reduce_word(w.inverse() * w) == ident
        assert reduce_word(w * w * w.inverse()) == reduce_word(w)


def test_hnn_sub_rejects_bad_input():
    C6 = make_cyclic(6)
    with pytest.raises(ValueError, match="not closed"):
        hnn_sub(C6, [0, 1], [0, 1])
    with pytest.raises(ValueError, match="map length"):
        hnn_sub(C6, [0, 2, 4], [0, 4])


# -- normal-form properties over 10^4 samples -------------------------------


def test_sweep_order_invariance_amalgam():
    # the stack pass against the fixpoint oracle in both scan orders
    gog = sl2z_gog()
    tr = fix_transversals(gog)
    rng = random.Random(0xBEEF)
    for _ in range(10_000):
        w = random_amalgam_word(gog, rng, max_syllables=10)
        assert agrees_with_oracle(w, gog, tr), w


def test_sweep_order_invariance_hnn():
    gog = hnn_c6()
    tr = fix_transversals(gog)
    rng = random.Random(0xF00D)
    for _ in range(10_000):
        w = random_hnn_word(gog, rng, max_letters=8)
        assert agrees_with_oracle(w, gog, tr), w


def test_reduce_idempotent_and_homomorphic():
    gog = sl2z_gog()
    rng = random.Random(0xACE)
    for _ in range(2_000):
        u = random_amalgam_word(gog, rng, max_syllables=8)
        w = random_amalgam_word(gog, rng, max_syllables=8)
        ru = reduce_word(u)
        rw = reduce_word(w)
        assert reduce_word(ru) == ru
        assert reduce_word(u * w) == reduce_word(ru * rw)


def test_matrix_oracle_agreement():
    gog = sl2z_gog()
    rng = random.Random(0x51E2)
    for i in range(10_000):
        u = random_amalgam_word(gog, rng, max_syllables=8)
        if i % 3 == 0:
            # build an equal pair by inserting a trivial excursion
            z = random_amalgam_word(gog, rng, max_syllables=4)
            w = u * (z * z.inverse())
        else:
            w = random_amalgam_word(gog, rng, max_syllables=8)
        ours = words_equal(u, w)
        oracle = sl2z_matrix(u) == sl2z_matrix(w)
        assert ours == oracle
