"""Tree balls, action, stabilizers, geodesics.

The level-count oracle below never touches the word machinery: it walks
abstract (vertex-type, incoming-edge) states with multiplicities, using only
the subgroup-index formula, so it independently predicts the shape every
ball construction must reproduce.
"""

import random

import pytest

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    free_rank2,
    hnn_c6,
    random_amalgam_word,
    s3_d4_amalgam,
    sl2z_gog,
)
from gogtools.errors import CapExceeded
from gogtools.finite import FiniteGroup, make_cyclic, make_dihedral
from gogtools.gog import (
    GroupWord,
    amalgam,
    fix_transversals,
    identity_word,
    reduce_word,
)
from gogtools.tree import (
    OUT_OF_BALL,
    _child_steps,
    _fan_table,
    act,
    build_tree_ball,
    canonical_coset_word,
    degree_formula,
    geodesic,
    stabilizer,
    tree_to_dot,
    tree_to_json,
)


def oracle_levels(gog, base, radius):
    """Vertex count per level from the index formula alone."""
    g = gog.graph
    counts = [1]
    frontier = {(base, None): 1}
    for _ in range(radius):
        nxt = {}
        for (v, incoming), mult in frontier.items():
            for e in g.edges_at(v):
                G = gog.vgroup(v)
                n = G.order // len(gog.image(g.bar(e)))
                if incoming is not None and e == g.bar(incoming):
                    n -= 1
                if n:
                    key = (g.t(e), e)
                    nxt[key] = nxt.get(key, 0) + mult * n
        counts.append(sum(nxt.values()))
        frontier = nxt
    return counts


# -- shape ------------------------------------------------------------------


def test_sl2z_ball_shape():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 6)
    assert ball.check() == []
    levels = [0] * 7
    for tv in ball.verts:
        levels[tv.dist] += 1
    assert levels == [1, 2, 4, 4, 8, 8, 16]
    # (2,3)-biregular on the interior
    for i, tv in enumerate(ball.verts):
        if tv.dist < 6:
            assert ball.degree(i) == (2 if tv.lam_vertex == 0 else 3)


def test_degree_formula_values():
    gog = sl2z_gog()
    assert degree_formula(gog, 0) == 2
    assert degree_formula(gog, 1) == 3
    assert degree_formula(hnn_c6(), 0) == 4


def test_oracle_agreement():
    cases = [
        (sl2z_gog(), 6),
        (s3_d4_amalgam(), 4),
        (hnn_c6(), 4),
        (c2_c2_free(), 5),
        (free_rank2(), 3),
    ]
    for gog, R in cases:
        ball = build_tree_ball(gog, R)
        assert ball.check() == []
        levels = [0] * (R + 1)
        for tv in ball.verts:
            levels[tv.dist] += 1
        assert levels == oracle_levels(gog, 0, R)


def test_infinite_dihedral_line():
    ball = build_tree_ball(c2_c2_free(), 3)
    assert ball.vertex_count() == 7
    degs = sorted(ball.degree(i) for i in range(7))
    assert degs == [1, 1, 2, 2, 2, 2, 2]


def test_free_rank2_star():
    ball = build_tree_ball(free_rank2(), 1)
    assert ball.vertex_count() == 5
    assert ball.degree(0) == 4
    assert all(ball.degree(i) == 1 for i in range(1, 5))


def test_radius_zero_and_cap():
    gog = sl2z_gog()
    assert build_tree_ball(gog, 0).vertex_count() == 1
    with pytest.raises(CapExceeded):
        build_tree_ball(gog, 6, cap=20)


def test_coset_reps_pairwise_inequivalent():
    gog = sl2z_gog()
    T = fix_transversals(gog)
    ball = build_tree_ball(gog, 3, transversals=T)
    words = [tv.word for tv in ball.verts]
    for i, u in enumerate(words):
        for w in words[i + 1:]:
            if u.end != w.end:
                continue
            G = gog.vgroup(u.end)
            for g in range(G.order):
                shifted = reduce_word(w * GroupWord(gog, w.end, g), gog, T)
                assert shifted != u


def _sampled_children(gog, T, fan, rng, radius=5, width=30):
    """(parent, e, rep, child) over a seeded sample of each level of the
    tree balls around every base vertex."""
    out = []
    for base in range(gog.graph.num_vertices):
        level = [canonical_coset_word(identity_word(gog, base), gog, T)]
        for _ in range(radius):
            nxt = []
            for w in level:
                for e, rep, child in _child_steps(w, fan, gog, T):
                    out.append((w, e, rep, child))
                    nxt.append(child)
            level = rng.sample(nxt, min(width, len(nxt)))
    return out


@pytest.mark.parametrize("make", [sl2z_gog, c4_c6_free, c2_c2_free,
                                   s3_d4_amalgam, hnn_c6, free_rank2])
def test_child_steps_skip_canonicalization(make):
    # every step is proven on the built-in models, so no child word is
    # canonicalized, yet each is already the least word of its coset
    gog = make()
    T = fix_transversals(gog)
    fan = _fan_table(gog, T)
    assert all(not unproven for e in fan for _rep, unproven in fan[e])
    children = _sampled_children(gog, T, fan, random.Random(11))
    assert children
    for _w, _e, _rep, child in children:
        assert canonical_coset_word(child, gog, T) == child


def _relabelled_s3_d4():
    """S3 ∗_{C2} D4 with S3 relabelled as 1, s, sr, r, rs, r²: the least
    element r of the left coset {r, rs} of the non-normal ⟨s⟩ is not
    the representative of its right coset {r, sr}."""
    S3 = make_dihedral(3)
    s, r = 3, 1
    order = [S3.identity, s, S3.op(s, r), r, S3.op(r, s), S3.op(r, r)]
    new = {old: i for i, old in enumerate(order)}
    table = [[new[S3.op(order[a], order[b])] for b in range(6)]
             for a in range(6)]
    return amalgam(FiniteGroup(table), make_dihedral(4), make_cyclic(2),
                   [0, new[s]], [0, 2])


def test_child_steps_keep_canonicalization_where_unproven():
    gog = _relabelled_s3_d4()
    T = fix_transversals(gog)
    fan = _fan_table(gog, T)
    assert any(unproven for e in fan for _rep, unproven in fan[e])
    bypassed = 0
    for w, e, rep, child in _sampled_children(gog, T, fan, random.Random(11)):
        assert canonical_coset_word(child, gog, T) == child
        g = gog.graph
        raw = reduce_word(w * GroupWord(gog, w.end, rep,
                                        [(e, gog.vgroup(g.t(e)).identity)]),
                          gog, T)
        bypassed += raw != child
    # the fallback is what makes those children canonical
    assert bypassed > 0


# -- action -----------------------------------------------------------------


def test_act_identity_and_center_stab():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 4)
    e = identity_word(gog, 0)
    for cell in [("v", 0), ("v", 3), ("e", 0)]:
        assert act(e, cell, ball) == cell
    a = GroupWord(gog, 0, 1)
    assert act(a, ("v", 0), ball) == ("v", 0)


def test_act_swaps_cosets():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 2)
    a = GroupWord(gog, 0, 1)
    nbrs = [j for j, _ in ball.adjacency[0]]
    assert len(nbrs) == 2
    images = {act(a, ("v", j), ball) for j in nbrs}
    assert images == {("v", j) for j in nbrs}
    assert act(a, ("v", nbrs[0]), ball) == ("v", nbrs[1])


def test_act_out_of_ball():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 2)
    r = ab_word(gog, [1, 1])
    w = r * r * r  # translates the center 6 steps
    assert act(w, ("v", 0), ball) == OUT_OF_BALL


def test_act_equivariance():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 5)
    rng = random.Random(0xF1DE)
    checked = 0
    for _ in range(200):
        w1 = random_amalgam_word(gog, rng, max_syllables=4, start=0)
        w2 = random_amalgam_word(gog, rng, max_syllables=4, start=0)
        cell = ("v", rng.randrange(ball.vertex_count()))
        inner = act(w2, cell, ball)
        if inner == OUT_OF_BALL:
            continue
        lhs = act(w1 * w2, cell, ball)
        rhs = act(w1, inner, ball)
        if lhs == OUT_OF_BALL or rhs == OUT_OF_BALL:
            continue
        assert lhs == rhs
        checked += 1
    assert checked > 50


def test_act_requires_loop_at_base():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 2)
    not_loop = GroupWord(gog, 0, 0, [(0, 0)])
    with pytest.raises(ValueError):
        act(not_loop, ("v", 0), ball)


# -- stabilizers ------------------------------------------------------------


def test_stabilizer_center():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 3)
    s = stabilizer(("v", 0), ball)
    assert s.base_name == "vgroup[0]"
    assert s.order == 4
    assert not s.conjugator.pairs
    for w in s.elements:
        assert act(w, ("v", 0), ball) == ("v", 0)


def test_stabilizer_edges_are_conjugate_c2():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 3)
    for k in range(ball.edge_count()):
        s = stabilizer(("e", k), ball)
        assert s.order == 2
        for w in s.elements:
            assert act(w, ("e", k), ball) == ("e", k)


def test_stabilizer_fixes_cell_everywhere():
    gog = s3_d4_amalgam()
    ball = build_tree_ball(gog, 3)
    rng = random.Random(0xFACE)
    cells = [("v", rng.randrange(ball.vertex_count())) for _ in range(6)]
    cells += [("e", rng.randrange(ball.edge_count())) for _ in range(6)]
    for cell in cells:
        s = stabilizer(cell, ball)
        assert len(s.elements) == s.order
        assert len(set(s.elements)) == s.order
        for w in s.elements:
            assert act(w, cell, ball) == cell


def test_stabilizer_trivial_in_free_tree():
    ball = build_tree_ball(free_rank2(), 2)
    s = stabilizer(("v", 3), ball)
    assert s.order == 1


# -- geodesics --------------------------------------------------------------


def test_geodesic_degenerate_and_adjacent():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 3)
    assert geodesic(("v", 2), ("v", 2), ball) == []
    j, k = ball.adjacency[0][0]
    assert geodesic(("v", 0), ("v", j), ball) == [("e", k)]


def test_geodesic_translation_of_r_squared():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 6)
    r = ab_word(gog, [1, 1])
    target = act(r * r, ("v", 0), ball)
    assert target != OUT_OF_BALL
    path = geodesic(("v", 0), target, ball)
    assert len(path) == 4


def test_geodesic_is_a_path():
    gog = s3_d4_amalgam()
    ball = build_tree_ball(gog, 4)
    rng = random.Random(0xBEE)
    for _ in range(25):
        i = rng.randrange(ball.vertex_count())
        j = rng.randrange(ball.vertex_count())
        path = geodesic(("v", i), ("v", j), ball)
        # consecutive edges share exactly one endpoint; no edge repeats
        assert len({ids for ids in path}) == len(path)
        ends = [set((ball.edges[k].u, ball.edges[k].v)) for _, k in path]
        at = i
        for pairset in ends:
            assert at in pairset
            at = (pairset - {at}).pop()
        assert at == j


# -- exports ----------------------------------------------------------------


def test_exports():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 2)
    data = tree_to_json(ball)
    assert data["radius"] == 2
    assert len(data["vertices"]) == ball.vertex_count()
    assert len(data["edges"]) == ball.edge_count()
    assert all(v["stab_order"] in (4, 6) for v in data["vertices"])
    dot = tree_to_dot(ball)
    assert dot.startswith("graph treeball {")
    assert dot.count("--") == ball.edge_count()
