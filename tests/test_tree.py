"""Tree balls, action, stabilizers, geodesics.

The level-count oracle below never touches the word machinery: it walks
abstract (vertex-type, incoming-edge) states with multiplicities, using only
the subgroup-index formula, so it independently predicts the shape every
ball construction must reproduce.
"""

import hashlib
import json
import random

import pytest

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    counting,
    free_rank2,
    hnn_c6,
    random_amalgam_word,
    s3_d4_amalgam,
    sl2z_gog,
)
from gogtools.cli import MODELS
from gogtools.errors import CapExceeded
from gogtools.finite import FiniteGroup, make_cyclic, make_dihedral
from gogtools.gog import (
    GroupWord,
    amalgam,
    identity_word,
    reduce_word,
)
from gogtools.tree import (
    OUT_OF_BALL,
    _child_steps,
    _edge_word,
    _fan_table,
    act,
    build_tree_ball,
    canonical_coset_word,
    check_tree_ball,
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
    assert check_tree_ball(ball) == []
    levels = [0] * 7
    for tv in ball.verts:
        levels[tv.dist] += 1
    assert levels == [1, 2, 4, 4, 8, 8, 16]
    # (2,3)-biregular on the interior
    for i, tv in enumerate(ball.verts):
        if tv.dist < 6:
            assert ball.degree(i) == (2 if tv.rep.end == 0 else 3)


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
        assert check_tree_ball(ball) == []
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


def test_duplicate_child_raises_cycle(monkeypatch):
    # a child step that hands back a vertex the ball already has would
    # close a cycle in the tree
    from gogtools import cayley_abels

    real = cayley_abels._child_steps

    def doubled(w, fan):
        steps = list(real(w, fan))
        return steps + steps[:1]

    monkeypatch.setattr(cayley_abels, "_child_steps", doubled)
    with pytest.raises(RuntimeError, match="ball construction produced a cycle"):
        build_tree_ball(sl2z_gog(), 2)


def test_coset_reps_pairwise_inequivalent():
    gog = sl2z_gog()
    ball = build_tree_ball(gog, 3)
    words = [tv.rep for tv in ball.verts]
    for i, u in enumerate(words):
        for w in words[i + 1:]:
            if u.end != w.end:
                continue
            G = gog.vgroup(u.end)
            for g in range(G.order):
                shifted = reduce_word(w * GroupWord(gog, w.end, g))
                assert shifted != u


def _sampled_children(gog, fan, rng, radius=5, width=30):
    """(parent, e, rep, child) over a seeded sample of each level of the
    tree balls around every base vertex."""
    out = []
    for base in range(gog.graph.num_vertices):
        level = [canonical_coset_word(identity_word(gog, base))]
        for _ in range(radius):
            nxt = []
            for w in level:
                for e, rep, child in _child_steps(w, fan):
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
    fan = _fan_table(gog)
    assert all(not unproven for e in fan for _rep, unproven in fan[e])
    children = _sampled_children(gog, fan, random.Random(11))
    assert children
    for _w, _e, _rep, child in children:
        assert canonical_coset_word(child) == child


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
    fan = _fan_table(gog)
    assert any(unproven for e in fan for _rep, unproven in fan[e])
    bypassed = 0
    for w, e, rep, child in _sampled_children(gog, fan, random.Random(11)):
        assert canonical_coset_word(child) == child
        g = gog.graph
        raw = reduce_word(w * GroupWord(gog, w.end, rep,
                                        [(e, gog.vgroup(g.t(e)).identity)]))
        bypassed += raw != child
    # the fallback is what makes those children canonical
    assert bypassed > 0


def oracle_child_steps(w, fan):
    """The children of w by full reduction of w·rep·e·1, canonicalized
    on the unproven steps: the construction before the seam-only step."""
    gog = w.gog
    g = gog.graph
    last = w.pairs[-1][0] if w.pairs else None
    out = []
    for e in g.edges_at(w.end):
        ident_t = gog.vgroup(g.t(e)).identity
        for rep, unproven in fan[e]:
            nf = reduce_word(w * GroupWord(gog, w.end, rep, [(e, ident_t)]))
            if len(nf.pairs) == len(w.pairs) + 1:
                if last in unproven:
                    nf = canonical_coset_word(nf)
                out.append((e, rep, nf))
    return out


@pytest.mark.parametrize("make", [sl2z_gog, c4_c6_free, c2_c2_free,
                                   s3_d4_amalgam, hnn_c6, free_rank2,
                                   _relabelled_s3_d4])
def test_child_steps_match_full_reduction(make):
    gog = make()
    fan = _fan_table(gog)
    parents = {w for w, _e, _rep, _child in
               _sampled_children(gog, fan, random.Random(5), radius=6)}
    for base in range(gog.graph.num_vertices):
        parents.update(tv.rep for tv in build_tree_ball(gog, 3, base).verts)
    for w in parents:
        assert list(_child_steps(w, fan)) == oracle_child_steps(w, fan)


def test_tree_balls_make_no_reductions(monkeypatch):
    # every built-in step is proven and the center is a bare element, so
    # neither builder reduces a word
    from gogtools import gog as gog_module
    from gogtools.cayley_abels import quotient_tree_ball
    from gogtools.smallcanc import evaluation_wp

    reductions = counting(monkeypatch, gog_module, "reduce_word")
    sl2z = sl2z_gog()
    assert build_tree_ball(sl2z, 10).vertex_count() == 187
    assert quotient_tree_ball(sl2z, [], 10).vertex_count() == 187
    c2c2 = c2_c2_free()
    ev = evaluation_wp(c2c2, make_dihedral(20), [[0, 20], [0, 21]])
    ball = quotient_tree_ball(c2c2, [ab_word(c2c2, [1] * 40)], 20, wp=ev)
    assert ball.vertex_count() == 40
    assert reductions[0] == 0


def oracle_canonical_edge_word(word, e):
    """Minimum of reduce(word·h) over h in im(inj(ē)) ≤ vgroup(o(e))."""
    gog = word.gog
    g = gog.graph
    assert word.end == g.o(e)
    best = None
    for h in sorted(gog.image(g.bar(e))):
        cand = reduce_word(word * GroupWord(gog, word.end, h))
        if best is None or cand.key() < best.key():
            best = cand
    return best


@pytest.mark.parametrize("make", [sl2z_gog, c4_c6_free, c2_c2_free,
                                   s3_d4_amalgam, hnn_c6, free_rank2,
                                   _relabelled_s3_d4])
def test_edge_words_match_oracle(make):
    # the ball reads each edge word off the canonical child; the oracle
    # finds a y in vgroup(o(e)) with w·y·e in the child's coset and takes
    # the least word over y·im(inj(ē))
    gog = make()
    g = gog.graph
    checked = 0
    for base in range(g.num_vertices):
        ball = build_tree_ball(gog, 4, base=base)
        for te in ball.edges:
            word, e = _edge_word(ball, te)
            w, child = ball.verts[te.u].rep, ball.verts[te.v].rep
            ident_t = gog.vgroup(g.t(e)).identity
            y = next(y for y in range(gog.vgroup(g.o(e)).order)
                     if canonical_coset_word(reduce_word(
                         w * GroupWord(gog, w.end, y, [(e, ident_t)])))
                     == child)
            assert word == oracle_canonical_edge_word(
                w * GroupWord(gog, w.end, y), e)
            checked += 1
    assert checked


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


# sha256 of tree_to_json (as sorted-key JSON) and of tree_to_dot at R = 4
EXPORT_DIGESTS = [
    ("c2c2_free", 0, "02d1e7a745717483877c22602242d3561705d044a72730d5e060e9d0ff69e94a",
     "6b94b1a9b1fc29550f510cd21bbbefbfe76e6a6ea76a05f7c085842091112c8c"),
    ("c2c2_free", 1, "61d10d1f09b490ac8d3f44adae518cb45c7f9009807f44b6f07e8b4def1ae6d0",
     "32dbfb2868160e47b0eb87b07644fa5a3ee8b2c8d922fb1df22c1f0eefe0ed87"),
    ("c4c6_free", 0, "f038f295e176e5150a0998740d78a61c56aaa756635b1267b3641e1a36f1b965",
     "c52466b2f92931061fb018c7e0bf901221459e8f236e8cdb2f6b7aad1b7420eb"),
    ("c4c6_free", 1, "2fd255fa167ced9fcef65d9ea49a0b9b35089d2d0202a05b56a9c096ad30e58e",
     "0e137b9e716a861be43ca5c24dca92a9fe59bc7a56095e54bd814a647b01563c"),
    ("free_rank2", 0, "717ad3a0a62b4b1a96e92f0533df76bf1a4c7e5cb5cf5aaeeb6e65a8610f4956",
     "ba40940cc5c37a7b324fa05947b5efc7ac4bec21d6dfc05643a1c93bedeb89d9"),
    ("hnn_c6", 0, "594483871d9c9f60ba96b698d9666f22f30bfe6109356adec4292071c67e068f",
     "cb0a482ab95a13cdceeff1e39ce2c1eb359b18e0dd564ec93cac79e7b51f7735"),
    ("s3_d4", 0, "9832de5abf0c41c35a20035fce975ade1e3551115b3fba184e77707f7d1f5b61",
     "8db1c3257d9f2ca95b50661063d84347206219e0f09deaecc29218b8887ddf5c"),
    ("s3_d4", 1, "0e8e85ef0cfed564afc1db88a6cf5444688ff6e2cc3e391305d7e48429f6e595",
     "af4a617b6949a4bc03d4a9c261003eaa88d7a7d476832b1a4c381883398bfbbc"),
    ("sl2z", 0, "4653f2d9a4c7598d6e6703bfaf66c063fb7d65c8c523cf943ae5c477961695fc",
     "f94bd092900d2ba60871ffe9dc3aab00f1ae3f6d8aff6641405304ad597fdb45"),
    ("sl2z", 1, "ab0fe13c9ec98028ca8b43049113342bf5d837cdc4b832e055978d1d17ef4375",
     "3dbcfa1b172f66101a56de76afb7b2112d8a635c756cad97425f255c185a0fd0"),
]


def test_export_digests_every_model_and_base():
    want = {(name, base): digests for name, base, *digests in EXPORT_DIGESTS}
    got = {}
    for name in MODELS:
        gog = MODELS[name]()
        for base in range(gog.graph.num_vertices):
            ball = build_tree_ball(gog, 4, base=base)
            text = json.dumps(tree_to_json(ball), sort_keys=True)
            got[name, base] = [hashlib.sha256(text.encode()).hexdigest(),
                               hashlib.sha256(tree_to_dot(ball).encode())
                               .hexdigest()]
    assert got == want


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
