"""Coset and quotient constructions of Cayley–Abels balls.

Independent oracles: direct coordinate geometry for the coned-off plane,
evaluation into the finite dihedral quotient for the relator fixture, and
the subdivided tree ball for the two-constructions agreement.
"""

import hashlib
import json

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from fixtures import MODEL_IDS, hand_ball
from gogtools import models
from gogtools.cayley_abels import (
    GEdge,
    GGraphBall,
    GVertex,
    _edge_insert,
    ca_to_dot,
    ca_to_json,
    check_ca_conditions,
    compare_balls_qi,
    coset_graph_ball,
    quotient_tree_ball,
)
from gogtools.concrete import (
    FiniteConcrete,
    FreeAbelian,
    SubgroupHandle,
    generated_handle,
    trivial_handle,
)
from gogtools.complexes import hyperbolicity_estimate, omega_k, pi1_presentation
from gogtools.errors import CapExceeded, UnsupportedInput
from gogtools.fineness import alpha_geodesics, escaping_vectors
from gogtools.finite import make_cyclic, make_dihedral
from gogtools.gog import reduce_word, syllable_length
from gogtools.smallcanc import KernelOracle, evaluation_wp
from gogtools.tree import (
    _edge_word,
    build_tree_ball,
    canonical_coset_word,
    check_tree_ball,
    geodesic,
)


class MatrixGroup:
    """2×2 integer matrices of determinant 1; elements are ((a,b),(c,d))."""

    @property
    def identity(self):
        return ((1, 0), (0, 1))

    def op(self, x, y):
        return (
            (
                x[0][0] * y[0][0] + x[0][1] * y[1][0],
                x[0][0] * y[0][1] + x[0][1] * y[1][1],
            ),
            (
                x[1][0] * y[0][0] + x[1][1] * y[1][0],
                x[1][0] * y[0][1] + x[1][1] * y[1][1],
            ),
        )

    def inv(self, x):
        # adjugate; valid since det = 1
        return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


# -- coset construction -----------------------------------------------------


def test_integer_line():
    ball = models.ball({"family": "line", "radius": 3})
    assert ball.vertex_count() == 7
    assert ball.edge_count() == 6
    assert sorted(ball.degree(i) for i in range(7)) == [1, 1, 2, 2, 2, 2, 2]
    rep = check_ca_conditions(ball)
    assert rep["all_pass"]
    assert all(v.stab_order == 1 for v in ball.verts)


def test_coned_plane_shape():
    ball = models.ball({"family": "coned_plane", "radius": 2})
    grid = [v for v in ball.verts if v.tag == "G/U"]
    cones = [v for v in ball.verts if v.tag == "G/H0"]
    assert {v.rep for v in grid} == {
        (a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a) + abs(b) <= 2
    }
    assert sorted(v.key[1] for v in cones) == [-1, 0, 1]
    # each cone is adjacent to every grid vertex on its row
    idx = {v.rep: i for i, v in enumerate(ball.verts) if v.tag == "G/U"}
    for i, v in enumerate(ball.verts):
        if v.tag != "G/H0":
            continue
        k = v.key[1]
        row = {j for j, _ in ball.nbrs[i]}
        assert row == {idx[(n, k)] for n in range(-2, 3) if abs(n) + abs(k) <= 2}


def test_coned_plane_conditions():
    ball = models.ball({"family": "coned_plane", "radius": 4})
    rep = check_ca_conditions(ball)
    assert rep["simplicial"]["pass"]
    assert rep["connected"]["pass"]
    assert rep["edge_stabilizers_finite"]["pass"]
    assert rep["vertex_stabilizer_classes"] == {
        "G/U": "finite", "G/H0": "infinite-designated",
    }
    dd = rep["degree_dichotomy"]
    assert dd["pass"]
    assert dd["infinite_stabilizer_tagged"]  # cones were evaluated and flagged
    # direct count oracle: in-ball degree of the k-row cone is 2(R-|k|)+1
    for i in dd["infinite_stabilizer_tagged"]:
        k = ball.verts[i].key[1]
        assert ball.degree(i) == 2 * (4 - abs(k)) + 1


def test_cyclic_triangle():
    C6 = FiniteConcrete(make_cyclic(6))
    U = SubgroupHandle("U", contains=lambda x: x in (0, 3), elements=[0, 3])
    ball = coset_graph_ball(C6, U, [1], [], 3)
    assert ball.vertex_count() == 3
    assert ball.edge_count() == 3
    assert all(ball.degree(i) == 2 for i in range(3))
    assert check_ca_conditions(ball)["all_pass"]


def test_handle_without_coset_names_refused():
    # a handle must name its cosets, by key or by enumeration
    with pytest.raises(ValueError, match="'line'"):
        SubgroupHandle("line", contains=lambda x: x[1] == 0, is_finite=False)
    with pytest.raises(ValueError, match="'H'"):
        SubgroupHandle("H", contains=lambda x: True)


def test_handle_with_empty_enumeration_refused():
    # a subgroup holds the identity, so an empty enumeration names nothing
    with pytest.raises(ValueError, match="'E'.*empty enumeration"):
        SubgroupHandle("E", contains=lambda x: False, elements=[])
    with pytest.raises(ValueError, match="'E'.*empty enumeration"):
        SubgroupHandle("E", contains=lambda x: False, elements=[],
                       coset_key=lambda x: x)


def test_coset_ball_refuses_enumeration_without_identity():
    # a one-element key names a coset by its element, which holds only when
    # that element is the identity: U and each enumerated cone family are
    # checked at entry
    Z2 = FreeAbelian(2)
    shifted = SubgroupHandle("shifted", contains=lambda x: x == (1, 0),
                             elements=[(1, 0)])
    S = [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match="'shifted'.*lacks the identity"):
        coset_graph_ball(Z2, shifted, S, [], 2)
    with pytest.raises(ValueError, match="'shifted'.*lacks the identity"):
        coset_graph_ball(Z2, trivial_handle(Z2), S, [shifted], 2)


def test_coset_ball_cap():
    with pytest.raises(CapExceeded):
        models.ball({"family": "grid", "radius": 10}, cap=50)


def test_coset_ball_deterministic():
    a, b = (json.dumps(ca_to_json(models.ball({"family": "coned_plane",
                                                 "radius": 3})),
                       sort_keys=True) for _ in range(2))
    assert a == b


# -- one expansion per vertex -----------------------------------------------


def _ball_closing_over_every_u_vertex(G, U, S, hs, R):
    """Oracle: the coset ball as built when its closing pass ran over every
    U-vertex, not only the boundary; the sweep is the same."""
    handles = {"G/U": U, **{f"G/H{i}": h for i, h in enumerate(hs)}}
    s_stab = [sum(1 for u in U.elements
                  if U.contains(G.op(G.inv(s), G.op(u, s)))) for s in S]
    cone_stab = [sum(1 for u in U.elements if h.contains(u)) for h in hs]
    verts, edges, eindex, notes, index = [], [], {}, [], {}

    def add_vertex(tag, rep, key, dist):
        h = handles[tag]
        verts.append(GVertex(tag, rep, key, dist, h.name,
                             h.order if h.is_finite else None))
        index[tag, key] = len(verts) - 1
        return len(verts) - 1

    def candidates(i):
        vx = verts[i]
        if vx.tag != "G/U":
            hi = int(vx.tag[3:])
            return [("G/U", G.op(vx.rep, x), f"cone:H{hi}", cone_stab[hi])
                    for x in hs[hi].elements or ()]
        out = []
        for u in U.elements:
            gu = G.op(vx.rep, u)
            for si, s in enumerate(S):
                out.append(("G/U", G.op(gu, s), f"s{si}", s_stab[si]))
                out.append(("G/U", G.op(gu, G.inv(s)), f"s{si}", s_stab[si]))
            out += [(f"G/H{hi}", gu, f"cone:H{hi}", cone_stab[hi])
                    for hi in range(len(hs))]
        return out

    def link(i, j, etag, estab):
        _edge_insert(edges, eindex, etag, i, j, estab, notes)

    add_vertex("G/U", G.identity, U.key_of(G, G.identity), 0)
    frontier = [0]
    for dist in range(1, R + 1):
        staged = {}
        for i in frontier:
            for tag, rep, etag, estab in candidates(i):
                key = handles[tag].key_of(G, rep)
                if (tag, key) in index:
                    link(i, index[tag, key], etag, estab)
                else:
                    staged.setdefault((tag, key), (rep, []))[1].append(
                        (i, etag, estab))
        frontier = []
        for tag, key in sorted(staged, key=lambda tk: (tk[0], repr(tk[1]))):
            rep, sources = staged[tag, key]
            j = add_vertex(tag, rep, key, dist)
            for src, etag, estab in sources:
                link(src, j, etag, estab)
            frontier.append(j)
    for i in range(len(verts)):
        if verts[i].tag == "G/U":
            for tag, rep, etag, estab in candidates(i):
                found = index.get((tag, handles[tag].key_of(G, rep)))
                if found is not None:
                    link(i, found, etag, estab)
    return GGraphBall(verts, edges, R, notes)


def _line_family(name, axis):
    return SubgroupHandle(name, contains=lambda x: x[1 - axis] == 0,
                          coset_key=lambda x: x[1 - axis], is_finite=False)


def _coset_models():
    """(G, U, S, hs) per model: lines, planes, finite groups with a
    nontrivial U and a finite H, and SL2(Z) matrices over U = C4."""
    Z, Z2 = FreeAbelian(1), FreeAbelian(2)
    D4, D5 = FiniteConcrete(make_dihedral(4)), FiniteConcrete(make_dihedral(5))
    C12 = FiniteConcrete(make_cyclic(12))
    Gm = MatrixGroup()
    S, W, T = ((0, -1), (1, 0)), ((0, -1), (1, 1)), ((1, 1), (0, 1))
    return {
        "line": (Z, trivial_handle(Z), [(1,)], []),
        "grid": (Z2, trivial_handle(Z2), [(1, 0), (0, 1)], []),
        "coned-plane": (Z2, trivial_handle(Z2), [(1, 0), (0, 1)],
                        [_line_family("row", 0)]),
        "diagonal-two-families": (Z2, trivial_handle(Z2),
                                  [(1, 0), (0, 1), (1, 1)],
                                  [_line_family("row", 0),
                                   _line_family("column", 1)]),
        # BFS exhausts these three before radius 4; the generator 6 of
        # C12 lies in U and gives loop notes
        "dihedral-4": (D4, generated_handle("U", D4, [4]), [1],
                       [generated_handle("R", D4, [2])]),
        "dihedral-5": (D5, generated_handle("U", D5, [5]), [1, 6],
                       [generated_handle("R", D5, [1])]),
        "cyclic-12": (C12, generated_handle("U", C12, [6]), [1, 6],
                      [generated_handle("H", C12, [4])]),
        "matrix-c4": (Gm, generated_handle("C4", Gm, [S]), [T, W],
                      [generated_handle("B", Gm, [W])]),
    }


@pytest.mark.parametrize("model", sorted(_coset_models()))
def test_boundary_closing_pass_matches_every_vertex_pass(model):
    G, U, S, hs = _coset_models()[model]
    exhausted = False
    for R in range(9):
        ball = coset_graph_ball(G, U, S, hs, R)
        oracle = _ball_closing_over_every_u_vertex(G, U, S, hs, R)
        assert ca_to_json(ball) == ca_to_json(oracle)
        assert [v.key for v in ball.verts] == [v.key for v in oracle.verts]
        assert check_ca_conditions(ball) == check_ca_conditions(oracle)
        exhausted |= max(v.dist for v in ball.verts) < R
    assert exhausted == isinstance(G, FiniteConcrete)


def test_boundary_closing_pass_keeps_qi_report():
    coset_models = _coset_models()
    new = [coset_graph_ball(*coset_models[m], 6)
           for m in ("grid", "diagonal-two-families")]
    old = [_ball_closing_over_every_u_vertex(*coset_models[m], 6)
           for m in ("grid", "diagonal-two-families")]
    report = compare_balls_qi(*new)
    assert report == compare_balls_qi(*old)
    assert report["pairs"] > 10 and report["witness"] is not None


@pytest.mark.parametrize("make, R, steps, calls", [
    (lambda R: models.ball({"family": "grid", "radius": R}), 20, 4, 3365),
    (lambda R: models.ball({"family": "coned_plane", "radius": R}),
     20, 5, 4206),
    (lambda R: coset_graph_ball(*_coset_models()["matrix-c4"][:3], [], R),
     3, 4 * 4, None),
], ids=["grid", "coned-plane", "matrix-c4"])
def test_coset_ball_keys_each_candidate_once(monkeypatch, make, R, steps,
                                             calls):
    # the start vertex, then each U-vertex's |U|·(2|S| + |hs|) candidates
    # once: in the sweep inside radius R, in the closing pass on the
    # boundary; these cone families are infinite, so cones add none
    key_of = SubgroupHandle.key_of
    count = [0]

    def counted(self, G, x):
        count[0] += 1
        return key_of(self, G, x)

    monkeypatch.setattr(SubgroupHandle, "key_of", counted)
    ball = make(R)
    n_u = sum(1 for v in ball.verts if v.tag == "G/U")
    assert count[0] == 1 + steps * n_u
    if calls is not None:
        assert n_u == 2 * R * (R + 1) + 1
        assert count[0] == calls


@pytest.mark.parametrize("family", ["grid", "coned_plane"])
def test_coset_ball_group_ops_at_radius_20(monkeypatch, family):
    # the benchmark's two coset balls, S = {(1, 0), (0, 1)} and U = {1}:
    # each swept U-vertex g costs one op per step g·s^±1, 2|S| in all, and
    # none for g·1 or for a key (a one-element key is its element, a
    # line's key is read off it); setup spends s⁻¹·(u·s) per (s, u) pair on
    # the stabilizer orders, 2|S|·|U| more
    op = FreeAbelian.op
    count = [0]

    def counted(self, x, y):
        count[0] += 1
        return op(self, x, y)

    monkeypatch.setattr(FreeAbelian, "op", counted)
    ball = models.ball({"family": family, "radius": 20})
    n_u = sum(1 for v in ball.verts if v.tag == "G/U")
    assert n_u == 2 * 20 * 21 + 1
    assert count[0] == 4 * n_u + 4 == 3368


def test_key_of_matches_its_definition():
    # a handle with an enumeration keys x by its least product with an
    # element, a keyed handle by its key
    coset_models = _coset_models()
    Z2, C6 = FreeAbelian(2), FiniteConcrete(make_cyclic(6))
    cases = [(Z2, trivial_handle(Z2), [(0, 0), (3, -2), (-1, 5)]),
             (C6, trivial_handle(C6), range(6))]
    for model in ("dihedral-4", "cyclic-12", "matrix-c4"):
        G, U, S, hs = coset_models[model]
        xs = [G.identity, *S, *(G.op(s, t) for s in S for t in S)]
        cases += [(G, U, xs), (G, hs[0], xs)]
    assert sorted({len(h.elements) for _, h, _ in cases}) == [1, 2, 3, 4, 6]
    for G, h, xs in cases:
        for x in xs:
            assert h.key_of(G, x) == ("min", min(G.op(x, e)
                                                 for e in h.elements))
    for model in ("coned-plane", "diagonal-two-families"):
        G, _, _, hs = coset_models[model]
        for h in hs:
            for x in [(0, 0), (2, -3), (-4, 1)]:
                assert h.key_of(G, x) == ("ck", h.coset_key(x))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _coset_ball_digests(ball):
    """sha256 of the sorted-key ``ca_to_json``, of ``ca_to_dot`` and of the
    list of vertex keys."""
    return (_sha(json.dumps(ca_to_json(ball), sort_keys=True)),
            _sha(ca_to_dot(ball)), _sha(repr([v.key for v in ball.verts])))


# per coset model, sha256 of the ball digests at R = 0 … 8, one line per R
COSET_DIGESTS = {
    "coned-plane":
        "3b6e324e52dbce9af8881e96bd99eba066e10590a0a8dd45c59d41e5e8d89031",
    "cyclic-12":
        "d068024ae1d982713b59a3e759aa646e78b02ba7e0552e5e923e38a96402db0d",
    "diagonal-two-families":
        "c5851c09849bb8f66f95c838ea005f250ed077de5155951ed439786a447c2365",
    "dihedral-4":
        "1f690a67dfb0fe932afa86393fae62c1319bb3fbaa585a68b17c2c358ec39766",
    "dihedral-5":
        "0379a65c22820f2da5fed33ff4cd4262fae8bb7c92fcb7a447405c1f8cb16b64",
    "grid": "7c137ff0f65aa3e5ca5c2b2cd2eb4e0a686f228c98ed4c92a8e5fe3a094e8c7f",
    "line": "bb01a49e6707eac92a4c8b4c1d02b5beecc3903ac055585bb06b0dd11896d057",
    "matrix-c4":
        "4469f2835c938c53263a13cd601f9de54cd3f3e9c5160bce9d9c82d3f26e8e0b",
}

# the two coset balls of the benchmark's ``balls`` pass, at R = 20
COSET_R20_DIGESTS = {
    "grid": (
        "f40478ac6dc4a8321bfe5cca62d8b560f6c307e06d861295056ad428bad4ef6b",
        "f7ef7f0e86eec51cf23c8599f26be6ed30fe2da837f8961c4421322116215010",
        "3cb5e37397df11030938eb41406f02c203e300e6e045a3c45c48691369293164"),
    "coned_plane": (
        "29528c5024fcf26fc06c9f5e038ece26ad83e007d09921e8781d23bdd8124ce7",
        "bb724e54300437fc3e8016aa9fa446932c20e10f34dcb12f7385b0bcfcb22cb0",
        "e48dbec3947bff04edf04c5e39d704aea0dc4604e16308766c9eaa2c80755143"),
}


@pytest.mark.parametrize("model", sorted(COSET_DIGESTS))
def test_coset_ball_digests(model):
    G, U, S, hs = _coset_models()[model]
    lines = [" ".join(_coset_ball_digests(coset_graph_ball(G, U, S, hs, R)))
             for R in range(9)]
    assert _sha("\n".join(lines)) == COSET_DIGESTS[model]


@pytest.mark.parametrize("family", sorted(COSET_R20_DIGESTS))
def test_coset_ball_digests_at_radius_20(family):
    ball = models.ball({"family": family, "radius": 20})
    assert _coset_ball_digests(ball) == COSET_R20_DIGESTS[family]


# -- two constructions agree ------------------------------------------------


def _nx_of_ball(ball):
    G = nx.Graph()
    for i, v in enumerate(ball.verts):
        G.add_node(i, tag=v.tag)
    for e in ball.edges:
        G.add_edge(e.u, e.v)
    return G


def test_constructions_agree_on_subdivided_tree():
    # matrix model: U = {±I}, no generators, cones over A = <S>, B = <W>
    Gm = MatrixGroup()
    S = ((0, -1), (1, 0))
    W = ((0, -1), (1, 1))
    negI = ((-1, 0), (0, -1))
    A = generated_handle("A", Gm, [S])
    B = generated_handle("B", Gm, [W])
    C = generated_handle("C", Gm, [negI])
    assert (A.order, B.order, C.order) == (4, 6, 2)
    cos = coset_graph_ball(Gm, C, [], [A, B], 4)

    # subdivided tree ball of the abstract amalgam, radius 4 around the
    # midpoint of the base edge
    tball = build_tree_ball(models.sl2z(), 3)
    sub = nx.Graph()
    for i, tv in enumerate(tball.verts):
        sub.add_node(("v", i), tag=f"G/H{tv.rep.end}")
    for k, te in enumerate(tball.edges):
        sub.add_node(("m", k), tag="G/U")
        sub.add_edge(("v", te.u), ("m", k))
        sub.add_edge(("m", k), ("v", te.v))
    base_mid = ("m", 0)
    assert {tball.edges[0].u, tball.edges[0].v} == {0, 1}
    dists = nx.single_source_shortest_path_length(sub, base_mid, cutoff=4)
    inner = sub.subgraph(list(dists)).copy()

    assert cos.vertex_count() == inner.number_of_nodes() == 13
    matcher = GraphMatcher(
        inner, _nx_of_ball(cos), node_match=categorical_node_match("tag", None)
    )
    assert matcher.is_isomorphic()


# -- quotient construction --------------------------------------------------


@pytest.mark.parametrize("R", [0, 1, 4])
@pytest.mark.parametrize("make", [
    models.sl2z, models.c4c6_free, models.c2c2_free, models.s3_d4,
    models.hnn_c6, models.free_rank2], ids=MODEL_IDS.get)
def test_quotient_no_relators_matches_tree(make, R):
    # the HNN and free-group loops (o = t) are where the step that folds
    # back toward the center is easiest to get wrong: a tree, with the
    # index-formula degrees inside, canonical reps and edges that point
    # away from the center
    gog = make()
    qball = quotient_tree_ball(gog, [], R)
    assert check_tree_ball(qball) == []
    assert all(canonical_coset_word(v.rep) == v.rep
               for v in qball.verts)
    assert all(v.dist == len(v.rep.pairs) for v in qball.verts)
    for e in qball.edges:
        assert qball.verts[e.v].dist == qball.verts[e.u].dist + 1
        assert e.tag == f"T/e{_edge_word(qball, e)[1] >> 1}"


def test_quotient_dihedral_hexagon():
    gog = models.c2c2_free()
    D3 = make_dihedral(3)
    # evaluation oracle: s -> the reflection 3, t -> the reflection 4;
    # a loop lies in the normal closure of (st)^3 iff it evaluates trivially
    send = {0: {0: 0, 1: 3}, 1: {0: 0, 1: 4}}

    def wp(w):
        val = send[w.start][w.head]
        at = w.start
        for e, x in w.pairs:
            at = gog.graph.t(e)
            val = D3.op(val, send[at][x])
        return val == 0

    rel = models.ab_word(gog, [1, 1, 1, 1, 1, 1])
    assert wp(rel)
    ball6 = quotient_tree_ball(gog, [rel], 6, wp=wp)
    assert ball6.vertex_count() == 6
    assert ball6.edge_count() == 6
    assert all(ball6.degree(i) == 2 for i in range(6))
    rep = check_ca_conditions(ball6)
    assert rep["all_pass"]
    # stabilized: radius 3 already sees the whole hexagon
    ball3 = quotient_tree_ball(gog, [rel], 3, wp=wp)
    assert ball3.vertex_count() == 6
    assert ball3.edge_count() == 6


def test_quotient_long_relator_no_identification():
    gog = models.c4c6_free()
    r = models.ab_word(gog, [1, 1, 2, 2, 3, 3])
    r12 = r
    for _ in range(11):
        r12 = r12 * r

    def wp(w):
        # any nontrivial element of the normal closure has dozens of
        # syllables; everything this radius-3 construction asks about is short
        assert syllable_length(reduce_word(w)) < 63
        return False

    qball = quotient_tree_ball(gog, [r12], 3, wp=wp)
    tball = build_tree_ball(gog, 3)
    assert qball.vertex_count() == tball.vertex_count()
    assert qball.edge_count() == tball.edge_count()
    assert [v.rep for v in qball.verts] == [tv.rep for tv in tball.verts]


def test_quotient_undecidable_aborts():
    gog = models.c2c2_free()
    rel = models.ab_word(gog, [1, 1, 1, 1, 1, 1])
    with pytest.raises(UnsupportedInput):
        quotient_tree_ball(gog, [rel], 3, wp=lambda w: None)


def test_quotient_needs_wp():
    gog = models.c2c2_free()
    rel = models.ab_word(gog, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        quotient_tree_ball(gog, [rel], 3)


@pytest.mark.parametrize("base", [-1, 2])
def test_quotient_base_must_be_a_vertex(base):
    with pytest.raises(ValueError, match="base vertex"):
        quotient_tree_ball(models.c2c2_free(), [], 2, base=base)


# sha256 of ca_to_json (as sorted-key JSON) and of ca_to_dot for quotient
# balls with relators: C2∗C2 modulo (ab)^n evaluated in D_n at radius n,
# and C4∗C6 modulo (a b a² b² a³ b³)^12 under the kernel oracle at R = 2
# (the ball the m-thin job builds)
QUOTIENT_DIGESTS = {
    "D3": ("9782a1c6276a389090333e7b1ea18bf38001715d552e76642e7f2194cadeb480",
           "c1bcbc029b0962ae08503503879b1f5f057af56abdc4a357ec78927ee27e9b1b"),
    "D10": (
        "87b664fb6399f81ab335c8f7a0bd7fe08735d39a4cd0c21f3b39c29c5fa6f882",
        "03afa99392b1cbf5f38ea924da05474d9e5f27b0e2516c4e57abda8ed8eb0d93"),
    "D80": (
        "073a5da55ddc7f4648e303d60caffebfc56e5dbd915661b00a990450f5adb972",
        "31ec84475bad7d6d99456041b8ca9db75a411c0982241f80263b8ed37be8d809"),
    "c4c6-r12-R2": (
        "ce7006624178c7a1c2b433e791bd8ef2479e77136239b4dfcc3171e33e37b350",
        "c77dfeeb4d01e4e133fe0807d920d40e850225c10d5763afa3134b5626c25dd2"),
}


def _relator_ball(name):
    if name.startswith("D"):
        n = int(name[1:])
        gog = models.c2c2_free()
        wp = evaluation_wp(gog, make_dihedral(n), [[0, n], [0, n + 1]])
        return quotient_tree_ball(gog, [models.ab_word(gog, [1] * (2 * n))],
                                  n, wp=wp)
    gog = models.c4c6_free()
    oracle = KernelOracle(gog, models.ab_word(gog, [1, 1, 2, 2, 3, 3]), 12)
    return quotient_tree_ball(gog, [oracle.rm], 2, wp=oracle)


@pytest.mark.parametrize("name", sorted(QUOTIENT_DIGESTS))
def test_quotient_digests_with_relators(name):
    ball = _relator_ball(name)
    text = json.dumps(ca_to_json(ball), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(ca_to_dot(ball).encode()).hexdigest()
            ) == QUOTIENT_DIGESTS[name]


# -- invariants across radii ------------------------------------------------


def _inner_distances(ball, depth):
    ids = [i for i, v in enumerate(ball.verts) if v.dist <= depth]
    label = {
        i: (ball.verts[i].tag, repr(ball.verts[i].key)) for i in ids
    }
    out = {}
    for i in ids:
        d = ball.bfs(i)[0]
        for j in ids:
            out[(label[i], label[j])] = d.get(j)
    return out


def test_monotonicity_coned_plane():
    b3, b4 = (models.ball({"family": "coned_plane", "radius": R})
              for R in (3, 4))
    assert _inner_distances(b3, 2) == _inner_distances(b4, 2)


def test_monotonicity_subdivided_tree_model():
    Gm = MatrixGroup()
    S = ((0, -1), (1, 0))
    W = ((0, -1), (1, 1))
    negI = ((-1, 0), (0, -1))
    hs = [generated_handle("A", Gm, [S]), generated_handle("B", Gm, [W])]
    C = generated_handle("C", Gm, [negI])
    b2 = coset_graph_ball(Gm, C, [], hs, 2)
    b3 = coset_graph_ball(Gm, C, [], hs, 3)
    assert _inner_distances(b2, 1) == _inner_distances(b3, 1)


def test_empirical_qi_constant():
    Z2 = FreeAbelian(2)
    U = trivial_handle(Z2)
    b1 = coset_graph_ball(Z2, U, [(1, 0), (0, 1)], [], 4)
    b2 = coset_graph_ball(Z2, U, [(1, 0), (0, 1), (1, 1)], [], 4)
    out = compare_balls_qi(b1, b2)
    assert out["ell"] == 2
    assert out["pairs"] > 10
    assert out["witness"] is not None


# -- the one search ---------------------------------------------------------


def _reversed(ball):
    """The same ball with its edge list in reverse order."""
    return GGraphBall(ball.verts, ball.edges[::-1], ball.radius, ball.notes)


def _ends(ball, k):
    e = ball.edges[k]
    return frozenset((e.u, e.v))


def _grid_results(ball):
    """Every result on the ball that names vertices, not edge indices; the
    π₁ generators are named by their edges' endpoints."""
    n = ball.vertex_count()
    escaping = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                es = escaping_vectors(ball, u, v, 3)
                escaping[u, v] = (es.members, es.witnesses)
    gens = pi1_presentation(omega_k(ball, 4)).generators
    return (escaping, alpha_geodesics(ball, range(n)),
            {_ends(ball, int(g[1:])) for g in gens},
            hyperbolicity_estimate(ball))


def test_bfs_breaks_ties_by_index_not_insertion_order():
    # the 3 x 3 grid, vertex 3r + c: most pairs have tied shortest paths
    grid = hand_ball([(i, i + 1) for i in range(9) if i % 3 < 2]
                     + [(i, i + 3) for i in range(6)])
    backward = _reversed(grid)
    assert _grid_results(grid) == _grid_results(backward)
    assert alpha_geodesics(backward, [0, 8])[0, 8] == [0, 1, 2, 5, 8]
    assert grid.bfs(8)[1][0] == (1, 0)  # reached from 1 along edge 0

    tree = quotient_tree_ball(models.sl2z(), [], 4)
    backward = _reversed(tree)
    for i in range(tree.vertex_count()):
        for j in range(tree.vertex_count()):
            ends = [[_ends(b, k) for _, k in geodesic(("v", i), ("v", j), b)]
                    for b in (tree, backward)]
            assert ends[0] == ends[1]

    with pytest.raises(ValueError, match="removed vertex"):
        grid.bfs(4, avoid=4)


# -- condition checks and exports -------------------------------------------


def test_doubled_edge_fails_simplicial():
    verts = [
        GVertex("X", 0, 0, 0, "triv", 1),
        GVertex("X", 1, 1, 1, "triv", 1),
    ]
    edges = [GEdge("t", 0, 1, 1), GEdge("t", 0, 1, 1)]
    bad = GGraphBall(verts, edges, 1)
    rep = check_ca_conditions(bad)
    assert not rep["simplicial"]["pass"]
    assert rep["simplicial"]["doubled_pairs"] == 1
    assert not rep["all_pass"]


def test_exports():
    ball = models.ball({"family": "coned_plane", "radius": 2})
    data = ca_to_json(ball)
    assert data["radius"] == 2
    assert len(data["vertices"]) == ball.vertex_count()
    tags = {v["tag"] for v in data["vertices"]}
    assert tags == {"G/U", "G/H0"}
    dot = ca_to_dot(ball)
    assert dot.startswith("graph caball {")
    assert dot.count(" -- ") == ball.edge_count()
    assert "stabinf" in dot  # cone vertices annotated as not finitely listed
