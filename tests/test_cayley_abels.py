"""Coset and quotient constructions of Cayley–Abels balls.

Independent oracles: direct coordinate geometry for the coned-off plane,
evaluation into the finite dihedral quotient for the relator fixture, and
the subdivided tree ball for the two-constructions agreement.
"""

import json

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    coned_plane_ball,
    free_rank2,
    hnn_c6,
    line_ball,
    s3_d4_amalgam,
    sl2z_gog,
)
from gogtools.cayley_abels import (
    GEdge,
    GGraphBall,
    GVertex,
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
    MatrixGroup,
    SubgroupHandle,
    generated_handle,
    trivial_handle,
)
from gogtools.errors import CapExceeded, UnsupportedInput
from gogtools.finite import make_cyclic, make_dihedral
from gogtools.gog import reduce_word, syllable_length
from gogtools.tree import (
    _edge_word,
    build_tree_ball,
    canonical_coset_word,
    check_tree_ball,
)


# -- coset construction -----------------------------------------------------


def test_integer_line():
    ball = line_ball(3)
    assert ball.vertex_count() == 7
    assert ball.edge_count() == 6
    assert sorted(ball.degree(i) for i in range(7)) == [1, 1, 2, 2, 2, 2, 2]
    rep = check_ca_conditions(ball)
    assert rep["all_pass"]
    assert all(v.stab_order == 1 for v in ball.verts)


def test_coned_plane_shape():
    ball = coned_plane_ball(2)
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
        row = {j for j, _ in ball.adjacency[i]}
        assert row == {idx[(n, k)] for n in range(-2, 3) if abs(n) + abs(k) <= 2}


def test_coned_plane_conditions():
    ball = coned_plane_ball(4)
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


def test_coset_ball_cap():
    Z2 = FreeAbelian(2)
    with pytest.raises(CapExceeded):
        coset_graph_ball(Z2, trivial_handle(Z2), [(1, 0), (0, 1)], [], 10, cap=50)


def test_coset_ball_deterministic():
    a = json.dumps(ca_to_json(coned_plane_ball(3)), sort_keys=True)
    b = json.dumps(ca_to_json(coned_plane_ball(3)), sort_keys=True)
    assert a == b


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
    tball = build_tree_ball(sl2z_gog(), 3)
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
@pytest.mark.parametrize("make", [sl2z_gog, c4_c6_free, c2_c2_free,
                                   s3_d4_amalgam, hnn_c6, free_rank2])
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
    gog = c2_c2_free()
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

    rel = ab_word(gog, [1, 1, 1, 1, 1, 1])
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
    gog = c4_c6_free()
    r = ab_word(gog, [1, 1, 2, 2, 3, 3])
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
    gog = c2_c2_free()
    rel = ab_word(gog, [1, 1, 1, 1, 1, 1])
    with pytest.raises(UnsupportedInput):
        quotient_tree_ball(gog, [rel], 3, wp=lambda w: None)


def test_quotient_needs_wp():
    gog = c2_c2_free()
    rel = ab_word(gog, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        quotient_tree_ball(gog, [rel], 3)


@pytest.mark.parametrize("base", [-1, 2])
def test_quotient_base_must_be_a_vertex(base):
    with pytest.raises(ValueError, match="base vertex"):
        quotient_tree_ball(c2_c2_free(), [], 2, base=base)


# -- invariants across radii ------------------------------------------------


def _inner_distances(ball, depth):
    ids = [i for i, v in enumerate(ball.verts) if v.dist <= depth]
    label = {
        i: (ball.verts[i].tag, repr(ball.verts[i].key)) for i in ids
    }
    out = {}
    for i in ids:
        d = ball.distances(i)
        for j in ids:
            out[(label[i], label[j])] = d.get(j)
    return out


def test_monotonicity_coned_plane():
    b3, b4 = coned_plane_ball(3), coned_plane_ball(4)
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


# -- condition checks and exports -------------------------------------------


def test_doubled_edge_fails_simplicial():
    verts = [
        GVertex("X", 0, 0, 0, "triv", 1),
        GVertex("X", 1, 1, 1, "triv", 1),
    ]
    edges = [GEdge("t", 0, 1, 1), GEdge("t", 0, 1, 1)]
    adjacency = [[(1, 0), (1, 1)], [(0, 0), (0, 1)]]
    bad = GGraphBall(verts, edges, adjacency, 1)
    rep = check_ca_conditions(bad)
    assert not rep["simplicial"]["pass"]
    assert rep["simplicial"]["doubled_pairs"] == 1
    assert not rep["all_pass"]


def test_exports():
    ball = coned_plane_ball(2)
    data = ca_to_json(ball)
    assert data["radius"] == 2
    assert len(data["vertices"]) == ball.vertex_count()
    tags = {v["tag"] for v in data["vertices"]}
    assert tags == {"G/U", "G/H0"}
    dot = ca_to_dot(ball)
    assert dot.startswith("graph caball {")
    assert dot.count(" -- ") == ball.edge_count()
    assert "stabinf" in dot  # cone vertices annotated as not finitely listed
