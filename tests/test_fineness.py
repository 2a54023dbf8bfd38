"""Angle metrics, escaping sets, stabilization verdicts, attachments, and
the W/Z machinery.

Independent oracles: brute-force simple-path enumeration for angles, the DFS
path enumerator against the BFS-computed escaping sets (directly and through
the recursion identity), coordinate counts on the coned-off plane, and
hand-derived W/Z sets for the C4 *_{C2} C6 tree with one cone orbit.
"""

import json
import random

import pytest

from fixtures import hand_ball
from gogtools import models
from gogtools.cayley_abels import GEdge, GGraphBall, GVertex, quotient_tree_ball
from gogtools.concrete import SubgroupHandle, trivial_handle
from gogtools.errors import CapExceeded
from gogtools.fineness import (
    INF,
    AbelianBallAction,
    AngleTable,
    TreeBallAction,
    attach_edge_orbit,
    enumerate_escaping_paths,
    escaping_vectors,
    fineness_report,
    neighbors,
    qi_certificate,
    verify_wz_containment,
    wz_chain,
)


def mkball(n, edge_list):
    """Plain graph as a GGraphBall, distances measured from vertex 0."""
    edges = [GEdge("e", u, v, 1) for u, v in edge_list]
    blank = [GVertex("plain", None, None, 0, "1", 1)] * n
    dist = GGraphBall(blank, edges, 0).bfs(0)[0]
    verts = [GVertex("plain", i, i, dist[i], "1", 1) for i in range(n)]
    return GGraphBall(verts, edges, max(dist.values()))


def cycle(n):
    return mkball(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return mkball(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def find_rep(ball, rep):
    for i, v in enumerate(ball.verts):
        if v.rep == rep:
            return i
    raise AssertionError(f"no vertex with rep {rep!r}")


def find_key(ball, tag, key):
    for i, v in enumerate(ball.verts):
        if v.tag == tag and v.key == key:
            return i
    raise AssertionError(f"no vertex {tag} {key!r}")


# -- angles -----------------------------------------------------------------


def test_angle_cycle_and_complete():
    C5 = AngleTable(cycle(5), 0)
    assert C5.angle(1, 4) == 3
    assert C5.angle(1, 1) == 0
    K4 = AngleTable(complete(4), 0)
    assert K4.angle(1, 2) == 1
    with pytest.raises(ValueError):
        C5.angle(2, 1)


def test_angle_tree_infinite_every_radius():
    gog = models.sl2z()
    for R in (3, 4, 5):
        ball = quotient_tree_ball(gog, [], R)
        for v in range(ball.vertex_count()):
            table = AngleTable(ball, v)
            nbrs = [j for j in neighbors(ball, v) if ball.verts[j].dist <= R - 1]
            for i, x in enumerate(nbrs):
                for y in nbrs[i + 1:]:
                    assert table.angle(x, y) is INF


def brute_angle(ball, v, x, y):
    """Minimum length over explicitly enumerated simple x-y paths avoiding
    v; None when there is no such path."""
    best = [None]
    seen = {x}

    def go(at, length):
        if best[0] is not None and length >= best[0]:
            return
        if at == y:
            best[0] = length
            return
        for nxt in neighbors(ball, at):
            if nxt != v and nxt not in seen:
                seen.add(nxt)
                go(nxt, length + 1)
                seen.discard(nxt)

    go(x, 0)
    return best[0]


def test_angle_brute_force_cross_check():
    rng = random.Random(0xACE)
    for _ in range(5):
        n = rng.randint(6, 12)
        edges = {(i, i + 1) for i in range(n - 1)}
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        ball = mkball(n, sorted(edges))
        for v in range(n):
            table = AngleTable(ball, v)
            for x in table.link:
                for y in table.link:
                    got = table.angle(x, y)
                    want = brute_angle(ball, v, x, y)
                    if want is None:
                        assert got is INF
                    else:
                        assert got == want


def test_angle_table_invariants():
    rng = random.Random(0xACE + 1)
    n = 10
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(8):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    ball = mkball(n, sorted(edges))
    for v in range(n):
        table = AngleTable(ball, v)
        for (x, y), a in table.items():
            assert a == table.angle(y, x)
            assert (a == 0) == (x == y)
        for x in table.link:
            for y in table.link:
                for z in table.link:
                    assert table.angle(x, y) <= (table.angle(x, z)
                                                 + table.angle(z, y))


# -- escaping sets ----------------------------------------------------------


def test_escaping_path_graph():
    ball = mkball(3, [(0, 1), (1, 2)])
    es = escaping_vectors(ball, 0, 2, 2)
    assert es.members == {1}
    assert es.witnesses[1] == [0, 1, 2]
    assert es.exact  # d(base, u) + k = 0 + 2 is within radius 2
    assert not escaping_vectors(ball, 0, 2, 3).exact  # 0 + 3 exceeds it
    with pytest.raises(ValueError):
        escaping_vectors(ball, 0, 0, 2)
    with pytest.raises(ValueError):
        escaping_vectors(ball, 0, 2, 0)


def test_escaping_exact_from_the_report_threshold():
    # u = (5, 0) is 5 from the base: exact from radius 5 + 4 = 9, the
    # radius from which fineness_report accepts the query
    for R, exact in ((8, False), (9, True), (10, True)):
        ball = models.ball({"family": "grid", "radius": R})
        u, v = find_rep(ball, (5, 0)), find_rep(ball, (5, 1))
        es = escaping_vectors(ball, u, v, 4)
        assert es.exact is exact
        if exact:
            assert len(es) == 3


def test_escaping_adjacent_k1():
    for ball in (cycle(5), complete(4)):
        es = escaping_vectors(ball, 0, 1, 1)
        assert es.members == {1}


def test_escaping_agrees_with_dfs_enumeration():
    cases = [
        (cycle(5), 0, 2, 4),
        (complete(4), 0, 3, 3),
        (models.ball({"family": "coned_plane", "radius": 3}), 0, 1, 4),
        (quotient_tree_ball(models.sl2z(), [], 5), 0, 3, 4),
    ]
    for ball, u, v, k in cases:
        es = escaping_vectors(ball, u, v, k)
        paths = enumerate_escaping_paths(ball, u, v, k)
        assert es.members == {p[1] for p in paths}
        for w, path in es.witnesses.items():
            assert path[0] == u and path[1] == w and path[-1] == v
            assert len(path) - 1 <= k
            assert u not in path[1:]
            for a, b in zip(path, path[1:]):
                assert b in neighbors(ball, a)


def test_escaping_dfs_cap():
    with pytest.raises(CapExceeded) as info:
        enumerate_escaping_paths(complete(4), 0, 1, 6, cap=10)
    assert info.value.detail["paths"] == 11


def test_escaping_coned_plane_columns():
    R = 5
    ball = models.ball({"family": "coned_plane", "radius": R})
    c0 = find_key(ball, "G/H0", ("ck", 0))
    c1 = find_key(ball, "G/H0", ("ck", 1))
    es = escaping_vectors(ball, c0, c1, 3)
    reps = {ball.verts[w].rep for w in es.members}
    assert reps == {(n, 0) for n in range(-(R - 1), R)}
    assert len(es) == 2 * R - 1
    # d(base, c0) + 3 is within R, but the cones are not enumerated: the
    # set grows with R (7 members at R = 4, 15 at R = 8), so it is partial
    assert not es.exact
    # on the grid the same threshold is exact
    grid = models.ball({"family": "grid", "radius": R})
    u, v = find_rep(grid, (0, 0)), find_rep(grid, (0, 1))
    assert escaping_vectors(grid, u, v, 3).exact


def test_escaping_locality():
    gog = models.sl2z()
    k = 4

    def members_at(R):
        ball = quotient_tree_ball(gog, [], R)
        es = escaping_vectors(ball, 0, 1, k)
        assert es.exact
        return {repr(ball.verts[w].key) for w in es.members}

    assert members_at(k + 1) == members_at(k + 3)

    def line_members(R):
        ball = models.ball({"family": "line", "radius": R})
        u, v = find_rep(ball, (0,)), find_rep(ball, (1,))
        return {ball.verts[w].rep for w in escaping_vectors(ball, u, v, k).members}

    assert line_members(k + 1) == line_members(k + 3)


# -- the recursion identity -------------------------------------------------


def recursion_check(ball, u, v, k, cap=10 ** 6):
    """Check →uv(k+1) = ⋃ { →uw(k) : w adjacent to v }.

    The left side is enumerated by DFS, the right side assembled from the
    BFS-computed sets, so the check cross-validates the two computation
    paths; a corrupted adjacency structure surfaces as a counterexample.
    Returns (True, None) or (False, counterexample description).
    """
    lhs = {p[1] for p in enumerate_escaping_paths(ball, u, v, k + 1, cap=cap)}
    rhs = set()
    for w in neighbors(ball, v):
        if w == u:
            continue  # →uu is empty: no escaping path may end at u
        rhs |= escaping_vectors(ball, u, w, k).members
    if lhs == rhs:
        return True, None
    diff = sorted(lhs ^ rhs)
    side = "lhs-only" if diff[0] in lhs else "rhs-only"
    return False, {"vertex": diff[0], "side": side,
                   "lhs": sorted(lhs), "rhs": sorted(rhs)}


def test_recursion_identity_holds():
    assert recursion_check(cycle(5), 0, 2, 2) == (True, None)
    assert recursion_check(quotient_tree_ball(models.sl2z(), [], 6), 0, 3, 3) \
        == (True, None)
    ball = models.ball({"family": "coned_plane", "radius": 4})
    c0 = find_key(ball, "G/H0", ("ck", 0))
    assert recursion_check(ball, c0, 0, 2)[0]


def test_recursion_corrupted_adjacency():
    # one-way edge: vertex 2 lists 3 as a neighbor but 3 lists nothing, so
    # paths into 3 exist while T_3 reads as empty; the derived neighbour
    # lists are overwritten on the instance to break the symmetry
    edges = [GEdge("e", 0, 1, 1), GEdge("e", 1, 2, 1), GEdge("e", 2, 3, 1)]
    verts = [GVertex("plain", i, i, i, "1", 1) for i in range(4)]
    ball = GGraphBall(verts, edges, 3)
    ball.nbrs = (((1, 0),), ((0, 0), (2, 1)), ((1, 1), (3, 2)), ())
    ok, info = recursion_check(ball, 0, 3, 2)
    assert not ok
    assert info["side"] == "lhs-only"
    assert info["vertex"] == 1


# -- stabilization verdicts -------------------------------------------------


def test_fineness_tree_stable():
    gog = models.sl2z()
    report = fineness_report(
        lambda R: quotient_tree_ball(gog, [], R),
        lambda ball: 0, lambda ball: 1, 4, [5, 6, 7],
    )
    assert report["verdict"] == "STABLE"
    assert report["cardinalities"] == [1, 1, 1]
    assert report["witnesses"] == []
    json.dumps(report)


def test_fineness_coned_plane_growing():
    report = fineness_report(
        lambda R: models.ball({"family": "coned_plane", "radius": R}),
        lambda ball: find_key(ball, "G/H0", ("ck", 0)),
        lambda ball: find_key(ball, "G/H0", ("ck", 1)),
        3, list(range(4, 11)),
    )
    assert report["verdict"] == "GROWING"
    cards = report["cardinalities"]
    assert cards == [2 * R - 1 for R in range(4, 11)]
    assert all(a < b for a, b in zip(cards, cards[1:]))
    assert len(report["witnesses"]) >= 3
    assert all(len(w) >= 2 for w in report["witnesses"])
    json.dumps(report)


def test_fineness_report_validation():
    with pytest.raises(ValueError):
        fineness_report(cycle, lambda b: 0, lambda b: 1, 2, [4])
    with pytest.raises(ValueError):
        fineness_report(cycle, lambda b: 0, lambda b: 1, 2, [5, 4])
    with pytest.raises(ValueError):
        fineness_report(cycle, lambda b: 0, lambda b: 1, 9, [4, 5])


# -- attachments ------------------------------------------------------------


def c4_handle(action):
    """Stab(center) = C4 as a subgroup handle over loop words."""
    elements = action.stab_elements(0)
    return SubgroupHandle("C4", contains=lambda w: w in elements,
                          elements=elements)


def test_attach_uv_line_chords():
    action = AbelianBallAction(models.ball({"family": "line", "radius": 6}))
    u, v = find_rep(action.ball, (0,)), find_rep(action.ball, (2,))
    att = attach_edge_orbit(action, {"kind": "uv", "u": u, "v": v})
    chords = {
        tuple(sorted((att.delta.verts[e.u].rep, att.delta.verts[e.v].rep)))
        for e in (att.delta.edges[k] for k in att.new_edges)
    }
    assert chords == {((n,), (n + 2,)) for n in range(-6, 5)}
    assert all(att.delta.edges[k].stab_order == 1 for k in att.new_edges)

    cert = qi_certificate(att.gamma, att.delta)
    assert cert["ell"] == 2
    assert cert["violations"] == []
    assert cert["stray_delta_vertices"] == []


def test_attach_uv_rejects_doubling():
    action = AbelianBallAction(models.ball({"family": "line", "radius": 4}))
    u, v = find_rep(action.ball, (0,)), find_rep(action.ball, (1,))
    with pytest.raises(ValueError, match="doubles"):
        attach_edge_orbit(action, {"kind": "uv", "u": u, "v": v})
    with pytest.raises(ValueError):
        attach_edge_orbit(action, {"kind": "uv", "u": u, "v": u})


def test_attach_uH_trivial_pendants():
    action = AbelianBallAction(models.ball({"family": "line", "radius": 6}))
    att = attach_edge_orbit(
        action, {"kind": "uH", "u": find_rep(action.ball, (0,)),
                 "H": trivial_handle(action)},
    )
    n = action.ball.vertex_count()
    assert len(att.cones) == n  # one leaf per group element in range
    for info in att.cones.values():
        assert len(info["nbrs"]) == 1
        assert att.delta.degree(info["index"]) == 1
    assert not att.outside_theorem


def test_attach_uH_vertex_group_pendants():
    # H = G_u at the center: one cone per coset, each of degree [H:H] = 1
    action = TreeBallAction(models.sl2z(), 5)
    att = attach_edge_orbit(action, {"kind": "uH", "u": 0, "H": c4_handle(action)})
    centers = [i for i, v in enumerate(action.ball.verts) if v.tag == "T/v0"]
    assert len(att.cones) == len(centers)
    assert all(len(info["nbrs"]) == 1 for info in att.cones.values())


def test_attach_uH_degree_two_cones():
    # H = Stab(center) = C4, u = an adjacent C6-vertex: H ∩ G_u = C2, so the
    # representative cone has degree [H : H∩G_u] = 2
    action = TreeBallAction(models.sl2z(), 6)
    att = attach_edge_orbit(action, {"kind": "uH", "u": 1, "H": c4_handle(action)})
    rep = att.cones[att.rep_cone]
    assert rep["nbrs"] == [1, 2]
    assert att.delta.verts[att.cones[att.rep_cone]["index"]].stab_order == 4
    # each new edge carries the stabilizer H ∩ G_u of order 2
    assert all(att.delta.edges[k].stab_order == 2 for k in att.new_edges)
    assert not att.outside_theorem

    cert = qi_certificate(att.gamma, att.delta)
    assert cert["ell"] <= 4
    assert cert["violations"] == []


def test_attach_uH_infinite_labeled():
    action = AbelianBallAction(models.ball({"family": "line", "radius": 5}))
    H = SubgroupHandle("Z", contains=lambda x: True,
                       coset_key=lambda x: 0, is_finite=False)
    att = attach_edge_orbit(
        action, {"kind": "uH", "u": find_rep(action.ball, (0,)), "H": H},
    )
    assert att.outside_theorem
    assert len(att.cones) == 1
    cone = att.cones[att.rep_cone]
    assert len(cone["nbrs"]) == action.ball.vertex_count()
    assert att.delta.verts[cone["index"]].stab_order is None
    assert any("outside" in note for note in att.delta.notes)


def test_qi_certificate_identity():
    ball = cycle(6)
    cert = qi_certificate(ball, ball)
    assert cert["ell"] == 1
    assert cert["violations"] == []


def test_qi_certificate_lists_each_violating_pair_once():
    # Δ is the 8-cycle Γ less the edge {7, 0}: d_Δ(a, b) = b − a exceeds
    # d_Γ(a, b) exactly when b − a > 4, and every vertex is inner
    gamma = hand_ball([(i, (i + 1) % 8) for i in range(8)])
    delta = hand_ball([(i, i + 1) for i in range(7)])
    cert = qi_certificate(gamma, delta)
    assert cert["pairs_checked"] == 28
    assert [v["pair"] for v in cert["violations"]] == [
        (a, b) for a in range(8) for b in range(a + 5, 8)]
    assert {v["reason"] for v in cert["violations"]} == {
        "delta distance exceeds gamma"}
    assert cert["ell"] == 1


# -- the W/Z machinery ------------------------------------------------------


def test_wz_chain_tree_with_cone_orbit():
    action = TreeBallAction(models.sl2z(), 8)
    att = attach_edge_orbit(action, {"kind": "uH", "u": 1, "H": c4_handle(action)})
    b = 7
    assert action.ball.verts[b].dist == 3
    out = wz_chain(att, 0, b, 6)
    assert out["ell"] == 2
    assert out["corner_count"] == 2
    assert out["violations"] == []
    assert out["all_finite"]
    # W_6 is the single step toward b; the corner translates then pull in the
    # other neighbor of the center, after which everything is stable
    assert out["W_cardinalities"] == [1, 2, 2, 2, 2, 2, 2]
    assert out["Z_cardinalities"] == [2, 2, 2, 2, 2, 2]
    assert out["W_sets"][1] == frozenset({1, 2})


def test_wz_chain_degenerate_without_corners():
    action = TreeBallAction(models.sl2z(), 7)
    att = attach_edge_orbit(action, {"kind": "uH", "u": 0, "H": c4_handle(action)})
    assert att.cones[att.rep_cone]["nbrs"] == [0]
    out = wz_chain(att, 0, 3, 4)
    assert out["corner_count"] == 0
    assert out["violations"] == []
    for j in range(4):
        assert out["Z_sets"][j] == out["W_sets"][j]  # Z_{j-1} = W_j exactly


def test_wz_corrupted_chain_reported():
    action = TreeBallAction(models.sl2z(), 8)
    att = attach_edge_orbit(action, {"kind": "uH", "u": 1, "H": c4_handle(action)})
    out = wz_chain(att, 0, 7, 6)
    bad_Z = list(out["Z_sets"])
    bad_Z[0] = bad_Z[0] - out["W_sets"][0]  # drop W_n from Z_{n-1}
    problems = verify_wz_containment(out["W_sets"], bad_Z)
    assert problems
    assert "W_6 not within Z_5" in problems[0]


def test_wz_rejects_uv_attachment():
    action = AbelianBallAction(models.ball({"family": "line", "radius": 5}))
    u, v = find_rep(action.ball, (0,)), find_rep(action.ball, (2,))
    att = attach_edge_orbit(action, {"kind": "uv", "u": u, "v": v})
    with pytest.raises(ValueError):
        wz_chain(att, u, v, 4)


# -- the attachment theorem at desk scale -----------------------------------


def test_gamma_delta_mutual_stability():
    gog = models.sl2z()

    def gamma(R):
        return TreeBallAction(gog, R).ball

    def delta(R):
        action = TreeBallAction(gog, R)
        return attach_edge_orbit(
            action, {"kind": "uH", "u": 1, "H": c4_handle(action)},
        ).delta

    for family, cards in ((gamma, [1, 1]), (delta, [2, 2])):
        report = fineness_report(
            family, lambda ball: 0, lambda ball: 1, 3, [5, 7],
        )
        assert report["verdict"] == "STABLE"
        assert report["cardinalities"] == cards
