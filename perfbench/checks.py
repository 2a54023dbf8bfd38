"""Correctness checks, run after the clock stops.

Each check returns None when the output is right and a one-line reason
when it is not.  None of them reuses the code under test for the answer:
job outputs are compared byte for byte with digests recorded at the seed
commit, kernel labels are known by construction, and ball shapes and
hyperbolicity are recomputed from the definitions with ``networkx``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def job_outputs(workdir, expected):
    """Every output file the job wrote, against its reference digest."""
    for rel, digest in sorted(expected.items()):
        path = Path(workdir) / rel
        if not path.is_file():
            return f"missing output {rel}"
        if sha256(path) != digest:
            return f"digest mismatch for {rel}"
    return None


def kernel_decision(cert, label):
    if cert["in_kernel"] is not label:
        return (f"certificate says in_kernel={cert['in_kernel']} by "
                f"{cert['method']}, label is {label}")
    return None


def _graph(ball):
    import networkx as nx

    G = nx.MultiGraph()
    G.add_nodes_from(range(len(ball.verts)))
    G.add_edges_from((e.u, e.v) for e in ball.edges)
    return G


def dihedral_ball(ball, n):
    """C2 * C2 / <<(ab)^n>> is D_n: its ball of radius n is the whole
    Cayley-Abels graph, a cycle of 2n vertices."""
    import networkx as nx

    G = _graph(ball)
    if G.number_of_nodes() != 2 * n or G.number_of_edges() != 2 * n:
        return (f"D{n}: {G.number_of_nodes()} vertices, "
                f"{G.number_of_edges()} edges, want {2 * n} and {2 * n}")
    if any(d != 2 for _, d in G.degree()) or not nx.is_connected(G):
        return f"D{n}: not a connected 2-regular graph"
    return None


def tree_levels(ball, radius, degrees):
    """Bass-Serre tree of a two-vertex amalgam, centred at vertex 0: level
    d+1 has (deg(type at level d) - 1) children per level-d vertex, the
    centre deg(0).  ``degrees[v]`` is the index [G_v : C]."""
    import networkx as nx

    want = [1]
    for d in range(radius):
        kind = d % 2
        want.append(want[-1] * (degrees[kind] - (d > 0)))
    got = [0] * (radius + 1)
    for v in ball.verts:
        got[v.dist] += 1
    if got != want:
        return f"level sizes {got}, index formula gives {want}"
    if not nx.is_tree(nx.Graph(_graph(ball))) or \
            len(ball.edges) != len(ball.verts) - 1:
        return "ball is not a tree"
    return None


def grid_ball(ball, R, coned):
    """Z^2 with the standard generators, optionally coned off along the
    lines y = c.  Cone vertices do not expand (the line is infinite), so
    the points are those with |x| + |y| <= R and the cones those reached
    from a point at distance < R; every in-ball point on a coned line is
    joined to its cone."""
    points = {(x, y) for x in range(-R, R + 1) for y in range(-R, R + 1)
              if abs(x) + abs(y) <= R}
    want_edges = set()
    for (x, y) in points:
        for q in ((x + 1, y), (x, y + 1)):
            if q in points:
                want_edges.add(frozenset([("p", (x, y)), ("p", q)]))
    cones = set()
    if coned:
        cones = set(range(-(R - 1), R))
        for (x, y) in points:
            if y in cones:
                want_edges.add(frozenset([("p", (x, y)), ("c", y)]))
    names = []
    for v in ball.verts:
        names.append(("p", tuple(v.rep)) if v.tag == "G/U" else ("c", v.key[1]))
    if {n for n in names if n[0] == "p"} != {("p", p) for p in points} or \
            {n[1] for n in names if n[0] == "c"} != cones or \
            len(set(names)) != len(names):
        return f"grid R={R}: vertex set differs from the definition"
    got_edges = [frozenset([names[e.u], names[e.v]]) for e in ball.edges]
    if len(got_edges) != len(want_edges) or set(got_edges) != want_edges:
        return f"grid R={R}: edge set differs from the definition"
    return None


def _defect(D, a, b, c, e):
    s = sorted((D[a][b] + D[c][e], D[a][c] + D[b][e], D[a][e] + D[b][c]),
               reverse=True)
    return s[0] - s[1]


def hyperbolicity(report, ball, samples):
    """Recompute the four-point defect from networkx distances: over every
    quadruple when the estimate is exhaustive, at the reported witness
    when it is sampled (a zero estimate needs no witness on a tree)."""
    import networkx as nx

    G = nx.Graph(_graph(ball))
    n = G.number_of_nodes()
    D = dict(nx.all_pairs_shortest_path_length(G))
    if report["method"] == "exhaustive":
        best = max((_defect(D, *q) for q in combinations(range(n), 4)),
                   default=0)
        count = n * (n - 1) * (n - 2) * (n - 3) // 24
    else:
        count = samples
        if report["witness"] is None:
            best = 0 if nx.is_tree(G) else None
        else:
            best = _defect(D, *report["witness"])
    if best is None or Fraction(best, 2) != report["delta"]:
        return f"delta {report['delta']}, recomputed {best}/2"
    if report["quadruples"] != count:
        return f"{report['quadruples']} quadruples, want {count}"
    return None
