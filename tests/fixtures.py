"""Shared fixtures: standard graphs of groups and word builders."""

from __future__ import annotations

import random
import sys

from gogtools.finite import make_cyclic, make_dihedral
from gogtools.gog import (
    GroupWord,
    amalgam,
    fix_transversals,
    free_product,
    hnn_sub,
    identity_word,
)


def sl2z_gog():
    """C4 *_{C2} C6 (vertex 0 = C4, vertex 1 = C6), the standard splitting
    of SL2(Z); the C2 generator maps to a^2 and b^3."""
    C4, C6, C2 = make_cyclic(4), make_cyclic(6), make_cyclic(2)
    return amalgam(C4, C6, C2, [0, 2], [0, 3])


def c4_c6_free():
    return free_product(make_cyclic(4), make_cyclic(6))


def c2_c2_free():
    return free_product(make_cyclic(2), make_cyclic(2))


def s3_d4_amalgam():
    """S3 *_{C2} D4 with C2 = <a transposition> in S3 (non-central) and
    C2 = <r^2> = the center in D4."""
    S3, D4, C2 = make_dihedral(3), make_dihedral(4), make_cyclic(2)
    return amalgam(S3, D4, C2, [0, 3], [0, 2])


def hnn_c6():
    """HNN of C6 over A = <b^2> = {0,2,4} with alpha(b^2) = b^4."""
    return hnn_sub(make_cyclic(6), [0, 2, 4], [0, 4, 2])


def edge_between(gog, u, v):
    g = gog.graph
    for e in range(g.num_edges):
        if g.o(e) == u and g.t(e) == v:
            return e
    raise ValueError(f"no edge {u} -> {v}")


def loop_word(gog, syllables, start=0):
    """Build the loop word with the given (vertex, element) syllables, using
    the unique connecting edges of a two-vertex amalgam; closes back to start
    with identity padding."""
    if not syllables:
        return identity_word(gog, start)
    head_v, head_x = syllables[0]
    pairs = []
    if head_v == start:
        head = head_x
        rest = syllables[1:]
        at = start
    else:
        head = gog.vgroup(start).identity
        rest = syllables
        at = start
    for v, x in rest:
        e = edge_between(gog, at, v)
        pairs.append((e, x))
        at = v
    if at != start:
        e = edge_between(gog, at, start)
        pairs.append((e, gog.vgroup(start).identity))
    return GroupWord(gog, start, head, pairs)


def ab_word(gog, exponents, start=0):
    """Alternating word a^e1 b^e2 a^e3 ... from exponent list; vertex sides
    alternate 0,1,0,1,... starting at side 0."""
    syl = []
    side = 0
    for k in exponents:
        order = gog.vgroup(side).order
        syl.append((side, k % order))
        side = 1 - side
    return loop_word(gog, syl, start=start)


def random_amalgam_word(gog, rng: random.Random, max_syllables=12, start=0):
    """Random loop word; exponents may be zero so unreduced patterns occur."""
    n = rng.randrange(0, max_syllables + 1)
    syl = []
    side = rng.randrange(2)
    for _ in range(n):
        order = gog.vgroup(side).order
        syl.append((side, rng.randrange(order)))
        side = 1 - side
    return loop_word(gog, syl, start=start)


def random_hnn_word(gog, rng: random.Random, max_letters=10):
    """Random loop word in the one-vertex HNN fixture: alternating random
    vertex elements and random stable-letter directions."""
    n = rng.randrange(0, max_letters + 1)
    B = gog.vgroup(0)
    head = rng.randrange(B.order)
    pairs = []
    for _ in range(n):
        e = rng.randrange(2)
        pairs.append((e, rng.randrange(B.order)))
    return GroupWord(gog, 0, head, pairs)


def counting(monkeypatch, module, name):
    """Replace every gogtools binding of ``module.name`` with a wrapper
    that counts its calls; returns the one-element call-count list."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("gogtools")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


# -- faithful matrix oracle for the SL2(Z) fixture --------------------------

_S = ((0, -1), (1, 0))          # order 4
_U = ((0, -1), (1, 1))          # order 6, U^3 = S^2 = -I


def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _mat_pow(m, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


def sl2z_matrix(word):
    """Exact integer matrix of a word in the C4 *_{C2} C6 fixture: vertex 0
    elements are powers of S, vertex 1 elements powers of U; edges contribute
    nothing (the single geometric edge lies in the spanning tree)."""
    gog = word.gog
    out = _mat_pow(_S, word.head) if word.start == 0 else _mat_pow(_U, word.head)
    for e, x in word.pairs:
        v = gog.graph.t(e)
        out = _mat_mul(out, _mat_pow(_S if v == 0 else _U, x))
    return out


def free_rank2():
    """Free group of rank 2: one trivial vertex group, two loops with trivial
    edge groups."""
    from gogtools.finite import GroupHom
    from gogtools.gog import GraphOfGroups, SerreGraph

    C1 = make_cyclic(1)
    graph = SerreGraph(1, [(0, 0), (0, 0)])
    triv = GroupHom(C1, C1, [0])
    return GraphOfGroups(graph, [C1], [C1, C1], [triv, triv, triv, triv])


def line_ball(R):
    """Cayley ball of Z with its standard generator (trivial compact part)."""
    from gogtools.cayley_abels import coset_graph_ball
    from gogtools.concrete import FreeAbelian, trivial_handle

    Z = FreeAbelian(1)
    return coset_graph_ball(Z, trivial_handle(Z), [(1,)], [], R)


def coned_plane_ball(R):
    """Z^2 grid ball with one cone vertex per horizontal line."""
    from gogtools.cayley_abels import coset_graph_ball
    from gogtools.concrete import FreeAbelian, SubgroupHandle, trivial_handle

    Z2 = FreeAbelian(2)
    H = SubgroupHandle(
        "line", contains=lambda x: x[1] == 0, coset_key=lambda x: x[1],
        is_finite=False,
    )
    return coset_graph_ball(Z2, trivial_handle(Z2), [(1, 0), (0, 1)], [H], R)


def plain_grid_ball(R):
    """Z^2 grid ball, no cone vertices."""
    from gogtools.cayley_abels import coset_graph_ball
    from gogtools.concrete import FreeAbelian, trivial_handle

    Z2 = FreeAbelian(2)
    return coset_graph_ball(Z2, trivial_handle(Z2), [(1, 0), (0, 1)], [], R)


def hand_ball(edge_list, radius=None, tags=None):
    """GGraphBall from an undirected edge list on vertices 0..n-1; distances
    by BFS from vertex 0; default radius is generous so every star counts
    as complete (hand fixtures are whole finite complexes, not windows)."""
    from gogtools.cayley_abels import GEdge, GGraphBall, GVertex

    n = 1 + max(max(u, v) for u, v in edge_list)
    edges = [GEdge(f"h{k}", u, v, 1) for k, (u, v) in enumerate(edge_list)]
    blank = [GVertex("hv", None, None, 0, "triv", 1)] * n
    dist = GGraphBall(blank, edges, 0).bfs(0)[0]
    if radius is None:
        radius = max(dist.values()) + 100
    verts = [
        GVertex(tags[i] if tags else f"hv{i}", None, None, dist.get(i, 0),
                "triv", 1)
        for i in range(n)
    ]
    return GGraphBall(verts, edges, radius)


def cycle_ball(m, **kw):
    """The m-cycle as a hand-built ball."""
    return hand_ball([(i, (i + 1) % m) for i in range(m)], **kw)


# -- job files the schema rejects -------------------------------------------


def job(command, parameters):
    """A job file's content that writes its report to out/report.json."""
    return {"command": command, "parameters": parameters,
            "output": {"report": "out/report.json"}}


_LINE = {"family": "line", "radius": 4}

# (command, parameters) with one required parameter missing
MISSING_REQUIRED = [
    ("build-ca", {"variant": "coset", "ball": {"family": "line"}}),
    ("build-ca", {"variant": "coset", "ball": {"family": "cycle"}}),
    ("build-ca", {"variant": "coset", "ball": {"family": "tree", "radius": 2}}),
    ("build-tree", {"radius": 2}),
    ("attach", {"action": {"kind": "abelian", "ball": _LINE},
                "spec": {"kind": "uv", "u": 0}}),
    ("attach", {"action": {"kind": "abelian", "ball": _LINE},
                "spec": {"kind": "uH", "u": 0}}),
    ("attach", {"action": {"kind": "tree", "model": "sl2z"},
                "spec": {"kind": "uH", "u": 0, "H": "trivial"}}),
    ("qi", {"attach": {}}),
    ("fineness", {"family": "line", "v": 1, "k": 2, "radii": [2, 3]}),
    ("pi1", {"k": 4}),
]

_CPRIME = {"model": "c4c6_free", "word": {"ab": [1, 1, 2, 2, 3, 3]},
           "m": 12, "lam": "1/12"}

# jobs that validated once and then crashed a handler, with the path the
# schema violation now names
CRASH_PROBES = [
    (job("cprime", dict(_CPRIME, lam="1/0")), "$.parameters.lam"),
    (job("fineness", {"family": "cycle", "m": 1, "u": 0, "v": 0, "k": 1,
                      "radii": [1, 2]}), "$.parameters.m"),
    # integer-valued floats: JSON Schema's own integer type admits them
    (job("build-tree", {"model": "sl2z", "radius": 2.0}),
     "$.parameters.radius"),
    (job("cprime", dict(_CPRIME, m=12.0)), "$.parameters.m"),
]

# every schema-rejected job the front-end tests use, with its path
SCHEMA_PROBES = [
    (job("build-tree", {"model": "sl2z", "radius": -1}),
     "$.parameters.radius"),
    (job("frobnicate", {"model": "sl2z", "radius": 3}), "$.command"),
    (dict(job("build-tree", {"model": "sl2z", "radius": 3}), notes="scribble"),
     "$"),
] + [(job(command, params), "$.parameters" + at)
      for (command, params), at in zip(MISSING_REQUIRED, [
          ".ball", ".ball", ".ball", "", ".spec", ".spec", ".action",
          ".attach", "", ""])] + CRASH_PROBES
