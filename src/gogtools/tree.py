"""Finite-radius balls of the tree acted on by the fundamental group of a
graph of finite groups, with the action, stabilizers, and geodesics.

Conventions
-----------
Vertices of the tree over the base vertex ``base`` are cosets w·G_v where w is
a reduced word from ``base`` ending at the Λ-vertex v.  The canonical coset
representative is the minimum of reduce(w·g) over g ∈ G_v under
``GroupWord.key()`` (edge count first, then start vertex, head and the
(edge, element) pairs lexicographically) — deterministic and unique per
coset, and the edge count of the representative is exactly the tree
distance from the center.

A tree ball is the :class:`~gogtools.cayley_abels.GGraphBall` that
:func:`~gogtools.cayley_abels.quotient_tree_ball` builds with no relators:
``verts[i].rep`` is the canonical word of vertex i, and its end is the
vertex's Λ-vertex.  It walks the tree with the fan table and child step
defined here.

Geometric tree edges are recorded once, oriented away from the center as
discovered (``u`` the center side, ``v`` the far side).  An edge carries the
directed Λ-edge e pointing u → v and the canonical edge word, the minimum of
reduce(u·h) over h in the image of inj(ē) inside the origin-side vertex
group (u any word ending at o(e) picking out the edge); both are read off
the far endpoint's word (see :func:`_edge_word`).
Since a tree has no multi-edges, an edge is also addressable by its
endpoints, which is how the action on edges is resolved.

Cells are passed around as tagged pairs ("v", i) / ("e", i) indexing into
the ball's ``verts`` / ``edges``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .finite import FiniteGroup, Subgroup, left_transversal
from .gog import (
    GraphOfGroups,
    GroupWord,
    _sweep,
    reduce_word,
    word_to_json,
)

if TYPE_CHECKING:  # cayley_abels imports this module
    from .cayley_abels import GGraphBall

#: Returned by :func:`act` when the image of a cell falls outside the ball.
OUT_OF_BALL = "out-of-ball"


class StabilizerData:
    """Stabilizer of a cell as a word-conjugate of a named Λ-group.

    ``conjugator`` is a reduced word w with stabilizer = w · (base) · w⁻¹;
    ``elements`` enumerates the stabilizer as reduced loop words at the
    ball's base vertex.
    """

    __slots__ = ("cell", "conjugator", "base_group", "base_name", "elements")

    def __init__(self, cell, conjugator: GroupWord, base_group: FiniteGroup,
                 base_name: str, elements):
        self.cell = cell
        self.conjugator = conjugator
        self.base_group = base_group
        self.base_name = base_name
        self.elements = tuple(elements)

    @property
    def order(self) -> int:
        return self.base_group.order

    def __repr__(self):
        return f"StabilizerData({self.cell}, {self.base_name}, order {self.order})"


def degree_formula(gog: GraphOfGroups, v: int) -> int:
    """Σ over directed edges e with t(e) = v of [vgroup(v) : im(inj(e))]."""
    g = gog.graph
    G = gog.vgroup(v)
    total = 0
    for e in range(g.num_edges):
        if g.t(e) == v:
            total += G.order // len(set(gog.inj[e].map))
    return total


def canonical_coset_word(word: GroupWord) -> GroupWord:
    """Minimum of reduce(word·g) over g in the vertex group at word.end,
    under ``GroupWord.key``."""
    gog, v = word.gog, word.end
    if not word.pairs:
        # reduce(word·g) is the bare element head·g, least at element 0
        return GroupWord._trusted(gog, v, 0)
    G = gog.vgroup(v)
    best = None
    for g in range(G.order):
        cand = reduce_word(word * GroupWord._trusted(gog, v, g))
        if best is None or cand.key() < best.key():
            best = cand
    return best


def _fan_table(gog: GraphOfGroups):
    """Per directed edge e, the expansion fan at an o(e)-side vertex: the
    left transversal of im(inj(ē)) in vgroup(o(e)), each representative
    paired with the set of last edges (None at the center) after which
    :func:`_child_steps` must still canonicalize the child word (and says
    so, which tells the quotient ball that the child's key state cannot
    be stepped from its parent's).

    Why the set is usually empty.  Let w be a canonical word at v whose
    last edge is k, with last element m (the head at the center); m is
    the least transversal representative of im(k), or the least element
    of vgroup(v) at the center.  The child coset of w·rep·e consists of
    the words reduce(w·y·e·s) with y in rep·im(inj(ē)) and s in the
    transversal of im(e): an edge-group factor of the last element moves
    across e into y.  ``GroupWord.key`` compares the part before e first,
    so the least word takes the least s, and the y whose reduce(w·y) is
    least.  Write m·y = η_k(c)·r with r in the transversal of im(k); then
    reduce(w·y) = reduce(u·η_k̄(c))·(k, r), where w = u·(k, m).  Distinct
    c give distinct elements, and w is least in its coset, so the prefix
    is least exactly at c = 1; among the y with c = 1, the least r = m·y
    wins.  Hence reduce(w·rep·e·1) is already canonical when the identity
    is the least transversal representative of im(e), c = 1 for m·rep,
    and m·rep is least among the m·y with c = 1 (at the center: m·rep is
    least in m·rep·im(inj(ē))).  That holds on every built-in model, but
    not for every labelling of a non-normal edge image, so the steps
    where it fails keep the canonicalization."""
    g = gog.graph
    T = gog.transversals
    fan = {}
    for e in range(g.num_edges):
        v = g.o(e)
        G = gog.vgroup(v)
        image = sorted(gog.inj[g.bar(e)].map)
        child_ok = min(T.reps[e]) == gog.vgroup(g.t(e)).identity
        fan[e] = []
        for rep in left_transversal(G, Subgroup(G, image)):
            coset = [G.op(rep, h) for h in image]
            unproven = set()
            for k in [None] + [f for f in range(g.num_edges) if g.t(f) == v]:
                if k is None:
                    m, free = 0, coset
                else:
                    m = min(T.reps[k])
                    ident_c = gog.egroup(k).identity
                    free = [y for y in coset
                            if T.decomp[k][G.op(m, y)][0] == ident_c]
                if not (child_ok and rep in free
                        and G.op(m, rep) == min(G.op(m, y) for y in free)):
                    unproven.add(k)
            fan[e].append((rep, frozenset(unproven)))
    return fan


def _child_steps(w: GroupWord, fan):
    """The neighbours of the vertex with canonical word w that lie one step
    farther from the center, as (e, rep, canonical child word, redone) in
    edge then fan order; the one step that folds back toward the center is
    skipped.  The reduced word w·rep·e·1 is the canonical child except on
    the steps :func:`_fan_table` could not prove, where the child is
    canonicalized, which right-multiplies it by an element of G_t(e), and
    ``redone`` is True.  Only the seam is rewritten: the step folds back
    exactly when e reverses the last edge k of w and x·rep lies in im(k),
    x the last element, and otherwise ``gog._sweep`` carries rep into x
    and restores the transversal form from there leftward."""
    gog, T, v, pairs = w.gog, w.gog.transversals, w.end, w.pairs
    n = len(pairs)
    last, x = pairs[-1] if pairs else (None, None)
    mul, hmul = gog.vgroups[v].table, gog.vgroups[w.start].table
    for e in gog.graph.edges_at(v):
        for rep, unproven in fan[e]:
            if e ^ 1 == last and T.pinch[last][mul[x][rep]] is not None:
                continue
            items = list(pairs)
            j, corr = _sweep(T, items, n - 1, rep, 0, n)
            items.append((e, T.tid[e]))
            head = hmul[w.head][corr] if j < 0 else w.head
            nf = GroupWord._trusted(gog, w.start, head, items)
            redone = last in unproven
            yield e, rep, canonical_coset_word(nf) if redone else nf, redone


def build_tree_ball(gog: GraphOfGroups, radius: int, base: int = 0,
                    transversals=None, cap: int = 10 ** 6) -> GGraphBall:
    """Breadth-first ball of radius ``radius`` around the coset of
    vgroup(base): the quotient ball with no relators, which is the tree
    ball.  Aborts with :class:`CapExceeded` past ``cap`` vertices.
    ``transversals``, if given, must be ``gog.transversals``."""
    from .cayley_abels import quotient_tree_ball

    return quotient_tree_ball(gog, [], radius, base=base,
                              transversals=transversals, cap=cap)


def _edge_word(ball: GGraphBall, edge):
    """(canonical edge word, directed Λ-edge u → v) of a tree edge, read
    off the far endpoint's word w·(e, s): the word without its last pair,
    and e.

    The child coset of w·rep·e is the set of words reduce(w·y)·(e, s) with
    y in rep·im(inj(ē)) and s in the transversal of im(e) (an edge-group
    factor of the last element moves across e into y).  All of them have
    the same length, and ``GroupWord.key`` compares the part before e
    first, so the canonical child is (least reduce(w·y))·(e, least s).
    Dropping its last pair leaves the least reduce(w·y) over y in
    rep·im(inj(ē)), which is the canonical edge word."""
    child = ball.verts[edge.v].rep
    word = GroupWord._trusted(child.gog, child.start, child.head,
                              child.pairs[:-1])
    return word, child.pairs[-1][0]


def check_tree_ball(ball: GGraphBall):
    """Invariant audit of a tree ball; returns a list of violation strings."""
    n, m = ball.vertex_count(), ball.edge_count()
    problems = []
    if m != n - 1:
        problems.append(f"|E| = {m} != |V| - 1 = {n - 1}")
    # acyclicity by union-find
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in ball.edges:
        ru, rv = find(edge.u), find(edge.v)
        if ru == rv:
            problems.append(f"cycle through edge {edge.u}--{edge.v}")
        else:
            parent[ru] = rv
    roots = {find(i) for i in range(n)}
    if len(roots) != 1:
        problems.append(f"ball is disconnected into {len(roots)} components")
    for i, vx in enumerate(ball.verts):
        if vx.dist < ball.radius:
            want = degree_formula(vx.rep.gog, vx.rep.end)
            if ball.degree(i) != want:
                problems.append(
                    f"interior vertex {i} has degree {ball.degree(i)}, "
                    f"index formula gives {want}"
                )
    return problems


def _require_cell(cell, ball: GGraphBall):
    kind, i = cell
    if kind == "v":
        if not 0 <= i < ball.vertex_count():
            raise ValueError(f"vertex index {i} not in ball")
    elif kind == "e":
        if not 0 <= i < ball.edge_count():
            raise ValueError(f"edge index {i} not in ball")
    else:
        raise ValueError(f"unknown cell kind {kind!r}")


def act(w: GroupWord, cell, ball: GGraphBall):
    """Left action of a loop word at the base vertex on a cell of the ball.

    Returns the image cell, or :data:`OUT_OF_BALL` when it leaves the ball.
    """
    base = ball.verts[0].rep.start
    if w.start != base or not w.is_loop():
        raise ValueError(
            f"acting word must be a loop at vertex {base}, "
            f"got {w.start} -> {w.end}"
        )
    _require_cell(cell, ball)
    kind, i = cell
    if kind == "v":
        img = canonical_coset_word(w * ball.verts[i].rep)
        j = ball.lookup.find(img)
        return OUT_OF_BALL if j is None else ("v", j)
    edge = ball.edges[i]
    iu = act(w, ("v", edge.u), ball)
    iv = act(w, ("v", edge.v), ball)
    if iu == OUT_OF_BALL or iv == OUT_OF_BALL:
        return OUT_OF_BALL
    pair = (min(iu[1], iv[1]), max(iu[1], iv[1]))
    k = ball.edge_at.get(pair)
    if k is None:
        raise RuntimeError(
            f"action image of edge {i} has endpoints {pair} with no edge; "
            "the ball is broken"
        )
    return ("e", k)


def stabilizer(cell, ball: GGraphBall) -> StabilizerData:
    """Stabilizer of a cell: (conjugator word, Λ-group), with the elements
    enumerated as reduced loop words at the base vertex."""
    _require_cell(cell, ball)
    kind, i = cell
    # the Λ-group as (vertex, element) syllables at the cell's own vertex
    if kind == "v":
        conj = ball.verts[i].rep
        gog, lam = conj.gog, conj.end
        G = gog.vgroup(lam)
        name = f"vgroup[{lam}]"
        local = [(lam, x) for x in range(G.order)]
    else:
        conj, lam = _edge_word(ball, ball.edges[i])
        gog = conj.gog
        g = gog.graph
        G = gog.egroup(lam)
        name = f"egroup[{lam >> 1}]"
        inj = gog.inj[g.bar(lam)]
        local = [(g.o(lam), inj.map[c]) for c in range(G.order)]
    inv = reduce_word(conj.inverse())
    elements = [reduce_word(conj * GroupWord._trusted(gog, v, x) * inv)
                for v, x in local]
    return StabilizerData(cell, conj, G, name, elements)


def geodesic(u_cell, v_cell, ball: GGraphBall):
    """Unique embedded edge path between two vertex cells, as an ordered list
    of edge cells ("e", k).  Empty for u = v."""
    for c in (u_cell, v_cell):
        _require_cell(c, ball)
        if c[0] != "v":
            raise ValueError(f"geodesic endpoints must be vertex cells, got {c}")
    src, dst = u_cell[1], v_cell[1]
    prev = ball.bfs(src)[1]
    if dst not in prev:
        raise RuntimeError(f"vertices {src} and {dst} disconnected; ball is broken")
    path = []
    while prev[dst] is not None:
        dst, k = prev[dst]
        path.append(("e", k))
    path.reverse()
    return path


def tree_to_json(ball: GGraphBall) -> dict:
    edges = []
    for edge in ball.edges:
        word, lam = _edge_word(ball, edge)
        edges.append({
            "word": word_to_json(word),
            "lam_edge": lam,
            "endpoints": [edge.u, edge.v],
            "stab_order": edge.stab_order,
        })
    return {
        "base": ball.verts[0].rep.start,
        "radius": ball.radius,
        "vertices": [
            {
                "word": word_to_json(vx.rep),
                "lam_vertex": vx.rep.end,
                "dist": vx.dist,
                "stab_order": vx.stab_order,
            }
            for vx in ball.verts
        ],
        "edges": edges,
    }


def tree_to_dot(ball: GGraphBall) -> str:
    """Graphviz rendering with stabilizer orders annotated."""
    lines = ["graph treeball {"]
    for i, vx in enumerate(ball.verts):
        lines.append(
            f'  v{i} [label="v{vx.rep.end} d{vx.dist} stab{vx.stab_order}"];'
        )
    for edge in ball.edges:
        lam = _edge_word(ball, edge)[1]
        lines.append(f'  v{edge.u} -- v{edge.v} '
                     f'[label="e{lam} stab{edge.stab_order}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
