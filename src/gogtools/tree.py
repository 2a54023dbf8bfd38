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
distance from the center.  It is read off the normal form, not searched
for (see :func:`canonical_coset_word`).

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
    """The least word of the coset word·G_v (v = word.end) under
    ``GroupWord.key``, read off the normal form.

    The coset argument: with reduce(word) = u·(k, x) and x·g = η_k(c)·r
    (c in E_k, r in the transversal of im(k)), the words of the coset are
    reduce(u·η_k̄(c))·(k, r), each once and all of one length; the key
    compares the part before k first, so the least is the least
    reduce(u·η_k̄(c)) (:func:`_least_sweep`), then (k, least r).  A word
    that reduces to no edge has the coset G_v, least at element 0."""
    gog, v = word.gog, word.end
    red = reduce_word(word) if word.pairs else word
    if not red.pairs:
        return GroupWord._trusted(gog, v, 0)
    T = gog.transversals
    k = red.pairs[-1][0]
    u = GroupWord._trusted(gog, red.start, red.head, red.pairs[:-1])
    _y, head, items = _least_sweep(T, u, T.inj[k ^ 1])
    items.append((k, T.reps[k][0]))
    return GroupWord._trusted(gog, red.start, head, items)


def _least_sweep(T, w: GroupWord, ys):
    """(y, head, pairs) of the least reduce(w·y) over y in ``ys``, w
    canonical: one ``gog._sweep`` of y into w's last element (its head
    if w has no edge) each.  All have w's length, so ``GroupWord.key``
    orders them by head, then pairs."""
    pairs, n = w.pairs, len(w.pairs)
    hmul = w.gog.vgroups[w.start].table
    best = None
    for y in ys:
        items = list(pairs)
        j, corr = _sweep(T, items, n - 1, y, 0, n)
        head = hmul[w.head][corr] if j < 0 else w.head
        if best is None or (head, items) < best[1:]:
            best = (y, head, items)
    return best


def _fan_table(gog: GraphOfGroups):
    """Per directed edge e, the fan at an o(e)-side vertex: for each rep
    of the left transversal of im(inj(ē)) in vgroup(o(e)), the entry
    (rep, the coset rep·im(inj(ē)), the last edges k after which
    :func:`_child_steps` must search that coset, None for the center).

    A child of w is reduce(w·y)·(e, least s) for the y in the coset with
    the least reduce(w·y): the coset argument of
    :func:`canonical_coset_word`, an edge-group factor of the last
    element moving across e into y.  With w = u·(k, m), m the least
    representative of im(k), and m·y = η_k(c)·r, reduce(w·y) is
    reduce(u·η_k̄(c))·(k, r); w is least in its coset, so the least has
    c = 1, then the least r = m·y.  So rep alone is proven when m·rep is
    least among the m·y with c = 1 (at the center m = 0, and c = 1 for
    every y).  That holds on every built-in model, but not for every
    labelling of a non-normal edge image."""
    g = gog.graph
    T = gog.transversals
    fan = {}
    for e in range(g.num_edges):
        v = g.o(e)
        G = gog.vgroup(v)
        mul = G.table
        image = sorted(gog.inj[g.bar(e)].map)
        fan[e] = []
        for rep in left_transversal(G, Subgroup(G, image)):
            coset = tuple(mul[rep][h] for h in image)
            unproven = set()
            for k in [None] + [f for f in range(g.num_edges) if g.t(f) == v]:
                m = 0 if k is None else T.reps[k][0]
                free = [mul[m][y] for y in coset if k is None
                        or T.decomp[k][mul[m][y]][1] == mul[m][y]]
                if mul[m][rep] != min(free, default=None):
                    unproven.add(k)
            fan[e].append((rep, coset, frozenset(unproven)))
    return fan


def _child_steps(w: GroupWord, fan):
    """The neighbours of the vertex with canonical word w one step farther
    from the center, as (e, y, child) in edge then fan order, the child
    being reduce(w·y)·(e, least representative of im(e)).  The step that
    folds back (e reverses w's last edge k and x·rep lies in im(k), x the
    last element) is skipped.  On a step :func:`_fan_table` proves, y is
    the fan's rep, swept in inline by ``gog._sweep``; elsewhere
    :func:`_least_sweep` finds the least y of the fan coset.  w's end is
    read off its last pair, and its out-edges are the tuple
    ``SerreGraph.edges_at`` keeps, so a step scans no graph."""
    gog, T, pairs = w.gog, w.gog.transversals, w.pairs
    n = len(pairs)
    last, x = pairs[-1] if pairs else (None, None)
    v = T.t[last] if pairs else w.start
    mul, hmul = gog.vgroups[v].table, gog.vgroups[w.start].table
    for e in gog.graph.edges_at(v):
        tail = (e, T.reps[e][0])
        for rep, coset, unproven in fan[e]:
            if e ^ 1 == last and T.pinch[last][mul[x][rep]] is not None:
                continue
            if last in unproven:
                rep, head, items = _least_sweep(T, w, coset)
            else:
                items = list(pairs)
                j, corr = _sweep(T, items, n - 1, rep, 0, n)
                head = hmul[w.head][corr] if j < 0 else w.head
            items.append(tail)
            yield e, rep, GroupWord._trusted(gog, w.start, head, items)


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
    and e.  The canonical child is (least reduce(w·y))·(e, least s) over
    y in rep·im(inj(ē)) (see :func:`_fan_table`), so dropping its last
    pair leaves the least reduce(w·y), which is the canonical edge word."""
    child = ball.verts[edge.v].rep
    word = GroupWord._trusted(child.gog, child.start, child.head,
                              child.pairs[:-1])
    return word, child.pairs[-1][0]


def check_tree_ball(ball: GGraphBall):
    """Invariant audit of a tree ball; returns a list of violation strings.
    A connected graph with |V| − 1 edges is a tree, so the edge count and
    one search from vertex 0 settle acyclicity."""
    n, m = ball.vertex_count(), ball.edge_count()
    problems = []
    if m != n - 1:
        problems.append(f"|E| = {m} != |V| - 1 = {n - 1}")
    reached = len(ball.bfs(0)[0])
    if reached != n:
        problems.append(
            f"ball is disconnected: {reached} of {n} vertices reachable "
            "from vertex 0")
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
