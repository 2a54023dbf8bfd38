"""Finite-radius balls of the tree acted on by the fundamental group of a
graph of finite groups, with the action, stabilizers, and geodesics.

Conventions
-----------
Vertices of the tree over the base vertex ``base`` are cosets w·G_v where w is
a reduced word from ``base`` ending at the Λ-vertex v.  The canonical coset
representative is the minimum of reduce(w·g) over g ∈ G_v under
``GroupWord.key()`` (edge count first, then the flat (vertex, element, edge)
tuple) — deterministic and unique per coset, and the edge count of the
representative is exactly the tree distance from the center.

Geometric tree edges are recorded once, oriented away from the center as
discovered: the record keeps the Λ-edge e together with the canonical edge
word, the minimum of reduce(u·h) over h in the image of inj(ē) inside the
origin-side vertex group (u any word ending at o(e) picking out the edge).
It is the canonical far endpoint's word with its last pair dropped (see
:func:`build_tree_ball`).
Since a tree has no multi-edges, an edge is also addressable by its unordered
endpoint pair, which is how the action on edges is resolved.

Cells are passed around as tagged pairs ("v", i) / ("e", i) indexing into
``TreeBall.verts`` / ``TreeBall.edges``.
"""

from __future__ import annotations

from .errors import CapExceeded
from .finite import FiniteGroup, Subgroup, left_transversal
from .gog import (
    GraphOfGroups,
    GroupWord,
    _own_table,
    _sweep,
    identity_word,
    reduce_word,
    word_to_json,
)

#: Returned by :func:`act` when the image of a cell falls outside the ball.
OUT_OF_BALL = "out-of-ball"


class TreeVertex:
    __slots__ = ("word", "lam_vertex", "dist")

    def __init__(self, word: GroupWord, lam_vertex: int, dist: int):
        self.word = word
        self.lam_vertex = lam_vertex
        self.dist = dist

    def __repr__(self):
        return f"TreeVertex({self.word!r}, v{self.lam_vertex}, d={self.dist})"


class TreeEdge:
    """Geometric tree edge; ``u`` is the center-side endpoint index, ``v`` the
    far side, ``lam_edge`` the directed Λ-edge pointing u → v."""

    __slots__ = ("word", "lam_edge", "u", "v")

    def __init__(self, word: GroupWord, lam_edge: int, u: int, v: int):
        self.word = word
        self.lam_edge = lam_edge
        self.u = u
        self.v = v

    def __repr__(self):
        return f"TreeEdge({self.word!r}, e{self.lam_edge}, {self.u}--{self.v})"


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
            total += G.order // len(gog.image(e))
    return total


def canonical_coset_word(word: GroupWord) -> GroupWord:
    """Minimum of reduce(word·g) over g in the vertex group at word.end."""
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


class TreeBall:
    """Immutable ball of the tree; construct via :func:`build_tree_ball`."""

    def __init__(self, gog: GraphOfGroups, base: int, radius: int, verts,
                 edges, adjacency):
        self.gog = gog
        self.base = base
        self.radius = radius
        self.verts = tuple(verts)
        self.edges = tuple(edges)
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self.vindex = {tv.word: i for i, tv in enumerate(self.verts)}
        self.eindex = {}
        for i, te in enumerate(self.edges):
            self.eindex[(min(te.u, te.v), max(te.u, te.v))] = i

    def vertex_count(self) -> int:
        return len(self.verts)

    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def check(self):
        """Invariant audit; returns a list of violation strings."""
        problems = []
        if self.edge_count() != self.vertex_count() - 1:
            problems.append(
                f"|E| = {self.edge_count()} != |V| - 1 = {self.vertex_count() - 1}"
            )
        # acyclicity by union-find
        parent = list(range(self.vertex_count()))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for te in self.edges:
            ru, rv = find(te.u), find(te.v)
            if ru == rv:
                problems.append(f"cycle through edge {te.u}--{te.v}")
            else:
                parent[ru] = rv
        roots = {find(i) for i in range(self.vertex_count())}
        if len(roots) != 1:
            problems.append(f"ball is disconnected into {len(roots)} components")
        for i, tv in enumerate(self.verts):
            if tv.dist < self.radius:
                want = degree_formula(self.gog, tv.lam_vertex)
                if self.degree(i) != want:
                    problems.append(
                        f"interior vertex {i} has degree {self.degree(i)}, "
                        f"index formula gives {want}"
                    )
        return problems


def _fan_table(gog: GraphOfGroups):
    """Per directed edge e, the expansion fan at an o(e)-side vertex: the
    left transversal of im(inj(ē)) in vgroup(o(e)), each representative
    paired with the set of last edges (None at the center) after which
    :func:`_child_steps` must still canonicalize the child word.

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
        image = sorted(gog.image(g.bar(e)))
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
    farther from the center, as (e, rep, canonical child word) in edge then
    fan order; the one step that folds back toward the center is skipped.
    The reduced word w·rep·e·1 is the canonical child except on the steps
    :func:`_fan_table` could not prove.  Only the seam is rewritten: rep
    merges into the last element x of w; the step folds back exactly when
    e reverses the last edge k and x·rep lies in im(k), and otherwise
    ``gog._sweep`` restores the transversal form from there leftward."""
    gog = w.gog
    g = gog.graph
    v = w.end
    last, x = w.pairs[-1] if w.pairs else (None, None)
    for e in g.edges_at(v):
        ident_t = gog.vgroup(g.t(e)).identity
        for rep, unproven in fan[e]:
            if g.bar(e) == last and gog.vgroup(v).op(x, rep) in gog.image(last):
                continue
            items = list(w.pairs)
            head = _sweep(w.head, w.start, items, len(items) - 1, rep, gog)
            items.append((e, ident_t))
            nf = GroupWord._trusted(gog, w.start, head, items)
            if last in unproven:
                nf = canonical_coset_word(nf)
            yield e, rep, nf


def build_tree_ball(gog: GraphOfGroups, radius: int, base: int = 0,
                    transversals=None, cap: int = 10 ** 6) -> TreeBall:
    """Breadth-first ball of radius ``radius`` around the coset of
    vgroup(base).  Aborts with :class:`CapExceeded` past ``cap`` vertices.
    ``transversals``, if given, must be ``gog.transversals``.

    Edge words are read off the children.  The child coset of w·rep·e is
    the set of words reduce(w·y)·(e, s) with y in rep·im(inj(ē)) and s in
    the transversal of im(e) (an edge-group factor of the last element
    moves across e into y).  All of them have the same length, and
    ``GroupWord.key`` compares the part before e first, so the canonical
    child is (least reduce(w·y))·(e, least s).  Dropping its last pair
    leaves the least reduce(w·y) over y in rep·im(inj(ē)), which is the
    canonical edge word."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    g = gog.graph
    if not 0 <= base < g.num_vertices:
        raise ValueError(f"base vertex {base} out of range")
    _own_table(gog, transversals)

    center = canonical_coset_word(identity_word(gog, base))
    verts = [TreeVertex(center, base, 0)]
    vindex = {center: 0}
    edges = []
    adjacency = [[]]

    fan = _fan_table(gog)
    frontier = [0]
    for dist in range(1, radius + 1):
        nxt = []
        for i in frontier:
            w = verts[i].word
            for e, _rep, child in _child_steps(w, fan):
                if child in vindex:
                    raise RuntimeError(
                        f"ball construction produced a cycle at {child!r}; "
                        "reduction is broken"
                    )
                if len(verts) + 1 > cap:
                    raise CapExceeded(
                        f"tree ball exceeded cap of {cap} vertices at radius {dist}",
                        detail={"vertices": len(verts), "radius_reached": dist - 1},
                    )
                j = len(verts)
                verts.append(TreeVertex(child, g.t(e), dist))
                vindex[child] = j
                adjacency.append([])
                eword = GroupWord._trusted(gog, child.start, child.head,
                                           child.pairs[:-1])
                k = len(edges)
                edges.append(TreeEdge(eword, e, i, j))
                adjacency[i].append((j, k))
                adjacency[j].append((i, k))
                nxt.append(j)
        frontier = nxt
    return TreeBall(gog, base, radius, verts, edges, adjacency)


def _require_cell(cell, ball: TreeBall):
    kind, i = cell
    if kind == "v":
        if not 0 <= i < ball.vertex_count():
            raise ValueError(f"vertex index {i} not in ball")
    elif kind == "e":
        if not 0 <= i < ball.edge_count():
            raise ValueError(f"edge index {i} not in ball")
    else:
        raise ValueError(f"unknown cell kind {kind!r}")


def act(w: GroupWord, cell, ball: TreeBall):
    """Left action of a loop word at the base vertex on a cell of the ball.

    Returns the image cell, or :data:`OUT_OF_BALL` when it leaves the ball.
    """
    if w.start != ball.base or not w.is_loop():
        raise ValueError(
            f"acting word must be a loop at vertex {ball.base}, "
            f"got {w.start} -> {w.end}"
        )
    _require_cell(cell, ball)
    kind, i = cell
    if kind == "v":
        img = canonical_coset_word(w * ball.verts[i].word)
        j = ball.vindex.get(img)
        return OUT_OF_BALL if j is None else ("v", j)
    te = ball.edges[i]
    iu = act(w, ("v", te.u), ball)
    iv = act(w, ("v", te.v), ball)
    if iu == OUT_OF_BALL or iv == OUT_OF_BALL:
        return OUT_OF_BALL
    a, b = iu[1], iv[1]
    key = (min(a, b), max(a, b))
    if key not in ball.eindex:
        raise RuntimeError(
            f"action image of edge {i} has endpoints {key} with no edge; "
            "ball adjacency is broken"
        )
    return ("e", ball.eindex[key])


def stabilizer(cell, ball: TreeBall) -> StabilizerData:
    """Stabilizer of a cell: (conjugator word, Λ-group), with the elements
    enumerated as reduced loop words at the base vertex."""
    _require_cell(cell, ball)
    kind, i = cell
    gog = ball.gog
    g = gog.graph
    # the Λ-group as (vertex, element) syllables at the cell's own vertex
    if kind == "v":
        tv = ball.verts[i]
        conj = tv.word
        G = gog.vgroup(tv.lam_vertex)
        name = f"vgroup[{tv.lam_vertex}]"
        local = [(tv.lam_vertex, x) for x in range(G.order)]
    else:
        te = ball.edges[i]
        conj = te.word
        G = gog.egroup(te.lam_edge)
        name = f"egroup[{te.lam_edge >> 1}]"
        inj = gog.inj[g.bar(te.lam_edge)]
        local = [(g.o(te.lam_edge), inj.map[c]) for c in range(G.order)]
    inv = reduce_word(conj.inverse())
    elements = [reduce_word(conj * GroupWord._trusted(gog, v, x) * inv)
                for v, x in local]
    return StabilizerData(cell, conj, G, name, elements)


def geodesic(u_cell, v_cell, ball: TreeBall):
    """Unique embedded edge path between two vertex cells, as an ordered list
    of edge cells ("e", k).  Empty for u = v."""
    for c in (u_cell, v_cell):
        _require_cell(c, ball)
        if c[0] != "v":
            raise ValueError(f"geodesic endpoints must be vertex cells, got {c}")
    src, dst = u_cell[1], v_cell[1]
    if src == dst:
        return []
    prev = {src: None}
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            for y, k in ball.adjacency[x]:
                if y not in prev:
                    prev[y] = (x, k)
                    nxt.append(y)
        if dst in prev:
            break
        queue = nxt
    if dst not in prev:
        raise RuntimeError(f"vertices {src} and {dst} disconnected; ball is broken")
    path = []
    at = dst
    while prev[at] is not None:
        x, k = prev[at]
        path.append(("e", k))
        at = x
    path.reverse()
    return path


def tree_to_json(ball: TreeBall) -> dict:
    return {
        "base": ball.base,
        "radius": ball.radius,
        "vertices": [
            {
                "word": word_to_json(tv.word),
                "lam_vertex": tv.lam_vertex,
                "dist": tv.dist,
                "stab_order": ball.gog.vgroup(tv.lam_vertex).order,
            }
            for tv in ball.verts
        ],
        "edges": [
            {
                "word": word_to_json(te.word),
                "lam_edge": te.lam_edge,
                "endpoints": [te.u, te.v],
                "stab_order": ball.gog.egroup(te.lam_edge).order,
            }
            for te in ball.edges
        ],
    }


def tree_to_dot(ball: TreeBall) -> str:
    """Graphviz rendering with stabilizer orders annotated."""
    lines = ["graph treeball {"]
    for i, tv in enumerate(ball.verts):
        order = ball.gog.vgroup(tv.lam_vertex).order
        lines.append(
            f'  v{i} [label="v{tv.lam_vertex} d{tv.dist} stab{order}"];'
        )
    for te in ball.edges:
        order = ball.gog.egroup(te.lam_edge).order
        lines.append(f'  v{te.u} -- v{te.v} [label="e{te.lam_edge} stab{order}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
