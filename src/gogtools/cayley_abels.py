"""Cayley–Abels graph balls, built two ways, plus the condition checklist.

Constructions
-------------
``coset_graph_ball`` works inside a concrete group: vertices are cosets of a
finite subgroup U (one family) and of each listed subgroup H (one family
each); edges are {gU, gsU} per listed generator and {gU, gH} cone edges.
Breadth-first from the coset U.  A cone family without a finite enumeration
cannot be expanded, so such vertices are BFS-terminal.  The sweep examines
every candidate of a vertex inside radius R, and its last sweep, over the
U-vertices at distance R, adds the edges whose endpoints both landed in the
ball and that no earlier sweep saw.  The candidates of a vertex gK are the
g·x·s, x in K's enumeration and s a step (or none, for a cone edge), swept
in one loop and each keyed once by its target family's
``SubgroupHandle.key_of``.  A candidate already in the ball is linked with
one probe of its ordered endpoint pair; a new coset is staged with its
sources, a source already listed for it being skipped, and is appended
with its edges when its level is indexed.  The recorded distances are graph
distances in the locally finite approximation that ignores shortcuts
through unexpanded cones, the reading under which the coned plane's ball is
"grid plus cones".

``quotient_tree_ball`` quotients the tree-ball construction by the normal
closure of a relator list, membership being decided by a caller-supplied
word-problem callable (True / False / None="cannot decide", the last aborts),
which may be handed words that are not reduced.
With no relators it is the tree ball, which
:func:`gogtools.tree.build_tree_ball` returns: it walks the tree with the
child step and fan table of :mod:`gogtools.tree`.  ``_KernelLookup`` is
the one place that finds a vertex again modulo the kernel.  The finished
ball keeps it as ``lookup``, where the tree action and the presentation
complex in :mod:`gogtools.smallcanc` find their vertices.  It buckets
vertices by the key the callable's ``key_of`` gives (by Λ-vertex if the
callable has no ``key_state``).  Each vertex carries the state its key
is made from, such as its image in an evaluation oracle's finite target.
A child reduce(w·y)·(e, s) takes its state from its parent's by
``key_step`` with the y the child step swept in, plus one more step by s
where s is not the identity, so no vertex word is walked to key it.  An
exact key, such as the evaluation's coset, settles a lookup by the key
alone; otherwise each candidate in the bucket costs one word-problem call
per vertex-group element that the states do not rule out.

Search
------
A ball is its vertex and edge lists.  ``GGraphBall.nbrs`` (each vertex's
neighbours in ascending index) and ``GGraphBall.edge_at`` (endpoint pair →
edge index) are derived from the edges, once per ball.
``GGraphBall.bfs`` is the one breadth-first search over a finished ball:
distances, angles and escaping sets, α geodesics, tree geodesics, the π₁
spanning tree and the δ distance rows all read it.  It takes neighbours in
``nbrs`` order, so its parent edges, and every path or name read off them,
break ties by least index, not by the order of the edge list.

Cells and determinism
---------------------
Vertices carry an orbit tag ("G/U", "G/H0", ... — or "T/v0", ... for
quotient balls) and a representative; newly discovered cosets are indexed
per level in (tag, canonical key) order, so reruns are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import CapExceeded, UnsupportedInput
from .gog import (
    GraphOfGroups,
    GroupWord,
    _own_table,
    identity_word,
    word_to_json,
)
from .tree import _child_steps, _fan_table, canonical_coset_word

if TYPE_CHECKING:  # the annotation of coset_graph_ball only
    from .concrete import SubgroupHandle


class GVertex:
    __slots__ = ("tag", "rep", "key", "dist", "stab_name", "stab_order")

    def __init__(self, tag, rep, key, dist, stab_name, stab_order):
        self.tag = tag
        self.rep = rep
        self.key = key
        self.dist = dist
        self.stab_name = stab_name
        self.stab_order = stab_order  # None means not finitely enumerated

    def __repr__(self):
        return f"GVertex({self.tag}, d={self.dist}, stab={self.stab_order})"


class GEdge:
    __slots__ = ("tag", "u", "v", "stab_order")

    def __init__(self, tag, u, v, stab_order):
        self.tag = tag
        self.u = u
        self.v = v
        self.stab_order = stab_order

    def __repr__(self):
        return f"GEdge({self.tag}, {self.u}--{self.v})"


class GGraphBall:
    """Finite ball of a Cayley–Abels style graph; immutable once built.
    The vertex and edge lists are the whole graph: neighbours and the edge
    index are derived from the edges.  ``lookup`` is the
    :class:`_KernelLookup` a quotient ball was built with (None on coset
    and attachment balls)."""

    def __init__(self, verts, edges, radius, notes=(), lookup=None):
        self.verts = tuple(verts)
        self.edges = tuple(edges)
        self.radius = radius
        self.notes = tuple(notes)
        self.lookup = lookup

    def vertex_count(self):
        return len(self.verts)

    def edge_count(self):
        return len(self.edges)

    def degree(self, i):
        return len(self.nbrs[i])

    @cached_property
    def nbrs(self):
        """Each vertex's (vertex, edge) pairs in ascending order."""
        out = [[] for _ in self.verts]
        for k, e in enumerate(self.edges):
            out[e.u].append((e.v, k))
            out[e.v].append((e.u, k))
        return tuple(tuple(sorted(a)) for a in out)

    @cached_property
    def edge_at(self):
        """Endpoint pair (lesser index first) -> edge index."""
        return {(min(e.u, e.v), max(e.u, e.v)): k
                for k, e in enumerate(self.edges)}

    def bfs(self, src: int, avoid=None):
        """Breadth-first search from src in the ball minus the vertex
        ``avoid``: (dist, parent) dicts over the vertices reached, a parent
        being the (vertex, edge) a vertex was first reached from, None at
        src.  Neighbours are taken in ``nbrs`` order, so ties go to the
        least index."""
        if src == avoid:
            raise ValueError("BFS source equals the removed vertex")
        dist = {src: 0}
        parent = {src: None}
        queue = [src]
        for x in queue:
            d = dist[x] + 1
            for y, k in self.nbrs[x]:
                if y not in dist and y != avoid:
                    dist[y] = d
                    parent[y] = (x, k)
                    queue.append(y)
        return dist, parent

    def subball_degree(self, i, rho):
        """Degree of vertex i inside the sub-ball of radius rho."""
        if self.verts[i].dist > rho:
            return 0
        return sum(1 for j, _ in self.nbrs[i] if self.verts[j].dist <= rho)


def _edge_insert(edges, eindex, tag, u, v, stab_order, notes):
    if u == v:
        note = f"dropped loop edge at vertex {u} (tag {tag})"
        if note not in notes:
            notes.append(note)
        return
    pair = (min(u, v), max(u, v))
    if pair in eindex:
        return
    eindex[pair] = len(edges)
    edges.append(GEdge(tag, u, v, stab_order))


def coset_graph_ball(G, U: SubgroupHandle, S, hs, R: int,
                     cap: int = 10 ** 6) -> GGraphBall:
    """Ball of radius R around the vertex U in the coset construction."""
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if U.elements is None:
        raise ValueError("U must be finite with an explicit enumeration")

    # each vertex tag's sweep: candidates are g·x·s over x in ``bases`` and
    # (s, tag, key routine, edge tag, edge stabilizer order) in ``moves``,
    # s = None meaning g·x itself; edge orders from U's enumeration
    u_key = U.key_of
    u_moves = []
    for si, s in enumerate(S):
        sinv = G.inv(s)
        order = sum(1 for u in U.elements if U.contains(G.op(sinv, G.op(u, s))))
        u_moves += [(s, "G/U", u_key, f"s{si}", order),
                    (sinv, "G/U", u_key, f"s{si}", order)]
    sweeps = {}
    stabs = {"G/U": (U.name, len(U.elements))}
    for hi, h in enumerate(hs):
        tag, etag = f"G/H{hi}", f"cone:H{hi}"
        order = sum(1 for u in U.elements if h.contains(u))
        u_moves.append((None, tag, h.key_of, etag, order))
        sweeps[tag] = (h.elements or (), [(None, "G/U", u_key, etag, order)])
        stabs[tag] = (h.name, h.order if h.is_finite else None)
    sweeps["G/U"] = (U.elements, u_moves)

    verts = []
    edges = []
    eindex = {}
    notes = []
    index = {}      # (tag, coset key) -> vertex

    def add_vertex(tag, rep, key, dist):
        idx = len(verts)
        if idx + 1 > cap:
            raise CapExceeded(
                f"coset graph ball exceeded cap of {cap} vertices",
                detail={"vertices": idx, "radius_reached": dist - 1},
            )
        verts.append(GVertex(tag, rep, key, dist, *stabs[tag]))
        index[tag, key] = idx
        return idx

    ident = G.identity
    add_vertex("G/U", ident, u_key(G, ident), 0)
    op, index_get = G.op, index.get

    # a vertex at distance < R was in a frontier, where each candidate gave
    # an edge, a loop note or a vertex.  The last sweep, over the boundary
    # ([0] at R = 0, [] if exhausted), stages no vertex: it adds the edges
    # from the boundary U-vertices to vertices already in the ball.  A
    # vertex's candidates are swept together, so a repeated source of a
    # staged vertex is the last one listed.
    frontier = [0]
    for dist in range(1, R + 2):
        closing = dist > R
        staged = {}     # (tag, key) -> (rep, [(src, etag, estab)])
        for i in frontier:
            vx = verts[i]
            if closing and vx.tag != "G/U":
                continue
            g = vx.rep
            bases, moves = sweeps[vx.tag]
            for x in bases:
                gx = op(g, x)
                for s, tag, key_of, etag, estab in moves:
                    rep = gx if s is None else op(gx, s)
                    key = key_of(G, rep)
                    found = index_get((tag, key))
                    if found is None:
                        if closing:
                            continue
                        entry = staged.get((tag, key))
                        if entry is None:
                            staged[tag, key] = (rep, [(i, etag, estab)])
                        elif entry[1][-1][0] != i:
                            entry[1].append((i, etag, estab))
                    elif found == i:
                        _edge_insert(edges, eindex, etag, i, i, estab, notes)
                    else:
                        pair = (i, found) if i < found else (found, i)
                        if pair not in eindex:
                            eindex[pair] = len(edges)
                            edges.append(GEdge(etag, i, found, estab))
        frontier = []
        for tag, key in sorted(staged, key=lambda tk: (tk[0], repr(tk[1]))):
            rep, sources = staged[tag, key]
            j = add_vertex(tag, rep, key, dist)
            for src, etag, estab in sources:
                eindex[src, j] = len(edges)
                edges.append(GEdge(etag, src, j, estab))
            frontier.append(j)

    return GGraphBall(verts, edges, R, notes)


class _KernelLookup:
    """Quotient-ball vertices by canonical tree word, found again modulo the
    kernel ⟨⟨R⟩⟩.  With no relators only exact hits on the word count.

    Otherwise a vertex goes into the bucket of its key.  A keyed
    word-problem callable gives it by a key state: ``key_state(word)``
    is a word's state, ``key_step(s, v, x)`` the state of word·x from the
    state s of a word ending at v (x in G_v), ``key_of(s, v)`` the key of
    a word ending at v with state s, and ``exact_key`` whether equal keys
    mean the same vertex.  A pair (e, 1) leaves the state alone, so the
    ball builder steps a child's state from its parent's in O(1); a
    caller with only a word has its state computed here.  A callable
    with no ``key_state`` keys by Λ-vertex.

    Two words that agree modulo the kernel up to an element of G_v must
    get the same key, so a bucket holds every vertex that could match, in
    insertion order.  When ``exact_key`` is true, equal keys also mean the
    same vertex, and ``find`` returns the bucket's only entry.  Otherwise
    the key is a filter: an exact hit on the word comes first, then the
    first vertex in the bucket whose word w_i has word·x·w_i⁻¹ in the
    kernel for some x in G_v.  Only the x whose key_step(state, v, x) is
    w_i's state are tried: the states differ only where the oracle would
    refute the product.  The product is handed to the callable unreduced:
    a word-problem callable decides an element, whatever word represents
    it, and the Dehn oracle reduces once itself."""

    def __init__(self, relators, wp):
        self.wp = wp if relators else None
        if hasattr(self.wp, "key_state"):
            self.key_state, self.key_step = wp.key_state, wp.key_step
            self.key_of, self.exact_key = wp.key_of, wp.exact_key
        else:   # no state, and the Λ-vertex for a key
            self.key_state = self.key_step = lambda *args: None
            self.key_of, self.exact_key = (lambda s, v: v), False
        self.exact = {}     # canonical tree word -> index
        self.buckets = {}   # key -> [(word, state, index)]

    def add(self, word: GroupWord, idx: int, state, key):
        if not self.exact_key:
            self.exact[word] = idx
        if self.wp is not None:
            self.buckets.setdefault(key, []).append((word, state, idx))

    def in_kernel(self, word: GroupWord) -> bool:
        if word.is_identity():
            return True
        verdict = self.wp(word)
        if verdict is None:
            raise UnsupportedInput(
                f"word-problem oracle could not decide {word!r}; "
                "quotient construction aborted"
            )
        return bool(verdict)

    def find(self, word: GroupWord, state=None, key=None):
        """Index of the vertex equal to word·G_v modulo the kernel, or None.
        ``state`` and ``key`` are the word's, computed here if key is
        None."""
        if self.wp is None:
            return self.exact.get(word)
        if key is None:
            state = self.key_state(word)
            key = self.key_of(state, word.end)
        bucket = self.buckets.get(key, ())
        if self.exact_key:
            return bucket[0][2] if bucket else None
        j = self.exact.get(word)
        if j is not None:
            return j
        gog, v, step = word.gog, word.end, self.key_step
        for w_i, s_i, i in bucket:
            inv_i = w_i.inverse()
            for x in range(gog.vgroup(v).order):
                if step(state, v, x) == s_i and self.in_kernel(
                        word * GroupWord._trusted(gog, v, x) * inv_i):
                    return i
        return None


def quotient_tree_ball(gog: GraphOfGroups, relators, R: int, wp=None,
                       base: int = 0, transversals=None,
                       cap: int = 10 ** 6) -> GGraphBall:
    """Ball of the tree quotiented by the normal closure of ``relators``.
    ``transversals``, if given, must be ``gog.transversals``.  With no
    relators it is the tree ball, and a child step that reaches a vertex
    already in the ball raises ``RuntimeError``.

    Each vertex carries its key state (see :class:`_KernelLookup`): the
    child reduce(w·y)·(e, s) that ``_child_steps`` yields with y takes
    key_step(state, v, y), then one more step by s where s is not the
    identity.

    A child's Λ-vertex is t(e) of its step, and a frontier vertex's is
    read off its last pair.  With no relators one probe of the lookup's
    word table both records a child and detects a cycle.  The edge to a
    new child has a fresh endpoint, so it is appended as it is; only an
    edge to a vertex already in the ball goes through ``_edge_insert``."""
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    relators = list(relators)
    if relators and wp is None:
        raise ValueError("nonempty relator list needs a word-problem callable")
    if not 0 <= base < gog.graph.num_vertices:
        raise ValueError(f"base vertex {base} out of range")
    _own_table(gog, transversals)
    g = gog.graph
    tt, tid = gog.transversals.t, gog.transversals.tid
    fan = _fan_table(gog)
    lookup = _KernelLookup(relators, wp)
    key_state, key_step, key_of = (lookup.key_state, lookup.key_step,
                                   lookup.key_of)
    vtags = [(f"T/v{v}", f"vgroup[{v}]", gog.vgroup(v).order)
             for v in range(g.num_vertices)]
    etags = [(f"T/e{e >> 1}", gog.egroup(e).order)
             for e in range(g.num_edges)]
    kind = "quotient" if relators else "tree"

    verts = []
    states = []
    edges = []
    eindex = {}
    notes = []
    exact = lookup.exact

    def add_vertex(word, v, dist, state):
        idx = len(verts)
        if idx + 1 > cap:
            raise CapExceeded(
                f"{kind} ball exceeded cap of {cap} vertices at radius {dist}",
                detail={"vertices": idx, "radius_reached": dist - 1},
            )
        tag, stab_name, stab_order = vtags[v]
        verts.append(GVertex(tag, word, word, dist, stab_name, stab_order))
        states.append(state)
        return idx

    root = canonical_coset_word(identity_word(gog, base))
    state = key_state(root)
    lookup.add(root, add_vertex(root, base, 0, state), state,
               key_of(state, base))

    # a vertex's step back toward the tree center reaches the vertex it was
    # discovered from, so only the steps away from the center are walked.
    # The last sweep, over the boundary, adds no vertex, only the edges
    # that close cycles; with no relators only exact words match, and a
    # child of a boundary vertex is never in the ball, so a tree ball
    # skips it.
    frontier = [0]
    for dist in range(1, R + 2 if relators else R + 1):
        nxt = []
        for i in frontier:
            w, state = verts[i].rep, states[i]
            v = tt[w.pairs[-1][0]] if w.pairs else base
            for e, y, cand in _child_steps(w, fan):
                t, (etag, estab) = tt[e], etags[e]
                if relators:
                    s, x = key_step(state, v, y), cand.pairs[-1][1]
                    if x != tid[e]:
                        s = key_step(s, t, x)
                    key = key_of(s, t)
                    j = lookup.find(cand, s, key)
                    if j is not None:
                        _edge_insert(edges, eindex, etag, i, j, estab, notes)
                        continue
                    if dist > R:
                        continue
                    j = add_vertex(cand, t, dist, s)
                    lookup.add(cand, j, s, key)
                else:
                    j = len(verts)
                    if exact.setdefault(cand, j) != j:
                        raise RuntimeError(
                            f"ball construction produced a cycle at {cand!r}; "
                            "reduction is broken"
                        )
                    add_vertex(cand, t, dist, None)     # no key state
                nxt.append(j)
                eindex[i, j] = len(edges)
                edges.append(GEdge(etag, i, j, estab))
        frontier = nxt

    return GGraphBall(verts, edges, R, notes, lookup)


def check_ca_conditions(ball: GGraphBall) -> dict:
    """Per-condition verdicts, restricted to the ball.

    The degree dichotomy is a growth heuristic read off three nested
    sub-balls, never a proof: a vertex is flagged as growth-type when its
    sub-ball degree strictly increases across the top three radii.
    """
    report = {"radius": ball.radius, "notes": list(ball.notes)}

    loops = [e for e in ball.edges if e.u == e.v]
    pairs = [(min(e.u, e.v), max(e.u, e.v)) for e in ball.edges]
    doubled = len(pairs) != len(set(pairs))
    report["simplicial"] = {
        "pass": not loops and not doubled,
        "loops": len(loops),
        "doubled_pairs": len(pairs) - len(set(pairs)),
    }

    reached = ball.bfs(0)[0] if ball.vertex_count() else {}
    report["connected"] = {
        "pass": len(reached) == ball.vertex_count(),
        "reached": len(reached),
        "vertices": ball.vertex_count(),
    }

    vtags = sorted({v.tag for v in ball.verts})
    etags = sorted({e.tag for e in ball.edges})
    report["finitely_many_orbits"] = {
        "pass": True,
        "vertex_tags": vtags,
        "edge_tags": etags,
    }

    bad_edges = [i for i, e in enumerate(ball.edges) if e.stab_order is None]
    report["edge_stabilizers_finite"] = {
        "pass": not bad_edges,
        "violations": bad_edges,
    }

    classes = {}
    for v in ball.verts:
        kind = "finite" if v.stab_order is not None else "infinite-designated"
        classes.setdefault(v.tag, kind)
    report["vertex_stabilizer_classes"] = classes

    R = ball.radius
    if R < 2:
        report["degree_dichotomy"] = {
            "pass": None,
            "reason": "needs radius >= 2 for three nested sub-balls",
        }
    else:
        rhos = [R - 2, R - 1, R]
        flagged = []
        evaluated = []
        for i, v in enumerate(ball.verts):
            if v.dist > R - 2:
                continue
            evaluated.append(i)
            seq = [ball.subball_degree(i, rho) for rho in rhos]
            if seq[0] < seq[1] < seq[2]:
                flagged.append(i)
        infinite = [i for i in evaluated if ball.verts[i].stab_order is None]
        report["degree_dichotomy"] = {
            "pass": set(flagged) == set(infinite),
            "radii": rhos,
            "growth_flagged": flagged,
            "infinite_stabilizer_tagged": infinite,
        }

    report["all_pass"] = all(
        c["pass"] in (True, None)
        for c in (
            report["simplicial"],
            report["connected"],
            report["finitely_many_orbits"],
            report["edge_stabilizers_finite"],
            report["degree_dichotomy"],
        )
    )
    return report


def compare_balls_qi(b1: GGraphBall, b2: GGraphBall) -> dict:
    """Empirical bi-Lipschitz constant between two balls sharing U-vertex
    keys: max over common inner vertex pairs of the two distance ratios."""
    inner = min(b1.radius, b2.radius) // 2
    m1 = {v.key: i for i, v in enumerate(b1.verts)
          if v.tag == "G/U" and v.key is not None and v.dist <= inner}
    m2 = {v.key: i for i, v in enumerate(b2.verts)
          if v.tag == "G/U" and v.key is not None and v.dist <= inner}
    common = sorted(set(m1) & set(m2), key=repr)
    ell = Fraction(1)
    witness = None
    npairs = 0
    for a in range(len(common)):
        d1 = b1.bfs(m1[common[a]])[0]
        d2 = b2.bfs(m2[common[a]])[0]
        for b in range(a + 1, len(common)):
            x1 = d1.get(m1[common[b]])
            x2 = d2.get(m2[common[b]])
            if not x1 or not x2:
                continue
            npairs += 1
            ratio = max(Fraction(x1, x2), Fraction(x2, x1))
            if ratio > ell:
                ell = ratio
                witness = (repr(common[a]), repr(common[b]), x1, x2)
    return {"ell": ell, "pairs": npairs, "witness": witness}


def _rep_json(rep):
    if isinstance(rep, GroupWord):
        return word_to_json(rep)
    if isinstance(rep, tuple):
        return [_rep_json(x) for x in rep]
    return rep


def ca_to_json(ball: GGraphBall) -> dict:
    return {
        "radius": ball.radius,
        "notes": list(ball.notes),
        "vertices": [
            {
                "tag": v.tag,
                "rep": _rep_json(v.rep),
                "dist": v.dist,
                "stab_name": v.stab_name,
                "stab_order": v.stab_order,
            }
            for v in ball.verts
        ],
        "edges": [
            {"tag": e.tag, "endpoints": [e.u, e.v], "stab_order": e.stab_order}
            for e in ball.edges
        ],
    }


def ca_to_dot(ball: GGraphBall) -> str:
    lines = ["graph caball {"]
    for i, v in enumerate(ball.verts):
        stab = v.stab_order if v.stab_order is not None else "inf"
        lines.append(f'  v{i} [label="{v.tag} d{v.dist} stab{stab}"];')
    for e in ball.edges:
        lines.append(f'  v{e.u} -- v{e.v} [label="{e.tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
