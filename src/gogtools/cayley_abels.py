"""Cayley–Abels graph balls, built two ways, plus the condition checklist.

Constructions
-------------
``coset_graph_ball`` works inside a concrete group: vertices are cosets of a
finite subgroup U (one family) and of each listed subgroup H (one family
each); edges are {gU, gsU} per listed generator and {gU, gH} cone edges.
Breadth-first from the coset U.  A cone family without a finite enumeration
cannot be expanded, so such vertices are BFS-terminal.  The sweep examines
every candidate of a vertex inside radius R, so a final pass over the
U-vertices at distance R adds the edges whose endpoints both landed in the
ball and that no sweep step saw.  The recorded distances are graph distances
in the locally finite approximation that ignores shortcuts through unexpanded
cones, the reading under which the coned plane's ball is "grid plus cones".

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
vertices by the callable's own ``key(word)`` (the Λ-vertex if it has none).
An exact key, such as an evaluation oracle's coset in the finite target,
settles a lookup with one key; otherwise each candidate in the bucket costs
one word-problem call per vertex-group element.

Search
------
``GGraphBall.bfs`` is the one breadth-first search over a finished ball:
distances, angles and escaping sets, α geodesics, tree geodesics, the π₁
spanning tree and the δ distance rows all read it.  It takes neighbours in
ascending index (``GGraphBall.nbrs``, sorted once per ball), so its parent
edges, and every path or name read off them, break ties by least index,
not by the order in which the builder inserted edges.

Cells and determinism
---------------------
Vertices carry an orbit tag ("G/U", "G/H0", ... — or "T/v0", ... for
quotient balls) and a representative; newly discovered cosets are indexed
per level in (tag, canonical key) order, so reruns are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .concrete import SubgroupHandle
from .errors import CapExceeded, UnsupportedInput
from .gog import (
    GraphOfGroups,
    GroupWord,
    _own_table,
    identity_word,
    word_to_json,
)
from .tree import _child_steps, _fan_table, canonical_coset_word


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
    ``lookup`` is the :class:`_KernelLookup` a quotient ball was built with
    (None on coset and attachment balls)."""

    def __init__(self, verts, edges, adjacency, radius, notes=(), lookup=None):
        self.verts = tuple(verts)
        self.edges = tuple(edges)
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self.radius = radius
        self.notes = tuple(notes)
        self.lookup = lookup

    def vertex_count(self):
        return len(self.verts)

    def edge_count(self):
        return len(self.edges)

    def degree(self, i):
        return len(self.adjacency[i])

    @cached_property
    def nbrs(self):
        """Each vertex's (vertex, edge) pairs in ascending order."""
        return tuple(tuple(sorted(a)) for a in self.adjacency)

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
        return sum(1 for j, _ in self.adjacency[i] if self.verts[j].dist <= rho)


def _edge_insert(edges, eindex, adjacency, tag, u, v, stab_order, notes):
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
    adjacency[u].append((v, eindex[pair]))
    adjacency[v].append((u, eindex[pair]))


def coset_graph_ball(G, U: SubgroupHandle, S, hs, R: int,
                     cap: int = 10 ** 6) -> GGraphBall:
    """Ball of radius R around the vertex U in the coset construction."""
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if U.elements is None:
        raise ValueError("U must be finite with an explicit enumeration")
    S = list(S)
    hs = list(hs)
    handles = {"G/U": U}
    for i, h in enumerate(hs):
        handles[f"G/H{i}"] = h

    # steps s0, s0⁻¹, s1, ... as (element, edge tag, edge stabilizer order)
    # and cones as (vertex tag, edge tag, order), orders from U's enumeration
    steps = []
    for si, s in enumerate(S):
        sinv = G.inv(s)
        order = sum(1 for u in U.elements if U.contains(G.op(sinv, G.op(u, s))))
        steps += [(s, f"s{si}", order), (sinv, f"s{si}", order)]
    cones = [(f"G/H{hi}", f"cone:H{hi}",
              sum(1 for u in U.elements if h.contains(u)))
             for hi, h in enumerate(hs)]

    verts = []
    adjacency = []
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
        if tag == "G/U":
            stab_name, stab_order = U.name, len(U.elements)
        else:
            h = handles[tag]
            stab_name = h.name
            stab_order = h.order if h.is_finite else None
        verts.append(GVertex(tag, rep, key, dist, stab_name, stab_order))
        adjacency.append([])
        index[tag, key] = idx
        return idx

    def candidates(i):
        """Neighbor cosets of vertex i as (tag, rep, edge_tag, edge_stab)."""
        vx = verts[i]
        out = []
        if vx.tag == "G/U":
            for u in U.elements:
                gu = G.op(vx.rep, u)
                for s, etag, estab in steps:
                    out.append(("G/U", G.op(gu, s), etag, estab))
                for tag, etag, estab in cones:
                    out.append((tag, gu, etag, estab))
        else:
            hi = int(vx.tag[3:])
            _, etag, estab = cones[hi]
            for x in hs[hi].elements or ():
                out.append(("G/U", G.op(vx.rep, x), etag, estab))
        return out

    ident = G.identity
    add_vertex("G/U", ident, U.key_of(G, ident), 0)

    frontier = [0]
    for dist in range(1, R + 1):
        staged = {}     # (tag, key) -> (rep, [(src, etag, estab)])
        for i in frontier:
            for tag, rep, etag, estab in candidates(i):
                key = handles[tag].key_of(G, rep)
                found = index.get((tag, key))
                if found is not None:
                    _edge_insert(edges, eindex, adjacency, etag, i, found,
                                 estab, notes)
                    continue
                staged.setdefault((tag, key), (rep, []))[1].append(
                    (i, etag, estab))
        frontier = []
        for tag, key in sorted(staged, key=lambda tk: (tk[0], repr(tk[1]))):
            rep, sources = staged[tag, key]
            j = add_vertex(tag, rep, key, dist)
            for src, etag, estab in sources:
                _edge_insert(edges, eindex, adjacency, etag, src, j, estab,
                             notes)
            frontier.append(j)

    # closing pass over the boundary: a vertex at distance < R was in a
    # frontier, where each candidate gave an edge, a loop note or a vertex;
    # the last frontier is in index order ([0] at R = 0, [] if exhausted)
    for i in frontier:
        if verts[i].tag != "G/U":
            continue
        for tag, rep, etag, estab in candidates(i):
            found = index.get((tag, handles[tag].key_of(G, rep)))
            if found is not None:
                _edge_insert(edges, eindex, adjacency, etag, i, found, estab,
                             notes)

    return GGraphBall(verts, edges, adjacency, R, notes)


class _KernelLookup:
    """Quotient-ball vertices by canonical tree word, found again modulo the
    kernel ⟨⟨R⟩⟩.  An exact hit on the word comes first; with no relators
    only exact hits count.

    Otherwise a vertex goes into the bucket of its key: ``wp.key(word)``
    when the word-problem callable has one, else its Λ-vertex.  Two words
    that agree modulo the kernel up to an element of G_v must get the same
    key, so a bucket holds every vertex that could match, in insertion
    order.  When ``wp.exact_key`` is true, equal keys also mean the same
    vertex, and ``find`` returns the bucket's first entry.  Otherwise the
    key is a filter, and ``find`` returns the first vertex in the bucket
    whose word w_i has word·x·w_i⁻¹ in the kernel for some x in G_v.  The product is handed
    to the callable unreduced: a word-problem callable decides an element,
    whatever word represents it, and the Dehn oracle reduces once itself."""

    def __init__(self, relators, wp):
        self.wp = wp if relators else None
        self.key = getattr(self.wp, "key", attrgetter("end"))
        self.exact_key = getattr(self.wp, "exact_key", False)
        self.exact = {}     # canonical tree word -> index
        self.buckets = {}   # key -> [(word, index)]

    def add(self, word: GroupWord, idx: int):
        self.exact[word] = idx
        if self.wp is not None:
            self.buckets.setdefault(self.key(word), []).append((word, idx))

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

    def find(self, word: GroupWord):
        """Index of the vertex equal to word·G_v modulo the kernel, or None."""
        j = self.exact.get(word)
        if j is not None or self.wp is None:
            return j
        bucket = self.buckets.get(self.key(word), ())
        if self.exact_key:
            return bucket[0][1] if bucket else None
        gog, v = word.gog, word.end
        for w_i, i in bucket:
            inv_i = w_i.inverse()
            for x in range(gog.vgroup(v).order):
                if self.in_kernel(word * GroupWord._trusted(gog, v, x) * inv_i):
                    return i
        return None


def quotient_tree_ball(gog: GraphOfGroups, relators, R: int, wp=None,
                       base: int = 0, transversals=None,
                       cap: int = 10 ** 6) -> GGraphBall:
    """Ball of the tree quotiented by the normal closure of ``relators``.
    ``transversals``, if given, must be ``gog.transversals``.  With no
    relators it is the tree ball, and a child step that reaches a vertex
    already in the ball raises ``RuntimeError``."""
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    relators = list(relators)
    if relators and wp is None:
        raise ValueError("nonempty relator list needs a word-problem callable")
    if not 0 <= base < gog.graph.num_vertices:
        raise ValueError(f"base vertex {base} out of range")
    _own_table(gog, transversals)
    fan = _fan_table(gog)
    lookup = _KernelLookup(relators, wp)

    verts = []
    adjacency = []
    edges = []
    eindex = {}
    notes = []

    def add_vertex(word, dist):
        idx = len(verts)
        if idx + 1 > cap:
            raise CapExceeded(
                f"{'quotient' if relators else 'tree'} ball exceeded cap of "
                f"{cap} vertices at radius {dist}",
                detail={"vertices": idx, "radius_reached": dist - 1},
            )
        lam_v = word.end
        verts.append(
            GVertex(f"T/v{lam_v}", word, word, dist, f"vgroup[{lam_v}]",
                    gog.vgroup(lam_v).order)
        )
        adjacency.append([])
        lookup.add(word, idx)
        return idx

    add_vertex(canonical_coset_word(identity_word(gog, base)), 0)

    # a vertex's step back toward the tree center reaches the vertex it was
    # discovered from, so only the steps away from the center are walked
    frontier = [0]
    for dist in range(1, R + 1):
        nxt = []
        for i in frontier:
            for e, _rep, cand in _child_steps(verts[i].rep, fan):
                j = lookup.find(cand)
                if j is None:
                    j = add_vertex(cand, dist)
                    nxt.append(j)
                elif not relators:
                    raise RuntimeError(
                        f"ball construction produced a cycle at {cand!r}; "
                        "reduction is broken"
                    )
                _edge_insert(edges, eindex, adjacency, f"T/e{e >> 1}", i, j,
                             gog.egroup(e).order, notes)
        frontier = nxt

    # induced pass over the boundary so cycle-closing edges are present.
    # With no relators only exact words match, and a child of a boundary
    # vertex is never in the ball, so a tree ball has no such edges.
    if relators:
        for i in frontier:
            for e, _rep, cand in _child_steps(verts[i].rep, fan):
                j = lookup.find(cand)
                if j is not None:
                    _edge_insert(edges, eindex, adjacency, f"T/e{e >> 1}",
                                 i, j, gog.egroup(e).order, notes)

    return GGraphBall(verts, edges, adjacency, R, notes, lookup)


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
