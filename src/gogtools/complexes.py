"""Two-complex balls over graph balls: cells, links, and π₁ plumbing.

A :class:`TwoComplexBall` wraps a :class:`~gogtools.cayley_abels.GGraphBall`
as its 1-skeleton and carries 2-cells as closed edge paths, recorded by
their cyclic vertex index sequences.  Cells are unoriented: the canonical
form of an attaching cycle is the lexicographically least among all
rotations of the sequence and of its reversal, so a cell equals its
mirror image and duplicates are detectable by key equality.

The m-thin audit stores on its complex the per-edge ``incidence`` table
that the certificate-based counter ``smallcanc.thinness_incidence``
computes over the complex's skeleton: for each 1-cell, the exact number of
2-cells of the *full* complex through that edge, independently of which
cells happen to be materialized inside the ball.  ``check_M_thin`` reads
its verdict from that table; the serializer writes it, null on every other
complex.

Boundary bookkeeping convention used throughout: a ball of radius R only
knows the cells it materialized, so "interior" flags are conservative —
a cell (or a vertex's star) is flagged interior only when the radius
margin proves that nothing incident to it can be missing.  Builders of
complete finite complexes should pass a generous radius so the margin
test clears everywhere.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import CapExceeded
from .gog import GroupWord, identity_word, reduce_word, syllable_length


def cycle_key(seq):
    """Canonical form of a cyclic vertex sequence up to rotation and
    reversal."""
    seq = tuple(seq)
    if not seq:
        return seq
    best = None
    for cand in (seq, tuple(reversed(seq))):
        for j in range(len(cand)):
            rot = cand[j:] + cand[:j]
            if best is None or rot < best:
                best = rot
    return best


class Cell2:
    """One 2-cell: attaching cycle (vertex indices, closed, first repeat
    omitted), an orbit tag, and an interior flag."""

    __slots__ = ("verts", "tag", "interior")

    def __init__(self, verts, tag, interior=True):
        self.verts = tuple(verts)
        self.tag = tag
        self.interior = bool(interior)

    def __repr__(self):
        return f"Cell2({self.tag}, {list(self.verts)})"


class TwoComplexBall:
    """``span``, when the builder provides it, is the maximum boundary
    length of any 2-cell of the *full* complex (not just the materialized
    ones); completeness margins fall back to the materialized maximum
    when it is absent.  ``incidence`` starts as None; the m-thin audit
    stores there the certified per-edge table it hands to
    ``check_M_thin``, so that the serialized complex carries it."""

    __slots__ = ("skeleton", "cells2", "incidence", "notes", "span")

    def __init__(self, skeleton, cells2, notes=(), span=None):
        self.skeleton = skeleton
        self.cells2 = list(cells2)
        self.incidence = None
        self.notes = tuple(notes)
        self.span = span

    @property
    def cells0(self):
        return self.skeleton.verts

    @property
    def cells1(self):
        return self.skeleton.edges

    @property
    def radius(self):
        return self.skeleton.radius

    def boundary(self, cell):
        """The steps of a 2-cell's attaching cycle in order: (a, b, index
        of the 1-cell a–b, or None when the skeleton has no such edge)."""
        at = self.skeleton.edge_at
        vs = cell.verts
        for a, b in zip(vs, vs[1:] + vs[:1]):
            yield a, b, at.get((min(a, b), max(a, b)))

    def euler(self):
        return (len(self.skeleton.verts) - len(self.skeleton.edges)
                + len(self.cells2))

    def __repr__(self):
        return (f"TwoComplexBall({len(self.skeleton.verts)} verts, "
                f"{len(self.skeleton.edges)} edges, "
                f"{len(self.cells2)} cells)")


# -- coning: fill short simple loops ----------------------------------------


def _simple_cycles_upto(nbr, k, cap):
    """All simple cycles of length 3..k, one tuple per class up to rotation
    and reversal: the tuple starts at the cycle's least vertex and runs in
    the direction whose second vertex is smaller than its last."""
    cycles = []
    budget = cap
    for s in range(len(nbr)):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in sorted(nbr[v], reverse=True):
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(path)
                    continue
                if w < s or len(path) >= k or w in path:
                    continue
                budget -= 1
                if budget < 0:
                    raise CapExceeded(
                        f"simple-loop enumeration exceeded cap of {cap}",
                        {"cap": cap, "cycles_found": len(cycles)},
                    )
                stack.append((w, path + (w,)))
    return cycles


def omega_k(ball, k, cap=10**6):
    """Cone off every simple loop of length at most k in a graph ball.

    The result's 1-skeleton is ``ball`` itself; there is one 2-cell per
    simple loop of combinatorial length 3..k, counted up to cyclic
    rotation and reversal (cells are unoriented, so a loop and its
    reverse bound the same disc).  Lengths 1 and 2 cannot occur in a
    simplicial skeleton.

    A cell is flagged interior when every loop of length ≤ k through any
    of its vertices is certain to lie inside the ball, i.e. when its
    deepest vertex sits at least ``k // 2`` inside the radius.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    cells = []
    if k >= 3:
        nbr = [frozenset(j for j, _ in a) for a in ball.nbrs]
        for cyc in _simple_cycles_upto(nbr, k, cap):
            max_d = max(ball.verts[i].dist for i in cyc)
            cells.append(Cell2(cyc, f"gon{len(cyc)}",
                               interior=max_d + k // 2 <= ball.radius))
    cells.sort(key=lambda c: (len(c.verts), c.verts))
    return TwoComplexBall(ball, cells, notes=(f"omega k={k}",), span=k)


# -- links -------------------------------------------------------------------


def _roots(items, pairs):
    """Union-find: each item's root once every pair has been joined, the
    root of the first member's class becoming the second's."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


class LinkGraph:
    """Link of a 0-cell: vertices are the 1-cells at the base vertex, edges
    are the corners of 2-cells there.  ``partial`` warns that the base
    vertex sits too close to the ball boundary for the star to be
    provably complete."""

    __slots__ = ("base", "vertices", "edges", "partial")

    def __init__(self, base, vertices, edges, partial=False):
        self.base = base
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)  # (1-cell, 1-cell, 2-cell index)
        self.partial = bool(partial)

    def degree(self, e):
        d = 0
        for a, b, _ in self.edges:
            if a == e:
                d += 1
            if b == e:
                d += 1
        return d

    def degrees(self):
        return {e: self.degree(e) for e in self.vertices}

    def components(self):
        root = _roots(self.vertices, ((a, b) for a, b, _ in self.edges))
        comps = {}
        for e in self.vertices:
            comps.setdefault(root[e], []).append(e)
        return sorted(sorted(c) for c in comps.values())

    def __repr__(self):
        flag = ", partial" if self.partial else ""
        return (f"LinkGraph(base={self.base}, {len(self.vertices)} vertices, "
                f"{len(self.edges)} corners{flag})")


def _star_margin(X):
    """How far (in edges) a 2-cell can reach from one of its vertices: a
    cell of boundary length m stays within m // 2 of each of its
    vertices.  Uses the builder-declared span when present, else the
    materialized maximum (a heuristic — absent cells cannot testify)."""
    if X.span is not None:
        return X.span // 2
    return max((len(c.verts) // 2 for c in X.cells2), default=0)


def link(X, sigma):
    """Link graph of the 0-cell ``sigma``: one link vertex per incident
    1-cell, one link edge per 2-cell corner at sigma.  The degree of a
    link vertex e is the number of corners at (sigma, e).

    The star of sigma is provably complete when sigma sits at least the
    star margin inside the radius; otherwise the result is flagged
    ``partial`` (never raised — a boundary vertex still has a link, just
    not a certified one).
    """
    nv = len(X.skeleton.verts)
    if not 0 <= sigma < nv:
        raise ValueError(f"no 0-cell {sigma} in a complex with {nv}")
    incident = sorted(k for _, k in X.skeleton.nbrs[sigma])
    corners = []
    for c, cell in enumerate(X.cells2):
        steps = list(X.boundary(cell))
        # the corner at the vertex step j starts from: edges j − 1 and j
        for (_, x, e1), (_, _, e2) in zip(steps[-1:] + steps[:-1], steps):
            if x == sigma:
                corners.append((min(e1, e2), max(e1, e2), c))
    v = X.skeleton.verts[sigma]
    partial = v.dist + max(_star_margin(X), 1) > X.radius
    corners.sort()
    return LinkGraph(sigma, incident, corners, partial)


def link_component_correspondence(X, v):
    """Match link components at v against components of the complex minus
    the whole orbit of v (all 0-cells sharing v's tag) whose closure
    contains v.

    The punctured space is modelled on cell adjacency: open 1- and
    2-cells survive puncturing entirely, so its components are computed
    by gluing every 1-cell to its surviving endpoints and every 2-cell
    to its boundary 1-cells.  A component's closure contains v exactly
    when it contains an open 1-cell at v, so the components on the
    puncture side are indexed by where the link vertices land; the
    content of the check is that the map is single-valued on link
    components and injective.  Boundary interference (v too close to the
    ball boundary) is flagged, not raised.
    """
    lk = link(X, v)
    sk = X.skeleton
    tag = sk.verts[v].tag
    orbit = frozenset(i for i in range(len(sk.verts))
                      if sk.verts[i].tag == tag)
    items = ([("v", i) for i in range(len(sk.verts)) if i not in orbit]
             + [("e", k) for k in range(len(sk.edges))]
             + [("c", c) for c in range(len(X.cells2))])
    pairs = [(("e", k), ("v", end)) for k, e in enumerate(sk.edges)
             for end in (e.u, e.v) if end not in orbit]
    pairs += [(("c", c), ("e", k)) for c, cell in enumerate(X.cells2)
              for _, _, k in X.boundary(cell)]
    root = _roots(items, pairs)

    roots = sorted({root["e", k] for k in lk.vertices})
    label = {r: i for i, r in enumerate(roots)}
    link_comps = lk.components()
    mapping = []
    well_defined = True
    for comp in link_comps:
        targets = sorted({label[root["e", k]] for k in comp})
        mapping.append({"link_component": comp,
                        "puncture_components": targets})
        if len(targets) != 1:
            well_defined = False
    hits = [m["puncture_components"][0] for m in mapping
            if len(m["puncture_components"]) == 1]
    injective = len(set(hits)) == len(hits)
    surjective = well_defined and set(hits) == set(label.values())
    return {
        "vertex": v,
        "orbit_size": len(orbit),
        "link_components": len(link_comps),
        "puncture_components": len(roots),
        "map": mapping,
        "well_defined": well_defined,
        "injective": injective,
        "surjective": surjective,
        "bijective": well_defined and injective and surjective,
        "boundary_interference": lk.partial,
    }


# -- fundamental group -------------------------------------------------------


class Presentation:
    """Finite presentation: generator names plus relator words, each word
    a tuple of nonzero signed 1-based generator indices."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        rs = []
        for w in relators:
            w = tuple(int(x) for x in w)
            for x in w:
                if x == 0 or abs(x) > len(self.generators):
                    raise ValueError(f"relator letter {x} out of range")
            rs.append(w)
        self.relators = tuple(rs)

    def __repr__(self):
        return (f"Presentation({len(self.generators)} generators, "
                f"{len(self.relators)} relators)")


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclic_reduce(word):
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = _free_reduce(word[1:-1])
    return word


def pi1_presentation(X):
    """Fundamental group of a finite connected complex by the spanning
    tree method: generators are the 1-cells off a breadth-first tree,
    relators the 2-cell boundary words with tree letters deleted
    (collapsing the tree is a homotopy equivalence, so nothing else is
    needed).  Generator names record the underlying 1-cell index."""
    sk = X.skeleton
    n = len(sk.verts)
    if n == 0:
        raise ValueError("empty complex")
    parent = sk.bfs(0)[1]
    if len(parent) != n:
        raise ValueError(
            f"complex is disconnected: reached {len(parent)} of {n} 0-cells"
        )
    tree = {p[1] for p in parent.values() if p is not None}
    gens = sorted(k for k in range(len(sk.edges)) if k not in tree)
    gnum = {k: i + 1 for i, k in enumerate(gens)}
    relators = []
    for cell in X.cells2:
        word = []
        for a, b, k in X.boundary(cell):
            if k in tree:
                continue
            e = sk.edges[k]
            word.append(gnum[k] if (a, b) == (e.u, e.v) else -gnum[k])
        word = _cyclic_reduce(word)
        if word:
            relators.append(tuple(word))
    return Presentation(tuple(f"e{k}" for k in gens), relators)


def _smith_diagonal(rows):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, by
    exact elimination (Cohen, *A Course in Computational Algebraic Number
    Theory*, §2.4).  The corner is an entry of least absolute value; the
    first column and row are reduced modulo it, and a nonzero remainder
    becomes the next, smaller corner.  A corner that fails to divide some
    entry takes that entry's row into its own, which leaves a remainder.
    So each corner recorded divides everything left after it."""
    A = [list(r) for r in rows if any(r)]
    out = []
    while A:
        _, p, q = min((abs(x), i, j) for i, r in enumerate(A)
                      for j, x in enumerate(r) if x)
        while True:
            A[0], A[p] = A[p], A[0]
            for r in A:
                r[0], r[q] = r[q], r[0]
            d = A[0][0]
            for i in range(1, len(A)):
                if A[i][0]:
                    f = A[i][0] // d
                    A[i] = [y - f * x for x, y in zip(A[0], A[i])]
            for j in range(1, len(A[0])):
                if A[0][j]:
                    f = A[0][j] // d
                    for r in A:
                        r[j] -= f * r[0]
            rest = ([(abs(r[0]), i, 0) for i, r in enumerate(A) if i and r[0]]
                    + [(abs(x), 0, j) for j, x in enumerate(A[0]) if j and x])
            if rest:
                _, p, q = min(rest)
                continue
            bad = next((r for r in A[1:] if any(x % d for x in r)), None)
            if bad is None:
                break
            A[0], p, q = [x + y for x, y in zip(A[0], bad)], 0, 0
        out.append(abs(d))
        A = [r[1:] for r in A[1:] if any(r)]
    return out


def abelianization(pres):
    """(free rank, torsion factors) of the abelianized presentation, by
    exact integer Smith normal form — no modular shortcuts, so a
    nontrivial answer is a certificate."""
    g = len(pres.generators)
    rows = []
    for w in pres.relators:
        row = [0] * g
        for x in w:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    nonzero = _smith_diagonal(rows)
    return (g - len(nonzero), tuple(d for d in nonzero if d != 1))


def _h1_string(free_rank, torsion):
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def bounded_trivial(pres, effort=10**4):
    """Decide triviality of a presented group within an effort budget.

    NO is certified: the abelianization (exact Smith form) is nontrivial
    and the witness names H₁.  YES means a run of Tietze eliminations —
    repeatedly removing a generator that occurs exactly once in some
    relator — emptied the presentation within ``effort`` substitution
    events.  Anything else is UNKNOWN (triviality is undecidable in
    general; this routine never pretends otherwise).
    """
    free_rank, torsion = abelianization(pres)
    h1 = _h1_string(free_rank, torsion)
    report = {"h1": h1, "effort": effort, "rewrites": 0}
    if h1 != "0":
        report["verdict"] = "NO"
        report["witness"] = f"H1 = {h1}"
        return report
    alive = set(range(1, len(pres.generators) + 1))
    rels = [w for w in (_cyclic_reduce(list(r)) for r in pres.relators) if w]
    rewrites = 0
    while alive and rewrites <= effort:
        pick = None
        for ri, w in enumerate(rels):
            counts = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g in sorted(counts):
                if counts[g] == 1:
                    pick = (ri, g)
                    break
            if pick:
                break
        if pick is None:
            break
        ri, g = pick
        w = rels.pop(ri)
        j = next(i for i, x in enumerate(w) if abs(x) == g)
        w = w[j:] + w[:j]
        rest = w[1:]
        if w[0] > 0:
            sub = [-x for x in reversed(rest)]
        else:
            sub = list(rest)
        rewrites += 1
        out = []
        for v in rels:
            if any(abs(x) == g for x in v):
                rewrites += 1
                nv = []
                for x in v:
                    if x == g:
                        nv.extend(sub)
                    elif x == -g:
                        nv.extend(-y for y in reversed(sub))
                    else:
                        nv.append(x)
                v = _cyclic_reduce(nv)
            if v:
                out.append(list(v))
        rels = out
        alive.discard(g)
    report["rewrites"] = rewrites
    if not alive:
        report["verdict"] = "YES"
        return report
    report["verdict"] = "UNKNOWN"
    report["remaining_generators"] = len(alive)
    report["remaining_relators"] = len(rels)
    return report


# -- Dehn function sampling --------------------------------------------------


def _loop_words_upto(gog, max_syllables, start, cap):
    """All canonical loop words at ``start`` with at most ``max_syllables``
    syllables, by raw-walk enumeration and reduction.  Exponential in the
    length — desk scale only, guarded by ``cap`` raw walks."""
    g = gog.graph
    G0 = gog.vgroup(start)
    depth = max_syllables + 2  # canonical forms carry at most one silent pair
    out = []
    seen = set()
    budget = [cap]

    def visit(vertex, pairs):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded(
                f"loop-word enumeration exceeded cap of {cap}",
                {"cap": cap, "words_found": len(out)},
            )
        if vertex == start:
            for h in range(G0.order):
                w = reduce_word(GroupWord._trusted(gog, start, h, pairs))
                if w in seen:
                    continue
                seen.add(w)
                if syllable_length(w) <= max_syllables:
                    out.append(w)
        if len(pairs) >= depth:
            return
        for e in g.edges_at(vertex):
            Gt = gog.vgroup(g.t(e))
            for x in range(Gt.order):
                visit(g.t(e), pairs + ((e, x),))

    visit(start, ())
    return out


def _random_loop(gog, rng, out_steps, start):
    """Random loop word: walk out ``out_steps`` edges, then retrace them,
    with uniformly random vertex-group elements throughout."""
    g = gog.graph
    pairs = []
    walked = []
    v = start
    for _ in range(out_steps):
        es = g.edges_at(v)
        e = es[rng.randrange(len(es))]
        pairs.append((e, rng.randrange(gog.vgroup(g.t(e)).order)))
        walked.append(e)
        v = g.t(e)
    for e in reversed(walked):
        eb = g.bar(e)
        pairs.append((eb, rng.randrange(gog.vgroup(g.t(eb)).order)))
    head = rng.randrange(gog.vgroup(start).order)
    return reduce_word(GroupWord._trusted(gog, start, head, pairs))


def _linear_fit(points):
    if len({n for n, _ in points}) < 2:
        return None
    xs = [float(n) for n, _ in points]
    ys = [float(a) for _, a in points]
    m = len(xs)
    mx = sum(xs) / m
    my = sum(ys) / m
    var = sum((x - mx) ** 2 for x in xs)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = cov / var
    return {"slope": round(slope, 6),
            "intercept": round(my - slope * mx, 6),
            "points": m}


def dehn_function_sample(gog, relators, lengths, wp, area_oracle,
                         mode="exhaustive", seed=0xCA1, samples=64,
                         cap=200000):
    """Observed isoperimetric table: length → max filling area.

    ``wp`` decides kernel membership of a loop word; ``area_oracle`` maps
    a kernel word to a filling area (or None when it cannot fill it —
    counted, not fatal).  Exhaustive mode enumerates every canonical loop
    word up to the largest requested length and keeps the kernel ones;
    sample mode draws seeded products of 1..3 conjugates of ``relators``
    by random loops that walk out 0 to 3 edges.
    Table entries are cumulative — the row at L covers kernel words of
    syllable length at most L, matching the sup in the Dehn function —
    and the least-squares growth fit is reported as data, never asserted.
    """
    if not lengths:
        raise ValueError("need at least one length")
    lengths = sorted({int(x) for x in lengths})
    top = lengths[-1]
    base = relators[0].start if relators else 0
    for r in relators:
        if not r.is_loop() or r.start != base:
            raise ValueError("relators must be loops at a common vertex")
    observed = []
    failures = 0
    if mode == "exhaustive":
        for w in _loop_words_upto(gog, top, base, cap):
            n = syllable_length(w)
            if n == 0 or not wp(w):
                continue
            a = area_oracle(w)
            if a is None:
                failures += 1
            else:
                observed.append((n, a))
    elif mode == "sample":
        if not relators:
            raise ValueError("sample mode needs at least one relator")
        rng = random.Random(seed)
        for _ in range(samples):
            acc = identity_word(gog, base)
            for _ in range(1 + rng.randrange(3)):
                c = _random_loop(gog, rng, rng.randrange(4), base)
                s = relators[rng.randrange(len(relators))]
                if rng.randrange(2):
                    s = s.inverse()
                acc = reduce_word(acc * c * s * c.inverse())
            n = syllable_length(acc)
            if n == 0 or n > top:
                continue
            a = area_oracle(acc)
            if a is None:
                failures += 1
            else:
                observed.append((n, a))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    observed.sort()
    table = {}
    for L in lengths:
        areas = [a for n, a in observed if n <= L]
        table[L] = {"count": len(areas),
                    "max_area": max(areas) if areas else None}
    report = {"mode": mode, "table": table, "observations": len(observed),
              "oracle_failures": failures, "fit": _linear_fit(observed)}
    if mode == "sample":
        report["seed"] = seed
        report["samples"] = samples
    return report


# -- hyperbolicity -----------------------------------------------------------


def hyperbolicity_estimate(ball, seed=0xCA1, exhaustive_limit=40,
                           samples=20000):
    """Four-point hyperbolicity defect of a connected graph ball.

    For a vertex quadruple, sort the three pairings d(a,b)+d(c,d) into
    s₁ ≥ s₂ ≥ s₃; the quadruple's defect is (s₁−s₂)/2 and the estimate
    is the max over quadruples, the first best one the witness —
    exhaustive up to ``exhaustive_limit`` vertices and always below 4,
    seeded sampling above.  The answer is labeled ESTIMATE: a ball can
    only ever bound δ from below.  ``quadruples`` counts the quadruples
    the answer covers.

    A lemma bounds the quadruples never evaluated (Cohen, Coudert and
    Lancin, *On computing the Gromov hyperbolicity*, ACM JEA 2015): if
    ab + cd is the largest pairing, then s₁ − s₂ ≤ min(d(a,b), d(c,d)).
    The other two pairings sum to (ac + ad) + (bc + bd) ≥ 2·d(c,d) by the
    triangle inequality, so s₂ ≥ d(c,d); likewise s₂ ≥ d(a,b).  Two
    corollaries, each used to skip quadruples that cannot beat the best
    so far, so neither moves the answer or its witness:

    * ab, ac and bc lie in different pairings, so s₁ − s₂ ≤
      max(d(a,b), d(a,c), d(b,c)): the exhaustive search skips every d
      after a < b < c when that maximum is at most the best so far (so
      also whenever 2·mid(ab, ac, bc) ≤ best, since no side of a triangle
      exceeds twice the middle one);
    * s₁ − s₂ is at most the diameter: both the exhaustive and the
      sampled search stop once the best reaches it.

    A tree (n − 1 edges) has every defect 0 and is not searched.
    """
    n = len(ball.verts)
    if n == 0:
        raise ValueError("empty ball")
    exhaustive = n <= exhaustive_limit or n < 4
    report = {"delta": Fraction(0), "label": "ESTIMATE",
              "method": "exhaustive" if exhaustive else "sampled",
              "witness": None, "vertices": n,
              "quadruples": math.comb(n, 4) if exhaustive else samples}
    if not exhaustive:
        report["seed"] = seed
    tree = len(ball.edges) == n - 1
    D = []
    for src in range(1 if tree else n):
        dist = ball.bfs(src)[0]
        if len(dist) != n:
            raise ValueError(f"ball is disconnected: vertex {src} reaches "
                             f"{len(dist)} of {n}")
        D.append([dist[j] for j in range(n)])
    if tree:
        return report
    diameter = max(map(max, D))
    if exhaustive:
        best, witness = _exhaustive_defect(D, n, diameter)
    else:
        best, witness = 0, None
        rng = random.Random(seed)
        for _ in range(samples):
            quad = tuple(rng.sample(range(n), 4))
            a, b, c, d = quad
            s = sorted((D[a][b] + D[c][d], D[a][c] + D[b][d],
                        D[a][d] + D[b][c]))
            if s[2] - s[1] > best:
                best, witness = s[2] - s[1], quad
                if best >= diameter:
                    break
    report["delta"], report["witness"] = Fraction(best, 2), witness
    return report


def _exhaustive_defect(D, n, diameter):
    """Largest s₁ − s₂ over the quadruples a < b < c < d in lexicographic
    order and its first quadruple, with the skips of
    :func:`hyperbolicity_estimate`."""
    best, witness = 0, None
    for a in range(n):
        Da = D[a]
        for b in range(a + 1, n):
            Db, ab = D[b], Da[b]
            for c in range(b + 1, n):
                Dc, ac, bc = D[c], Da[c], Db[c]
                if ab <= best and ac <= best and bc <= best:
                    continue
                for d in range(c + 1, n):
                    s1, s2, s3 = ab + Dc[d], ac + Db[d], Da[d] + bc
                    if s1 < s2:
                        s1, s2 = s2, s1
                    m = s3 - s1 if s3 > s1 else s1 - (s3 if s3 > s2 else s2)
                    if m > best:
                        if m >= diameter:
                            return m, (a, b, c, d)
                        best, witness = m, (a, b, c, d)
    return best, witness


# -- exports -----------------------------------------------------------------


def to_complex_json(X):
    """JSON-ready dict of the whole complex (field order is the
    serializer's business)."""
    sk = X.skeleton
    return {
        "radius": sk.radius,
        "vertices": [{"id": i, "tag": v.tag, "dist": v.dist}
                     for i, v in enumerate(sk.verts)],
        "edges": [{"id": k, "tag": e.tag, "u": e.u, "v": e.v}
                  for k, e in enumerate(sk.edges)],
        "cells2": [{"verts": list(c.verts), "tag": c.tag,
                    "interior": c.interior} for c in X.cells2],
        "euler": X.euler(),
        "span": X.span,
        "incidence": X.incidence,
        "notes": list(X.notes),
    }


def to_off(X):
    """OFF-format text for external viewers: vertices laid out on rings
    by BFS distance (deterministic), faces are the 2-cells."""
    sk = X.skeleton
    rings = {}
    for i, v in enumerate(sk.verts):
        rings.setdefault(v.dist, []).append(i)
    pos = {}
    for d in sorted(rings):
        ring = rings[d]
        for j, i in enumerate(ring):
            if d == 0:
                pos[i] = (0.0, 0.0)
            else:
                ang = 2 * math.pi * j / len(ring)
                pos[i] = (d * math.cos(ang), d * math.sin(ang))
    lines = ["OFF", f"{len(sk.verts)} {len(X.cells2)} {len(sk.edges)}"]
    for i in range(len(sk.verts)):
        x, y = pos[i]
        lines.append(f"{x:.6f} {y:.6f} 0.000000")
    for cell in X.cells2:
        lines.append(" ".join([str(len(cell.verts))]
                              + [str(v) for v in cell.verts]))
    return "\n".join(lines) + "\n"
