"""Finite graphs of finite groups, words, and normal forms.

Serre conventions: every geometric edge is a pair of opposite directed edges
e, ē with bar(bar(e)) = e, bar(e) != e, o(e) = t(ē).  Directed edge 2i and
2i+1 form geometric pair i.  Loops (o = t) are allowed — an HNN extension is
the one-vertex, one-loop case.

A word is an alternating sequence g0, e1, g1, ..., en, gn based at a vertex:
g0 lives in the group of the start vertex and each gi thereafter in the group
of t(ei); the edges form a path in the underlying graph.  Elements of the
fundamental group are the loop words; open words (used as coset
representatives for tree vertices) carry distinct start/end vertices.

Reduction makes one left-to-right pass over a stack, as in free reduction:
an incoming syllable is tested against the top of the stack for the
Britton pinch  f · η_f(c) · f̄  →  η_f̄(c), so no pinch survives the pass.
Only a held top, a pair (f, h) with h in the image of η_f, can pinch, and
an input pair that goes on without a pinch can be pinched only by the next
input pair, which must reverse its edge.  So the pass finds the held input
pairs by a scan made in C, puts everything up to the next held pair whose
edge the following pair reverses on the stack as one slice, and takes
syllables one at a time only from there until one goes on without a pinch.
Held pairs are rare in the words the toolkit reduces (see README.md); a
word in which nearly every pair is held, such as t^2000 over an HNN
extension, costs more per pair than a plain stack pass.  If some syllable
lies off a fixed right-coset transversal of its incoming edge image (never
over trivial edge groups), the pass then decomposes the syllables, right
to left, against that transversal, pushing edge-group corrections to the
left.  The result is the canonical normal form, itself a ``GroupWord``: head
element followed by alternating (edge, transversal representative) pairs.
Transversal representatives are least-element-index, with the identity
representing the coset of the image subgroup itself, so normal forms are
reproducible across runs.  The syllable length of a normal form counts its
nontrivial vertex-group syllables (the head plus representatives); stable
letters of an HNN word therefore contribute edges but not syllables, which
matches the translation-length reading for cyclically reduced words over
amalgams and free products.

The word layer indexes flat tuples instead of calling methods: the graph's
:class:`Transversals` (``GraphOfGroups.transversals``, built on first use and
kept) holds, per directed edge, its terminus, the vertex-group table, identity
and inverses there, η_e, the transversal decomposition, the pairs off the
transversal and the Britton pinch with its held pairs.  The ``GroupWord``
product, inverse and end, ``_splice`` (reduction, and the seams of a Dehn
step), ``_cyclic_core`` (cyclic reduction and rotation, one notch pass) and
``syllable_length`` read them, as do ``smallcanc`` (pieces, self-overlap, h1 image, Dehn scan) and
``tree`` (the fold-back test), once per call.  The transversal rule itself
(decompose a syllable, push the edge-group correction left) is written once,
in ``_sweep``, which ``_splice``, the one closing sweep of ``_cyclic_core``,
the tree's coset words and its child steps all call; the notches of
``_cyclic_core`` sweep nothing, and over nontrivial edge groups they compose
the per-pair correction maps ``Transversals.carry`` instead.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count, islice

from .finite import FiniteGroup, GroupHom, Subgroup, check_hom


class SerreGraph:
    """Directed-edge graph with involution.

    ``pairs`` is a list of (origin, terminus) per geometric edge; geometric
    edge i yields directed edges 2i (o→t) and 2i+1 (t→o).  Each vertex's
    out-edges are listed once, here.
    """

    def __init__(self, num_vertices: int, pairs):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = num_vertices
        self.pairs = tuple((int(o), int(t)) for o, t in pairs)
        for o, t in self.pairs:
            if not (0 <= o < num_vertices and 0 <= t < num_vertices):
                raise ValueError(f"edge endpoint out of range: ({o}, {t})")
        self.num_edges = 2 * len(self.pairs)
        self._out = tuple(
            tuple(e for e in range(self.num_edges) if self.o(e) == v)
            for v in range(num_vertices))

    def bar(self, e: int) -> int:
        return e ^ 1

    def o(self, e: int) -> int:
        o, t = self.pairs[e >> 1]
        return o if (e & 1) == 0 else t

    def t(self, e: int) -> int:
        o, t = self.pairs[e >> 1]
        return t if (e & 1) == 0 else o

    def edges_at(self, v: int):
        """Directed edges with origin v, ascending: the tuple the
        constructor built, so a query costs no scan of the edges."""
        return self._out[v]

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in self._out[v]:
                if self.t(e) not in seen:
                    seen.add(self.t(e))
                    stack.append(self.t(e))
        return len(seen) == self.num_vertices


class GraphOfGroups:
    """A SerreGraph with finite vertex/edge groups and edge monomorphisms.

    ``egroups[i]`` is the group of geometric edge i (shared by both directed
    edges, which is how the invariant egroup(e) = egroup(ē) is enforced);
    ``inj[e]`` is the monomorphism egroup(e) → vgroup(t(e)) for each directed
    edge e.
    """

    def __init__(self, graph: SerreGraph, vgroups, egroups, inj):
        self.graph = graph
        self.vgroups = tuple(vgroups)
        self.egroups = tuple(egroups)
        self.inj = tuple(inj)
        if len(self.vgroups) != graph.num_vertices:
            raise ValueError("one vertex group per vertex required")
        if len(self.egroups) != len(graph.pairs):
            raise ValueError("one edge group per geometric edge required")
        if len(self.inj) != graph.num_edges:
            raise ValueError("one monomorphism per directed edge required")
        self._transversals = None

    def vgroup(self, v: int) -> FiniteGroup:
        return self.vgroups[v]

    def egroup(self, e: int) -> FiniteGroup:
        return self.egroups[e >> 1]

    @property
    def transversals(self) -> "Transversals":
        """The flat per-edge tables, built on first use and kept (not by
        the constructor: :func:`validate` reports on graphs whose
        injections are broken, where the tables would mean nothing)."""
        if self._transversals is None:
            self._transversals = Transversals(self)
        return self._transversals


def validate(gog: GraphOfGroups):
    """Report-style invariant check; returns a list of violation strings
    (empty means OK)."""
    problems = []
    g = gog.graph
    for e in range(g.num_edges):
        h = gog.inj[e]
        if h.source is not gog.egroup(e):
            problems.append(f"inj({e}) source is not egroup({e})")
            continue
        if h.target is not gog.vgroup(g.t(e)):
            problems.append(f"inj({e}) target is not vgroup(t({e}))")
            continue
        ok, pair = check_hom(h)
        if not ok:
            problems.append(f"inj({e}) is not a homomorphism (violates at {pair})")
        elif not h.is_injective():
            problems.append(f"inj({e}) is not injective")
    if not g.is_connected():
        problems.append("underlying graph is not connected")
    return problems


class GroupWord:
    """Alternating word g0, e1, g1, ..., en, gn along a path.

    ``head`` is g0 in vgroup(start); ``pairs`` is a tuple of (edge, element)
    with each element in vgroup(t(edge)).

    The public constructor checks that the word is a path with every
    element in range; :meth:`_trusted`, which every word built from valid
    parts goes through, only stores the fields.
    """

    __slots__ = ("gog", "start", "head", "pairs")

    def __init__(self, gog: GraphOfGroups, start: int, head: int, pairs=()):
        self.gog = gog
        self.start = start
        self.head = head
        self.pairs = tuple((int(e), int(x)) for e, x in pairs)
        g = gog.graph
        if not 0 <= start < g.num_vertices:
            raise ValueError(f"bad start vertex {start}")
        if not 0 <= head < gog.vgroup(start).order:
            raise ValueError(f"head {head} out of range at vertex {start}")
        at = start
        for e, x in self.pairs:
            if not 0 <= e < g.num_edges:
                raise ValueError(f"bad edge {e}")
            if g.o(e) != at:
                raise ValueError(f"edge {e} does not continue the path at {at}")
            at = g.t(e)
            if not 0 <= x < gog.vgroup(at).order:
                raise ValueError(f"element {x} out of range at vertex {at}")

    @classmethod
    def _trusted(cls, gog: GraphOfGroups, start: int, head: int, pairs=()):
        """Store valid parts unchecked; ``pairs`` must yield 2-tuples, and
        only the outer sequence is copied into a tuple."""
        w = object.__new__(cls)
        w.gog = gog
        w.start = start
        w.head = head
        w.pairs = tuple(pairs)
        return w

    @property
    def end(self) -> int:
        if not self.pairs:
            return self.start
        return self.gog.transversals.t[self.pairs[-1][0]]

    def is_loop(self) -> bool:
        return self.end == self.start

    def is_identity(self) -> bool:
        """No edges and a trivial head; for a reduced word this is the test
        for the identity element."""
        return not self.pairs and self.head == self.gog.vgroup(self.start).identity

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        gog, pairs, end = self.gog, self.pairs, self.end
        if other.start != end:
            raise ValueError(
                f"cannot concatenate: path ends at {end}, next starts at {other.start}"
            )
        if not pairs:
            head = gog.vgroups[end].table[self.head][other.head]
            return GroupWord._trusted(gog, end, head, other.pairs)
        e_last, x_last = pairs[-1]
        x_last = gog.transversals.tmul[e_last][x_last][other.head]
        merged = pairs[:-1] + ((e_last, x_last),) + other.pairs
        return GroupWord._trusted(gog, self.start, self.head, merged)

    def inverse(self) -> "GroupWord":
        gog, pairs = self.gog, self.pairs
        tinv = gog.transversals.tinv
        invs = [gog.vgroups[self.start].inv[self.head]]
        invs += [tinv[e][x] for e, x in pairs]
        # (g0, (e1,g1),...,(en,gn))^-1 = (gn^-1, (ēn, g_{n-1}^-1), ..., (ē1, g0^-1))
        rev = [(pairs[i][0] ^ 1, invs[i]) for i in range(len(pairs) - 1, -1, -1)]
        return GroupWord._trusted(gog, self.end, invs[-1], rev)

    def key(self):
        """Deterministic sort key: edge count, start vertex, head, then the
        (edge, element) pairs lexicographically.  Every pair is a 2-tuple,
        so this orders words as the flat tuple of all those numbers would,
        and a comparison stops at the first pair where two words differ."""
        return (len(self.pairs), self.start, self.head, self.pairs)

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and self.start == other.start
            and self.head == other.head
            and self.pairs == other.pairs
        )

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        return hash((self.start, self.head, self.pairs))

    def __repr__(self):
        bits = [f"v{self.start}:{self.head}"]
        for e, x in self.pairs:
            bits.append(f"e{e}")
            bits.append(str(x))
        return "Word(" + " ".join(bits) + ")"


def identity_word(gog: GraphOfGroups, v: int) -> GroupWord:
    return GroupWord._trusted(gog, v, gog.vgroup(v).identity)


class Transversals:
    """Flat per-directed-edge tables: every field is a tuple indexed by the
    directed edge e.

    ``t``: the terminal vertex (ē is e ^ 1).  ``tmul``, ``tid``, ``tinv``:
    the multiplication table, identity and inverses of vgroup(t(e)), so
    vgroup(o(e))'s table is ``tmul[e ^ 1]``; ``inj``: inj(e).map.

    With H = inj(e)(egroup) ≤ vgroup(t(e)), each element g decomposes
    uniquely as g = inj(e)(c) · x with x the chosen representative of the
    right coset H·g; ``decomp[e][g]`` is (c, x) and ``reps[e]`` lists the
    representatives.  Representatives are least element index, except the
    coset H itself which the identity represents.  ``pinch[e][h]`` is the
    c with h = inj(e)(c) for h in H and ``None`` elsewhere, and ``held``
    is the set of pairs (e, h) with h in H: the only stack tops that an
    incoming ē can pinch, which the reduction pass looks up in C.
    ``moved`` is the set of pairs (e, g) with g not its own
    representative, empty when every edge group is trivial.
    ``carry[e][x][C]`` is the correction η_ē(c) that pair (e, x) passes
    left when it receives C, for x·C = η_e(c)·rep, built on first use
    (|vgroup(t(e))|² entries per edge; only cyclic reduction over
    nontrivial edge groups reads it).
    """

    def __init__(self, gog: GraphOfGroups):
        g = gog.graph
        self.t = tuple(g.t(e) for e in range(g.num_edges))
        vg = [gog.vgroups[v] for v in self.t]
        self.tmul = tuple(G.table for G in vg)
        self.tid = tuple(G.identity for G in vg)
        self.tinv = tuple(G.inv for G in vg)
        self.inj = tuple(h.map for h in gog.inj)
        reps, decomp, pinch = [], [], []
        for G, eta in zip(vg, self.inj):
            pre = [None] * G.order
            for c, h in enumerate(eta):
                pre[h] = c
            rep_of = {}
            for x in range(G.order):
                if x not in rep_of:
                    coset = [G.table[y][x] for y in eta]
                    rep = G.identity if G.identity in coset else min(coset)
                    rep_of.update(dict.fromkeys(coset, rep))
            reps.append(sorted(set(rep_of.values())))
            # g * x^-1 ∈ H for x the representative of g
            decomp.append(tuple((pre[G.table[gg][G.inv[x]]], x)
                                for gg, x in sorted(rep_of.items())))
            pinch.append(tuple(pre))
        self.reps, self.decomp, self.pinch = tuple(reps), tuple(decomp), tuple(pinch)
        self.moved = frozenset((e, g) for e, d in enumerate(decomp)
                               for g, (_c, x) in enumerate(d) if x != g)
        self.held = frozenset((e, h) for e, pre in enumerate(pinch)
                              for h, c in enumerate(pre) if c is not None)

    @cached_property
    def carry(self):
        return tuple(
            tuple(tuple(self.inj[e ^ 1][d[y][0]] for y in row) for row in mul)
            for e, (d, mul) in enumerate(zip(self.decomp, self.tmul)))


def fix_transversals(gog: GraphOfGroups) -> Transversals:
    """The graph's own table, ``gog.transversals``."""
    return gog.transversals


def _own_table(gog: GraphOfGroups, transversals) -> None:
    """Reject a ``transversals`` argument other than the graph's own table,
    which every word over ``gog`` is reduced against."""
    if transversals is not None and transversals is not gog.transversals:
        raise ValueError("transversals must be None or gog.transversals")


def reduce_word(w: GroupWord) -> GroupWord:
    """Reduce to the canonical normal form: :func:`_splice` with nothing
    of w kept, one stack pass and one full sweep."""
    return _splice(w, 0, w.head, w.pairs, len(w.pairs))[0]


def _conjugates(w: GroupWord, xs) -> list:
    """reduce(w·x·w⁻¹) for each element x of the vertex group at w's end,
    as canonical loop words at w's start: every stabilizer word, those of
    ``tree.stabilizer`` and of the edges along ``smallcanc.compute_M``'s
    axis, is built here."""
    gog, v, inv = w.gog, w.end, w.inverse()
    return [reduce_word(w * GroupWord._trusted(gog, v, x) * inv) for x in xs]


def words_equal(u: GroupWord, w: GroupWord) -> bool:
    if u.start != w.start:
        raise ValueError(f"basepoint mismatch: {u.start} vs {w.start}")
    return reduce_word(u) == reduce_word(w)


def syllable_length(w: GroupWord, lo=0, hi=None) -> int:
    """Number of nontrivial vertex-group syllables of w (the head plus the
    element after each edge) at positions lo..hi-1, the head being
    position 0 (all of them by default); use it on canonical forms.  The
    head counts only where the window holds it: lo == 0 and hi != 0."""
    tid = w.gog.transversals.tid
    n = len([e for e, x in w.pairs[max(lo - 1, 0):hi and hi - 1]
             if x != tid[e]])
    return n + (lo == 0 != hi and w.head != w.gog.vgroups[w.start].identity)


def _sweep(T: "Transversals", items, j, corr, floor, stop):
    """The one leftward transversal sweep: multiply ``corr`` into items[j]
    and restore the transversal form in place down to items[floor],
    pushing each edge-group correction to the left, and stop at the first
    trivial correction at an item below ``stop`` (the pairs to its left
    are canonical already).  Returns (j, corr): the item it stopped at,
    or floor − 1 with ``corr`` still owed to the head.

    :func:`_splice` sweeps from its top with no correction and ``stop``
    its lowest changed position, :func:`_cyclic_core` sweeps its window
    once, after the notches, from the tail down to its front index with
    ``stop`` the lowest pair the notches wrote, and
    ``tree.canonical_coset_word`` and ``tree._child_steps`` sweep an
    element of the last vertex group into a canonical word."""
    tmul, inj, decomp = T.tmul, T.inj, T.decomp
    while j >= floor:
        e, x = items[j]
        x = tmul[e][x][corr]
        c, rep = decomp[e][x]
        items[j] = (e, rep)
        if rep == x and j < stop:
            break
        corr = inj[e ^ 1][c]
        j -= 1
    return j, corr


def _splice(w: GroupWord, i, x, mid, k):
    """Canonical form of w with x at position i (the head is position 0),
    then the pairs ``mid``, then w.pairs[k:], where w is canonical below
    position i and from pair k on; returns (word, lo, j), the word agreeing
    with w below position lo and ending in w.pairs[j:].

    The stack pass starts from w below position i and never holds a pinch.
    An incoming pair pinches the top only where it reverses the top's edge
    and the top is held (in ``Transversals.held``).  So a pair of ``mid``
    that goes on without a pinch can be pinched only by the next pair of
    ``mid``, and only where it is held and the next pair reverses its edge.
    A scan made in C finds the held pairs of ``mid``; the pairs up to the
    next one whose edge the following pair reverses go on as one slice,
    and from there the pass takes one pair at a time, pinches cascading,
    until a pair goes on without one.  The entry top (position i) meets
    mid[0] first, and once a suffix pair goes on without a pinch the rest
    of the suffix is attached as it is.  The transversal sweep
    (:func:`_sweep`, from the top with no correction) runs only when a
    pair from item lo − 1 (position lo) up is in ``Transversals.moved``, a
    test made in C, so never over trivial edge groups; it stops at the
    first trivial correction below every changed position.  A splice costs
    the scan, one step per held pair of ``mid`` and per pinch, and its
    seams past the slices; :func:`reduce_word` is the splice with i = 0
    and k = n."""
    T = w.gog.transversals
    tmul, inj, pinch = T.tmul, T.inj, T.pinch
    pairs, lo, top = w.pairs, i, -1  # top: the edge that pinches the top
    head, items = x, []
    if i:
        head, items = w.head, [*pairs[:i - 1], (pairs[i - 1][0], x)]
        top = pairs[i - 1][0] ^ 1
    n, m = len(mid), len(mid) + len(pairs) - k
    held = compress(count(), map(T.held.__contains__, mid))
    # t counts the pairs taken, mid and then w.pairs[k:]; p is the next
    # held pair of mid whose edge the pair after it reverses, or n − 1
    p, t = -1, 0
    while t < m:
        pair = mid[t] if t < n else pairs[k + t - n]
        t += 1
        e = pair[0]
        if e == top:
            c = pinch[e ^ 1][items[-1][1]]
            if c is not None:
                # the top is ē·η_ē(c): pop it, carry η_e(c)·y leftward
                items.pop()
                mul = tmul[e]
                y = mul[inj[e][c]][pair[1]]
                if items:
                    f, h = items[-1]
                    items[-1], top = (f, mul[h][y]), f ^ 1
                else:
                    head, top = mul[head][y], -1
                if len(items) < lo:
                    lo = len(items)
                continue
        items.append(pair)
        top = e ^ 1
        if t > n:
            break
        # move p past the pairs taken; mid[t:p + 1] then goes on without
        # a pinch, as one slice
        if p < t - 1:
            for p in held:
                if p >= t - 1 and (p + 1 == n
                                   or mid[p + 1][0] == mid[p][0] ^ 1):
                    break
            else:
                p = n - 1
        if p >= t:
            items += mid[t:p + 1]
            top, t = mid[p][0] ^ 1, p + 1
    j = k + t - n
    # items[lo - 1] is the lowest pair the pass may have left off its
    # transversal (the head needs none); `lo` counts positions, not items
    moved = T.moved
    if moved and not moved.isdisjoint(islice(items, max(lo - 1, 0), None)):
        p, corr = _sweep(T, items, len(items) - 1, T.tid[items[-1][0]],
                         0, lo)
        if p < 0:
            head = w.gog.vgroups[w.start].table[head][corr]
        lo = min(lo, p + 1)
    items += pairs[j:]
    return GroupWord._trusted(w.gog, w.start, head, items), lo, j


def rotate_once(w: GroupWord) -> GroupWord:
    """Rotate a canonical loop by one edge step: conjugate by head·(first
    edge), landing at the next vertex of the loop, with the seam merged
    and the result canonical.  The rotated word ends with (first edge, 1)
    unless the returning first edge pinches against the last pair, as in
    a·b·a⁻¹ over C4∗C6, whose rotation is b.  This is one notch of
    :func:`_cyclic_core`."""
    if not w.pairs:
        return w
    return _cyclic_core(w, once=True)[0]


def cyclically_reduce(w: GroupWord):
    """Return (core, conjugator) with w = conjugator · core · conjugator⁻¹.

    The core is cyclically reduced: no Britton pinch applies to the cyclic
    word, and the trailing syllable of its representation is the identity
    (so the seam between the last and first syllables is fully merged).
    The conjugator is an open word from w's basepoint to the core's.
    """
    red = reduce_word(w)
    core, notches = _cyclic_core(red)
    return core, _conjugator(red, notches)


class _Corrections:
    """The correction that the pairs items[f + 1:] of a notch window pass
    to items[f], the window's tail receiving none: the composition of the
    pairs' ``Transversals.carry`` maps (see :func:`_cyclic_core`).

    The composed maps sit in a deque of two stacks split at ``b``:
    ``front[i]`` composes pairs b − 1 − i .. b − 1, and ``back[i]`` pairs
    b .. b + i, short of the tail.  The notches take pairs off the front
    and change the window only from item ``low`` (set by the caller) on,
    so ``back`` is cut back to ``low`` and regrown.  Both stacks are
    rebuilt around the middle of the window when the front runs out or a
    change reaches it, so a query costs O(|G|) amortized over the notches."""

    __slots__ = ("carry", "tid", "items", "b", "front", "back", "low")

    def __init__(self, T: "Transversals", items):
        self.carry, self.tid, self.items = T.carry, T.tid, items
        self.b, self.front, self.back, self.low = 0, [], [], 0

    def into(self, f):
        items, carry, tid, b, back = (self.items, self.carry, self.tid,
                                      self.b, self.back)
        m = len(items) - 1
        if f == m:
            return tid[items[f][0]]
        if f >= b or self.low < b:
            b = self.b = (f + m + 2) // 2
            front = self.front = []
            for e, x in reversed(items[f + 1:b]):
                F = carry[e][x]
                front.append(tuple(map(F.__getitem__, front[-1])) if front
                             else F)
            back.clear()
        else:
            del back[self.low - b:]
        for e, x in items[b + len(back):m]:
            F = carry[e][x]
            back.append(tuple(map(back[-1].__getitem__, F)) if back else F)
        e, x = items[m]
        g = carry[e][x][tid[e]]
        if back:
            g = back[-1][g]
        return self.front[b - 2 - f][g] if f + 1 < b else g


def _cyclic_core(red: GroupWord, once=False):
    """The core of :func:`cyclically_reduce` for a word already in
    canonical form, and the record (k, items, κ⁻¹) of the k notches
    taken, which :func:`_conjugator` turns into the conjugator for the
    callers that read it.  With ``once`` it takes exactly one notch, which
    is :func:`rotate_once`.

    One pass over the notches.  ``items`` is a holder pair, then the
    loop's pairs: the loop is items[f:], and its head is held by the
    element y of items[f − 1] (at first a stand-in (ē1, head)).  A notch
    rotates the loop by one edge step: the front pair leaves through the
    front index and becomes the holder, and the old head merges into the
    last pair, the one place where the returning first edge can pinch.
    Notches stop once no pinch applies at the seam and the trailing
    element is the identity.  A notch that does not pinch leaves a
    trailing identity, so there are at most n + 1 notches for n edges.

    A notch writes only the tail and leaves it off its transversal;
    nothing is swept.  The tail receives no correction, so its coset
    decides the stop.  The pinch test reads the head, though, which a
    correction from the tail can reach, and a correction C in the edge
    image H moves x to another coset H·x·C unless H is normal, so the
    elements that later become heads change too.  Corrections compose as
    totals: a pair (e, x) that received C₁ and passed η_ē(c₁), with
    x·C₁ = η_e(c₁)·rep₁, and then received C₂ passes η_ē(c₁)⁻¹·η_ē(c₂)
    with x·C₁·C₂ = η_e(c₂)·rep₂, so in all it passes η_ē(c₂), a fixed map
    ``Transversals.carry[e][x]`` of the total C₁·C₂ it received.
    :class:`_Corrections` composes these maps over the window, which gives
    the correction C that reaches the front pair (e1, x1).  With
    x1·C = η_e1(c)·rep the head is κ·y·η_ē1(c), κ being the holder's left
    factor, and the next holder's factor is η_e1(c)⁻¹, as
    η_ē1(c)·e1 = e1·η_e1(c).  Over trivial edge groups
    (``Transversals.moved`` empty) every correction and every κ is the
    identity, and a notch reads no map.  The core is the window after one
    sweep from its tail that stops at the first trivial correction below
    the lowest written pair, or just a slice."""
    gog, pairs = red.gog, red.pairs
    if not pairs:
        return red, (0, None, None)
    T = gog.transversals
    tt, tmul, tid, inj, pinch = T.t, T.tmul, T.tid, T.inj, T.pinch
    tinv, decomp = T.tinv, T.decomp
    if tt[pairs[-1][0]] != red.start:
        raise ValueError("cyclic reduction needs a loop word")
    items = [(pairs[0][0] ^ 1, red.head), *pairs]
    f, kinv, low, fix = 1, None, len(items), None  # kinv: κ⁻¹, None for 1
    if T.moved:
        kinv, fix = tid[items[0][0]], _Corrections(T, items)
    for _ in range(len(items) + 1):
        if f == len(items):
            break
        e1, x1 = items[f]
        e_n, x_n = items[-1]
        head = items[f - 1][1]
        if fix is not None:
            # the head is κ·y·η_ē1(c), with x1·C = η_e1(c)·rep
            c = decomp[e1][tmul[e1][x1][
                fix.into(f) if low < len(items) else tid[e1]]][0]
            mul = tmul[e1 ^ 1]
            head = mul[mul[tinv[e1 ^ 1][kinv]][head]][inj[e1 ^ 1][c]]
        # a loop: the last edge ends at the head's vertex; with one pair
        # left, e1 is e_n and cannot be its bar
        p = pinch[e_n][tmul[e_n][x_n][head]] if e1 == e_n ^ 1 else None
        if p is None and pinch[e_n][x_n] is not None and not once:
            break
        f += 1
        if p is None:
            items[-1] = (e_n, tmul[e_n][x_n][head])
            items.append((e1, tid[e1]))
        else:
            items.pop()
        if fix is not None:
            kinv, j = inj[e1][c], len(items) - 2
            if p is not None:
                # e_n · η_{e_n}(p) · e1 with e1 = ē_n pinches to η_{e1}(p)
                j += 1
                e, x = items[j]
                items[j] = (e, tmul[e][x][inj[e1][p]])
            fix.low = j
            if j < low:
                low = j
        if once:
            break
    else:
        raise RuntimeError("cyclic reduction failed to stabilize")
    if f == 1:
        return red, (0, None, None)
    e, head = items[f - 1]
    if fix is not None:
        mul = tmul[e]
        head = mul[tinv[e][kinv]][head]
        if not T.moved.isdisjoint(islice(items, max(low, f), None)):
            j, corr = _sweep(T, items, len(items) - 1, tid[items[-1][0]],
                             f, low)
            if j < f:
                head = mul[head][corr]
    core = GroupWord._trusted(gog, tt[e], head, items[f:])
    return core, (f - 1, items, kinv)


def _conjugator(red: GroupWord, notches) -> GroupWord:
    """The conjugator of the notches that :func:`_cyclic_core` took on
    ``red``, from its basepoint, built as one word and reduced once.

    ``notches`` is (k, items, κ⁻¹) from a pass of k notches.  Notch i
    conjugates by head_i·e_i = κ_i·y_i·η_ē(c)·e_i = κ_i·y_i·e_i·κ_{i+1}⁻¹,
    so the product telescopes to y_1·e_1·y_2···y_k·e_k·κ_{k+1}⁻¹, with
    y_i the element that items[i − 1] ends with and κ_1 = 1."""
    k, items, kinv = notches
    if not k:
        return identity_word(red.gog, red.start)
    e_k = items[k][0]
    last = (e_k, red.gog.transversals.tid[e_k] if kinv is None else kinv)
    return reduce_word(GroupWord._trusted(red.gog, red.start, red.head,
                                          [*items[1:k], last]))


# -- word JSON --------------------------------------------------------------


def word_to_json(w: GroupWord):
    out = ["g", w.start, w.head]
    for e, x in w.pairs:
        out.extend(["e", e, "g", w.gog.graph.t(e), x])
    return out


# -- convenient constructors ------------------------------------------------


def amalgam(A: FiniteGroup, B: FiniteGroup, C: FiniteGroup,
            into_a, into_b) -> GraphOfGroups:
    """A ∗_C B: vertex 0 carries A, vertex 1 carries B; directed edge 0 runs
    0→1 (inj into B), edge 1 runs 1→0 (inj into A)."""
    graph = SerreGraph(2, [(0, 1)])
    inj_b = GroupHom(C, B, into_b)
    inj_a = GroupHom(C, A, into_a)
    return GraphOfGroups(graph, [A, B], [C], [inj_b, inj_a])


def free_product(A: FiniteGroup, B: FiniteGroup) -> GraphOfGroups:
    from .finite import make_cyclic

    C = make_cyclic(1)
    return amalgam(A, B, C, [A.identity], [B.identity])


def hnn_sub(B: FiniteGroup, A_elements, alpha_images) -> GraphOfGroups:
    """HNN extension of B over the subgroup with elements A_elements, with
    α given by the image of each element (aligned with sorted order).  The
    single geometric loop gives directed edges 0 (the stable letter t,
    inj = α) and 1 (the reverse direction, inj = inclusion), so the Britton
    pinch t⁻¹ · a · t → α(a) holds for a in the domain subgroup."""
    A_sorted = Subgroup(B, A_elements).elements
    pos = {a: i for i, a in enumerate(A_sorted)}
    table = [[pos[B.table[a][b]] for b in A_sorted] for a in A_sorted]
    A = FiniteGroup(table)
    incl = GroupHom(A, B, A_sorted)
    am = GroupHom(A, B, alpha_images)
    graph = SerreGraph(1, [(0, 0)])
    return GraphOfGroups(graph, [B], [A], [am, incl])
