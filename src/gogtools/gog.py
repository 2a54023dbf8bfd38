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
each incoming syllable is tested against the top of the stack for the
Britton pinch  f · η_f(c) · f̄  →  η_f̄(c), so no pinch survives the pass.  If
some syllable lies off a fixed right-coset transversal of its incoming edge
image (never over trivial edge groups), it then decomposes the syllables,
right to left, against that transversal, pushing edge-group corrections to
the left.  The result is the canonical normal form, itself a ``GroupWord``: head
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
transversal and the Britton pinch.  The ``GroupWord`` product, inverse and
end, ``_splice`` (reduction, and the seams of a Dehn step), ``_cyclic_core``
(cyclic reduction and rotation, one notch loop) and ``syllable_length`` read
them, as do ``smallcanc`` (pieces, self-overlap, h1 image, Dehn scan) and
``tree`` (the fold-back test), once per call.  The transversal rule itself
(decompose a syllable, push the edge-group correction left) is written once,
in ``_sweep``, which ``_splice``, the notches of ``_cyclic_core``, the
tree's coset words and its child steps all call.
"""

from __future__ import annotations

from itertools import chain, islice

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
    c with h = inj(e)(c) for h in H and ``None`` elsewhere.  ``moved`` is
    the set of pairs (e, g) with g not its own representative, empty when
    every edge group is trivial.
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
    its lowest changed position, the notches of :func:`_cyclic_core`
    sweep down to their front index, and ``tree.canonical_coset_word``
    and ``tree._child_steps`` sweep an element of the last vertex group
    into a canonical word."""
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

    The stack pass starts from w below position i and never holds a pinch,
    so once a suffix pair goes on without one the rest of the suffix is
    attached as it is.  The transversal sweep (:func:`_sweep`, from the
    top with no correction) runs only when a pair from item lo − 1
    (position lo) up is in ``Transversals.moved``, a test made in C, so
    never over trivial edge groups; it stops at the first trivial
    correction below every changed position.  A splice costs its seams
    past the slices, and :func:`reduce_word` (i = 0, k = n) one pass."""
    T = w.gog.transversals
    tmul, inj, pinch = T.tmul, T.inj, T.pinch
    pairs, lo, top = w.pairs, i, -1  # top: the edge that pinches the top
    head, items, j = x, [], len(pairs)
    if i:
        head, items = w.head, [*pairs[:i - 1], (pairs[i - 1][0], x)]
        top = pairs[i - 1][0] ^ 1
    seq = chain(mid, pairs[k:]) if k < len(pairs) else mid
    for j, pair in enumerate(seq, k - len(mid) + 1):
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
        if j > k:
            break
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
    edge), landing at the next vertex of the loop.  The seam is merged into
    the last syllable and the rotated word ends with (first edge, 1); the
    result is again canonical.  This is one notch of :func:`_cyclic_core`."""
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
    core, steps = _cyclic_core(red)
    return core, _conjugator(red, steps)


def _cyclic_core(red: GroupWord, once=False):
    """The core of :func:`cyclically_reduce` for a word already in
    canonical form, with the notch steps taken as (head, first edge)
    pairs; :func:`_conjugator` turns the steps into the conjugator for
    the callers that need it.  With ``once`` it takes exactly one notch,
    which is :func:`rotate_once`.

    A notch rotates the loop by one edge step: the first pair leaves
    through a front index (the loop is items[f:]), the old head merges
    into the last pair, which is the one place the returning first edge
    can pinch, and :func:`_sweep` runs leftward from the changed pair
    down to the front index, up to the first trivial correction.
    Notches stop once no pinch applies at the seam and the trailing
    element is the identity.  A notch that does not pinch leaves a
    trailing identity, so there are at most n + 1 notches for n edges,
    each O(1) over trivial edge groups (over nontrivial ones a correction
    can still sweep to the head, so a long conjugator peels in quadratic
    time there)."""
    if not red.is_loop():
        raise ValueError("cyclic reduction needs a loop word")
    gog = red.gog
    T = gog.transversals
    tt, tmul, tid, inj, pinch = T.t, T.tmul, T.tid, T.inj, T.pinch
    start, head = red.start, red.head
    items = list(red.pairs)
    f, steps = 0, []
    for _ in range(len(items) + 2):
        if f == len(items):
            break
        # a loop: the last edge ends at ``start``; with one pair left,
        # e1 is e_n and cannot be its bar
        e1, new_head = items[f]
        e_n, x_n = items[-1]
        c = pinch[e_n][tmul[e_n][x_n][head]] if e1 == e_n ^ 1 else None
        if c is None and x_n == tid[e_n] and not once:
            break
        steps.append((head, e1))
        f += 1
        if c is not None:
            # e_n · η_{e_n}(c) · e1 with e1 = ē_n pinches to η_{e1}(c)
            items.pop()
            j, corr = len(items) - 1, inj[e1][c]
        else:
            items.append((e1, tid[e1]))
            j, corr = len(items) - 2, head
        start, head = tt[e1], new_head
        j, corr = _sweep(T, items, j, corr, f, len(items))
        if j < f:
            head = tmul[e1][head][corr]
        if once:
            break
    else:
        raise RuntimeError("cyclic reduction failed to stabilize")
    if not steps:
        return red, steps
    return GroupWord._trusted(gog, start, head, items[f:]), steps


def _conjugator(red: GroupWord, steps) -> GroupWord:
    """The product of the notch steps that :func:`_cyclic_core` took on
    ``red``, from its basepoint, built as one word and reduced once."""
    gog, start = red.gog, red.start
    if not steps:
        return identity_word(gog, start)
    # (h1; f1, 1)·(h2; f2, 1)···(hk; fk, 1) = (h1; (f1, h2), ..., (fk, 1))
    pairs = [(f, h) for (_h, f), (h, _f) in zip(steps, steps[1:])]
    f_k = steps[-1][1]
    pairs.append((f_k, gog.transversals.tid[f_k]))
    return reduce_word(GroupWord._trusted(gog, start, steps[0][0], pairs))


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
