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
Britton pinch  f · η_f(c) · f̄  →  η_f̄(c), so no pinch survives the pass.  It
then decomposes every syllable, right to left, against a fixed right-coset
transversal of the incoming edge image, pushing edge-group corrections to the
left.  The result is the canonical normal form, itself a ``GroupWord``: head
element followed by alternating (edge, transversal representative) pairs.
Transversal representatives are least-element-index, with the identity
representing the coset of the image subgroup itself, so normal forms are
reproducible across runs.  The transversal table depends on the graph of
groups alone, so the graph owns it (``GraphOfGroups.transversals``, built on
first use and kept), and every word operation reads the graph and its table
from the word itself.  The syllable length of a normal form counts its
nontrivial vertex-group syllables (the head plus representatives); stable
letters of an HNN word therefore contribute edges but not syllables, which
matches the translation-length reading for cyclically reduced words over
amalgams and free products.
"""

from __future__ import annotations

from .finite import FiniteGroup, GroupHom, Subgroup, check_hom


class SerreGraph:
    """Directed-edge graph with involution.

    ``pairs`` is a list of (origin, terminus) per geometric edge; geometric
    edge i yields directed edges 2i (o→t) and 2i+1 (t→o).
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

    def bar(self, e: int) -> int:
        return e ^ 1

    def o(self, e: int) -> int:
        o, t = self.pairs[e >> 1]
        return o if (e & 1) == 0 else t

    def t(self, e: int) -> int:
        o, t = self.pairs[e >> 1]
        return t if (e & 1) == 0 else o

    def edges_at(self, v: int):
        """Directed edges with origin v, ascending."""
        return [e for e in range(self.num_edges) if self.o(e) == v]

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in range(self.num_edges):
                if self.o(e) == v and self.t(e) not in seen:
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
        self._images = {}
        self._transversals = None

    def vgroup(self, v: int) -> FiniteGroup:
        return self.vgroups[v]

    def egroup(self, e: int) -> FiniteGroup:
        return self.egroups[e >> 1]

    def image(self, e: int) -> frozenset:
        """Image of inj(e) inside vgroup(t(e)), cached."""
        if e not in self._images:
            self._images[e] = frozenset(self.inj[e].map)
        return self._images[e]

    @property
    def transversals(self) -> "Transversals":
        """The right-coset transversal table, built on first use and kept
        (not by the constructor: :func:`validate` reports on graphs whose
        injections are broken, where no table can be built)."""
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
        """Store valid parts unchecked, ``pairs`` as a tuple of 2-tuples."""
        w = object.__new__(cls)
        w.gog = gog
        w.start = start
        w.head = head
        w.pairs = tuple(map(tuple, pairs))
        return w

    @property
    def end(self) -> int:
        if not self.pairs:
            return self.start
        return self.gog.graph.t(self.pairs[-1][0])

    def is_loop(self) -> bool:
        return self.end == self.start

    def is_identity(self) -> bool:
        """No edges and a trivial head; for a reduced word this is the test
        for the identity element."""
        return not self.pairs and self.head == self.gog.vgroup(self.start).identity

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if other.start != self.end:
            raise ValueError(
                f"cannot concatenate: path ends at {self.end}, next starts at {other.start}"
            )
        if not self.pairs:
            G = self.gog.vgroup(self.start)
            return GroupWord._trusted(self.gog, self.start,
                                      G.op(self.head, other.head), other.pairs)
        e_last, x_last = self.pairs[-1]
        G = self.gog.vgroup(self.end)
        merged = self.pairs[:-1] + ((e_last, G.op(x_last, other.head)),) + other.pairs
        return GroupWord._trusted(self.gog, self.start, self.head, merged)

    def inverse(self) -> "GroupWord":
        gog = self.gog
        g = gog.graph
        verts = [self.start] + [g.t(e) for e, _ in self.pairs]
        elements = [self.head] + [x for _, x in self.pairs]
        invs = [gog.vgroup(v).inv[x] for v, x in zip(verts, elements)]
        # (g0, (e1,g1),...,(en,gn))^-1 = (gn^-1, (ēn, g_{n-1}^-1), ..., (ē1, g0^-1))
        pairs = [(g.bar(self.pairs[i][0]), invs[i])
                 for i in range(len(self.pairs) - 1, -1, -1)]
        return GroupWord._trusted(gog, verts[-1], invs[-1], pairs)

    def key(self):
        """Flat deterministic sort key: edge count, then (vertex, element,
        edge) data lexicographically."""
        flat = [self.start, self.head]
        for e, x in self.pairs:
            flat.extend((e, x))
        return (len(self.pairs), tuple(flat))

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
    """Right-coset representative tables per directed edge.

    For directed edge e with image H = inj(e)(egroup) ≤ vgroup(t(e)), each
    element g decomposes uniquely as g = inj(e)(c) · x with x the chosen
    representative of the right coset H·g.  Representatives are least element
    index, except the coset H itself which the identity represents.
    """

    def __init__(self, gog: GraphOfGroups):
        self.gog = gog
        self.reps = {}
        self.decomp = {}
        g = gog.graph
        for e in range(g.num_edges):
            G = gog.vgroup(g.t(e))
            h = gog.inj[e]
            image = sorted(h.map)
            pre = {h.map[c]: c for c in range(h.source.order)}
            seen = {}
            reps = []
            for x in range(G.order):
                if x in seen:
                    continue
                coset = sorted(G.table[y][x] for y in image)
                rep = G.identity if G.identity in coset else coset[0]
                reps.append(rep)
                for z in coset:
                    seen[z] = rep
            table = {}
            for gg in range(G.order):
                x = seen[gg]
                hx = G.table[gg][G.inv[x]]  # g * x^-1 ∈ H
                table[gg] = (pre[hx], x)
            self.reps[e] = reps
            self.decomp[e] = table


def fix_transversals(gog: GraphOfGroups) -> Transversals:
    """The graph's own table, ``gog.transversals``."""
    return gog.transversals


def _own_table(gog: GraphOfGroups, transversals) -> None:
    """Reject a ``transversals`` argument other than the graph's own table,
    which every word over ``gog`` is reduced against."""
    if transversals is not None and transversals is not gog.transversals:
        raise ValueError("transversals must be None or gog.transversals")


def reduce_word(w: GroupWord) -> GroupWord:
    """Reduce to the canonical normal form.

    One left-to-right pass over a stack, as in free reduction: an incoming
    (e, x) pinches against the top (e1, h1) when e = ē1 and h1 lies in the
    image of e1; the top is popped and η_e(c)·x multiplied into the new
    top (or the head).  The stack never holds a pinch, so one pass leaves
    a reduced word; the transversal sweep then makes it canonical.
    """
    gog = w.gog
    g = gog.graph
    decomp = gog.transversals.decomp
    head = w.head
    items = []
    for e, x in w.pairs:
        if items:
            e1, h1 = items[-1]
            if e == g.bar(e1) and h1 in gog.image(e1):
                # h1 = η_e1(c); its coset representative is the identity
                c = decomp[e1][h1][0]
                items.pop()
                Gm = gog.vgroup(g.t(e))
                merged = Gm.op(gog.inj[e].map[c], x)
                if items:
                    items[-1][1] = Gm.op(items[-1][1], merged)
                else:
                    head = Gm.op(head, merged)
                continue
        items.append([e, x])
    # canonical decomposition sweep, right to left, corrections pushed left
    for j in range(len(items) - 1, -1, -1):
        e, x = items[j]
        c, rep = decomp[e][x]
        items[j][1] = rep
        corr = gog.inj[g.bar(e)].map[c]
        Gm = gog.vgroup(g.o(e))
        if j == 0:
            head = Gm.op(head, corr)
        else:
            items[j - 1][1] = Gm.op(items[j - 1][1], corr)
    return GroupWord._trusted(gog, w.start, head, items)


def words_equal(u: GroupWord, w: GroupWord) -> bool:
    if u.start != w.start:
        raise ValueError(f"basepoint mismatch: {u.start} vs {w.start}")
    return reduce_word(u) == reduce_word(w)


def syllable_length(w: GroupWord) -> int:
    """Number of nontrivial vertex-group syllables of w (the head plus the
    element after each edge); use it on canonical forms."""
    gog = w.gog
    n = 0
    if w.head != gog.vgroup(w.start).identity:
        n += 1
    g = gog.graph
    for e, x in w.pairs:
        if x != gog.vgroup(g.t(e)).identity:
            n += 1
    return n


def _sweep(head, start, items, j, corr, gog: GraphOfGroups):
    """Multiply ``corr`` into items[j] and restore the transversal form
    leftward in place, up to the first trivial correction (the pairs to its
    left are canonical already); return the corrected head at ``start``."""
    g = gog.graph
    decomp = gog.transversals.decomp
    while j >= 0:
        e, x = items[j]
        x = gog.vgroup(g.t(e)).op(x, corr)
        c, rep = decomp[e][x]
        items[j] = (e, rep)
        if rep == x:
            return head
        corr = gog.inj[g.bar(e)].map[c]
        j -= 1
    return gog.vgroup(start).op(head, corr)


def _notch(head, items, gog: GraphOfGroups):
    """Rotate the canonical loop ``head, items`` by one edge step, in
    place; return (new start vertex, new head).  ``items`` is a list of
    (edge, element) pairs with at least one entry.

    Only the seam changes: the old head merges into the last pair, which
    is the one place the returning first edge can pinch.  The transversal
    sweep then runs leftward from the changed pair (:func:`_sweep`).
    Over trivial edge groups a notch is O(1) plus the shift."""
    g = gog.graph
    e1, new_head = items.pop(0)
    v1 = g.t(e1)
    G1 = gog.vgroup(v1)
    if not items:
        items.append((e1, G1.identity))
        return v1, G1.op(new_head, head)
    e_n, x_n = items[-1]
    seam = gog.vgroup(g.t(e_n)).op(x_n, head)
    if e1 == g.bar(e_n) and seam in gog.image(e_n):
        # e_n · η_{e_n}(c) · e1 with e1 = ē_n pinches to η_{e1}(c)
        items.pop()
        decomp = gog.transversals.decomp
        j, corr = len(items) - 1, gog.inj[e1].map[decomp[e_n][seam][0]]
    else:
        items.append((e1, G1.identity))
        j, corr = len(items) - 2, head
    return v1, _sweep(new_head, v1, items, j, corr, gog)


def rotate_once(w: GroupWord) -> GroupWord:
    """Rotate a canonical loop by one edge step: conjugate by head·(first
    edge), landing at the next vertex of the loop.  The seam is merged into
    the last syllable and the rotated word ends with (first edge, 1); the
    result is again canonical."""
    if not w.pairs:
        return w
    items = list(w.pairs)
    start, head = _notch(w.head, items, w.gog)
    return GroupWord._trusted(w.gog, start, head, items)


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


def _cyclic_core(red: GroupWord):
    """The core of :func:`cyclically_reduce` for a word already in
    canonical form, with the notch steps taken as (head, first edge)
    pairs; :func:`_conjugator` turns the steps into the conjugator for
    the callers that need it.

    Rotates one notch at a time until no pinch applies at the seam and the
    trailing element is the identity.  A notch that does not pinch leaves
    a trailing identity, so there are at most n + 1 notches for n edges."""
    if not red.is_loop():
        raise ValueError("cyclic reduction needs a loop word")
    gog = red.gog
    g = gog.graph
    start, head = red.start, red.head
    items = list(red.pairs)
    steps = []
    for _ in range(len(items) + 2):
        if not items:
            break
        e_last, x_last = items[-1]
        G_at = gog.vgroup(start)
        f1 = items[0][0]
        pinchable = (len(items) >= 2 and f1 == g.bar(e_last)
                     and G_at.op(x_last, head) in gog.image(e_last))
        if not pinchable and x_last == G_at.identity:
            break
        steps.append((head, f1))
        start, head = _notch(head, items, gog)
    else:
        raise RuntimeError("cyclic reduction failed to stabilize")
    if not steps:
        return red, steps
    return GroupWord._trusted(gog, start, head, items), steps


def _conjugator(red: GroupWord, steps) -> GroupWord:
    """The product of the notch steps that :func:`_cyclic_core` took on
    ``red``, from its basepoint, built as one word and reduced once."""
    gog, start = red.gog, red.start
    if not steps:
        return identity_word(gog, start)
    g = gog.graph
    # (h1; f1, 1)·(h2; f2, 1)···(hk; fk, 1) = (h1; (f1, h2), ..., (fk, 1))
    pairs = [(f, h) for (_h, f), (h, _f) in zip(steps, steps[1:])]
    f_k = steps[-1][1]
    pairs.append((f_k, gog.vgroup(g.t(f_k)).identity))
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
