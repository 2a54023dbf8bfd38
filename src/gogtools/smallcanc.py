"""Symmetrized relator sets, small-cancellation verdicts, and thinness audits.

Conventions
-----------
Relators are loop words at a chosen basepoint.  Cyclic rotation acts one
edge-step at a time on the trailing-identity representation produced by
``cyclically_reduce`` (head, then pairs whose last element is the identity
carried by the returning edge), so a rotation is again a reduced loop of
the same length, based at the next vertex along the loop.  A rotation
changes only the seam, so it costs a short transversal sweep, not a full
reduction, and a symmetrized set holds one rotation orbit of the relator
and one of its inverse, each stopping where it closes.

Piece lengths are measured in syllables of canonical normal form.  Two
members share a prefix of length l when their first l syllables agree as
group elements up to right multiplication by an edge-group element at the
seam; for free products (trivial edge groups) this is plain syllable
equality, which is the fast path.  Only *distinct* members of the
symmetrized set contribute pieces.  The self-overlap of a member (the
longest common prefix of the word and a proper suffix of it, maximized
over shifts) and proper-power periodicity are reported separately — they
are diagnostics, not pieces, and do not enter λ*.

Dehn reduction replaces the leftmost, longest subword matching more than
half of a member by the shorter complement, recording a trace that replays
to an exact conjugate-product witness.  Matching is performed position
by position on canonical forms, with the first and last matched syllables
allowed to split inside their vertex group; for amalgams with nontrivial
seams this matcher is conservative (it may miss a match that exists after
seam shuffling), which is sound — a word it reduces to empty is in the
kernel — and complete on the trivial-seam fixtures the oracles cover.  A
word it gets stuck on is therefore outside the kernel only when every edge
group is trivial; elsewhere the kernel oracle refuses to decide it rather
than refute it.

The thinness audit is transporter-local: the 2-cells of the presentation
complex through a 1-cell x are the translates g·D of the base relator
disc with g·t_j = x for a boundary edge t_j of D, deduplicated modulo the
disc stabilizer ⟨r⟩ (which collapses boundary positions by the period:
q_{j+|r|} = r·q_j).  This counts incidences of the *infinite* complex
exactly, without materializing any 2-cell, and is how per-edge bounds are
certified at radii where a full disc could never fit in memory.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import UnsupportedInput
from .gog import (
    GroupWord,
    _conjugator,
    _cyclic_core,
    _own_table,
    cyclically_reduce,  # re-exported
    identity_word,
    reduce_word,
    rotate_once,
    syllable_length,
    words_equal,
)


# -- loop-word plumbing -----------------------------------------------------


def _same_graph(r: GroupWord, gog) -> None:
    if r.gog is not gog:
        raise ValueError(f"{r!r} is a word over another graph of groups")


def word_power(w: GroupWord, m: int) -> GroupWord:
    """Reduced w^m for a loop word w (m >= 0): the raw product w·w···w,
    merging the last element with the head at each junction, reduced once
    (the canonical form of an element is unique)."""
    if not w.is_loop():
        raise ValueError(f"powers need a loop word, got {w.start} -> {w.end}")
    gog = w.gog
    if m < 1:
        return identity_word(gog, w.start)
    G = gog.vgroup(w.start)
    head, pairs = w.head, list(w.pairs)
    for _ in range(m - 1):
        if pairs:
            e_n, x_n = pairs[-1]
            pairs[-1] = (e_n, G.op(x_n, w.head))
            pairs.extend(w.pairs)
        else:
            head = G.op(head, w.head)
    return reduce_word(GroupWord._trusted(gog, w.start, head, pairs))


def positions(w: GroupWord):
    """The word as a list of (vertex, element, incoming edge or None)."""
    g = w.gog.graph
    out = [(w.start, w.head, None)]
    for e, x in w.pairs:
        out.append((g.t(e), x, e))
    return out


def rotations(w: GroupWord):
    """The edge-step rotation orbit of a canonical cyclically reduced loop,
    w itself first.  Rotation is deterministic, so once the orbit returns
    to w every later rotation repeats it; the orbit stops there, after at
    most one rotation per edge.  It is shorter than the edge count when w
    repeats itself under rotation (a proper power)."""
    out = [w]
    for _ in range(len(w.pairs) - 1):
        cur = rotate_once(out[-1])
        if cur == w:
            break
        out.append(cur)
    return out


# -- symmetrized sets -------------------------------------------------------


class SymmetrizedSet:
    """Closure of a relator under inversion and cyclic rotation, every
    member cyclically reduced and in canonical form.  ``base`` is the
    least member under the word key — the canonical cyclic conjugate the
    rest of the module refers back to.  The members are an immutable
    tuple, so the piece report (:func:`pieces`) and the Dehn match table
    are computed once and kept here.  ``proper_power`` is filled in by
    :func:`symmetrize`, which sees the rotation orbits: it is True when an
    orbit is shorter than the edge count."""

    def __init__(self, gog, members, base):
        self.gog = gog
        self.members = tuple(members)
        self.base = base
        self.proper_power = None
        self.piece_report = None
        self.match_table = None

    def __len__(self):
        return len(self.members)

    def member_length(self) -> int:
        """Common syllable length of the members (they are all rotations
        of one cyclic word or its inverse)."""
        return min(syllable_length(w) for w in self.members)

    def __repr__(self):
        return f"SymmetrizedSet({len(self.members)} members, base={self.base!r})"


def symmetrize(r: GroupWord) -> SymmetrizedSet:
    """Smallest symmetrized set containing r: all cyclic rotations of the
    cyclically reduced r and of its inverse, deduplicated."""
    core, _ = _cyclic_core(reduce_word(r))
    if core.is_identity():
        raise ValueError(f"empty relator: {r!r} reduces to the identity")
    inv_core, _ = _cyclic_core(reduce_word(core.inverse()))
    seen = set()
    proper = False
    for w0 in (core, inv_core):
        orbit = rotations(w0)
        proper = proper or len(orbit) < len(w0.pairs)
        for w in orbit:
            if len(w.pairs) != len(core.pairs):
                raise RuntimeError(
                    f"rotation changed length for {w0!r}; cyclic reduction "
                    "is broken"
                )
            seen.add(w)
    members = sorted(seen, key=lambda w: (w.start, w.key()))
    base = min(members, key=lambda w: w.key())
    S = SymmetrizedSet(r.gog, members, base)
    S.proper_power = proper
    return S


# -- pieces -----------------------------------------------------------------


def _fudge_sets(gog):
    """Per vertex, the set of nontrivial vertex-group elements that can
    slide across some edge at that vertex (the seam corrections)."""
    g = gog.graph
    out = {v: set() for v in range(g.num_vertices)}
    for e in range(g.num_edges):
        v = g.t(e)
        ident = gog.vgroup(v).identity
        for c in gog.image(e):
            if c != ident:
                out[v].add(c)
    return out


def common_prefix_syllables(w1: GroupWord, w2: GroupWord,
                            fudge=None) -> int:
    """Maximal common prefix of two reduced words, in syllables.

    Positions match when vertex, element, and incoming edge agree; the
    last matched position may instead differ by a seam correction (any
    edge-group image element at that vertex), after which the prefixes
    diverge by construction.
    """
    if w1.start != w2.start:
        return 0
    gog = w1.gog
    if fudge is None:
        fudge = _fudge_sets(gog)
    return _prefix_syllables(positions(w1), positions(w2), gog, fudge)


def _prefix_syllables(p1, p2, gog, fudge) -> int:
    """:func:`common_prefix_syllables` on two position lists (different
    start vertices fail at position 0)."""
    syl = 0
    for j in range(min(len(p1), len(p2))):
        v1, x1, e1 = p1[j]
        v2, x2, e2 = p2[j]
        if v1 != v2 or (j > 0 and e1 != e2):
            break
        G = gog.vgroup(v1)
        if x1 == x2:
            if x1 != G.identity:
                syl += 1
            continue
        # seam fudge: x1 = x2·c for a correction c; terminal by convention
        if any(x1 == G.op(x2, c) for c in fudge[v1]):
            syl += 1
        break
    return syl


def self_overlap(w: GroupWord) -> int:
    """Longest linear overlap of w with a shift of itself, in syllables:
    the maximum over shifts s >= 1 of the longest common prefix of the
    position list and its suffix from s.  That prefix need not reach the
    end of the word, so this is the maximum of the Z-array, not a border.
    Position 0 (the head) is compared by vertex and element only.

    The Z-array takes O(n) comparisons (Gusfield, *Algorithms on Strings,
    Trees and Sequences*, §1.4); a prefix sum turns lengths into
    syllables."""
    gog = w.gog
    pos = positions(w)
    n = len(pos)
    syl = [0]
    for v, x, _e in pos:
        syl.append(syl[-1] + (x != gog.vgroup(v).identity))
    head = pos[0][:2]
    z = [0] * n
    best = lo = hi = 0  # [lo, hi) is the rightmost matched window
    for s in range(1, n):
        k = min(hi - s, z[s - lo]) if s < hi else 0
        while s + k < n and (pos[s + k] == pos[k] if k
                             else pos[s][:2] == head):
            k += 1
        z[s] = k
        if s + k > hi:
            lo, hi = s, s + k
        best = max(best, syl[k])
    return best


class PieceReport:
    """The longest maximal common prefix p over pairs of distinct members,
    with a witness pair, and λ* = p / min member length; self-overlap and
    proper-power diagnostics ride along."""

    def __init__(self, max_piece, witness, min_length, members_count,
                 self_overlap, proper_power):
        self.max_piece = max_piece
        self.witness = witness
        self.min_length = min_length
        self.members_count = members_count
        self.self_overlap = self_overlap
        self.proper_power = proper_power

    @property
    def lam_star(self) -> Fraction:
        if self.min_length == 0 or self.max_piece == 0:
            return Fraction(0)
        return Fraction(self.max_piece, self.min_length)

    def __repr__(self):
        return (f"PieceReport(p={self.max_piece}, λ*={self.lam_star}, "
                f"members={self.members_count})")


def pieces(S: SymmetrizedSet) -> PieceReport:
    """The piece report of S, computed on the first call and cached on S."""
    if S.piece_report is None:
        S.piece_report = _piece_report(S)
    return S.piece_report


def _piece_report(S: SymmetrizedSet) -> PieceReport:
    if len(S) < 1:
        raise ValueError("piece report needs a nonempty symmetrized set")
    gog = S.gog
    members = S.members
    fudge = _fudge_sets(gog)
    pos = [positions(w) for w in members]
    max_piece, witness = 0, None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            l = _prefix_syllables(pos[i], pos[j], gog, fudge)
            if l > max_piece:
                max_piece, witness = l, (i, j)
    min_length = S.member_length()
    if len(members) > 1 and max_piece >= min_length:
        if not members[0].pairs:
            raise UnsupportedInput(
                f"relator {S.base!r} has no edges: it is elliptic, so its "
                "members are single vertex-group elements, which a seam "
                "correction matches in full; the piece measure needs a "
                "relator that crosses an edge"
            )
        if min_length == 0:
            raise UnsupportedInput(
                f"relator {S.base!r} is made of stable letters only: it has "
                "no nontrivial vertex-group syllable, so every member has "
                "syllable length 0 and λ* is undefined"
            )
        a, b = (members[k] for k in witness)
        if a == b:
            raise RuntimeError(
                f"piece of length {max_piece} reaches the member length "
                f"{min_length}; two listed members coincide"
            )
        raise UnsupportedInput(
            f"distinct members {a!r} and {b!r} share a piece as long as "
            f"the members ({max_piece} syllables): the syllable measure "
            "does not count stable letters, so it cannot tell these "
            "members apart and λ* is not measured"
        )
    so = max(self_overlap(w) for w in members)
    return PieceReport(max_piece, witness, min_length, len(members), so,
                       S.proper_power)


def check_cprime(r: GroupWord, m: int, lam, gog) -> dict:
    """C'(λ) verdict for the symmetrized set of r^m: every piece shorter
    than λ·|r^m|, with exact rational arithmetic.  r must be a word over
    ``gog``."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    _same_graph(r, gog)
    lam = Fraction(lam)
    S = symmetrize(word_power(r, m))
    rep = pieces(S)
    L = rep.min_length
    verdict = Fraction(rep.max_piece) < lam * L
    return {
        "verdict": verdict,
        "lam": lam,
        "max_piece": rep.max_piece,
        "member_length": L,
        "members": rep.members_count,
        "lam_star": rep.lam_star,
        "self_overlap": rep.self_overlap,
        "proper_power": rep.proper_power,
        "m": m,
    }


# -- the constant M = k|r| --------------------------------------------------


class ThinnessConstant:
    """k = max over 1-cells t of the witness geodesic γ of [G̃_t : G̃_γ],
    and M = k·|r| in syllables.  ``gamma`` lists the crossed edges as
    (step, directed edge, origin Λ-vertex); ``stab_sets`` holds their
    stabilizers as frozensets of canonical words."""

    def __init__(self, k, r_syllables, gamma, indices, stab_sets=(),
                 note=None):
        self.k = k
        self.r_syllables = r_syllables
        self.M = k * r_syllables
        self.gamma = gamma
        self.indices = indices
        self.stab_sets = tuple(stab_sets)
        self.note = note

    def __repr__(self):
        return f"ThinnessConstant(k={self.k}, |r|={self.r_syllables}, M={self.M})"


def edge_stabilizer_words(prefix: GroupWord, e: int):
    """Stabilizer of the tree edge crossed from prefix's endpoint along
    the directed edge e, as canonical reduced words:
    prefix·ι(E_e)·prefix⁻¹, ι the embedding into the origin vertex
    group."""
    gog = prefix.gog
    g = gog.graph
    v_o = g.o(e)
    if prefix.end != v_o:
        raise ValueError(
            f"prefix ends at {prefix.end} but edge {e} starts at {v_o}"
        )
    emb = gog.inj[g.bar(e)].map
    inv = prefix.inverse()
    out = []
    for c in range(gog.egroup(e).order):
        h = GroupWord._trusted(gog, v_o, emb[c])
        out.append(reduce_word(prefix * h * inv))
    return out


def compute_M(gog, r: GroupWord) -> ThinnessConstant:
    """G̃_γ along the witness geodesic γ = [y, r²y], and k its largest
    index in an edge stabilizer on the way.

    A cyclically reduced loop word with at least one edge is hyperbolic
    on the tree, so γ is exactly the path of the concatenated word r·r
    and the stabilizers come straight off the prefixes — no ball is
    built.  r must be a word over ``gog``.
    """
    _same_graph(r, gog)
    return _compute_M(reduce_word(r))


def _compute_M(r: GroupWord) -> ThinnessConstant:
    """:func:`compute_M` of a relator already in canonical form."""
    gog = r.gog
    core, _ = _cyclic_core(r)
    if core.is_identity():
        raise ValueError(f"empty relator: {r!r}")
    r_len = syllable_length(core)
    if not core.pairs:
        return ThinnessConstant(1, r_len, [], [],
                                note="relator fixes the basepoint "
                                     "(elliptic); k = 1 by convention")
    cc = core * core
    gamma, stabs = [], []
    for j in range(len(cc.pairs)):
        e = cc.pairs[j][0]
        prefix = GroupWord._trusted(gog, cc.start, cc.head, cc.pairs[:j])
        gamma.append((j, e, gog.graph.o(e)))
        stabs.append(frozenset(edge_stabilizer_words(prefix, e)))
    g_gamma = frozenset.intersection(*stabs)
    indices = []
    for s in stabs:
        if len(s) % len(g_gamma) != 0:
            raise RuntimeError("stabilizer intersection does not divide; "
                               "edge stabilizer data is inconsistent")
        indices.append(len(s) // len(g_gamma))
    k = max(indices)
    return ThinnessConstant(k, r_len, gamma, indices, stab_sets=stabs)


def thmb_hypothesis(lam, M) -> dict:
    """The exact hypothesis check 12·λ·M < 1."""
    lam = Fraction(lam)
    val = 12 * lam * M
    return {"twelve_lam_M": val, "holds": val < 1}


# -- Dehn reduction ---------------------------------------------------------


class DehnResult:
    __slots__ = ("original", "word", "area", "trace", "symmetrized")

    def __init__(self, original, word, area, trace, symmetrized):
        self.original = original
        self.word = word
        self.area = area
        self.trace = tuple(trace)
        self.symmetrized = symmetrized

    @property
    def is_trivial(self) -> bool:
        return self.word.is_identity()

    def __repr__(self):
        return f"DehnResult(area={self.area}, trivial={self.is_trivial})"


def _subword(w: GroupWord, lo: int, hi: int) -> GroupWord:
    """Positions lo..hi of w as a word (position 0 is the head)."""
    v, x, _e = positions(w)[lo]
    return GroupWord._trusted(w.gog, v, x, w.pairs[lo:hi])


def _match_table(S: SymmetrizedSet):
    """Anchor index: (edge, element) of each member's second position ->
    members starting that way, with their position lists; built once per
    set and kept on it."""
    if S.match_table is None:
        S.match_table = _build_match_table(S)
    return S.match_table


def _build_match_table(S: SymmetrizedSet):
    gog = S.gog
    tab = {}
    mempos = []
    for idx, s in enumerate(S.members):
        ps = positions(s)
        syls = [1 if x != gog.vgroup(v).identity else 0 for v, x, _ in ps]
        mempos.append((s, ps, syls, sum(syls)))
        if len(ps) > 1:
            _v, x, e = ps[1]
            tab.setdefault((e, x), []).append(idx)
    return tab, mempos


def _best_match_at(wpos, wsyl, i, tab, mempos):
    """Longest legal (>half) prefix match of a member at position i of w;
    returns (l, member index, matched syllables) or None.  ``wsyl[k]`` is
    1 where w's element at position k is not the identity.

    The member's head and its last matched syllable may split inside
    their vertex group; each counts as matched only where w's element at
    that position is not the identity, since replacing a split syllable
    that w does not carry saves nothing."""
    if i + 1 >= len(wpos):
        return None
    key = (wpos[i + 1][2], wpos[i + 1][1])
    best = None
    for idx in tab.get(key, ()):
        _s, ps, syls, total = mempos[idx]
        if ps[0][0] != wpos[i][0]:
            continue
        # run of exact (edge, element) agreement from position 1
        run = 0
        while (1 + run < len(ps) and i + 1 + run < len(wpos)
               and ps[1 + run][2] == wpos[i + 1 + run][2]
               and ps[1 + run][1] == wpos[i + 1 + run][1]):
            run += 1
        # candidate lengths: run+2 splits the syllable after the run
        for l in (run + 2, run + 1):
            if l > len(ps) or i + l > len(wpos):
                continue
            if l == run + 2 and ps[l - 1][2] != wpos[i + l - 1][2]:
                continue
            if l < 2:
                continue
            matched = (syls[0] * wsyl[i] + sum(syls[1:l - 1])
                       + syls[l - 1] * wsyl[i + l - 1])
            if 2 * matched <= total:
                continue
            if best is None or l > best[0]:
                best = (l, idx, matched)
            break
    return best


def _replace(cur, wpos, i, l, member):
    """Rewrite the l-position match of member at position i of cur by the
    member's complement; returns (Â, the reduced new word).

    cur = Â·u·Ĉ, exactly as unreduced words: Â covers positions 0..i with
    the element at i cut down to the leftover p, u is the l-position
    prefix of the member s, Ĉ restarts at position i+l-1 with the leftover
    q; then u = s·t⁻¹ rewrites cur to (Â s Â⁻¹)·Â t⁻¹ Ĉ."""
    s, ps, _syls, _tot = member
    gog = cur.gog
    u = _subword(s, 0, l - 1)
    Gv = gog.vgroup(ps[0][0])
    p_elt = Gv.op(wpos[i][1], Gv.inverse(ps[0][1]))
    if i == 0:
        A_hat = GroupWord._trusted(gog, cur.start, p_elt)
    else:
        e_i = wpos[i][2]
        A_hat = GroupWord._trusted(gog, cur.start, cur.head,
                                   cur.pairs[:i - 1] + ((e_i, p_elt),))
    Gq = gog.vgroup(ps[l - 1][0])
    q_elt = Gq.op(Gq.inverse(ps[l - 1][1]), wpos[i + l - 1][1])
    C_hat = GroupWord._trusted(gog, ps[l - 1][0], q_elt,
                               cur.pairs[i + l - 1:])
    t_comp = reduce_word(u.inverse() * s)
    return A_hat, reduce_word(A_hat * t_comp.inverse() * C_hat)


def dehn_reduce(w: GroupWord, S: SymmetrizedSet, guard: int = 10 ** 6) -> DehnResult:
    """Greedy Dehn reduction under C'(1/6): replace the leftmost longest
    subword matching more than half of a member by the complement,
    skipping a match whose replacement would not shorten the word, until
    stuck; over trivial edge groups a stuck nonempty cyclically reduced
    word is outside the normal closure (Greendlinger), while over
    nontrivial ones the seam matcher is conservative and a stuck word is
    undecided.  The trace replays to an exact witness — see
    :func:`replay_trace`."""
    rep = pieces(S)
    if rep.lam_star >= Fraction(1, 6):
        raise UnsupportedInput(
            f"C'(1/6) fails for the symmetrized set (λ* = {rep.lam_star}); "
            "Dehn reduction has no Greendlinger guarantee here"
        )
    if not w.is_loop():
        raise ValueError(f"words must be loops, got {w.start} -> {w.end}")
    return _dehn_reduce(reduce_word(w), S, guard)


def _dehn_reduce(cur: GroupWord, S: SymmetrizedSet, guard: int = 10 ** 6) -> DehnResult:
    """:func:`dehn_reduce` of a canonical loop against a set whose piece
    report is known to satisfy C'(1/6)."""
    vgroup = S.gog.vgroup
    tab, mempos = _match_table(S)
    original = cur
    trace = []
    area = 0
    for _step in range(guard):
        wpos = positions(cur)
        wsyl = [1 if x != vgroup(v).identity else 0 for v, x, _e in wpos]
        before = sum(wsyl)
        step = None
        for i in range(len(wpos)):
            hit = _best_match_at(wpos, wsyl, i, tab, mempos)
            if hit is None:
                continue
            l, idx, _matched = hit
            A_hat, nxt = _replace(cur, wpos, i, l, mempos[idx])
            # guard: a replacement that does not shorten the word is no
            # Dehn step, so the scan moves on
            if syllable_length(nxt) < before:
                step = (A_hat, idx, nxt)
                break
        if step is None:
            # cyclic fallback: rotate/shorten through the seam, recorded
            core, steps = _cyclic_core(cur)
            if syllable_length(core) < before:
                trace.append(("conjugate", _conjugator(cur, steps)))
                cur = core
                continue
            break
        A_hat, idx, cur = step
        trace.append(("relator", A_hat, idx))
        area += 1
    else:
        raise RuntimeError(f"Dehn reduction exceeded {guard} steps")
    return DehnResult(original, cur, area, trace, S)


def replay_trace(result: DehnResult) -> bool:
    """Rebuild the original word from the fixed point through the trace:
    each relator step contributes a conjugate g·s·g⁻¹ on the left, each
    cyclic step a conjugation.  True iff the product reproduces the
    original — the van-Kampen-style area witness."""
    S = result.symmetrized
    cur = result.word
    for step in reversed(result.trace):
        if step[0] == "relator":
            _kind, g, idx = step
            s = S.members[idx]
            cur = reduce_word(g * s * g.inverse() * cur)
        elif step[0] == "conjugate":
            _kind, conj = step
            cur = reduce_word(conj * cur * conj.inverse())
        else:
            raise ValueError(f"unknown trace step {step[0]!r}")
    return words_equal(cur, result.original)


# -- kernel oracle ----------------------------------------------------------


def _is_abelian(G) -> bool:
    return all(G.table[a][b] == G.table[b][a]
               for a in range(G.order) for b in range(G.order))


def _trivial_edge_groups(gog) -> bool:
    return all(gog.egroup(e).order == 1 for e in range(gog.graph.num_edges))


class KernelOracle:
    """Word problem for gog modulo ⟨⟨r^m⟩⟩ under C'(1/6).

    Decisions stack cheapest first: free-product triviality, the
    abelianized image (only when every vertex group is abelian and every
    edge group is trivial: a pinch across a nontrivial edge group moves
    η_f(c) from t(f) to η_f̄(c) at o(f), so the per-vertex image is no
    invariant there), the Greendlinger length gate — a nontrivial kernel
    word must contain more than (1-3λ*) of a member, so anything shorter
    is certified outside — and finally full Dehn reduction.
    ``certificate`` names which stage decided.  The length gate and Dehn
    reduction refute only over trivial edge groups: elsewhere the gate
    rests on an unverified piece measure and the seam matcher is
    conservative, so a word either would refute raises
    :class:`UnsupportedInput` instead of coming back False.

    The powers r⁻ˢ used by the thinness audit are built on demand, one
    reduction per step, and kept in a list that grows only as far as an
    audit asks.  ``transversals``, if given, must be ``gog.transversals``.

    Calling the oracle is ``in_kernel``.  ``key`` lets quotient balls
    bucket their vertices by abelianized image; it is a filter, not a
    decision, so ``exact_key`` is false."""

    exact_key = False

    def __init__(self, gog, r: GroupWord, m: int, transversals=None):
        _own_table(gog, transversals)
        self.gog = gog
        self.r = reduce_word(r)
        self.m = m
        self.rm = word_power(self.r, m)
        self.S = symmetrize(self.rm)
        self.report = pieces(self.S)
        if self.report.lam_star >= Fraction(1, 6):
            raise UnsupportedInput(
                f"C'(1/6) fails (λ* = {self.report.lam_star}); "
                "the kernel oracle needs the Greendlinger guarantee"
            )
        L = self.report.min_length
        self.length_gate = (1 - 3 * self.report.lam_star) * L
        self.trivial_seams = _trivial_edge_groups(gog)
        self.abelian = self.trivial_seams and all(
            _is_abelian(gog.vgroup(v)) for v in range(gog.graph.num_vertices))
        if self.abelian:
            self._r_subgroup = self._cyclic_span(self._h1_image(self.rm))
            self._r_inv_image = tuple(
                gog.vgroup(v).inverse(x)
                for v, x in enumerate(self._h1_image(self.r)))
        self._r_inv_powers = [identity_word(gog, self.r.start)]

    def _r_inv_power(self, s: int) -> GroupWord:
        """Reduced r⁻ˢ, extending the cached powers one step at a time."""
        pw = self._r_inv_powers
        if s >= len(pw):
            r_inv = self.r.inverse()
            while s >= len(pw):
                pw.append(reduce_word(pw[-1] * r_inv))
        return pw[s]

    # abelianized invariants ------------------------------------------------

    def _h1_image(self, w: GroupWord):
        gog = self.gog
        img = [gog.vgroup(v).identity for v in range(gog.graph.num_vertices)]
        for v, x, _e in positions(w):
            img[v] = gog.vgroup(v).op(img[v], x)
        return tuple(img)

    def _cyclic_span(self, img):
        gog = self.gog
        span = set()
        cur = tuple(gog.vgroup(v).identity for v in range(len(img)))
        while cur not in span:
            span.add(cur)
            cur = tuple(gog.vgroup(v).op(cur[v], img[v])
                        for v in range(len(img)))
        return span

    # the oracle ------------------------------------------------------------

    def certificate(self, w: GroupWord) -> dict:
        red = reduce_word(w)
        if red.is_identity():
            return {"in_kernel": True, "method": "trivial"}
        if self.abelian and self._h1_image(red) not in self._r_subgroup:
            return {"in_kernel": False, "method": "abelianized-image"}
        core, _ = _cyclic_core(red)
        n = syllable_length(core)
        if n > 0 and Fraction(n) <= self.length_gate:
            if not self.trivial_seams:
                raise UnsupportedInput(
                    f"{n} syllables is under the length gate "
                    f"{self.length_gate}, but over nontrivial edge groups "
                    "the gate rests on the piece measure of `pieces`, "
                    "which is unverified there"
                )
            return {"in_kernel": False, "method": "length-gate",
                    "syllables": n, "gate": self.length_gate}
        res = _dehn_reduce(red, self.S)
        if not res.is_trivial and not self.trivial_seams:
            raise UnsupportedInput(
                f"Dehn reduction got stuck at {syllable_length(res.word)} "
                "syllables over nontrivial edge groups, where the seam "
                "matcher is conservative; that is no proof the word lies "
                "outside the kernel"
            )
        return {"in_kernel": res.is_trivial, "method": "dehn",
                "area": res.area}

    def in_kernel(self, w: GroupWord) -> bool:
        return self.certificate(w)["in_kernel"]

    __call__ = in_kernel

    @cached_property
    def _key_cosets(self):
        """Per Λ-vertex v, the elements of h1(G_v)·⟨h1(r^m)⟩."""
        return [tuple({s[:v] + (G.op(s[v], x),) + s[v + 1:]
                       for s in self._r_subgroup for x in range(G.order)})
                for v, G in enumerate(self.gog.vgroups)]

    def key(self, w: GroupWord):
        """(w.end, least element of h1(w)·h1(G_v)·⟨h1(r^m)⟩) where the
        abelianized image applies, else w.end.

        h1 is a homomorphism to a finite abelian group, and it maps the
        kernel ⟨⟨r^m⟩⟩ into ⟨h1(r^m)⟩.  So w·x·w'⁻¹ with x in G_v can lie
        in the kernel only if w and w' have the same key: the key never
        separates two words the oracle would match."""
        if not self.abelian:
            return w.end
        ops = [G.op for G in self.gog.vgroups]
        img = self._h1_image(w)
        return w.end, min(tuple(op(a, b) for op, a, b in zip(ops, img, h))
                          for h in self._key_cosets[w.end])


# -- presentation complexes -------------------------------------------------


def _relator_boundary(rel: GroupWord):
    """Cyclically reduced relator, its prefix words q_0..q_{n-1} (n = edge
    length), and the Λ-vertices they end at."""
    core, _ = _cyclic_core(reduce_word(rel))
    if not core.pairs:
        raise ValueError(
            f"relator {rel!r} has no edges; its boundary bounds no 2-cell"
        )
    pos = positions(core)
    prefixes, lam = [], []
    for j in range(len(core.pairs)):
        prefixes.append(GroupWord._trusted(core.gog, core.start, core.head,
                                           core.pairs[:j]))
        lam.append(pos[j][0])
    return core, prefixes, lam


def presentation_complex_ball(gog, relators, R: int, wp=None,
                              cap: int = 10 ** 6) -> TwoComplexBall:
    """Quotient tree ball with a 2-cell along every in-ball translate of
    every relator loop, deduplicated by boundary (rotation and reversal).

    A 2-cell is attached when its entire boundary cycle lands inside the
    ball; its interior flag records whether every cell through any of its
    edges is guaranteed to be in range too (endpoint distance + half the
    relator span within the radius).
    """
    from .cayley_abels import quotient_tree_ball
    from .complexes import Cell2, TwoComplexBall, cycle_key
    from .tree import canonical_coset_word

    relators = list(relators)
    ball = quotient_tree_ball(gog, relators, R, wp=wp, base=0, cap=cap)

    cells = {}
    full_span = 0
    for rel_idx, rel in enumerate(relators):
        core, prefixes, _lam = _relator_boundary(rel)
        full_span = max(full_span, len(core.pairs))
        if core.start != 0:
            raise ValueError(
                f"relator {rel_idx} is based at vertex {core.start}; "
                "the complex ball is built around vertex 0"
            )
        span = (len(core.pairs) + 1) // 2
        G0 = gog.vgroup(0)
        for i, v in enumerate(ball.verts):
            if v.tag != "T/v0":
                continue
            for h in range(G0.order):
                g = reduce_word(v.rep * GroupWord._trusted(gog, 0, h))
                cycle = []
                for q in prefixes:
                    idx = ball.lookup.find(canonical_coset_word(g * q))
                    if idx is None:
                        cycle = None
                        break
                    cycle.append(idx)
                if cycle is None:
                    continue
                key = cycle_key(cycle)
                if key in cells:
                    continue
                max_d = max(ball.verts[i].dist for i in cycle)
                interior = max_d + span <= R
                cells[key] = Cell2(key, f"R{rel_idx}", interior)
    ordered = [cells[k] for k in sorted(cells)]
    return TwoComplexBall(ball, ordered, notes=tuple(ball.notes),
                          span=full_span if relators else None)


# -- transporter-local thinness ---------------------------------------------


def _disc_stabilizer_power(oracle: KernelOracle, delta: GroupWord):
    """The s in 0..m-1 with delta ≡ r^s modulo the kernel, or None.

    When the oracle's abelianized image applies, h1 is a homomorphism, so
    h1(delta·r⁻ˢ) = h1(delta)·h1(r)⁻ˢ is carried forward one vertex-group
    operation per vertex per step, and an s whose image leaves the image
    of ⟨r^m⟩ is skipped — exactly the refutation ``certificate`` would
    give.  Only the other s build delta·r⁻ˢ and ask the oracle."""
    gog = oracle.gog
    img = oracle._h1_image(delta) if oracle.abelian else None
    for s in range(oracle.m):
        if img is not None:
            if s:
                img = tuple(gog.vgroup(v).op(x, y) for v, (x, y)
                            in enumerate(zip(img, oracle._r_inv_image)))
            if img not in oracle._r_subgroup:
                continue
        # certificate reduces the product once
        if oracle.certificate(delta * oracle._r_inv_power(s))["in_kernel"]:
            return s
    return None


def thinness_incidence(gog, r: GroupWord, m: int, R: int,
                       oracle: KernelOracle = None, ball=None) -> dict:
    """Exact per-edge 2-cell counts for the presentation complex of
    gog/⟨⟨r^m⟩⟩, computed transporter-locally over a radius-R ball.

    For each ball edge x and each boundary position j of one period of
    the base disc, the unique g with g·t_j = x (trivial edge stabilizers)
    is a candidate incident cell g·D; candidates are deduplicated modulo
    the disc stabilizer ⟨r⟩ via the kernel oracle.  The counts are exact
    for the full complex — no cell is materialized.  Pass the skeleton of
    an existing complex as ``ball`` to key the table by its edge indices.
    """
    if not _trivial_edge_groups(gog):
        raise UnsupportedInput(
            "transporter-local incidence needs trivial edge stabilizers "
            "(free products); amalgam seams would need coset transporters"
        )
    if any(gog.graph.o(e) == gog.graph.t(e)
           for e in range(gog.graph.num_edges)):
        raise UnsupportedInput(
            "transporter orientation matching needs distinct endpoint "
            "vertices on every underlying edge"
        )
    if oracle is None:
        oracle = KernelOracle(gog, r, m)
    core, prefixes, lam = _relator_boundary(oracle.r)
    p = len(core.pairs)
    if ball is not None:
        R = ball.radius
    # endpoint matching below compares canonical words in the unquotiented
    # group; that is exact as long as no kernel element can move a ball
    # vertex to another ball vertex, i.e. while the minimal kernel
    # translation length (the Greendlinger gate) exceeds the diameter
    # reachable by candidate transporters
    if Fraction(2 * R + p + 1) >= oracle.length_gate:
        raise UnsupportedInput(
            f"radius {R} too large for exact transporter matching: "
            f"need 2R + |r| + 1 < {oracle.length_gate}"
        )
    if ball is None:
        from .cayley_abels import quotient_tree_ball

        ball = quotient_tree_ball(gog, [oracle.rm], R, wp=oracle,
                                  base=core.start)
    g_graph = gog.graph
    step_edges = [e for e, _x in core.pairs]
    counts = {}
    per_edge_cells = {}
    for k, edge in enumerate(ball.edges):
        wu, wv = ball.verts[edge.u], ball.verts[edge.v]
        reps = []
        for j in range(p):
            lam_o = lam[j]
            lam_t = g_graph.t(step_edges[j])
            if wu.tag == f"T/v{lam_o}" and wv.tag == f"T/v{lam_t}":
                x_o, x_t = wu.rep, wv.rep
            elif wv.tag == f"T/v{lam_o}" and wu.tag == f"T/v{lam_t}":
                x_o, x_t = wv.rep, wu.rep
            else:
                continue
            q_j = prefixes[j]
            q_next = GroupWord._trusted(gog, core.start, core.head,
                                        core.pairs[:j + 1])
            G_o = gog.vgroup(lam_o)
            x_t_inv = x_t.inverse()
            g = None
            for c in range(G_o.order):
                cand = reduce_word(
                    x_o * GroupWord._trusted(gog, lam_o, c) * q_j.inverse())
                # cand·q_next lies in the coset x_t·G_t exactly when the
                # loop x_t⁻¹·cand·q_next has a normal form without edges
                if not reduce_word(x_t_inv * cand * q_next).pairs:
                    g = cand
                    break
            if g is None:
                continue
            reps.append((j, g))
        classes = []
        for j, g in reps:
            placed = False
            for cls in classes:
                _j0, g0 = cls[0]
                delta = reduce_word(g0.inverse() * g)
                if _disc_stabilizer_power(oracle, delta) is not None:
                    cls.append((j, g))
                    placed = True
                    break
            if not placed:
                classes.append([(j, g)])
        counts[k] = len(classes)
        per_edge_cells[k] = [cls[0][0] for cls in classes]
    max_edge = max(counts, key=lambda k: counts[k]) if counts else None
    return {
        "edges": counts,
        "positions": per_edge_cells,
        "max_count": counts[max_edge] if counts else 0,
        "argmax_edge": max_edge,
        "period": p,
        "m": m,
        "certified": True,
        "note": "counts cover the full complex (transporter-local); "
                "every listed ball edge is audited",
    }


def check_M_thin(X: TwoComplexBall, M: int) -> dict:
    """Every audited 1-cell borders at most M 2-cells.

    With a certified incidence table the counts are exact for the full
    complex; otherwise materialized cells are counted per interior edge
    and boundary edges are excluded with a notice.
    """
    if X.incidence is not None:
        counts = X.incidence["edges"]
        mode = "certified-incidence"
        excluded = []
    else:
        eindex = X.edge_index()
        counts = {k: 0 for k in range(len(X.cells1))}
        for cell in X.cells2:
            n = len(cell.verts)
            for j in range(n):
                u, v = cell.verts[j], cell.verts[(j + 1) % n]
                k = eindex.get((min(u, v), max(u, v)))
                if k is not None:
                    counts[k] += 1
        interior = set()
        span = max((len(c.verts) + 1) // 2 for c in X.cells2) if X.cells2 else 0
        for k, e in enumerate(X.cells1):
            du = X.cells0[e.u].dist
            dv = X.cells0[e.v].dist
            if max(du, dv) + span <= X.radius:
                interior.add(k)
        excluded = sorted(set(counts) - interior)
        counts = {k: c for k, c in counts.items() if k in interior}
        mode = "materialized"
    max_count = max(counts.values()) if counts else 0
    argmax = (max(counts, key=lambda k: counts[k]) if counts else None)
    return {
        "verdict": max_count <= M,
        "M": M,
        "max_count": max_count,
        "argmax_edge": argmax,
        "per_edge": counts,
        "mode": mode,
        "excluded_boundary_edges": excluded,
    }


# -- the three thinness claims ----------------------------------------------


def claim_audit(gog, r: GroupWord, m: int,
                oracle: KernelOracle = None) -> dict:
    """Audit of the three counting claims behind M = k|r| on the base
    relator disc D (boundary = the loop of r^m):

    1. the rotation subgroup ⟨r⟩ collapses the m|r| boundary edges of D
       to at most |r| orbits (q_{j+|r|} = r·q_j, checked exactly);
    2. on a sample edge, the incident cells inject into those orbits —
       one transporter class per orbit, classes counted exactly when the
       edge stabilizers are trivial, and not checked (verdict None) else;
    3. per boundary edge t, [G̃_t : G̃_γ] with γ the compute_M geodesic
       stays within k, exhibiting the worst edge.
    """
    core, _prefixes, _lam = _relator_boundary(r)
    p = len(core.pairs)
    tc = _compute_M(core)
    r_len = tc.r_syllables

    # claim 1: period collapse and orbit count.  Boundary prefixes follow
    # the *concatenated* word r·r (the disc boundary path), not the
    # renormalized power, whose transversal rewriting may shuffle heads.
    n_edges = m * p
    cc = core * core if m >= 2 else core
    collapse_ok = True
    if m >= 2:
        for j in range(p):
            lhs = GroupWord._trusted(gog, cc.start, cc.head, cc.pairs[:j + p])
            q_j = GroupWord._trusted(gog, cc.start, cc.head, cc.pairs[:j])
            rhs = reduce_word(core * q_j)
            if not words_equal(lhs, rhs):
                collapse_ok = False
                break
    # the p first-period boundary edges are pairwise distinct: a reduced
    # loop word never backtracks, so its first period traces a geodesic
    # segment of the tree, which is embedded
    distinct = p
    claim1 = {
        "boundary_edges": n_edges,
        "period": p,
        "orbits": distinct,
        "r_syllables": r_len,
        "collapse_checked": collapse_ok,
        "verdict": collapse_ok and distinct <= max(r_len, p),
    }

    # claim 2: injection on a sample edge
    injection = {"edge": 0, "classes": None, "verdict": None,
                 "note": None}
    if _trivial_edge_groups(gog):
        if oracle is None:
            oracle = KernelOracle(gog, core, m)
        inc = thinness_incidence(gog, core, m, 2, oracle=oracle)
        sample = inc["argmax_edge"]
        classes = inc["positions"].get(sample, [])
        injection = {
            "edge": sample,
            "classes": classes,
            "cells_through_edge": inc["edges"].get(sample, 0),
            "verdict": (len(set(j % p for j in classes)) == len(classes)
                        and len(classes) <= r_len * tc.k),
            "note": "one transporter class per boundary orbit; distinct "
                    "classes certified through the kernel oracle",
        }
    else:
        injection["note"] = ("not checked: edge stabilizers are nontrivial, "
                             "and transporter classes need trivial ones")

    # claim 3: per-edge index along the witness geodesic against G̃_γ
    stabs = tc.stab_sets
    if stabs:
        g_gamma = frozenset.intersection(*stabs)
        per_edge = [len(s) // len(g_gamma) for s in stabs]
        worst = max(range(len(per_edge)), key=lambda i: per_edge[i])
        claim3 = {
            "k": tc.k,
            "per_edge": per_edge,
            "max_index": per_edge[worst],
            "witness_edge": tc.gamma[worst],
            "verdict": max(per_edge) <= tc.k,
        }
    else:
        claim3 = {"k": tc.k, "per_edge": [], "max_index": 1,
                  "witness_edge": None, "verdict": True}

    return {
        "orbit_bound": claim1,
        "injection": injection,
        "index_bound": claim3,
        "M": tc.M,
        "k": tc.k,
        "r_syllables": r_len,
    }


# -- homomorphism word problems ---------------------------------------------


class Evaluation:
    """Evaluation of loop words in a finite target, as built by
    :func:`evaluation_wp`.  Calling it answers the word problem (True when
    the word evaluates to the identity); ``image(word)`` is the target
    element itself, and ``key(word)`` the word's coset in the target, an
    exact key for quotient balls."""

    __slots__ = ("target", "images", "_by_edge", "_vimage")
    exact_key = True

    def __init__(self, gog, target, images):
        self.target = target
        self.images = images
        g = gog.graph
        self._by_edge = tuple(images[g.t(e)] for e in range(g.num_edges))
        self._vimage = tuple(tuple(sorted(set(row))) for row in images)

    def image(self, w: GroupWord) -> int:
        table, by_edge = self.target.table, self._by_edge
        acc = self.images[w.start][w.head]
        for e, x in w.pairs:
            acc = table[acc][by_edge[e][x]]
        return acc

    def __call__(self, w: GroupWord) -> bool:
        return self.image(w) == self.target.identity

    def key(self, w: GroupWord):
        """(w.end, least element of the left coset image(w)·image(G_v)).

        Evaluation does not change under ``reduce_word``: pinches and the
        transversal sweep move edge-group elements across edges, and the
        images agree on edge groups.  It is multiplicative under ``*`` and
        ``inverse``.  So, with ker(evaluation) = ⟨⟨R⟩⟩, w·x·w'⁻¹ lies in
        the kernel for some x in G_v exactly when the two cosets are
        equal, and equal keys mean the same quotient-ball vertex."""
        op = self.target.op
        g = self.image(w)
        return w.end, min(op(g, h) for h in self._vimage[w.end])


def evaluation_wp(gog, target, images):
    """Word problem by evaluation in a finite quotient: ``images[v][x]``
    is the target element of vertex-group element x at Λ-vertex v.  The
    maps must be homomorphisms agreeing on edge-group images (checked).
    The kernel of evaluation is then a normal subgroup containing the
    relators the caller quotients by.  That it *is* ⟨⟨R⟩⟩, so that
    evaluation solves the word problem of the quotient, is assumed, not
    checked; it holds when the relators present the target.

    Returns an :class:`Evaluation`: called on a word it returns a bool,
    and its ``key(word)``, the word's target coset, finds a quotient-ball
    vertex with one evaluation."""
    g = gog.graph
    for v in range(g.num_vertices):
        G = gog.vgroup(v)
        if len(images[v]) != G.order:
            raise ValueError(
                f"vertex {v}: need {G.order} images, got {len(images[v])}"
            )
        for a in range(G.order):
            for b in range(G.order):
                if images[v][G.op(a, b)] != target.op(images[v][a],
                                                      images[v][b]):
                    raise ValueError(
                        f"images at vertex {v} are not a homomorphism "
                        f"(breaks at {a}·{b})"
                    )
    for e in range(g.num_edges):
        C = gog.egroup(e)
        for c in range(C.order):
            lhs = images[g.t(e)][gog.inj[e].map[c]]
            rhs = images[g.o(e)][gog.inj[g.bar(e)].map[c]]
            if lhs != rhs:
                raise ValueError(
                    f"edge {e}: images disagree on edge-group element {c}"
                )

    return Evaluation(gog, target, tuple(tuple(row) for row in images))
