"""Angle metrics, escaping-path sets, fineness diagnostics, the W/Z
containment machinery, equivariant edge attachments, α-replacement, and the
quasi-isometry certificate.

Conventions
-----------
All operations act on :class:`~gogtools.cayley_abels.GGraphBall` objects,
and every distance and shortest path is read from the one search,
:meth:`~gogtools.cayley_abels.GGraphBall.bfs`, which breaks ties by least
vertex index; witness paths and α geodesics are therefore fixed by the
ball's indexing alone.  The angle at v between neighbors x, y is the length
of the shortest x–y path in the ball minus v; unreachable is the explicit
:data:`INF` object, never a sentinel integer (and within a ball it is only a
lower-bound certificate).

The escaping set →uv(k) is computed through the second-vertex normal form:
w ∈ →uv(k) iff w is adjacent to u and the distance from w to v in the graph
minus u is at most k−1 (any escaping path through w shortcuts to one with w
immediately after u).  A direct DFS path enumerator with a path cap is kept
alongside as the audit companion.

Group actions enter through small action bundles (one for tree balls, one
for free-abelian coset balls) exposing the induced vertex map, stabilizer
enumerations, transporter sets, and a concrete-group view of the elements.
Attachments, the corner condition in the Z-step, and α-replacement all speak
through that interface.  Cone subgroups travel as
:class:`~gogtools.concrete.SubgroupHandle`; an infinite handle is accepted
but the resulting graph is labeled as outside the attachment theorem's
hypotheses.
"""

from __future__ import annotations

from fractions import Fraction

from .cayley_abels import GEdge, GGraphBall, GVertex, quotient_tree_ball
from .concrete import FreeAbelian, QuotientWords, SubgroupHandle
from .errors import CapExceeded
from .gog import GroupWord, reduce_word
from .tree import canonical_coset_word, stabilizer


class AngleInfinity:
    """Out-of-band infinite angle; compares greater than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf-within-ball"

    def __le__(self, other):
        return isinstance(other, AngleInfinity)

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return not isinstance(other, AngleInfinity)

    def __ge__(self, other):
        return True


INF = AngleInfinity()


def neighbors(ball: GGraphBall, v: int):
    return [j for j, _ in ball.nbrs[v]]


class AngleTable:
    """All angles at a base vertex: (x, y) → distance in ball − v."""

    def __init__(self, ball: GGraphBall, v: int):
        self.ball = ball
        self.v = v
        self.link = neighbors(ball, v)
        self._dist = {x: ball.bfs(x, avoid=v)[0] for x in self.link}

    def angle(self, x: int, y: int):
        if x not in self._dist or y not in self._dist:
            raise ValueError(f"{x} or {y} is not adjacent to {self.v}")
        d = self._dist[x].get(y)
        return INF if d is None else d

    def items(self):
        for x in self.link:
            for y in self.link:
                yield (x, y), self.angle(x, y)


def angle(ball: GGraphBall, v: int, x: int, y: int):
    """Angle at v between two of its neighbors (INF when the ball minus v
    does not connect them — a lower-bound certificate only)."""
    nbrs = set(neighbors(ball, v))
    if x not in nbrs or y not in nbrs:
        raise ValueError(f"{x} or {y} is not adjacent to {v}")
    d = ball.bfs(x, avoid=v)[0].get(y)
    return INF if d is None else d


def _trace_back(parent, x):
    """Vertex path from x back to the source of the search behind
    ``parent`` (a :meth:`GGraphBall.bfs` parent dict)."""
    path = [x]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]][0])
    return path


class EscapingPathSet:
    """→uv(k): second vertices of escaping paths, with one witness each.

    ``exact`` records whether the ball provably contains every escaping path
    of length ≤ k from u (radius margin of k+1 around u); otherwise the set
    carries the partial-result flag.
    """

    __slots__ = ("u", "v", "k", "members", "witnesses", "exact")

    def __init__(self, u, v, k, members, witnesses, exact):
        self.u = u
        self.v = v
        self.k = k
        self.members = frozenset(members)
        self.witnesses = dict(witnesses)
        self.exact = exact

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        flag = "exact" if self.exact else "partial"
        return (f"EscapingPathSet(u={self.u}, v={self.v}, k={self.k}, "
                f"size={len(self)}, {flag})")


def escaping_vectors(ball: GGraphBall, u: int, v: int, k: int) -> EscapingPathSet:
    if u == v:
        raise ValueError("escaping sets need distinct endpoints")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dist_v, prev = ball.bfs(v, avoid=u)
    members = []
    witnesses = {}
    for w in neighbors(ball, u):
        d = dist_v.get(w)
        if d is None or d > k - 1:
            continue
        members.append(w)
        witnesses[w] = [u] + _trace_back(prev, w)
    exact = (ball.radius - ball.verts[u].dist) >= k + 1
    return EscapingPathSet(u, v, k, members, witnesses, exact)


def enumerate_escaping_paths(ball: GGraphBall, u: int, v: int, k: int,
                             cap: int = 10 ** 6):
    """Every escaping path from u to v of length ≤ k, by DFS.  The audit
    companion of :func:`escaping_vectors`; aborts past ``cap`` paths."""
    out = []
    stack = [[u, w] for w in reversed(neighbors(ball, u))]
    while stack:
        path = stack.pop()
        if path[-1] == v:
            out.append(path)
            if len(out) > cap:
                raise CapExceeded(
                    f"escaping-path enumeration exceeded {cap} paths",
                    detail={"paths": len(out)},
                )
        if len(path) - 1 < k:
            for y in reversed(neighbors(ball, path[-1])):
                if y != u:
                    stack.append(path + [y])
    return out


def _member_keys(ball: GGraphBall, es: EscapingPathSet):
    return frozenset(
        (ball.verts[w].tag, repr(ball.verts[w].key)) for w in es.members
    )


def fineness_report(family, locate_u, locate_v, k: int, radii) -> dict:
    """Stabilization verdict for →uv(k) across a family of balls.

    ``family(R)`` builds the ball; ``locate_u``/``locate_v`` find the two
    vertices in each ball (indices are not stable across radii, so locators
    work by content).  Verdict STABLE means the member sets at the top two
    radii agree — a certificate of exact computation, since escaping paths
    of length ≤ k live in the (k+1)-ball of u.  GROWING ships at least three
    concrete witness paths.
    """
    radii = list(radii)
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be increasing with at least 2 entries: {radii}")
    if radii[-1] < k + 1:
        raise ValueError(f"max radius {radii[-1]} below k+1 = {k + 1}")
    cards = []
    key_sets = []
    last = None
    for R in radii:
        ball = family(R)
        u, v = locate_u(ball), locate_v(ball)
        es = escaping_vectors(ball, u, v, k)
        cards.append(len(es))
        key_sets.append(_member_keys(ball, es))
        last = (ball, es)
    ball, es = last
    stable = key_sets[-1] == key_sets[-2]
    report = {
        "query": {"u": repr(ball.verts[es.u].key),
                  "v": repr(ball.verts[es.v].key), "k": k},
        "radii": radii,
        "cardinalities": cards,
        "verdict": "STABLE" if stable else "GROWING",
        "witnesses": [],
    }
    if not stable:
        new = key_sets[-1] - key_sets[-2]
        picks = [w for w in sorted(es.members)
                 if (ball.verts[w].tag, repr(ball.verts[w].key)) in new]
        for w in sorted(es.members):
            if w not in picks:
                picks.append(w)
        paths = [es.witnesses[w] for w in picks[: max(3, min(len(new), 10))]]
        if len(paths) < 3:
            # fewer than 3 members: top up with distinct paths outright
            for p in enumerate_escaping_paths(ball, es.u, es.v, k, cap=10 ** 4):
                if p not in paths:
                    paths.append(p)
                if len(paths) >= 3:
                    break
        report["witnesses"] = [
            [repr(ball.verts[i].key) for i in p] for p in paths
        ]
    return report


# -- action bundles ---------------------------------------------------------


class TreeBallAction:
    """The fundamental group acting on a tree ball (as a GGraphBall).

    Group elements are reduced loop words at the base vertex; the bundle
    exposes the induced vertex map, stabilizer enumerations, and transporter
    sets, which is all the attachment and W/Z machinery needs.
    """

    def __init__(self, gog, R: int, base: int = 0):
        self.ball = quotient_tree_ball(gog, [], R, base=base)
        self.concrete = QuotientWords(gog, base)
        self.identity = self.concrete.identity

    def mul(self, a: GroupWord, b: GroupWord) -> GroupWord:
        return reduce_word(a * b)

    def inv(self, a: GroupWord) -> GroupWord:
        return reduce_word(a.inverse())

    def apply(self, g: GroupWord, i: int):
        """Image vertex index of i under g, or None when out of ball."""
        word = canonical_coset_word(g * self.ball.verts[i].rep)
        return self.ball.lookup.find(word)

    def stab_elements(self, i: int):
        """Stabilizer of vertex i, enumerated as reduced loop words."""
        return stabilizer(("v", i), self.ball).elements

    def transporters(self, src: int, dst: int):
        """All g with g·src = dst that the ball can certify: Stab(dst)·t."""
        ws, wd = self.ball.verts[src].rep, self.ball.verts[dst].rep
        if ws.end != wd.end:
            return []
        t = self.mul(wd, self.inv(ws))
        return [self.mul(s, t) for s in self.stab_elements(dst)]


class AbelianBallAction:
    """Translation action on a free-abelian coset ball with trivial U."""

    def __init__(self, ball: GGraphBall):
        self.ball = ball
        self._index = {}
        rank = None
        for i, v in enumerate(ball.verts):
            if v.tag == "G/U":
                self._index[tuple(v.rep)] = i
                rank = len(v.rep)
        if rank is None:
            raise ValueError("ball carries no G/U vertices")
        self.concrete = FreeAbelian(rank)
        self.identity = self.concrete.identity

    def apply(self, g, i: int):
        v = self.ball.verts[i]
        if v.tag != "G/U":
            return None
        return self._index.get(tuple(x + y for x, y in zip(g, v.rep)))

    def stab_elements(self, i: int):
        return [self.identity]

    def transporters(self, src: int, dst: int):
        u, v = self.ball.verts[src], self.ball.verts[dst]
        if u.tag != "G/U" or v.tag != "G/U":
            return []
        return [tuple(y - x for x, y in zip(u.rep, v.rep))]


# -- equivariant attachments ------------------------------------------------


class Attachment:
    """Record of one edge-orbit attachment: the Δ ball plus the data the
    W/Z machinery and α-replacement consume."""

    __slots__ = ("kind", "gamma", "delta", "action", "new_edges", "cones",
                 "rep_cone", "outside_theorem")

    def __init__(self, kind, gamma, delta, action, new_edges, cones=None,
                 rep_cone=None, outside_theorem=False):
        self.kind = kind
        self.gamma = gamma
        self.delta = delta
        self.action = action
        self.new_edges = tuple(new_edges)
        self.cones = dict(cones or {})
        self.rep_cone = rep_cone
        self.outside_theorem = outside_theorem


def attach_edge_orbit(action, spec) -> Attachment:
    """Attach one G-orbit of edges to the ball behind ``action``.

    spec = {"kind": "uv", "u": i, "v": j}
         | {"kind": "uH", "u": i, "H": SubgroupHandle}

    The {u,v} form adds the orbit of the edge {u,v}; the {u,H} form adds one
    new vertex per coset gH in range, adjacent to the orbit points g·h·u.
    An infinite H is accepted but the result is labeled outside the
    attachment theorem's hypotheses.  The attachment is rejected with a
    diagnostic when the orbit would create a loop or double an existing edge
    (non-simplicial result).
    """
    ball = action.ball
    if spec["kind"] == "uv":
        u, v = spec["u"], spec["v"]
        if u == v:
            raise ValueError("attachment representative {u,v} needs u != v")
        existing = {(min(e.u, e.v), max(e.u, e.v)) for e in ball.edges}
        pairs = []
        seen = set()
        for x in range(ball.vertex_count()):
            for g in action.transporters(u, x):
                y = action.apply(g, v)
                if y is None:
                    continue
                if x == y:
                    raise ValueError(
                        f"attachment rejected: a translate of ({u},{v}) "
                        f"degenerates to a loop at vertex {x}"
                    )
                pair = (min(x, y), max(x, y))
                if pair in existing:
                    raise ValueError(
                        f"attachment rejected: a translate of ({u},{v}) doubles "
                        f"the existing edge {pair}"
                    )
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        stab_order = sum(
            1 for s in action.stab_elements(u) if action.apply(s, v) == v
        )
        edges = list(ball.edges)
        adjacency = [list(a) for a in ball.adjacency]
        new_edges = []
        for x, y in pairs:
            k = len(edges)
            edges.append(GEdge("attach:uv", x, y, stab_order))
            adjacency[x].append((y, k))
            adjacency[y].append((x, k))
            new_edges.append(k)
        delta = GGraphBall(ball.verts, edges, adjacency, ball.radius,
                           ball.notes + ("attached uv-orbit",))
        return Attachment("uv", ball, delta, action, new_edges)

    if spec["kind"] != "uH":
        raise ValueError(f"unknown attachment kind {spec['kind']!r}")
    u = spec["u"]
    H = spec["H"]
    if not isinstance(H, SubgroupHandle):
        raise ValueError("the {u,H} form needs a SubgroupHandle")
    G = action.concrete
    # cosets gH in range: every cone adjacent to a ball vertex x = g·h·u
    # arises from a transporter t: u → x, as the coset t·s·H, s ∈ Stab(u)
    cones = {}
    order = []
    for x in range(ball.vertex_count()):
        for t in action.transporters(u, x):
            key = H.key_of(G, t)
            if key not in cones:
                cones[key] = {"nbrs": set(), "rep": t}
                order.append(key)
            cones[key]["nbrs"].add(x)
    edge_stab = None
    if H.elements is not None:
        edge_stab = sum(1 for h in H.elements if action.apply(h, u) == u)
    verts = list(ball.verts)
    adjacency = [list(a) for a in ball.adjacency]
    edges = list(ball.edges)
    new_edges = []
    index_of = {}
    for key in order:
        nbr = cones[key]["nbrs"]
        dist = 1 + min(ball.verts[x].dist for x in nbr)
        idx = len(verts)
        index_of[key] = idx
        verts.append(GVertex(f"cone:{H.name}", cones[key]["rep"], key, dist,
                             H.name, H.order))
        adjacency.append([])
        for x in sorted(nbr):
            k = len(edges)
            edges.append(GEdge(f"attach:{H.name}", x, idx, edge_stab))
            adjacency[x].append((idx, k))
            adjacency[idx].append((x, k))
            new_edges.append(k)
    notes = ball.notes + (f"attached cone orbit over subgroup {H.name}",)
    outside = not H.is_finite
    if outside:
        notes = notes + (
            f"cone subgroup {H.name} is not finite: outside the attachment "
            "theorem's hypotheses",
        )
    delta = GGraphBall(verts, edges, adjacency, ball.radius, notes)
    rep_key = H.key_of(G, action.identity)
    cone_table = {
        key: {"index": index_of[key], "nbrs": sorted(cones[key]["nbrs"])}
        for key in order
    }
    return Attachment("uH", ball, delta, action, new_edges, cones=cone_table,
                      rep_cone=rep_key, outside_theorem=outside)


def alpha_geodesics(gamma: GGraphBall, nbr_list):
    """Chosen shortest connecting paths α_{ij} in Γ over an ordered list of
    cone neighbors, ties broken by least vertex index along the BFS."""
    alpha = {}
    for i in nbr_list:
        prev = gamma.bfs(i)[1]
        for j in nbr_list:
            if j not in prev:
                raise ValueError(f"vertices {i}, {j} not connected in ball")
            alpha[(i, j)] = _trace_back(prev, j)[::-1]
    return alpha


def alpha_for_attachment(attachment: Attachment):
    """The full α dictionary for every cone of a {u,H} attachment."""
    alpha = {}
    for info in attachment.cones.values():
        alpha.update(alpha_geodesics(attachment.gamma, info["nbrs"]))
    return alpha


def alpha_replacement(delta_path, attachment: Attachment, alpha):
    """Replace cone corners of a Δ-path by their chosen α geodesics in Γ.

    Interior corners [x, cone, y] are spliced with alpha[(x, y)]; a terminal
    or initial cone vertex is dropped.  Returns the Γ-path as a vertex-index
    list; a corner whose pair is missing from ``alpha`` is a missing-alpha
    error.
    """
    gamma = attachment.gamma
    n_gamma = gamma.vertex_count()

    def is_cone(i):
        return i >= n_gamma

    path = list(delta_path)
    if path and is_cone(path[-1]):
        path = path[:-1]
    if path and is_cone(path[0]):
        path = path[1:]
    out = []
    i = 0
    while i < len(path):
        x = path[i]
        if not is_cone(x):
            out.append(x)
            i += 1
            continue
        a, b = out[-1], path[i + 1]
        if (a, b) not in alpha:
            raise ValueError(
                f"missing-alpha: corner [{a}, cone {x}, {b}] has no recorded "
                "geodesic"
            )
        out.extend(alpha[(a, b)][1:])
        i += 2
    return out


def qi_certificate(gamma: GGraphBall, delta: GGraphBall) -> dict:
    """Fitted multiplicative constant for Γ ↪ Δ with exhaustive inner-pair
    verification of dist_Δ ≤ dist_Γ ≤ ℓ·dist_Δ."""
    if delta.vertex_count() < gamma.vertex_count():
        raise ValueError("Δ must extend Γ (same leading vertex indices)")
    # every vertex of Δ beyond Γ must be adjacent to a vertex of Γ
    stray = [
        i for i in range(gamma.vertex_count(), delta.vertex_count())
        if not any(j < gamma.vertex_count() for j in neighbors(delta, i))
    ]
    inner = [
        i for i in range(gamma.vertex_count())
        if gamma.verts[i].dist <= gamma.radius // 2
    ]
    ell = Fraction(1)
    witness = None
    violations = []
    pair_data = []
    for a in inner:
        dg = gamma.bfs(a)[0]
        dd = delta.bfs(a)[0]
        for b in inner:
            if b <= a:
                continue
            x, y = dg.get(b), dd.get(b)
            if x is None or y is None:
                continue
            pair_data.append((a, b, x, y))
            if y > x:
                violations.append({"pair": (a, b), "gamma": x, "delta": y,
                                   "reason": "delta distance exceeds gamma"})
            elif y and Fraction(x, y) > ell:
                ell = Fraction(x, y)
                witness = (a, b, x, y)
    # exhaustive re-verification with the fitted constant
    for a, b, x, y in pair_data:
        if not (y <= x <= ell * y):
            violations.append({"pair": (a, b), "gamma": x, "delta": y,
                               "reason": "outside fitted bound"})
    return {
        "ell": ell,
        "additive": 0,
        "witness": witness,
        "inner_vertices": len(inner),
        "pairs_checked": len(pair_data),
        "stray_delta_vertices": stray,
        "violations": violations,
    }


# -- the W/Z machinery ------------------------------------------------------


def verify_wz_containment(W_list, Z_list):
    """Check W_j ⊆ Z_{j-1} ⊆ W_{j-1} along the two descending sequences
    [W_n, ..., W_0] and [Z_{n-1}, ..., Z_0].  Returns violation strings."""
    problems = []
    n = len(W_list) - 1
    for step in range(n):
        j = n - step
        W_j, Z_jm1, W_jm1 = W_list[step], Z_list[step], W_list[step + 1]
        if not W_j <= Z_jm1:
            problems.append(
                f"W_{j} not within Z_{j - 1}: missing {sorted(W_j - Z_jm1)}"
            )
        if not Z_jm1 <= W_jm1:
            problems.append(
                f"Z_{j - 1} not within W_{j - 1}: missing {sorted(Z_jm1 - W_jm1)}"
            )
    return problems


def wz_chain(attachment: Attachment, a: int, b: int, n: int) -> dict:
    """The descending sets W_n ⊇ ... ⊇ W_0 and Z_{n-1} ⊇ ... ⊇ Z_0 at a.

    W_n = →ab(n)_Γ.  The Z-step adjoins every z adjacent to a for which some
    translate g of a corner [p, m, q] of a chosen α geodesic lands as
    [z, a, w] with w in the current W (g running over the transporters
    m → a).  The W-step collects the neighbors of a within angle n of Z.
    The containment chain is asserted; ``n`` is the working constant (k·ℓ in
    the intended use) and the report carries ℓ for the caller to confirm.
    """
    if attachment.kind != "uH":
        raise ValueError("the W/Z machinery runs over a {u,H} attachment")
    gamma = attachment.gamma
    action = attachment.action
    rep = attachment.cones[attachment.rep_cone]
    alpha = alpha_geodesics(gamma, rep["nbrs"])
    ell = max((len(p) - 1 for p in alpha.values()), default=0)

    table = AngleTable(gamma, a)
    link = set(table.link)

    corners = []
    for (i, j), path in sorted(alpha.items()):
        for t in range(1, len(path) - 1):
            corners.append((path[t - 1], path[t], path[t + 1]))

    W = set(escaping_vectors(gamma, a, b, n).members)
    W_list = [frozenset(W)]
    Z_list = []
    for _ in range(n):
        Z = set(W)
        for (p, m, q) in corners:
            for g in action.transporters(m, a):
                w_img = action.apply(g, q)
                if w_img is None or w_img not in W:
                    continue
                z_img = action.apply(g, p)
                if z_img is not None and z_img in link:
                    Z.add(z_img)
        W_next = set()
        for w in link:
            for z in Z:
                ang = table.angle(z, w)
                if not isinstance(ang, AngleInfinity) and ang <= n:
                    W_next.add(w)
                    break
        Z_list.append(frozenset(Z))
        W_list.append(frozenset(W_next))
        W = W_next
    violations = verify_wz_containment(W_list, Z_list)
    return {
        "ell": ell,
        "n": n,
        "corner_count": len(corners),
        "W_cardinalities": [len(s) for s in W_list],
        "Z_cardinalities": [len(s) for s in Z_list],
        "W_sets": W_list,
        "Z_sets": Z_list,
        "violations": violations,
        "all_finite": True,
    }
