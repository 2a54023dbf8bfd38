"""Concrete finite groups given by multiplication tables.

Conventions used throughout the toolkit:

* Elements of a group of order n are the dense integers 0..n-1; index 0 is not
  required to be the identity (the identity index is stored explicitly), though
  every constructor in this module does put it at 0.
* ``table[g][h]`` is the product g*h.
* Groups are immutable after construction and safe to share; subgroups hold a
  reference to their parent and a sorted tuple of element indices.

Construction checks the Latin-square property, a two-sided identity and
associativity, exactly at every order, by Light's test (Clifford–Preston,
*The Algebraic Theory of Semigroups* I, §1.2).  Call g associative when
(x·g)·y = x·(g·y) for all x, y.  Associative elements are closed under
products, (x·ab)·y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), and the
identity is one; so once generators, each checked over all x, y, reach every
element by right products from the identity, the table is associative.  Each
greedy pick at least doubles the reached subgroup: O(n²·log n) in all.
"""

from __future__ import annotations

from operator import itemgetter


class FiniteGroup:
    """A finite group as an order x order multiplication table."""

    def __init__(self, table):
        table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(table)
        if self.order == 0:
            raise ValueError("empty multiplication table")
        self.table = table
        self._check_latin()
        self.identity = self._find_identity()
        self._check_associativity()
        # in a group the right inverse (the identity's place in the row)
        # is the inverse
        self.inv = tuple(row.index(self.identity) for row in table)

    # -- construction-time checks -------------------------------------------

    def _check_latin(self):
        n = self.order
        full = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j, col in enumerate(zip(*self.table)):
            if set(col) != full:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")

    def _find_identity(self):
        ident = tuple(range(self.order))
        for e, row in enumerate(self.table):
            if row == ident and all(self.table[g][e] == g for g in ident):
                return e
        raise ValueError("table has no two-sided identity")

    def _check_associativity(self):
        """Light's test; see the module docstring."""
        n, t = self.order, self.table
        reached = {self.identity}
        gens = []
        g = 0
        while len(reached) < n:
            while g in reached:
                g += 1
            # row of x·g must be the row of x permuted by the row of g
            permute = itemgetter(*t[g])
            for x in range(n):
                lhs, rhs = t[t[x][g]], permute(t[x])
                if lhs != rhs:
                    y = next(y for y in range(n) if lhs[y] != rhs[y])
                    raise ValueError(f"associativity fails at ({x}, {g}, {y})")
            gens.append(g)
            stack = list(reached)
            while stack:
                x = stack.pop()
                for s in gens:
                    y = t[x][s]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)

    # -- arithmetic ---------------------------------------------------------

    def op(self, g, h):
        return self.table[g][h]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class Subgroup:
    """A subgroup as a sorted element-index tuple with a parent reference."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(int(x) for x in elements)))
        self._check()

    def _check(self):
        G = self.parent
        els = set(self.elements)
        for x in self.elements:
            if not 0 <= x < G.order:
                raise ValueError(f"element {x} out of range for order {G.order}")
        if G.identity not in els:
            raise ValueError("subgroup does not contain the identity")
        for a in self.elements:
            if G.inv[a] not in els:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in self.elements:
                if G.table[a][b] not in els:
                    raise ValueError(f"subgroup not closed at ({a}, {b})")
        if G.order % len(self.elements) != 0:
            raise ValueError("subgroup size does not divide group order")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Subgroup({list(self.elements)})"


class GroupHom:
    """A map between finite groups as a source-indexed array of target indices.

    Construction does not validate; call :func:`check_hom` to get a verdict
    plus the first violating pair.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map):
        self.source = source
        self.target = target
        self.map = tuple(int(x) for x in map)
        if len(self.map) != source.order:
            raise ValueError(
                f"map length {len(self.map)} != source order {source.order}"
            )
        for y in self.map:
            if not 0 <= y < target.order:
                raise ValueError(f"map value {y} out of range")

    def is_injective(self):
        return len(set(self.map)) == len(self.map)

    def __repr__(self):
        return f"GroupHom({list(self.map)})"


# -- operations -------------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, generator at index 1.

    >>> C4 = make_cyclic(4)
    >>> C4.op(1, 1), C4.op(2, 2)
    (2, 0)
    """
    if n < 1:
        raise ValueError(f"invalid order {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^k, n..2n-1
    the reflections s*r^k.  D_3 doubles as S_3."""
    if n < 1:
        raise ValueError(f"invalid order {n}")

    def mul(i, j):
        # element sigma*n + rho stands for s^sigma r^rho; s r s = r^-1
        rho1, sig1 = i % n, i // n
        rho2, sig2 = j % n, j // n
        sig = (sig1 + sig2) % 2
        rho = (rho1 + rho2) % n if sig2 == 0 else (rho2 - rho1) % n
        return sig * n + rho

    table = [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]
    return FiniteGroup(table)


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing gens (closure enumeration)."""
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"invalid element {g}")
    seen = {G.identity}
    frontier = [G.identity]
    gens = gens + [G.inv[g] for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return Subgroup(G, seen)


def left_cosets(G: FiniteGroup, H: Subgroup):
    """Partition of G into left cosets gH, H itself first, then by least
    unused representative."""
    if H.parent is not G:
        raise ValueError("subgroup parent mismatch")
    seen = set()
    cosets = []
    for g in [G.identity] + list(range(G.order)):
        if g in seen:
            continue
        coset = sorted(G.table[g][h] for h in H.elements)
        cosets.append(coset)
        seen.update(coset)
    assert len(cosets) * len(H) == G.order
    return cosets


def left_transversal(G: FiniteGroup, H: Subgroup):
    """Least-index representative per left coset, identity first."""
    return [c[0] if G.identity not in c else G.identity for c in left_cosets(G, H)]


def check_hom(h: GroupHom):
    """True iff multiplicative on all pairs; returns (ok, first violating pair)."""
    S, T, m = h.source, h.target, h.map
    if m[S.identity] != T.identity:
        return False, (S.identity, S.identity)
    for a in range(S.order):
        for b in range(S.order):
            if m[S.table[a][b]] != T.table[m[a]][m[b]]:
                return False, (a, b)
    return True, None
