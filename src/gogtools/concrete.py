"""Concrete group-element models and subgroup handles.

A *concrete group* is any object with the small duck-typed protocol used by
the coset-graph builder:

    identity            -- the identity element
    op(x, y), inv(x)    -- multiplication and inverse
    eq(x, y)            -- equality of elements (an equivalence compatible
                           with op)
    has_canon           -- bool; when True, canon(x) returns a hashable
                           canonical form constant on equality classes
    canon(x)            -- canonical form (only meaningful if has_canon)
    generators          -- default generating list (may be empty)

Subgroups travel as :class:`SubgroupHandle`: a membership predicate plus,
when finite, a full element enumeration, and optionally a direct coset-key
function for the infinite-subgroup cases where cosets still have obvious
canonical names (e.g. lines in ℤ²).
"""

from __future__ import annotations

from .finite import FiniteGroup
from .gog import GraphOfGroups, GroupWord, identity_word, reduce_word


class FiniteConcrete:
    """A finite group table as a concrete group; elements are indices."""

    has_canon = True

    def __init__(self, group: FiniteGroup, generators=None):
        self.group = group
        self.generators = list(generators) if generators is not None else []

    @property
    def identity(self):
        return self.group.identity

    def op(self, x, y):
        return self.group.op(x, y)

    def inv(self, x):
        return self.group.inv[x]

    def eq(self, x, y):
        return x == y

    def canon(self, x):
        return x


class FreeAbelian:
    """Free abelian group of finite rank; elements are integer tuples."""

    has_canon = True

    def __init__(self, rank: int, generators=None):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        self.rank = rank
        if generators is None:
            generators = [
                tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
            ]
        self.generators = [tuple(g) for g in generators]

    @property
    def identity(self):
        return (0,) * self.rank

    def op(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def eq(self, x, y):
        return tuple(x) == tuple(y)

    def canon(self, x):
        return tuple(x)


class MatrixGroup:
    """2×2 integer matrices of determinant 1; elements are ((a,b),(c,d))."""

    has_canon = True

    def __init__(self, generators=None):
        self.generators = [self._check(m) for m in (generators or [])]

    @staticmethod
    def _check(m):
        m = (tuple(m[0]), tuple(m[1]))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 1:
            raise ValueError(f"matrix {m} has determinant {det}, expected 1")
        return m

    @property
    def identity(self):
        return ((1, 0), (0, 1))

    def op(self, x, y):
        return (
            (
                x[0][0] * y[0][0] + x[0][1] * y[1][0],
                x[0][0] * y[0][1] + x[0][1] * y[1][1],
            ),
            (
                x[1][0] * y[0][0] + x[1][1] * y[1][0],
                x[1][0] * y[0][1] + x[1][1] * y[1][1],
            ),
        )

    def inv(self, x):
        # adjugate; valid since det = 1
        return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))

    def eq(self, x, y):
        return x == y

    def canon(self, x):
        return x


class QuotientWords:
    """Loops of a graph of groups at a base vertex, modulo the normal closure
    of a relator set decided by a word-problem callable.

    ``wp`` takes a loop word and returns True (the word lies in the normal
    closure), False, or None for "cannot decide", which is surfaced as a
    ValueError.  With ``wp=None`` the kernel is trivial and reduced words are
    themselves canonical, so ``has_canon`` flips on.
    """

    def __init__(self, gog: GraphOfGroups, base: int = 0, wp=None,
                 generators=None):
        self.gog = gog
        self.base = base
        self.wp = wp
        self.has_canon = wp is None
        self.generators = list(generators) if generators is not None else []

    @property
    def identity(self):
        return identity_word(self.gog, self.base)

    def _reduce(self, w: GroupWord) -> GroupWord:
        return reduce_word(w)

    def op(self, x, y):
        return self._reduce(x * y)

    def inv(self, x):
        return self._reduce(x.inverse())

    def eq(self, x, y):
        d = self._reduce(x * y.inverse())
        if d.is_identity():
            return True
        if self.wp is None:
            return False
        verdict = self.wp(d)
        if verdict is None:
            raise ValueError(
                f"word-problem oracle could not decide membership for {d!r}"
            )
        return verdict

    def canon(self, x):
        return self._reduce(x)


class SubgroupHandle:
    """Subgroup as a membership predicate, with optional finite enumeration
    and optional direct coset naming.

    ``coset_key(x)`` — when given — must name the left coset x·H canonically.
    Otherwise, for finite H inside a group with canonical forms, the key is
    the minimum of canon(x·h) over the enumeration.  When neither route
    exists, :meth:`key_of` returns None and callers fall back to predicate
    scans.
    """

    def __init__(self, name: str, contains, elements=None, coset_key=None,
                 is_finite=None):
        self.name = name
        self.contains = contains
        self.elements = list(elements) if elements is not None else None
        self.coset_key = coset_key
        if is_finite is None:
            is_finite = elements is not None
        self.is_finite = bool(is_finite)
        if self.is_finite and self.elements is None:
            raise ValueError(f"finite subgroup handle {name!r} needs an enumeration")

    @property
    def order(self):
        return len(self.elements) if self.elements is not None else None

    def key_of(self, G, x):
        if self.coset_key is not None:
            return ("ck", self.coset_key(x))
        if self.elements is not None and G.has_canon:
            return ("min", min(G.canon(G.op(x, h)) for h in self.elements))
        return None

    def same_coset(self, G, x, y):
        """x·H = y·H, decided by membership of x⁻¹y."""
        return bool(self.contains(G.op(G.inv(x), y)))

    def __repr__(self):
        size = self.order if self.is_finite else "inf"
        return f"SubgroupHandle({self.name}, order={size})"


def trivial_handle(G) -> SubgroupHandle:
    ident = G.identity
    return SubgroupHandle(
        "1", contains=lambda x: G.eq(x, ident), elements=[ident]
    )


def generated_handle(name: str, G, gens, cap: int = 10 ** 5) -> SubgroupHandle:
    """Closure of finitely many elements, for provably finite subgroups.
    Requires canonical forms; aborts past ``cap`` elements."""
    if not G.has_canon:
        raise ValueError("generated_handle needs canonical forms to close a set")
    seen = {G.canon(G.identity): G.identity}
    frontier = [G.identity]
    gens = list(gens) + [G.inv(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.op(x, g)
                ky = G.canon(y)
                if ky not in seen:
                    if len(seen) + 1 > cap:
                        raise ValueError(
                            f"subgroup closure for {name!r} exceeded {cap} elements"
                        )
                    seen[ky] = y
                    nxt.append(y)
        frontier = nxt
    elements = [seen[k] for k in sorted(seen)]
    member = set(seen)
    return SubgroupHandle(name, contains=lambda x: G.canon(x) in member,
                          elements=elements)
