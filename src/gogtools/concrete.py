"""Concrete group-element models and subgroup handles.

A *concrete group* is any object with the small duck-typed protocol used by
the coset-graph builder:

    identity            -- the identity element
    op(x, y), inv(x)    -- multiplication and inverse

``op`` and ``inv`` return each element in its one form, so two elements
are equal exactly when they are ``==``, and elements are hashable.

Subgroups travel as :class:`SubgroupHandle`: a membership predicate plus a
way to name cosets, either a full element enumeration (finite subgroups) or
a direct coset-key function for the infinite-subgroup cases where cosets
still have obvious canonical names (e.g. lines in ℤ²).  A handle with
neither is refused at construction.
"""

from __future__ import annotations

import operator

from .finite import FiniteGroup


class FiniteConcrete:
    """A finite group table as a concrete group; elements are indices."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    @property
    def identity(self):
        return self.group.identity

    def op(self, x, y):
        return self.group.op(x, y)

    def inv(self, x):
        return self.group.inv[x]


class FreeAbelian:
    """Free abelian group of finite rank; elements are integer tuples."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        self.rank = rank

    @property
    def identity(self):
        return (0,) * self.rank

    def op(self, x, y):
        return tuple(map(operator.add, x, y))

    def inv(self, x):
        return tuple(map(operator.neg, x))


class SubgroupHandle:
    """Subgroup as a membership predicate that can name its left cosets.

    ``coset_key(x)`` — when given — must name the left coset x·H canonically.
    Otherwise the key is the least op(x, h) over the enumeration
    ``elements``, so the group's elements must be orderable.  A handle
    with neither is refused: :meth:`key_of` always returns a key.
    """

    def __init__(self, name: str, contains, elements=None, coset_key=None,
                 is_finite=None):
        self.name = name
        self.contains = contains
        self.elements = list(elements) if elements is not None else None
        self.coset_key = coset_key
        if coset_key is None and self.elements is None:
            raise ValueError(
                f"subgroup handle {name!r} cannot name its cosets: "
                "give coset_key or elements"
            )
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
        return ("min", min(G.op(x, h) for h in self.elements))

    def __repr__(self):
        size = self.order if self.is_finite else "inf"
        return f"SubgroupHandle({self.name}, order={size})"


def trivial_handle(G) -> SubgroupHandle:
    ident = G.identity
    return SubgroupHandle("1", contains=lambda x: x == ident, elements=[ident])


def generated_handle(name: str, G, gens, cap: int = 10 ** 5) -> SubgroupHandle:
    """Closure of finitely many elements, for provably finite subgroups;
    aborts past ``cap`` elements."""
    seen = {G.identity}
    frontier = [G.identity]
    gens = list(gens) + [G.inv(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.op(x, g)
                if y not in seen:
                    if len(seen) + 1 > cap:
                        raise ValueError(
                            f"subgroup closure for {name!r} exceeded {cap} elements"
                        )
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return SubgroupHandle(name, contains=lambda x: x in seen,
                          elements=sorted(seen))
