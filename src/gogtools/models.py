"""The worked examples by name: graphs of groups, words on them, and the
ball families built from them.

The front end resolves the model names, word descriptors and ball
families of a job here, and the tests build the same objects from the
same functions.  A reference that does not resolve raises ``ValueError``,
which the front end reports as a malformed job (exit 2).  Each function
imports the toolkit modules it calls, so a job process loads only what
its command uses.
"""

from __future__ import annotations

# -- named models: each call builds a fresh graph of groups ------------------


def sl2z():
    """C4 ∗_{C2} C6 (vertex 0 = C4, vertex 1 = C6), the standard splitting
    of SL2(ℤ); the C2 generator maps to a² and b³."""
    from .finite import make_cyclic
    from .gog import amalgam

    C4, C6, C2 = make_cyclic(4), make_cyclic(6), make_cyclic(2)
    return amalgam(C4, C6, C2, [0, 2], [0, 3])


def c4c6_free():
    from .finite import make_cyclic
    from .gog import free_product

    return free_product(make_cyclic(4), make_cyclic(6))


def c2c2_free():
    from .finite import make_cyclic
    from .gog import free_product

    return free_product(make_cyclic(2), make_cyclic(2))


def s3_d4():
    """S3 ∗_{C2} D4 with C2 = ⟨a transposition⟩ in S3 (not central) and
    C2 = ⟨r²⟩, the center, in D4."""
    from .finite import make_cyclic, make_dihedral
    from .gog import amalgam

    S3, D4, C2 = make_dihedral(3), make_dihedral(4), make_cyclic(2)
    return amalgam(S3, D4, C2, [0, 3], [0, 2])


def hnn_c6():
    """The HNN extension of C6 over A = ⟨b²⟩ = {0, 2, 4}, α(b²) = b⁴."""
    from .finite import make_cyclic
    from .gog import hnn_sub

    return hnn_sub(make_cyclic(6), [0, 2, 4], [0, 4, 2])


def free_rank2():
    """F2: one trivial vertex group, two loops with trivial edge groups."""
    from .finite import GroupHom, make_cyclic
    from .gog import GraphOfGroups, SerreGraph

    C1 = make_cyclic(1)
    graph = SerreGraph(1, [(0, 0), (0, 0)])
    triv = GroupHom(C1, C1, [0])
    return GraphOfGroups(graph, [C1], [C1, C1], [triv, triv, triv, triv])


MODELS = {
    "sl2z": sl2z,
    "c4c6_free": c4c6_free,
    "c2c2_free": c2c2_free,
    "s3_d4": s3_d4,
    "hnn_c6": hnn_c6,
    "free_rank2": free_rank2,
}


def model(name):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    return MODELS[name]()


# -- words ------------------------------------------------------------------


def edge_between(gog, u, v):
    """The first directed edge from u to v."""
    g = gog.graph
    for e in range(g.num_edges):
        if g.o(e) == u and g.t(e) == v:
            return e
    raise ValueError(f"model has no edge {u} -> {v} for this word")


def loop_word(gog, syllables, start=0):
    """The loop word at ``start`` through the (vertex, element) syllables,
    each entered by the first edge from the vertex before it.  A first
    syllable at another vertex follows a trivial head, and a trivial
    syllable at ``start`` closes a word that ends elsewhere."""
    from .gog import GroupWord, identity_word

    if not syllables:
        return identity_word(gog, start)
    head_v, head_x = syllables[0]
    if head_v == start:
        head, rest = head_x, syllables[1:]
    else:
        head, rest = gog.vgroup(start).identity, syllables
    at = start
    pairs = []
    for v, x in rest:
        pairs.append((edge_between(gog, at, v), x))
        at = v
    if at != start:
        pairs.append((edge_between(gog, at, start), gog.vgroup(start).identity))
    return GroupWord(gog, start, head, pairs)


def ab_word(gog, exponents, start=0):
    """a^e1 b^e2 a^e3 … on a two-vertex model: the exponents alternate
    between the vertex groups, vertex 0 first, each taken modulo the order
    of its group."""
    if gog.graph.num_vertices != 2:
        raise ValueError("'ab' words need a model with exactly two vertices")
    syllables = [(i % 2, k % gog.vgroup(i % 2).order)
                 for i, k in enumerate(exponents)]
    return loop_word(gog, syllables, start=start)


def word(gog, desc):
    """Resolve a word descriptor to its canonical form: {"ab": [...]}
    (:func:`ab_word`) or {"syllables": [[vertex, element], ...]}
    (:func:`loop_word`), with an optional "start" vertex; an optional
    "power" raises the word."""
    from .smallcanc import word_power

    start = desc.get("start", 0)
    if not 0 <= start < gog.graph.num_vertices:
        raise ValueError(f"start {start} is not a vertex of the model")
    if "ab" in desc:
        w = ab_word(gog, desc["ab"], start=start)
    elif "syllables" in desc:
        w = loop_word(gog, [tuple(s) for s in desc["syllables"]], start=start)
    else:
        raise ValueError(f"word descriptor needs 'ab' or 'syllables': {desc!r}")
    return word_power(w, desc.get("power", 1))


# -- ball families ----------------------------------------------------------


def ball(spec, cap=10 ** 6):
    """The ball a family descriptor names, with at most ``cap`` vertices:
    {"family": "line" | "grid" | "coned_plane", "radius": R}, the Cayley
    ball of ℤ or ℤ² (the coned plane adds one cone vertex per horizontal
    line); {"family": "cycle", "m": m}, the whole Cayley graph of C_m; or
    {"family": "tree", "model": name, "radius": R}, a Bass–Serre tree
    ball."""
    from .cayley_abels import coset_graph_ball, quotient_tree_ball
    from .concrete import (
        FiniteConcrete,
        FreeAbelian,
        SubgroupHandle,
        trivial_handle,
    )
    from .finite import make_cyclic

    fam = spec["family"]
    if fam == "line":
        Z = FreeAbelian(1)
        return coset_graph_ball(Z, trivial_handle(Z), [(1,)], [],
                                spec["radius"], cap=cap)
    if fam in ("grid", "coned_plane"):
        Z2 = FreeAbelian(2)
        lines = [SubgroupHandle(
            "line", contains=lambda x: x[1] == 0, coset_key=lambda x: x[1],
            is_finite=False)] if fam == "coned_plane" else []
        return coset_graph_ball(Z2, trivial_handle(Z2), [(1, 0), (0, 1)],
                                lines, spec["radius"], cap=cap)
    if fam == "cycle":
        m = spec["m"]
        G = FiniteConcrete(make_cyclic(m))
        return coset_graph_ball(G, trivial_handle(G), [1], [], m, cap=cap)
    # "tree", the last family the schema allows
    return quotient_tree_ball(model(spec["model"]), [], spec["radius"],
                              cap=cap)
