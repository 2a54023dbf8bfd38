"""Test-only helpers: seeded random words, the position list of a word,
hand-built balls, call counting, the SL2(Z) matrix oracle and job files
the schema rejects.  The named models, their words and the ball families
live in ``gogtools.models``."""

from __future__ import annotations

import random
import sys

from gogtools import models
from gogtools.gog import GroupWord

# test ids of the sweeps over the named models; they predate the registry
# keys and keep each parametrized test's name stable
MODEL_IDS = {models.sl2z: "sl2z_gog", models.c4c6_free: "c4_c6_free",
             models.c2c2_free: "c2_c2_free", models.s3_d4: "s3_d4_amalgam",
             models.hnn_c6: "hnn_c6", models.free_rank2: "free_rank2"}


def positions(w: GroupWord):
    """The word as a list of (vertex, element, incoming edge or None): the
    reference layout the piece comparison, the self-overlap and the Dehn
    scan are checked against."""
    t = w.gog.transversals.t
    return [(w.start, w.head, None)] + [(t[e], x, e) for e, x in w.pairs]


def random_amalgam_word(gog, rng: random.Random, max_syllables=12, start=0):
    """Random loop word; exponents may be zero so unreduced patterns occur."""
    n = rng.randrange(0, max_syllables + 1)
    syl = []
    side = rng.randrange(2)
    for _ in range(n):
        order = gog.vgroup(side).order
        syl.append((side, rng.randrange(order)))
        side = 1 - side
    return models.loop_word(gog, syl, start=start)


def random_hnn_word(gog, rng: random.Random, max_letters=10):
    """Random loop word in the one-vertex HNN fixture: alternating random
    vertex elements and random stable-letter directions."""
    n = rng.randrange(0, max_letters + 1)
    B = gog.vgroup(0)
    head = rng.randrange(B.order)
    pairs = []
    for _ in range(n):
        e = rng.randrange(2)
        pairs.append((e, rng.randrange(B.order)))
    return GroupWord(gog, 0, head, pairs)


def counting(monkeypatch, module, name):
    """Replace every gogtools binding of ``module.name`` with a wrapper
    that counts its calls; returns the one-element call-count list."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("gogtools")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


# -- faithful matrix oracle for the sl2z model ------------------------------

_S = ((0, -1), (1, 0))          # order 4
_U = ((0, -1), (1, 1))          # order 6, U^3 = S^2 = -I


def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _mat_pow(m, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


def sl2z_matrix(word):
    """Exact integer matrix of a word over the sl2z model C4 *_{C2} C6:
    vertex 0 elements are powers of S, vertex 1 elements powers of U;
    edges contribute nothing (the single geometric edge lies in the
    spanning tree)."""
    gog = word.gog
    out = _mat_pow(_S, word.head) if word.start == 0 else _mat_pow(_U, word.head)
    for e, x in word.pairs:
        v = gog.graph.t(e)
        out = _mat_mul(out, _mat_pow(_S if v == 0 else _U, x))
    return out


def hand_ball(edge_list, radius=None, tags=None):
    """GGraphBall from an undirected edge list on vertices 0..n-1; distances
    by BFS from vertex 0; default radius is generous so every star counts
    as complete (hand fixtures are whole finite complexes, not windows)."""
    from gogtools.cayley_abels import GEdge, GGraphBall, GVertex

    n = 1 + max(max(u, v) for u, v in edge_list)
    edges = [GEdge(f"h{k}", u, v, 1) for k, (u, v) in enumerate(edge_list)]
    blank = [GVertex("hv", None, None, 0, "triv", 1)] * n
    dist = GGraphBall(blank, edges, 0).bfs(0)[0]
    if radius is None:
        radius = max(dist.values()) + 100
    verts = [
        GVertex(tags[i] if tags else f"hv{i}", None, None, dist.get(i, 0),
                "triv", 1)
        for i in range(n)
    ]
    return GGraphBall(verts, edges, radius)


def cycle_ball(m, **kw):
    """The m-cycle as a hand-built ball."""
    return hand_ball([(i, (i + 1) % m) for i in range(m)], **kw)


# -- job files the schema rejects -------------------------------------------


def job(command, parameters):
    """A job file's content that writes its report to out/report.json."""
    return {"command": command, "parameters": parameters,
            "output": {"report": "out/report.json"}}


_LINE = {"family": "line", "radius": 4}

# (command, parameters) with one required parameter missing
MISSING_REQUIRED = [
    ("build-ca", {"variant": "coset", "ball": {"family": "line"}}),
    ("build-ca", {"variant": "coset", "ball": {"family": "cycle"}}),
    ("build-ca", {"variant": "coset", "ball": {"family": "tree", "radius": 2}}),
    ("build-tree", {"radius": 2}),
    ("attach", {"action": {"kind": "abelian", "ball": _LINE},
                "spec": {"kind": "uv", "u": 0}}),
    ("attach", {"action": {"kind": "abelian", "ball": _LINE},
                "spec": {"kind": "uH", "u": 0}}),
    ("attach", {"action": {"kind": "tree", "model": "sl2z"},
                "spec": {"kind": "uH", "u": 0, "H": "trivial"}}),
    ("qi", {"attach": {}}),
    ("fineness", {"family": "line", "v": 1, "k": 2, "radii": [2, 3]}),
    ("pi1", {"k": 4}),
]

_CPRIME = {"model": "c4c6_free", "word": {"ab": [1, 1, 2, 2, 3, 3]},
           "m": 12, "lam": "1/12"}

# jobs that validated once and then crashed a handler, with the path the
# schema violation now names
CRASH_PROBES = [
    (job("cprime", dict(_CPRIME, lam="1/0")), "$.parameters.lam"),
    (job("fineness", {"family": "cycle", "m": 1, "u": 0, "v": 0, "k": 1,
                      "radii": [1, 2]}), "$.parameters.m"),
    # integer-valued floats: JSON Schema's own integer type admits them
    (job("build-tree", {"model": "sl2z", "radius": 2.0}),
     "$.parameters.radius"),
    (job("cprime", dict(_CPRIME, m=12.0)), "$.parameters.m"),
]

# every schema-rejected job the front-end tests use, with its path
SCHEMA_PROBES = [
    (job("build-tree", {"model": "sl2z", "radius": -1}),
     "$.parameters.radius"),
    (job("frobnicate", {"model": "sl2z", "radius": 3}), "$.command"),
    (dict(job("build-tree", {"model": "sl2z", "radius": 3}), notes="scribble"),
     "$"),
] + [(job(command, params), "$.parameters" + at)
      for (command, params), at in zip(MISSING_REQUIRED, [
          ".ball", ".ball", ".ball", "", ".spec", ".spec", ".action",
          ".attach", "", ""])] + CRASH_PROBES
