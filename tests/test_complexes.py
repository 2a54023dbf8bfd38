"""Coning, links, puncture correspondence, π₁ plumbing, and estimates.

Independent oracles: grid 2-cell counts recomputed arithmetically from
coset coordinates (no loop search), filling areas recomputed by BFS over
products of explicitly enumerated relator conjugates, link degree sums
checked against the corner count identity, and Euler characteristics of
the disc-shaped fixtures pinned to 1.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    cycle_ball,
    hand_ball,
    line_ball,
    plain_grid_ball,
)
from gogtools.errors import CapExceeded
from gogtools.finite import make_dihedral
from gogtools.complexes import (
    Presentation,
    abelianization,
    bounded_trivial,
    check_complex,
    dehn_function_sample,
    hyperbolicity_estimate,
    link,
    link_component_correspondence,
    omega_k,
    pi1_presentation,
    to_complex_json,
    to_off,
)
from gogtools.gog import (
    reduce_word,
    syllable_length,
)
from gogtools.smallcanc import (
    KernelOracle,
    dehn_reduce,
    evaluation_wp,
    presentation_complex_ball,
    word_power,
)


def _wheel5():
    """Pentagon rim plus hub: coning at k=3 fills the five triangles."""
    return omega_k(hand_ball([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                              (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), 3)


def _d3_setup():
    gog = c2_c2_free()
    st3 = ab_word(gog, [1, 1, 1, 1, 1, 1])
    wp = evaluation_wp(gog, make_dihedral(3), [[0, 3], [0, 4]])
    return gog, st3, wp


# -- coning ------------------------------------------------------------------


def test_omega_triangle():
    X = omega_k(cycle_ball(3), 3)
    assert len(X.cells2) == 1
    assert len(X.cells2[0].verts) == 3
    assert X.cells2[0].interior
    assert check_complex(X)["ok"]


def test_omega_c4_needs_k4():
    assert len(omega_k(cycle_ball(4), 3).cells2) == 0
    assert len(omega_k(cycle_ball(4), 4).cells2) == 1


def test_omega_small_k_no_cells():
    ball = cycle_ball(5)
    for k in (0, 1, 2):
        assert len(omega_k(ball, k).cells2) == 0
    with pytest.raises(ValueError):
        omega_k(ball, -1)


def oracle_grid_squares(ball, R):
    """Unit squares entirely inside the diamond |x|+|y| <= R, straight from
    the coset coordinates."""
    reps = {v.rep for v in ball.verts}
    count = 0
    for x, y in reps:
        corners = [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]
        if all(abs(a) + abs(b) <= R for a, b in corners):
            count += 1
    return count


def test_omega_grid_squares_match_oracle():
    for R in (2, 3):
        ball = plain_grid_ball(R)
        X = omega_k(ball, 4)
        assert len(X.cells2) == oracle_grid_squares(ball, R)
        assert all(len(c.verts) == 4 for c in X.cells2)
        assert len(omega_k(ball, 3).cells2) == 0


def test_omega_grid_r2_counts():
    ball = plain_grid_ball(2)
    X = omega_k(ball, 4)
    assert (len(X.cells0), len(X.cells1), len(X.cells2)) == (13, 16, 4)
    assert X.euler() == 1


def test_omega_monotone_and_skeleton_identity():
    ball = plain_grid_ball(2)
    prev = set()
    for k in (3, 4, 5, 6):
        X = omega_k(ball, k)
        assert X.skeleton is ball
        keys = {c.key() for c in X.cells2}
        assert prev <= keys
        prev = keys


def test_omega_cap():
    with pytest.raises(CapExceeded):
        omega_k(plain_grid_ball(3), 8, cap=10)


# -- links -------------------------------------------------------------------


def test_link_wheel_center_is_c5():
    X = _wheel5()
    assert len(X.cells2) == 5
    lk = link(X, 0)
    assert not lk.partial
    assert len(lk.vertices) == 5
    assert len(lk.edges) == 5
    assert all(d == 2 for d in lk.degrees().values())
    assert len(lk.components()) == 1


def test_link_tree_vertex_edgeless():
    X = omega_k(line_ball(3), 4)
    lk = link(X, 0)
    assert len(lk.vertices) == 2
    assert len(lk.edges) == 0


def test_link_single_square_corner():
    X = omega_k(cycle_ball(4), 4)
    lk = link(X, 1)
    assert len(lk.vertices) == 2
    assert len(lk.edges) == 1
    a, b, _cell = lk.edges[0]
    assert {a, b} == set(lk.vertices)


def test_link_degree_sum_identity():
    gog, st3, wp = _d3_setup()
    hexX = presentation_complex_ball(gog, [st3], 6, wp=wp)
    for X, sigma in ((_wheel5(), 0), (hexX, 0),
                     (omega_k(plain_grid_ball(2), 4), 0)):
        lk = link(X, sigma)
        corners = sum(1 for c in X.cells2
                      for v in c.verts if v == sigma)
        assert sum(lk.degrees().values()) == 2 * corners
        assert len(lk.edges) == corners


def test_link_boundary_vertex_flagged_partial():
    X = omega_k(plain_grid_ball(2), 4)
    rim = next(i for i, v in enumerate(X.skeleton.verts) if v.dist == 2)
    assert link(X, rim).partial
    center = next(i for i, v in enumerate(X.skeleton.verts) if v.dist == 0)
    assert not link(X, center).partial
    with pytest.raises(ValueError):
        link(X, 999)


# -- link component correspondence ------------------------------------------


def test_correspondence_wedge_of_triangles():
    X = omega_k(hand_ball([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
                3)
    assert len(X.cells2) == 2
    rep = link_component_correspondence(X, 0)
    assert rep["link_components"] == 2
    assert rep["puncture_components"] == 2
    assert rep["bijective"]
    assert not rep["boundary_interference"]


def test_correspondence_disc_interior():
    rep = link_component_correspondence(_wheel5(), 0)
    assert rep["link_components"] == 1
    assert rep["puncture_components"] == 1
    assert rep["bijective"]


def test_correspondence_cut_vertex_three_petals():
    X = omega_k(hand_ball([(0, 1), (1, 2), (2, 0),
                           (0, 3), (3, 4), (4, 0),
                           (0, 5), (5, 6), (6, 0)]), 3)
    rep = link_component_correspondence(X, 0)
    assert rep["link_components"] == 3
    assert rep["puncture_components"] == 3
    assert rep["bijective"]


def test_correspondence_bare_cycle_fails_injectivity():
    rep = link_component_correspondence(omega_k(cycle_ball(4), 0), 1)
    assert rep["link_components"] == 2
    assert rep["puncture_components"] == 1
    assert rep["well_defined"]
    assert not rep["injective"]
    assert not rep["bijective"]


def test_correspondence_hexagon_true_orbit():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp)
    rep = link_component_correspondence(X, 0)
    assert rep["orbit_size"] == 3
    assert rep["link_components"] == 1
    assert rep["puncture_components"] == 1
    assert rep["bijective"]
    assert not rep["boundary_interference"]


# -- fundamental group -------------------------------------------------------


def test_pi1_tree_trivial():
    p = pi1_presentation(omega_k(line_ball(3), 0))
    assert len(p.generators) == 0
    assert len(p.relators) == 0


def test_pi1_bare_cycle_is_Z():
    p = pi1_presentation(omega_k(cycle_ball(4), 0))
    assert len(p.generators) == 1
    assert len(p.relators) == 0


def test_pi1_disconnected_raises():
    ball = hand_ball([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(ValueError):
        pi1_presentation(omega_k(ball, 3))


def test_pi1_hexagon_one_killed_generator():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp)
    p = pi1_presentation(X)
    assert len(p.generators) == 1
    assert len(p.relators) == 1
    assert p.relators[0] in ((1,), (-1,))
    assert bounded_trivial(p)["verdict"] == "YES"


def test_pi1_wheel_contractible():
    p = pi1_presentation(_wheel5())
    assert len(p.generators) == 5
    assert len(p.relators) == 5
    assert bounded_trivial(p)["verdict"] == "YES"
    assert _wheel5().euler() == 1


def test_pi1_grid_coning():
    X = omega_k(plain_grid_ball(2), 4)
    p = pi1_presentation(X)
    assert len(p.generators) == 4
    assert len(p.relators) == 4


# -- bounded triviality ------------------------------------------------------


def test_bounded_trivial_empty_presentation():
    assert bounded_trivial(Presentation((), []))["verdict"] == "YES"


def test_bounded_free_rank_one():
    rep = bounded_trivial(Presentation(("x",), []))
    assert rep["verdict"] == "NO"
    assert rep["h1"] == "Z"


def test_bounded_commutator():
    rep = bounded_trivial(Presentation(("x", "y"), [(1, 2, -1, -2)]))
    assert rep["verdict"] == "NO"
    assert rep["h1"] == "Z^2"


def test_bounded_torsion_witness():
    assert abelianization(Presentation(("x",), [(1, 1, 1)])) == (0, (3,))
    rep = bounded_trivial(Presentation(("x",), [(1, 1, 1)]))
    assert rep["verdict"] == "NO"
    assert rep["h1"] == "Z/3"


def _sympy_abelianization(pres):
    """Oracle: (free rank, torsion) from sympy's Smith normal form of the
    exponent-sum matrix."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    g = len(pres.generators)
    rows = [[sum((x > 0) - (x < 0) for x in w if abs(x) == j + 1)
             for j in range(g)] for w in pres.relators]
    rows = [r for r in rows if any(r)]
    if not rows:
        return (g, ())
    M = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(M[i, i])) for i in range(min(M.shape)) if M[i, i]]
    return (g - len(diag), tuple(d for d in diag if d != 1))


def _presentation_of_rows(rows):
    """A presentation whose relators have the given exponent-sum rows."""
    g = len(rows[0])
    return Presentation(
        tuple(f"x{j}" for j in range(g)),
        [tuple(x for j, c in enumerate(row)
               for x in [j + 1 if c > 0 else -(j + 1)] * abs(c))
         for row in rows])


def test_abelianization_matches_sympy_smith_form():
    # the presentations of the other abelianization tests, then seeded
    # matrices with zero rows (relators of zero exponent sums), zero
    # columns (unused generators), negative entries and rank deficiency
    cases = [
        Presentation((), []),
        Presentation(("x",), [(1, 1, 1)]),
        Presentation(("x", "y"), [(1, 2, -1, -2)]),
        Presentation(("a", "b"), [(1, 2, 1, 2, -1, -1, -1),
                                  (1, 1, 1, -2, -2, -2, -2, -2)]),
    ]
    rows_cases = [[[2, 1], [1, 2]], [[4, 2], [0, 6]], [[0, 0, 0]],
                  [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]]
    rng = random.Random(20260)
    for _ in range(300):
        m, g = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice([0, 0, 0, *range(-6, 7)]) for _ in range(g)]
                for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            rows.append([a - 3 * b for a, b in zip(rows[0], rows[1])])
        if rng.random() < 0.3:
            col = rng.randrange(g)
            for r in rows:
                r[col] = 0
        rows_cases.append(rows)
    cases += [_presentation_of_rows(rows) for rows in rows_cases]
    for pres in cases:
        assert abelianization(pres) == _sympy_abelianization(pres), pres


def test_bounded_perfect_presentation_unknown():
    # binary icosahedral style: perfect abelianization, but no generator
    # occurs exactly once, so bounded elimination cannot start
    pres = Presentation(("a", "b"),
                        [(1, 2, 1, 2, -1, -1, -1), (1, 1, 1, -2, -2, -2, -2,
                                                    -2)])
    assert abelianization(pres) == (0, ())
    rep = bounded_trivial(pres)
    assert rep["verdict"] == "UNKNOWN"
    assert rep["remaining_generators"] == 2


def test_bounded_effort_cutoff():
    p = pi1_presentation(omega_k(plain_grid_ball(2), 4))
    rep = bounded_trivial(p, effort=0)
    assert rep["verdict"] == "UNKNOWN"
    full = bounded_trivial(p)
    assert full["verdict"] == "YES"
    assert full["rewrites"] <= 10**4


def test_relator_letters_validated():
    with pytest.raises(ValueError):
        Presentation(("x",), [(2,)])
    with pytest.raises(ValueError):
        Presentation(("x",), [(0,)])


# -- coning verdicts (k-simple connectivity on fixtures) ---------------------


def test_coning_verdicts_c3_c4():
    yes = bounded_trivial(pi1_presentation(omega_k(cycle_ball(3), 3)))
    assert yes["verdict"] == "YES"
    no = bounded_trivial(pi1_presentation(omega_k(cycle_ball(4), 3)))
    assert no["verdict"] == "NO"
    assert no["h1"] == "Z"


def test_least_coning_k_is_reported_not_assumed():
    ball = cycle_ball(4)
    verdicts = {k: bounded_trivial(pi1_presentation(omega_k(ball, k)))
                ["verdict"] for k in (3, 4, 5)}
    assert verdicts == {3: "NO", 4: "YES", 5: "YES"}
    least = min(k for k, v in verdicts.items() if v == "YES")
    assert least == 4


# -- Dehn function sampling --------------------------------------------------


def _d3_conjugates(gog, st3):
    """Explicit relator conjugates u·(st)³·u⁻¹ over short loop words u,
    both signs, deduplicated."""
    conjugators = [ab_word(gog, [])]
    for k in range(1, 5):
        conjugators.append(ab_word(gog, [1] * k))
        conjugators.append(ab_word(gog, [0] + [1] * k))
    out = {}
    for u in conjugators:
        for s in (st3, reduce_word(st3.inverse())):
            w = reduce_word(u * s * u.inverse())
            out[(w.start, w.head, w.pairs)] = w
    return list(out.values())


def oracle_brute_area(gog, conjugates, target, max_area=4, max_syl=20):
    """Minimal number of relator-conjugate factors multiplying to the
    target, by plain BFS — no Dehn greediness anywhere."""
    tnf = reduce_word(target)
    tid = (tnf.start, tnf.head, tnf.pairs)
    e = reduce_word(ab_word(gog, []))
    if tid == (e.start, e.head, e.pairs):
        return 0
    seen = {(e.start, e.head, e.pairs)}
    level = [e]
    for area in range(1, max_area + 1):
        nxt = []
        for w in level:
            for c in conjugates:
                z = reduce_word(w * c)
                zid = (z.start, z.head, z.pairs)
                if zid == tid:
                    return area
                if zid in seen or syllable_length(z) > max_syl:
                    continue
                seen.add(zid)
                nxt.append(z)
        level = nxt
    return None


def test_dehn_sample_d3_exhaustive_vs_brute_oracle():
    gog, st3, wp = _d3_setup()
    conjugates = _d3_conjugates(gog, st3)
    rep = dehn_function_sample(
        gog, [st3], [2, 4, 6, 8], wp,
        lambda w: oracle_brute_area(gog, conjugates, w),
        mode="exhaustive")
    assert rep["table"][2] == {"count": 0, "max_area": None}
    assert rep["table"][4] == {"count": 0, "max_area": None}
    # exactly (st)³ and (ts)³ are the kernel words up to 8 syllables
    assert rep["table"][6] == {"count": 2, "max_area": 1}
    assert rep["table"][8] == {"count": 2, "max_area": 1}
    assert rep["oracle_failures"] == 0


def test_dehn_sample_no_relators_all_absent():
    gog, st3, wp = _d3_setup()
    rep = dehn_function_sample(gog, [], [2, 4], lambda w: False, lambda w: 0,
                               mode="exhaustive")
    assert all(row == {"count": 0, "max_area": None}
               for row in rep["table"].values())
    assert rep["fit"] is None


def test_dehn_sample_cprime_fixture_sampled():
    gog = c4_c6_free()
    r = ab_word(gog, [1, 1, 2, 2, 3, 3])
    rm = word_power(r, 12)
    oracle = KernelOracle(gog, r, 12)

    def area(w):
        res = dehn_reduce(w, oracle.S)
        return res.area if res.is_trivial else None

    lengths = [80, 160, 240]
    rep = dehn_function_sample(gog, [rm], lengths, oracle.in_kernel, area,
                               mode="sample", seed=0xCA1, samples=40)
    assert rep["seed"] == 0xCA1
    assert rep["oracle_failures"] == 0
    counts = [rep["table"][L]["count"] for L in lengths]
    assert counts == sorted(counts) and counts[-1] > 0
    areas = [rep["table"][L]["max_area"] for L in lengths]
    assert all(a >= 1 for a in areas)
    assert areas == sorted(areas)
    assert rep["fit"] is not None and rep["fit"]["slope"] > 0
    again = dehn_function_sample(gog, [rm], lengths, oracle.in_kernel, area,
                                 mode="sample", seed=0xCA1, samples=40)
    assert again == rep


def test_dehn_sample_argument_errors():
    gog, st3, wp = _d3_setup()
    with pytest.raises(ValueError):
        dehn_function_sample(gog, [st3], [], wp, lambda w: 1)
    with pytest.raises(ValueError):
        dehn_function_sample(gog, [st3], [4], wp, lambda w: 1,
                             mode="nope")
    with pytest.raises(ValueError):
        dehn_function_sample(gog, [], [4], wp, lambda w: 1,
                             mode="sample")


# -- hyperbolicity estimate --------------------------------------------------


def test_hyp_tree_is_zero():
    rep = hyperbolicity_estimate(line_ball(4))
    assert rep["delta"] == 0
    assert rep["method"] == "exhaustive"
    assert rep["label"] == "ESTIMATE"


def test_hyp_c8_exact_two():
    rep = hyperbolicity_estimate(cycle_ball(8))
    assert rep["delta"] == Fraction(2)
    assert rep["method"] == "exhaustive"


def test_hyp_grid_growth_trend():
    h2 = hyperbolicity_estimate(plain_grid_ball(2))["delta"]
    h3 = hyperbolicity_estimate(plain_grid_ball(3))["delta"]
    h4 = hyperbolicity_estimate(plain_grid_ball(4),
                                exhaustive_limit=45)["delta"]
    assert h2 <= h3 <= h4
    assert h2 < h4


def test_hyp_sampled_mode_deterministic():
    ball = plain_grid_ball(3)
    a = hyperbolicity_estimate(ball, exhaustive_limit=5, samples=500)
    b = hyperbolicity_estimate(ball, exhaustive_limit=5, samples=500)
    assert a["method"] == "sampled"
    assert a["seed"] == 0xCA1
    assert a == b
    exact = hyperbolicity_estimate(ball)
    assert a["delta"] <= exact["delta"]


def test_hyp_disconnected_raises():
    ball = hand_ball([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="vertex 0 reaches 2 of 4"):
        hyperbolicity_estimate(ball)


def oracle_hyperbolicity_estimate(ball, seed=0xCA1, exhaustive_limit=40,
                                  samples=20000):
    """The estimate as first written: dict BFS distances and the defect
    of every quadruple, exhaustive or sampled, with no bound."""
    n = len(ball.verts)
    if n == 0:
        raise ValueError("empty ball")
    D = []
    for i in range(n):
        d = ball.bfs(i)[0]
        if len(d) != n:
            raise ValueError(
                f"ball is disconnected: vertex {i} reaches {len(d)} of {n}"
            )
        D.append([d[j] for j in range(n)])

    def defect(a, b, c, e):
        sums = sorted((D[a][b] + D[c][e], D[a][c] + D[b][e],
                       D[a][e] + D[b][c]), reverse=True)
        return sums[0] - sums[1]

    best = 0
    witness = None
    count = 0
    if n <= exhaustive_limit:
        method = "exhaustive"
        for quad in combinations(range(n), 4):
            count += 1
            m = defect(*quad)
            if m > best:
                best, witness = m, quad
    else:
        method = "sampled"
        rng = random.Random(seed)
        for _ in range(samples):
            quad = tuple(rng.sample(range(n), 4))
            count += 1
            m = defect(*quad)
            if m > best:
                best, witness = m, quad
    report = {"delta": Fraction(best, 2), "label": "ESTIMATE",
              "method": method, "witness": witness, "vertices": n,
              "quadruples": count}
    if method == "sampled":
        report["seed"] = seed
    return report


def _random_connected_ball(rng, n, kind):
    """A tree, a cycle, or either with chords, on n shuffled vertices."""
    if n == 1:
        return line_ball(0)
    if kind.startswith("cycle") and n >= 3:
        edges = {(i, (i + 1) % n) for i in range(n)}
    else:
        edges = {(rng.randrange(i), i) for i in range(1, n)}
    if kind.endswith("chords"):
        for _ in range(rng.randint(1, n)):
            edges.add(tuple(rng.sample(range(n), 2)))
    label = list(range(n))
    rng.shuffle(label)
    simple = {(min(label[u], label[v]), max(label[u], label[v]))
              for u, v in edges}
    return hand_ball(sorted(simple))


def test_hyp_matches_unpruned_oracle_on_random_graphs():
    rng = random.Random(0xD17A)
    kinds = ("tree", "cycle", "tree+chords", "cycle+chords")
    methods = set()
    for _ in range(300):
        n = rng.randint(1, 45)
        ball = _random_connected_ball(rng, n, rng.choice(kinds))
        assert len(ball.verts) == n
        exhaustive = rng.random() < (0.5 if n <= 24 else 0.08)
        step = rng.randrange(3)
        limit = n + step if exhaustive else n - 1 - step
        kwargs = {"seed": rng.randrange(1 << 16),
                  "samples": rng.choice((0, 1, 50, 400))}
        got = hyperbolicity_estimate(ball, exhaustive_limit=limit, **kwargs)
        # a ball of fewer than 4 vertices is searched exhaustively
        want = oracle_hyperbolicity_estimate(
            ball, exhaustive_limit=limit if n >= 4 else n, **kwargs)
        assert got == want
        methods.add((got["method"], got["delta"] > 0))
    assert methods == {("exhaustive", False), ("exhaustive", True),
                       ("sampled", False), ("sampled", True)}


@pytest.mark.parametrize("name", ["D10", "D20", "grid3"])
def test_hyp_matches_unpruned_oracle_on_balls(name):
    from gogtools.cayley_abels import quotient_tree_ball

    if name == "grid3":
        ball = plain_grid_ball(3)
    else:
        n = int(name[1:])
        gog = c2_c2_free()
        ev = evaluation_wp(gog, make_dihedral(n), [[0, n], [0, n + 1]])
        ball = quotient_tree_ball(gog, [ab_word(gog, [1] * (2 * n))], n,
                                  wp=ev)
    size = len(ball.verts)
    for limit in (size - 1, size, 40):
        for seed in (0xCA1, 7):
            kwargs = {"seed": seed, "exhaustive_limit": limit,
                      "samples": 3000}
            assert (hyperbolicity_estimate(ball, **kwargs)
                    == oracle_hyperbolicity_estimate(ball, **kwargs))


def test_hyp_small_ball_below_limit_is_exhaustive():
    for ball in (line_ball(0), hand_ball([(0, 1)]), cycle_ball(3)):
        rep = hyperbolicity_estimate(ball, exhaustive_limit=0)
        assert rep["method"] == "exhaustive" and rep["quadruples"] == 0
        assert rep["delta"] == 0 and rep["witness"] is None


# -- exports -----------------------------------------------------------------


def test_complex_json_shape():
    X = _wheel5()
    js = to_complex_json(X)
    assert js["euler"] == 1
    assert len(js["vertices"]) == 6
    assert len(js["edges"]) == 10
    assert len(js["cells2"]) == 5
    assert all(set(c) == {"verts", "tag", "interior"} for c in js["cells2"])


def test_off_export():
    X = _wheel5()
    off = to_off(X)
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "6 5 10"
    assert len(lines) == 2 + 6 + 5
    assert off == to_off(X)
