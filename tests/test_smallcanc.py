"""Symmetrized sets, pieces, Dehn reduction, and thinness machinery.

Independent oracles: prefix agreement recomputed through words_equal on
explicit prefix subwords (no position scan, no seam table), the constant
k recomputed through the tree-ball action (act / geodesic / stabilizer,
a BFS code path disjoint from the prefix-conjugation route), abelianized
images in the product of vertex groups, and replay of every Dehn trace
back to a product-of-conjugates witness.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    hnn_c6,
    loop_word,
    random_amalgam_word,
    random_hnn_word,
    s3_d4_amalgam,
    sl2z_gog,
)
from gogtools.cayley_abels import _KernelLookup, ca_to_json, quotient_tree_ball
from gogtools.complexes import to_complex_json
from gogtools.errors import UnsupportedInput
from gogtools.finite import make_dihedral
from gogtools.gog import (
    GroupWord,
    cyclically_reduce,
    fix_transversals,
    identity_word,
    reduce_word,
    words_equal,
)
import gogtools.smallcanc as smallcanc
from gogtools.smallcanc import (
    KernelOracle,
    check_M_thin,
    check_cprime,
    claim_audit,
    compute_M,
    dehn_reduce,
    evaluation_wp,
    pieces,
    positions,
    presentation_complex_ball,
    replay_trace,
    rotate_once,
    rotations,
    symmetrize,
    thinness_incidence,
    thmb_hypothesis,
    word_power,
)
from gogtools.tree import act, build_tree_ball, geodesic, stabilizer


def _syl(w, gog):
    return sum(1 for v, x, _e in positions(w, gog)
               if x != gog.vgroup(v).identity)


def _free():
    gog = c4_c6_free()
    return gog, fix_transversals(gog)


def _relator(gog):
    return ab_word(gog, [1, 1, 2, 2, 3, 3])


# -- independent piece oracle (exact prefixes, free products only) ----------


def oracle_max_piece(S):
    gog, T = S.gog, S.transversals
    best = 0
    members = S.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            w1, w2 = members[i], members[j]
            if w1.start != w2.start:
                continue
            for n in range(min(len(w1.pairs), len(w2.pairs)) + 1):
                u1 = GroupWord(gog, w1.start, w1.head, tuple(w1.pairs[:n]))
                u2 = GroupWord(gog, w2.start, w2.head, tuple(w2.pairs[:n]))
                if u1.end != u2.end or not words_equal(u1, u2, gog, T):
                    break
                best = max(best, _syl(u1, gog))
    return best


# -- symmetrize -------------------------------------------------------------


def test_symmetrize_ab():
    gog, T = _free()
    S = symmetrize(ab_word(gog, [1, 1]), gog, T)
    assert len(S) == 4
    assert S.member_length() == 2
    starts = sorted(w.start for w in S.members)
    assert starts == [0, 0, 1, 1]


def test_symmetrize_single_syllable():
    gog, T = _free()
    S = symmetrize(loop_word(gog, [(0, 2)]), gog, T)
    assert len(S) == 1  # a^2 is its own inverse and has no rotations
    assert S.member_length() == 1


def test_symmetrize_relator_and_inverse_agree():
    gog, T = _free()
    r = _relator(gog)
    S1 = symmetrize(r, gog, T)
    S2 = symmetrize(reduce_word(r.inverse(), gog, T), gog, T)
    ids1 = {(w.start, w.head, tuple(w.pairs)) for w in S1.members}
    ids2 = {(w.start, w.head, tuple(w.pairs)) for w in S2.members}
    assert ids1 == ids2
    assert len(S1) == 12


def test_symmetrize_idempotent_from_any_member():
    gog, T = _free()
    S = symmetrize(_relator(gog), gog, T)
    ids = {(w.start, w.head, tuple(w.pairs)) for w in S.members}
    for w in S.members:
        again = symmetrize(w, gog, T)
        assert {(u.start, u.head, tuple(u.pairs))
                for u in again.members} == ids


def test_symmetrize_power_member_count():
    gog, T = _free()
    r12 = word_power(_relator(gog), 12, gog, T)
    S = symmetrize(r12, gog, T)
    # rotating by one period reproduces the same linear word, so the 72
    # rotations collapse to 6 per inverse class
    assert len(S) == 12
    assert S.member_length() == 72


def test_symmetrize_rejects_trivial():
    gog, T = _free()
    with pytest.raises(ValueError):
        symmetrize(loop_word(gog, [(0, 0)]), gog, T)
    with pytest.raises(ValueError):
        symmetrize(word_power(loop_word(gog, [(0, 2)]), 2, gog, T), gog, T)


def test_symmetrize_closed_under_rotation_and_inverse():
    gog, T = _free()
    rng = random.Random(7)
    for _ in range(20):
        syl = []
        side = 0
        for _k in range(rng.randrange(1, 7)):
            order = gog.vgroup(side).order
            syl.append((side, rng.randrange(1, order)))
            side = 1 - side
        w = loop_word(gog, syl)
        try:
            S = symmetrize(w, gog, T)
        except ValueError:
            continue
        ids = {(u.start, u.head, tuple(u.pairs)) for u in S.members}
        for u in S.members:
            v = rotate_once(u, gog, T)
            assert (v.start, v.head, tuple(v.pairs)) in ids
            core, _ = cyclically_reduce(
                reduce_word(u.inverse(), gog, T), gog, T)
            assert (core.start, core.head, tuple(core.pairs)) in ids


# -- pieces -----------------------------------------------------------------


def test_pieces_relator_against_oracle():
    gog, T = _free()
    S = symmetrize(_relator(gog), gog, T)
    rep = pieces(S)
    assert rep.max_piece == 3
    assert rep.max_piece == oracle_max_piece(S)
    assert rep.lam_star == Fraction(3, 6)


def test_pieces_power_against_oracle():
    gog, T = _free()
    S = symmetrize(word_power(_relator(gog), 12, gog, T), gog, T)
    rep = pieces(S)
    assert rep.max_piece == 3
    assert rep.max_piece == oracle_max_piece(S)
    assert rep.lam_star == Fraction(1, 24)
    assert rep.min_length == 72
    assert len(rep.pair_lengths) == 12 * 11 // 2


def test_pieces_power_self_overlap_and_periodicity():
    gog, T = _free()
    rep = pieces(symmetrize(word_power(_relator(gog), 12, gog, T), gog, T))
    assert rep.self_overlap == 66  # shift by one period of r
    assert rep.proper_power

    ab12 = word_power(ab_word(gog, [1, 1]), 12, gog, T)
    rep2 = pieces(symmetrize(ab12, gog, T))
    assert rep2.max_piece == 0  # distinct members diverge at position 0
    assert rep2.self_overlap == 22
    assert rep2.proper_power

    ab3 = word_power(ab_word(gog, [1, 1]), 3, gog, T)
    rep3 = pieces(symmetrize(ab3, gog, T))
    assert rep3.self_overlap == 4
    assert rep3.proper_power


def test_pieces_invariant_under_rebuild():
    gog, T = _free()
    S = symmetrize(_relator(gog), gog, T)
    rep = pieces(S)
    for w in S.members[::5]:
        assert pieces(symmetrize(w, gog, T)).max_piece == rep.max_piece


def test_pieces_seam_fudge_on_amalgam():
    # canonical transversal forms push seam corrections into the head, so
    # the fudge shows up exactly as a head-coset credit: a·b against a³·b
    # counts one terminal syllable (heads differ by the edge image a²),
    # while a·b against a·b² diverges after the genuinely equal head
    gog = sl2z_gog()
    T = fix_transversals(gog)
    from gogtools.smallcanc import common_prefix_syllables

    u = reduce_word(ab_word(gog, [1, 1]), gog, T)
    w = reduce_word(ab_word(gog, [3, 1]), gog, T)
    assert u.head != w.head
    assert common_prefix_syllables(u, w, gog) == 1

    v = reduce_word(ab_word(gog, [1, 2]), gog, T)
    assert v.head == u.head
    assert common_prefix_syllables(u, v, gog) == 1

    S = symmetrize(ab_word(gog, [1, 1]), gog, T)
    assert pieces(S).max_piece == 1


def test_pieces_singleton():
    gog, T = _free()
    rep = pieces(symmetrize(loop_word(gog, [(0, 2)]), gog, T))
    assert rep.max_piece == 0
    assert rep.pair_lengths == {}
    assert rep.lam_star == 0
    assert not rep.proper_power


# -- C'(lambda) -------------------------------------------------------------


def test_cprime_relator_power_holds():
    gog, T = _free()
    rep = check_cprime(_relator(gog), 12, Fraction(1, 12), gog, T)
    assert rep["verdict"] is True
    assert rep["max_piece"] == 3
    assert rep["member_length"] == 72
    assert rep["lam_star"] == Fraction(1, 24)


def test_cprime_single_power_fails_at_sixth():
    gog, T = _free()
    rep = check_cprime(_relator(gog), 1, Fraction(1, 6), gog, T)
    assert rep["verdict"] is False  # piece 3 vs bound 6/6
    assert rep["lam_star"] == Fraction(1, 2)


def test_cprime_vacuous_lambda():
    gog, T = _free()
    rep = check_cprime(_relator(gog), 1, 1, gog, T)
    assert rep["verdict"] is True


def test_cprime_rejects_zero_power():
    gog, T = _free()
    with pytest.raises(ValueError):
        check_cprime(_relator(gog), 0, Fraction(1, 6), gog, T)


def test_thmb_hypothesis_exact():
    assert thmb_hypothesis(Fraction(1, 100), 6)["holds"]
    rep = thmb_hypothesis(Fraction(1, 12), 6)
    assert rep["twelve_lam_M"] == 6
    assert not rep["holds"]


# -- the constant M ---------------------------------------------------------


def oracle_k_tree_ball(gog, T, r):
    """Recompute k through the ball action: geodesic cells and BFS-built
    stabilizers, nothing shared with the prefix-conjugation route."""
    core, _ = cyclically_reduce(reduce_word(r, gog, T), gog, T)
    r2 = word_power(core, 2, gog, T)
    ball = build_tree_ball(gog, 2 * len(core.pairs) + 1, base=core.start,
                           transversals=T)
    target = act(r2, ("v", 0), ball)
    gamma = geodesic(("v", 0), target, ball)
    stabs = []
    for cell in gamma:
        elems = stabilizer(cell, ball).elements
        stabs.append({(w.start, w.head, tuple(w.pairs)) for w in elems})
    inter = set.intersection(*stabs)
    return len(gamma), [len(s) // len(inter) for s in stabs]


def test_compute_M_free_product():
    gog, T = _free()
    tc = compute_M(gog, _relator(gog), T)
    assert tc.k == 1 and tc.r_syllables == 6 and tc.M == 6
    assert tc.indices == [1] * 12  # trivial edge groups all along r^2


def test_compute_M_against_tree_ball_oracle():
    cases = []
    gog, T = _free()
    cases.append((gog, T, ab_word(gog, [1, 1])))
    sl2 = sl2z_gog()
    cases.append((sl2, fix_transversals(sl2), ab_word(sl2, [1, 1])))
    s3d4 = s3_d4_amalgam()
    cases.append((s3d4, fix_transversals(s3d4),
                  loop_word(s3d4, [(0, 1), (1, 1)])))
    for gog_i, T_i, r_i in cases:
        tc = compute_M(gog_i, r_i, T_i)
        n_oracle, idx_oracle = oracle_k_tree_ball(gog_i, T_i, r_i)
        assert len(tc.gamma) == n_oracle
        assert tc.indices == idx_oracle
        assert tc.k == max(idx_oracle)


def test_compute_M_central_amalgam():
    gog = sl2z_gog()
    T = fix_transversals(gog)
    tc = compute_M(gog, ab_word(gog, [1, 1]), T)
    assert tc.k == 1 and tc.M == 2  # the edge group is central on both sides


def test_compute_M_noncentral_amalgam():
    gog = s3_d4_amalgam()
    T = fix_transversals(gog)
    tc = compute_M(gog, loop_word(gog, [(0, 1), (1, 1)]), T)
    assert tc.k == 2 and tc.M == 4
    assert max(tc.indices) == 2


def test_compute_M_shift_invariant():
    gog, T = _free()
    r = _relator(gog)
    base = compute_M(gog, r, T)
    core, _ = cyclically_reduce(reduce_word(r, gog, T), gog, T)
    for w in rotations(core, gog, T):
        tc = compute_M(gog, w, T)
        assert (tc.k, tc.M) == (base.k, base.M)


def test_compute_M_elliptic_relator():
    gog, T = _free()
    tc = compute_M(gog, loop_word(gog, [(0, 2)]), T)
    assert tc.k == 1 and tc.M == 1
    assert tc.note is not None


# -- Dehn reduction ---------------------------------------------------------


def _kernel_setup():
    gog, T = _free()
    r = _relator(gog)
    r12 = word_power(r, 12, gog, T)
    S = symmetrize(r12, gog, T)
    return gog, T, r, r12, S


def test_dehn_kills_relator_power():
    gog, T, r, r12, S = _kernel_setup()
    res = dehn_reduce(r12, S)
    assert res.is_trivial
    assert res.area == 1
    assert replay_trace(res)


def test_dehn_kills_conjugate():
    gog, T, r, r12, S = _kernel_setup()
    g = ab_word(gog, [2, 3])
    w = reduce_word(g * r12 * g.inverse(), gog, T)
    res = dehn_reduce(w, S)
    assert res.is_trivial
    assert replay_trace(res)


def test_dehn_kills_product_of_conjugates():
    gog, T, r, r12, S = _kernel_setup()
    r12i = reduce_word(r12.inverse(), gog, T)
    g = ab_word(gog, [3, 1])
    w = reduce_word(g * r12i * g.inverse() * r12, gog, T)
    res = dehn_reduce(w, S)
    assert res.is_trivial
    assert res.area == 2
    assert replay_trace(res)


def test_dehn_stuck_word_with_conjugate_step():
    gog, T, r, r12, S = _kernel_setup()
    c = ab_word(gog, [1, 1])
    w = reduce_word(c * r * c.inverse(), gog, T)
    res = dehn_reduce(w, S)
    assert not res.is_trivial
    assert _syl(res.word, gog) == 6  # back to a rotation of r
    assert any(step[0] == "conjugate" for step in res.trace)
    assert replay_trace(res)


def test_dehn_proper_powers_stuck_without_error():
    # r^{±6} is half of a member of the r^12 set; the first match there is
    # just over half, with a split end that saves nothing, and must be
    # passed over rather than end the reduction with an internal error
    gog, T, r, r12, S = _kernel_setup()
    for s in range(1, 12):
        rs = word_power(r, s, gog, T)
        for w in (rs, reduce_word(rs.inverse(), gog, T)):
            res = dehn_reduce(w, S)
            assert _syl(res.word, gog) == 6 * min(s, 12 - s)
            assert res.area == (1 if s > 6 else 0)
            assert replay_trace(res)


def test_dehn_short_word_unchanged():
    gog, T, r, r12, S = _kernel_setup()
    w = loop_word(gog, [(0, 2)])
    res = dehn_reduce(w, S)
    assert res.area == 0
    assert _syl(res.word, gog) == 1


def test_dehn_gate_rejects_large_lambda():
    gog, T = _free()
    S1 = symmetrize(_relator(gog), gog, T)  # lam* = 1/2
    with pytest.raises(UnsupportedInput):
        dehn_reduce(ab_word(gog, [1, 1]), S1)


def test_dehn_areas_scale_with_conjugate_count():
    # reported length/area pairs stay linear-ish on stacked conjugates;
    # recorded, not asserted as a bound — only monotonicity is checked
    gog, T, r, r12, S = _kernel_setup()
    rng = random.Random(11)
    areas = []
    for count in (1, 2, 3):
        w = None
        for _ in range(count):
            g = ab_word(gog, [rng.randrange(1, 4), rng.randrange(1, 6)])
            c = reduce_word(g * r12 * g.inverse(), gog, T)
            w = c if w is None else reduce_word(w * c, gog, T)
        res = dehn_reduce(w, S)
        assert res.is_trivial
        assert replay_trace(res)
        areas.append(res.area)
    assert areas[0] <= areas[1] <= areas[2]


def _counting(monkeypatch, name):
    """Replace every gogtools binding of ``name`` with a wrapper that counts
    its calls; returns the one-element call-count list."""
    calls = [0]
    original = getattr(smallcanc, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("gogtools")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_piece_report_computed_once_per_set(monkeypatch):
    gog, T, r, r12, S = _kernel_setup()
    reports = _counting(monkeypatch, "_piece_report")
    tables = _counting(monkeypatch, "_build_match_table")
    g = ab_word(gog, [2, 3])
    w = reduce_word(g * r12 * g.inverse(), gog, T)
    assert dehn_reduce(w, S).is_trivial
    # the first reduction computes the report and the match table
    assert reports[0] == 1 and tables[0] == 1
    assert dehn_reduce(w, S).is_trivial
    assert reports[0] == 1 and tables[0] == 1
    ko = KernelOracle(gog, r, 12, T)
    assert reports[0] == 2
    assert dehn_reduce(w, ko.S).is_trivial
    assert ko.certificate(w)["in_kernel"]
    assert reports[0] == 2 and tables[0] == 2
    assert pieces(ko.S) is ko.report


# -- kernel oracle ----------------------------------------------------------


def test_kernel_oracle_certificates():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    r12 = word_power(r, 12, gog, T)
    assert ko.certificate(r12)["method"] == "dehn"
    assert ko.in_kernel(r12)

    cert = ko.certificate(r)
    assert cert == {"in_kernel": False, "method": "abelianized-image"}

    # a short commutator-like loop with trivial abelianized image is
    # caught by the Greendlinger length gate, not by Dehn
    w = reduce_word(
        ab_word(gog, [1, 1]) * ab_word(gog, [3, 5]), gog, T)
    if ko.abelian and ko._h1_image(w) in ko._r_subgroup:
        assert ko.certificate(w)["method"] == "length-gate"
    assert not ko.in_kernel(w)


def test_kernel_oracle_every_proper_power_excluded():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    for s in range(1, 12):
        assert not ko.in_kernel(word_power(r, s, gog, T))


def test_kernel_oracle_gate():
    gog, T = _free()
    with pytest.raises(UnsupportedInput):
        KernelOracle(gog, _relator(gog), 1, T)


@pytest.mark.parametrize("model", ["sl2z", "hnn_c6"])
def test_kernel_oracle_conjugates_over_nontrivial_edge_groups(model):
    # the per-vertex abelianized image is not invariant under a pinch
    # across a nontrivial edge group, so it must not refute these
    if model == "sl2z":
        gog = sl2z_gog()
        r = ab_word(gog, [1, 1, 1, 2, 1, 1, 1, 2])

        def conjugator(rng):
            return random_amalgam_word(gog, rng, 6)
    else:
        gog = hnn_c6()
        r = GroupWord(gog, 0, 0, [(0, 0), (0, 3)])  # t·t·b^3

        def conjugator(rng):
            return random_hnn_word(gog, rng, 4)
    T = fix_transversals(gog)
    ko = KernelOracle(gog, r, 7, T)
    rng = random.Random(5)
    for _ in range(40):
        c = conjugator(rng)
        w = c * ko.rm * c.inverse()
        assert ko.in_kernel(w), (c, ko.certificate(w))


def test_kernel_oracle_no_dehn_refutation_over_nontrivial_edge_groups():
    # over hnn_c6 the seam matcher gets stuck on true members of the
    # kernel; a stuck word must not be reported as outside it
    gog = hnn_c6()
    T = fix_transversals(gog)
    r = GroupWord(gog, 0, 1, [(0, 1), (1, 1), (0, 3)])  # b·t·b·t̄·b·t·b³
    ko = KernelOracle(gog, r, 7, T)
    rng = random.Random(0)
    undecided = 0
    for _ in range(40):
        c = random_hnn_word(gog, rng, 5)
        w = c * ko.rm * c.inverse()
        try:
            cert = ko.certificate(w)
        except UnsupportedInput as exc:
            assert "conservative" in str(exc)
            undecided += 1
            continue
        assert cert["in_kernel"], (c, cert)
    assert undecided > 0  # the guard is reached on this input


# -- presentation complexes -------------------------------------------------


def _d3_setup():
    gog = c2_c2_free()
    T = fix_transversals(gog)
    st3 = ab_word(gog, [1, 1, 1, 1, 1, 1])
    wp = evaluation_wp(gog, make_dihedral(3), [[0, 3], [0, 4]])
    return gog, T, st3, wp


def test_evaluation_wp_checks_homomorphism():
    gog, T, st3, wp = _d3_setup()
    assert wp(st3)
    assert not wp(ab_word(gog, [1, 1]))
    with pytest.raises(ValueError):
        evaluation_wp(gog, make_dihedral(3), [[0, 1], [0, 4]])


# -- keyed quotient lookup --------------------------------------------------


def _dihedral(n):
    """C2∗C2 with (ab)^n and evaluation onto D_n (a, b to two reflections)."""
    gog = c2_c2_free()
    ev = evaluation_wp(gog, make_dihedral(n), [[0, n], [0, n + 1]])
    return gog, fix_transversals(gog), ab_word(gog, [1] * (2 * n)), ev


def test_evaluation_wp_image():
    gog, T, rel, ev = _dihedral(5)
    D5 = make_dihedral(5)
    assert ev.image(rel) == D5.identity and ev(rel) is True
    a, b = ab_word(gog, [1]), ab_word(gog, [0, 1])
    assert ev.image(a * b) == D5.op(5, 6) == D5.op(ev.image(a), ev.image(b))
    assert ev.image(reduce_word(a * b * a, gog, T)) == ev.image(a * b * a)


@pytest.mark.parametrize("n", range(3, 21))
def test_keyed_lookup_matches_scan(n):
    # the lambda has no ``image``, so the lookup scans
    gog, T, rel, ev = _dihedral(n)
    keyed = quotient_tree_ball(gog, [rel], n, wp=ev, transversals=T)
    scanned = quotient_tree_ball(gog, [rel], n, wp=lambda w: ev(w),
                                 transversals=T)
    assert keyed.vertex_count() == 2 * n
    assert ca_to_json(keyed) == ca_to_json(scanned)


@pytest.mark.parametrize("R", [3, 6])
def test_keyed_lookup_matches_scan_on_complex(R):
    gog, T, st3, wp = _d3_setup()
    keyed = presentation_complex_ball(gog, [st3], R, wp=wp, transversals=T)
    scanned = presentation_complex_ball(gog, [st3], R, wp=lambda w: wp(w),
                                        transversals=T)
    assert to_complex_json(keyed) == to_complex_json(scanned)


def _lookup_work(monkeypatch, n, wp_of):
    """(ball, reductions inside find, evaluations) for the D_n ball."""
    gog, T, rel, ev = _dihedral(n)
    reductions = _counting(monkeypatch, "reduce_word")
    in_find, evaluations = [0], [0]
    find, image = _KernelLookup.find, smallcanc.Evaluation.image

    def counted_find(self, word):
        before = reductions[0]
        try:
            return find(self, word)
        finally:
            in_find[0] += reductions[0] - before

    def counted_image(self, w):
        evaluations[0] += 1
        return image(self, w)

    monkeypatch.setattr(_KernelLookup, "find", counted_find)
    monkeypatch.setattr(smallcanc.Evaluation, "image", counted_image)
    ball = quotient_tree_ball(gog, [rel], n, wp=wp_of(ev), transversals=T)
    return ball, in_find[0], evaluations[0]


def test_keyed_lookup_work_bound(monkeypatch):
    ball, in_find, evaluations = _lookup_work(monkeypatch, 40, lambda ev: ev)
    assert ball.vertex_count() == 80
    assert in_find == 0
    assert 0 < evaluations <= 2 * (ball.vertex_count() + ball.edge_count())


def test_scan_lookup_work_is_counted(monkeypatch):
    # the counters above see the scan's reductions when it runs
    _ball, in_find, _ = _lookup_work(monkeypatch, 10,
                                     lambda ev: (lambda w: ev(w)))
    assert in_find > 0


def test_hexagon_complex():
    gog, T, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 3, wp=wp, transversals=T)
    assert len(X.cells0) == 6
    assert len(X.cells1) == 6
    assert len(X.cells2) == 1
    assert X.euler() == 1
    assert len(X.cells2[0].verts) == 6


def test_hexagon_needs_full_boundary():
    gog, T, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 2, wp=wp, transversals=T)
    assert len(X.cells2) == 0


def test_no_relators_no_cells():
    gog, T = _free()
    X = presentation_complex_ball(gog, [], 2, transversals=T)
    assert len(X.cells2) == 0
    assert len(X.cells0) == 1 + 4 + 4 * 5


def test_check_M_thin_materialized_hexagon():
    gog, T, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp, transversals=T)
    rep = check_M_thin(X, 6)
    assert rep["verdict"]
    assert rep["mode"] == "materialized"
    assert rep["max_count"] == 1  # one hexagon through each edge
    assert not rep["excluded_boundary_edges"]


def test_check_M_thin_detects_overcrowding():
    gog, T, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp, transversals=T)
    X.cells2.append(X.cells2[0])
    rep = check_M_thin(X, 1)
    assert not rep["verdict"]
    assert rep["max_count"] == 2


def test_tree_is_zero_thin():
    gog, T = _free()
    X = presentation_complex_ball(gog, [], 2, transversals=T)
    rep = check_M_thin(X, 0)
    assert rep["verdict"]
    assert rep["max_count"] == 0


# -- transporter-local incidence --------------------------------------------


def test_incidence_bounded_by_M():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    inc = thinness_incidence(gog, r, 12, 2, oracle=ko, transversals=T)
    assert inc["certified"]
    assert inc["period"] == 6
    assert inc["edges"]
    assert all(c <= 6 for c in inc["edges"].values())
    assert inc["max_count"] == 6  # the bound is attained edge-on-axis


def test_incidence_rejects_amalgams():
    gog = sl2z_gog()
    T = fix_transversals(gog)
    with pytest.raises(UnsupportedInput):
        thinness_incidence(gog, ab_word(gog, [1, 1]), 12, 2, transversals=T)


def test_incidence_radius_guard():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    with pytest.raises(UnsupportedInput):
        thinness_incidence(gog, r, 12, 40, oracle=ko, transversals=T)


def test_check_M_thin_with_certificate():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    X = presentation_complex_ball(gog, [word_power(r, 12, gog, T)], 2,
                                  wp=ko.in_kernel, transversals=T)
    X.incidence = thinness_incidence(gog, r, 12, 2, oracle=ko,
                                     transversals=T, ball=X.skeleton)
    rep = check_M_thin(X, 6)
    assert rep["verdict"]
    assert rep["mode"] == "certified-incidence"
    assert rep["max_count"] == 6


def oracle_disc_stabilizer_power(ko, delta):
    """The brute-force search: r^s rebuilt by word_power for every s, and
    every candidate delta·r⁻ˢ sent to the oracle."""
    gog, T = ko.gog, ko.T
    for s in range(ko.m):
        cand = reduce_word(delta * word_power(ko.r, s, gog, T).inverse(),
                           gog, T)
        if ko.certificate(cand)["in_kernel"]:
            return s
    return None


def test_disc_stabilizer_power_matches_brute_force():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    rm_inv = reduce_word(ko.rm.inverse(), gog, T)
    rng = random.Random(0xD15C)
    for s in range(12):
        for _ in range(2):
            k = identity_word(gog, 0)
            for _f in range(rng.randrange(3)):
                c = random_amalgam_word(gog, rng, max_syllables=4)
                base = ko.rm if rng.randrange(2) == 0 else rm_inv
                k = k * c * base * c.inverse()
            delta = reduce_word(word_power(r, s, gog, T) * k, gog, T)
            assert smallcanc._disc_stabilizer_power(ko, delta) == s
            assert oracle_disc_stabilizer_power(ko, delta) == s
    for _ in range(30):
        delta = reduce_word(random_amalgam_word(gog, rng, max_syllables=8),
                            gog, T)
        if rng.randrange(2):
            delta = reduce_word(
                word_power(r, rng.randrange(12), gog, T) * delta, gog, T)
        assert (smallcanc._disc_stabilizer_power(ko, delta)
                == oracle_disc_stabilizer_power(ko, delta))


def test_incidence_work_bound(monkeypatch):
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    powers = _counting(monkeypatch, "word_power")
    reductions = _counting(monkeypatch, "reduce_word")
    inc = thinness_incidence(gog, r, 12, 2, oracle=ko, transversals=T)
    assert inc["max_count"] == 6
    assert powers[0] == 0
    # the per-s word_power search made 43,130 reductions here
    assert reductions[0] <= 43130 // 4


def test_kernel_oracle_construction_work_bound(monkeypatch):
    gog, T = _free()
    r = _relator(gog)
    reductions = _counting(monkeypatch, "reduce_word")
    counts = []
    for m in (48, 96):
        reductions[0] = 0
        ko = KernelOracle(gog, r, m, T)
        assert len(ko.S) == 12 and ko.report.proper_power
        counts.append(reductions[0])
    # one notch per rotation works at the seam only; the rotation-by-
    # reduction construction made 19m + 3 reductions (915 and 1,827); no
    # conjugator is built, since nothing here reads one
    assert counts[0] == counts[1] == 4


def test_cprime_hnn_members_equal_in_syllables_unsupported():
    # b⁴·t and b⁴·t̄ are distinct members with the same one syllable
    gog = hnn_c6()
    T = fix_transversals(gog)
    r = GroupWord(gog, 0, 4, [(0, 0)])
    with pytest.raises(UnsupportedInput, match="does not count stable letters"):
        check_cprime(r, 1, Fraction(1, 6), gog, T)


# -- claim audit ------------------------------------------------------------


def test_claim_audit_free_product():
    gog, T = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12, T)
    aud = claim_audit(gog, r, 12, transversals=T, oracle=ko)
    assert aud["orbit_bound"]["verdict"]
    assert aud["orbit_bound"]["orbits"] == 6
    assert aud["orbit_bound"]["collapse_checked"]
    assert aud["injection"]["verdict"]
    assert aud["injection"]["cells_through_edge"] <= 6
    assert aud["index_bound"]["verdict"]
    assert aud["M"] == 6 and aud["k"] == 1


def test_claim_audit_amalgam():
    gog = s3_d4_amalgam()
    T = fix_transversals(gog)
    r = loop_word(gog, [(0, 1), (1, 1)])
    aud = claim_audit(gog, r, 2, transversals=T)
    assert aud["orbit_bound"]["verdict"]
    assert aud["index_bound"]["max_index"] == 2
    assert aud["k"] == 2 and aud["M"] == 4
    assert aud["injection"]["note"]  # reported, not certified, off the
    # trivial-edge-stabilizer path


# -- randomized closure properties ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rotation_cycle_returns_home(seed):
    gog = c4_c6_free()
    T = fix_transversals(gog)
    rng = random.Random(seed)
    syl = []
    side = 0
    for _k in range(rng.randrange(1, 5)):
        syl.append((side, rng.randrange(1, gog.vgroup(side).order)))
        side = 1 - side
    w = loop_word(gog, syl)
    try:
        S = symmetrize(w, gog, T)
    except ValueError:
        return
    core = S.members[0]
    cur = core
    for _ in range(len(core.pairs)):
        cur = rotate_once(cur, gog, T)
    assert (cur.start, cur.head, tuple(cur.pairs)) == \
        (core.start, core.head, tuple(core.pairs))
