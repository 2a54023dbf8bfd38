"""Symmetrized sets, pieces, Dehn reduction, and thinness machinery.

Independent oracles: prefix agreement recomputed through words_equal on
explicit prefix subwords (no position scan, no seam table), the constant
k recomputed through the tree-ball action (act / geodesic / stabilizer,
a BFS code path disjoint from the prefix-conjugation route), abelianized
images in the product of vertex groups, and replay of every Dehn trace
back to a product-of-conjugates witness.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    ab_word,
    c2_c2_free,
    c4_c6_free,
    counting,
    edge_between,
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
from gogtools.finite import make_cyclic, make_dihedral
from gogtools.gog import (
    GroupWord,
    cyclically_reduce,
    free_product,
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
    return sum(1 for v, x, _e in positions(w)
               if x != gog.vgroup(v).identity)


def _free():
    return c4_c6_free()


def _relator(gog):
    return ab_word(gog, [1, 1, 2, 2, 3, 3])


# -- independent piece oracle (exact prefixes, free products only) ----------


def oracle_max_piece(S):
    gog = S.gog
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
                if u1.end != u2.end or not words_equal(u1, u2):
                    break
                best = max(best, _syl(u1, gog))
    return best


# -- symmetrize -------------------------------------------------------------


def test_symmetrize_ab():
    gog = _free()
    S = symmetrize(ab_word(gog, [1, 1]))
    assert len(S) == 4
    assert S.member_length() == 2
    starts = sorted(w.start for w in S.members)
    assert starts == [0, 0, 1, 1]


def test_symmetrize_single_syllable():
    gog = _free()
    S = symmetrize(loop_word(gog, [(0, 2)]))
    assert len(S) == 1  # a^2 is its own inverse and has no rotations
    assert S.member_length() == 1


def test_symmetrize_relator_and_inverse_agree():
    gog = _free()
    r = _relator(gog)
    S1 = symmetrize(r)
    S2 = symmetrize(reduce_word(r.inverse()))
    ids1 = {(w.start, w.head, tuple(w.pairs)) for w in S1.members}
    ids2 = {(w.start, w.head, tuple(w.pairs)) for w in S2.members}
    assert ids1 == ids2
    assert len(S1) == 12


def test_symmetrize_idempotent_from_any_member():
    gog = _free()
    S = symmetrize(_relator(gog))
    ids = {(w.start, w.head, tuple(w.pairs)) for w in S.members}
    for w in S.members:
        again = symmetrize(w)
        assert {(u.start, u.head, tuple(u.pairs))
                for u in again.members} == ids


def test_symmetrize_power_member_count():
    gog = _free()
    r12 = word_power(_relator(gog), 12)
    S = symmetrize(r12)
    # rotating by one period reproduces the same linear word, so the 72
    # rotations collapse to 6 per inverse class
    assert len(S) == 12
    assert S.member_length() == 72


def test_symmetrize_rejects_trivial():
    gog = _free()
    with pytest.raises(ValueError):
        symmetrize(loop_word(gog, [(0, 0)]))
    with pytest.raises(ValueError):
        symmetrize(word_power(loop_word(gog, [(0, 2)]), 2))


def test_symmetrize_closed_under_rotation_and_inverse():
    gog = _free()
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
            S = symmetrize(w)
        except ValueError:
            continue
        ids = {(u.start, u.head, tuple(u.pairs)) for u in S.members}
        for u in S.members:
            v = rotate_once(u)
            assert (v.start, v.head, tuple(v.pairs)) in ids
            core, _ = cyclically_reduce(
                reduce_word(u.inverse()))
            assert (core.start, core.head, tuple(core.pairs)) in ids


# -- pieces -----------------------------------------------------------------


def test_pieces_relator_against_oracle():
    gog = _free()
    S = symmetrize(_relator(gog))
    rep = pieces(S)
    assert rep.max_piece == 3
    assert rep.max_piece == oracle_max_piece(S)
    assert rep.lam_star == Fraction(3, 6)


def test_pieces_power_against_oracle():
    gog = _free()
    S = symmetrize(word_power(_relator(gog), 12))
    rep = pieces(S)
    assert rep.max_piece == 3
    assert rep.max_piece == oracle_max_piece(S)
    assert rep.lam_star == Fraction(1, 24)
    assert rep.min_length == 72
    assert rep.members_count == 12


def test_pieces_power_self_overlap_and_periodicity():
    gog = _free()
    rep = pieces(symmetrize(word_power(_relator(gog), 12)))
    assert rep.self_overlap == 66  # shift by one period of r
    assert rep.proper_power

    ab12 = word_power(ab_word(gog, [1, 1]), 12)
    rep2 = pieces(symmetrize(ab12))
    assert rep2.max_piece == 0  # distinct members diverge at position 0
    assert rep2.self_overlap == 22
    assert rep2.proper_power

    ab3 = word_power(ab_word(gog, [1, 1]), 3)
    rep3 = pieces(symmetrize(ab3))
    assert rep3.self_overlap == 4
    assert rep3.proper_power


def test_pieces_invariant_under_rebuild():
    gog = _free()
    S = symmetrize(_relator(gog))
    rep = pieces(S)
    for w in S.members[::5]:
        assert pieces(symmetrize(w)).max_piece == rep.max_piece


def test_pieces_seam_fudge_on_amalgam():
    # canonical transversal forms push seam corrections into the head, so
    # the fudge shows up exactly as a head-coset credit: a·b against a³·b
    # counts one terminal syllable (heads differ by the edge image a²),
    # while a·b against a·b² diverges after the genuinely equal head
    gog = sl2z_gog()
    from gogtools.smallcanc import common_prefix_syllables

    u = reduce_word(ab_word(gog, [1, 1]))
    w = reduce_word(ab_word(gog, [3, 1]))
    assert u.head != w.head
    assert common_prefix_syllables(u, w) == 1

    v = reduce_word(ab_word(gog, [1, 2]))
    assert v.head == u.head
    assert common_prefix_syllables(u, v) == 1

    S = symmetrize(ab_word(gog, [1, 1]))
    assert pieces(S).max_piece == 1


def test_pieces_singleton():
    gog = _free()
    rep = pieces(symmetrize(loop_word(gog, [(0, 2)])))
    assert rep.max_piece == 0
    assert rep.members_count == 1
    assert rep.lam_star == 0
    assert not rep.proper_power


# -- C'(lambda) -------------------------------------------------------------


def test_cprime_relator_power_holds():
    gog = _free()
    rep = check_cprime(_relator(gog), 12, Fraction(1, 12), gog)
    assert rep["verdict"] is True
    assert rep["max_piece"] == 3
    assert rep["member_length"] == 72
    assert rep["lam_star"] == Fraction(1, 24)


def test_cprime_single_power_fails_at_sixth():
    gog = _free()
    rep = check_cprime(_relator(gog), 1, Fraction(1, 6), gog)
    assert rep["verdict"] is False  # piece 3 vs bound 6/6
    assert rep["lam_star"] == Fraction(1, 2)


def test_cprime_vacuous_lambda():
    gog = _free()
    rep = check_cprime(_relator(gog), 1, 1, gog)
    assert rep["verdict"] is True


def test_cprime_rejects_zero_power():
    gog = _free()
    with pytest.raises(ValueError):
        check_cprime(_relator(gog), 0, Fraction(1, 6), gog)


def test_thmb_hypothesis_exact():
    assert thmb_hypothesis(Fraction(1, 100), 6)["holds"]
    rep = thmb_hypothesis(Fraction(1, 12), 6)
    assert rep["twelve_lam_M"] == 6
    assert not rep["holds"]


# -- the constant M ---------------------------------------------------------


def oracle_k_tree_ball(gog, r):
    """Recompute k through the ball action: geodesic cells and BFS-built
    stabilizers, nothing shared with the prefix-conjugation route."""
    core, _ = cyclically_reduce(reduce_word(r))
    r2 = word_power(core, 2)
    ball = build_tree_ball(gog, 2 * len(core.pairs) + 1, base=core.start)
    target = act(r2, ("v", 0), ball)
    gamma = geodesic(("v", 0), target, ball)
    stabs = []
    for cell in gamma:
        elems = stabilizer(cell, ball).elements
        stabs.append({(w.start, w.head, tuple(w.pairs)) for w in elems})
    inter = set.intersection(*stabs)
    return len(gamma), [len(s) // len(inter) for s in stabs]


def test_compute_M_free_product():
    gog = _free()
    tc = compute_M(gog, _relator(gog))
    assert tc.k == 1 and tc.r_syllables == 6 and tc.M == 6
    assert tc.indices == [1] * 12  # trivial edge groups all along r^2


def test_compute_M_against_tree_ball_oracle():
    cases = []
    gog = _free()
    cases.append((gog, ab_word(gog, [1, 1])))
    sl2 = sl2z_gog()
    cases.append((sl2, ab_word(sl2, [1, 1])))
    s3d4 = s3_d4_amalgam()
    cases.append((s3d4, loop_word(s3d4, [(0, 1), (1, 1)])))
    for gog_i, r_i in cases:
        tc = compute_M(gog_i, r_i)
        n_oracle, idx_oracle = oracle_k_tree_ball(gog_i, r_i)
        assert len(tc.gamma) == n_oracle
        assert tc.indices == idx_oracle
        assert tc.k == max(idx_oracle)


def test_compute_M_central_amalgam():
    gog = sl2z_gog()
    tc = compute_M(gog, ab_word(gog, [1, 1]))
    assert tc.k == 1 and tc.M == 2  # the edge group is central on both sides


def test_compute_M_noncentral_amalgam():
    gog = s3_d4_amalgam()
    tc = compute_M(gog, loop_word(gog, [(0, 1), (1, 1)]))
    assert tc.k == 2 and tc.M == 4
    assert max(tc.indices) == 2


def test_compute_M_shift_invariant():
    gog = _free()
    r = _relator(gog)
    base = compute_M(gog, r)
    core, _ = cyclically_reduce(reduce_word(r))
    for w in rotations(core):
        tc = compute_M(gog, w)
        assert (tc.k, tc.M) == (base.k, base.M)


def test_compute_M_elliptic_relator():
    gog = _free()
    tc = compute_M(gog, loop_word(gog, [(0, 2)]))
    assert tc.k == 1 and tc.M == 1
    assert tc.note is not None


# -- Dehn reduction ---------------------------------------------------------


def _kernel_setup():
    gog = _free()
    r = _relator(gog)
    r12 = word_power(r, 12)
    S = symmetrize(r12)
    return gog, r, r12, S


def test_dehn_kills_relator_power():
    gog, r, r12, S = _kernel_setup()
    res = dehn_reduce(r12, S)
    assert res.is_trivial
    assert res.area == 1
    assert replay_trace(res)


def test_dehn_kills_conjugate():
    gog, r, r12, S = _kernel_setup()
    g = ab_word(gog, [2, 3])
    w = reduce_word(g * r12 * g.inverse())
    res = dehn_reduce(w, S)
    assert res.is_trivial
    assert replay_trace(res)


def test_dehn_kills_product_of_conjugates():
    gog, r, r12, S = _kernel_setup()
    r12i = reduce_word(r12.inverse())
    g = ab_word(gog, [3, 1])
    w = reduce_word(g * r12i * g.inverse() * r12)
    res = dehn_reduce(w, S)
    assert res.is_trivial
    assert res.area == 2
    assert replay_trace(res)


def test_dehn_stuck_word_with_conjugate_step():
    gog, r, r12, S = _kernel_setup()
    c = ab_word(gog, [1, 1])
    w = reduce_word(c * r * c.inverse())
    res = dehn_reduce(w, S)
    assert not res.is_trivial
    assert _syl(res.word, gog) == 6  # back to a rotation of r
    assert any(step[0] == "conjugate" for step in res.trace)
    assert replay_trace(res)


def test_dehn_proper_powers_stuck_without_error():
    # r^{±6} is half of a member of the r^12 set; the first match there is
    # just over half, with a split end that saves nothing, and must be
    # passed over rather than end the reduction with an internal error
    gog, r, r12, S = _kernel_setup()
    for s in range(1, 12):
        rs = word_power(r, s)
        for w in (rs, reduce_word(rs.inverse())):
            res = dehn_reduce(w, S)
            assert _syl(res.word, gog) == 6 * min(s, 12 - s)
            assert res.area == (1 if s > 6 else 0)
            assert replay_trace(res)


def test_dehn_proposes_only_shortening_matches(monkeypatch):
    # a split head or last syllable that the word does not carry is not
    # counted as matched, so no proposed replacement fails to shorten the
    # word and the pass-over guard in the Dehn loop never fires here
    gog, r, r12, S = _kernel_setup()
    replace = smallcanc._replace
    shortened = []

    def counted(cur, *args):
        out = replace(cur, *args)
        shortened.append(_syl(out[1], gog) < _syl(cur, gog))
        return out

    monkeypatch.setattr(smallcanc, "_replace", counted)
    for s in range(1, 12):
        rs = word_power(r, s)
        for w in (rs, reduce_word(rs.inverse())):
            dehn_reduce(w, S)
    assert shortened and all(shortened)


def test_dehn_short_word_unchanged():
    gog, r, r12, S = _kernel_setup()
    w = loop_word(gog, [(0, 2)])
    res = dehn_reduce(w, S)
    assert res.area == 0
    assert _syl(res.word, gog) == 1


def test_dehn_gate_rejects_large_lambda():
    gog = _free()
    S1 = symmetrize(_relator(gog))  # lam* = 1/2
    with pytest.raises(UnsupportedInput):
        dehn_reduce(ab_word(gog, [1, 1]), S1)


def test_dehn_areas_scale_with_conjugate_count():
    # reported length/area pairs stay linear-ish on stacked conjugates;
    # recorded, not asserted as a bound — only monotonicity is checked
    gog, r, r12, S = _kernel_setup()
    rng = random.Random(11)
    areas = []
    for count in (1, 2, 3):
        w = None
        for _ in range(count):
            g = ab_word(gog, [rng.randrange(1, 4), rng.randrange(1, 6)])
            c = reduce_word(g * r12 * g.inverse())
            w = c if w is None else reduce_word(w * c)
        res = dehn_reduce(w, S)
        assert res.is_trivial
        assert replay_trace(res)
        areas.append(res.area)
    assert areas[0] <= areas[1] <= areas[2]


def test_piece_report_computed_once_per_set(monkeypatch):
    gog, r, r12, S = _kernel_setup()
    reports = counting(monkeypatch, smallcanc, "_piece_report")
    tables = counting(monkeypatch, smallcanc, "_build_match_table")
    g = ab_word(gog, [2, 3])
    w = reduce_word(g * r12 * g.inverse())
    assert dehn_reduce(w, S).is_trivial
    # the first reduction computes the report and the match table
    assert reports[0] == 1 and tables[0] == 1
    assert dehn_reduce(w, S).is_trivial
    assert reports[0] == 1 and tables[0] == 1
    ko = KernelOracle(gog, r, 12)
    assert reports[0] == 2
    assert dehn_reduce(w, ko.S).is_trivial
    assert ko.certificate(w)["in_kernel"]
    assert reports[0] == 2 and tables[0] == 2
    assert pieces(ko.S) is ko.report


# -- kernel oracle ----------------------------------------------------------


def test_kernel_oracle_certificates():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    r12 = word_power(r, 12)
    assert ko.certificate(r12)["method"] == "dehn"
    assert ko.in_kernel(r12)

    cert = ko.certificate(r)
    assert cert == {"in_kernel": False, "method": "abelianized-image"}

    # a short commutator-like loop with trivial abelianized image is
    # caught by the Greendlinger length gate, not by Dehn
    w = reduce_word(
        ab_word(gog, [1, 1]) * ab_word(gog, [3, 5]))
    if ko.abelian and ko._h1_image(w) in ko._r_subgroup:
        assert ko.certificate(w)["method"] == "length-gate"
    assert not ko.in_kernel(w)


def test_kernel_oracle_every_proper_power_excluded():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    for s in range(1, 12):
        assert not ko.in_kernel(word_power(r, s))


def test_kernel_oracle_gate():
    gog = _free()
    with pytest.raises(UnsupportedInput):
        KernelOracle(gog, _relator(gog), 1)


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
    ko = KernelOracle(gog, r, 7)
    rng = random.Random(5)
    for _ in range(40):
        c = conjugator(rng)
        w = c * ko.rm * c.inverse()
        assert ko.in_kernel(w), (c, ko.certificate(w))


def test_kernel_oracle_no_dehn_refutation_over_nontrivial_edge_groups():
    # over hnn_c6 the seam matcher gets stuck on true members of the
    # kernel; a stuck word must not be reported as outside it
    gog = hnn_c6()
    r = GroupWord(gog, 0, 1, [(0, 1), (1, 1), (0, 3)])  # b·t·b·t̄·b·t·b³
    ko = KernelOracle(gog, r, 7)
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


def test_kernel_oracle_no_length_gate_refutation_over_nontrivial_edge_groups():
    # a conjugate of r⁷ Dehn-reduces to b⁴ = b⁻² with area 1, so b² lies in
    # ⟨⟨r⁷⟩⟩; it is far under the length gate, which therefore must not
    # refute over hnn_c6's nontrivial edge group
    gog = hnn_c6()
    r = GroupWord(gog, 0, 1, [(0, 1), (1, 1), (0, 3)])  # b·t·b·t̄·b·t·b³
    ko = KernelOracle(gog, r, 7)
    assert ko.report.lam_star == Fraction(1, 14)
    c = random_hnn_word(gog, random.Random(0), 5)
    res = dehn_reduce(c * ko.rm * c.inverse(), ko.S)
    assert res.area == 1 and words_equal(res.word, GroupWord(gog, 0, 4, []))
    with pytest.raises(UnsupportedInput, match="piece measure"):
        ko.certificate(GroupWord(gog, 0, 2, []))


# -- presentation complexes -------------------------------------------------


def _d3_setup():
    gog = c2_c2_free()
    st3 = ab_word(gog, [1, 1, 1, 1, 1, 1])
    wp = evaluation_wp(gog, make_dihedral(3), [[0, 3], [0, 4]])
    return gog, st3, wp


def test_evaluation_wp_checks_homomorphism():
    gog, st3, wp = _d3_setup()
    assert wp(st3)
    assert not wp(ab_word(gog, [1, 1]))
    with pytest.raises(ValueError):
        evaluation_wp(gog, make_dihedral(3), [[0, 1], [0, 4]])


# -- keyed quotient lookup --------------------------------------------------


def _dihedral(n):
    """C2∗C2 with (ab)^n and evaluation onto D_n (a, b to two reflections)."""
    gog = c2_c2_free()
    ev = evaluation_wp(gog, make_dihedral(n), [[0, n], [0, n + 1]])
    return gog, ab_word(gog, [1] * (2 * n)), ev


def test_evaluation_wp_image():
    gog, rel, ev = _dihedral(5)
    D5 = make_dihedral(5)
    assert ev.image(rel) == D5.identity and ev(rel) is True
    a, b = ab_word(gog, [1]), ab_word(gog, [0, 1])
    assert ev.image(a * b) == D5.op(5, 6) == D5.op(ev.image(a), ev.image(b))
    assert ev.image(reduce_word(a * b * a)) == ev.image(a * b * a)


@pytest.mark.parametrize("n", range(3, 21))
def test_keyed_lookup_matches_scan(n):
    # the lambda has no ``key``, so the lookup scans its Λ-vertex bucket
    gog, rel, ev = _dihedral(n)
    keyed = quotient_tree_ball(gog, [rel], n, wp=ev)
    scanned = quotient_tree_ball(gog, [rel], n, wp=lambda w: ev(w))
    assert keyed.vertex_count() == 2 * n
    assert ca_to_json(keyed) == ca_to_json(scanned)


# each quotient below is (gog, relators, word-problem callable)


def _kernel_quotient(gog, r, m):
    ko = KernelOracle(gog, r, m)
    return gog, [ko.rm], ko


def _c4c6_quotient(m):
    gog = _free()
    return _kernel_quotient(gog, _relator(gog), m)


def _c2c3_quotient():
    # h1((ab)^7) generates all of C2 × C3, so the key's ⟨h1(r^m)⟩ factor
    # is the whole group
    gog = free_product(make_cyclic(2), make_cyclic(3))
    return _kernel_quotient(gog, ab_word(gog, [1, 1]), 7)


def _s3c2_quotient():
    # S3 is not abelian, so there is no abelianized image and the key
    # falls back to the Λ-vertex
    gog = free_product(make_dihedral(3), make_cyclic(2))
    return _kernel_quotient(gog, ab_word(gog, [1, 1, 2, 1]), 6)


def _dihedral_quotient(n):
    gog, rel, ev = _dihedral(n)
    return gog, [rel], ev


@pytest.mark.parametrize("setup, R", [
    (lambda: _dihedral_quotient(3), 3),
    (lambda: _dihedral_quotient(3), 6),
    (lambda: _c4c6_quotient(12), 2),
    (lambda: _c4c6_quotient(24), 3),
    (_c2c3_quotient, 3),
    (_s3c2_quotient, 3),
], ids=["3", "6", "c4c6-m12-R2", "c4c6-m24-R3", "c2c3-m7-R3", "s3c2-m6-R3"])
def test_keyed_lookup_matches_scan_on_complex(setup, R):
    gog, relators, wp = setup()
    for build, dump in ((presentation_complex_ball, to_complex_json),
                        (quotient_tree_ball, ca_to_json)):
        keyed = json.dumps(dump(build(gog, relators, R, wp=wp)))
        # the lambda has no ``key``, so the lookup scans its Λ-vertex bucket
        scanned = json.dumps(dump(build(gog, relators, R,
                                        wp=lambda w: wp(w))))
        assert keyed == scanned


def test_kernel_key_falls_back_to_lam_vertex():
    gog, _, ko = _s3c2_quotient()
    w = ab_word(gog, [1, 2]) * GroupWord(
        gog, 0, 0, [(edge_between(gog, 0, 1), 1)])
    assert not ko.abelian and ko.key(w) == w.end == 1
    gog = sl2z_gog()
    ko = KernelOracle(gog, ab_word(gog, [1, 1, 1, 2]), 12)
    assert ko.key(ab_word(gog, [1, 1])) == 0
    # over a nontrivial edge group neither lookup can refute a candidate
    for wp in (ko, lambda w: ko(w)):
        with pytest.raises(UnsupportedInput):
            quotient_tree_ball(gog, [ko.rm], 2, wp=wp)


def _conjugate_kernel_word(gog, rm, rng):
    c = random_amalgam_word(gog, rng, max_syllables=6)
    return c * rm * c.inverse()


def _random_path(gog, rng):
    """A loop word at vertex 0, then with even odds one step to vertex 1."""
    w = random_amalgam_word(gog, rng, max_syllables=8)
    if rng.randrange(2):
        y = rng.randrange(gog.vgroup(1).order)
        w = w * GroupWord(gog, 0, 0, [(edge_between(gog, 0, 1), y)])
    return reduce_word(w)


# n_keys is the number of cosets per Λ-vertex, summed: C4 × C6 over h1(C4)
# and h1(C6) gives 6 + 4; over C2 × C3 = ⟨h1((ab)^7)⟩ one each; D7 over the
# image of a C2 gives 7 at each vertex
@pytest.mark.parametrize("setup, n_keys", [
    (lambda: _c4c6_quotient(12), 10),
    (_c2c3_quotient, 2),
    (lambda: _dihedral_quotient(7), 14),
], ids=["c4c6-m12", "c2c3-m7", "d7-evaluation"])
def test_key_is_invariant_modulo_kernel_and_vertex_group(setup, n_keys):
    gog, (rm,), wp = setup()
    rng = random.Random(0x16)
    keys = set()
    for _ in range(100):
        w = _random_path(gog, rng)
        k = _conjugate_kernel_word(gog, rm, rng)
        if rng.randrange(2):
            k = k * _conjugate_kernel_word(gog, rm, rng).inverse()
        v = w.end
        x = rng.randrange(gog.vgroup(v).order)
        moved = reduce_word(k * w * GroupWord(gog, v, x))
        assert wp.key(moved) == wp.key(w)
        keys.add(wp.key(w))
    # the samples see no more keys than there are cosets, and more than
    # the Λ-vertices exactly when the cosets are finer
    n_lam = gog.graph.num_vertices
    assert len(keys) <= n_keys
    assert (len(keys) > n_lam) == (n_keys > n_lam)


def _lookup_work(monkeypatch, n, wp_of):
    """(ball, reductions inside find, word-problem calls inside find,
    evaluations) for the D_n ball."""
    gog, rel, ev = _dihedral(n)
    reductions = counting(monkeypatch, smallcanc, "reduce_word")
    in_find, wp_in_find, wp_calls, evaluations = [0], [0], [0], [0]
    find = _KernelLookup.find
    image, call = smallcanc.Evaluation.image, smallcanc.Evaluation.__call__

    def counted_find(self, word):
        before, wp_before = reductions[0], wp_calls[0]
        try:
            return find(self, word)
        finally:
            in_find[0] += reductions[0] - before
            wp_in_find[0] += wp_calls[0] - wp_before

    def counted_image(self, w):
        evaluations[0] += 1
        return image(self, w)

    def counted_call(self, w):
        wp_calls[0] += 1
        return call(self, w)

    monkeypatch.setattr(_KernelLookup, "find", counted_find)
    monkeypatch.setattr(smallcanc.Evaluation, "image", counted_image)
    monkeypatch.setattr(smallcanc.Evaluation, "__call__", counted_call)
    ball = quotient_tree_ball(gog, [rel], n, wp=wp_of(ev))
    return ball, in_find[0], wp_in_find[0], evaluations[0]


def test_keyed_lookup_work_bound(monkeypatch):
    ball, in_find, wp_in_find, evaluations = _lookup_work(
        monkeypatch, 40, lambda ev: ev)
    assert ball.vertex_count() == 80
    assert in_find == 0 and wp_in_find == 0
    assert 0 < evaluations <= 2 * (ball.vertex_count() + ball.edge_count())


def test_scan_lookup_work_is_counted(monkeypatch):
    # the counters above see the scan's word-problem calls when it runs
    _ball, _in_find, wp_in_find, _ = _lookup_work(
        monkeypatch, 10, lambda ev: (lambda w: ev(w)))
    assert wp_in_find > 0


def test_hexagon_complex():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 3, wp=wp)
    assert len(X.cells0) == 6
    assert len(X.cells1) == 6
    assert len(X.cells2) == 1
    assert X.euler() == 1
    assert len(X.cells2[0].verts) == 6


def test_hexagon_needs_full_boundary():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 2, wp=wp)
    assert len(X.cells2) == 0


def test_no_relators_no_cells():
    gog = _free()
    X = presentation_complex_ball(gog, [], 2)
    assert len(X.cells2) == 0
    assert len(X.cells0) == 1 + 4 + 4 * 5


def test_check_M_thin_materialized_hexagon():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp)
    rep = check_M_thin(X, 6)
    assert rep["verdict"]
    assert rep["mode"] == "materialized"
    assert rep["max_count"] == 1  # one hexagon through each edge
    assert not rep["excluded_boundary_edges"]


def test_check_M_thin_detects_overcrowding():
    gog, st3, wp = _d3_setup()
    X = presentation_complex_ball(gog, [st3], 6, wp=wp)
    X.cells2.append(X.cells2[0])
    rep = check_M_thin(X, 1)
    assert not rep["verdict"]
    assert rep["max_count"] == 2


def test_tree_is_zero_thin():
    gog = _free()
    X = presentation_complex_ball(gog, [], 2)
    rep = check_M_thin(X, 0)
    assert rep["verdict"]
    assert rep["max_count"] == 0


# -- transporter-local incidence --------------------------------------------


def test_incidence_bounded_by_M():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    inc = thinness_incidence(gog, r, 12, 2, oracle=ko)
    assert inc["certified"]
    assert inc["period"] == 6
    assert inc["edges"]
    assert all(c <= 6 for c in inc["edges"].values())
    assert inc["max_count"] == 6  # the bound is attained edge-on-axis


def test_incidence_rejects_amalgams():
    gog = sl2z_gog()
    with pytest.raises(UnsupportedInput):
        thinness_incidence(gog, ab_word(gog, [1, 1]), 12, 2)


def test_incidence_radius_guard():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    with pytest.raises(UnsupportedInput):
        thinness_incidence(gog, r, 12, 40, oracle=ko)


def test_check_M_thin_with_certificate(monkeypatch):
    # the m_thin_r12 job: with the abelianized key the complex and its
    # incidence table take 1,128 certificate calls; the Λ-vertex scan
    # took 4,476
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    calls = [0]
    certificate = KernelOracle.certificate

    def counted(self, w):
        calls[0] += 1
        return certificate(self, w)

    monkeypatch.setattr(KernelOracle, "certificate", counted)
    X = presentation_complex_ball(gog, [word_power(r, 12)], 2, wp=ko)
    X.incidence = thinness_incidence(gog, r, 12, 2, oracle=ko,
                                     ball=X.skeleton)
    rep = check_M_thin(X, 6)
    assert rep["verdict"]
    assert rep["mode"] == "certified-incidence"
    assert rep["max_count"] == 6
    assert 0 < calls[0] <= 1200


def oracle_disc_stabilizer_power(ko, delta):
    """The brute-force search: r^s rebuilt by word_power for every s, and
    every candidate delta·r⁻ˢ sent to the oracle."""
    for s in range(ko.m):
        cand = reduce_word(delta * word_power(ko.r, s).inverse())
        if ko.certificate(cand)["in_kernel"]:
            return s
    return None


def test_disc_stabilizer_power_matches_brute_force():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    rm_inv = reduce_word(ko.rm.inverse())
    rng = random.Random(0xD15C)
    for s in range(12):
        for _ in range(2):
            k = identity_word(gog, 0)
            for _f in range(rng.randrange(3)):
                c = random_amalgam_word(gog, rng, max_syllables=4)
                base = ko.rm if rng.randrange(2) == 0 else rm_inv
                k = k * c * base * c.inverse()
            delta = reduce_word(word_power(r, s) * k)
            assert smallcanc._disc_stabilizer_power(ko, delta) == s
            assert oracle_disc_stabilizer_power(ko, delta) == s
    for _ in range(30):
        delta = reduce_word(random_amalgam_word(gog, rng, max_syllables=8))
        if rng.randrange(2):
            delta = reduce_word(
                word_power(r, rng.randrange(12)) * delta)
        assert (smallcanc._disc_stabilizer_power(ko, delta)
                == oracle_disc_stabilizer_power(ko, delta))


def test_incidence_work_bound(monkeypatch):
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    powers = counting(monkeypatch, smallcanc, "word_power")
    reductions = counting(monkeypatch, smallcanc, "reduce_word")
    inc = thinness_incidence(gog, r, 12, 2, oracle=ko)
    assert inc["max_count"] == 6
    assert powers[0] == 0
    # the per-s word_power search made 43,130 reductions here, and
    # reducing each disc-stabilizer candidate before certificate reduced
    # it again made 6,136
    assert reductions[0] <= 3676


def test_kernel_oracle_construction_work_bound(monkeypatch):
    gog = _free()
    r = _relator(gog)
    reductions = counting(monkeypatch, smallcanc, "reduce_word")
    counts = []
    for m in (48, 96):
        reductions[0] = 0
        ko = KernelOracle(gog, r, m)
        assert len(ko.S) == 12 and ko.report.proper_power
        counts.append(reductions[0])
    # one notch per rotation works at the seam only; the rotation-by-
    # reduction construction made 19m + 3 reductions (915 and 1,827); no
    # conjugator is built, since nothing here reads one
    assert counts[0] == counts[1] == 4


def test_cprime_hnn_members_equal_in_syllables_unsupported():
    # b⁴·t and b⁴·t̄ are distinct members with the same one syllable
    gog = hnn_c6()
    r = GroupWord(gog, 0, 4, [(0, 0)])
    with pytest.raises(UnsupportedInput, match="does not count stable letters"):
        check_cprime(r, 1, Fraction(1, 6), gog)


# -- claim audit ------------------------------------------------------------


def test_claim_audit_free_product():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    aud = claim_audit(gog, r, 12, oracle=ko)
    assert aud["orbit_bound"]["verdict"]
    assert aud["orbit_bound"]["orbits"] == 6
    assert aud["orbit_bound"]["collapse_checked"]
    assert aud["injection"]["verdict"]
    assert aud["injection"]["cells_through_edge"] <= 6
    assert aud["index_bound"]["verdict"]
    assert aud["M"] == 6 and aud["k"] == 1


def test_claim_audit_amalgam():
    gog = s3_d4_amalgam()
    r = loop_word(gog, [(0, 1), (1, 1)])
    aud = claim_audit(gog, r, 2)
    assert aud["orbit_bound"]["verdict"]
    assert aud["index_bound"]["max_index"] == 2
    assert aud["k"] == 2 and aud["M"] == 4
    # off the trivial-edge-stabilizer path the injection is not checked,
    # so it has no verdict
    assert aud["injection"]["verdict"] is None
    assert aud["injection"]["note"].startswith("not checked")


# -- randomized closure properties ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rotation_cycle_returns_home(seed):
    gog = c4_c6_free()
    rng = random.Random(seed)
    syl = []
    side = 0
    for _k in range(rng.randrange(1, 5)):
        syl.append((side, rng.randrange(1, gog.vgroup(side).order)))
        side = 1 - side
    w = loop_word(gog, syl)
    try:
        S = symmetrize(w)
    except ValueError:
        return
    core = S.members[0]
    cur = core
    for _ in range(len(core.pairs)):
        cur = rotate_once(cur)
    assert (cur.start, cur.head, tuple(cur.pairs)) == \
        (core.start, core.head, tuple(core.pairs))
