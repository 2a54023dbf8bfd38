"""Symmetrized sets, pieces, Dehn reduction, and thinness machinery.

Independent oracles: prefix agreement recomputed through words_equal on
explicit prefix subwords (no position scan, no seam table), the constant
k recomputed through the tree-ball action (act / geodesic / stabilizer:
a BFS picks the edges and the ball's edge words conjugate them, where
compute_M conjugates by the prefixes of r·r; both share only
``gog._conjugates``), abelianized
images in the product of vertex groups, and replay of every Dehn trace
back to a product-of-conjugates witness.
"""

import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    counting,
    positions,
    random_amalgam_word,
    random_hnn_word,
)
from test_tree import _relabelled_s3_d4, _relabelled_sl2z
from gogtools.cayley_abels import (
    GEdge,
    _KernelLookup,
    ca_to_json,
    quotient_tree_ball,
)
from gogtools.complexes import to_complex_json
from gogtools.errors import UnsupportedInput
from gogtools.finite import FiniteGroup, GroupHom, make_cyclic, make_dihedral
from gogtools.gog import (
    GraphOfGroups,
    GroupWord,
    SerreGraph,
    _conjugates,
    _cyclic_core,
    cyclically_reduce,
    free_product,
    hnn_sub,
    identity_word,
    reduce_word,
    words_equal,
)
import gogtools.smallcanc as smallcanc
from gogtools.models import (
    MODELS,
    ab_word,
    c2c2_free,
    c4c6_free,
    edge_between,
    hnn_c6,
    loop_word,
    s3_d4,
    sl2z,
)
from gogtools.smallcanc import (
    KernelOracle,
    check_M_thin,
    check_cprime,
    claim_audit,
    compute_M,
    dehn_reduce,
    evaluation_wp,
    pieces,
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
    return c4c6_free()


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
    gog = sl2z()
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
    rep = check_cprime(_relator(gog), 12, Fraction(1, 12))
    assert rep["verdict"] is True
    assert rep["max_piece"] == 3
    assert rep["member_length"] == 72
    assert rep["lam_star"] == Fraction(1, 24)


def test_cprime_single_power_fails_at_sixth():
    gog = _free()
    rep = check_cprime(_relator(gog), 1, Fraction(1, 6))
    assert rep["verdict"] is False  # piece 3 vs bound 6/6
    assert rep["lam_star"] == Fraction(1, 2)


def test_cprime_vacuous_lambda():
    gog = _free()
    rep = check_cprime(_relator(gog), 1, 1)
    assert rep["verdict"] is True


def test_cprime_rejects_zero_power():
    gog = _free()
    with pytest.raises(ValueError):
        check_cprime(_relator(gog), 0, Fraction(1, 6))


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
    tc = compute_M(_relator(gog))
    assert tc.k == 1 and tc.r_syllables == 6 and tc.M == 6
    assert tc.indices == [1] * 12  # trivial edge groups all along r^2


def test_compute_M_against_tree_ball_oracle():
    cases = []
    gog = _free()
    cases.append((gog, ab_word(gog, [1, 1])))
    sl2 = sl2z()
    cases.append((sl2, ab_word(sl2, [1, 1])))
    s3d4 = s3_d4()
    cases.append((s3d4, loop_word(s3d4, [(0, 1), (1, 1)])))
    for gog_i, r_i in cases:
        tc = compute_M(r_i)
        n_oracle, idx_oracle = oracle_k_tree_ball(gog_i, r_i)
        assert len(tc.gamma) == n_oracle
        assert tc.indices == idx_oracle
        assert tc.k == max(idx_oracle)


def test_compute_M_central_amalgam():
    gog = sl2z()
    tc = compute_M(ab_word(gog, [1, 1]))
    assert tc.k == 1 and tc.M == 2  # the edge group is central on both sides


def test_compute_M_noncentral_amalgam():
    gog = s3_d4()
    tc = compute_M(loop_word(gog, [(0, 1), (1, 1)]))
    assert tc.k == 2 and tc.M == 4
    assert max(tc.indices) == 2


def test_compute_M_shift_invariant():
    gog = _free()
    r = _relator(gog)
    base = compute_M(r)
    core, _ = cyclically_reduce(reduce_word(r))
    for w in rotations(core):
        tc = compute_M(w)
        assert (tc.k, tc.M) == (base.k, base.M)


def _random_relator(gog, rng):
    """A seeded loop word at vertex 0 of one to ten edges whose cyclic
    core is not trivial."""
    g = gog.graph
    while True:
        head = rng.randrange(gog.vgroup(0).order)
        at, pairs = 0, []
        for _ in range(rng.randrange(1, 11)):
            e = rng.choice(g.edges_at(at))
            at = g.t(e)
            pairs.append((e, rng.randrange(gog.vgroup(at).order)))
        if at != 0:
            continue
        r = GroupWord(gog, 0, head, pairs)
        if not _cyclic_core(reduce_word(r))[0].is_identity():
            return r


def _axis_stabilizers(r):
    """The stabilizer of each edge along r·r's axis as sorted word reprs:
    the prefix conjugates of the edge group's image at the origin."""
    gog = r.gog
    cc = _cyclic_core(reduce_word(r))[0]
    cc = cc * cc
    out = []
    for j, (e, _) in enumerate(cc.pairs):
        prefix = GroupWord._trusted(gog, cc.start, cc.head, cc.pairs[:j])
        out.append(sorted(repr(w) for w in
                          _conjugates(prefix, gog.inj[e ^ 1].map)))
    return out


# sha256 over 20 seeded relators of compute_M's (k, indices, gamma) and the
# edge stabilizer word sets along gamma, recorded when each edge's words
# still came from a routine of their own in smallcanc
COMPUTE_M_DIGESTS = {
    "c2c2_free": "6ae62c0a42f2a804ecfee4c1473a57bb984a7fbd9c92ce461b7f62dd2c1ee9d0",
    "c4c6_free": "72999c8b7d407974d23099309ea5fa1b9791b4c457ee53752ed8172d241085d8",
    "free_rank2": "57d6e2cdb6abd9116f2fe49163cfc5c73b9117178f6971d9a92bbb4a842d60d5",
    "hnn_c6": "e8e478062b7781e51ec2266240f4a881121bed4105b2fea680ba13c33a3c6b7b",
    "relabelled_s3_d4": "6fabddc81c54fed3a145380b05c81ecb4c633fc861e76e1325094a55d9598b35",
    "s3_d4": "1477052aef27cc84fd2e49b1b413c182bdf31b3d8ee32798032cb431effaebb1",
    "sl2z": "ff823267d61705de7ce5a60834755cebfbe3212d12af09069c91eba27d3f998b",
}


def test_compute_M_digests_with_axis_stabilizers():
    makes = {**MODELS, "relabelled_s3_d4": _relabelled_s3_d4}
    got = {}
    for name in sorted(makes):
        gog = makes[name]()
        rng = random.Random(0x3A7)
        h = hashlib.sha256()
        for _ in range(20):
            r = _random_relator(gog, rng)
            tc = compute_M(r)
            h.update(repr((tc.k, tc.indices, tc.gamma,
                           _axis_stabilizers(r))).encode())
        got[name] = h.hexdigest()
    assert got == COMPUTE_M_DIGESTS


def test_compute_M_elliptic_relator():
    gog = _free()
    tc = compute_M(loop_word(gog, [(0, 2)]))
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


@pytest.mark.parametrize("m", [0, -1])
def test_kernel_oracle_rejects_powers_below_one(m):
    # r^0 is the identity word, which would otherwise be refused as an
    # empty relator, naming the word rather than the power
    gog = _free()
    with pytest.raises(ValueError, match=f"power must be >= 1, got m = {m}"):
        KernelOracle(gog, ab_word(gog, [1, 1]), m)


def test_word_power_rejects_negative_powers():
    # a negative m would otherwise give the identity word
    gog = _free()
    with pytest.raises(ValueError, match="power must be >= 0, got m = -2"):
        word_power(ab_word(gog, [1, 1]), -2)


@pytest.mark.parametrize("word, m", [
    ([1, 1], 1), ([1, 1], 2), ([1, 1], 3), ([2], 1),
], ids=["ab", "ab^2", "ab^3", "a^2"])
def test_kernel_oracle_refuses_relators_of_six_syllables_or_fewer(word, m):
    # λ* is 0 on each, but C'(1/6) also asks |r^m| > 6; below that the
    # length gate refuted the relator itself
    gog = _free()
    with pytest.raises(UnsupportedInput, match="longer than 1/λ = 6"):
        KernelOracle(gog, ab_word(gog, word), m)


def test_kernel_oracle_decides_its_shortest_relator_by_dehn():
    # (ab)^4 has 8 syllables and gate (1 - 3λ*)·8 = 8: a word of exactly
    # the gate's length can be a relator, so only shorter ones are refuted
    gog = _free()
    ko = KernelOracle(gog, ab_word(gog, [1, 1]), 4)
    assert ko.length_gate == 8
    cert = ko.certificate(ko.rm)
    assert cert["in_kernel"] and cert["method"] == "dehn"


@pytest.mark.parametrize("model", ["sl2z", "hnn_c6"])
def test_kernel_oracle_conjugates_over_nontrivial_edge_groups(model):
    # the per-vertex abelianized image is not invariant under a pinch
    # across a nontrivial edge group, so it must not refute these
    if model == "sl2z":
        gog = sl2z()
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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP Direction 4: the syllable piece measure accepts r⁷ over hnn_c6 "
    "with λ* = 1/14, yet conjugates of r⁷ Dehn-reduce to b⁴ (the test "
    "above) and 29 of 40 seeded ones to b² or b⁴ with replayed traces, so "
    "b² ∈ ⟨⟨r⁷⟩⟩, which C'(1/6) forbids"))
def test_cprime_verdict_over_hnn_is_not_true_when_the_vertex_group_collapses():
    gog = hnn_c6()
    r = GroupWord(gog, 0, 1, [(0, 1), (1, 1), (0, 3)])  # b·t·b·t̄·b·t·b³
    assert check_cprime(r, 7, Fraction(1, 6))["verdict"] is not True


# -- presentation complexes -------------------------------------------------


def _d3_setup():
    gog = c2c2_free()
    st3 = ab_word(gog, [1, 1, 1, 1, 1, 1])
    wp = evaluation_wp(gog, make_dihedral(3), [[0, 3], [0, 4]])
    return gog, st3, wp


def test_evaluation_wp_checks_homomorphism():
    gog, st3, wp = _d3_setup()
    assert wp(st3)
    assert not wp(ab_word(gog, [1, 1]))
    with pytest.raises(ValueError):
        evaluation_wp(gog, make_dihedral(3), [[0, 1], [0, 4]])


@pytest.mark.parametrize("n, images, cause", [
    (3, [[0, 3]], "one row of images per vertex"),
    (2, [[0, 3], [0, 4]], "elements 0..3 of the target"),
    (3, [[0, -1], [0, 4]], "elements 0..5 of the target"),
], ids=["one-row", "d3-images-into-d2", "negative"])
def test_evaluation_wp_rejects_images_outside_the_target(n, images, cause):
    with pytest.raises(ValueError, match=cause):
        evaluation_wp(c2c2_free(), make_dihedral(n), images)


# -- keyed quotient lookup --------------------------------------------------


def _dihedral(n):
    """C2∗C2 with (ab)^n and evaluation onto D_n (a, b to two reflections)."""
    gog = c2c2_free()
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


def _relabelled_sl2z_quotient():
    # C4 ∗_{C2} C6 with the C4 identity at element 2, onto its
    # abelianization C12 (a ↦ 3, b ↦ 2), quotiented by [a, b]: a child
    # entering C4 ends in (e, 0), off the identity, so its key state
    # takes a second step
    gog = _relabelled_sl2z()
    ev = evaluation_wp(gog, make_cyclic(12),
                       [[3 * x % 12 for x in (1, 3, 0, 2)],
                        [2 * x % 12 for x in range(6)]])
    rel = ab_word(gog, [0, 1, 1, 5])
    assert ev(rel)
    return gog, [rel], ev


@pytest.mark.parametrize("setup, R", [
    (lambda: _dihedral_quotient(3), 3),
    (lambda: _dihedral_quotient(3), 6),
    (lambda: _c4c6_quotient(12), 2),
    (lambda: _c4c6_quotient(24), 3),
    (_c2c3_quotient, 3),
    (_s3c2_quotient, 3),
    (_relabelled_sl2z_quotient, 4),
], ids=["3", "6", "c4c6-m12-R2", "c4c6-m24-R3", "c2c3-m7-R3", "s3c2-m6-R3",
        "relabelled-sl2z-R4"])
def test_keyed_lookup_matches_scan_on_complex(setup, R):
    gog, relators, wp = setup()
    for build, dump in ((presentation_complex_ball, to_complex_json),
                        (quotient_tree_ball, ca_to_json)):
        keyed = json.dumps(dump(build(gog, relators, R, wp=wp)))
        # the lambda has no ``key``, so the lookup scans its Λ-vertex bucket
        scanned = json.dumps(dump(build(gog, relators, R,
                                        wp=lambda w: wp(w))))
        assert keyed == scanned


def _perm_group(gens):
    """The permutation group the tuples ``gens`` generate, as a table, and
    each permutation's index in it."""
    points = range(len(gens[0]))
    elems = [tuple(points)]
    index = {elems[0]: 0}
    for p in elems:
        for g in gens:
            q = tuple(p[g[x]] for x in points)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    table = [[index[tuple(a[b[x]] for x in points)] for b in elems]
             for a in elems]
    return FiniteGroup(table), index


def _relabelled_s3_d4_quotient():
    # onto S5 (points 0..4): D4 as the square ⟨(0123), (02)⟩, whose centre
    # (02)(13) is the amalgamated s, and S3 as ⟨(024), (02)(13)⟩.  Some
    # child steps of this model search their fan coset, and there the
    # ball steps the child's state by the element the search chose
    gens = [(2, 3, 0, 1, 4), (2, 1, 4, 3, 0), (2, 1, 0, 3, 4), (1, 2, 3, 0, 4)]
    S5, index = _perm_group(gens)
    op = S5.op
    s, rot, sq, rq = (index[p] for p in gens)
    s3 = [S5.identity, s, op(s, rot), rot, op(rot, s), op(rot, rot)]
    d4 = [S5.identity, rq]
    for _ in range(2):
        d4.append(op(d4[-1], rq))
    d4 += [op(sq, x) for x in d4]
    gog = _relabelled_s3_d4()
    ev = evaluation_wp(gog, S5, [s3, d4])
    rel = word_power(ab_word(gog, [3, 1]), 6)
    assert S5.order == 120 and ev(rel)
    return gog, [rel], ev


def _key(wp, w):
    """The quotient-ball key of w under a keyed word-problem callable."""
    return wp.key_of(wp.key_state(w), w.end)


@pytest.mark.parametrize("setup, R", [
    *[((lambda n=n: _dihedral_quotient(n)), n) for n in range(3, 81)],
    (lambda: _c4c6_quotient(12), 2),
    (_c2c3_quotient, 3),
    (_relabelled_s3_d4_quotient, 5),
    (_relabelled_sl2z_quotient, 4),
], ids=[*(f"d{n}" for n in range(3, 81)), "c4c6-m12-R2", "c2c3-m7-R3",
        "relabelled-s3-d4-R5", "relabelled-sl2z-R4"])
def test_carried_key_states_agree_with_the_words(setup, R):
    gog, relators, wp = setup()
    ball = quotient_tree_ball(gog, relators, R, wp=wp)
    lookup = ball.lookup
    carried = 0
    for key, bucket in lookup.buckets.items():
        for word, state, i in bucket:
            assert word is ball.verts[i].rep
            assert state == wp.key_state(word)
            assert key == lookup.key_of(state, word.end) == _key(wp, word)
            carried += 1
    assert carried == ball.vertex_count()


def test_recomputed_key_states_build_the_scanned_ball():
    # a child found under a wrong key would be a wrong edge, not a wrong
    # vertex state: the keyed ball is the one the Λ-vertex scan builds
    gog, relators, ev = _relabelled_s3_d4_quotient()
    keyed = quotient_tree_ball(gog, relators, 5, wp=ev)
    scanned = quotient_tree_ball(gog, relators, 5, wp=lambda w: ev(w))
    assert keyed.vertex_count() == 35
    assert ca_to_json(keyed) == ca_to_json(scanned)


def test_kernel_key_falls_back_to_lam_vertex():
    gog, _, ko = _s3c2_quotient()
    w = ab_word(gog, [1, 2]) * GroupWord(
        gog, 0, 0, [(edge_between(gog, 0, 1), 1)])
    assert not ko.abelian and _key(ko, w) == w.end == 1
    gog = sl2z()
    ko = KernelOracle(gog, ab_word(gog, [1, 1, 1, 2]), 12)
    assert _key(ko, ab_word(gog, [1, 1])) == 0
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
        assert _key(wp, moved) == _key(wp, w)
        keys.add(_key(wp, w))
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

    def counted_find(self, word, *state_and_key):
        before, wp_before = reductions[0], wp_calls[0]
        try:
            return find(self, word, *state_and_key)
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
    # ``key_state`` is ``image`` under another name
    monkeypatch.setattr(smallcanc.Evaluation, "image", counted_image)
    monkeypatch.setattr(smallcanc.Evaluation, "key_state", counted_image)
    monkeypatch.setattr(smallcanc.Evaluation, "__call__", counted_call)
    ball = quotient_tree_ball(gog, [rel], n, wp=wp_of(ev))
    return ball, in_find[0], wp_in_find[0], evaluations[0]


def test_keyed_lookup_work_bound():
    # every vertex steps its image from its parent's, so the root's is the
    # one full evaluation whatever the size of the ball
    for n in (40, 80):
        with pytest.MonkeyPatch.context() as mp:
            ball, in_find, wp_in_find, evaluations = _lookup_work(
                mp, n, lambda ev: ev)
        assert ball.vertex_count() == 2 * n
        assert in_find == 0 and wp_in_find == 0
        assert evaluations == 1


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


# -- transporter-local incidence --------------------------------------------


def _incidence_ball(ko, R):
    """The radius-R quotient tree ball of the oracle's kernel."""
    return quotient_tree_ball(ko.gog, [ko.rm], R, wp=ko)


def test_incidence_bounded_by_M():
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    inc = thinness_incidence(ko, _incidence_ball(ko, 2))
    assert inc["certified"]
    assert inc["period"] == 6
    assert inc["edges"]
    assert all(c <= 6 for c in inc["edges"].values())
    assert inc["max_count"] == 6  # the bound is attained edge-on-axis


def test_incidence_rejects_amalgams():
    gog = sl2z()
    ko = KernelOracle(gog, ab_word(gog, [1, 1]), 12)
    # the trivial-seam check raises before the ball is read
    with pytest.raises(UnsupportedInput):
        thinness_incidence(ko, build_tree_ball(gog, 1))


def test_incidence_refuses_loop_edges():
    # C5∗ℤ: the kernel oracle builds for b⁴·t·b² at m = 10, but every step
    # of a loop edge is a stable letter, which its syllables do not count
    gog = hnn_sub(make_cyclic(5), [0], [0])
    ko = KernelOracle(gog, GroupWord(gog, 0, 4, [(0, 2)]), 10)
    with pytest.raises(UnsupportedInput, match="stable letter"):
        thinness_incidence(ko, _incidence_ball(ko, 1))


def test_incidence_radius_guard():
    # the gate of r^4 is 15, and 2·4 + |r| + 1 = 15 already fails it
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 4)
    assert ko.length_gate == 15
    with pytest.raises(UnsupportedInput, match="radius 4 too large"):
        thinness_incidence(ko, build_tree_ball(gog, 4))


def test_check_M_thin_with_certificate(monkeypatch):
    # the m_thin_r12 job: the complex and its incidence table take 180
    # certificate calls, 6 of them the table's, which partitions the 6
    # positions of the one Λ-edge once; a class search on each of the 24
    # ball edges took 144 for the table (318 in all), and with the key
    # alone instead of the abelianized key states the complex and table
    # took 1,128, and the Λ-vertex scan 4,476
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
    complex_calls = calls[0]
    X.incidence = thinness_incidence(ko, X.skeleton)
    rep = check_M_thin(X.incidence, 6)
    assert rep["verdict"]
    assert rep["mode"] == "certified-incidence"
    assert rep["max_count"] == 6
    assert 0 < calls[0] - complex_calls <= 6
    assert 0 < calls[0] <= 180


def test_check_M_thin_verdict_turns_at_the_max_count():
    # the r¹² table over C4∗C6 has 6 cells through its worst edge, so
    # M = 5 is refuted and M = 6 holds
    gog = _free()
    ko = KernelOracle(gog, _relator(gog), 12)
    inc = thinness_incidence(ko, _incidence_ball(ko, 2))
    held, refuted = check_M_thin(inc, 6), check_M_thin(inc, 5)
    assert held["verdict"] and not refuted["verdict"]
    for rep in (held, refuted):
        assert rep["max_count"] == 6
        assert rep["argmax_edge"] == inc["argmax_edge"]
        assert rep["per_edge"][rep["argmax_edge"]] == 6


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


def oracle_thinness_incidence(ko, ball):
    """(edges, positions) of the incidence table with each transporter
    found by the search the normal form replaces: for a ball edge {x_o, x_t}
    with the Λ-vertices of t_j's ends, every c in G_o is tried, and
    g = x_o·c·q_j⁻¹ is kept when g·q_{j+1} lies in the coset x_t·G_t.
    Each ball edge is classed on its own, and two transporters are tested
    at r's basepoint, conjugated by the conjugator of cyclically_reduce."""
    gog = ko.gog
    core, conj = cyclically_reduce(ko.r)
    p = len(core.pairs)
    prefixes = [GroupWord(gog, core.start, core.head, core.pairs[:j])
                for j in range(p + 1)]
    counts, positions_of = {}, {}
    for k, edge in enumerate(ball.edges):
        wu, wv = ball.verts[edge.u].rep, ball.verts[edge.v].rep
        reps = []
        for j in range(p):
            lam_o, lam_t = prefixes[j].end, prefixes[j + 1].end
            if (wu.end, wv.end) == (lam_o, lam_t):
                x_o, x_t = wu, wv
            elif (wv.end, wu.end) == (lam_o, lam_t):
                x_o, x_t = wv, wu
            else:
                continue
            for c in range(gog.vgroup(lam_o).order):
                g = reduce_word(x_o * GroupWord(gog, lam_o, c)
                                * prefixes[j].inverse())
                if not reduce_word(x_t.inverse() * g
                                   * prefixes[j + 1]).pairs:
                    reps.append((j, g))
                    break
        classes = []
        for j, g in reps:
            for _i, h in classes:
                delta = reduce_word(conj * h.inverse() * g * conj.inverse())
                if smallcanc._disc_stabilizer_power(ko, delta) is not None:
                    break
            else:
                classes.append((j, g))
        counts[k] = len(classes)
        positions_of[k] = [j for j, _g in classes]
    return counts, positions_of


def _c2_c3_c4_path():
    """The path C2 — C3 — C4 with trivial edge groups: directed edges 0, 1
    join vertices 0 and 1, and 2, 3 join vertices 1 and 2."""
    C1 = make_cyclic(1)
    graph = SerreGraph(3, [(0, 1), (1, 2)])
    groups = [make_cyclic(n) for n in (2, 3, 4)]
    inj = [GroupHom(C1, groups[graph.t(e)], [0]) for e in range(4)]
    return GraphOfGroups(graph, groups, [C1, C1], inj)


def _path_relator(gog):
    """A loop at vertex 0 whose cyclic core x·e2·y³·e3 lives on Λ-edge 1
    and starts at vertex 1."""
    return GroupWord(gog, 0, 1, [(0, 2), (2, 2), (3, 1), (2, 1), (3, 1),
                                 (1, 1)])


def _off_base_c4c6():
    """c4c6 with b·a·b²·a²·b³·a³·b·a at vertex 0, whose cyclic core
    starts at vertex 1."""
    gog = _free()
    return gog, ab_word(gog, [0, 1, 1, 2, 2, 3, 3, 1, 1])


def test_incidence_relator_core_off_the_basepoint():
    # both cores start at vertex 1 while r starts at vertex 0, so each
    # disc-stabilizer test is conjugated back to r's basepoint
    gog, r = _off_base_c4c6()
    assert cyclically_reduce(r)[0].start == 1
    ko = KernelOracle(gog, r, 12)
    inc = thinness_incidence(ko, _incidence_ball(ko, 2))
    assert inc["max_count"] == compute_M(r).M == 8

    gog = _c2_c3_c4_path()
    r = _path_relator(gog)
    assert cyclically_reduce(r)[0].start == 1
    ko = KernelOracle(gog, r, 8)
    ball = _incidence_ball(ko, 2)
    inc = thinness_incidence(ko, ball)
    by_tag = {}
    for k, c in inc["edges"].items():
        by_tag.setdefault(ball.edges[k].tag, set()).add(c)
    assert by_tag == {"T/e0": {0}, "T/e1": {2}}
    assert inc["argmax_edge"] == 4 and inc["max_count"] == 2


def test_incidence_refuses_an_edge_between_non_adjacent_words():
    # the radius guard keeps every ball edge between tree-adjacent words;
    # a ball that breaks this is a fault, not an edge with no cells
    gog = _free()
    ko = KernelOracle(gog, _relator(gog), 12)
    ball = _incidence_ball(ko, 2)
    far = max(range(len(ball.verts)), key=lambda i: ball.verts[i].dist)
    bad = SimpleNamespace(radius=ball.radius, verts=ball.verts,
                          edges=(GEdge("T/e0", 0, far, 1),) + ball.edges)
    with pytest.raises(RuntimeError, match="2 tree edges apart"):
        thinness_incidence(ko, bad)


@pytest.mark.parametrize("setup", [
    lambda: (_free(), _relator(_free()), 12, 2),
    lambda: (c2c2_free(), ab_word(c2c2_free(), [1, 1]), 8, 4),
    lambda: (*_off_base_c4c6(), 12, 2),
    lambda: ((gog := _c2_c3_c4_path()), _path_relator(gog), 8, 2),
], ids=["m_thin_r12", "c2c2-m8-R4", "c4c6-off-base-m12-R2",
        "c2c3c4-path-m8-R2"])
def test_transporters_match_the_vertex_group_search(setup):
    gog, r, m, R = setup()
    ko = KernelOracle(gog, r, m)
    X = presentation_complex_ball(gog, [word_power(r, m)], R, wp=ko)
    inc = thinness_incidence(ko, X.skeleton)
    counts, positions_of = oracle_thinness_incidence(ko, X.skeleton)
    assert inc["edges"] == counts
    assert inc["positions"] == positions_of
    assert max(counts.values()) > 1


def test_incidence_work_bound(monkeypatch):
    gog = _free()
    r = _relator(gog)
    ko = KernelOracle(gog, r, 12)
    ball = _incidence_ball(ko, 2)
    powers = counting(monkeypatch, smallcanc, "word_power")
    reductions = counting(monkeypatch, smallcanc, "reduce_word")
    inc = thinness_incidence(ko, ball)
    assert inc["max_count"] == 6
    assert powers[0] == 0
    # one reduction per ball edge and the partition's few certificates;
    # the per-ball-edge class search made 733 reductions here, the per-s
    # word_power search 43,130, and reducing each disc-stabilizer
    # candidate before certificate reduced it again 6,136
    assert reductions[0] <= 44


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
        check_cprime(r, 1, Fraction(1, 6))


# -- claim audit ------------------------------------------------------------


def test_claim_audit_free_product():
    gog = _free()
    r = _relator(gog)
    aud = claim_audit(r, 12)
    assert aud["orbit_bound"]["verdict"]
    assert aud["orbit_bound"]["orbits"] == 6
    assert aud["orbit_bound"]["collapse_checked"]
    assert aud["injection"]["verdict"]
    assert aud["injection"]["cells_through_edge"] <= 6
    assert aud["index_bound"]["verdict"]
    assert aud["M"] == 6 and aud["k"] == 1


def test_claim_audit_amalgam():
    gog = s3_d4()
    r = loop_word(gog, [(0, 1), (1, 1)])
    aud = claim_audit(r, 2)
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
    gog = c4c6_free()
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
