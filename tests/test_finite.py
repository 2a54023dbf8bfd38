"""Finite-group foundations."""

import pytest

from gogtools.finite import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    check_hom,
    left_cosets,
    left_transversal,
    make_cyclic,
    make_dihedral,
    subgroup_generated,
)


def test_make_cyclic_examples():
    assert make_cyclic(1).table == ((0,),)
    C4 = make_cyclic(4)
    assert C4.op(1, 1) == 2 and C4.op(2, 2) == 0


def test_make_cyclic_invalid():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_identity_and_inverses():
    D4 = make_dihedral(4)
    assert D4.identity == 0
    for g in range(8):
        assert D4.op(g, D4.inv[g]) == 0


def test_latin_square_enforced():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 0], [1, 1]])


def test_associativity_enforced():
    # Latin square that is not associative: a quasigroup on 5 points
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        FiniteGroup(t)


def test_associativity_exact_above_sampling_range():
    # C300 x C2 with (a, b) at 2a + b, and an intercalate swapped at rows
    # 2, 3 x columns 4, 5: still a Latin square with identity 0, but not
    # associative; 10**4 sampled triples accepted it
    n = 300
    t = [[2 * ((a + c) % n) + (b + d) % 2 for c in range(n) for d in range(2)]
         for a in range(n) for b in range(2)]
    FiniteGroup(t)
    t[2][4], t[2][5] = t[2][5], t[2][4]
    t[3][4], t[3][5] = t[3][5], t[3][4]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(t)


def test_inverses_read_off_rows():
    for G in (make_cyclic(7), make_dihedral(5)):
        for g in range(G.order):
            assert G.op(g, G.inv[g]) == G.op(G.inv[g], g) == G.identity


def test_subgroup_generated():
    C4 = make_cyclic(4)
    assert subgroup_generated(C4, {2}).elements == (0, 2)
    C6 = make_cyclic(6)
    assert subgroup_generated(C6, {3}).elements == (0, 3)
    S3 = make_dihedral(3)
    assert len(subgroup_generated(S3, {1, 3})) == 6
    with pytest.raises(ValueError):
        subgroup_generated(C4, {9})


def test_subgroup_generated_idempotent():
    S3 = make_dihedral(3)
    H = subgroup_generated(S3, {1})
    assert subgroup_generated(S3, H.elements).elements == H.elements


def test_left_cosets():
    C4 = make_cyclic(4)
    H = subgroup_generated(C4, {2})
    cs = left_cosets(C4, H)
    assert cs == [[0, 2], [1, 3]]
    C6 = make_cyclic(6)
    assert len(left_cosets(C6, subgroup_generated(C6, {3}))) == 3
    G = subgroup_generated(C4, {1})
    assert left_cosets(C4, G) == [[0, 1, 2, 3]]


def test_lagrange():
    for G in (make_cyclic(12), make_dihedral(4), make_dihedral(3)):
        for g in range(G.order):
            H = subgroup_generated(G, {g})
            assert len(H) * len(left_cosets(G, H)) == G.order


def test_transversal_identity_first():
    C6 = make_cyclic(6)
    H = subgroup_generated(C6, {3})
    assert left_transversal(C6, H) == [0, 1, 2]


def test_check_hom():
    C2, C4 = make_cyclic(2), make_cyclic(4)
    assert check_hom(GroupHom(C2, C4, [0, 2])) == (True, None)
    ok, pair = check_hom(GroupHom(C2, C4, [0, 1]))
    assert not ok and pair == (1, 1)
    assert check_hom(GroupHom(C4, C4, [0, 1, 2, 3])) == (True, None)


def test_subgroup_invariants():
    C6 = make_cyclic(6)
    with pytest.raises(ValueError):
        Subgroup(C6, [0, 2])  # not closed (2+2=4 missing)
    with pytest.raises(ValueError):
        Subgroup(C6, [1, 5])  # missing identity
