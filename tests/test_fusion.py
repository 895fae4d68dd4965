import copy
import os
import pickle
import random
import sys
import threading
import time
import tracemalloc

import pytest

from orbifusion.labels import (
    FusionVector,
    IrrLabel,
    Sector,
    check_label,
    enumerate_irreducibles,
    make_label,
    parse_label,
    vacuum,
)
import orbifusion.fusion as fusion_mod
from orbifusion.fusion import contragredient, fuse_irreducible, fusion_coefficient


# Reference code for the sector-pair formulas, kept here so that
# ``_reference_fuse`` builds each product label by label, independently of
# the written-out comprehensions in ``fuse_irreducible``.


def sl2_fusion_range(k, i1, i2):
    """Admissible sl2 level-``k`` outputs of ``i1`` and ``i2``, ascending.

    All ``i3`` with ``|i1-i2| <= i3 <= min(i1+i2, 2k-i1-i2)`` and
    ``i1+i2+i3`` even.
    """
    return list(range(abs(i1 - i2), min(i1 + i2, 2 * k - i1 - i2) + 1, 2))


def sign_value(i1, i2, i3, j1, j2):
    """The integer ``j1 + j2 - t`` with ``t = ((i1+i2-i3)/2) mod 3``, not reduced modulo 3."""
    if (i1 + i2 + i3) % 2:
        raise ValueError(f"parity violation: i1+i2+i3 = {i1 + i2 + i3} is odd")
    return j1 + j2 - ((i1 + i2 - i3) // 2) % 3


def vec(k, **tokens):
    """Build a FusionVector from token=multiplicity keywords ('u_0_0=1')."""
    return FusionVector(
        (parse_label(tok.replace("_", ":"), k), mult) for tok, mult in tokens.items()
    )


def test_sl2_fusion_range_examples():
    assert sl2_fusion_range(1, 1, 1) == [0]
    assert sl2_fusion_range(2, 1, 1) == [0, 2]
    assert sl2_fusion_range(3, 2, 3) == [1]      # truncated by 2k - i1 - i2
    assert sl2_fusion_range(3, 2, 1) == [1, 3]
    for k in (1, 2, 5):
        for i2 in range(k + 1):
            assert sl2_fusion_range(k, 0, i2) == [i2]


@pytest.mark.parametrize("k", range(1, 7))
def test_sl2_fusion_range_against_brute_force(k):
    # independent enumeration of the selection rules:
    # |i1-i2| <= l <= i1+i2, total even, and i1+i2+l <= 2k
    for i1 in range(k + 1):
        for i2 in range(k + 1):
            expected = [
                l
                for l in range(k + 1)
                if abs(i1 - i2) <= l <= i1 + i2
                and (i1 + i2 + l) % 2 == 0
                and i1 + i2 + l <= 2 * k
            ]
            assert sl2_fusion_range(k, i1, i2) == expected


def test_sign_value_cases():
    assert sign_value(0, 0, 0, 2, 2) == 4
    assert sign_value(1, 1, 0, 0, 0) == -1   # (i1+i2-i3)/2 = 1
    assert sign_value(2, 2, 0, 1, 1) == 0    # (i1+i2-i3)/2 = 2
    assert sign_value(3, 3, 0, 0, 0) == 0    # difference 3 is in 3Z again
    with pytest.raises(ValueError, match="parity"):
        sign_value(1, 0, 0, 0, 0)


def test_vacuum_sector_products():
    for k in (1, 2, 4):
        for j1 in range(3):
            for j2 in range(3):
                a = make_label(Sector.U, 0, j1, k)
                b = make_label(Sector.U, 0, j2, k)
                expected = FusionVector({make_label(Sector.U, 0, j1 + j2, k): 1})
                assert fuse_irreducible(a, b, k) == expected


# Frozen products, each worked out by hand from the sector-pair formulas.
def test_frozen_products():
    # k=1: T1 x T1 with all indices zero -> sign 0, sector T2
    assert fuse_irreducible(parse_label("t1:0:0", 1), parse_label("t1:0:0", 1), 1) == vec(
        1, t2_0_0=1
    )
    # k=2: t1:1:0 x t2:1:0; i3 in {0,2}; output index 2-i3.
    #   i3=0: t=1, sign(1,1,0,0,0) = -1, j = (-1+2) mod 3 = 1 -> u:2:1
    #   i3=2: t=0, sign(1,1,2,0,0) = 0,  j = (0+0) mod 3 = 0 -> u:0:0
    # (t2:1:0 is dual to t1:1:0 here, so the vacuum must appear.)
    assert fuse_irreducible(parse_label("t1:1:0", 2), parse_label("t2:1:0", 2), 2) == vec(
        2, u_2_1=1, u_0_0=1
    )
    # k=3: t1:2:1 x t2:1:0; i3 in {1,3}; output index 3-i3.
    #   i3=1: t=1, sign(2,1,1,1,0) = 0, j = (0+2) mod 3 = 2 -> u:2:2
    #   i3=3: t=0, sign(2,1,3,1,0) = 1, j = (1+0) mod 3 = 1 -> u:0:1
    assert fuse_irreducible(parse_label("t1:2:1", 3), parse_label("t2:1:0", 3), 3) == vec(
        3, u_2_2=1, u_0_1=1
    )
    # k=2: t2:1:1 x t2:2:0; only i3=1; sector T1, index 1.
    #   t=1, sign(1,2,1,-1,0) = -2, j = (-2+1) mod 3 = 2 -> t1:1:2
    assert fuse_irreducible(parse_label("t2:1:1", 2), parse_label("t2:2:0", 2), 2) == vec(
        2, t1_1_2=1
    )
    # k=2: u:1:1 x t2:1:2; i3 in {0,2}; sector T2, j = -sign(i1,i2,i3,j1,-j2)
    #   i3=0: t=1, sign(1,1,0,1,-2) = -2, j = 2 -> t2:0:2
    #   i3=2: t=0, sign(1,1,2,1,-2) = -1, j = 1 -> t2:2:1
    assert fuse_irreducible(parse_label("u:1:1", 2), parse_label("t2:1:2", 2), 2) == vec(
        2, t2_0_2=1, t2_2_1=1
    )
    # k=3: u:2:2 x t1:1:0; i3 in {1,3}; sector T1, j = sign(i1,i2,i3,j1,j2)
    #   i3=1: t=1, sign = 2+0-1 = 1 -> t1:1:1
    #   i3=3: t=0, sign = 2       -> t1:3:2
    assert fuse_irreducible(parse_label("u:2:2", 3), parse_label("t1:1:0", 3), 3) == vec(
        3, t1_1_1=1, t1_3_2=1
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_unit_element(k):
    vac = vacuum(k)
    for lab in enumerate_irreducibles(k):
        assert fuse_irreducible(vac, lab, k) == FusionVector({lab: 1})
        assert fuse_irreducible(lab, vac, k) == FusionVector({lab: 1})


@pytest.mark.parametrize("k", range(1, 9))
def test_sector_grading_additive(k):
    for a in enumerate_irreducibles(k):
        for b in enumerate_irreducibles(k):
            want = (a.sector + b.sector) % 3
            for c in fuse_irreducible(a, b, k):
                assert c.sector == want


@pytest.mark.parametrize("k", range(1, 7))
def test_multiplicities_are_one_and_output_count(k):
    for a in enumerate_irreducibles(k):
        for b in enumerate_irreducibles(k):
            product = fuse_irreducible(a, b, k)
            assert all(mult == 1 for _, mult in product.items())
            assert len(product) == len(sl2_fusion_range(k, a.i, b.i))


def test_mixed_orders_use_commutativity():
    rng = random.Random(4)
    for k in (2, 5, 9):
        labels = enumerate_irreducibles(k)
        for _ in range(300):
            a, b = rng.choice(labels), rng.choice(labels)
            assert fuse_irreducible(a, b, k) == fuse_irreducible(b, a, k)


def test_contragredient_examples():
    assert contragredient(parse_label("u:0:1", 4), 4).token() == "u:0:2"
    assert contragredient(parse_label("u:1:0", 4), 4).token() == "u:1:1"
    assert contragredient(parse_label("t1:1:2", 3), 3).token() == "t2:2:2"
    assert contragredient(parse_label("t2:0:1", 5), 5).token() == "t1:5:1"
    assert contragredient(vacuum(2), 2) == vacuum(2)


def test_contragredient_untwisted_cases_by_residue():
    # i in 3Z: j -> -j; i in 3Z+1: j -> 1-j; i in 3Z+2: j -> 2-j
    k = 8
    for i in range(k + 1):
        for j in range(3):
            dual = contragredient(make_label(Sector.U, i, j, k), k)
            assert dual.sector is Sector.U and dual.i == i
            assert dual.j == (i - j) % 3


@pytest.mark.parametrize("k", range(1, 13))
def test_contragredient_is_involution(k):
    for lab in enumerate_irreducibles(k):
        assert contragredient(contragredient(lab, k), k) == lab


@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_contragredient_returns_a_label_that_passes_check_label(k):
    for lab in enumerate_irreducibles(k):
        dual = contragredient(lab, k)
        assert type(dual) is IrrLabel and type(dual.sector) is Sector
        check_label(dual, k)
        assert repr(dual) == f"IrrLabel({dual.sector.name}, {dual.i}, {dual.j})"


@pytest.mark.parametrize("k", range(1, 7))
def test_vacuum_coefficient_detects_duals(k):
    vac = vacuum(k)
    for a in enumerate_irreducibles(k):
        dual = contragredient(a, k)
        for b in enumerate_irreducibles(k):
            expected = 1 if b == dual else 0
            assert fusion_coefficient(a, b, vac, k) == expected


def test_fusion_coefficient_examples():
    assert fusion_coefficient(vacuum(3), parse_label("t1:2:1", 3), parse_label("t1:2:1", 3), 3) == 1
    u110 = parse_label("u:1:0", 2)
    assert fusion_coefficient(u110, u110, u110, 2) == 0
    assert fusion_coefficient(
        parse_label("t1:1:0", 2), parse_label("t2:1:0", 2), parse_label("u:0:0", 2), 2
    ) == 1


# At k=7, t1:3:2 x t2:4:1 wraps to u:0:1 + u:2:2 + u:4:0 + u:6:1.  Each of these
# labels differs from the output u:2:2 in one field and so misses the product on one condition alone.
_MISSES_ONLY_ON = {
    "sector": IrrLabel(Sector.T1, 2, 2),
    "parity": IrrLabel(Sector.U, 3, 2),
    "charge": IrrLabel(Sector.U, 2, 0),
}


@pytest.mark.parametrize(
    "a, c, k, message",
    [
        (vacuum(3), (Sector.U, 1, 0), 3, "not an irreducible label: (<Sector.U: 0>, 1, 0)"),
        (vacuum(3), IrrLabel(Sector.U, 1.5, 0), 3, "not an irreducible label: (<Sector.U: 0>, 1.5, 0)"),
        (vacuum(3), None, True, "level must be an integer, got True"),
        (vacuum(3), vacuum(3), True, "level must be an integer, got True"),
        (vacuum(3), IrrLabel(Sector.U, 4, 0), 3, "i out of range: 4 not in 0..3"),
        (IrrLabel(Sector.U, 9, 0), IrrLabel(Sector.T1, 4, 0), 3, "i out of range: 4 not in 0..3"),  # c before a
        (IrrLabel(Sector.U, 9, 0), vacuum(3), 3, "i out of range: 9 not in 0..3"),
        (vacuum(3), IrrLabel(Sector.U, 1, 3), 3, "j out of range: 3 not in 0..2"),
    ],
)
def test_fusion_coefficient_checks_each_argument_with_its_message(a, c, k, message):
    with pytest.raises(ValueError) as err:
        fusion_coefficient(a, vacuum(3), c, k)
    assert str(err.value) == message


@pytest.mark.parametrize("condition", _MISSES_ONLY_ON)
@pytest.mark.parametrize(
    "a, b, message",
    [
        ((Sector.T1, 3, 2), IrrLabel(Sector.T2, 4, 1), "not an irreducible label: (<Sector.T1: 1>, 3, 2)"),
        (IrrLabel(Sector.T1, 3, 2), IrrLabel(Sector.T2, 8, 1), "i out of range: 8 not in 0..7"),
        (IrrLabel(Sector.T1, 3, 2), IrrLabel(Sector.T2, 4, 1.0), "not an irreducible label: (<Sector.T2: 2>, 4, 1.0)"),
    ],
)
def test_fusion_coefficient_checks_a_and_b_before_answering_a_near_miss(a, b, message, condition):
    # a c that is simply not an output never answers 0 before a and b are checked
    with pytest.raises(ValueError) as err:
        fusion_coefficient(a, b, _MISSES_ONLY_ON[condition], 7)
    assert str(err.value) == message


@pytest.mark.parametrize("condition", _MISSES_ONLY_ON)
def test_each_near_miss_misses_on_its_one_condition(condition):
    k, a, b = 7, parse_label("t1:3:2", 7), parse_label("t2:4:1", 7)
    assert [c.token() for c in _reference_fuse(a, b, k)] == ["u:0:1", "u:2:2", "u:4:0", "u:6:1"]
    near, output = _MISSES_ONLY_ON[condition], parse_label("u:2:2", k)
    assert sum(x != y for x, y in zip(near, output)) == 1
    assert fusion_coefficient(a, b, near, k) == 0 and fusion_coefficient(a, b, output, k) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_fusion_coefficient_reads_the_product_on_every_triple(k):
    labels = enumerate_irreducibles(k)
    for a in labels:
        for b in labels:
            product = fuse_irreducible(a, b, k)
            assert [fusion_coefficient(a, b, c, k) for c in labels] == [product.coefficient(c) for c in labels]


def _wrapping_pair(rng, k):
    """A random T1 x T2 or T2 x T2 pair, in either order: the twists wrap past sigma^3 = 1."""
    s1, s2 = rng.choice([(Sector.T1, Sector.T2), (Sector.T2, Sector.T2), (Sector.T2, Sector.T1)])
    return make_label(s1, rng.randint(0, k), rng.randrange(3), k), make_label(s2, rng.randint(0, k), rng.randrange(3), k)


@pytest.mark.parametrize("k", [37, 100, 200])
def test_fusion_coefficient_reads_the_product_on_random_triples(k):
    rng = random.Random(k)
    labels = enumerate_irreducibles(k)
    wraps = 0
    for draw in range(600):
        a, b = _wrapping_pair(rng, k) if draw % 2 else (rng.choice(labels), rng.choice(labels))
        wraps += a.sector + b.sector >= 3
        product = fuse_irreducible(a, b, k)
        # every output, each output's neighbours in i and j and in the other sectors, and a random label
        near = [c._replace(**change) for c in product for change in (
            {}, {"i": max(c.i - 1, 0)}, {"i": min(c.i + 1, k)}, {"j": (c.j + 1) % 3}, {"sector": Sector((c.sector + 1) % 3)},
        )]
        for c in [*near, rng.choice(labels)]:
            assert fusion_coefficient(a, b, c, k) == product.coefficient(c), (a, b, c)
    assert wraps >= 300


def test_fusion_coefficient_leaves_the_memo_alone():
    k = 5
    a, b = parse_label("t1:3:2", k), parse_label("t2:4:1", k)
    fuse_irreducible(a, a, k)
    before = fusion_mod._level_memo
    level, memo, pairs, known = before
    contents = (dict(memo), dict(pairs))
    checked = dict(known)
    for c in enumerate_irreducibles(k):
        fusion_coefficient(a, b, c, k)
    for other in (k + 1, k + 2):  # another level neither replaces nor refills it
        fusion_coefficient(vacuum(other), vacuum(other), vacuum(other), other)
    assert fusion_mod._level_memo is before and (dict(memo), dict(pairs)) == contents
    # nor does it add to the table of checked operands: b was never fused at k
    assert known == checked and list(known) == [a] and known[a][0] is a


def test_level_mismatch_rejected():
    with pytest.raises(ValueError, match="i out of range"):
        fuse_irreducible(parse_label("u:3:0", 3), parse_label("u:1:0", 2), 2)
    with pytest.raises(ValueError, match="i out of range"):
        contragredient(parse_label("t1:3:0", 3), 2)


def _reference_fuse(a, b, k):
    """The sector-pair formulas built label by label through the reference helpers above."""
    if a.sector > b.sector:
        a, b = b, a
    (s1, i1, j1), (s2, i2, j2) = a, b
    out = []
    for i3 in sl2_fusion_range(k, i1, i2):
        if s1 is Sector.U and s2 is Sector.U:
            lab = make_label(Sector.U, i3, sign_value(i1, i2, i3, j1, j2), k)
        elif s1 is Sector.U and s2 is Sector.T1:
            lab = make_label(Sector.T1, i3, sign_value(i1, i2, i3, j1, j2), k)
        elif s1 is Sector.U and s2 is Sector.T2:
            lab = make_label(Sector.T2, i3, -sign_value(i1, i2, i3, j1, -j2), k)
        elif s1 is Sector.T1 and s2 is Sector.T1:
            lab = make_label(Sector.T2, i3, -sign_value(i1, i2, i3, j1, j2), k)
        elif s1 is Sector.T1 and s2 is Sector.T2:
            lab = make_label(Sector.U, k - i3, sign_value(i1, i2, i3, j1, -j2) + k - i3, k)
        else:
            lab = make_label(Sector.T1, k - i3, sign_value(i1, i2, i3, -j1, -j2) + k - i3, k)
        out.append(lab)
    return FusionVector((lab, 1) for lab in out)


@pytest.mark.parametrize("k", range(1, 11))
def test_fuse_irreducible_matches_reference_in_order(k):
    labels = enumerate_irreducibles(k)
    for a in labels:
        for b in labels:
            got = fuse_irreducible(a, b, k)
            want = _reference_fuse(a, b, k)
            assert got == want
            assert list(got.items()) == list(want.items())


_EPS = {Sector.U: 1, Sector.T1: 1, Sector.T2: -1}


def _product_key(a, b, k):
    """``(out, lo, hi, c)``: twist sum, sl2 range ends, and the signed charge at ``i3 = lo``."""
    (s1, i1, j1), (s2, i2, j2) = a, b
    return (
        s1 + s2,
        abs(i1 - i2),
        min(i1 + i2, 2 * k - i1 - i2),
        (_EPS[s1] * j1 + _EPS[s2] * j2 - min(i1, i2)) % 3,
    )


def _output_key(a, b, k):
    """``(sector, lo, hi, c)`` of the outputs: ``_product_key`` with a wrap reflected into the range."""
    out, lo, hi, c = _product_key(a, b, k)
    if out < 3:
        return out, lo, hi, c
    return out - 3, k - hi, k - lo, (c + k - (lo + hi) // 2) % 3


@pytest.mark.parametrize("k", [*range(1, 13), 20, 21])
def test_products_depend_only_on_the_range_and_the_lowest_charge(k):
    # Every pair of ordered pairs with one (out, lo, hi, c) must have one
    # reference product, and so must every pair with one key of its outputs,
    # (sector, lo, hi, c), which the memo uses: the first output is
    # (sector, lo, e(sector) c) and the last has index hi.  Conversely there
    # are as many output keys as distinct products, so no product has two
    # memo entries; and since the key is symmetric, both orders of a pair
    # share one vector.
    labels = enumerate_irreducibles(k)
    by_key, by_output_key = {}, {}
    for a in labels:
        for b in labels:
            want = list(_reference_fuse(a, b, k).items())
            assert by_key.setdefault(_product_key(a, b, k), want) == want, (a, b)
            sector, lo, hi, c = key = _output_key(a, b, k)
            assert (want[0][0], want[-1][0].i) == ((sector, lo, _EPS[Sector(sector)] * c % 3), hi), (a, b)
            assert by_output_key.setdefault(key, want) == want, (a, b)
    products = {tuple(want) for want in by_key.values()}
    assert len(by_output_key) == len(products)
    assert all(fuse_irreducible(a, b, k) is fuse_irreducible(b, a, k) for a in labels for b in labels)
    assert len(fusion_mod._level_memo[1]) == len(products)


def test_int_sector_rejected():
    k = 3
    with pytest.raises(ValueError, match="not an irreducible label"):
        fuse_irreducible(IrrLabel(0, 1, 0), parse_label("u:1:0", k), k)


def test_out_of_range_j_rejected():
    with pytest.raises(ValueError, match="j out of range"):
        fuse_irreducible(IrrLabel(Sector.U, 1, 7), parse_label("u:1:0", 3), 3)


def test_plain_tuple_rejected():
    with pytest.raises(ValueError, match="not an irreducible label"):
        fuse_irreducible((Sector.U, 1, 0), parse_label("u:1:0", 3), 3)


@pytest.mark.parametrize("k", [*range(1, 11), 20])
def test_fuse_irreducible_memo_matches_reference_across_levels(k):
    # Row by row at levels k, k+1, k: each row fills a fresh memo for its
    # level and reads it back for later pairs with the same j residue, so an
    # entry kept from the other level, or one shared by a wrong key, shows.
    labels = enumerate_irreducibles(k)
    for a in labels:
        want = {level: [list(_reference_fuse(a, b, level).items()) for b in labels] for level in (k, k + 1)}
        for level in (k, k + 1, k):
            assert [list(fuse_irreducible(a, b, level).items()) for b in labels] == want[level]


def test_fuse_irreducible_vectors_cannot_corrupt_the_memo():
    # A memo hit returns the memo's own vector, so no assignment to a
    # returned vector may go through, and every later product stays right.
    k = 4
    a, b = parse_label("u:2:1", k), parse_label("t1:3:2", k)
    want = _reference_fuse(a, b, k)
    first = fuse_irreducible(a, b, k)
    second = fuse_irreducible(a, b, k)  # served by the memo
    assert first == second == want
    hash(second)  # reads the hash kept since the vector was built
    for name, value in (("_items", ((vacuum(k), 5),)), ("_hash", 0), ("other", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(second, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del second._items
    third = fuse_irreducible(a, b, k)
    assert third == first == want and list(third.items()) == list(want.items())
    assert hash(third) == hash(want)
    labels = enumerate_irreducibles(k)
    assert all(fuse_irreducible(c, d, k) == _reference_fuse(c, d, k) for c in labels for d in labels)


def test_fuse_irreducible_shares_one_vector_per_distinct_product():
    k = 20
    labels = enumerate_irreducibles(k)
    fuse_irreducible(labels[0], labels[0], k + 1)  # the next call starts a fresh memo at k
    first = [fuse_irreducible(a, b, k) for a in labels for b in labels]
    again = [fuse_irreducible(a, b, k) for a in labels for b in labels]
    assert all(x is y for x, y in zip(first, again))  # the first call, at a new level, is memoised too
    memo = fusion_mod._level_memo[1]
    assert len(memo) == 1089  # keys (sector, lo, hi, c) of the outputs: one per distinct product
    assert len(set(first)) == len({id(v) for v in memo.values()}) == len(set(memo.values())) == 1089
    assert {id(v) for v in again} == {id(v) for v in memo.values()}
    pairs = fusion_mod._level_memo[2]  # one interned (label, 1) pair per label the level's products use
    assert len(pairs) == len(labels)
    assert {id(p) for v in memo.values() for p in v.items()} == {id(p) for p in pairs.values()}


@pytest.mark.parametrize("k", [3, 20])
@pytest.mark.parametrize("a, b", [("u:0:0", "u:0:0"), ("u:2:1", "t1:3:2"), ("t1:1:2", "t2:2:1"), ("t2:3:0", "t2:1:1")])
def test_the_first_call_at_a_new_level_stores_its_product(k, a, b):
    a, b = parse_label(a, k), parse_label(b, k)
    fuse_irreducible(a, b, k + 1)  # so that the next call is the first at k
    elsewhere = parse_label("t1:0:1", k + 1)  # an operand checked at k + 1 only
    fuse_irreducible(elsewhere, elsewhere, k + 1)
    previous = fusion_mod._level_memo[3]
    assert previous[elsewhere][0] is elsewhere
    vector = fuse_irreducible(a, b, k)
    level, memo, pairs, known = fusion_mod._level_memo
    assert level == k and vector == _reference_fuse(a, b, k)
    assert list(memo) == [_output_key(a, b, k)] and memo[_output_key(a, b, k)] is vector
    assert list(pairs) == list(vector) and all(pairs[c] is pair for c, pair in zip(vector, vector.items()))
    # a fresh table for the new level, holding only the operands fused there, each as its own object
    assert known is not previous and known == {c: (c, c.sector, c.i, _EPS[c.sector] * c.j) for c in (a, b)}
    assert all(known[c][0] is c for c in (a, b))
    assert fuse_irreducible(b, a, k) is vector and len(memo) == 1


def _peak_bytes_of_small_products(k):
    """Peak bytes traced while fusing small products at level ``k``, and their results."""
    vac, gen = parse_label("u:0:0", k), parse_label("u:2:1", k)
    tracemalloc.start()
    try:
        fuse_irreducible(vac, vac, k + 1)  # so that the calls at k start a fresh memo
        first = fuse_irreducible(vac, vac, k)  # a new level: a fresh memo and a miss
        again = fuse_irreducible(vac, vac, k)  # a memo hit
        wide = fuse_irreducible(gen, gen, k)  # a memo miss with three outputs
        coefficient = fusion_coefficient(vac, vac, vac, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (first, again, wide, coefficient)


def test_fusion_at_a_huge_level_builds_only_its_outputs():
    # What a call builds grows with its product's outputs, never with k
    # alone.  The bound is checked at k = 10**5 first, where a table of all
    # labels would still fit, so a regression fails there before k = 10**7.
    for k in (10**5, 10**7):
        peak, (first, again, wide, coefficient) = _peak_bytes_of_small_products(k)
        assert peak < 256 * 1024, (k, peak)
        assert first == again == FusionVector({vacuum(k): 1}) and coefficient == 1
        assert len(wide) == 3 and wide == _reference_fuse(parse_label("u:2:1", k), parse_label("u:2:1", k), k)


def test_fusion_vector_copies_and_pickles_as_a_value():
    k = 3
    vector = fuse_irreducible(parse_label("u:1:0", k), parse_label("t2:2:1", k), k)
    for twin in (copy.copy(vector), copy.deepcopy(vector), pickle.loads(pickle.dumps(vector))):
        assert twin == vector and hash(twin) == hash(vector) and list(twin.items()) == list(vector.items())


@pytest.mark.parametrize("k", [1, 4, 9])
def test_vectors_from_every_constructor_agree(k):
    # From __init__, from _from_canonical, from a memo miss (the first call
    # at a new level among them) and from a memo hit: equal, equal hashes,
    # equal items.
    labels = enumerate_irreducibles(k)
    fuse_irreducible(labels[0], labels[0], k + 1)  # the next call starts a fresh memo at k
    for a in labels:
        for b in labels:
            want = _reference_fuse(a, b, k)
            items = list(want.items())
            vectors = [
                FusionVector(items),
                FusionVector(dict(items)),
                FusionVector._from_canonical(tuple(items)),
                fuse_irreducible(a, b, k),
                fuse_irreducible(a, b, k),
            ]
            for v in vectors:
                assert v == want and hash(v) == hash(want) == hash(tuple(items))
                assert list(v.items()) == items and list(v) == [c for c, _ in items] and len(v) == len(items)
                assert repr(v) == repr(want)


def test_coefficient_of_an_absent_label_is_zero():
    k = 3
    a, b = parse_label("t1:1:0", k), parse_label("t2:1:0", k)
    product = fuse_irreducible(a, b, k)
    outputs = set(product)
    for c in enumerate_irreducibles(k):
        assert product.coefficient(c) == (1 if c in outputs else 0)
    assert FusionVector().coefficient(vacuum(k)) == 0
    assert FusionVector._from_canonical(()).coefficient(vacuum(k)) == 0


@pytest.mark.parametrize(
    "key, message",
    [
        ("u:0:0", "not an irreducible label: 'u:0:0'"),
        (None, "not an irreducible label: None"),
        ((Sector.U, 0, 2), f"not an irreducible label: {(Sector.U, 0, 2)!r}"),
        (IrrLabel(1, 0, 2), "not an irreducible label: (1, 0, 2)"),
        (IrrLabel(Sector.U, -1, 0), f"not an irreducible label: {(Sector.U, -1, 0)!r}"),
    ],
)
def test_coefficient_refuses_a_non_label(key, message):
    # (Sector.U, 0, 2) equals the label u:0:2, which this product holds
    product = fuse_irreducible(parse_label("u:0:1", 3), parse_label("u:0:1", 3), 3)
    assert product.coefficient(parse_label("u:0:2", 3)) == 1
    for vector in (product, FusionVector(product.items()), FusionVector()):
        with pytest.raises(ValueError) as err:
            vector.coefficient(key)
        assert str(err.value) == message


_K = 3
_GOOD = IrrLabel(Sector.U, 1, 0)
# Each malformed operand with the exact message its field check raises at level _K.
_BAD_OPERANDS = [
    (IrrLabel(0, 1, 0), "not an irreducible label: (0, 1, 0)"),
    (IrrLabel(Sector.U, True, 0), f"not an irreducible label: {(Sector.U, True, 0)!r}"),
    (IrrLabel(Sector.U, 1.0, 0), f"not an irreducible label: {(Sector.U, 1.0, 0)!r}"),
    (IrrLabel(Sector.T1, 1, False), f"not an irreducible label: {(Sector.T1, 1, False)!r}"),
    (IrrLabel(Sector.T2, 1, 2.0), f"not an irreducible label: {(Sector.T2, 1, 2.0)!r}"),
    (IrrLabel(Sector.U, -1, 0), "i out of range: -1 not in 0..3"),
    (IrrLabel(Sector.T1, _K + 1, 0), "i out of range: 4 not in 0..3"),
    (IrrLabel(Sector.T2, 1, 3), "j out of range: 3 not in 0..2"),
    ((Sector.U, 1, 0), f"not an irreducible label: {(Sector.U, 1, 0)!r}"),
    (IrrLabel(Sector.U, [1], 0), f"not an irreducible label: {(Sector.U, [1], 0)!r}"),
]


@pytest.mark.parametrize("bad, message", _BAD_OPERANDS)
@pytest.mark.parametrize("position", ["left", "right"])
def test_fuse_irreducible_refuses_malformed_operands(bad, message, position):
    with pytest.raises(ValueError) as info:
        check_label(bad, _K)
    assert str(info.value) == message
    fuse_irreducible(_GOOD, _GOOD, _K)  # a warm memo at this level must not answer either
    fuse_irreducible(_GOOD, _GOOD, _K)
    operands = (bad, _GOOD) if position == "left" else (_GOOD, bad)
    # fusion_coefficient's own operand c is well formed, so only a or b can raise
    for call in (lambda: fuse_irreducible(*operands, _K), lambda: fusion_coefficient(*operands, _GOOD, _K)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# Each malformed operand that equals, or stands for, a label already checked, with that label's
# text, the level it was fused at, the level of the call and the message the call must raise.
_TWINNED_OPERANDS = [
    ((Sector.U, 1, 0), "u:1:0", 3, 3, f"not an irreducible label: {(Sector.U, 1, 0)!r}"),
    (IrrLabel(Sector.U, True, 0), "u:1:0", 3, 3, f"not an irreducible label: {(Sector.U, True, 0)!r}"),
    (IrrLabel(0, 1, 0), "u:1:0", 3, 3, "not an irreducible label: (0, 1, 0)"),  # equal to u:1:0, same hash
    (IrrLabel(Sector.U, [1], 0), "u:1:0", 3, 3, f"not an irreducible label: {(Sector.U, [1], 0)!r}"),
    (None, "u:3:0", 3, 2, "i out of range: 3 not in 0..2"),  # the checked label itself, one level down
]


@pytest.mark.parametrize("bad, text, level, k, message", _TWINNED_OPERANDS)
@pytest.mark.parametrize("position", ["left", "right"])
def test_a_checked_twin_does_not_pass_a_malformed_operand(bad, text, level, k, message, position):
    # The twin is in the table of checked operands, but only the very object
    # stored there, at the table's level, skips the full check.
    twin, good = parse_label(text, level), parse_label("u:1:0", level)
    fuse_irreducible(twin, good, level)
    assert fusion_mod._level_memo[3][twin][0] is twin
    bad = twin if bad is None else bad
    operands = (bad, good) if position == "left" else (good, bad)
    with pytest.raises(ValueError) as info:
        fuse_irreducible(*operands, k)
    assert str(info.value) == message
    sub = _LabelSubclass(*twin)  # equal to the twin and not it: checked in full, and fine
    want = _reference_fuse(twin, good, level)
    assert fuse_irreducible(sub, good, level) == fuse_irreducible(twin, good, level) == want


@pytest.mark.parametrize(
    "k, message",
    [(0, "level must be >= 1, got 0"), (True, "level must be an integer, got True"), (1.0, "level must be an integer, got 1.0")],
)
def test_fuse_irreducible_refuses_bad_levels(k, message):
    vac = IrrLabel(Sector.U, 0, 0)
    fuse_irreducible(vac, vac, 1)
    fuse_irreducible(vac, vac, 1)
    with pytest.raises(ValueError) as info:
        fuse_irreducible(vac, vac, k)
    assert str(info.value) == message


class _LabelSubclass(IrrLabel):
    __slots__ = ()


@pytest.mark.parametrize("k", [1, 2, 5])
def test_irrlabel_subclass_operands_fuse_like_plain_labels(k):
    labels = enumerate_irreducibles(k)
    for a in labels:
        for b in labels:
            want = list(fuse_irreducible(a, b, k).items())
            sub_a, sub_b = _LabelSubclass(*a), _LabelSubclass(*b)
            for operands in ((sub_a, b), (a, sub_b), (sub_a, sub_b)):
                assert list(fuse_irreducible(*operands, k).items()) == want
            assert fusion_coefficient(sub_a, sub_b, _LabelSubclass(*want[0][0]), k) == 1
    bad = _LabelSubclass(Sector.U, k + 1, 0)
    with pytest.raises(ValueError) as info:
        fuse_irreducible(bad, labels[0], k)
    assert str(info.value) == f"i out of range: {k + 1} not in 0..{k}"


def test_fuse_irreducible_threads_on_distinct_levels():
    # More threads than cores, each fusing at its own level, so the shared
    # memo keeps switching levels under a short switch interval; every
    # product must still be its own level's.
    count = (os.cpu_count() or 2) + 2
    rng = random.Random(7)
    work = {}
    for k in range(1, count + 1):
        labels = enumerate_irreducibles(k)
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(60)]
        work[k] = [(a, b, list(_reference_fuse(a, b, k).items())) for a, b in pairs]
    errors, done = [], []
    deadline = time.monotonic() + 1.0

    def worker(k):
        try:
            while time.monotonic() < deadline:
                for a, b, want in work[k]:
                    if list(fuse_irreducible(a, b, k).items()) != want:
                        errors.append((k, a, b))
            done.append(k)
        except Exception as exc:  # surfaced by the assertion below
            errors.append((k, exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sorted(done) == sorted(work)
