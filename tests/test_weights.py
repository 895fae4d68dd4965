from fractions import Fraction as F

import pytest

from orbifusion.labels import Sector, enumerate_irreducibles, make_label, parse_label, vacuum
from orbifusion.verify import _constructed_weights, _least_depth
from orbifusion.weights import conformal_weight, generator_desc

# Frozen level-1 weight table, canonical order (u, t1, t2; i ascending; j ascending).
LEVEL1_TABLE = {
    "u:0:0": F(0), "u:0:1": F(1), "u:0:2": F(1),
    "u:1:0": F(1, 4), "u:1:1": F(1, 4), "u:1:2": F(9, 4),
    "t1:0:0": F(1, 36), "t1:0:1": F(49, 36), "t1:0:2": F(25, 36),
    "t1:1:0": F(1, 9), "t1:1:1": F(4, 9), "t1:1:2": F(16, 9),
    "t2:0:0": F(1, 9), "t2:0:1": F(4, 9), "t2:0:2": F(16, 9),
    "t2:1:0": F(1, 36), "t2:1:1": F(49, 36), "t2:1:2": F(25, 36),
}


def test_level1_table_exact():
    for token, expected in LEVEL1_TABLE.items():
        assert conformal_weight(parse_label(token, 1), 1) == expected


def test_level1_catalog_order_matches_frozen_values():
    got = [conformal_weight(lab, 1) for lab in enumerate_irreducibles(1)]
    assert got == list(LEVEL1_TABLE.values())


# Literal k > 1 table rows, one lambda per row, so each branch of the
# implementation is compared against an independently transcribed formula.
U_ROWS = {
    (0, 0): lambda k: F(0),
    (0, 1): lambda k: F(1),
    (0, 2): lambda k: F(1),
    (1, 0): lambda k: F(3, 4 * (k + 2)),
    (1, 1): lambda k: F(3, 4 * (k + 2)),
    (1, 2): lambda k: F(4 * k + 11, 4 * (k + 2)),
    "generic": lambda k, i, j: F(i * (i + 2), 4 * (k + 2)),
}
T1_ROWS = {
    "boundary": lambda k, j: F(k, 36) + (F(0), F(48, 36), F(24, 36))[j],      # i = 0
    "generic": lambda k, i, j: F(i * (i + 2), 4 * (k + 2)) + F(k - 6 * i + 12 * j, 36),
}
T2_ROWS = {
    "boundary": lambda k, j: F(k, 36) + (F(0), F(48, 36), F(24, 36))[j],      # i = k
    "generic": lambda k, i, j: F(i * (i + 2), 4 * (k + 2)) + F(k - 3 * i + 3 * j, 9),
}


@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_table_rows_above_level_one(k):
    for i in range(k + 1):
        for j in range(3):
            u = conformal_weight(make_label(Sector.U, i, j, k), k)
            if (i, j) in U_ROWS:
                assert u == U_ROWS[(i, j)](k)
            else:
                assert u == U_ROWS["generic"](k, i, j)
            t1 = conformal_weight(make_label(Sector.T1, i, j, k), k)
            if i == 0:
                assert t1 == T1_ROWS["boundary"](k, j)
            else:
                assert t1 == T1_ROWS["generic"](k, i, j)
            t2 = conformal_weight(make_label(Sector.T2, i, j, k), k)
            if i == k:
                assert t2 == T2_ROWS["boundary"](k, j)
            else:
                assert t2 == T2_ROWS["generic"](k, i, j)


def _twisted_lowest_weight(k, i, r):
    """i(i+2)/(4(k+2)) + (r^2 k - 6ir)/36, the lowest weight of the sigma^r-twisted module of index i."""
    return F(i * (i + 2), 4 * (k + 2)) + F(r * r * k - 6 * i * r, 36)


def _composed_weight(label, k):
    """The weight composed from the twisted lowest weight plus the j offset in
    36ths, with the special rows and the level-1 table written out literally."""
    sector, i, j = label
    if k == 1:
        return LEVEL1_TABLE[label.token()]
    if sector is Sector.U:
        if i == 0:
            return F(0) if j == 0 else F(1)
        if i == 1:
            return F(4 * k + 11, 4 * (k + 2)) if j == 2 else F(3, 4 * (k + 2))
        return _twisted_lowest_weight(k, i, 0)
    r, boundary = (1, i == 0) if sector is Sector.T1 else (2, i == k)
    offset = ((0, 48, 24) if boundary else (0, 12, 24))[j]
    return _twisted_lowest_weight(k, i, r) + F(offset, 36)


@pytest.mark.parametrize("k", [*range(1, 61), 200, 997, 1000])
def test_weight_equals_the_composed_reference(k):
    for lab in enumerate_irreducibles(k):
        got, expected = conformal_weight(lab, k), _composed_weight(lab, k)
        assert type(got) is F and got == expected and str(got) == str(expected), lab.token()


def test_individual_weight_spot_checks():
    assert conformal_weight(parse_label("t1:0:1", 1), 1) == F(49, 36)
    assert conformal_weight(parse_label("t2:1:2", 1), 1) == F(25, 36)
    assert conformal_weight(parse_label("u:0:0", 7), 7) == 0
    # t1:i:2 at k > 1, 0 < i <= k
    assert conformal_weight(parse_label("t1:2:2", 4), 4) == F(2 * 4, 4 * 6) + F(4 - 12 + 24, 36)


@pytest.mark.parametrize("k", range(1, 13))
def test_twisted_sector_weight_pairing(k):
    # T1 at index i and T2 at index k-i carry identical weights for each j.
    for i in range(k + 1):
        for j in range(3):
            assert conformal_weight(make_label(Sector.T1, i, j, k), k) == conformal_weight(
                make_label(Sector.T2, k - i, j, k), k
            )


@pytest.mark.parametrize("k", range(1, 13))
def test_t1_base_column_is_twist_weight(k):
    for i in range(k + 1):
        assert conformal_weight(make_label(Sector.T1, i, 0, k), k) == _twisted_lowest_weight(k, i, 1)
        assert conformal_weight(make_label(Sector.T2, i, 0, k), k) == _twisted_lowest_weight(k, i, 2)


@pytest.mark.parametrize("k", [*range(1, 31), 37, 50, 100, 200])
def test_the_construction_gives_every_weight(k):
    built, labels = _constructed_weights(k), enumerate_irreducibles(k)
    assert len(built) == 9 * (k + 1) and set(built) == set(labels)
    for lab in labels:
        assert built[lab] == conformal_weight(lab, k) * 36 * (k + 2), lab.token()


@pytest.mark.parametrize("k", range(1, 41))
def test_the_construction_window_reaches_every_least_grade(k):
    # the same minima from a window that reaches past the extremal weights +-(2k + i) by 12
    wide = {}
    for r, e in enumerate((1, 1, -1)):
        for i in range(k + 1):
            for lam in range(-i - 2 * k - 12, i + 2 * k + 13, 2):
                key = (r, i, e * (i - lam) // 2 % 3)
                grade = 9 * i * (i + 2) + (k + 2) * (36 * _least_depth(k, i, lam) - 6 * r * lam + r * r * k)
                wide[key] = min(grade, wide.get(key, grade))
    assert wide == _constructed_weights(k)


@pytest.mark.parametrize("k", range(1, 13))
def test_only_vacuum_has_weight_zero(k):
    for lab in enumerate_irreducibles(k):
        w = conformal_weight(lab, k)
        assert w >= 0
        assert (w == 0) == (lab == vacuum(k))


def test_generator_descriptions():
    # vacuum sector generators
    assert generator_desc(parse_label("u:0:0", 2), 2) == "1"
    assert generator_desc(parse_label("u:0:1", 2), 2) == "e(-1)1"
    assert generator_desc(parse_label("u:0:2", 2), 2) == "f(-1)1"
    # the level-1 j=2 generators sit one mode deeper than at higher level
    assert generator_desc(parse_label("u:1:2", 1), 1) == "f(-2)v^{1,1}"
    assert generator_desc(parse_label("u:1:2", 2), 2) == "f(-1)v^{1,1}"
    assert generator_desc(parse_label("t1:1:2", 1), 1) == "f(-2)v^{1,1}"
    assert generator_desc(parse_label("u:3:1", 3), 3) == "v^{3,2}"
    assert generator_desc(parse_label("t1:0:1", 2), 2) == "e(-1)1"
    assert generator_desc(parse_label("t1:2:1", 3), 3) == "v^{2,1}"
    assert generator_desc(parse_label("t2:0:0", 2), 2) == "1"
    assert generator_desc(parse_label("t2:1:1", 3), 3) == "f(-1)v^{1,1}"
    assert generator_desc(parse_label("t2:3:1", 3), 3) == "f(-2)v^{3,3}"
    assert generator_desc(parse_label("t2:0:2", 1), 1) == "e(-1)1"
    assert generator_desc(parse_label("t2:0:2", 2), 2) == "f(-1)^2 1"
    assert generator_desc(parse_label("t2:2:2", 3), 3) == "v^{2,1}"


def test_weight_and_generator_of_one_label():
    lab = parse_label("t1:1:1", 1)
    assert conformal_weight(lab, 1) == F(4, 9)
    assert generator_desc(lab, 1) == "v^{1,0}"
