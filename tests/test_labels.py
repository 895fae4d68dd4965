import copy
import pickle
import random

import pytest

from orbifusion.fusion import contragredient, fusion_coefficient
from orbifusion.labels import (
    FusionVector,
    IrrLabel,
    LabelSyntaxError,
    Sector,
    check_label,
    check_level,
    enumerate_irreducibles,
    make_label,
    parse_label,
    vacuum,
)
from orbifusion.qdim import qdim_exact, qdim_numeric
from orbifusion.weights import conformal_weight, generator_desc


def test_sector_grades():
    assert [int(s) for s in Sector] == [0, 1, 2]
    assert [s.tag for s in Sector] == ["u", "t1", "t2"]


def _residue3(j):
    """The residue of j mod 3, as make_label stores it."""
    return make_label(Sector.U, 1, j, 2).j


def test_residue3_basics():
    for j, reduced in ((4, 1), (-1, 2), (0, 0), (-7, 2), (3, 0)):
        assert _residue3(j) == reduced


def test_residue3_homomorphism_property():
    rng = random.Random(20250825)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        assert _residue3(a) in (0, 1, 2) and (a - _residue3(a)) % 3 == 0
        assert _residue3(a + b) == _residue3(_residue3(a) + _residue3(b))
        assert _residue3(a * b) == _residue3(_residue3(a) * _residue3(b))
        lab = make_label(rng.choice(list(Sector)), rng.randint(0, 4), a, 4)
        assert lab.j == _residue3(a)


@pytest.mark.parametrize("k", range(1, 21))
def test_enumeration_count_and_uniqueness(k):
    labels = enumerate_irreducibles(k)
    assert len(labels) == 9 * (k + 1)
    assert len(set(labels)) == len(labels)


def test_enumeration_canonical_order():
    labels = enumerate_irreducibles(2)
    assert labels == sorted(labels)
    assert labels[0] == IrrLabel(Sector.U, 0, 0)
    assert labels[:4] == [
        IrrLabel(Sector.U, 0, 0),
        IrrLabel(Sector.U, 0, 1),
        IrrLabel(Sector.U, 0, 2),
        IrrLabel(Sector.U, 1, 0),
    ]
    # sector-major: all u labels precede all t1 labels precede all t2 labels
    tags = [lab.sector for lab in labels]
    assert tags == sorted(tags)


def test_make_label_reduces_j_and_round_trips():
    lab = make_label(Sector.T1, 1, 5, k=3)
    assert (lab.sector, lab.i, lab.j) == (Sector.T1, 1, 2)
    assert lab == IrrLabel(Sector.T1, 1, 2)
    assert make_label(Sector.U, 0, 0, k=1) == vacuum(1)
    assert make_label(Sector.U, 2, -1, k=4).j == 2


def test_make_label_distinct_diagnostics():
    with pytest.raises(ValueError, match="i out of range"):
        make_label(Sector.T2, 4, 0, k=3)
    with pytest.raises(ValueError, match="i out of range"):
        make_label(Sector.U, -1, 0, k=3)
    with pytest.raises(ValueError, match="level must be >= 1"):
        make_label(Sector.U, 0, 0, k=0)
    with pytest.raises(ValueError, match="level must be an integer"):
        enumerate_irreducibles("3")


@pytest.mark.parametrize("i, j", [(1.5, 0), (True, 0), (1, 0.0), (1, False), ("1", 0)])
def test_make_label_rejects_non_int_indices(i, j):
    with pytest.raises(ValueError, match="not an irreducible label"):
        make_label(Sector.U, i, j, 3)


@pytest.mark.parametrize("sector", [True, 1, 0])
def test_make_label_rejects_non_sector(sector):
    with pytest.raises(ValueError, match="not an irreducible label"):
        make_label(sector, 0, 0, 3)


def test_token_and_pretty_forms():
    lab = make_label(Sector.T1, 1, 2, k=3)
    assert lab.token() == "t1:1:2"
    assert lab.pretty(3) == "L(3,1)^{T1,2}"
    assert make_label(Sector.U, 1, 0, k=3).pretty(3) == "L(3,1)^0"
    assert make_label(Sector.T2, 0, 1, k=3).token() == "t2:0:1"


def test_parse_label_accepts_grammar():
    assert parse_label("t1:1:2", 3) == IrrLabel(Sector.T1, 1, 2)
    assert parse_label("u:0:0", 1) == vacuum(1)
    assert parse_label("t2:10:1", 12) == IrrLabel(Sector.T2, 10, 1)
    # j is taken as written: unlike make_label, parsing does not reduce it
    with pytest.raises(ValueError, match="j out of range"):
        parse_label("u:0:5", 1)


def test_parse_label_round_trips_every_token():
    for k in (*range(1, 31), 200):
        for lab in enumerate_irreducibles(k):
            parsed = parse_label(lab.token(), k)
            assert parsed == lab == make_label(lab.sector, lab.i, lab.j, k)
            assert type(parsed) is IrrLabel and type(parsed.sector) is Sector


@pytest.mark.parametrize(
    "text, position",
    [
        ("T1:1:2", 0),       # tags are lowercase
        ("t3:1:2", 0),
        ("", 0),
        ("u", 1),
        ("u:", 2),
        ("u:1", 3),
        ("u:1:", 4),
        ("t1:x:2", 3),
        ("u:1:2 ", 5),
        ("u:1:2:3", 5),
        ("u::2", 2),
        ("u:1:\u00b2", 4),  # superscript two: str.isdigit is true, int() refuses it
        ("u:\u0661:0", 2),  # Arabic-Indic one: not an ASCII decimal digit
        (5, 0),              # not a string at all
        (None, 0),
        (b"u:0:0", 0),
        (["u:0:0"], 0),
        ("u:01:0", 2),       # leading zeros: the position of the zero
        ("u:1:00", 4),
        ("t2:007:1", 3),
        ("u:00", 2),
    ],
)
def test_parse_label_syntax_errors_with_position(text, position):
    with pytest.raises(LabelSyntaxError) as err:
        parse_label(text, 3)
    assert err.value.position == position
    assert str(position) in str(err.value)


def test_label_syntax_error_copies_and_pickles():
    with pytest.raises(LabelSyntaxError) as err:
        parse_label("u:1:00", 3)
    original = err.value
    for twin in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert type(twin) is LabelSyntaxError
        assert (twin.text, twin.position, str(twin)) == ("u:1:00", 4, str(original))


def test_parse_label_refuses_leading_zeros():
    # each accepted text is its label's token; a lone 0 stays valid
    assert parse_label("u:0:0", 3).token() == "u:0:0"
    assert parse_label("t1:10:0", 12).token() == "t1:10:0"
    for text in ("u:01:0", "u:1:00", "t1:00:1"):
        with pytest.raises(LabelSyntaxError, match="unexpected leading zero"):
            parse_label(text, 3)


def test_parse_label_range_error_delegated():
    with pytest.raises(ValueError, match="i out of range"):
        parse_label("u:4:0", 3)
    assert parse_label("u:5:0", 9) == IrrLabel(Sector.U, 5, 0)
    with pytest.raises(ValueError, match=r"i out of range: 5 not in 0\.\.3"):
        parse_label("u:5:0", 3)
    for k in (0, True, "9"):
        with pytest.raises(ValueError, match="level must be"):
            parse_label("u:5:0", k)


def test_parse_label_memo_checks_the_level_on_every_call():
    assert parse_label("u:150:0", 200) == IrrLabel(Sector.U, 150, 0)
    with pytest.raises(ValueError, match=r"^i out of range: 150 not in 0\.\.3$"):
        parse_label("u:150:0", 3)
    with pytest.raises(ValueError, match="^level must be >= 1, got 0$"):
        parse_label("u:150:0", 0)


@pytest.mark.parametrize("text, position", [("u:01:0", 2), ("t1:1:2 ", 6), ("x", 0), ("u:1", 3)])
def test_parse_label_raises_the_same_syntax_error_on_every_call(text, position):
    errors = []
    for _ in range(2):
        with pytest.raises(LabelSyntaxError) as err:
            parse_label(text, 3)
        errors.append((err.value.text, err.value.position, str(err.value)))
    assert errors[0] == errors[1] and errors[0][1] == position


def test_parse_label_memo_keeps_only_exact_strings():
    from orbifusion.labels import _read_label

    class Text(str):
        pass

    _read_label.cache_clear()
    assert parse_label("t2:3:1", 5) == parse_label(Text("t2:3:1"), 5) == IrrLabel(Sector.T2, 3, 1)
    assert _read_label.cache_info()[:4] == (0, 1, 1024, 1)  # (hits, misses, maxsize, currsize)
    parse_label("t2:3:1", 4)
    assert _read_label.cache_info()[:2] == (1, 1)


def _raised(call):
    """The type and message ``call()`` raises, or None when it returns."""
    try:
        call()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)
    return None


class _LabelSubclass(IrrLabel):
    pass


class _Level(int):
    """An int level that ``check_label``'s inline test does not take, so its level and field checks run."""


_BAD_LEVELS = [True, 0, -1, 1.0, "3"]
_BAD_LABELS = [
    (Sector.U, 1, 0),              # a plain tuple
    None,
    IrrLabel(0, 1, 0),              # an int sector
    IrrLabel(True, 1, 0),           # a bool sector
    IrrLabel(Sector.U, True, 0),
    IrrLabel(Sector.U, 1.0, 0),
    IrrLabel(Sector.U, 1, False),
    IrrLabel(Sector.U, 1, 1.0),
    IrrLabel(Sector.T1, 4, 0),      # i = k + 1 at k = 3
    IrrLabel(Sector.T2, 1, 3),
    IrrLabel(Sector.U, 1, -1),
]
_GOOD_LABELS = [IrrLabel(Sector.U, 1, 0), _LabelSubclass(Sector.T1, 2, 1)]


@pytest.mark.parametrize("label", _BAD_LABELS + _GOOD_LABELS)
@pytest.mark.parametrize("k", _BAD_LEVELS + [3])
def test_check_label_raises_what_its_slow_path_raises(label, k):
    slow_k = _Level(k) if type(k) is int else k  # any other level already fails the inline test
    expected = _raised(lambda: check_label(label, slow_k))
    assert (expected is None) == (k == 3 and any(label is good for good in _GOOD_LABELS))
    assert _raised(lambda: check_label(label, k)) == expected


def test_check_label_accepts_every_label_and_refuses_the_next_index():
    for k in (1, 2, 9):
        for lab in enumerate_irreducibles(k):
            check_label(lab, k)
            check_label(_LabelSubclass(*lab), k)
        with pytest.raises(ValueError, match=f"i out of range: {k + 1} not in 0..{k}"):
            check_label(IrrLabel(Sector.U, k + 1, 0), k)


def test_fusion_vector_drops_zeros_and_sorts():
    a, b = make_label(Sector.U, 1, 0, 2), make_label(Sector.T1, 0, 2, 2)
    v = FusionVector({b: 2, a: 1})
    assert list(v.items()) == [(a, 1), (b, 2)]   # canonical order
    assert FusionVector({a: 0}) == FusionVector()
    assert not FusionVector()
    assert v.coefficient(a) == 1
    assert v.coefficient(make_label(Sector.T2, 0, 0, 2)) == 0


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_fusion_vector_rejects_non_int_multiplicities(bad):
    with pytest.raises(ValueError, match="multiplicity must be an int"):
        FusionVector({vacuum(3): bad})


@pytest.mark.parametrize(
    "entries",
    [
        {"x": 1},
        {"x": -1},
        {(Sector.U, 0, 0): 1},
        [(None, 1)],
        {IrrLabel(Sector.U, 1.5, 7): 1},
        {IrrLabel(0, 1, 0): 1},
        {IrrLabel(Sector.U, True, 0): 1},
        {IrrLabel(Sector.U, -1, 0): 1},
        {IrrLabel(Sector.T1, 1, 3): 1},
        {IrrLabel(Sector.T2, 1, -1): 1},
    ],
)
def test_fusion_vector_rejects_non_label_keys(entries):
    with pytest.raises(ValueError, match="not an irreducible label"):
        FusionVector(entries)


@pytest.mark.parametrize("entries", [None, 3, [3], [(vacuum(3),)], [(vacuum(3), 1, 2)]])
def test_fusion_vector_rejects_entries_that_are_not_label_multiplicity_pairs(entries):
    with pytest.raises(ValueError, match=r"not a mapping or iterable|not a \(label, multiplicity\) pair"):
        FusionVector(entries)


def test_fusion_vector_rejects_negative_multiplicities():
    with pytest.raises(ValueError, match="negative multiplicity"):
        FusionVector({make_label(Sector.U, 1, 0, 2): -1})


def _coefficient_of(label, k):
    return fusion_coefficient(vacuum(k), vacuum(k), label, k)


_LABEL_ENTRIES = [conformal_weight, generator_desc, contragredient, _coefficient_of, qdim_exact, qdim_numeric]


@pytest.mark.parametrize(
    "entry, label, k",
    [
        (conformal_weight, IrrLabel(Sector.U, 2, 5), 3),
        (conformal_weight, IrrLabel(Sector.U, 1, 5), 1),
        (contragredient, IrrLabel(Sector.U, 1, 7), 3),
        (_coefficient_of, IrrLabel(Sector.U, 9, 0), 3),
        (qdim_numeric, IrrLabel(Sector.U, 99, 0), 3),
        (qdim_exact, IrrLabel(Sector.U, 1, 9), 3),
        (generator_desc, IrrLabel(Sector.U, 1, 9), 3),
    ]
    + [(entry, (Sector.U, 1, 0), 3) for entry in _LABEL_ENTRIES],
)
def test_label_taking_entries_reject_malformed_labels(entry, label, k):
    with pytest.raises(ValueError, match="not an irreducible label|out of range"):
        entry(label, k)
