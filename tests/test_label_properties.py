"""Property tests of the label grammar: every valid label round-trips,
every index out of range is refused rather than reduced, and the parser
agrees with a character-by-character scanner on arbitrary text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbifusion.labels import IrrLabel, LabelSyntaxError, Sector, make_label, parse_label

levels = st.integers(min_value=1, max_value=300)
sectors = st.sampled_from(list(Sector))


@given(data=st.data(), k=levels, sector=sectors)
def test_valid_labels_round_trip(data, k, sector):
    i = data.draw(st.integers(min_value=0, max_value=k))
    j = data.draw(st.integers(min_value=0, max_value=2))
    label = IrrLabel(sector, i, j)
    assert parse_label(label.token(), k) == label


@given(data=st.data(), k=levels, sector=sectors)
def test_out_of_range_indices_are_refused(data, k, sector):
    i = data.draw(st.integers(min_value=0, max_value=k))
    j = data.draw(st.integers(min_value=3, max_value=10**6))
    with pytest.raises(ValueError, match="j out of range"):
        parse_label(f"{sector.tag}:{i}:{j}", k)
    i = data.draw(st.integers(min_value=k + 1, max_value=10**6))
    j = data.draw(st.integers(min_value=0, max_value=2))
    with pytest.raises(ValueError, match="i out of range"):
        parse_label(f"{sector.tag}:{i}:{j}", k)


def _scan_label(text, k):
    """Reference scanner: one character at a time, leading zeros accepted."""
    if not isinstance(text, str):
        raise LabelSyntaxError(text, 0, "expected a string")
    for sector in (Sector.T1, Sector.T2, Sector.U):
        if text.startswith(sector.tag):
            rest, pos = text[len(sector.tag):], len(sector.tag)
            break
    else:
        raise LabelSyntaxError(text, 0, "expected sector tag 'u', 't1' or 't2'")
    numbers = []
    for _ in range(2):
        if not rest.startswith(":"):
            raise LabelSyntaxError(text, pos, "expected ':'")
        rest, pos = rest[1:], pos + 1
        digits = ""
        while rest and rest[0] in "0123456789":
            digits, rest, pos = digits + rest[0], rest[1:], pos + 1
        if not digits:
            raise LabelSyntaxError(text, pos, "expected a decimal integer")
        numbers.append(int(digits))
    if rest:
        raise LabelSyntaxError(text, pos, f"unexpected trailing text {rest!r}")
    if numbers[1] > 2:
        raise ValueError(f"j out of range: {numbers[1]} not in 0..2")
    return make_label(sector, numbers[0], numbers[1], k)


def _outcome(parse, text, k):
    try:
        return parse(text, k)
    except LabelSyntaxError as err:
        return LabelSyntaxError, str(err), err.position
    except ValueError as err:
        return ValueError, str(err)


@given(
    text=st.one_of(
        st.text(alphabet="tu12:0123456789 x", max_size=12),
        st.builds(str.__add__, st.sampled_from(["u:", "t1:", "t2:"]), st.text(alphabet="0123456789: x", max_size=8)),
    ),
    k=st.integers(min_value=1, max_value=30),
)
def test_parser_agrees_with_the_scanner(text, k):
    new, old = _outcome(parse_label, text, k), _outcome(_scan_label, text, k)
    if new != old:
        # the one allowed difference: a number written with a leading zero
        assert new[0] is LabelSyntaxError and "leading zero" in new[1]
        at = new[2]
        assert text[at - 1] == ":" and text[at] == "0" and text[at + 1] in "0123456789"
        assert old[0] is not LabelSyntaxError or old[2] > at
