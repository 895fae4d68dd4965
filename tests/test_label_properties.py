"""Property tests of the label grammar: every valid label round-trips, and
every index out of range is refused rather than reduced."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbifusion.labels import IrrLabel, Sector, parse_label

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
