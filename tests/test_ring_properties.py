"""Property tests of the fusion ring invariants at random levels up to 300,
far above the levels the verify suite tests sweep exhaustively."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbifusion.fusion import contragredient, fuse_irreducible, fusion_coefficient
from orbifusion.labels import FusionVector, IrrLabel, Sector, vacuum
from orbifusion.qdim import qdim_exact


@st.composite
def level_and_labels(draw, count):
    """A level from 1 to 300 and ``count`` labels valid at it."""
    k = draw(st.integers(min_value=1, max_value=300))
    labels = [
        IrrLabel(draw(st.sampled_from(list(Sector))), draw(st.integers(0, k)), draw(st.integers(0, 2)))
        for _ in range(count)
    ]
    return k, labels


@given(level_and_labels(1))
def test_vacuum_is_a_unit(case):
    k, (a,) = case
    assert fuse_irreducible(vacuum(k), a, k) == FusionVector({a: 1})
    assert fuse_irreducible(a, vacuum(k), k) == FusionVector({a: 1})


@given(level_and_labels(2))
def test_fusion_commutes(case):
    k, (a, b) = case
    assert fuse_irreducible(a, b, k) == fuse_irreducible(b, a, k)


@given(level_and_labels(3))
def test_coefficients_are_invariant_under_duality(case):
    k, (a, b, c) = case
    # every output of a x b, plus one label that is mostly absent from it
    for out in [*fuse_irreducible(a, b, k), c]:
        assert fusion_coefficient(a, b, out, k) == fusion_coefficient(
            a, contragredient(out, k), contragredient(b, k), k
        )


@settings(deadline=None)  # a product at k near 300 sums up to 150 residues
@given(level_and_labels(2))
def test_qdim_is_a_ring_homomorphism(case):
    k, (a, b) = case
    total = None
    for out, m in fuse_irreducible(a, b, k).items():
        for _ in range(m):
            total = qdim_exact(out, k) if total is None else total + qdim_exact(out, k)
    assert qdim_exact(a, k) * qdim_exact(b, k) == total
