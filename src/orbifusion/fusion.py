"""Fusion products and contragredient duals of the orbifold catalog.

The fusion ring is built from the affine sl2 level-``k`` rule on the weight
indices together with a Z3 bookkeeping function on the eigenspace indices.
For each admissible sl2 output index ``i3``, that is
``|i1 - i2| <= i3 <= min(i1 + i2, 2k - i1 - i2)`` with ``i1 + i2 + i3`` even,
define

    sign(i1, i2, i3, j1, j2) = j1 + j2 - t,   t = ((i1 + i2 - i3) / 2) mod 3.

There is one product formula per ordered sector pair (U,U), (U,T1), (U,T2),
(T1,T1), (T1,T2), (T2,T2); the remaining orders follow by commutativity of
the fusion product.  In every product each output label occurs with
multiplicity exactly 1.
"""

from __future__ import annotations

from .labels import FusionVector, IrrLabel, Sector, check_label, make_label

__all__ = ["fuse_irreducible", "contragredient", "fusion_coefficient"]


def fuse_irreducible(a: IrrLabel, b: IrrLabel, k: int) -> FusionVector:
    """Fusion product of two irreducible modules as a FusionVector.

    Each branch is one sector-pair formula with ``sign`` written out:
    ``(s - i3) // 2`` is ``t`` before its reduction, and every ``j`` is
    reduced modulo 3 once; ``i3s`` is the admissible range, ascending.  The
    output sector is fixed per branch, so the outputs come in canonical
    order: ascending ``i3``, or descending where the output index is
    ``k - i3``.
    """
    check_label(a, k)
    check_label(b, k)
    if a.sector > b.sector:
        a, b = b, a  # commutativity; formulas below cover sector(a) <= sector(b)
    (s1, i1, j1), (s2, i2, j2) = a, b
    s = i1 + i2
    i3s = range(abs(i1 - i2), min(s, 2 * k - s) + 1, 2)
    new, U, T1, T2 = tuple.__new__, Sector.U, Sector.T1, Sector.T2
    if s1 is U:
        if s2 is U:
            out = [new(IrrLabel, (U, i3, (j1 + j2 - (s - i3) // 2) % 3)) for i3 in i3s]
        elif s2 is T1:
            out = [new(IrrLabel, (T1, i3, (j1 + j2 - (s - i3) // 2) % 3)) for i3 in i3s]
        else:
            out = [new(IrrLabel, (T2, i3, ((s - i3) // 2 - j1 + j2) % 3)) for i3 in i3s]
    elif s1 is T1:
        if s2 is T1:
            out = [new(IrrLabel, (T2, i3, ((s - i3) // 2 - j1 - j2) % 3)) for i3 in i3s]
        else:
            out = [new(IrrLabel, (U, k - i3, (j1 - j2 - (s - i3) // 2 + k - i3) % 3)) for i3 in reversed(i3s)]
    else:  # T2 x T2
        out = [new(IrrLabel, (T1, k - i3, (-j1 - j2 - (s - i3) // 2 + k - i3) % 3)) for i3 in reversed(i3s)]
    return FusionVector._from_canonical(out)


def contragredient(label: IrrLabel, k: int) -> IrrLabel:
    """Contragredient (dual) module's label; an involution.

    Untwisted labels keep their index ``i`` and send ``j`` to ``i - j``
    modulo 3 (one expression covering the three ``i mod 3`` cases); the two
    twisted sectors swap, with ``i`` reflected to ``k - i`` and ``j`` fixed.
    """
    check_label(label, k)
    sector, i, j = label
    if sector is Sector.U:
        return make_label(Sector.U, i, i - j, k)
    if sector is Sector.T1:
        return make_label(Sector.T2, k - i, j, k)
    return make_label(Sector.T1, k - i, j, k)


def fusion_coefficient(a: IrrLabel, b: IrrLabel, c: IrrLabel, k: int) -> int:
    """Multiplicity of ``c`` in ``a (x) b``; always 0 or 1 in this theory."""
    check_label(c, k)
    return fuse_irreducible(a, b, k).coefficient(c)
