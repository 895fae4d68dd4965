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

Each formula reads ``j1`` and ``j2`` only through one residue ``r`` modulo 3:
``j1 + j2`` for equal sectors and for U x T1, ``j2 - j1`` for U x T2 and
``j1 - j2`` for T1 x T2.  So :func:`fuse_irreducible` remembers the products
of one level at a time, keyed by ``(s1, s2, i1, i2, r)`` in sector order
(7,938 products for the 35,721 ordered pairs at k=20).  Every call validates
``k`` and both labels before any lookup, in one inline test of the
conditions :func:`check_level` and :func:`check_label` enforce.  A call at a
level other than the remembered one starts a fresh, empty memo for its level
and computes its product directly, so the memo fills from the second call in
a row at one level on and a stream of calls that keeps changing level stores
nothing.  The memo interns its ``(label, 1)`` output pairs and equal output
tuples, so a level holds at most ``9(k+1)`` pairs, and a memo hit wraps the
stored tuple in a new immutable :class:`FusionVector`: it builds no dict and
hashes no label.
"""

from __future__ import annotations

from .labels import FusionVector, IrrLabel, Sector, _check_fields, check_label, check_level

__all__ = ["fuse_irreducible", "contragredient", "fusion_coefficient"]

# (k, memo, seen) for the current level: ``memo`` maps the key
# (s1, s2, i1, i2, r), packed into one int, to a tuple of output pairs, and
# ``seen`` interns those pairs (keyed by their label) and tuples.
# ``fuse_irreducible`` reads the binding once and only ever replaces it
# whole, so a concurrent switch of levels can never serve a product from
# another level.
_level_memo: tuple = (0, {}, {})
_U, _T2 = Sector.U, Sector.T2  # a module global is read faster than an enum attribute


def fuse_irreducible(a: IrrLabel, b: IrrLabel, k: int) -> FusionVector:
    """Fusion product of two irreducible modules as a FusionVector.

    ``k``, ``a`` and ``b`` are validated on every call, before the current
    level's memo (see the module docstring) is read: one inline test of
    what :func:`check_level` and :func:`check_label` check, and those
    functions, for their messages, when it fails.
    """
    global _level_memo
    if type(a) is IrrLabel and type(b) is IrrLabel and type(k) is int:
        (s1, i1, j1), (s2, i2, j2) = a, b
        valid = (
            type(s1) is Sector and type(i1) is int and type(j1) is int
            and type(s2) is Sector and type(i2) is int and type(j2) is int
            and k >= 1 and 0 <= i1 <= k and 0 <= i2 <= k and 0 <= j1 <= 2 and 0 <= j2 <= 2
        )
    else:
        valid = False
    if not valid:  # raises the checks' own messages; an IrrLabel subclass passes them
        check_level(k)
        _check_fields(a, k)
        _check_fields(b, k)
        (s1, i1, j1), (s2, i2, j2) = a, b
    if s1 > s2:
        (s1, i1, j1), (s2, i2, j2) = b, a  # commutativity; the formulas cover s1 <= s2
    if s2 is _T2 and s1 is not _T2:
        r = (j2 - j1 if s1 is _U else j1 - j2) % 3
    else:
        r = (j1 + j2) % 3
    level, memo, seen = _level_memo
    if level != k:
        _level_memo = (k, {}, {})
        return FusionVector._from_canonical(tuple([(c, 1) for c in _outputs(s1, s2, i1, i2, r, k)]))
    key = (((s1 * 3 + s2) * (k + 1) + i1) * (k + 1) + i2) * 3 + r
    out = memo.get(key)
    if out is None:
        out = tuple([seen.setdefault(c, (c, 1)) for c in _outputs(s1, s2, i1, i2, r, k)])
        out = memo[key] = seen.setdefault(out, out)
    return FusionVector._from_canonical(out)


def _outputs(s1: Sector, s2: Sector, i1: int, i2: int, r: int, k: int) -> list[IrrLabel]:
    """The outputs of one sector-pair formula, ``sector(a) <= sector(b)``, in canonical order.

    ``r`` is the one residue through which the formula reads ``j1`` and
    ``j2``: ``j1 + j2``, except ``j2 - j1`` for U x T2 and ``j1 - j2`` for
    T1 x T2.  Each branch has ``sign`` written out: ``(s - i3) // 2`` is
    ``t`` before its reduction, and every ``j`` is reduced modulo 3 once;
    ``i3s`` is the admissible range, ascending.  The output sector is fixed
    per branch, so the outputs come in canonical order: ascending ``i3``, or
    descending where the output index is ``k - i3``.
    """
    s = i1 + i2
    i3s = range(abs(i1 - i2), min(s, 2 * k - s) + 1, 2)
    new, U, T1, T2 = tuple.__new__, Sector.U, Sector.T1, Sector.T2
    if s1 is U:
        if s2 is U:
            return [new(IrrLabel, (U, i3, (r - (s - i3) // 2) % 3)) for i3 in i3s]
        if s2 is T1:
            return [new(IrrLabel, (T1, i3, (r - (s - i3) // 2) % 3)) for i3 in i3s]
        return [new(IrrLabel, (T2, i3, ((s - i3) // 2 + r) % 3)) for i3 in i3s]
    if s1 is T1:
        if s2 is T1:
            return [new(IrrLabel, (T2, i3, ((s - i3) // 2 - r) % 3)) for i3 in i3s]
        return [new(IrrLabel, (U, k - i3, (r - (s - i3) // 2 + k - i3) % 3)) for i3 in reversed(i3s)]
    return [new(IrrLabel, (T1, k - i3, (-r - (s - i3) // 2 + k - i3) % 3)) for i3 in reversed(i3s)]


def contragredient(label: IrrLabel, k: int) -> IrrLabel:
    """Contragredient (dual) module's label; an involution.

    Untwisted labels keep their index ``i`` and send ``j`` to ``i - j``
    modulo 3 (one expression covering the three ``i mod 3`` cases); the two
    twisted sectors swap, with ``i`` reflected to ``k - i`` and ``j`` fixed.
    """
    check_label(label, k)
    sector, i, j = label
    if sector is Sector.U:
        return IrrLabel(Sector.U, i, (i - j) % 3)
    if sector is Sector.T1:
        return IrrLabel(Sector.T2, k - i, j)
    return IrrLabel(Sector.T1, k - i, j)


def fusion_coefficient(a: IrrLabel, b: IrrLabel, c: IrrLabel, k: int) -> int:
    """Multiplicity of ``c`` in ``a (x) b``; always 0 or 1 in this theory."""
    check_level(k)
    _check_fields(c, k)
    return fuse_irreducible(a, b, k).coefficient(c)
