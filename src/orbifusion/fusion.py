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
of one level at a time, keyed by ``(s1, s2, i1, i2, r)`` in sector order,
and with ``i1 <= i2`` when the sectors are equal (6,048 keys for the 35,721
ordered pairs at k=20).  Every call validates ``k`` and both labels before
any lookup, in one inline test of the conditions :func:`check_level` and
:func:`check_label` enforce.  A call at a level other than the remembered
one starts a fresh, empty memo for its level and computes its product
directly, so the memo fills from the second call in a row at one level on
and a stream of calls that keeps changing level stores nothing.  The memo
holds one immutable :class:`FusionVector` per distinct product (1,089 at
k=20), and a memo hit returns that shared vector as it is: it builds nothing
and hashes nothing.  A call at a new level builds one label per output.  A
miss takes its ``(label, 1)`` pairs from the level's own interned pairs,
keyed by index and built on first use, so the work and memory of a call
grow with its outputs and a level's memo with the products it holds, never
with ``k`` alone; it then looks its output tuple up among the level's
products to find the one vector for it.
"""

from __future__ import annotations

from .labels import FusionVector, IrrLabel, Sector, _check_fields, check_label, check_level

__all__ = ["fuse_irreducible", "contragredient", "fusion_coefficient"]

# (k, memo, shared, pairs) for the current level: ``memo`` maps the key
# (s1, s2, i1, i2, r), packed into one int, to the product's vector,
# ``shared`` maps a product's items to its one vector, and ``pairs`` interns
# the ``(label, 1)`` pairs of the level's products, keyed by the packed index
# (sector * (k + 1) + i) * 3 + j, so it holds only the labels the level used.
# ``fuse_irreducible`` reads the binding once and only ever replaces it
# whole, so a concurrent switch of levels can never serve a product from
# another level.
_level_memo: tuple = (0, {}, {}, {})
_U, _T2 = Sector.U, Sector.T2  # a module global is read faster than an enum attribute


def fuse_irreducible(a: IrrLabel, b: IrrLabel, k: int) -> FusionVector:
    """Fusion product of two irreducible modules as a FusionVector.

    ``k``, ``a`` and ``b`` are validated on every call, before the current
    level's memo (see the module docstring) is read: one inline test of
    what :func:`check_level` and :func:`check_label` check, and those
    functions, for their messages, when it fails.  The returned vector is
    immutable and may be shared with other calls.
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
    if s1 > s2 or s1 is s2 and i1 > i2:
        # commutativity: the formulas cover s1 <= s2, and one key covers both orders of i
        (s1, i1, j1), (s2, i2, j2) = b, a
    if s2 is _T2 and s1 is not _T2:
        r = (j2 - j1 if s1 is _U else j1 - j2) % 3
    else:
        r = (j1 + j2) % 3
    level, memo, shared, pairs = _level_memo
    if level != k:
        _level_memo = (k, {}, {}, {})
        sector, out_is, out_js = _outputs(s1, s2, i1, i2, r, k)
        new = tuple.__new__
        return FusionVector._from_canonical(tuple([(new(IrrLabel, (sector, i, j)), 1) for i, j in zip(out_is, out_js)]))
    key = (((s1 * 3 + s2) * (k + 1) + i1) * (k + 1) + i2) * 3 + r
    vector = memo.get(key)
    if vector is None:
        sector, out_is, out_js = _outputs(s1, s2, i1, i2, r, k)
        base = sector * (k + 1)
        items = []
        for i, j in zip(out_is, out_js):
            index = (base + i) * 3 + j
            pair = pairs.get(index)
            if pair is None:
                pair = pairs[index] = (tuple.__new__(IrrLabel, (sector, i, j)), 1)
            items.append(pair)
        items = tuple(items)
        vector = shared.get(items)
        if vector is None:
            vector = shared[items] = FusionVector._from_canonical(items)
        memo[key] = vector
    return vector


def _outputs(s1: Sector, s2: Sector, i1: int, i2: int, r: int, k: int) -> tuple[Sector, range, list[int]]:
    """One sector-pair formula, ``sector(a) <= sector(b)``: the output sector, ``i``s and ``j``s.

    ``r`` is the one residue through which the formula reads ``j1`` and
    ``j2``: ``j1 + j2``, except ``j2 - j1`` for U x T2 and ``j1 - j2`` for
    T1 x T2.  Each branch has ``sign`` written out: ``(s - i3) // 2`` is
    ``t`` before its reduction, and every ``j`` is reduced modulo 3 once;
    ``i3s`` is the admissible range, ascending.  The output sector is fixed
    per branch and the output ``i``s ascend, so the outputs, paired in
    order, come in canonical order: where the output index is ``k - i3``
    the ``j``s run over ``i3`` descending.
    """
    s = i1 + i2
    i3s = range(abs(i1 - i2), min(s, 2 * k - s) + 1, 2)
    U, T1, T2 = Sector.U, Sector.T1, Sector.T2
    if s1 is U:
        if s2 is U:
            return U, i3s, [(r - (s - i3) // 2) % 3 for i3 in i3s]
        if s2 is T1:
            return T1, i3s, [(r - (s - i3) // 2) % 3 for i3 in i3s]
        return T2, i3s, [((s - i3) // 2 + r) % 3 for i3 in i3s]
    if s1 is T1 and s2 is T1:
        return T2, i3s, [((s - i3) // 2 - r) % 3 for i3 in i3s]
    reflected = range(k - i3s[-1], k - i3s[0] + 1, 2)  # the output index k - i3, ascending
    if s1 is T1:
        return U, reflected, [(r - (s - i3) // 2 + k - i3) % 3 for i3 in reversed(i3s)]
    return T1, reflected, [(-r - (s - i3) // 2 + k - i3) % 3 for i3 in reversed(i3s)]


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
