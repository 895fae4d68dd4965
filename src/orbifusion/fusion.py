"""Fusion products and contragredient duals of the orbifold catalog.

The fusion ring is built from the affine sl2 level-``k`` rule on the weight
indices together with a Z3 bookkeeping rule on the eigenspace indices.
Let ``e = (+1, +1, -1)``, indexed by sector: T2 is T_{-1} and reads its
charge with the opposite sign.  The paper's six sector-pair formulas are
one rule in four numbers of the pair:

* ``out = s1 + s2``, from 0 to 4: twists add, and 3 and 4 wrap past
  sigma^3 = 1;
* ``lo = |i1 - i2|`` and ``hi = min(i1 + i2, 2k - i1 - i2)``, the ends of
  the truncated Clebsch-Gordan range of sl2 at level ``k``;
* ``c = (e(s1) j1 + e(s2) j2 - min(i1, i2)) mod 3``, the charge of the
  lowest output.

The sl2 outputs are ``i3 = lo + 2n`` for ``n = 0 .. (hi - lo) / 2``.  With
``t = (i1 + i2 - i3) / 2``, which is ``min(i1, i2) - n``, output ``n``
has charge ``c + n = e(s1) j1 + e(s2) j2 - t``, and gives one label:

* no wrap, ``out < 3``: ``(i3, e(out) (c + n) mod 3)`` in sector ``out``;
* wrap, ``out >= 3``: the index is reflected through the simple current,
  ``(k - i3, (c + n + k - i3) mod 3)`` in sector ``out - 3``.

Either way the outputs are one progression, named by their own
``(sector, lo, hi, c)``: output ``n`` is ``(lo + 2n, e(sector) (c + n) mod
3)`` in ``sector``, for ``n = 0 .. (hi - lo) / 2``, so ``c`` is the charge
of the first output.  Without a wrap that is ``(out, lo, hi, c)``.  A wrap
lists the outputs with ``i3`` descending, so its sector is ``out - 3``
(U or T1, where ``e`` is +1), its range ``k - hi .. k - lo`` and its
charge ``(c + k - (lo + hi) / 2) mod 3``, the one at ``i3 = hi``.

Solved for ``n``, that rule decides membership without listing the
outputs: a label ``(s3, i3, j3)`` is in the product, with multiplicity 1,
exactly when ``s3`` is ``sector``, ``lo <= i3 <= hi``, ``i3 = lo (mod 2)``
and ``j3 = e(sector) (c + (i3 - lo) / 2) mod 3``; otherwise its
multiplicity is 0.  :func:`fusion_coefficient` answers this way, from the
key alone.

Each of the paper's formulas is one instance, with ``t`` reduced modulo 3
and ``m = min(i1, i2)``:

    U  x U   ->  U:   out 0, c = j1 + j2 - m:    (i3,     j1 + j2 - t)
    U  x T1  ->  T1:  out 1, c = j1 + j2 - m:    (i3,     j1 + j2 - t)
    U  x T2  ->  T2:  out 2, c = j1 - j2 - m:    (i3,     -(j1 - j2 - t))
    T1 x T1  ->  T2:  out 2, c = j1 + j2 - m:    (i3,     -(j1 + j2 - t))
    T1 x T2  ->  U:   out 3, c = j1 - j2 - m:    (k - i3, j1 - j2 - t + k - i3)
    T2 x T2  ->  T1:  out 4, c = -j1 - j2 - m:   (k - i3, -j1 - j2 - t + k - i3)

``out``, ``lo``, ``hi`` and ``c`` are symmetric in the two operands, so the
rule gives both orders of each pair: the fusion product is commutative.
In every product each output label occurs with multiplicity exactly 1.

A product's outputs name it, so :func:`fuse_irreducible` remembers the
products of one level at a time, keyed by the tuple ``(sector, lo, hi,
c)``: one key per distinct product, and both orders of a pair have one
key.  Beside that memo the level keeps a table of the operands checked
there, keyed by label: each entry holds the label object itself and the
three ints the key needs, its sector, ``i`` and ``e(sector) j``.  A call
whose ``k`` is an int equal to the level reads both entries by subscript,
and one whose operands are each the very object their entry holds is
checked by identity.  Any other call, including one whose operand has no
entry (``KeyError``) or cannot be hashed (``TypeError``), checks
``check_label(a, k)`` then ``check_label(b, k)``, and then adds each
operand that is a plain :class:`IrrLabel` to the table.  So an operand that
only equals a checked label (a plain tuple, an int sector, a bool index) or
cannot be hashed raises the same message, in the same order, as on a first
call.  ``verify`` fuses the labels of one ``enumerate_irreducibles(k)`` list
with each other, so every call after its first row is checked by identity.
Either way, :func:`fuse_irreducible` then computes the key from the two
entries inline, with one branch on ``i1 > i2`` for both ``lo`` and
``min(i1, i2)``, rather than calling ``_key``, which
:func:`fusion_coefficient` calls: a Python call costs about 75 ns of a
checked call's roughly 530 ns.  The two repeat the rule above, and the
tests that compare :func:`fusion_coefficient` with :func:`fuse_irreducible`
on every triple at k = 1..6 and on random wrapping triples at k = 37, 100
and 200 pin them to each other.  A call at a level other than the
remembered one first replaces the memo and the table, together, with fresh,
empty ones for its level: the table lives and dies with its level's memo.
Every call then reads the memo and, on a miss, builds its product and
stores it.  The memo keeps the last level's products until a call at
another level replaces it.  Each is one immutable :class:`FusionVector`,
and a memo hit returns that shared vector as it is: it builds nothing and
hashes nothing but its key.  A miss takes its ``(label, 1)`` pairs from
the level's interned pairs, keyed by the label and built on first use, so
the work and memory of a call grow with its
outputs and a level's memo with the products it holds, never with ``k``
alone.  :func:`fusion_coefficient` checks its operands in full on every
call and neither reads nor writes the memo or the table.
"""

from __future__ import annotations

from .labels import FusionVector, IrrLabel, Sector, check_label

__all__ = ["fuse_irreducible", "contragredient", "fusion_coefficient"]

# (k, memo, pairs, known) for the current level: ``memo`` maps the key
# (sector, lo, hi, c) of a product's outputs to the product's vector,
# ``pairs`` maps each label the level's products used to its one interned
# ``(label, 1)`` pair, and ``known`` maps each plain label checked in full
# at the level to its entry (label, sector, i, e(sector) j).
# ``fuse_irreducible`` reads the binding once and only ever replaces it
# whole, so a concurrent switch of levels can never serve a product, or an
# operand's check, from another level.
_level_memo: tuple = (0, {}, {}, {})
_SIGN = (1, 1, -1)  # e(sector): T2 reads its charge with the opposite sign
_SECTORS = tuple(Sector)  # indexing a tuple is faster than calling Sector(...)
_UNKNOWN = (object(),)  # the entry of an operand not in ``known``: no operand is its first item


def _entries(a: IrrLabel, b: IrrLabel, k: int) -> tuple[tuple, tuple]:
    """The entries ``(label, sector, i, e(sector) j)`` of ``a`` and ``b``, after ``check_label(a, k)`` then ``check_label(b, k)``."""
    check_label(a, k)
    check_label(b, k)
    (s1, i1, j1), (s2, i2, j2) = a, b
    return (a, s1, i1, _SIGN[s1] * j1), (b, s2, i2, _SIGN[s2] * j2)


def _key(fa: tuple, fb: tuple, k: int) -> tuple[int, int, int, int]:
    """The key ``(sector, lo, hi, c)`` of the product of two checked operands, from their entries."""
    _, s1, i1, j1 = fa
    _, s2, i2, j2 = fb
    s, out = i1 + i2, s1 + s2
    lo = i1 - i2 if i1 > i2 else i2 - i1
    hi = s if s <= k else 2 * k - s
    c = (j1 + j2 - (s - lo) // 2) % 3  # (s - lo) / 2 is min(i1, i2)
    if out >= 3:  # a wrap: the outputs, reflected, start at i3 = hi (see the module docstring)
        return out - 3, k - hi, k - lo, (c + k - (lo + hi) // 2) % 3
    return out, lo, hi, c


def fuse_irreducible(a: IrrLabel, b: IrrLabel, k: int) -> FusionVector:
    """Fusion product of two irreducible modules as a FusionVector.

    Raises ``ValueError`` unless ``a`` and ``b`` pass :func:`check_label`
    at level ``k``, with the message of ``check_label(a, k)`` and then of
    ``check_label(b, k)``.  The returned vector is immutable and shared
    with every call of the level that has the same product.  An operand
    checked at the level before is checked by identity, and the product's
    key is computed inline, as ``_key`` computes it (see the module
    docstring).
    """
    global _level_memo
    level, memo, pairs, known = _level_memo
    fa = fb = _UNKNOWN
    if type(k) is int and k == level:
        try:
            fa, fb = known[a], known[b]
        except (KeyError, TypeError):  # not checked at this level, or unhashable: the full check names it
            pass
    if fa[0] is not a or fb[0] is not b:
        fa, fb = _entries(a, b, k)
        if level != k:
            level, memo, pairs, known = _level_memo = (k, {}, {}, {})
        if type(a) is IrrLabel:  # checked, so it hashes; a subclass may define its own hash
            known[a] = fa
        if type(b) is IrrLabel:
            known[b] = fb
    # the key as _key(fa, fb, k) gives it, inline (see the module docstring)
    _, s1, i1, j1 = fa
    _, s2, i2, j2 = fb
    s, out = i1 + i2, s1 + s2
    if i1 > i2:
        lo, m = i1 - i2, i2
    else:
        lo, m = i2 - i1, i1
    hi = s if s <= k else 2 * k - s
    c = (j1 + j2 - m) % 3
    if out >= 3:  # a wrap, reflected as in _key
        key = out - 3, k - hi, k - lo, (c + k - (lo + hi) // 2) % 3
    else:
        key = out, lo, hi, c
    vector = memo.get(key)
    if vector is None:
        out, lo, hi, c = key
        sector, sign, items = _SECTORS[out], _SIGN[out], []
        for n, i in enumerate(range(lo, hi + 1, 2)):  # output n is (lo + 2n, e(out) (c + n) mod 3)
            label = tuple.__new__(IrrLabel, (sector, i, sign * (c + n) % 3))
            items.append(pairs.setdefault(label, (label, 1)))
        vector = memo[key] = FusionVector._from_canonical(tuple(items))
    return vector


def contragredient(label: IrrLabel, k: int) -> IrrLabel:
    """Contragredient (dual) module's label; an involution.

    Untwisted labels keep their index ``i`` and send ``j`` to ``i - j``
    modulo 3 (one expression covering the three ``i mod 3`` cases); a
    twisted label goes to the opposite twist, sector ``3 - s``, with ``i``
    reflected to ``k - i`` and ``j`` fixed.
    """
    check_label(label, k)
    sector, i, j = label
    if sector is Sector.U:
        return tuple.__new__(IrrLabel, (Sector.U, i, (i - j) % 3))
    return tuple.__new__(IrrLabel, (_SECTORS[3 - sector], k - i, j))


def fusion_coefficient(a: IrrLabel, b: IrrLabel, c: IrrLabel, k: int) -> int:
    """Multiplicity of ``c`` in ``a (x) b``; always 0 or 1 in this theory.

    Raises ``ValueError`` unless ``c``, ``a`` and ``b`` pass
    :func:`check_label` at level ``k``, checked in that order.  The answer
    is read from the product's key by the membership rule of the module
    docstring.
    """
    check_label(c, k)
    fa, fb = _entries(a, b, k)
    out, lo, hi, c0 = _key(fa, fb, k)
    sector, i, j = c
    if sector is not _SECTORS[out] or not lo <= i <= hi or (i - lo) & 1:
        return 0
    return 1 if j == _SIGN[out] * (c0 + (i - lo) // 2) % 3 else 0
