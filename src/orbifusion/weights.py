"""Exact conformal weights and lowest-weight-vector descriptions.

Every irreducible module ``(sector, i, j)`` of the level-``k`` orbifold has a
rational conformal weight, and one formula gives all of them.  With
``r = 0, 1, 2`` for the sectors U, T1, T2, the weight is the twisted lowest
weight

    a(k, i, r) = i*(i+2) / (4*(k+2)) + (r^2*k - 6*i*r) / 36,

plus ``j/3`` in a twisted sector, plus ``e`` whole units.  ``e`` is 0 except
on these rows of the weight table, where it is 1:

* ``u:0:1``, ``u:0:2`` and ``u:1:2`` (``e = 2`` for ``u:1:2`` at ``k = 1``),
* ``t1:0:1`` and ``t2:k:1``,
* at ``k = 1`` only, ``t1:1:2`` and ``t2:0:2``.

:func:`conformal_weight` builds the weight as one ``Fraction`` over the common
denominator ``36*(k+2)``,

    (9*i*(i+2) + (k+2)*(r^2*k - 6*i*r + o + 36*e)) / (36*(k+2)),

with ``o = 12*j`` in a twisted sector and 0 in U, so each weight costs one
gcd.
"""

from __future__ import annotations

from fractions import Fraction

from .labels import IrrLabel, Sector, check_label

__all__ = ["conformal_weight", "generator_desc"]


def conformal_weight(label: IrrLabel, k: int) -> Fraction:
    """Exact conformal weight of ``label`` at level ``k``."""
    check_label(label, k)
    r, i, j = label  # a Sector's integer value is its twist exponent r
    e = 0
    if r is Sector.U:
        if i == 0 and j:
            e = 1  # u:0:1, u:0:2: weight 1
        elif i == 1 and j == 2:
            e = 2 if k == 1 else 1  # u:1:2: (4k+11)/(4(k+2)), and 9/4 at k = 1
    elif j == 1 and i == (0 if r is Sector.T1 else k):
        e = 1  # t1:0:1, t2:k:1: (k+48)/36
    elif j == 2 and k == 1 and i == (1 if r is Sector.T1 else 0):
        e = 1  # t1:1:2, t2:0:2 at k = 1: 16/9
    return Fraction(
        9 * i * (i + 2) + (k + 2) * (r * r * k - 6 * i * r + (12 * j if r else 0) + 36 * e),
        36 * (k + 2),
    )


def _vec(i: int, j: int) -> str:
    """Render the weight-basis vector v^{i,j}; v^{0,0} is the vacuum."""
    return "1" if (i, j) == (0, 0) else f"v^{{{i},{j}}}"


def generator_desc(label: IrrLabel, k: int) -> str:
    """Human-readable lowest-weight vector generating the module.

    Documentation only (surfaced in the catalog); never parsed.
    """
    check_label(label, k)
    sector, i, j = label
    if sector is not Sector.T2:
        # The untwisted and sigma-twisted modules are generated by the same
        # vectors v^{i,i-j}, with identical i = 0 and (i, j) = (1, 2) cases.
        if i == 0:
            return ("1", "e(-1)1", "f(-1)1")[j]
        if j == 2 and i == 1:
            return "f(-2)v^{1,1}" if k == 1 else "f(-1)v^{1,1}"
        return _vec(i, i - j)
    # sector T2
    if j == 0:
        return _vec(i, i)
    if j == 1:
        return f"f(-2)v^{{{k},{k}}}" if i == k else f"f(-1){_vec(i, i)}"
    if i == 0:
        return "e(-1)1" if k == 1 else "f(-1)^2 1"
    return _vec(i, i - 1)
