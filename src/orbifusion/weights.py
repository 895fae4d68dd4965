"""Exact conformal weights and lowest-weight-vector descriptions.

Every irreducible module of the level-``k`` orbifold has a rational conformal
weight.  The general-level values follow a base-plus-offset pattern on top of
the twisted lowest weight

    a(k, i, r) = i*(i+2) / (4*(k+2)) + (r^2*k - 6*i*r) / 36,

with explicit special rows (``i = 0`` in sector T1, ``i = k`` in sector T2,
``i`` in ``{0, 1}`` in sector U).  Level 1 does not fit the generic ``j = 2``
offsets — its lowest-weight vectors sit one level higher — so the whole
18-entry level-1 table is kept as literal data.  All branches below mirror
one table row each, so every value can be audited against its row.

A twisted weight is ``a(k, i, r)`` plus a ``j``-indexed offset in 36ths;
:func:`conformal_weight` builds it as one ``Fraction`` over the common
denominator ``36*(k+2)``,

    (9*i*(i+2) + (k+2)*(r^2*k - 6*i*r + offset)) / (36*(k+2)),

so each weight costs one gcd rather than three fractions and two
additions.  :func:`base_twist_weight` keeps the two-term sum, so the
``catalog`` suite's base-weight check compares two independent formulas.
"""

from __future__ import annotations

from fractions import Fraction

from .labels import IrrLabel, Sector, check_index, check_label

__all__ = ["base_twist_weight", "conformal_weight", "generator_desc"]


def base_twist_weight(k: int, i: int, r: int) -> Fraction:
    """Lowest conformal weight of the sigma^r-twisted module with index ``i``.

    Exact value of ``i*(i+2)/(4*(k+2)) + (r^2*k - 6*i*r)/36`` for
    ``r in {0, 1, 2}``; ``r = 0`` is the untwisted lowest weight.
    """
    check_index(i, k)
    if type(r) is not int or r not in (0, 1, 2):
        raise ValueError(f"twist exponent must be 0, 1 or 2, got {r}")
    return Fraction(i * (i + 2), 4 * (k + 2)) + Fraction(r * r * k - 6 * i * r, 36)


# Level 1, transcribed verbatim (canonical order: u, t1, t2 major; i; j).
_LEVEL1_WEIGHTS: dict[tuple[Sector, int, int], Fraction] = {
    (Sector.U, 0, 0): Fraction(0),
    (Sector.U, 0, 1): Fraction(1),
    (Sector.U, 0, 2): Fraction(1),
    (Sector.U, 1, 0): Fraction(1, 4),
    (Sector.U, 1, 1): Fraction(1, 4),
    (Sector.U, 1, 2): Fraction(9, 4),
    (Sector.T1, 0, 0): Fraction(1, 36),
    (Sector.T1, 0, 1): Fraction(49, 36),
    (Sector.T1, 0, 2): Fraction(25, 36),
    (Sector.T1, 1, 0): Fraction(1, 9),
    (Sector.T1, 1, 1): Fraction(4, 9),
    (Sector.T1, 1, 2): Fraction(16, 9),
    (Sector.T2, 0, 0): Fraction(1, 9),
    (Sector.T2, 0, 1): Fraction(4, 9),
    (Sector.T2, 0, 2): Fraction(16, 9),
    (Sector.T2, 1, 0): Fraction(1, 36),
    (Sector.T2, 1, 1): Fraction(49, 36),
    (Sector.T2, 1, 2): Fraction(25, 36),
}

# j-indexed offsets (in 36ths) added to the twisted lowest weight at k > 1.
_GENERIC_OFFSETS = (0, 12, 24)   # T1 with i > 0; T2 with i < k
_BOUNDARY_OFFSETS = (0, 48, 24)  # T1 with i = 0; T2 with i = k


def conformal_weight(label: IrrLabel, k: int) -> Fraction:
    """Exact conformal weight of ``label`` at level ``k``."""
    check_label(label, k)
    sector, i, j = label
    if k == 1:
        return _LEVEL1_WEIGHTS[(sector, i, j)]
    if sector is Sector.U:
        if i == 0:
            return Fraction(0) if j == 0 else Fraction(1)
        if i == 1:
            if j == 2:
                return Fraction(4 * k + 11, 4 * (k + 2))
            return Fraction(3, 4 * (k + 2))
        return Fraction(i * (i + 2), 4 * (k + 2))
    if sector is Sector.T1:
        offset = (_BOUNDARY_OFFSETS if i == 0 else _GENERIC_OFFSETS)[j]
        return Fraction(9 * i * (i + 2) + (k + 2) * (k - 6 * i + offset), 36 * (k + 2))  # r = 1
    offset = (_BOUNDARY_OFFSETS if i == k else _GENERIC_OFFSETS)[j]
    return Fraction(9 * i * (i + 2) + (k + 2) * (4 * k - 12 * i + offset), 36 * (k + 2))  # r = 2


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
