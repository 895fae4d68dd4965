"""Quantum dimensions of the catalog, exact and numeric.

Every irreducible module with affine weight index ``i`` has quantum
dimension ``sin((i+1)*pi/(k+2)) / sin(pi/(k+2))``, independently of its
sector and Z3 index.  Exactly, that number is ``S_i(x)`` at
``x = 2*cos(pi/(k+2))``, so it is represented as the residue of ``S_i`` in
``Z[x]/(psi)`` with ``psi`` the minimal polynomial of ``x``.  Because
``psi`` is the minimal polynomial, two residues are equal exactly when the
real numbers are equal, so identities such as the fusion homomorphism
property can be verified with zero tolerance.

Indices ``i`` and ``k - i`` have the same quantum dimension, since
``sin((i+1)t) = sin((k+1-i)t)`` at ``t = pi/(k+2)``.  So ``S_i - S_{k-i}``
vanishes at ``x``, the monic minimal polynomial ``psi`` divides it in
``Z[x]``, and the two have the same residue.  Residues are therefore
reduced from ``S_{min(i, k-i)}``: the same residue, coefficient for
coefficient, from a polynomial of degree at most ``k // 2``.  When that
degree is already below ``psi``'s, ``S_{min(i, k-i)}`` is its own residue
and no division is done; only the indices whose reflected degree reaches
``deg psi`` are divided.

Both values depend only on the level and the index, so each is kept in a
bounded memo of 1024 entries (``functools.lru_cache``, least recently used
first out): the exact element per reflected index ``(min(i, k-i), k)`` and
the numeric sine ratio per ``(k, i+1, working digits)``.  Every call still
checks its arguments first; a miss computes the value as described here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

import mpmath
from mpmath.libmp import dps_to_prec, mpf_div, mpf_mul, mpf_mul_int, mpf_sin, mpf_sum, round_nearest

from .labels import IrrLabel, check_index, check_label, check_level
from .chebyshev import ChebPoly, cheb_u, min_poly_two_cos

__all__ = [
    "QDimElement",
    "reduction_modulus",
    "qdim_exact",
    "qdim_index",
    "qdim_numeric",
    "global_dimension",
    "has_unit_qdim",
]

#: Extra working digits used internally by all numeric evaluations.
_GUARD_DIGITS = 10

_make_mpf = mpmath.mp.make_mpf


@lru_cache(maxsize=1024)
def _angle(k: int, dps: int) -> tuple[tuple, tuple]:
    """Raw mpf tuples of ``theta = pi/(k+2)`` and ``sin(theta)`` at ``dps`` working digits.

    They are the values a caller inside ``mpmath.workdps(dps)`` would
    compute itself; the tuples are immutable.
    """
    with mpmath.workdps(dps):
        theta = mpmath.pi / (k + 2)
        return theta._mpf_, mpmath.sin(theta)._mpf_


def _check_precision(precision: int) -> None:
    """Raise ``ValueError`` unless ``precision`` is an int (not a bool) ``>= 1``."""
    if type(precision) is not int or precision < 1:
        raise ValueError(f"precision must be an int >= 1, got {precision!r}")


def reduction_modulus(k: int) -> ChebPoly:
    """Minimal polynomial of ``2*cos(pi/(k+2))``; the residue modulus at level ``k``.

    It is monic, divides ``S_{k+1}``, and has degree ``phi(2k+4)/2 <= k+1``,
    so every residue below has degree at most ``k``.
    """
    check_level(k)
    return min_poly_two_cos(k + 2)


class QDimElement:
    """Exact quantum dimension: a residue in ``Z[x]/(psi)`` at a fixed level.

    Frozen: assigning or deleting an attribute raises ``AttributeError``.
    Two elements are equal, and hash alike, exactly when their residues and
    levels are.  The constructor checks the level, that the residue is a
    :class:`ChebPoly` and that it is reduced (degree below ``psi``'s).
    """

    __slots__ = ("residue", "level")
    __match_args__ = ("residue", "level")

    def __init__(self, residue: ChebPoly, level: int) -> None:
        check_level(level)
        if not isinstance(residue, ChebPoly):
            raise ValueError(f"residue must be a ChebPoly, got {residue!r}")
        if residue.degree >= min_poly_two_cos(level + 2).degree:
            raise ValueError("residue not reduced")
        _set_residue(self, residue)
        _set_level(self, level)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.residue == other.residue and self.level == other.level

    def __hash__(self) -> int:
        return hash((self.residue, self.level))

    def __repr__(self) -> str:
        return f"QDimElement(residue={self.residue!r}, level={self.level!r})"

    def __reduce__(self) -> tuple:
        return QDimElement, (self.residue, self.level)

    def __mul__(self, other: "QDimElement") -> "QDimElement":
        if not isinstance(other, QDimElement):
            return NotImplemented
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} != {other.level}")
        product = (self.residue * other.residue) % reduction_modulus(self.level)
        return QDimElement(product, self.level)

    def __add__(self, other: "QDimElement") -> "QDimElement":
        if not isinstance(other, QDimElement):
            return NotImplemented
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} != {other.level}")
        return QDimElement(self.residue + other.residue, self.level)

    def is_one(self) -> bool:
        return self.residue.coeffs == (1,)

    def numeric(self, precision: int = 15) -> mpmath.mpf:
        """Evaluate the residue at ``x = 2*cos(pi/(k+2))`` to ``precision`` digits.

        Horner's rule cancels on the residue's large coefficients.  Since
        ``|x| < 2``, ``sum |c_n| * 2^n`` bounds every partial sum, so the
        working precision adds that bound's decimal digits to the guard digits.
        """
        _check_precision(precision)
        bound = sum(abs(c) << n for n, c in enumerate(self.residue.coeffs))
        dps = precision + _GUARD_DIGITS + len(str(bound))
        with mpmath.workdps(dps):
            x = 2 * mpmath.cos(_make_mpf(_angle(self.level, dps)[0]))
            value = self.residue(x)
            return +value

    def __str__(self) -> str:
        return str(self.residue)


# the slots' own setters, which the frozen ``__setattr__`` leaves usable to ``__init__``
_set_residue = QDimElement.residue.__set__
_set_level = QDimElement.level.__set__


def qdim_index(i: int, k: int) -> QDimElement:
    """Exact quantum dimension attached to affine weight index ``i``.

    It is the residue of ``S_{min(i, k-i)}``, which equals the residue of
    ``S_i`` because ``psi`` divides ``S_i - S_{k-i}`` (see the module
    docstring); the reflected index is at most ``k // 2``.
    """
    check_index(i, k)
    return _qdim(min(i, k - i), k)


def qdim_exact(label: IrrLabel, k: int) -> QDimElement:
    """Exact quantum dimension of ``label``; depends only on ``label.i``.

    ``label`` and ``k`` are checked on every call; the element comes from a
    memo keyed by ``(min(i, k-i), k)`` with 1024 entries at most, so calls
    that share that key share one immutable element.
    """
    check_label(label, k)
    i = label.i
    return _qdim(min(i, k - i), k)


@lru_cache(maxsize=1024)
def _qdim(m: int, k: int) -> QDimElement:
    """The element of ``S_m`` at level ``k``, for a checked reflected index ``m = min(i, k-i)``.

    Memoised per ``(m, k)``, 1024 entries at most, so the reduction and the
    element's checks run once per distinct residue.  ``S_m`` is its own
    residue when its degree ``m`` is below ``psi``'s, so it is divided only
    otherwise.
    """
    poly, modulus = cheb_u(m), min_poly_two_cos(k + 2)
    return QDimElement(poly if poly.degree < modulus.degree else poly % modulus, k)


def _sine_ratio(n: int, theta: tuple, sin1: tuple, prec: int) -> tuple:
    """Raw mpf of ``sin(n*theta)/sin1`` at ``prec`` bits, one rounding per step.

    ``theta`` and ``sin1`` are raw mpf tuples.  The steps and roundings are
    those of ``mpmath.sin(n * theta) / sin1`` inside a context of ``prec``
    bits and mpmath's default rounding to nearest, so the bits are the same,
    without entering a context or building intermediate mpf objects.
    """
    angle = mpf_mul_int(theta, n, prec, round_nearest)
    return mpf_div(mpf_sin(angle, prec, round_nearest), sin1, prec, round_nearest)


def qdim_numeric(label: IrrLabel, k: int, precision: int = 15) -> mpmath.mpf:
    """Numeric quantum dimension ``sin((i+1)*pi/(k+2))/sin(pi/(k+2))``.

    The value is computed at ``precision`` plus 10 guard decimal digits
    (``dps_to_prec`` of that many bits) by mpmath's integer core: the angle
    ``(i+1)*theta``, its sine and the quotient by ``sin(theta)`` are each
    rounded to nearest at that working precision, exactly as the same
    expression inside ``mpmath.workdps`` would round them, so the returned
    mpf has the same bits.  ``precision`` is the number of significant
    decimal digits the result is meant to carry; the guard digits absorb
    the few roundings, but no bound on the error is certified.  mpmath's
    global precision is neither read nor changed.

    ``label``, ``k`` and ``precision`` are checked on every call, and every
    call returns a new mpf.  Its bits are memoised per ``(k, i+1, dps)``,
    1024 entries at most, so a miss evaluates one sine and a hit none;
    ``theta = pi/(k+2)`` and ``sin(theta)`` are kept per level and precision
    in a memo of the same bound.  The key is ``i``, not ``min(i, k-i)``:
    the two sines are equal as real numbers but need not round alike.  This
    route never touches the exact residues, so it doubles as an independent
    cross-check of :func:`qdim_exact`.
    """
    check_label(label, k)
    _check_precision(precision)
    return _make_mpf(_numeric_ratio(k, label.i + 1, precision + _GUARD_DIGITS))


@lru_cache(maxsize=1024)
def _numeric_ratio(k: int, n: int, dps: int) -> tuple:
    """Raw mpf of ``sin(n*theta)/sin(theta)`` with ``theta = pi/(k+2)``, at ``dps`` working digits."""
    theta, sin1 = _angle(k, dps)
    return _sine_ratio(n, theta, sin1, dps_to_prec(dps))


def global_dimension(k: int) -> tuple[QDimElement, mpmath.mpf]:
    """Global dimension ``9 * sum_{i=0..k} qdim(i)^2``, exact and numeric.

    The exact part is a residue (an honest algebraic number — e.g. it is the
    integer 18 at level 1 but ``45 + 9*sqrt(5)`` at level 3).  It is built
    without squaring: the sl2 Clebsch–Gordan identity
    ``S_i^2 = sum_{m=0..i} S_{2m}`` holds in ``Z[x]``, so the sum of squares
    is ``sum_{m=0..k} (k+1-m) * S_{2m}``.  Indices above ``k`` fold back
    because ``psi`` divides ``S_{k+1}``: ``S_{k+1} = 0`` and
    ``S_{k+1+j} = -S_{k+1-j}`` modulo ``psi`` (at ``t = pi/(k+2)``,
    ``sin((k+2+j)t) = -sin((k+2-j)t)``).  Every remaining ``S_n`` with
    ``n <= k`` is read as ``S_{min(n, k-n)}``, which has the same residue
    (``psi`` divides ``S_n - S_{k-n}``, see the module docstring).  So only
    the residues ``S_0 .. S_{k//2}`` are needed.  They come from the
    recurrence ``S_{i+1} = x*S_i - S_{i-1}`` on plain int lists: the next
    list is ``[0] + S_i`` minus ``S_{i-1}``, the shorter padded with zeros,
    and when its length passes ``deg psi`` its top coefficient is popped and
    that coefficient times the rest of the monic ``psi`` is subtracted.  Their
    weights are collected per residue, and the weighted coefficients are
    summed in one int list, which becomes the one :class:`ChebPoly` built;
    it is already reduced, being a sum of reduced residues.  The whole sum
    costs ``O(k * deg psi)`` integer operations.

    The numeric part evaluates the sum of squared sine ratios directly and
    shares no arithmetic with the residue, so it is an independent check.
    It is computed by mpmath's integer core at 25 significant decimal
    digits (15 plus the guard digits): each ratio as in
    :func:`qdim_numeric`, squared and rounded, the squares summed with one
    rounding and the sum multiplied by 9 with another.  These are the
    roundings of ``9 * mpmath.fsum(ratio ** 2 ...)`` inside
    ``mpmath.workdps(25)``, so the returned mpf has the same bits; mpmath's
    global precision is neither read nor changed.
    """
    check_level(k)
    psi = reduction_modulus(k).coeffs
    degree = len(psi) - 1
    residues: list[list[int]] = [[1]]  # S_0; deg psi >= 1, so it is reduced
    previous: list[int] = []  # S_{-1} = 0
    for _ in range(k // 2):
        current = residues[-1]
        following = [u - w for u, w in zip_longest([0, *current], previous, fillvalue=0)]
        if len(following) > degree:
            top = following.pop()
            following = [u - top * c for u, c in zip(following, psi)]
        residues.append(following)
        previous = current
    weights = [0] * len(residues)
    for m in range(k + 1):
        n = 2 * m
        if n <= k:
            weights[min(n, k - n)] += 9 * (k + 1 - m)
        elif n > k + 1:
            j = 2 * k + 2 - n
            weights[min(j, k - j)] -= 9 * (k + 1 - m)
    total = [0] * degree
    for weight, residue in zip(weights, residues):
        if weight:
            for power, c in enumerate(residue):
                total[power] += weight * c
    exact = QDimElement(ChebPoly(total), k)
    dps = 15 + _GUARD_DIGITS
    prec = dps_to_prec(dps)
    theta, sin1 = _angle(k, dps)
    squares = []
    for n in range(1, k + 2):
        ratio = _sine_ratio(n, theta, sin1, prec)
        squares.append(mpf_mul(ratio, ratio, prec, round_nearest))
    numeric = mpf_mul_int(mpf_sum(squares, prec, round_nearest), 9, prec, round_nearest)
    return exact, _make_mpf(numeric)


def has_unit_qdim(label: IrrLabel, k: int) -> bool:
    """True exactly when the quantum dimension equals 1 (simple current test)."""
    return qdim_exact(label, k).is_one()
