"""Integer polynomial arithmetic for exact quantum-dimension bookkeeping.

Quantum dimensions of the level-``k`` catalog are the algebraic numbers
``sin((i+1)*pi/(k+2)) / sin(pi/(k+2))``.  Writing ``x = 2*cos(pi/(k+2))``
these are the values ``S_i(x)`` of the rescaled Chebyshev family

    S_0 = 1,  S_1 = x,  S_{n+1} = x*S_n - S_{n-1},

which satisfies ``S_n(2*cos t) = sin((n+1)*t)/sin(t)``.  All identities
between such numbers can therefore be decided in the quotient ring
``Z[x] / (psi)`` where ``psi`` is the minimal polynomial of ``x`` — residue
equality there is equivalent to equality of the real numbers.  This module
supplies the polynomial ring, the ``S_n`` family, cyclotomic polynomials and
the minimal polynomial of ``2*cos(pi/n)``; everything is exact integer
arithmetic.

Cyclotomic polynomials are Moebius products of binomials,
``Phi_n = prod_{d | n} (z^d - 1)^mu(n/d)``, computed on plain int lists in
``O(phi(n) * 2^omega(n))`` integer operations with no smaller ``Phi_d``.
The minimal polynomial folds the lower half of ``Phi_{2n}`` into the
variable ``x = z + 1/z`` in ``O(phi(2n)^2)`` operations and builds one
:class:`ChebPoly` at the end.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Callable, Iterable, Union

__all__ = ["ChebPoly", "cheb_u", "cyclotomic", "min_poly_two_cos"]


_INT_ONLY = frozenset((int,))


class ChebPoly:
    """Univariate polynomial with integer coefficients, ascending order.

    Trailing zero coefficients are stripped, so the representation (and
    equality) is canonical; the zero polynomial has an empty coefficient
    tuple.  Division is supported for divisors with unit leading
    coefficient, which keeps everything inside the integers.  Every
    coefficient must be an int (not a bool); anything else, or coefficients
    that are not iterable, raises ``ValueError``.

    Frozen: assigning or deleting an attribute raises ``AttributeError``, so
    a polynomial can be shared, as :func:`cheb_u` and the quantum-dimension
    memo share theirs.  The first ``str()`` renders the text and keeps it in
    a slot; every later ``str()`` of the same object returns that string.
    """

    __slots__ = ("coeffs", "_text")

    def __init__(self, coeffs: Iterable[int] = ()):
        try:
            items = iter(coeffs)
        except TypeError:
            raise ValueError(f"polynomial coefficients must be an iterable of ints, got {coeffs!r}") from None
        cs = list(items)
        if not _INT_ONLY.issuperset(map(type, cs)):
            bad = next(c for c in cs if type(c) is not int)
            raise ValueError(f"polynomial coefficients must be ints, got {bad!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ChebPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ChebPoly is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return ChebPoly, (self.coeffs,)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ChebPoly") -> "ChebPoly":
        if not isinstance(other, ChebPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _from_ints([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "ChebPoly") -> "ChebPoly":
        if not isinstance(other, ChebPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ChebPoly":
        return _from_ints([-c for c in self.coeffs])

    def __mul__(self, other: Union["ChebPoly", int]) -> "ChebPoly":
        if isinstance(other, int):
            factor = int(other)  # a bool or other int subclass multiplies as a plain int
            return _from_ints([c * factor for c in self.coeffs])
        if not isinstance(other, ChebPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _from_ints([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _from_ints(out)

    __rmul__ = __mul__

    def __divmod__(self, divisor: "ChebPoly") -> tuple["ChebPoly", "ChebPoly"]:
        if not isinstance(divisor, ChebPoly):
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError("division only by polynomials with unit leading coefficient")
        rem = list(self.coeffs)
        d = divisor.degree
        quot = [0] * max(len(rem) - d, 0)
        for top in range(len(rem) - 1, d - 1, -1):
            q = rem[top] * lead  # lead is +-1, so this is exact
            if q:
                quot[top - d] = q
                for idx, c in enumerate(divisor.coeffs):
                    rem[top - d + idx] -= q * c
        return _from_ints(quot), _from_ints(rem)

    def __mod__(self, divisor: "ChebPoly") -> "ChebPoly":
        if not isinstance(divisor, ChebPoly):
            return NotImplemented
        return divmod(self, divisor)[1]

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction or mpmath values."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChebPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ChebPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:  # the first render; threads that race here store equal texts
            text = self._render()
            _set_text(self, text)
            return text

    def _render(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "x" if power == 1 else f"x^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _from_ints(cs: list[int]) -> ChebPoly:
    """The polynomial of ``cs`` without the coefficient check, stripping ``cs`` in place.

    For lists that this module's own arithmetic built from the coefficients
    of checked polynomials and plain int scalars, which are ints by
    construction; coefficients from outside go through the checked
    constructor instead.
    """
    while cs and cs[-1] == 0:
        cs.pop()
    poly = object.__new__(ChebPoly)
    _set_coeffs(poly, tuple(cs))
    return poly


# the slots' own setters, which the frozen ``__setattr__`` leaves usable to the constructors
_set_coeffs = ChebPoly.coeffs.__set__
_set_text = ChebPoly._text.__set__


_X = ChebPoly((0, 1))


def _cached_by_int(what: str) -> Callable[[Callable], Callable]:
    """Memoise a function of one index, refusing an index that is not an int first.

    The index is checked before the cache hashes it, so a float, a bool or
    an unhashable index raises ``ValueError("<what> must be an int, ...")``
    rather than being cached or failing to hash.  The wrapper keeps the
    cache's ``cache_info`` and ``cache_clear``.
    """

    def decorate(fn: Callable[[int], ChebPoly]) -> Callable[[int], ChebPoly]:
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def index_checked(n: int) -> ChebPoly:
            if type(n) is not int:
                raise ValueError(f"{what} must be an int, got {n!r}")
            return cached(n)

        index_checked.cache_info, index_checked.cache_clear = cached.cache_info, cached.cache_clear
        return index_checked

    return decorate


_S = [ChebPoly((1,)), _X]  # S_0, S_1, ... as far up as any call has needed


@_cached_by_int("Chebyshev index")
def cheb_u(n: int) -> ChebPoly:
    """The rescaled second-kind Chebyshev polynomial ``S_n``.

    ``S_0 = 1``, ``S_1 = x``, ``S_{n+1} = x*S_n - S_{n-1}``; then
    ``S_n(2*cos t) = sin((n+1)*t)/sin(t)``.  ``n`` must be an int (not a
    bool) with ``n >= 0``.  The family is built upward in a loop, so a cold
    index of any size costs no recursion.
    """
    if n < 0:
        raise ValueError(f"Chebyshev index must be >= 0, got {n}")
    while len(_S) <= n:
        _S.append(_X * _S[-1] - _S[-2])
    return _S[n]


def _distinct_primes(n: int) -> list[int]:
    """The primes dividing ``n >= 1``, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _totient(n: int) -> int:
    phi = n
    for p in _distinct_primes(n):
        phi -= phi // p
    return phi


def _cyclotomic_head(n: int, length: int) -> list[int]:
    """The first ``length`` coefficients of ``Phi_n``, ascending, for ``n >= 2``.

    ``Phi_n(z) = prod_{e | n} (1 - z^(n/e))^mu(e)``; only the squarefree
    ``e`` contribute, and the signs of ``z^d - 1`` against ``1 - z^d``
    cancel because ``sum_{e | n} mu(e) = 0`` for ``n >= 2``.  Each binomial
    is a unit of the power series ring, so the product is taken modulo
    ``z^length`` in any order: multiplying by ``1 - z^d`` subtracts the
    series shifted by ``d``, and dividing by it adds the already divided
    series back, ``d`` coefficients at a time in ascending order.  Each of
    the ``2^omega(n)`` binomials costs about ``length`` integer operations.
    """
    factors = [(1, 1)]  # (e, mu(e)) for every squarefree divisor e of n
    for p in _distinct_primes(n):
        factors += [(e * p, -mu) for e, mu in factors]
    coeffs = [1] + [0] * (length - 1)
    # multiplications first, so the series stays a polynomial until the divisions
    for e, mu in sorted(factors, key=lambda f: -f[1]):
        d = n // e
        if d >= length:
            continue
        if mu > 0:
            coeffs[d:] = [c - s for c, s in zip(coeffs[d:], coeffs)]
        else:
            for lo in range(d, length, d):
                coeffs[lo:lo + d] = [c + s for c, s in zip(coeffs[lo:lo + d], coeffs[lo - d:lo])]
    return coeffs


@_cached_by_int("cyclotomic index")
def cyclotomic(n: int) -> ChebPoly:
    """The n-th cyclotomic polynomial, as a Moebius product of binomials.

    ``Phi_n = prod_{d | n} (z^d - 1)^mu(n/d)``: only the squarefree ``n/d``
    contribute, so ``Phi_n`` comes from multiplying by and exactly dividing
    by ``2^omega(n)`` binomials on an int list of ``phi(n) + 1``
    coefficients.  That costs ``O(phi(n) * 2^omega(n))`` small-int
    operations and needs no smaller cyclotomic polynomial (Arnold and
    Monagan, *Calculating cyclotomic polynomials*, Math. Comp. 80, 2011).
    ``n`` must be an int (not a bool) with ``n >= 1``.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if n == 1:
        return ChebPoly((-1, 1))
    return _from_ints(_cyclotomic_head(n, _totient(n) + 1))


@_cached_by_int("n")
def min_poly_two_cos(n: int) -> ChebPoly:
    """Minimal polynomial over the integers of ``2*cos(pi/n)``, for ``n >= 2``.

    ``2*cos(pi/n) = z + 1/z`` for the primitive 2n-th root of unity
    ``z = exp(i*pi/n)``.  The cyclotomic polynomial ``Phi_{2n}`` is
    palindromic of degree ``2h``, ``h = phi(2n)/2``, so
    ``z^(-h) * Phi_{2n}(z) = c_h + sum_{t=1..h} c_{h-t} * V_t(x)`` in the
    basis ``V_t(x) = z^t + z^{-t}`` (``V_0 = 2``, ``V_1 = x``,
    ``V_{t+1} = x*V_t - V_{t-1}``), and that fold is the minimal polynomial.
    Only ``c_0 .. c_h`` are built, by the truncated Moebius product of
    :func:`cyclotomic`.  The fold runs Clenshaw's recurrence
    ``b_t = c_{h-t} + x*b_{t+1} - b_{t+2}`` down from ``t = h`` on int lists
    and ends with ``c_h + x*b_1 - 2*b_2``: ``O(h^2)`` integer operations,
    and one :class:`ChebPoly` at the end.  The result is monic of degree
    ``h`` and divides ``S_{n-1}``.  ``n`` must be an int (not a bool).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    h = _totient(2 * n) // 2
    c = _cyclotomic_head(2 * n, h + 1)
    b1: list[int] = []  # b_{t+1}
    b2: list[int] = []  # b_{t+2}, one coefficient shorter
    for t in range(h, 0, -1):
        below = b2 + [0, 0]  # b_{t+2}, padded to line up with x*b_{t+1}
        b1, b2 = [c[h - t] - below[0]] + [u - w for u, w in zip(b1, below[1:])], b1
    below = b2 + [0, 0]
    return _from_ints([c[h] - 2 * below[0]] + [u - 2 * w for u, w in zip(b1, below[1:])])
