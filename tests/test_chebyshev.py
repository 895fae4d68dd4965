import copy
import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import pytest

from orbifusion.chebyshev import ChebPoly, cheb_u, cyclotomic, min_poly_two_cos


def poly(*coeffs):
    """Ascending-order helper: poly(c0, c1, ...)."""
    return ChebPoly(coeffs)


def test_normalization_and_degree():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly().degree == -1
    assert poly(5).degree == 0
    assert poly(0, 0, 3).degree == 2
    assert poly(0).is_zero()


def test_ring_ops_small():
    x = poly(0, 1)
    assert x * x == poly(0, 0, 1)
    assert x + x == poly(0, 2)
    assert x - x == poly()
    assert -poly(1, -2) == poly(-1, 2)
    assert 3 * poly(1, 1) == poly(3, 3)
    assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)


def test_arithmetic_with_a_foreign_operand_is_not_implemented():
    from orbifusion.labels import vacuum
    from orbifusion.qdim import qdim_exact

    p = poly(1)
    q = qdim_exact(vacuum(3), 3)
    assert p.__add__(3) is NotImplemented and p.__sub__(3) is NotImplemented
    assert p.__mul__(q) is NotImplemented and p.__mul__(1.5) is NotImplemented
    for op in (lambda: p + 3, lambda: p - 3, lambda: 3 - p, lambda: p * q, lambda: p * 1.5, lambda: 1.5 * p):
        with pytest.raises(TypeError):
            op()
    assert p * 2 == 2 * p == poly(2)  # an int still scales


def test_scaling_by_an_int_builds_int_coefficients_without_the_checked_constructor(monkeypatch):
    p = poly(3, -1, 2)

    def refuse(self, coeffs=()):
        raise AssertionError("the checked constructor ran")

    monkeypatch.setattr(ChebPoly, "__init__", refuse)
    for factor, expected in ((2, (6, -2, 4)), (-1, (-3, 1, -2)), (True, (3, -1, 2)), (False, ()), (0, ())):
        for scaled in (p * factor, factor * p):
            assert scaled.coeffs == expected
            assert all(type(c) is int for c in scaled.coeffs)


def test_division_by_a_foreign_operand_is_not_implemented():
    p = poly(1, 2)
    assert p.__divmod__(3) is NotImplemented and p.__mod__(3) is NotImplemented
    for op in (lambda: divmod(p, 3), lambda: p % 3, lambda: p % 1.5, lambda: divmod(p, "x")):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("coeffs", ["12", (1.5,), (1, True), (2, Fraction(1)), [0, 1, 0.0]])
def test_a_coefficient_that_is_not_an_int_is_refused(coeffs):
    with pytest.raises(ValueError, match="polynomial coefficients must be ints"):
        ChebPoly(coeffs)


@pytest.mark.parametrize("coeffs", [5, None, 1.5])
def test_coefficients_that_are_not_iterable_are_refused(coeffs):
    with pytest.raises(ValueError, match="polynomial coefficients must be an iterable of ints"):
        ChebPoly(coeffs)


def test_ring_ops_random_properties():
    rng = random.Random(99)

    def rand_poly():
        return ChebPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_division_by_monic():
    rng = random.Random(7)
    for _ in range(200):
        a = ChebPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        d = ChebPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([1, -1])])
        q, r = divmod(a, d)
        assert q * d + r == a
        assert r.degree < d.degree
    with pytest.raises(ValueError):
        divmod(poly(1, 1), poly(1, 2))
    with pytest.raises(ZeroDivisionError):
        divmod(poly(1), poly())


def test_cheb_u_first_values():
    assert cheb_u(0) == poly(1)
    assert cheb_u(1) == poly(0, 1)
    assert cheb_u(2) == poly(-1, 0, 1)
    assert cheb_u(3) == poly(0, -2, 0, 1)
    assert cheb_u(4) == poly(1, 0, -3, 0, 1)
    with pytest.raises(ValueError):
        cheb_u(-1)


def test_cheb_u_sine_ratio():
    # S_n(2 cos t) = sin((n+1) t) / sin(t), checked at assorted angles
    for n in range(0, 12):
        for t in (0.3, 0.7, math.pi / 5, 1.1):
            got = cheb_u(n)(2 * math.cos(t))
            want = math.sin((n + 1) * t) / math.sin(t)
            assert got == pytest.approx(want, abs=1e-9)


def test_cyclotomic_known_values():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(6) == poly(1, -1, 1)
    assert cyclotomic(8) == poly(1, 0, 0, 0, 1)
    assert cyclotomic(12) == poly(1, 0, -1, 0, 1)
    # product over divisors rebuilds z^n - 1
    for n in (6, 10, 12):
        prod = poly(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == ChebPoly([-1] + [0] * (n - 1) + [1])


def _binomial(n):
    """z^n - 1."""
    return ChebPoly([-1] + [0] * (n - 1) + [1])


@lru_cache(maxsize=None)
def _dense_cyclotomic(n):
    """Reference: z^n - 1 divided densely by every smaller Phi_d, d | n."""
    poly = _binomial(n)
    for d in range(1, n):
        if n % d == 0:
            poly = divmod(poly, _dense_cyclotomic(d))[0]
    return poly


def test_cyclotomic_products_rebuild_every_binomial():
    for n in range(1, 421):
        prod = poly(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = cyclotomic(d) * prod
        assert prod == _binomial(n), n


def test_cyclotomic_matches_dense_division():
    for n in range(1, 421):
        assert cyclotomic(n) == _dense_cyclotomic(n), n


def _folded_min_poly(n):
    """Reference: fold Phi_2n through V_t = z^t + z^-t one ChebPoly at a time."""
    c = _dense_cyclotomic(2 * n).coeffs
    half = len(c) // 2
    folded = poly(c[half])
    v_prev, v_cur = poly(2), poly(0, 1)
    for t in range(1, half + 1):
        folded = folded + c[half + t] * v_cur
        v_prev, v_cur = v_cur, poly(0, 1) * v_cur - v_prev
    return folded


def test_min_poly_matches_the_chebpoly_fold():
    for n in range(2, 211):
        assert min_poly_two_cos(n) == _folded_min_poly(n), n


@pytest.mark.parametrize("fn, least", [(cheb_u, 0), (cyclotomic, 1), (min_poly_two_cos, 2)])
@pytest.mark.parametrize("bad", [3.0, 2.5, True, False, "3", None])
def test_malformed_indices_are_refused(fn, least, bad):
    fn(3)
    fn(least)  # an equal int already cached must not answer for a float or bool
    with pytest.raises(ValueError, match="must be an int"):
        fn(bad)
    with pytest.raises(ValueError, match=f">= {least}, got {least - 1}"):
        fn(least - 1)


@pytest.mark.parametrize(
    "fn, what", [(cheb_u, "Chebyshev index"), (cyclotomic, "cyclotomic index"), (min_poly_two_cos, "n")]
)
def test_unhashable_indices_are_refused_like_other_non_ints(fn, what):
    fn(3)
    with pytest.raises(ValueError) as info:
        fn([3])
    assert str(info.value) == f"{what} must be an int, got [3]"
    assert fn.cache_info().currsize >= 1


# Frozen minimal polynomials of 2 cos(pi/n).
KNOWN_MIN_POLYS = {
    3: poly(-1, 1),            # x - 1
    4: poly(-2, 0, 1),         # x^2 - 2
    5: poly(-1, -1, 1),        # x^2 - x - 1
    6: poly(-3, 0, 1),         # x^2 - 3
    7: poly(1, -2, -1, 1),     # x^3 - x^2 - 2x + 1
    8: poly(2, 0, -4, 0, 1),   # x^4 - 4x^2 + 2
    9: poly(-1, -3, 0, 1),     # x^3 - 3x - 1
    12: poly(1, 0, -4, 0, 1),  # x^4 - 4x^2 + 1
}


def _totient(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


@pytest.mark.parametrize("n, expected", sorted(KNOWN_MIN_POLYS.items()))
def test_min_poly_frozen_values(n, expected):
    assert min_poly_two_cos(n) == expected


@pytest.mark.parametrize("n", range(2, 203))
def test_min_poly_structure(n):
    psi = min_poly_two_cos(n)
    assert psi.coeffs[-1] == 1                    # monic
    assert psi.degree == _totient(2 * n) // 2     # degree phi(2n)/2
    assert (cheb_u(n - 1) % psi).is_zero()        # divides S_{n-1}
    # |coefficients| * 2^power sum to below 4^degree, so carry that many more digits
    with mpmath.workdps(40 + psi.degree):
        root = 2 * mpmath.cos(mpmath.pi / n)
        assert abs(psi(root)) < mpmath.mpf(10) ** -30


def test_evaluation_with_exact_and_float_arguments():
    p = poly(1, -2, 1)  # (x-1)^2
    assert p(1) == 0
    assert p(3) == 4
    from fractions import Fraction
    assert p(Fraction(1, 2)) == Fraction(1, 4)


def test_str_rendering():
    assert str(poly()) == "0"
    assert str(poly(-1)) == "-1"
    assert str(poly(0, 1)) == "x"
    assert str(poly(-2, 0, 1)) == "x^2 - 2"
    assert str(poly(1, -2, -1, 1)) == "x^3 - x^2 - 2x + 1"
    assert str(poly(36, 18)) == "18x + 36"


def _text_of(coeffs):
    """Reference text of a polynomial, descending powers, written out afresh on every call."""
    terms = []
    for power in reversed(range(len(coeffs))):
        c = coeffs[power]
        if c:
            var = "" if power == 0 else "x" if power == 1 else f"x^{power}"
            mag = str(abs(c)) if abs(c) != 1 or not var else ""
            terms.append(("-" if c < 0 else "+", mag + var))
    if not terms:
        return "0"
    (sign, first), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


def test_a_polynomial_is_frozen():
    p = poly(1, 2)
    str(p)
    for name in ("coeffs", "_text", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (3,))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.coeffs == (1, 2) and str(p) == "2x + 1"


def test_a_polynomial_renders_its_text_once():
    for p in (poly(), poly(-1), poly(1, -2, -1, 1), cheb_u(40), poly(3, -1, 2) * 2):
        first = str(p)
        assert str(p) is first and first == _text_of(p.coeffs)


def test_a_polynomial_copies_and_pickles_as_a_value():
    for p in (poly(), poly(36, 18), cheb_u(12)):
        rendered = str(p)
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is ChebPoly and twin == p and hash(twin) == hash(p)
            assert twin.coeffs == p.coeffs and str(twin) == rendered
            with pytest.raises(AttributeError):
                twin.coeffs = (1,)


def test_a_quantum_dimension_renders_as_its_uncached_text():
    # qdim_exact hands out one shared element per reflected index, so the
    # second str() of each residue is its kept text.
    from orbifusion.labels import Sector, make_label
    from orbifusion.qdim import qdim_exact

    for k in (*range(1, 61), 200):
        for i in range(k + 1):
            element = qdim_exact(make_label(Sector.T1, i, 2, k), k)
            want = _text_of(element.residue.coeffs)
            assert str(element) == want and str(qdim_exact(make_label(Sector.U, i, 0, k), k)) == want, (k, i)
