import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import orbifusion
from orbifusion.chebyshev import ChebPoly, cheb_u
from orbifusion.labels import Sector, enumerate_irreducibles, make_label, parse_label, vacuum
from orbifusion.qdim import (
    QDimElement,
    global_dimension,
    has_unit_qdim,
    qdim_exact,
    qdim_index,
    qdim_numeric,
    reduction_modulus,
)

ONE = ChebPoly((1,))


def sine_ratio(i, k, dps=30):
    """Independent numeric route: sin((i+1)pi/(k+2)) / sin(pi/(k+2))."""
    with mpmath.workdps(dps):
        theta = mpmath.pi / (k + 2)
        return mpmath.sin((i + 1) * theta) / mpmath.sin(theta)


def test_vacuum_and_top_index_are_units():
    for k in range(1, 13):
        assert qdim_index(0, k).is_one()
        assert qdim_index(k, k).is_one()


def test_qdim_ignores_sector_and_j():
    for k in (1, 3, 6):
        for i in range(k + 1):
            values = {
                qdim_exact(make_label(sector, i, j, k), k)
                for sector in Sector
                for j in range(3)
            }
            assert len(values) == 1


@pytest.mark.parametrize("k", [*range(1, 61), 99, 200, 208])
def test_symmetry_i_to_k_minus_i(k):
    # qdim_index reduces S_min(i, k-i); check it against S_i itself, reduced
    # here; at k=208 deg psi is 48 below k//2 = 104, so both sides divide
    modulus = reduction_modulus(k)
    for i in range(k + 1):
        assert qdim_index(i, k).residue == cheb_u(i) % modulus


@pytest.mark.parametrize("k", range(1, 13))
def test_exact_matches_numeric_for_all_labels(k):
    # evaluate each residue at x = 2 cos(pi/(k+2)) and compare with the
    # direct sine-ratio route, which never touches polynomial arithmetic
    for i in range(k + 1):
        exact_value = qdim_index(i, k).numeric(precision=25)
        assert abs(exact_value - sine_ratio(i, k)) < mpmath.mpf(10) ** -20


@pytest.mark.parametrize("k", [*range(1, 61), 200, 400])
def test_element_numeric_keeps_its_precision_at_every_index(k):
    # Horner's rule on large residue coefficients cancels; the value must
    # still carry `precision` correct digits against a sine ratio at 2p+20
    for precision in (15, 30):
        tolerance = mpmath.mpf(10) ** -precision
        for i in range(k + 1):
            expected = sine_ratio(i, k, dps=2 * precision + 20)
            got = qdim_index(i, k).numeric(precision)
            assert abs(got - expected) <= tolerance * expected, (i, precision)


def test_qdim_numeric_examples():
    assert qdim_numeric(parse_label("u:1:0", 1), 1, 10) == pytest.approx(1.0, abs=1e-10)
    assert qdim_numeric(parse_label("u:1:0", 2), 2, 10) == pytest.approx(2 ** 0.5, abs=1e-10)
    assert qdim_numeric(parse_label("u:2:0", 2), 2, 10) == pytest.approx(1.0, abs=1e-10)
    # golden ratio at level 3
    assert qdim_numeric(parse_label("t1:1:0", 3), 3, 12) == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)
    for precision in (0, 1.5, True, "5", None):
        with pytest.raises(ValueError, match="precision must be an int"):
            qdim_numeric(parse_label("u:0:0", 1), 1, precision)


@pytest.mark.parametrize("precision", [0, -3, 1.5, True, "20", None])
def test_element_numeric_refuses_a_bad_precision_as_qdim_numeric_does(precision):
    element = qdim_index(1, 3)
    with pytest.raises(ValueError, match="precision must be an int >= 1"):
        element.numeric(precision)
    assert element.numeric(1) == pytest.approx((1 + 5 ** 0.5) / 2, abs=0.1)


def test_qdim_numeric_is_bit_identical_to_the_uncached_formula(context_qdim_numeric):
    for k in range(1, 201):
        indices = sorted({0, 1, k // 3, k // 2, k - 1, k})
        for precision in (5, 20, 40):
            for i in indices:
                got = qdim_numeric(make_label(Sector.U, i, 0, k), k, precision)
                assert got.man_exp == context_qdim_numeric(i, k, precision).man_exp, (k, i, precision)
    # an ambient precision does not leak into the kept angle
    with mpmath.workdps(60):
        got = qdim_numeric(make_label(Sector.T1, 2, 1, 7), 7, 5)
    assert got.man_exp == context_qdim_numeric(2, 7, 5).man_exp


BIT_IDENTITY_LEVELS = [*range(1, 81), 100, 199, 200, 201, 400]


@pytest.mark.parametrize("k", BIT_IDENTITY_LEVELS)
def test_qdim_numeric_has_the_bits_of_the_context_path_at_every_index(k, context_qdim_numeric):
    # the libmp route rounds where mpmath's context operators round, so the
    # raw mpf, sign included, is the same at every index and precision
    for precision in (1, 5, 15, 20, 30, 50):
        for i in range(k + 1):
            got = qdim_numeric(make_label(Sector.T2, i, 1, k), k, precision)
            assert got._mpf_ == context_qdim_numeric(i, k, precision)._mpf_, (i, precision)


@pytest.mark.parametrize("k", [*range(1, 13), 20, 50])
def test_qdim_numeric_memo_gives_the_same_bits_on_a_miss_and_on_a_hit(k, context_qdim_numeric):
    from orbifusion.qdim import _numeric_ratio

    for precision in (15, 20, 30):
        for i in range(k + 1):
            label = make_label(Sector.U, i, 2, k)
            _numeric_ratio.cache_clear()
            miss = qdim_numeric(label, k, precision)
            hit = qdim_numeric(label, k, precision)
            assert _numeric_ratio.cache_info()[:2] == (1, 1)  # (hits, misses)
            assert hit is not miss and type(hit) is mpmath.mpf
            assert miss._mpf_ == hit._mpf_ == context_qdim_numeric(i, k, precision)._mpf_, (i, precision)


def test_qdim_numeric_memo_keys_i_and_k_minus_i_apart():
    from orbifusion.qdim import _numeric_ratio

    k = 9
    _numeric_ratio.cache_clear()
    for i in (2, k - 2, 2):
        qdim_numeric(make_label(Sector.T1, i, 0, k), k, 20)
    assert _numeric_ratio.cache_info()[:4] == (1, 2, 1024, 2)  # (hits, misses, maxsize, currsize)


def test_qdim_exact_memo_keys_i_and_k_minus_i_together():
    from orbifusion.qdim import _qdim

    k = 9
    _qdim.cache_clear()
    low, high = qdim_exact(make_label(Sector.U, 2, 0, k), k), qdim_exact(make_label(Sector.T2, k - 2, 1, k), k)
    assert high is low and low == QDimElement(cheb_u(2), k)
    assert _qdim.cache_info()[:2] == (1, 1)
    with pytest.raises(ValueError, match=r"^i out of range: 10 not in 0\.\.9$"):
        qdim_exact(make_label(Sector.U, 10, 0, 10), k)  # the label is checked before the memo is read


def test_every_memo_is_bounded_at_1024_entries():
    from orbifusion.labels import _read_label
    from orbifusion.qdim import _angle, _numeric_ratio, _qdim

    assert [memo.cache_info().maxsize for memo in (_read_label, _qdim, _numeric_ratio, _angle)] == [1024] * 4


@pytest.mark.parametrize("k", BIT_IDENTITY_LEVELS)
def test_global_dimension_numeric_has_the_bits_of_fsum(k, context_global_numeric):
    assert global_dimension(k)[1]._mpf_ == context_global_numeric(k)._mpf_


@pytest.mark.parametrize("i", [1.0, True, "1", None, -1, 4])
def test_qdim_index_rejects_malformed_index(i):
    with pytest.raises(ValueError, match="weight index must be an int|i out of range"):
        qdim_index(i, 3)


@pytest.mark.parametrize("k", range(1, 13))
def test_positivity(k):
    # true values are >= 1; allow rounding slack at the requested precision
    for lab in enumerate_irreducibles(k):
        assert qdim_numeric(lab, k, 15) >= 1 - mpmath.mpf(10) ** -15


def test_residues_are_reduced():
    for k in (1, 2, 5, 11):
        modulus = reduction_modulus(k)
        for i in range(k + 1):
            assert qdim_index(i, k).residue.degree < modulus.degree
    with pytest.raises(ValueError, match="not reduced"):
        QDimElement(cheb_u(5), 2)


@pytest.mark.parametrize("residue", [None, 3, (1,)])
def test_qdim_element_rejects_a_residue_that_is_not_a_polynomial(residue):
    with pytest.raises(ValueError, match="residue must be a ChebPoly"):
        QDimElement(residue, 2)


def test_qdim_element_arithmetic_with_a_non_element_is_not_implemented():
    q = qdim_exact(parse_label("u:1:0", 2), 2)
    assert q.__mul__(2) is NotImplemented and q.__add__(1) is NotImplemented
    for op in (lambda: q * 2, lambda: q + 1, lambda: 2 * q, lambda: 1 + q):
        with pytest.raises(TypeError):
            op()


def test_exact_arithmetic_level_mismatch():
    with pytest.raises(ValueError, match="level mismatch"):
        qdim_index(0, 2) * qdim_index(0, 3)


def test_spot_residue_identity():
    # S_1^2 = S_0 + S_2 numerically; as residues at level 2 both sides
    # reduce to the image of x^2
    lhs = qdim_index(1, 2) * qdim_index(1, 2)
    rhs = qdim_index(0, 2) + qdim_index(2, 2)
    assert lhs == rhs


def test_global_dimension_small_levels():
    exact1, numeric1 = global_dimension(1)
    assert exact1.residue == ChebPoly((18,))
    assert abs(numeric1 - 18) < mpmath.mpf(10) ** -9

    exact2, numeric2 = global_dimension(2)
    assert exact2.residue == ChebPoly((36,))
    assert abs(numeric2 - 36) < mpmath.mpf(10) ** -9

    # level 3: 9 * (1 + phi^2 + phi^2 + 1) = 45 + 9*sqrt(5), irrational
    exact3, numeric3 = global_dimension(3)
    assert exact3.residue == ChebPoly((36, 18))
    with mpmath.workdps(25):
        assert abs(numeric3 - (45 + 9 * mpmath.sqrt(5))) < mpmath.mpf(10) ** -9


@pytest.mark.parametrize("k", range(1, 9))
def test_global_dimension_agrees_with_direct_label_sum(k):
    _, numeric = global_dimension(k)
    with mpmath.workdps(30):
        direct = mpmath.fsum(
            qdim_numeric(lab, k, 25) ** 2 for lab in enumerate_irreducibles(k)
        )
    assert abs(numeric - direct) < mpmath.mpf(10) ** -9


def _global_dimension_by_squares(k):
    """Reference for the exact half of ``global_dimension``: the direct sum
    ``9 * sum_i (S_i mod psi)^2``, one squaring and reduction per index."""
    modulus = reduction_modulus(k)
    total = ChebPoly()
    for i in range(k + 1):
        si = cheb_u(i) % modulus
        total = total + (si * si) % modulus
    return (9 * total) % modulus


@pytest.mark.parametrize("k", [*range(1, 61), 99, 100, 118, 199, 200, 201, 208])
def test_global_dimension_matches_sum_of_squares(k):
    # at k = 28, 40, 58, 100, 118 and 208, among others, some S_i mod psi is two
    # or more degrees below S_{i-1} mod psi, so x * S_i is shorter than S_{i-1}
    assert global_dimension(k)[0].residue == _global_dimension_by_squares(k)


def _completeness(residue, k):
    """``residue * (4 - x^2)`` reduced modulo ``psi``: ``D^2 * 4 sin^2(pi/(k+2))`` when ``residue`` is ``D^2``."""
    return residue * ChebPoly((4, 0, -1)) % reduction_modulus(k)


@pytest.mark.parametrize("k", [*range(1, 31), 57, 100, 200])
def test_global_dimension_meets_the_completeness_identity(k):
    # Dong-Ren-Xu (Adv. Math. 321, 2017): D^2 (4 - x^2) = 18 (k+2), with x = 2 cos(pi/(k+2))
    assert _completeness(global_dimension(k)[0].residue, k) == ChebPoly((18 * (k + 2),))


def test_the_completeness_identity_misses_a_module_left_out():
    k = 8
    squares = {}
    for label in enumerate_irreducibles(k):
        d = qdim_exact(label, k)
        squares[label] = (d * d).residue
    total = sum(squares.values(), ChebPoly())
    assert _completeness(total, k) == ChebPoly((18 * (k + 2),))
    assert _completeness(total - squares[vacuum(k)], k) != ChebPoly((18 * (k + 2),))


def test_is_one_reads_the_residue_without_building_a_polynomial(monkeypatch):
    values = [(qdim_index(i, k), i in (0, k)) for k in range(1, 13) for i in range(k + 1)]
    values += [(QDimElement(ChebPoly(cs), 3), False) for cs in [(), (2,), (-1,), (1, 1), (0, 1)]]

    def refuse(self, coeffs=()):
        raise AssertionError("the checked constructor ran")

    monkeypatch.setattr(ChebPoly, "__init__", refuse)
    assert [value.is_one() for value, _ in values] == [one for _, one in values]


def test_has_unit_qdim_patterns():
    assert all(has_unit_qdim(lab, 1) for lab in enumerate_irreducibles(1))
    for k in range(2, 13):
        for lab in enumerate_irreducibles(k):
            assert has_unit_qdim(lab, k) == (lab.i in (0, k))


def test_cold_index_needs_no_deep_recursion():
    # S_200(2 cos(pi/402)) = 1/sin(pi/402), reached cold under a recursion limit below 200
    code = (
        "import sys, mpmath; from orbifusion.qdim import qdim_index; "
        "sys.setrecursionlimit(150); value = qdim_index(200, 400).numeric(precision=60); "
        "mpmath.mp.dps = 60; assert abs(value - 1 / mpmath.sin(mpmath.pi / 402)) < mpmath.mpf(10) ** -40"
    )
    _run_python(code)


def _run_python(code):
    """Run ``code`` in a fresh interpreter with this orbifusion's source first on the inherited ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(Path(orbifusion.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.mark.parametrize("k", range(1, 61))
def test_residue_of_every_index_is_s_i_reduced_modulo_psi(k):
    from orbifusion.chebyshev import min_poly_two_cos
    from orbifusion.qdim import _qdim

    modulus = min_poly_two_cos(k + 2)
    for i in range(k + 1):
        assert _qdim(i, k).residue == cheb_u(i) % modulus, i


def test_both_residue_paths_occur_below_level_sixty_one():
    # S_m with m = min(i, k - i) is its own residue when deg S_m < deg psi, and is divided otherwise
    degrees = [(min(i, k - i), reduction_modulus(k).degree) for k in range(1, 61) for i in range(k + 1)]
    assert any(m < d for m, d in degrees) and any(m >= d for m, d in degrees)


def test_qdim_element_is_frozen_and_has_no_dict():
    q = qdim_index(1, 3)
    for name in ("residue", "level", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, ONE)
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert (q.residue, q.level) == (cheb_u(1), 3)
    assert not hasattr(q, "__dict__")


def test_qdim_element_equality_and_hash_are_by_residue_and_level():
    q = QDimElement(cheb_u(1), 3)
    assert q == QDimElement(ChebPoly((0, 1)), 3) and hash(q) == hash(QDimElement(ChebPoly((0, 1)), 3))
    assert q != QDimElement(cheb_u(1), 4) and q != QDimElement(ONE, 3)
    assert q != (q.residue, q.level) and q.__eq__((q.residue, q.level)) is NotImplemented
    assert len({q, QDimElement(cheb_u(1), 3), QDimElement(ONE, 3)}) == 2


def test_qdim_element_repr_and_copies():
    import copy
    import pickle

    q = qdim_index(1, 20)
    assert repr(q) == "QDimElement(residue=ChebPoly([0, 1]), level=20)"
    assert str(q) == str(q.residue)
    for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert twin == q and type(twin) is QDimElement


@pytest.mark.parametrize(
    "residue, level, message",
    [
        (ONE, 0, "level must be >= 1, got 0"),
        (ONE, 2.0, "level must be an integer, got 2.0"),
        ((1,), 2, "residue must be a ChebPoly, got (1,)"),
        (cheb_u(5), 2, "residue not reduced"),
    ],
)
def test_qdim_element_constructor_checks(residue, level, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QDimElement(residue, level)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # only the modules the import adds: some interpreters load inspect at startup, before orbifusion
    code = (
        "import sys; before = set(sys.modules); import orbifusion.cli; "
        "loaded = {'click', 'dataclasses', 'inspect'} & (set(sys.modules) - before); assert not loaded, loaded"
    )
    _run_python(code)
