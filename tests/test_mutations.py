"""Seeded faults in the functions ``run_suites`` verifies, and the suites that catch them.

Each case substitutes one of ``verify``'s functions with the honest one
plus one seeded change and asserts which suites fail.

* Fusion, dual and quantum-dimension faults: the exact set of suites that
  fail, at k = 2, 3 and 8, so a suite that stops catching a fault, or
  starts failing for another reason, is seen.
* Weight faults that no suite catches yet: each is a strict ``xfail``, so
  a suite that starts catching one turns it into an unexpected pass, which
  fails the run until the mark is removed.
"""

from fractions import Fraction

import pytest

import orbifusion.verify as verify_mod
from orbifusion.fusion import contragredient, fuse_irreducible
from orbifusion.labels import FusionVector, parse_label
from orbifusion.qdim import qdim_exact, qdim_index
from orbifusion.verify import SUITES, run_suites
from orbifusion.weights import conformal_weight

LEVELS = (2, 3, 8)

# quoted from the FOUND line under "Measurements" in ROADMAP.md
UNCHECKED_WEIGHTS = (
    "FOUND: the untwisted weights are unchecked above k=1. At k = 2, 3, 8 and 37, take one self-dual "
    "untwisted label u:i:j with i > 0, and move its weight by 1/36, by 1/(4(k+2)) or by 1. Every suite of "
    "`verify --level k` still passes in every case tried. [...] The paired-swap FOUND swaps the weights of "
    "t1:i:1 and t1:i:2, and those of their duals; `verify` passes at k = 2, 3 and 8."
)


def _failing_suites(k):
    """Names of the suites of ``verify --level k`` (all but the level-1 oracle) that fail."""
    names = [name for name in SUITES if name != "oracle"]
    return {report.suite for report in run_suites(names, k) if not report.passed}


def _suites_failing_with(monkeypatch, k, change):
    """Names of the suites that fail at ``k`` when ``change(token, weight, k)`` gives each label's weight."""
    monkeypatch.setattr(verify_mod, "conformal_weight", lambda lab, k: change(lab.token(), conformal_weight(lab, k), k))
    return _failing_suites(k)


def _outputs_changed(change):
    """A fault that rewrites the items of u:1:0 x u:1:0 (outputs u:0:j and u:2:j') by ``change(items)``."""

    def install(monkeypatch, k):
        square = parse_label("u:1:0", k)

        def fuse(a, b, k):
            product = fuse_irreducible(a, b, k)
            return FusionVector(change(list(product.items()))) if a == b == square else product

        monkeypatch.setattr(verify_mod, "fuse_irreducible", fuse)

    return install


def _operand(items):
    """u:1:0, from the first output u:0:j of its square: no output of it, since its i has the wrong parity."""
    return items[0][0]._replace(i=1, j=0)


def _duals_swapped(monkeypatch, k):
    """u:1:0 takes the dual of u:1:2 (itself) and u:1:2 that of u:1:0 (u:1:1): no longer an involution."""
    a, b = parse_label("u:1:0", k), parse_label("u:1:2", k)
    swapped = {a: contragredient(b, k), b: contragredient(a, k)}
    monkeypatch.setattr(verify_mod, "contragredient", lambda lab, k: swapped.get(lab) or contragredient(lab, k))


def _qdim_of_another_index(monkeypatch, k):
    """u:1:0 takes the quantum dimension of index 0, which is 1."""
    moved = parse_label("u:1:0", k)
    monkeypatch.setattr(verify_mod, "qdim_exact", lambda lab, k: qdim_index(0, k) if lab == moved else qdim_exact(lab, k))


# Each fault with the exact set of suites that fail on it, the same at k = 2, 3 and 8.  No suite
# reads a label's qdim through its j, so a moved j is caught by assoc and dual alone.
FAULTS = {
    "drop one output": (_outputs_changed(lambda items: items[:-1]), {"assoc", "dual", "qdim"}),
    "double one output": (_outputs_changed(lambda items: [(items[0][0], 2), *items[1:]]), {"assoc", "dual", "qdim"}),
    "add one output": (_outputs_changed(lambda items: [*items, (_operand(items), 1)]), {"assoc", "dual", "qdim"}),
    "replace one output": (_outputs_changed(lambda items: [(_operand(items), 1), *items[1:]]), {"assoc", "dual", "qdim"}),
    "move one output's j": (
        _outputs_changed(lambda items: [(items[0][0]._replace(j=(items[0][0].j + 1) % 3), 1), *items[1:]]),
        {"assoc", "dual"},
    ),
    "swap two labels' duals": (_duals_swapped, {"dual"}),
    "give one label another index's qdim": (_qdim_of_another_index, {"dual", "qdim"}),
}


@pytest.mark.parametrize("k", LEVELS)
def test_the_honest_functions_fail_no_suite(k):
    assert _failing_suites(k) == set()


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_seeded_fault_fails_exactly_its_suites(monkeypatch, k, fault):
    install, expected = FAULTS[fault]
    install(monkeypatch, k)
    assert _failing_suites(k) == expected


def _twins(k):
    """t1:1:1 and t1:1:2, and their duals t2:k-1:1 and t2:k-1:2, each mapped to the other of its pair."""
    return {"t1:1:1": "t1:1:2", "t1:1:2": "t1:1:1", f"t2:{k - 1}:1": f"t2:{k - 1}:2", f"t2:{k - 1}:2": f"t2:{k - 1}:1"}


def _paired_swap(token, weight, k):
    """The weights of each pair of :func:`_twins` swapped."""
    twin = _twins(k).get(token)
    return weight if twin is None else conformal_weight(parse_label(twin, k), k)


@pytest.mark.parametrize("k", LEVELS)
def test_the_seeded_faults_change_weights_and_keep_duals(k):
    # so that each xfail below stands for a real fault the suites miss
    for token, twin in _twins(k).items():
        a, b = parse_label(token, k), parse_label(twin, k)
        assert conformal_weight(a, k) != conformal_weight(b, k)
        assert contragredient(a, k).token() in _twins(k)
    u12 = parse_label("u:1:2", k)
    assert contragredient(u12, k) == u12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=UNCHECKED_WEIGHTS)
@pytest.mark.parametrize("k", LEVELS)
def test_a_paired_weight_swap_fails_some_suite(monkeypatch, k):
    assert _suites_failing_with(monkeypatch, k, _paired_swap)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=UNCHECKED_WEIGHTS)
@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("move", ["1/36", "1/(4(k+2))", "1"])
def test_a_moved_self_dual_untwisted_weight_fails_some_suite(monkeypatch, k, move):
    shift = {"1/36": Fraction(1, 36), "1/(4(k+2))": Fraction(1, 4 * (k + 2)), "1": Fraction(1)}[move]
    assert _suites_failing_with(monkeypatch, k, lambda token, weight, k: weight + shift if token == "u:1:2" else weight)
