"""Seeded weight faults that no suite of ``run_suites`` catches yet.

Each case substitutes ``verify.conformal_weight`` with the honest weights
plus one seeded change and asserts that at least one suite fails.  Every
case here is a known gap, so each is a strict ``xfail``: a suite that starts
catching it turns the case into an unexpected pass, which fails the run
until the mark is removed.
"""

from fractions import Fraction

import pytest

import orbifusion.verify as verify_mod
from orbifusion.fusion import contragredient
from orbifusion.labels import parse_label
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


def _suites_failing_with(monkeypatch, k, change):
    """Names of the suites that fail at ``k`` when ``change(token, weight, k)`` gives each label's weight."""
    monkeypatch.setattr(verify_mod, "conformal_weight", lambda lab, k: change(lab.token(), conformal_weight(lab, k), k))
    names = [name for name in SUITES if name != "oracle"]
    return [report.suite for report in run_suites(names, k) if not report.passed]


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
