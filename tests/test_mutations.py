"""Seeded faults in the functions ``run_suites`` verifies, and the suites that catch them.

Each case substitutes one of ``verify``'s functions with the honest one
plus one seeded change and asserts which suites fail.

* Fusion, dual and quantum-dimension faults: the exact set of suites that
  fail, at k = 2, 3, 8 and 37, so a suite that stops catching a fault, or
  starts failing for another reason, is seen.  Each also has a second
  target, on other labels, checked the same way at the same levels.  Every
  fusion and dual fault fails ``oracle``, which checks each product and
  each dual against the coordinate rule, and every qdim fault fails
  ``catalog``, which checks that a qdim is 1 exactly when i is 0 or k.
* Weight faults: the exact set of suites that fail, at k = 2, 3, 8 and 37.
  Every one fails ``catalog``, which builds each weight without
  ``conformal_weight``.  ``dual`` sees only a label whose weight moves
  apart from its dual's, so a paired swap, a move of a self-dual label or
  of a dual pair together fails ``catalog`` alone.
"""

from fractions import Fraction

import pytest

import orbifusion.verify as verify_mod
from orbifusion.fusion import contragredient, fuse_irreducible
from orbifusion.labels import FusionVector, parse_label
from orbifusion.qdim import qdim_exact, qdim_index
from orbifusion.verify import SUITES, run_suites
from orbifusion.weights import conformal_weight

LEVELS = (2, 3, 8, 37)


def _failing_suites(k):
    """Names of the suites of ``verify --level k``, every suite of ``SUITES``, that fail."""
    return {report.suite for report in run_suites(list(SUITES), k) if not report.passed}


def _suites_failing_with(monkeypatch, k, change):
    """Names of the suites that fail at ``k`` when ``change(token, weight, k)`` gives each label's weight."""
    monkeypatch.setattr(verify_mod, "conformal_weight", lambda lab, k: change(lab.token(), conformal_weight(lab, k), k))
    return _failing_suites(k)


# Each fusion fault as a change to a product's items, given the label an added or replacing output takes.
CHANGES = {
    "drop one output": lambda items, new: items[:-1],
    "double one output": lambda items, new: [(items[0][0], 2), *items[1:]],
    "add one output": lambda items, new: [*items, (new, 1)],
    "replace one output": lambda items, new: [(new, 1), *items[1:]],
    "move one output's j": lambda items, new: [(items[0][0]._replace(j=(items[0][0].j + 1) % 3), 1), *items[1:]],
}


def _outputs_changed(fault, pair, stranger):
    """A fault that rewrites the items of the ordered product ``pair`` (two tokens) by ``CHANGES[fault]``.

    An added or replacing output is ``stranger(items)``, a label that is no output of the product.
    """

    def install(monkeypatch, k):
        target = tuple(parse_label(token, k) for token in pair)
        change = CHANGES[fault]

        def fuse(a, b, k):
            product = fuse_irreducible(a, b, k)
            if (a, b) != target:
                return product
            items = list(product.items())
            return FusionVector(change(items, stranger(items)))

        monkeypatch.setattr(verify_mod, "fuse_irreducible", fuse)

    return install


def _operand(items):
    """u:1:0, from the first output u:0:j of its square: no output of it, since its i has the wrong parity."""
    return items[0][0]._replace(i=1, j=0)


def _i_moved(items):
    """The first output with its i moved up by one: no output of the product, since its i has the wrong parity."""
    return items[0][0]._replace(i=items[0][0].i + 1)


def _duals_swapped(x, y):
    """A fault that gives ``x`` the dual of ``y`` and ``y`` that of ``x``: no longer an involution."""

    def install(monkeypatch, k):
        a, b = parse_label(x, k), parse_label(y, k)
        swapped = {a: contragredient(b, k), b: contragredient(a, k)}
        monkeypatch.setattr(verify_mod, "contragredient", lambda lab, k: swapped.get(lab) or contragredient(lab, k))

    return install


def _qdim_of_index_0(token):
    """A fault that gives ``token`` the quantum dimension of index 0, which is 1."""

    def install(monkeypatch, k):
        moved = parse_label(token, k)
        monkeypatch.setattr(verify_mod, "qdim_exact", lambda lab, k: qdim_index(0, k) if lab == moved else qdim_exact(lab, k))

    return install


# Each fault with the exact set of suites that fail on it, the same at every level of LEVELS.  The
# fusion faults rewrite u:1:0 x u:1:0 (outputs u:0:j and u:2:j').  No suite reads a label's qdim
# through its j, so a moved j is caught by assoc, dual and oracle alone.  u:1:2 is its own dual.
FUSION_FAULTS = {
    fault: (_outputs_changed(fault, ("u:1:0", "u:1:0"), _operand), suites)
    for fault, suites in {
        "drop one output": {"assoc", "dual", "qdim", "oracle"},
        "double one output": {"assoc", "dual", "qdim", "oracle"},
        "add one output": {"assoc", "dual", "qdim", "oracle"},
        "replace one output": {"assoc", "dual", "qdim", "oracle"},
        "move one output's j": {"assoc", "dual", "oracle"},
    }.items()
}
FAULTS = {
    **FUSION_FAULTS,
    "swap two labels' duals": (_duals_swapped("u:1:0", "u:1:2"), {"dual", "oracle"}),
    "give one label another index's qdim": (_qdim_of_index_0("u:1:0"), {"catalog", "dual", "qdim"}),
}

SECOND_LEVELS = (2, 3, 8, 37)

# A second target for each fault, with the suites that fail on it at every level of SECOND_LEVELS
# but those SECOND_EXCEPTIONS names.  The fusion faults rewrite t1:1:0 x t2:1:0, a wrap, in that
# order only, so comm fails too.
SECOND_FUSION_FAULTS = {
    fault: (_outputs_changed(fault, ("t1:1:0", "t2:1:0"), _i_moved), suites)
    for fault, suites in {
        "drop one output": {"assoc", "comm", "dual", "qdim", "oracle"},
        "double one output": {"assoc", "comm", "dual", "qdim", "oracle"},
        "add one output": {"assoc", "comm", "dual", "qdim", "oracle"},
        "replace one output": {"assoc", "comm", "dual", "qdim", "oracle"},
        "move one output's j": {"assoc", "comm", "dual", "oracle"},
    }.items()
}
SECOND_TARGETS = {
    **SECOND_FUSION_FAULTS,
    "swap two labels' duals": (_duals_swapped("t1:1:0", "t1:1:1"), {"dual", "oracle"}),
    "give one label another index's qdim": (_qdim_of_index_0("t2:1:2"), {"catalog", "dual", "qdim"}),
}
# At k=3 the replacing output u:2:j has the qdim of the u:1:j it replaces, so qdim passes there.
SECOND_EXCEPTIONS = {("replace one output", 3): {"assoc", "comm", "dual", "oracle"}}


@pytest.mark.parametrize("k", LEVELS)
def test_the_honest_functions_fail_no_suite(k):
    assert _failing_suites(k) == set()


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_seeded_fault_fails_exactly_its_suites(monkeypatch, k, fault):
    install, expected = FAULTS[fault]
    install(monkeypatch, k)
    assert _failing_suites(k) == expected


@pytest.mark.parametrize("k", SECOND_LEVELS)
@pytest.mark.parametrize("fault", SECOND_TARGETS)
def test_a_second_target_of_each_fault_fails_exactly_its_suites(monkeypatch, k, fault):
    install, expected = SECOND_TARGETS[fault]
    install(monkeypatch, k)
    assert _failing_suites(k) == SECOND_EXCEPTIONS.get((fault, k), expected)


@pytest.mark.parametrize("k", [*range(1, 9), 20])
@pytest.mark.parametrize("fault", FUSION_FAULTS)
def test_a_fusion_fault_leaves_one_id_per_product(monkeypatch, k, fault):
    # the changed fuse_irreducible goes through the table's lookup by vector, as an honest one does
    FUSION_FAULTS[fault][0](monkeypatch, k)
    _assert_one_id_per_product(k)


@pytest.mark.parametrize("k", SECOND_LEVELS)
@pytest.mark.parametrize("fault", SECOND_FUSION_FAULTS)
def test_a_second_fusion_target_leaves_one_id_per_product(monkeypatch, k, fault):
    SECOND_FUSION_FAULTS[fault][0](monkeypatch, k)
    _assert_one_id_per_product(k)


def _assert_one_id_per_product(k):
    table = verify_mod._FusionTable(k)
    table.ids()
    assert len(set(table.outputs)) == len(table.outputs)


def _twins(k):
    """t1:1:1 and t1:1:2, and their duals t2:k-1:1 and t2:k-1:2, each mapped to the other of its pair."""
    return {"t1:1:1": "t1:1:2", "t1:1:2": "t1:1:1", f"t2:{k - 1}:1": f"t2:{k - 1}:2", f"t2:{k - 1}:2": f"t2:{k - 1}:1"}


def _paired_swap(token, weight, k):
    """The weights of each pair of :func:`_twins` swapped."""
    twin = _twins(k).get(token)
    return weight if twin is None else conformal_weight(parse_label(twin, k), k)


@pytest.mark.parametrize("k", LEVELS)
def test_the_seeded_faults_change_weights_and_keep_duals(k):
    # so that each swap below is a real change, and one that keeps every weight equal to its dual's
    for token, twin in _twins(k).items():
        a, b = parse_label(token, k), parse_label(twin, k)
        assert conformal_weight(a, k) != conformal_weight(b, k)
        assert contragredient(a, k).token() in _twins(k)
    u12 = parse_label("u:1:2", k)
    assert contragredient(u12, k) == u12


@pytest.mark.parametrize("k", LEVELS)
def test_a_paired_weight_swap_fails_exactly_catalog(monkeypatch, k):
    assert _suites_failing_with(monkeypatch, k, _paired_swap) == {"catalog"}


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("move", ["1/36", "1/(4(k+2))", "1"])
def test_a_moved_self_dual_untwisted_weight_fails_exactly_catalog(monkeypatch, k, move):
    shift = {"1/36": Fraction(1, 36), "1/(4(k+2))": Fraction(1, 4 * (k + 2)), "1": Fraction(1)}[move]
    changed = _suites_failing_with(monkeypatch, k, lambda token, weight, k: weight + shift if token == "u:1:2" else weight)
    assert changed == {"catalog"}


# One weight move, by its size as a function of the level.
MOVES = {
    "+1/36": lambda k: Fraction(1, 36),
    "-1/36": lambda k: Fraction(-1, 36),
    "+1/(4(k+2))": lambda k: Fraction(1, 4 * (k + 2)),
    "-1/(4(k+2))": lambda k: Fraction(-1, 4 * (k + 2)),
    "+1": lambda k: Fraction(1),
    "-1": lambda k: Fraction(-1),
}

# The labels each weight fault moves together, and the suites that fail on every move of them.  Every
# move breaks catalog's construction; a twisted label alone also breaks dual's weight check, and a
# dual pair moved together does not.
MOVED = {
    "t1:1:0": (lambda k: ("t1:1:0",), {"catalog", "dual"}),
    "t1:1:1": (lambda k: ("t1:1:1",), {"catalog", "dual"}),
    "t1:1:0 with its dual t2:k-1:0": (lambda k: ("t1:1:0", f"t2:{k - 1}:0"), {"catalog"}),
    "t1:1:1 with its dual t2:k-1:1": (lambda k: ("t1:1:1", f"t2:{k - 1}:1"), {"catalog"}),
    "u:1:0 with its dual u:1:1": (lambda k: ("u:1:0", "u:1:1"), {"catalog"}),
}


@pytest.mark.parametrize("k, moved, move", [(k, moved, move) for k in LEVELS for moved in MOVED for move in MOVES])
def test_a_moved_weight_fails_exactly_its_suites(monkeypatch, k, moved, move):
    (tokens, suites), shift = MOVED[moved], MOVES[move](k)
    changed = _suites_failing_with(monkeypatch, k, lambda token, weight, k: weight + shift if token in tokens(k) else weight)
    assert changed == suites


def test_the_moved_pairs_are_dual_pairs():
    # so that dual (iii), which compares the two weights of each pair, cannot see a pair moved together
    for k in LEVELS:
        for moved, (tokens, _) in MOVED.items():
            labels = [parse_label(token, k) for token in tokens(k)]
            if len(labels) == 2:
                assert contragredient(labels[0], k) == labels[1], moved
