"""Each suite reports the same failures run with every other suite as run alone.

Run after ``oracle`` passes on the same table, ``assoc`` proves
associativity from the coordinate rule's factors; run after ``comm`` and
``assoc`` pass, ``dual`` proves (i) from (ii) and (iii), and ``qdim`` its
identity from the rows of the vacuum and of the generators.  Run alone,
``assoc`` checks the generators' triples and the other two every row.
Each seeded fault of ``test_mutations`` is installed at k = 2, 3 and 8, and
each suite's failures in ``run_suites(list(SUITES), k)`` are compared with
its failures in ``run_suites([name], k)``.
"""

import pytest

import orbifusion.verify as verify_mod
from orbifusion.verify import SUITES, run_suites
from orbifusion.weights import conformal_weight
from test_mutations import FAULTS, MOVED, MOVES, SECOND_FUSION_FAULTS


def _weights_moved(tokens, move):
    """A fault that moves the weight of each label ``tokens(k)`` names by ``MOVES[move]``."""

    def install(monkeypatch, k):
        moved, shift = tokens(k), MOVES[move](k)

        def weight(lab, k):
            return conformal_weight(lab, k) + (shift if lab.token() in moved else 0)

        monkeypatch.setattr(verify_mod, "conformal_weight", weight)

    return install


# Every fault class of the mutation table, each weight row with a move of its own.
INSTALLS = {
    **{fault: install for fault, (install, _) in FAULTS.items()},
    **{f"{fault}, second target": install for fault, (install, _) in SECOND_FUSION_FAULTS.items()},
    **{f"{moved} moved by {move}": _weights_moved(MOVED[moved][0], move) for moved, move in zip(MOVED, MOVES)},
}


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("fault", INSTALLS)
def test_each_suite_fails_alike_run_together_or_alone(monkeypatch, k, fault):
    INSTALLS[fault](monkeypatch, k)
    together = run_suites(list(SUITES), k)
    assert not all(report.passed for report in together)
    for report in together:
        alone = run_suites([report.suite], k)[0]
        assert report.failures == alone.failures, report.suite
