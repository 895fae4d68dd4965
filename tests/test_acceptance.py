"""Acceptance criteria for the catalog artifact, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Tolerances are stated inline: weight and residue checks are
exact (zero tolerance); numeric cross-checks use 1e-9; runtime bounds are
asserted with ``time.perf_counter``.
"""

import json
import time
from fractions import Fraction as F

import mpmath

from orbifusion.chebyshev import ChebPoly
from orbifusion.labels import Sector, enumerate_irreducibles, make_label, vacuum
from orbifusion.weights import conformal_weight
from orbifusion.qdim import global_dimension, has_unit_qdim, qdim_exact, qdim_numeric
from orbifusion.fusion import contragredient, fuse_irreducible
from orbifusion.verify import _FusionTable, run_suites

TABLE1_FRACTIONS = [
    F(0), F(1), F(1), F(1, 4), F(1, 4), F(9, 4),
    F(1, 36), F(49, 36), F(25, 36), F(1, 9), F(4, 9), F(16, 9),
    F(1, 9), F(4, 9), F(16, 9), F(1, 36), F(49, 36), F(25, 36),
]


def test_criterion_1_level1_weight_table_exact(invoke):
    """All 18 level-1 weights, bit-exact, via the CLI catalog; < 1 s."""
    start = time.perf_counter()
    result = invoke("catalog", "--level", "1")
    assert result.exit_code == 0
    emitted = [row["weight"] for row in json.loads(result.stdout)["modules"].values()]
    assert [F(w) for w in emitted] == TABLE1_FRACTIONS
    # and directly from the library, same order, exact Fractions
    direct = [conformal_weight(lab, 1) for lab in enumerate_irreducibles(1)]
    assert direct == TABLE1_FRACTIONS
    assert time.perf_counter() - start < 1.0


def test_criterion_2_twisted_weight_rows_above_level_one():
    """T1/T2 rows for k in {2,3,5}, all i and j, exact; < 1 s."""
    start = time.perf_counter()
    for k in (2, 3, 5):
        # special rows: T1 at i=0 and T2 at i=k share the boundary offsets
        boundary = (F(k, 36), F(k + 48, 36), F(k + 24, 36))
        for j in range(3):
            assert conformal_weight(make_label(Sector.T1, 0, j, k), k) == boundary[j]
            assert conformal_weight(make_label(Sector.T2, k, j, k), k) == boundary[j]
        # generic T1 rows, 0 < i <= k
        for i in range(1, k + 1):
            for j in range(3):
                expected = F(i * (i + 2), 4 * (k + 2)) + F(k - 6 * i + 12 * j, 36)
                assert conformal_weight(make_label(Sector.T1, i, j, k), k) == expected
        # generic T2 rows, 0 <= i < k
        for i in range(k):
            for j in range(3):
                expected = F(i * (i + 2), 4 * (k + 2)) + F(k - 3 * i + 3 * j, 9)
                assert conformal_weight(make_label(Sector.T2, i, j, k), k) == expected
    assert time.perf_counter() - start < 1.0


def test_criterion_3_catalog_count():
    """Exactly 9(k+1) distinct labels for k = 1..20; < 1 s."""
    start = time.perf_counter()
    for k in range(1, 21):
        labels = enumerate_irreducibles(k)
        assert len(labels) == 9 * (k + 1)
        assert len(set(labels)) == len(labels)
    assert time.perf_counter() - start < 1.0


# The level-1 catalog inside a rank-one lattice theory: label token -> lattice coset s, with
# fusion s + t, dual -s and weight s^2/36 (mod 1), all modulo 18.
Z18 = {
    "u:0:0": 0, "t1:0:0": 1, "t2:0:0": 2, "u:1:1": 3, "t1:1:1": 4, "t2:1:2": 5,
    "u:0:1": 6, "t1:0:1": 7, "t2:0:2": 8, "u:1:2": 9, "t1:1:2": 10, "t2:1:1": 11,
    "u:0:2": 12, "t1:0:2": 13, "t2:0:1": 14, "u:1:0": 15, "t1:1:0": 16, "t2:1:0": 17,
}


def test_criterion_4_level1_lattice_oracle():
    """324 fusions + 18 duals + 18 weights against the Z/18 model, read
    from the public functions; < 1 s."""
    start = time.perf_counter()
    assert sorted(Z18.values()) == list(range(18))
    labels = enumerate_irreducibles(1)
    coset = {lab: Z18[lab.token()] for lab in labels}
    checks = 0
    for a in labels:
        for b in labels:
            checks += 1
            assert [(coset[c], m) for c, m in fuse_irreducible(a, b, 1).items()] == [((coset[a] + coset[b]) % 18, 1)]
    for lab, s in coset.items():
        checks += 2
        assert coset[contragredient(lab, 1)] == -s % 18
        assert (conformal_weight(lab, 1) - F(s * s, 36)) % 1 == 0
    assert checks == 324 + 18 + 18
    assert time.perf_counter() - start < 1.0


def test_criterion_5_ring_axioms(associative_by_sweep, table_rows):
    """Unit/commutativity/duality exhaustive for k <= 12, associativity for
    k <= 6 and confirmed there by the cubic sweep; zero failures; the k=6
    suite finishes in < 60 s."""
    for k in range(1, 13):
        labels = enumerate_irreducibles(k)
        n = len(labels)
        outputs = sum(len(fuse_irreducible(a, b, k)) for a in labels for b in labels)
        expected = {"unit": n, "comm": n * (n + 1) // 2, "dual": 3 * n + n * n + outputs}
        for report in run_suites(list(expected), k):
            assert report.passed, (report.suite, k, [f.render() for f in report.failures[:5]])
            assert report.checks_run == expected[report.suite]  # every label, pair or product output
    for k in range(1, 7):
        report = run_suites(["assoc"], k)[0]
        assert report.passed, (k, [f.render() for f in report.failures[:5]])
        assert associative_by_sweep(table_rows(_FusionTable(k)))
        if k == 6:
            assert report.elapsed < 60.0


def test_criterion_6_qdim_homomorphism_exact():
    """qdim(A)qdim(B) = sum of qdim over A x B as exact residues, all pairs,
    k <= 12, zero tolerance; < 10 s total."""
    start = time.perf_counter()
    for k in range(1, 13):
        report = run_suites(["qdim"], k)[0]
        assert report.passed, (k, [f.render() for f in report.failures[:5]])
        assert report.checks_run == (9 * (k + 1)) ** 2
    assert time.perf_counter() - start < 10.0


def test_criterion_7_global_dimension():
    """glob(1) = 18 exactly and numerically (1e-9); formula vs direct label
    sum to 1e-9 for k <= 8."""
    exact, numeric = global_dimension(1)
    assert exact.residue == ChebPoly((18,))
    assert abs(numeric - 18) < mpmath.mpf(10) ** -9
    for k in range(1, 9):
        _, formula = global_dimension(k)
        with mpmath.workdps(30):
            direct = mpmath.fsum(
                qdim_numeric(lab, k, 25) ** 2 for lab in enumerate_irreducibles(k)
            )
        assert abs(formula - direct) < mpmath.mpf(10) ** -9


def test_criterion_8_simple_current_predicate():
    """has_unit_qdim true for all 18 labels at k=1 and exactly for
    i in {0, k} up to k = 12 (exact residue comparison)."""
    assert all(has_unit_qdim(lab, 1) for lab in enumerate_irreducibles(1))
    for k in range(1, 13):
        for lab in enumerate_irreducibles(k):
            assert has_unit_qdim(lab, k) == (lab.i in (0, k))


def test_criterion_9_duality_invariants():
    """Dual is an involution preserving weight and qdim exactly, k <= 12."""
    for k in range(1, 13):
        for lab in enumerate_irreducibles(k):
            dual = contragredient(lab, k)
            assert contragredient(dual, k) == lab
            assert conformal_weight(dual, k) == conformal_weight(lab, k)
            assert qdim_exact(dual, k) == qdim_exact(lab, k)
        assert contragredient(vacuum(k), k) == vacuum(k)
