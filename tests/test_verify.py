import copy
import itertools
import random
import sys
from fractions import Fraction

import pytest

import orbifusion.verify as verify_mod
from orbifusion.fusion import contragredient, fuse_irreducible
from orbifusion.labels import FusionVector, IrrLabel, Sector, check_level, enumerate_irreducibles, parse_label, vacuum
from orbifusion.qdim import qdim_index
from orbifusion.verify import SUITES, Failure, run_suites


def test_oracle_suite_passes_with_full_check_count():
    for k in (*range(1, 13), 20):
        report = run_suites(["oracle"], k)[0]
        assert report.passed, (k, [f.render() for f in report.failures[:5]])
        n = 9 * (k + 1)
        assert report.checks_run == n * n + n  # every product, then every dual
        assert report.level == k


def _grade(k, r, i, lam):
    """36(k+2) times the sigma^r-twisted grade of the weight-lam space of L(k, i), as the construction gives it."""
    return 9 * i * (i + 2) + (k + 2) * (36 * verify_mod._least_depth(k, i, lam) - 6 * r * lam + r * r * k)


@pytest.mark.parametrize("k", range(1, 21))
def test_the_spectral_flow_of_the_oracle_is_the_constructions_grading(k):
    # at r = 3 the grading of (i, lam) is the untwisted grading of (k - i, lam - k), for every lam
    for i in range(k + 1):
        reach = 2 * k + 12 + i
        for lam in range(-reach, reach + 1, 2):
            assert _grade(k, 3, i, lam) == _grade(k, 0, k - i, lam - k), (i, lam)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_unit_suite(k):
    report = run_suites(["unit"], k)[0]
    assert report.passed
    assert report.checks_run == 9 * (k + 1)


@pytest.mark.parametrize("k", [1, 3])
def test_commutativity_suite_exhaustive(k):
    report = run_suites(["comm"], k)[0]
    assert report.passed
    n = 9 * (k + 1)
    assert report.checks_run == n * (n + 1) // 2


def test_commutativity_suite_exhaustive_at_level_13():
    report = run_suites(["comm"], 13)[0]
    assert report.passed
    assert report.checks_run == 126 * 127 // 2


@pytest.mark.parametrize("k", [1, 2, 4])
def test_associativity_suite_exhaustive(k):
    report = run_suites(["assoc"], k)[0]
    assert report.passed
    n = 9 * (k + 1)
    assert report.checks_run == n + 3 * n * n  # left unit, then three generators


def test_associativity_suite_exhaustive_at_level_9():
    report = run_suites(["assoc"], 9)[0]
    assert report.passed
    assert report.checks_run == 90 + 3 * 90 * 90


@pytest.mark.parametrize("k", [1, 3, 6])
def test_duality_suite(k):
    report = run_suites(["dual"], k)[0]
    assert report.passed
    # 3 invariance checks per label, then per ordered pair one vacuum check
    # plus one identity instance per product output
    assert report.checks_run >= 3 * 9 * (k + 1) + (9 * (k + 1)) ** 2


@pytest.mark.parametrize("k", [1, 4, 7])
def test_qdim_homomorphism_suite(k):
    report = run_suites(["qdim"], k)[0]
    assert report.passed
    assert report.checks_run == (9 * (k + 1)) ** 2


@pytest.mark.parametrize("k", [1, 2, 12])
def test_catalog_suite(k):
    report = run_suites(["catalog"], k)[0]
    assert report.passed
    assert report.checks_run == 2 + 18 * (k + 1)  # then one weight and one simple-current check per label


def test_run_suites_all_order_and_levels():
    reports = run_suites(["catalog", "unit", "comm", "assoc", "dual", "qdim", "oracle"], 1)
    assert [r.suite for r in reports] == ["catalog", "unit", "comm", "assoc", "dual", "qdim", "oracle"]
    assert all(r.passed for r in reports)


def test_run_suites_runs_the_oracle_at_level_two(fuse_calls):
    # a bad level is named as such, before any suite runs
    with pytest.raises(ValueError, match=r"^level must be an integer, got 2\.0$"):
        run_suites(["oracle"], 2.0)
    with pytest.raises(ValueError, match="^level must be >= 1, got 0$"):
        run_suites(["oracle"], 0)
    assert fuse_calls == []
    assert run_suites(["oracle"], 2)[0].passed
    assert [(r.suite, r.passed) for r in run_suites(["comm", "oracle"], 2)] == [("comm", True), ("oracle", True)]


def test_summary_line_shape():
    report = run_suites(["unit"], 2)[0]
    line = report.summary()
    assert "suite=unit" in line and "level=2" in line and line.endswith("PASS")


def _broken_fuse(a, b, k):
    # deliberately wrong: drop every label with j == 2 from the product
    from orbifusion.fusion import fuse_irreducible

    honest = fuse_irreducible(a, b, k)
    return FusionVector((lab, m) for lab, m in honest.items() if lab.j != 2)


def test_failures_are_reported_with_labels(monkeypatch):
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _broken_fuse)
    report = run_suites(["unit"], 1)[0]
    assert not report.passed
    assert len(report.failures) == 6  # the six j=2 labels vanish from vacuum products
    rendered = report.failures[0].render()
    assert "expected" in rendered and "labels:" in rendered
    summary = report.summary()
    assert summary.endswith("FAIL (6 failures)")


def test_oracle_catches_broken_duality(monkeypatch):
    monkeypatch.setattr(verify_mod, "contragredient", lambda lab, k: lab)
    report = run_suites(["oracle"], 1)[0]
    assert not report.passed
    # the self-dual labels u:0:0 and u:1:2 still pass; the other 16 fail
    assert len(report.failures) == 16
    lab = parse_label("u:0:1", 1)  # (0, 0, -2), whose dual (0, 0, 2) is u:0:2
    assert report.failures[0] == Failure("dual of u:0:1 is u:0:1, the coordinate rule gives u:0:2", (lab,))


def test_associativity_generators_at_level_9():
    table = verify_mod._FusionTable(9)
    gens = verify_mod._generators(table.ids(), table.outputs, table.index[vacuum(9)])
    assert [table.labels[g].token() for g in gens] == ["u:0:1", "u:1:0", "t1:0:0"]


def test_catalog_suite_counts_simple_current_checks_at_level_one():
    report = run_suites(["catalog"], 1)[0]
    # 2 structural + 18 weights + 18 simple-current
    assert report.checks_run == 2 + 18 + 18


def _weights_with(changes):
    """Honest conformal weights, except that the weight of each token in ``changes`` goes through its change."""
    from orbifusion.weights import conformal_weight

    def weight(lab, k):
        w = conformal_weight(lab, k)
        change = changes.get(lab.token())
        return w if change is None else change(w)

    return weight


@pytest.mark.parametrize(
    "change, want",
    [
        (lambda labels: labels[:-1], "catalog has 17 labels, expected 18"),
        (lambda labels: [*labels[:-1], labels[0]], "catalog contains duplicate labels"),
    ],
)
def test_catalog_reports_a_wrong_label_list(monkeypatch, change, want):
    honest = verify_mod.enumerate_irreducibles
    monkeypatch.setattr(verify_mod, "enumerate_irreducibles", lambda k: change(honest(k)))
    report = run_suites(["catalog"], 1)[0]
    assert report.failures == [Failure(want, ())]


@pytest.mark.parametrize(
    "token, change, want",
    [
        ("u:1:0", lambda w: Fraction(-3, 16), "weight(u:1:0) = -3/16, the construction gives 3/16"),
        ("u:1:0", lambda w: Fraction(0), "weight(u:1:0) = 0, the construction gives 3/16"),
        ("u:0:0", lambda w: Fraction(1, 8), "weight(u:0:0) = 1/8, the construction gives 0"),
        ("t2:2:1", lambda w: w + 1, "weight(t2:2:1) = 43/18, the construction gives 25/18"),
        ("t1:1:0", lambda w: w + 1, "weight(t1:1:0) = 155/144, the construction gives 11/144"),
    ],
    ids=["negative", "zero off the vacuum", "vacuum not zero", "twisted pairing", "t1 base weight"],
)
def test_catalog_reports_a_weight_off_the_construction(monkeypatch, token, change, want):
    monkeypatch.setattr(verify_mod, "conformal_weight", _weights_with({token: change}))
    report = run_suites(["catalog"], 2)[0]
    assert report.failures == [Failure(want, (parse_label(token, 2),))]


def _qdim_with(token, change):
    """Honest quantum dimensions, except that the one of ``token`` goes through ``change``."""
    from orbifusion.qdim import qdim_exact

    def qdim(lab, k):
        q = qdim_exact(lab, k)
        return change(q) if lab.token() == token else q

    return qdim


def test_catalog_reports_a_label_that_is_no_simple_current_at_level_one(monkeypatch):
    lab = parse_label("t2:1:0", 1)
    monkeypatch.setattr(verify_mod, "qdim_exact", _qdim_with("t2:1:0", lambda q: q + q))
    report = run_suites(["catalog"], 1)[0]
    assert report.failures == [Failure("qdim(t2:1:0) = 2, but it is 1 exactly when i is 0 or 1", (lab,))]


@pytest.mark.parametrize(
    "k, token, change, want",
    [
        (1, "t1:1:2", lambda q: q + q, "qdim(t1:1:2) = 2, but it is 1 exactly when i is 0 or 1"),
        (2, "u:1:0", lambda q: qdim_index(0, 2), "qdim(u:1:0) = 1, but it is 1 exactly when i is 0 or 2"),
        (2, "t2:2:1", lambda q: q + q, "qdim(t2:2:1) = 2, but it is 1 exactly when i is 0 or 2"),
    ],
    ids=["level 1 doubled", "level 2 made 1", "level 2 doubled"],
)
def test_catalog_reads_the_simple_currents_from_the_qdim_under_test(monkeypatch, k, token, change, want):
    monkeypatch.setattr(verify_mod, "qdim_exact", _qdim_with(token, change))
    report = run_suites(["catalog"], k)[0]
    assert report.failures == [Failure(want, (parse_label(token, k),))]


def _fuse_with(k, pair, change):
    """Honest fusion, except that the product of ``pair`` goes through ``change``."""
    from orbifusion.fusion import fuse_irreducible

    target = tuple(parse_label(tok, k) for tok in pair)

    def fuse(a, b, level):
        honest = fuse_irreducible(a, b, level)
        return change(honest) if (a, b) == target else honest

    return fuse


def _double_first(v):
    """``v`` with the multiplicity of its first output doubled."""
    first = next(iter(v))
    return FusionVector((lab, 2 if lab == first else m) for lab, m in v.items())


def _drop_last(v):
    """``v`` without its last output."""
    return FusionVector(list(v.items())[:-1])


def test_oracle_reports_a_product_on_the_wrong_coset(monkeypatch):
    # u:0:2 is on coset 12 of the Z/18 lattice model, where u:0:0 x u:0:1 is on coset 6
    a, b, c = (parse_label(tok, 1) for tok in ("u:0:0", "u:0:1", "u:0:2"))
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(1, ("u:0:0", "u:0:1"), lambda v: FusionVector({c: 1})))
    report = run_suites(["oracle"], 1)[0]
    assert report.failures == [Failure("u:0:0 x u:0:1 = {u:0:2: 1}, the coordinate rule gives {u:0:1: 1}", (a, b))]


@pytest.mark.parametrize("k", [2, 3, 8, 20])
@pytest.mark.parametrize("change", ["u:1:0 x t1:2:0 without its last output", "u:1:0 x t1:1:0 with its first output doubled"])
def test_a_seeded_product_fault_fails_the_oracle_once_naming_its_pair(monkeypatch, k, change):
    pair, product, _ = _PRODUCT_CHANGES[change]
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(k, pair, product))
    report = run_suites(["oracle"], k)[0]
    assert [f.labels for f in report.failures] == [tuple(parse_label(tok, k) for tok in pair)]
    assert ", the coordinate rule gives {" in report.failures[0].description


@pytest.mark.parametrize("k", [2, 3, 8, 20])
def test_a_seeded_dual_fault_fails_the_oracle_once_naming_its_label(monkeypatch, k):
    u11, u12 = parse_label("u:1:1", k), parse_label("u:1:2", k)  # u:1:2 is its own dual
    monkeypatch.setattr(verify_mod, "contragredient", lambda lab, k: u11 if lab == u12 else contragredient(lab, k))
    report = run_suites(["oracle"], k)[0]
    assert report.failures == [Failure("dual of u:1:2 is u:1:1, the coordinate rule gives u:1:2", (u12,))]


def test_a_level_one_weight_off_the_lattice_fails_catalog(monkeypatch):
    lab = parse_label("u:1:0", 1)  # coset 15 of the Z/18 lattice model: weight 1/4, which is 15^2/36 modulo 1
    monkeypatch.setattr(verify_mod, "conformal_weight", _weights_with({"u:1:0": lambda w: w + Fraction(1, 36)}))
    reports = run_suites(list(SUITES), 1)
    assert [r.suite for r in reports if not r.passed] == ["catalog", "dual"]  # its dual u:1:1 keeps 1/4
    assert reports[0].failures == [Failure("weight(u:1:0) = 5/18, the construction gives 1/4", (lab,))]


def test_dual_reports_a_qdim_that_changes_under_dual(monkeypatch):
    from orbifusion.qdim import qdim_exact

    k = 2
    lab, d = parse_label("t1:0:0", k), parse_label("t2:2:0", k)  # duals of each other
    q = qdim_exact(lab, k)
    monkeypatch.setattr(verify_mod, "qdim_exact", lambda x, k: q + q if x == lab else qdim_exact(x, k))
    report = run_suites(["dual"], k)[0]
    assert report.failures == [
        Failure(f"qdim changes under dual: t1:0:0 -> {q + q}, t2:2:0 -> {q}", (lab, d)),
        Failure(f"qdim changes under dual: t2:2:0 -> {q}, t1:0:0 -> {q + q}", (d, lab)),
    ]


def test_doubled_multiplicity_fails_assoc_and_qdim(monkeypatch):
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(2, ("u:1:0", "t1:1:0"), _double_first))
    reports = run_suites(["assoc", "qdim"], 2)
    assert [r.passed for r in reports] == [False, False]


def test_a_fusion_output_outside_the_catalog_is_a_value_error(monkeypatch):
    stray = parse_label("u:1:0", 1)._replace(i=5)  # u:5:0, not a label at level 2
    fuse = _fuse_with(2, ("u:1:0", "u:1:0"), lambda v: FusionVector({stray: 1}))
    monkeypatch.setattr(verify_mod, "fuse_irreducible", fuse)
    with pytest.raises(ValueError, match="fusion output u:5:0 is not a label at level 2"):
        run_suites(["comm"], 2)


def test_run_suites_rejects_unknown_suites():
    for names in (["nope"], "unit", ["unit", "nope"]):
        with pytest.raises(ValueError, match="the suites are catalog, unit, comm, assoc, dual, qdim, oracle"):
            run_suites(names, 2)


def test_run_suites_reads_an_iterator_of_names_once():
    reports = run_suites(iter(["unit", "comm"]), 2)
    assert [r.suite for r in reports] == ["unit", "comm"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("names", [None, 3, [["unit"]], [None], [{"unit"}]])
def test_run_suites_rejects_names_that_are_not_a_list_of_strings(names):
    with pytest.raises(ValueError, match="not a list of known suite names"):
        run_suites(names, 2)


@pytest.fixture
def fuse_calls(monkeypatch):
    """Every pair that ``verify`` fuses, in call order."""
    from orbifusion.fusion import fuse_irreducible

    calls = []

    def counting(a, b, k):
        calls.append((a, b))
        return fuse_irreducible(a, b, k)

    monkeypatch.setattr(verify_mod, "fuse_irreducible", counting)
    return calls


def test_run_suites_fuses_each_pair_once(fuse_calls):
    reports = run_suites(["catalog", "unit", "comm", "assoc", "dual", "qdim"], 20)
    assert all(r.passed for r in reports)
    n = 9 * 21
    assert len(fuse_calls) == n * n  # one shared table, unit's vacuum row included
    assert len(set(fuse_calls)) == n * n


def test_every_suite_at_level_one_fuses_each_pair_once(fuse_calls):
    assert all(r.passed for r in run_suites(list(SUITES), 1))
    assert len(fuse_calls) == len(set(fuse_calls)) == 18 * 18
    fuse_calls.clear()
    assert run_suites(["oracle"], 1)[0].passed
    assert len(fuse_calls) == 18 * 18


@pytest.mark.parametrize("k", [1, 4])
def test_unit_fuses_only_the_vacuum_row(k, fuse_calls):
    assert run_suites(["unit"], k)[0].passed
    assert fuse_calls == [(vacuum(k), b) for b in enumerate_irreducibles(k)]


def test_catalog_fuses_nothing(fuse_calls):
    assert run_suites(["catalog"], 3)[0].passed
    assert fuse_calls == []


BAD_LEVELS = [0, -1, True, 1.0, "3"]


@pytest.mark.parametrize("names", [[], ["catalog"], list(SUITES)])
@pytest.mark.parametrize("k", BAD_LEVELS)
def test_run_suites_refuses_a_bad_level_before_any_suite_runs(monkeypatch, fuse_calls, names, k):
    ran = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda table, name=name: ran.append(name))
    with pytest.raises(ValueError) as expected:
        check_level(k)
    with pytest.raises(ValueError) as raised:
        run_suites(names, k)
    assert str(raised.value) == str(expected.value)  # check_level's own message
    assert ran == [] and fuse_calls == []


@pytest.mark.parametrize("k", BAD_LEVELS)
def test_run_suites_reports_an_unknown_name_before_a_bad_level(fuse_calls, k):
    with pytest.raises(ValueError, match=r"^not a list of known suite names: \['catalog', 'nope'\]; the suites are "):
        run_suites(["catalog", "nope"], k)
    assert fuse_calls == []


@pytest.mark.parametrize("k", [*range(1, 9), 20])
def test_every_suite_runs_exactly_its_checks(k):
    n, labels = 9 * (k + 1), enumerate_irreducibles(k)
    distinct_outputs = sum(len(fuse_irreducible(a, b, k)) for a in labels for b in labels)
    expected = {
        "catalog": 2 + 18 * (k + 1),
        "unit": n,
        "comm": n * (n + 1) // 2,
        "assoc": n + 3 * n * n,
        "dual": 3 * n + n * n + distinct_outputs,
        "qdim": n * n,
        "oracle": n * n + n,
    }
    reports = run_suites(list(SUITES), k)
    assert all(r.passed for r in reports)
    assert {r.suite: r.checks_run for r in reports} == expected


def test_corrupted_vacuum_row_fails_unit_assoc_and_oracle(monkeypatch):
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(1, ("u:0:0", "t1:1:2"), lambda v: FusionVector()))
    lab = parse_label("t1:1:2", 1)
    unit, assoc, oracle = run_suites(["unit", "assoc", "oracle"], 1)
    broken = Failure(f"vacuum x {lab.token()} = {{}}, expected {{{lab.token()}: 1}}", (lab,))
    assert unit.failures == [broken] and broken in assoc.failures
    assert oracle.failures == [Failure("u:0:0 x t1:1:2 = {}, the coordinate rule gives {t1:1:2: 1}", (vacuum(1), lab))]


def test_corruption_after_honest_run_is_caught(monkeypatch):
    assert all(r.passed for r in run_suites(["comm", "qdim"], 3))
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(3, ("u:1:0", "t1:2:0"), _drop_last))
    reports = run_suites(["comm", "qdim"], 3)
    assert [r.passed for r in reports] == [False, False]


def test_qdim_memo_is_by_value_not_by_index(monkeypatch):
    from orbifusion.qdim import qdim_exact

    wrong = parse_label("u:0:1", 2)  # given qdim(i=1) although its i is 0
    monkeypatch.setattr(
        verify_mod, "qdim_exact", lambda lab, k: qdim_index(1, k) if lab == wrong else qdim_exact(lab, k)
    )
    report = run_suites(["qdim"], 2)[0]
    assert not report.passed
    assert (wrong, wrong) in [f.labels for f in report.failures]


def test_generators_grow_only_through_a_single_new_label():
    # labels 0..3 with 0 the vacuum and 1 x 1 = 2 + 3 (product id 4): that
    # product proves neither 2 nor 3, so 2 must become a generator before 3
    # follows from it
    outputs = [(0,), (1,), (2,), (3,), (2, 3)]
    identity = [0, 1, 2, 3]
    assert verify_mod._generators([identity, [1, 4, 2, 3], identity, identity], outputs, 0) == [1, 2]


def test_assoc_reports_a_broken_left_unit(monkeypatch):
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(2, ("u:0:0", "t1:1:2"), lambda v: FusionVector()))
    report = run_suites(["assoc"], 2)[0]
    lab = parse_label("t1:1:2", 2)
    assert Failure(f"vacuum x {lab.token()} = {{}}, expected {{{lab.token()}: 1}}", (lab,)) in report.failures


def _with_product(table, ia, ib, outputs):
    """A copy of ``table`` whose product ``ia x ib`` has the output indices ``outputs`` instead.

    The copy has its own rows of ids and its own ``outputs``, and the one
    pair's entry in ``row`` points at the id of the new outputs.  Outputs
    that another product already has keep that product's id, as a changed
    ``fuse_irreducible`` would get from the table; others are appended to
    ``outputs`` as a new id.
    """
    bad = copy.copy(table)
    bad.row = dict(enumerate(map(list, table.ids())))  # builds every row, so ``table.outputs`` is complete
    bad.outputs = list(table.outputs)
    outputs = tuple(sorted(outputs))  # outputs stay in canonical order
    if outputs not in bad.outputs:
        bad.outputs.append(outputs)
    bad.row[ia][ib] = bad.outputs.index(outputs)
    return bad


def _corrupted(table, rng, kind, ia=None):
    """A copy of ``table`` with one output of one product dropped, added, doubled or replaced.

    The product is in row ``ia``, or in a random row when ``ia`` is None.
    The kind ``empty`` drops every output of one product u:1:0 x b instead.
    """
    n = len(table.labels)
    if kind == "empty":
        return _with_product(table, table.index[parse_label("u:1:0", table.k)], rng.randrange(n), ())
    ia, ib = rng.randrange(n) if ia is None else ia, rng.randrange(n)
    outputs = list(table.outputs[table.row[ia][ib]])
    pick = rng.randrange(len(outputs))
    if kind == "drop":
        del outputs[pick]
    elif kind == "add":
        outputs.append(rng.randrange(n))
    elif kind == "double":
        outputs.append(outputs[pick])
    else:
        outputs[pick] = rng.choice([c for c in range(n) if c != outputs[pick]])
    return _with_product(table, ia, ib, outputs)


def _unmatched_left_sum(table, rng):
    """A copy of ``table`` in which one left side (u:1:0 x b) x c, with u:1:0 x b two labels, is no product's multiset.

    The first output of s1 x c, where u:1:0 x b = s1 + s2, is replaced by
    a random other label, for the first (b, c) in a random order whose new
    left side is neither a product of the copy nor any u:1:0 x p.
    """
    k, n = table.k, len(table.labels)
    u10, vac = table.index[parse_label("u:1:0", k)], table.index[vacuum(k)]
    pairs = list(itertools.product(range(n), repeat=2))
    rng.shuffle(pairs)
    for ib, ic in pairs:
        ab = table.outputs[table.row[u10][ib]]
        if len(ab) != 2:
            continue
        s1, s2 = ab
        first, *rest = table.outputs[table.row[s1][ic]]
        bad = _with_product(table, s1, ic, [rng.choice([c for c in range(n) if c != first]), *rest])
        rows = [[bad.outputs[p] for p in row] for row in bad.ids()]
        left = tuple(sorted(rows[s1][ic] + rows[s2][ic]))
        rights = {tuple(sorted(d for t in out for d in rows[u10][t])) for out in bad.outputs}
        if left not in rights and left not in bad.outputs and u10 in verify_mod._generators(bad.ids(), bad.outputs, vac):
            return bad
    raise AssertionError("no left side of u:1:0 can be made unmatched")


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_assoc_fails_exactly_when_the_sweep_does(k, associative_by_sweep, associativity_by_triple, table_rows):
    table = verify_mod._FusionTable(k)
    assert verify_mod._associativity(table).passed and associative_by_sweep(table_rows(table))
    rng = random.Random(k)
    for r in range(150):
        bad = _corrupted(table, rng, ("drop", "add", "double", "replace")[r % 4])
        report = verify_mod._associativity(bad)
        assert report.passed == associative_by_sweep(table_rows(bad))
        assert report.failures == associativity_by_triple(bad, table_rows(bad)).failures
    u10 = table.index[parse_label("u:1:0", k)]
    for _ in range(10):
        bad = _corrupted(table, rng, "empty")
        rows = table_rows(bad)
        b = table.labels[rows[u10].index(())]
        report = verify_mod._associativity(bad)
        assert not associative_by_sweep(rows)
        # u:1:0 is a generator: its empty product with b is merged, and fails, as (u:1:0 x b) x c
        assert any(f.labels[:2] == (table.labels[u10], b) for f in report.failures)
        assert report.failures == associativity_by_triple(bad, rows).failures
    # on the row of the generator u:1:0, doubling or adding an output makes a x b two or three labels
    widths = set()
    for r in range(20):
        bad = _corrupted(table, rng, ("double", "add")[r % 2], ia=u10)
        widths.update(len(bad.outputs[p]) for p, q in zip(bad.row[u10], table.row[u10]) if p != q)
        report = verify_mod._associativity(bad)
        assert report.passed == associative_by_sweep(table_rows(bad))
        assert report.failures == associativity_by_triple(bad, table_rows(bad)).failures
    assert {2, 3} <= widths
    # a left sum that is no right side of u:1:0 equals none of them
    bad = _unmatched_left_sum(table, rng)
    report = verify_mod._associativity(bad)
    assert not report.passed and report.failures == associativity_by_triple(bad, table_rows(bad)).failures


# Each change of one product that a test here makes through ``_fuse_with``: the pair, the change
# and the lowest level at which the pair and every label the change writes in are labels.
_PRODUCT_CHANGES = {
    "u:0:0 x u:0:1 made u:0:2": (("u:0:0", "u:0:1"), lambda v: FusionVector({IrrLabel(Sector.U, 0, 2): 1}), 1),
    "u:1:0 x t1:1:0 with its first output doubled": (("u:1:0", "t1:1:0"), _double_first, 1),
    "u:1:0 x u:1:0 made u:5:0": (("u:1:0", "u:1:0"), lambda v: FusionVector({IrrLabel(Sector.U, 5, 0): 1}), 5),
    "u:0:0 x t1:1:2 emptied": (("u:0:0", "t1:1:2"), lambda v: FusionVector(), 1),
    "u:1:0 x t1:2:0 without its last output": (("u:1:0", "t1:2:0"), _drop_last, 2),
    "u:1:0 x t1:1:0 with every output doubled": (
        ("u:1:0", "t1:1:0"), lambda v: FusionVector((lab, 2 * m) for lab, m in v.items()), 1,
    ),
    "u:1:0 x t1:2:0 with its first output doubled": (("u:1:0", "t1:2:0"), _double_first, 2),
}


@pytest.mark.parametrize(
    "k, change",
    [
        (k, change)
        for k in (*range(1, 9), 20)
        for change in ("honest", *_PRODUCT_CHANGES)
        if change == "honest" or k >= _PRODUCT_CHANGES[change][2]
    ],
)
def test_a_table_holds_each_product_under_one_id(monkeypatch, k, change):
    # so assoc may read a product's id as the product, as comm does
    if change != "honest":
        pair, product, _ = _PRODUCT_CHANGES[change]
        monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(k, pair, product))
    table = verify_mod._FusionTable(k)
    table.ids()
    assert len(set(table.outputs)) == len(table.outputs)


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("fuse", ["honest", "doubled"])
def test_assoc_leaves_the_shared_table_alone(k, fuse, monkeypatch):
    if fuse == "doubled":  # every multiplicity of u:1:0 x t1:1:0 doubled: assoc, dual and qdim fail
        double = _fuse_with(k, ("u:1:0", "t1:1:0"), lambda v: FusionVector((lab, 2 * m) for lab, m in v.items()))
        monkeypatch.setattr(verify_mod, "fuse_irreducible", double)
    table = verify_mod._FusionTable(k)
    rows = copy.deepcopy(table.ids())
    outputs = list(table.outputs)
    verify_mod._associativity(table)
    assert table.outputs == outputs and table.ids() == rows
    together = run_suites(["assoc", "dual", "qdim"], k)
    alone = [run_suites([name], k)[0] for name in ("assoc", "dual", "qdim")]
    assert [r.passed for r in together] == [fuse == "honest"] * 3
    assert [(r.suite, r.checks_run, r.failures) for r in together] == [(r.suite, r.checks_run, r.failures) for r in alone]


def test_assoc_catches_a_corruption_that_comm_and_qdim_miss(monkeypatch):
    from orbifusion.fusion import fuse_irreducible

    k = 23
    pair = {parse_label("t1:20:0", k), parse_label("u:11:2", k)}

    def shifted(a, b, level):
        # the first output of the pair's product, in both orders, moves to the next j
        honest = fuse_irreducible(a, b, level)
        if {a, b} != pair:
            return honest
        first, *rest = honest
        return FusionVector([(first._replace(j=(first.j + 1) % 3), 1)] + [(lab, 1) for lab in rest])

    monkeypatch.setattr(verify_mod, "fuse_irreducible", shifted)
    comm, qdim, assoc = run_suites(["comm", "qdim", "assoc"], k)
    assert comm.passed and qdim.passed
    assert len(assoc.failures) == 14


@pytest.mark.parametrize("k", [*range(1, 11), 20])
def test_table_matches_the_pair_by_pair_construction(k, products_by_pair, table_rows):
    table = verify_mod._FusionTable(k)
    assert table_rows(table) == products_by_pair(k, verify_mod.fuse_irreducible)
    assert len(set(table.outputs)) == len(table.outputs)  # one id per distinct product


def test_table_row_of_a_changed_pair_is_not_shared(monkeypatch, products_by_pair, table_rows):
    from orbifusion.fusion import fuse_irreducible

    k = 3
    honest = products_by_pair(k, fuse_irreducible)
    pair = ("u:1:0", "t1:2:0")
    ia, ib = (verify_mod._FusionTable(k).index[parse_label(tok, k)] for tok in pair)
    sharers = [(x, y) for x, row in enumerate(honest) for y, out in enumerate(row) if out == honest[ia][ib]]
    assert len(sharers) > 1  # the honest row is shared, so a merge would show
    monkeypatch.setattr(verify_mod, "fuse_irreducible", _fuse_with(k, pair, _double_first))
    table = verify_mod._FusionTable(k)
    products = table_rows(table)
    first, *rest = honest[ia][ib]
    assert products[ia][ib] == (first, first, *rest)
    assert all(products[x][y] == honest[x][y] for x, y in sharers if (x, y) != (ia, ib))
    assert products == products_by_pair(k, verify_mod.fuse_irreducible)
    others = {table.row[x][y] for x, y in sharers if (x, y) != (ia, ib)}
    assert len(others) == 1 and table.row[ia][ib] not in others  # the honest sharers keep one id


@pytest.mark.parametrize("k", range(1, 9))
def test_dual_and_qdim_report_as_the_pair_by_pair_sweeps_do(k, duality_by_pair, qdim_by_pair, table_rows):
    table = verify_mod._FusionTable(k)
    rng = random.Random(k)
    mixed_rows = 0  # rows failing both the vacuum check (ii) and an instance of (i)
    u10 = table.index[parse_label("u:1:0", k)]
    dual_u10 = table.index[contragredient(table.labels[u10], k)]
    seeded = (_corrupted(table, rng, ("drop", "add", "double", "replace")[r % 4]) for r in range(150))
    # u:1:0 x u:1:0' emptied loses its vacuum and its other outputs, so that row fails both parts
    for bad in itertools.chain(seeded, [_with_product(table, u10, dual_u10, ())]):
        rows = table_rows(bad)
        dual = verify_mod._duality(bad)
        for got, want in (
            (dual, duality_by_pair(bad, rows)),
            (verify_mod._qdim_homomorphism(bad), qdim_by_pair(bad, rows)),
        ):
            assert [f.labels for f in got.failures] == [f.labels for f in want.failures]
            assert got.failures == want.failures
            assert got.checks_run == want.checks_run
        vacuum_rows = {f.labels[0] for f in dual.failures if "^vacuum" in f.description}
        mixed_rows += any(len(f.labels) == 3 and f.labels[0] in vacuum_rows for f in dual.failures)
    assert mixed_rows > 0  # so the order in which a row's two parts report is exercised


def test_dual_fails_exactly_when_the_pair_by_pair_sweep_does_at_level_8(duality_by_pair, table_rows):
    table = verify_mod._FusionTable(8)
    assert verify_mod._duality(table).passed
    rng = random.Random(8)
    kinds = ("drop", "add", "double", "replace", "empty")
    failed = dict.fromkeys(kinds, 0)
    for r in range(300):
        kind = kinds[r % 5]
        bad = _corrupted(table, rng, kind)
        passed = verify_mod._duality(bad).passed
        assert passed == duality_by_pair(bad, table_rows(bad)).passed, (r, kind)
        failed[kind] += not passed
    # every doubled multiplicity fails, so multiplicities are compared (only
    # doubling b' in a x b, an instance that is its own partner, could pass)
    assert failed["double"] == failed["empty"] == 60


def test_table_at_level_20_holds_1089_products_for_one_fuse_per_pair(fuse_calls):
    table = verify_mod._FusionTable(20)
    assert all(SUITES[name](table).passed for name in SUITES)
    n = 9 * 21
    assert len(fuse_calls) == len(set(fuse_calls)) == n * n
    assert len(table.outputs) == len(set(table.outputs)) == 1089


def test_dual_reports_as_the_pair_by_pair_sweep_does_when_duality_is_no_involution(
    monkeypatch, duality_by_pair, table_rows
):
    def negated(lab, k):  # the dual with j negated: a permutation, but not an involution
        d = contragredient(lab, k)
        return d._replace(j=-d.j % 3)

    monkeypatch.setattr(verify_mod, "contragredient", negated)
    monkeypatch.setattr(sys.modules[duality_by_pair.__module__], "contragredient", negated)
    table = verify_mod._FusionTable(2)
    got, want = verify_mod._duality(table), duality_by_pair(table, table_rows(table))
    assert got.failures == want.failures and got.checks_run == want.checks_run
    assert any(len(f.labels) == 3 for f in got.failures)  # instances of (i) fail, not only (iii)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_every_suite_evaluates_each_per_label_function_once_per_label(k, monkeypatch):
    calls = {name: [] for name in ("conformal_weight", "qdim_exact", "contragredient")}

    def counting(name):
        honest = getattr(verify_mod, name)

        def wrapper(lab, level):
            calls[name].append(lab)
            return honest(lab, level)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify_mod, name, counting(name))
    assert all(r.passed for r in run_suites(list(SUITES), k))
    labels = enumerate_irreducibles(k)
    for name, labs in calls.items():
        assert sorted(labs) == sorted(labels), name  # every label, each once


def _dual_leaves_the_catalog(monkeypatch):
    """At level 2, send u:1:0 to u:5:0, which is not a label there."""
    u10 = parse_label("u:1:0", 2)
    stray = u10._replace(i=5)
    monkeypatch.setattr(verify_mod, "contragredient", lambda lab, k: stray if lab == u10 else contragredient(lab, k))


def test_a_dual_outside_the_catalog_is_a_value_error_naming_both_labels(monkeypatch):
    _dual_leaves_the_catalog(monkeypatch)
    with pytest.raises(ValueError, match=r"^dual of u:1:0 is u:5:0, not a label at level 2$"):
        run_suites(["dual"], 2)


def test_a_dual_outside_the_catalog_is_an_error_from_the_cli(monkeypatch, invoke):
    _dual_leaves_the_catalog(monkeypatch)
    result = invoke("verify", "--level", "2")
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "Error: dual of u:1:0 is u:5:0, not a label at level 2\n"


def test_verification_report_defaults_equality_and_repr():
    report = verify_mod.VerificationReport("unit", 2)
    assert (report.suite, report.level, report.checks_run, report.failures, report.elapsed) == ("unit", 2, 0, [], 0.0)
    assert report.failures is not verify_mod.VerificationReport("unit", 2).failures  # a new list each
    failure = Failure("x", ())
    full = verify_mod.VerificationReport("dual", 3, checks_run=4, failures=[failure], elapsed=0.5)
    assert full == verify_mod.VerificationReport("dual", 3, 4, [failure], 0.5)
    for changed in (("comm", 3, 4, [failure], 0.5), ("dual", 4, 4, [failure], 0.5), ("dual", 3, 5, [failure], 0.5),
                    ("dual", 3, 4, [], 0.5), ("dual", 3, 4, [failure], 0.25)):
        assert full != verify_mod.VerificationReport(*changed), changed
    assert full != ("dual", 3, 4, [failure], 0.5)
    assert repr(full) == (
        "VerificationReport(suite='dual', level=3, checks_run=4, "
        "failures=[Failure(description='x', labels=())], elapsed=0.5)"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(full)
