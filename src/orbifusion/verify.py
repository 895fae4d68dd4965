"""Machine verification of every identity asserted about the catalog.

Each suite returns a :class:`VerificationReport`; an empty failure list is
an executable proof that the identity holds at that level.  Every suite is
exhaustive at every level.  The level-1 suite additionally checks the whole
catalog against an independent oracle: the orbifold at level 1 is isomorphic
to a rank-one lattice theory whose 18 simple modules fuse like Z/18, whose
duals negate, and whose weights are s^2/36 modulo 1.

Associativity is proven from a few generators instead of all n^3 triples.
Let L_a be c -> a x c, extended linearly; the vectors a with
L_{a x b} = L_a L_b for every b form a subspace S over Q.  S holds the
vacuum once it is a left unit, each generator g whose triples (g, b, c) all
pass, and g x y whenever g and y are in S; so a label is in S once it is the
only label outside S in some g x y.  ``assoc`` grows S that way from the
vacuum, adding the smallest label still outside to the generators whenever S
stops growing.  When S holds every label, all n^3 triples associate.  The
honest table needs three generators, u:0:1, u:1:0 and t1:0:0, at every level.
Both sides of a triple are integer ids of multisets, and a row of triples
is one comparison of two lists of ints.  The table's own product ids name
the multisets it holds, and a right side g x p the table lacks takes a new
id in a per-generator overlay.  Where g x b is one label s, the left sides
are s's row of ids: u:0:1 and t1:0:0 take that path on every b.  Where it
is two labels, each left side comes from a per-generator memo of
two-product sums keyed by the pair of product ids.

Suites run through :func:`run_suites`, which builds one integer table of
all n^2 products, multiplicities kept, and shares it among the suites it
runs; ``catalog`` reads only its labels.  Every distinct product has an
integer id, and the table holds each distinct product's outputs once, by
id, and the id of every pair.  Its rows of ids live in a memo keyed by the
left factor: a row is built the first time a suite reads it, with one
``fuse_irreducible`` call per pair, and kept, so a run fuses only the rows
its suites read (``unit`` the vacuum row, ``catalog`` none) and each
ordered pair at most once.  A row is built without a Python-level loop:
``fuse_irreducible`` is mapped over the row's right factors and its
vectors are mapped to ids.  A suite does its per-product work once per id:
``comm`` compares ids, ``assoc`` names the right sides a x (b x c) once
per id and generator, and ``qdim`` sums a product's quantum dimensions
once per id.
The table also keeps three per-label memos, ``weight``, ``qdim`` and
``dual``, keyed by label and filled on first use by ``conformal_weight``,
``qdim_exact`` and ``contragredient``; ``catalog``, ``dual``, ``qdim`` and
``oracle`` read them, so one run evaluates each function at most once per
label.  A dual outside the catalog raises ``ValueError`` naming both labels.
``dual`` and ``qdim`` check a row at a time, ``dual`` with one list
equality: listed in the order of the duals of their right factors, the
row's products must equal their own columns.  A row that fails reports its
failures pair by pair, in the order and with the texts of a pair-by-pair
sweep.  No table, and so no memo, outlives the call that built it, so a
substituted ``fuse_irreducible``, ``conformal_weight``, ``qdim_exact`` or
``contragredient`` is always what is verified.  A report's ``elapsed``
times the checks only: a suite builds the rows it reads before its clock
starts.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import Callable, NamedTuple

from .labels import FusionVector, IrrLabel, Sector, check_level, enumerate_irreducibles, make_label, vacuum
from .weights import base_twist_weight, conformal_weight
from .qdim import QDimElement, has_unit_qdim, qdim_exact
from .fusion import contragredient, fuse_irreducible

__all__ = [
    "Failure",
    "VerificationReport",
    "SUITES",
    "run_suites",
]

class Failure(NamedTuple):
    """One failed identity instance: what broke, and on which labels."""

    description: str
    labels: tuple[IrrLabel, ...]

    def render(self) -> str:
        toks = ", ".join(lab.token() for lab in self.labels)
        return f"{self.description}  [labels: {toks}]"


class VerificationReport:
    """Outcome of one verification suite at one level.

    A mutable record of five fields; ``failures`` defaults to a new empty
    list.  Two reports are equal when all five fields are, and a report is
    unhashable.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        suite: str,
        level: int,
        checks_run: int = 0,
        failures: list[Failure] | None = None,
        elapsed: float = 0.0,
    ) -> None:
        self.suite = suite
        self.level = level
        self.checks_run = checks_run
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.level, self.checks_run, self.failures, self.elapsed) == (
            other.suite, other.level, other.checks_run, other.failures, other.elapsed
        )

    def __repr__(self) -> str:
        return (
            f"VerificationReport(suite={self.suite!r}, level={self.level!r}, checks_run={self.checks_run!r}, "
            f"failures={self.failures!r}, elapsed={self.elapsed!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"suite={self.suite} level={self.level} checks={self.checks_run} "
            f"elapsed={self.elapsed:.3f}s {status}"
        )


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _FusionTable:
    """Integer-indexed fusion products of all irreducibles at one level.

    Every distinct product has an integer id.  ``outputs[p]`` holds the
    indices (into ``labels``) of product ``p``'s outputs in canonical order,
    each repeated as often as its multiplicity, so sums over a product are
    plain iteration and a wrong multiplicity is seen by every suite.
    ``row[a][b]`` is the id of ``labels[a] x labels[b]``, and ``ids()``
    lists every row.  ``row`` is a memo: row ``a`` is built on first use,
    with one call of this module's ``fuse_irreducible``, looked up when the
    row is built, per pair ``(a, b)``, and kept; the calls and the id
    lookups are mapped over the row, with no Python-level loop.  A product
    not met before takes the next id, so ``outputs`` grows as rows are
    built (1089 ids for 35,721 pairs at k=20).  A product with an output
    outside the level's catalog raises ``ValueError``.  A product is looked
    up by its vector: ``fuse_irreducible`` hands out one shared vector per
    distinct product, and every vector keeps the hash computed when it was
    built, so a lookup is one slot read and an identity match.  A vector
    hashes and compares as its ``(label, multiplicity)`` items, so fresh
    vectors from a substituted ``fuse_irreducible`` share ids too, and two
    pairs have one id exactly when their outputs are equal.

    ``weight``, ``qdim`` and ``dual`` are per-label memos, keyed by the
    label itself (never by its index or ``i``), filled by this module's
    ``conformal_weight``, ``qdim_exact`` and ``contragredient``, each looked
    up when it fills, so the suites of one run evaluate each of them at
    most once per label.  A dual that is not a label of ``labels`` raises
    ``ValueError``.
    """

    def __init__(self, k: int):
        check_level(k)
        self.k = k
        self.labels = labels = enumerate_irreducibles(k)
        self.index = index = {lab: t for t, lab in enumerate(labels)}
        self.outputs = outputs = []

        def new_id(product: FusionVector) -> int:
            try:
                outputs.append(tuple([index[c] for c, m in product.items() for _ in range(m)]))
            except KeyError as err:
                raise ValueError(f"fusion output {err.args[0].token()} is not a label at level {k}") from None
            return len(outputs) - 1

        def dual_of(lab: IrrLabel) -> IrrLabel:
            d = contragredient(lab, k)
            if d not in index:
                raise ValueError(f"dual of {lab.token()} is {d.token()}, not a label at level {k}")
            return d

        shared = _Memo(new_id)
        repeat = itertools.repeat
        self.row = _Memo(
            lambda a: list(map(shared.__getitem__, map(fuse_irreducible, repeat(labels[a]), labels, repeat(k))))
        )
        self.weight = _Memo(lambda lab: conformal_weight(lab, k))
        self.qdim = _Memo(lambda lab: qdim_exact(lab, k))
        self.dual = _Memo(dual_of)

    def ids(self) -> list[list[int]]:
        """Every row of product ids, in label order; builds the rows not built yet."""
        return [self.row[a] for a in range(len(self.labels))]

    def render(self, outputs: Sequence[int]) -> str:
        """A product's outputs as ``{label: multiplicity, ...}`` in canonical order, for failure messages."""
        return "{" + ", ".join(f"{self.labels[c].token()}: {m}" for c, m in sorted(Counter(outputs).items())) + "}"


def _finish(report: VerificationReport, start: float) -> VerificationReport:
    report.elapsed = time.perf_counter() - start
    return report


def _unit(table: _FusionTable) -> VerificationReport:
    """Vacuum acts as the fusion unit on every label."""
    vac_row = table.row[table.index[vacuum(table.k)]]
    start = time.perf_counter()
    report = VerificationReport("unit", table.k)
    _check_left_unit(table, vac_row, report)
    return _finish(report, start)


def _check_left_unit(table: _FusionTable, vac_row: list[int], report: VerificationReport) -> None:
    """Vacuum x b = b for every label b, read from the vacuum's row; ``unit`` and ``assoc`` share it."""
    outputs = table.outputs
    for ib, lab in enumerate(table.labels):
        report.checks_run += 1
        if outputs[vac_row[ib]] != (ib,):
            report.failures.append(
                Failure(
                    f"vacuum x {lab.token()} = {table.render(outputs[vac_row[ib]])}, expected {{{lab.token()}: 1}}",
                    (lab,),
                )
            )


def _commutativity(table: _FusionTable) -> VerificationReport:
    """Fusion product is symmetric: a x b = b x a, compared by product id."""
    k, labels, ids = table.k, table.labels, table.ids()
    start = time.perf_counter()
    n = len(labels)
    report = VerificationReport("comm", k)
    for ia, ib in itertools.combinations_with_replacement(range(n), 2):
        report.checks_run += 1
        ab, ba = ids[ia][ib], ids[ib][ia]
        if ab != ba:
            a, b = labels[ia], labels[ib]
            report.failures.append(
                Failure(
                    f"{a.token()} x {b.token()} = {table.render(table.outputs[ab])} "
                    f"but reversed gives {table.render(table.outputs[ba])}",
                    (a, b),
                )
            )
    return _finish(report, start)


def _generators(ids: Sequence[list[int]], outputs: list[tuple[int, ...]], vac: int) -> list[int]:
    """Indices whose triples, with the vacuum as left unit, prove associativity.

    Grows the known part of S (see the module docstring) to a fixed point,
    then adds the smallest index outside it as a generator, until S holds
    every label.  Reads the table (rows of product ids and each id's
    outputs) only; the checks are the caller's.
    """
    known = [False] * len(ids)
    known[vac] = True
    gens: list[int] = []
    while False in known:
        g = known.index(False)
        gens.append(g)
        known[g] = grew = True
        while grew:
            grew = False
            for h in gens:
                for y, p in enumerate(ids[h]):
                    if known[y]:
                        new = {t for t in outputs[p] if not known[t]}
                        if len(new) == 1:
                            known[new.pop()] = grew = True
    return gens


def _associativity(table: _FusionTable) -> VerificationReport:
    """(a x b) x c = a x (b x c) on every triple, proven from generators.

    Both sides of every triple are integer ids of multisets of labels.
    ``first`` maps each product's outputs to its id, which the table gives
    no other product.  For each generator ``a``, ``right[p]`` is the id of
    the multiset a x p, so a x (b x c) is ``right[ids[b][c]]``; a multiset
    the table does not hold gets an id of ``len(outputs)`` or more in
    ``overlay``.  The left side (a x b) x c depends on the outputs of
    a x b: for one label s it is ``ids[s][c]``, with no multiset built; for
    two, s1 and s2, it comes from ``pair_sum``, a memo keyed by
    ``len(outputs) * ids[s1][c] + ids[s2][c]`` whose value is the id of the
    sorted union, or -1 when no right side of ``a`` is that multiset, so it
    equals no right side; otherwise it is the merged multiset, looked up
    the same way.  Each row of b compares ``lefts == rights`` as lists of
    ints, and only a row that differs rebuilds the two multisets of each
    failing triple for its message.  ``overlay`` and ``pair_sum`` are
    dropped when ``a`` is done.  Only u:1:0 fills the memo on the honest
    table: 3,591 keys at k=20, 22,491 at k=50 and 89,991 at k=100, where
    ``verify``'s maximum RSS reads about 2 MB and 9.5 MB higher for it
    (``BENCH_21.json``, ``verify_levels``).  ``table`` is only read.
    """
    k, labels, ids = table.k, table.labels, table.ids()
    outputs = table.outputs
    start = time.perf_counter()
    n, size = len(labels), len(outputs)
    report = VerificationReport("assoc", k)
    vac = table.index[vacuum(k)]
    _check_left_unit(table, ids[vac], report)
    gens = _generators(ids, outputs, vac)
    report.checks_run += len(gens) * n * n
    first = {out: p for p, out in enumerate(outputs)}
    for ia in gens:
        a_row = list(map(outputs.__getitem__, ids[ia]))
        overlay: dict[tuple[int, ...], int] = {}

        def right_id(multiset: tuple[int, ...]) -> int:
            p = first.get(multiset)
            return overlay.setdefault(multiset, size + len(overlay)) if p is None else p

        def left_id(multiset: tuple[int, ...]) -> int:
            p = first.get(multiset)
            return overlay.get(multiset, -1) if p is None else p

        # the id of a x p for every product id p: a x (b x c) is right[ids[b][c]]
        right = [right_id(tuple(sorted([c for t in out for c in a_row[t]]))) for out in outputs]
        pair_sum = _Memo(lambda key: left_id(tuple(sorted(outputs[key // size] + outputs[key % size]))))
        for ib in range(n):
            ab = a_row[ib]
            if len(ab) == 1:
                lefts = ids[ab[0]]
            elif len(ab) == 2:
                lefts = list(map(pair_sum.__getitem__, map(operator.add, map(size.__mul__, ids[ab[0]]), ids[ab[1]])))
            else:
                # (a x b) x c for every c: the outputs of a x b's outputs' rows, concatenated
                # entry by entry; each entry is a run of sorted runs, which sorted merges
                merged = [()] * n
                for t in ab:
                    merged = map(operator.add, merged, map(outputs.__getitem__, ids[t]))
                lefts = list(map(left_id, map(tuple, map(sorted, merged))))
            rights = list(map(right.__getitem__, ids[ib]))
            if lefts == rights:
                continue
            for ic in range(n):
                if lefts[ic] != rights[ic]:
                    a, b, c = labels[ia], labels[ib], labels[ic]
                    left = [d for t in ab for d in outputs[ids[t][ic]]]
                    right_side = [d for t in outputs[ids[ib][ic]] for d in a_row[t]]
                    report.failures.append(
                        Failure(
                            f"({a.token()} x {b.token()}) x {c.token()} = {table.render(left)} "
                            f"but {a.token()} x ({b.token()} x {c.token()}) = {table.render(right_side)}",
                            (a, b, c),
                        )
                    )
    return _finish(report, start)


def _duality(table: _FusionTable) -> VerificationReport:
    """Contragredient identities.

    (i) N_{a,b}^c = N_{a,c'}^{b'} for *all* triples, checked a row ``a`` at
    a time in column form.  Write ``b = j'`` and list the row's products in
    the order of ``j``: entry ``j`` is ``a x j'``, whose outputs are the
    multiset ``c -> N_{a,j'}^c``.  Column ``c`` of that list names every
    ``j`` with ``c`` in ``a x j'``, once per multiplicity and ascending, so
    it is the multiset ``j -> N_{a,j'}^c``, and entry ``c`` is
    ``j -> N_{a,c'}^j``.  The identity on row ``a`` says exactly that each
    column equals the entry of the same index, zero multiplicities
    included; the row's columns cover every ``(b, c)``, so the rows cover
    the whole cube at quadratic cost.
    (ii) The vacuum appears in a x b exactly when b = a': the vacuum's
    column is ``[a]``.
    (iii) Duality is an involution preserving weight and quantum dimension.

    A row counts one vacuum check per pair and one instance of (i) per
    distinct output of each product, as a sweep over the positive
    instances would.
    """
    k, labels, ids = table.k, table.labels, table.ids()
    outputs = table.outputs
    start = time.perf_counter()
    n = len(labels)
    report = VerificationReport("dual", k)
    duals, weight, qdim = table.dual, table.weight, table.qdim

    for lab in labels:  # part (iii)
        report.checks_run += 3
        d = duals[lab]
        if duals[d] != lab:
            report.failures.append(Failure(f"dual(dual({lab.token()})) = {duals[d].token()}", (lab,)))
        if weight[d] != weight[lab]:
            report.failures.append(
                Failure(
                    f"weight changes under dual: {lab.token()} has {weight[lab]}, {d.token()} has {weight[d]}",
                    (lab, d),
                )
            )
        if qdim[d] != qdim[lab]:
            report.failures.append(
                Failure(f"qdim changes under dual: {lab.token()} -> {qdim[lab]}, {d.token()} -> {qdim[d]}", (lab, d))
            )

    dual = [table.index[duals[lab]] for lab in labels]
    vac = table.index[vacuum(k)]
    # the column form reads b = j' as j = b', so it stands for (i) only when duality is an
    # involution; (iii) reports when it is not, and every row then reports pair by pair
    involution = all(dual[d] == t for t, d in enumerate(dual))
    distinct = [len(set(out)) for out in outputs]  # by product id
    for ia, row in enumerate(ids):
        by_dual = list(map(outputs.__getitem__, map(row.__getitem__, dual)))  # entry j is a x j'
        cols: list[list[int]] = [[] for _ in range(n)]
        for j, out in enumerate(by_dual):
            for ic in out:
                cols[ic].append(j)
        report.checks_run += n + sum(map(distinct.__getitem__, row))
        if involution and cols[vac] == [ia] and list(map(tuple, cols)) == by_dual:
            continue
        # A failing row reports pair by pair, as the identities read: for each b, (ii)
        # from the vacuum multiplicity of a x b, then (i) for each distinct c of a x b
        a = labels[ia]
        for ib, p in enumerate(row):
            product, b = outputs[p], labels[ib]
            n_ab = f"N_{{{a.token()},{b.token()}}}"
            got, want = product.count(vac), int(ib == dual[ia])
            if got != want:
                report.failures.append(Failure(f"{n_ab}^vacuum = {got}, expected {want}", (a, b)))
            for ic in dict.fromkeys(product):
                got, want = product.count(ic), outputs[row[dual[ic]]].count(dual[ib])
                if got != want:
                    c = labels[ic]
                    partner = f"N_{{{a.token()},{labels[dual[ic]].token()}}}^{{{labels[dual[ib]].token()}}}"
                    report.failures.append(Failure(f"{n_ab}^{{{c.token()}}} = {got} but {partner} = {want}", (a, b, c)))
    return _finish(report, start)


def _qdim_homomorphism(table: _FusionTable) -> VerificationReport:
    """qdim(a) * qdim(b) = sum of qdim over a x b, as exact residues."""
    k, labels, ids = table.k, table.labels, table.ids()
    start = time.perf_counter()
    n = len(labels)
    report = VerificationReport("qdim", k)
    # Residue arithmetic is memoised by value, never by label, so a qdim
    # that wrongly depended on a label's sector or j would still be caught.
    # Equal results are one object, so a row compares by identity.
    value_id: dict[QDimElement, int] = {}
    vid = [value_id.setdefault(table.qdim[lab], len(value_id)) for lab in labels]
    values = list(value_id)
    canon: dict[QDimElement | None, QDimElement | None] = {}

    def intern(value: QDimElement | None) -> QDimElement | None:
        return canon.setdefault(value, value)

    def fusion_sum(outputs: tuple[int, ...]) -> QDimElement | None:
        total = None
        for v in outputs:
            total = values[v] if total is None else total + values[v]
        return intern(total)

    by_outputs = _Memo(fusion_sum)  # products with equal qdims share one sum
    fusion_side = [by_outputs[tuple(sorted([vid[c] for c in out]))] for out in table.outputs]  # by product id
    times = _Memo(lambda va: [intern(values[va] * v) for v in values])  # by value id of b
    for ia, row in enumerate(ids):
        report.checks_run += n
        lhs = list(map(times[vid[ia]].__getitem__, vid))
        rhs = list(map(fusion_side.__getitem__, row))
        if lhs == rhs:
            continue
        for ib in range(n):
            if lhs[ib] is not rhs[ib]:
                a, b = labels[ia], labels[ib]
                report.failures.append(
                    Failure(
                        f"qdim({a.token()}) * qdim({b.token()}) = {lhs[ib]} but fusion side sums to {rhs[ib]}",
                        (a, b),
                    )
                )
    return _finish(report, start)


# The Z/18 correspondence realizing the level-1 catalog inside a rank-one
# lattice theory: label token -> lattice coset index s, with fusion s+t,
# dual -s and weight s^2/36 (mod 1).
Z18_CORRESPONDENCE: dict[str, int] = {
    "u:0:0": 0, "t1:0:0": 1, "t2:0:0": 2,
    "u:1:1": 3, "t1:1:1": 4, "t2:1:2": 5,
    "u:0:1": 6, "t1:0:1": 7, "t2:0:2": 8,
    "u:1:2": 9, "t1:1:2": 10, "t2:1:1": 11,
    "u:0:2": 12, "t1:0:2": 13, "t2:0:1": 14,
    "u:1:0": 15, "t1:1:0": 16, "t2:1:0": 17,
}


def _lattice_oracle(table: _FusionTable) -> VerificationReport:
    """Level-1 catalog against the independent Z/18 lattice model."""
    labels, ids, outputs = table.labels, table.ids(), table.outputs
    start = time.perf_counter()
    report = VerificationReport("oracle", 1)
    cosets = {lab: Z18_CORRESPONDENCE[lab.token()] for lab in labels}
    for a, s_a, row in zip(labels, cosets.values(), ids):
        for b, s_b, p in zip(labels, cosets.values(), row):
            report.checks_run += 1
            product = outputs[p]
            if len(product) != 1:
                report.failures.append(
                    Failure(f"{a.token()} x {b.token()} is not a single simple module: {table.render(product)}", (a, b))
                )
                continue
            c = labels[product[0]]
            got, want = cosets[c], (s_a + s_b) % 18
            if got != want:
                report.failures.append(
                    Failure(f"{a.token()} x {b.token()} lands on coset {got}, lattice model says {want}", (a, b, c))
                )
    for lab, s in cosets.items():
        report.checks_run += 1
        dual_coset = cosets[table.dual[lab]]
        if dual_coset != (18 - s) % 18:
            report.failures.append(
                Failure(f"dual of {lab.token()} is on coset {dual_coset}, lattice model says {(18 - s) % 18}", (lab,))
            )
    for lab, s in cosets.items():
        report.checks_run += 1
        weight = table.weight[lab]
        if (weight - Fraction(s * s, 36)) % 1 != 0:
            report.failures.append(
                Failure(f"weight({lab.token()}) = {weight} is not {s}^2/36 modulo 1", (lab,))
            )
    return _finish(report, start)


def _catalog(table: _FusionTable) -> VerificationReport:
    """Catalog size and weight-table invariants at the table's level."""
    start = time.perf_counter()
    k, labels = table.k, table.labels
    report = VerificationReport("catalog", k)
    weight = table.weight
    report.checks_run += 2
    if len(labels) != 9 * (k + 1):
        report.failures.append(Failure(f"catalog has {len(labels)} labels, expected {9 * (k + 1)}", ()))
    if len(set(labels)) != len(labels):
        report.failures.append(Failure("catalog contains duplicate labels", ()))
    vac = vacuum(k)
    for lab in labels:
        report.checks_run += 1
        w = weight[lab]
        if w < 0:
            report.failures.append(Failure(f"negative weight {w} at {lab.token()}", (lab,)))
        elif lab == vac and w != 0:
            report.failures.append(Failure(f"vacuum {lab.token()} has weight {w}, expected 0", (lab,)))
        elif w == 0 and lab != vac:
            report.failures.append(Failure(f"weight 0 at non-vacuum label {lab.token()}", (lab,)))
    for i in range(k + 1):
        for j in range(3):
            report.checks_run += 1
            t1 = weight[make_label(Sector.T1, i, j, k)]
            t2 = weight[make_label(Sector.T2, k - i, j, k)]
            if t1 != t2:
                report.failures.append(
                    Failure(
                        f"twisted weight pairing broken at i={i}, j={j}: {t1} != {t2}",
                        (make_label(Sector.T1, i, j, k), make_label(Sector.T2, k - i, j, k)),
                    )
                )
        report.checks_run += 1
        base = weight[make_label(Sector.T1, i, 0, k)]
        if base != base_twist_weight(k, i, 1):
            report.failures.append(
                Failure(
                    f"T1 base weight at i={i} is {base}, twist formula gives {base_twist_weight(k, i, 1)}",
                    (make_label(Sector.T1, i, 0, k),),
                )
            )
    if k == 1:
        for lab in labels:
            report.checks_run += 1
            if not has_unit_qdim(lab, 1):
                report.failures.append(Failure(f"{lab.token()} is not a simple current at level 1", (lab,)))
    return _finish(report, start)


#: Every suite, in ``verify --suite all`` order, keyed to its body, which takes a table.
SUITES: dict[str, Callable[[_FusionTable], VerificationReport]] = {
    "catalog": _catalog,
    "unit": _unit,
    "comm": _commutativity,
    "assoc": _associativity,
    "dual": _duality,
    "qdim": _qdim_homomorphism,
    "oracle": _lattice_oracle,
}


def run_suites(names: Iterable[str], k: int) -> list[VerificationReport]:
    """Run the named suites at level ``k``, in the order given, on one shared table.

    Raises ``ValueError``, before any suite runs, for a name not in
    :data:`SUITES` (a string is not a list of names), for a level that fails
    :func:`check_level`, and for ``oracle`` at a level other than 1.
    """
    known = False
    if not isinstance(names, str):
        try:
            names = list(names)  # read once: an iterator is used up by the checks below
            known = set(names) <= SUITES.keys()
        except TypeError:  # not iterable, or an unhashable name
            pass
    if not known:
        raise ValueError(f"not a list of known suite names: {names!r}; the suites are {', '.join(SUITES)}")
    check_level(k)
    if "oracle" in names and k != 1:
        raise ValueError("the lattice oracle is a level-1 statement; run it with level 1")
    table = _FusionTable(k)
    return [SUITES[name](table) for name in names]
