"""Machine verification of every identity asserted about the catalog.

Each suite returns a :class:`VerificationReport`; an empty failure list is
an executable proof that the identity holds at that level.  Every suite runs
at every level and covers every case of its identity.  ``assoc`` proves its
n^3 triples from the coordinate rule's factors once ``oracle`` has passed
earlier in the same :func:`run_suites` call, and from a few generators
otherwise (below).  ``qdim`` is proven from the same generators once
``assoc`` has passed, and ``dual`` (i) from ``comm``, ``assoc`` and its own
(ii) and (iii) once ``comm`` and ``assoc`` have; without its premises each
checks every row.  ``oracle`` compares only the pairs b >= a once ``comm``
has passed, as ``comm`` carries the other half.  Every other check is made
case by case.

``catalog`` checks that the catalog has 9(k+1) labels, none twice, and that
each label's weight is the one a construction gives that shares no code with
``conformal_weight``: the sigma^r-twisted grading of the affine sl2 module
L(k, i) (Kac, *Infinite-dimensional Lie algebras*, 3rd ed., section 12.6;
Li, J. Algebra 196 (1997), for the twisted modules).  The weight-lam space of
L(k, i) first occurs at a depth linear between its extremal weights
+-i + 2kn; the twist moves its grade by -r*lam/6 + r^2*k/36 and puts it in
one label, whose weight is the least grade of its spaces, kept as an int
over 36(k+2).  It also checks that a label's quantum dimension, as the
table's ``qdim`` memo holds it, is 1 exactly when its i is 0 or k.

``oracle`` checks every product and every dual against one rule on the same
coordinates: the label of sector r holding the weight-lam space of L(k, i)
is (r, i, lam).  The sl2 weights add, twists add, i runs over the truncated
Clebsch-Gordan range, and a twist of 3 or more flows back by sigma^3 = 1 (see
:func:`_oracle`).  It restates ``fusion``'s rule on the construction's
coordinates and reads nothing of ``fusion`` but the functions under test.
A product depends on its pair only through one int key, and ``oracle``
names each key once: the first pair read with it gives its product id, or
-1 when that pair breaks the rule.  The key is symmetric in the pair, so
the half route after ``comm`` is n(n+1)/2 + n checks with the duals;
without ``comm``, or when a pair differs, it is n^2 + n.

Once ``oracle`` has passed, the table is the coordinate rule, and
:func:`_associativity` proves the rule associative on the factors that
:func:`_coordinate_rule` gives ``oracle``, in O(k^2) checks.  The table
builds those factors once, on first use, and both suites read them.  Otherwise
associativity is proven from a few generators instead of all n^3 triples.
Let L_a be c -> a x c, extended linearly; the vectors a with
L_{a x b} = L_a L_b for every b form a subspace S over Q.  S holds the
vacuum once it is a left unit, each generator g whose triples (g, b, c) all
pass, and g x y whenever g and y are in S; so a label is in S once it is the
only label outside S in some g x y.  ``assoc`` grows S that way from the
vacuum, adding the smallest label still outside to the generators whenever S
stops growing.  When S holds every label, all n^3 triples associate.  The
honest table needs three generators, u:0:1, u:1:0 and t1:0:0, at every level.
Both sides of a triple are integer ids of multisets, and a row of triples
is one comparison of two lists of ints (see :func:`_triples`).

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
``comm`` compares ids, ``assoc``'s generators name the right sides
a x (b x c) once per id and generator, and ``qdim`` sums a product's
quantum dimensions once per id that a row it checks reads.  The table finds the vacuum's
index once, and the level is checked once, by ``enumerate_irreducibles``,
before anything is built.
The table also keeps three per-label memos, ``weight``, ``qdim`` and
``dual``, keyed by label and filled on first use by ``conformal_weight``,
``qdim_exact`` and ``contragredient``; ``catalog``, ``dual``, ``qdim`` and
``oracle`` read them, so one run evaluates each function at most once per
label.  A dual outside the catalog raises ``ValueError`` naming both labels.
``dual`` and ``qdim`` check a row at a time, each with one list equality.
In ``dual``, listed in the order of the duals of their right factors, the
row's products must equal their own columns.  ``qdim`` gives every residue
it meets one int id per value: each label's qdim, each product of two and
each sum over a product, so its row is two lists of ids.  A row that
fails reports its failures pair by pair, in the order and with the texts
of a pair-by-pair sweep.  Once their premises have passed, ``qdim`` checks
only the rows of the vacuum and of the generators, and ``dual`` only (iii)
on every label and (ii) on every pair, from a count of the vacuum in each
product; the arguments in their docstrings carry each identity to every
row.  When a check on that route fails, or a premise is missing, the suite
checks every row, as ``assoc`` checks its generators' triples, so its
failures are those of a run of it alone.  :func:`run_suites` records in
the table's ``proven`` each suite that passes on it, so no premise
outlives its table, and a suite called directly on a table takes the
route without premises.  No table, and
so no memo, outlives the call that built it, so a substituted
``fuse_irreducible``, ``conformal_weight``, ``qdim_exact`` or
``contragredient`` is always what is verified.  A report's ``elapsed``
times the checks only: a suite builds the rows it reads before its clock
starts.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, NamedTuple

from .labels import FusionVector, IrrLabel, enumerate_irreducibles, vacuum
from .weights import conformal_weight
from .qdim import QDimElement, qdim_exact
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
    lookups are mapped over the row, with no Python-level loop.  Every label
    is an operand of the first row built, so once that row is built
    ``fuse_irreducible`` has checked each in full, and every later call is
    checked by identity (see :mod:`orbifusion.fusion`).  A product
    not met before takes the next id, so ``outputs`` grows as rows are
    built.  A product with an output outside the level's catalog raises
    ``ValueError``.  A product is looked up by its vector:
    ``fuse_irreducible`` hands out one shared vector per distinct product,
    and every vector keeps the hash computed when it was built, so a lookup
    is one slot read and an identity match.  A vector hashes and compares
    as its ``(label, multiplicity)`` items, so fresh vectors from a
    substituted ``fuse_irreducible`` share ids too, and two pairs have one
    id exactly when their outputs are equal.  Once ``ids()`` has built
    every row, that lookup, ``by_vector``, is cleared.  ``vac`` is the vacuum's
    index.  A level that fails ``check_level`` raises its ``ValueError``
    from ``enumerate_irreducibles``, before anything is built.

    ``weight``, ``qdim`` and ``dual`` are per-label memos, keyed by the
    label itself (never by its index or ``i``), filled by this module's
    ``conformal_weight``, ``qdim_exact`` and ``contragredient``, each looked
    up when it fills, so the suites of one run evaluate each of them at
    most once per label.  A dual that is not a label of ``labels`` raises
    ``ValueError``.

    ``rule`` holds the coordinate rule's factors, built on first use and
    read by ``oracle`` and ``assoc``.

    ``proven`` names the suites that :func:`run_suites` has seen pass on
    this table; ``assoc``, ``dual``, ``qdim`` and ``oracle`` read their premises there.
    """

    def __init__(self, k: int):
        self.k = k
        self.labels = labels = enumerate_irreducibles(k)
        self.index = index = {lab: t for t, lab in enumerate(labels)}
        self.vac = index[vacuum(k)]
        self.outputs = outputs = []
        self.proven: set[str] = set()

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

        self.by_vector = shared = _Memo(new_id)
        repeat = itertools.repeat
        self.row = _Memo(
            lambda a: list(map(shared.__getitem__, map(fuse_irreducible, repeat(labels[a]), labels, repeat(k))))
        )
        self.weight = _Memo(lambda lab: conformal_weight(lab, k))
        self.qdim = _Memo(lambda lab: qdim_exact(lab, k))
        self.dual = _Memo(dual_of)

    @cached_property
    def rule(self) -> tuple[list[list[int]], list[range], list[int], tuple[int, int]]:
        """The coordinate rule's factors at this level, with each Clebsch-Gordan range named once.

        ``(cg, ranges, flow, shift)``: the range of ``ia x ib`` is ``ranges[cg[ia][ib]]``, and ``flow``
        and ``shift`` are as :func:`_coordinate_rule` gives them.  Built on first use, from this
        module's ``_coordinate_rule`` as looked up then, and kept for ``oracle`` and ``assoc``.
        """
        by_pair, flow, shift = _coordinate_rule(self.k)
        found: dict[range, int] = {}  # each range, by id
        cg = [[found.setdefault(rng, len(found)) for rng in row] for row in by_pair]
        return cg, list(found), flow, shift

    def ids(self) -> list[list[int]]:
        """Every row of product ids, in label order; builds the rows not built yet.

        Once every row is built no product is new, so ``by_vector``, the map from each product's
        vector to its id, is cleared (5 MB at k=200).
        """
        rows = [self.row[a] for a in range(len(self.labels))]
        self.by_vector.clear()
        return rows

    def render(self, outputs: Sequence[int]) -> str:
        """A product's outputs as ``{label: multiplicity, ...}`` in canonical order, for failure messages."""
        return "{" + ", ".join(f"{self.labels[c].token()}: {m}" for c, m in sorted(Counter(outputs).items())) + "}"


def _finish(report: VerificationReport, start: float) -> VerificationReport:
    report.elapsed = time.perf_counter() - start
    return report


def _unit(table: _FusionTable) -> VerificationReport:
    """Vacuum acts as the fusion unit on every label."""
    vac_row = table.row[table.vac]
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


def _coordinate_rule(k: int) -> tuple[list[list[range]], list[int], tuple[int, int]]:
    """The coordinate rule's factors at level ``k``, which ``oracle`` and ``assoc`` both read.

    ``cg[ia][ib]`` is SU(2)_k's truncated Clebsch-Gordan range of ``ia x ib``; the flow
    (i, lam, r) -> (k - i, lam - k, r - 3) sends ``i`` to ``flow[i]`` and adds ``shift`` to (r, lam).
    """
    span = range(k + 1)
    cg = [[range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2) for b in span] for a in span]
    return cg, [k - i for i in span], (-3, -k)


def _factor_checks(table: _FusionTable) -> int:
    """How many checks prove the factors of ``table.rule``, or 0 when one fails (see :func:`_associativity`)."""
    k, (ids, ranges, flow, (dr, dlam)) = table.k, table.rule
    span = range(k + 1)
    outputs = [tuple(sorted(rng)) for rng in ranges]  # the SU(2)_k table in assoc's form: ids are range ids
    if not set(itertools.chain.from_iterable(outputs)) <= set(span):
        return 0
    gens = _generators(ids, outputs, 0)
    holds = (
        all(outputs[p] == (b,) for b, p in enumerate(ids[0]))  # 0 is a left unit
        and ids == [list(col) for col in zip(*ids)]  # b x c = c x b
        and not any(_triples(ids, outputs, gens))  # (g x b) x c = g x (b x c)
        # N_{k-a,b}^{k-c} = N_{a,b}^c
        and all(
            [tuple(sorted(map(flow.__getitem__, outputs[p]))) for p in ids[a]] == [outputs[p] for p in ids[k - a]]
            for a in span
        )
        and dr == -3  # and the group law: lam stays i mod 2, and two flows give the identity on i
        and all(f in span and flow[f] == i and (f - i - dlam) % 2 == 0 for i, f in enumerate(flow))
    )
    return (k + 1) * (2 + (len(gens) + 2) * (k + 1)) if holds else 0


def _triples(ids: Sequence[list[int]], outputs: list[tuple[int, ...]], gens: list[int]) -> Iterator[tuple]:
    """Each ``(a, b, c)``, ``a`` in ``gens``, with (a x b) x c != a x (b x c), in that order.

    Both sides of a triple are ids of multisets of indices, named by
    ``id_of``: a product's own id, or else the next id of ``len(outputs)``
    or more in the generator's ``overlay``.  ``right[p]`` is the id of
    a x p, so a x (b x c) is ``right[ids[b][c]]``; every right side is named
    first, so a left side new to ``overlay`` equals no right side.  The left
    side (a x b) x c is ``ids[s][c]`` when a x b is one index s, comes from
    ``pair_sum``, a memo of the sorted unions of two products, when it is
    two, and is merged otherwise.  A row of b is one comparison of two
    lists of ints.  ``ids`` and ``outputs`` are only read.
    """
    n, size = len(ids), len(outputs)
    first = {out: p for p, out in enumerate(outputs)}
    for ia in gens:
        a_row = list(map(outputs.__getitem__, ids[ia]))
        overlay: dict[tuple[int, ...], int] = {}

        def id_of(multiset: tuple[int, ...]) -> int:
            p = first.get(multiset)
            return overlay.setdefault(multiset, size + len(overlay)) if p is None else p

        # the id of a x p for every product id p: a x (b x c) is right[ids[b][c]]
        right = [id_of(tuple(sorted([c for t in out for c in a_row[t]]))) for out in outputs]
        pair_sum = _Memo(lambda key: id_of(tuple(sorted(outputs[key // size] + outputs[key % size]))))
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
                lefts = list(map(id_of, map(tuple, map(sorted, merged))))
            rights = list(map(right.__getitem__, ids[ib]))
            if lefts != rights:
                yield from ((ia, ib, ic) for ic in range(n) if lefts[ic] != rights[ic])


def _associativity(table: _FusionTable) -> VerificationReport:
    """(a x b) x c = a x (b x c) on every triple, from the coordinate rule's factors or from generators.

    Both routes first check the vacuum as a left unit on its row, n checks.
    Once ``oracle`` has passed, the table is the coordinate rule, a quotient
    of a commutative ring R: R is spanned by the (i, lam, r) with i in 0..k,
    lam mod 6, r in Z and lam = i mod 2, multiplied as SU(2)_k on i and as
    the group Z/6 x Z on (lam, r).  The flow is multiplication by the unit
    J = (k, -k, -3); as it lowers r by 3, each J-orbit of R's basis holds
    one label, with r in {0, 1, 2}, and the rule, which flows each output
    with r >= 3 once, is the product of R / (J - 1).  So the table
    associates once :func:`_factor_checks`, reading the factors from
    ``table.rule`` as ``oracle`` does, finds SU(2)_k a commutative
    ring: outputs in 0..k, 0 a left unit (k+1 checks), b x c = c x b and
    (g x b) x c = g x (b x c) for each generator g that :func:`_generators`
    grows it from, i = 1 alone when honest ((k+1)^2 checks each); the flow
    multiplication by k, N_{k-a,b}^{k-c} = N_{a,b}^c ((k+1)^2 checks); and
    the group law: the flow lowers r by 3, keeps lam = i mod 2 and, applied
    twice, gives the identity on i, so that J is a unit of R (k+1 checks).

    When a factor check fails, ``oracle`` has not passed or the left unit
    fails, every triple (g, b, c) is checked instead, for each generator g
    of :func:`_generators` and every (b, c): n^2 checks per generator, found
    by :func:`_triples`, so the failures are those of ``assoc`` run alone.
    ``table`` is only read.
    """
    k, labels, ids = table.k, table.labels, table.ids()
    outputs = table.outputs
    start = time.perf_counter()
    n = len(labels)
    report = VerificationReport("assoc", k)
    _check_left_unit(table, ids[table.vac], report)
    if report.passed and "oracle" in table.proven and (checks := _factor_checks(table)):
        report.checks_run += checks
        return _finish(report, start)
    gens = _generators(ids, outputs, table.vac)
    report.checks_run += len(gens) * n * n
    for ia, ib, ic in _triples(ids, outputs, gens):
        a, b, c = labels[ia], labels[ib], labels[ic]
        left = [d for t in outputs[ids[ia][ib]] for d in outputs[ids[t][ic]]]
        right = [d for t in outputs[ids[ib][ic]] for d in outputs[ids[ia][t]]]
        report.failures.append(
            Failure(
                f"({a.token()} x {b.token()}) x {c.token()} = {table.render(left)} "
                f"but {a.token()} x ({b.token()} x {c.token()}) = {table.render(right)}",
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

    Once ``comm`` and ``assoc`` have passed on the table, (i) follows from
    (ii) and (iii), which are then the only checks: (iii) on every label and
    (ii) on every pair, from the vacuum's count in each product, n^2 + 3n
    checks.  By (ii) and (iii), d x c' holds the vacuum once when d = c and
    not otherwise, and a x e holds it once when e = a'.  So counting the
    vacuum in (a x b) x c' gives N_{a,b}^c, and in a x (b x c') it gives
    N_{b,c'}^{a'}; ``assoc`` makes the two equal.  Applied to (a, c', b')
    and read through ``comm``, that is (i):
    N_{a,c'}^{b'} = N_{c',b}^{a'} = N_{b,c'}^{a'} = N_{a,b}^c.  When a
    premise is missing, or (ii) or (iii) fails, every row is checked.
    """
    k, labels, ids = table.k, table.labels, table.ids()
    outputs, vac = table.outputs, table.vac
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
    if report.passed and {"comm", "assoc"} <= table.proven:
        vacua = [out.count(vac) for out in outputs]  # by product id
        # (ii) on row a: the counts are never negative, so they sum to 1 and a x a' holds one
        if all(sum(map(vacua.__getitem__, row)) == 1 == vacua[row[dual[ia]]] for ia, row in enumerate(ids)):
            report.checks_run += n * n
            return _finish(report, start)
    # the column form reads b = j' as j = b', so it stands for (i) only when duality is an
    # involution; (iii) reports when it is not, and every row then reports pair by pair
    involution = all(dual[d] == t for t, d in enumerate(dual))
    distinct = _Memo(lambda p: len(set(outputs[p])))  # by product id
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
    """qdim(a) * qdim(b) = sum of qdim over a x b, as exact residues.

    Once ``assoc`` has passed on the table, the rows of the vacuum and of
    the generators of :func:`_generators` prove every row.  Write d(x) for
    the sum of qdim over x, which is linear in x, and Q(x) for
    d(x x y) = d(x) d(y) for every y.  ``assoc`` gives, from Q(g) and Q(x),
    d((g x x) x y) = d(g x (x x y)) = d(g) d(x) d(y) = d(g x x) d(y), so Q
    holds on g x x, and it reaches every label through the growth of
    :func:`_generators`.  When ``assoc`` has not passed, or a checked row
    fails, every row is checked.
    """
    k, labels, ids, outputs = table.k, table.labels, table.ids(), table.outputs
    start = time.perf_counter()
    n = len(labels)
    # Every value has one int id: each label's qdim, each product of two and
    # each sum over a product (None for an empty one).  Ids go by value, never
    # by label, so a qdim that wrongly depended on a label's sector or j would
    # still be caught.  A row compares two lists of ids.
    value_id: dict[QDimElement | None, int] = {}

    def id_of(value: QDimElement | None) -> int:
        return value_id.setdefault(value, len(value_id))

    vid = [id_of(table.qdim[lab]) for lab in labels]
    values = list(value_id)  # the labels' qdims, by value id
    # products with equal qdims share one sum
    by_outputs = _Memo(lambda vs: id_of(reduce(operator.add, map(values.__getitem__, vs)) if vs else None))
    # by product id, summed when a checked row first reads it
    fusion_side = _Memo(lambda p: by_outputs[tuple(sorted([vid[c] for c in outputs[p]]))])
    times = _Memo(lambda va: [id_of(values[va] * v) for v in values])  # by value id of b

    def check_row(ia: int, report: VerificationReport) -> bool:
        """Row ``ia``, into ``report``; whether the row holds."""
        report.checks_run += n
        lhs = list(map(times[vid[ia]].__getitem__, vid))
        rhs = list(map(fusion_side.__getitem__, ids[ia]))
        if lhs == rhs:
            return True
        by_id = list(value_id)
        for ib in range(n):
            if lhs[ib] != rhs[ib]:
                a, b = labels[ia], labels[ib]
                product, total = by_id[lhs[ib]], by_id[rhs[ib]]
                report.failures.append(
                    Failure(f"qdim({a.token()}) * qdim({b.token()}) = {product} but fusion side sums to {total}", (a, b))
                )
        return False

    if "assoc" in table.proven:
        trial = VerificationReport("qdim", k)
        if all(check_row(ia, trial) for ia in [table.vac, *_generators(ids, outputs, table.vac)]):
            return _finish(trial, start)
    report = VerificationReport("qdim", k)
    for ia in range(n):
        check_row(ia, report)
    return _finish(report, start)


def _least_depth(k: int, i: int, lam: int) -> int:
    """Least depth of the sl2 weight ``lam`` (``lam = i`` mod 2) in L(k, i).

    The depth is ``(mu^2 - i^2) / (4k)`` at the extremal weights
    ``mu = -i + 2kn`` and ``i + 2kn``, and linear between neighbours.
    """
    n = (lam + i) // (2 * k)
    s = lam - 2 * k * n  # -i <= s < 2k - i
    return k * n * n + (s * n if s <= i else i * n + (2 * n + 1) * (s - i) // 2)


_E = (1, 1, -1)  # e(r): sector r reads the charge of a weight with this sign


def _j(r: int, i: int, lam: int) -> int:
    """The j of the sector-``r`` label that holds the weight-``lam`` space of L(k, i): ``e(r)*(i - lam)/2 mod 3``."""
    return _E[r] * (i - lam) // 2 % 3


def _constructed_weights(k: int) -> dict[tuple[int, int, int], int]:
    """Every label's weight times ``36*(k+2)``, from the twisted grading of L(k, i).

    The sigma^r-twisted grade of the weight-``lam`` space of L(k, i) is
    ``i(i+2)/(4(k+2)) + depth - r*lam/6 + r^2*k/36``; the space lies in
    label ``(r, i, _j(r, i, lam))``, and a label's weight is its least
    grade.  Only ``|lam| <= i + 6`` can give it: beyond, the depth grows
    faster than the twist term falls.
    """
    built: dict[tuple[int, int, int], int] = {}
    for r in range(3):
        for i in range(k + 1):
            for lam in range(-i - 6, i + 7, 2):
                key = (r, i, _j(r, i, lam))
                w = 9 * i * (i + 2) + (k + 2) * (36 * _least_depth(k, i, lam) - 6 * r * lam + r * r * k)
                built[key] = min(w, built.get(key, w))
    return built


def _catalog(table: _FusionTable) -> VerificationReport:
    """Catalog size, no label twice, each weight against :func:`_constructed_weights`, and the simple currents."""
    start = time.perf_counter()
    k, labels = table.k, table.labels
    report = VerificationReport("catalog", k)
    report.checks_run += 2
    if len(labels) != 9 * (k + 1):
        report.failures.append(Failure(f"catalog has {len(labels)} labels, expected {9 * (k + 1)}", ()))
    if len(set(labels)) != len(labels):
        report.failures.append(Failure("catalog contains duplicate labels", ()))
    built, scale = _constructed_weights(k), 36 * (k + 2)
    for lab in labels:
        report.checks_run += 2
        w = table.weight[lab]
        if w * scale != built[lab]:
            report.failures.append(
                Failure(f"weight({lab.token()}) = {w}, the construction gives {Fraction(built[lab], scale)}", (lab,))
            )
        if table.qdim[lab].is_one() != (lab.i in (0, k)):
            report.failures.append(
                Failure(f"qdim({lab.token()}) = {table.qdim[lab]}, but it is 1 exactly when i is 0 or {k}", (lab,))
            )
    return _finish(report, start)


def _oracle(table: _FusionTable) -> VerificationReport:
    """Every product and every dual against the coordinate rule.

    A label (r, i, j) is (r, i, lam) with ``lam = i - 2*(e(r)*j mod 3)``,
    the coordinates of :func:`_constructed_weights` (:func:`_j` is the way
    back).  The product of (r_a, i_a, lam_a) and (r_b, i_b, lam_b) holds once
    each (r_a + r_b, i, lam_a + lam_b), for i over SU(2)_k's truncated
    Clebsch-Gordan range of (i_a, i_b); a twist r of 3 or more flows to
    (r - 3, k - i, lam - k), since at r = 3 the construction's grading of
    (i, lam) is the untwisted grading of (k - i, lam - k).  The range and
    the flow come from :func:`_coordinate_rule`, which ``assoc`` reads.  The
    dual of (0, i, lam) is (0, i, -lam), and of a twisted (r, i, lam) it is
    (3 - r, k - i, k - lam).

    A product depends on its pair only through the Clebsch-Gordan range,
    r_a + r_b and ``(lam_a + lam_b) mod 6``, which one int key holds: the
    range's id in ``table.rule``, plus the number of ranges times
    6(r_a + r_b) + ((lam_a + lam_b) mod 6).  Row ``a``'s keys are
    ``ranges[i_a]`` plus ``twists[r_a, lam_a mod 6]``.  ``named``, a flat
    list indexed by key, names each key once: the first pair read with it
    sets the entry to its product id when its outputs are the rule's, and to
    -1 otherwise.  A row whose entries equal its ids is one list equality;
    a row that differs reads its differing pairs in order, and a pair fails
    exactly when its outputs are not the rule's, so an honest pair that
    shares a key with a wrong one still passes.  A rule output that is no
    label (an r outside 0..2, an i outside 0..k before or after the flow,
    or an i of another parity than lam) fails every pair with its key.  No
    dict over the table's outputs is built, and each key's outputs are
    listed only when a pair first reads it or fails.

    The key is symmetric in a and b.  Once ``comm`` is in the table's
    ``proven``, the ids are symmetric too, so only the pairs b >= a of each
    row are compared, n(n+1)/2 checks.  When one of them fails, every row is
    compared on a fresh report, so the failures are those of ``oracle`` run
    alone; that, and a run without ``comm``, is n^2 checks.  Then n checks
    of the duals.
    """
    k, labels, ids, outputs = table.k, table.labels, table.ids(), table.outputs
    start = time.perf_counter()
    n, index = len(labels), table.index
    coords = [(r, i, i - 2 * (_E[r] * j % 3)) for r, i, j in labels]
    column_i = [i for _, i, _ in coords]
    # at[r][lam % 6] maps each i for which (r, i, lam) is a label, 0 <= i <= k with i = lam (mod 2), to its index
    at = {r: [{i: index[r, i, _j(r, i, lam)] for i in range(lam % 2, k + 1, 2)} for lam in range(6)] for r in range(3)}

    cg, range_of, flow, (dr, dlam) = table.rule
    n_ranges, flow_of = len(range_of), dict(zip(range(k + 1), flow))  # the flow is defined on 0 <= i <= k

    def rule(key: int) -> tuple[int, ...] | None:
        """The sorted output indices that the rule gives the product of ``key``, or None when one is no label."""
        its, (r, lam) = range_of[key % n_ranges], divmod(key // n_ranges, 6)
        try:
            if r >= 3:  # the flow
                its, r, lam = map(flow_of.__getitem__, its), r + dr, lam + dlam
            return tuple(sorted(map(at[r][lam % 6].__getitem__, its)))
        except KeyError:  # an r or i that is no label's, or an i the flow does not take
            return None

    # named[key]: None until a pair with that key is read, then the first such pair's product id
    # if its outputs are rule(key), else -1
    named: list[int | None] = [None] * (30 * n_ranges)
    ranges = _Memo(lambda i: list(map(cg[i].__getitem__, column_i)))  # by i_a: each column's range id
    twists = _Memo(lambda rl: [n_ranges * (6 * (rl[0] + r) + (rl[1] + lam) % 6) for r, _, lam in coords])

    def sweep(half: bool) -> VerificationReport:
        """Every row, or only its pairs b >= a when ``half``, into a fresh report."""
        report = VerificationReport("oracle", k)
        for ia, (a, (r, i, lam), row) in enumerate(zip(labels, coords, ids)):
            lo = ia if half else 0
            report.checks_run += n - lo
            keys = list(map(operator.add, ranges[i][lo:], twists[r, lam % 6][lo:]))
            cols = row[lo:]
            if list(map(named.__getitem__, keys)) == cols:
                continue
            # the entries are read again as the pairs are: a pair may set the entry of a later one
            for b, key, p in itertools.compress(
                zip(labels[lo:], keys, cols), map(operator.ne, map(named.__getitem__, keys), cols)
            ):
                if named[key] is None:
                    named[key] = p if outputs[p] == rule(key) else -1
                if named[key] != p and outputs[p] != (want := rule(key)):
                    got = table.render(outputs[p])
                    want = f"an output that is no label at level {k}" if want is None else table.render(want)
                    report.failures.append(
                        Failure(f"{a.token()} x {b.token()} = {got}, the coordinate rule gives {want}", (a, b))
                    )
        return report

    half = "comm" in table.proven
    report = sweep(half)
    if half and not report.passed:  # a pair differs: every row, as oracle alone reports it
        report = sweep(False)
    report.checks_run += n
    for lab, (r, i, lam) in zip(labels, coords):
        dual = (0, i, _j(0, i, -lam)) if r == 0 else (3 - r, k - i, _j(3 - r, k - i, k - lam))
        d, want = table.dual[lab], labels[index[dual]]
        if d != want:
            report.failures.append(
                Failure(f"dual of {lab.token()} is {d.token()}, the coordinate rule gives {want.token()}", (lab,))
            )
    return _finish(report, start)


#: Every suite, in ``verify --suite all`` order, keyed to its body, which takes a table.  Each suite follows
#: the premises it reads from ``proven``: ``comm`` for ``oracle``, ``oracle`` for ``assoc``, and ``comm`` and
#: ``assoc`` for ``dual`` and ``qdim``.
SUITES: dict[str, Callable[[_FusionTable], VerificationReport]] = {
    "catalog": _catalog,
    "unit": _unit,
    "comm": _commutativity,
    "oracle": _oracle,
    "assoc": _associativity,
    "dual": _duality,
    "qdim": _qdim_homomorphism,
}


def run_suites(names: Iterable[str], k: int) -> list[VerificationReport]:
    """Run the named suites at level ``k``, in the order given, on one shared table.

    Raises ``ValueError``, before any suite runs, for a name not in
    :data:`SUITES` (a string is not a list of names) and for a level that
    fails :func:`check_level`.  Each suite that passes is recorded in the
    table's ``proven``, where ``oracle``, ``assoc``, ``dual`` and ``qdim`` read their premises.
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
    table = _FusionTable(k)
    reports = []
    for name in names:
        reports.append(report := SUITES[name](table))
        if report.passed:
            table.proven.add(name)
    return reports
