import itertools
from decimal import ROUND_HALF_EVEN, Context, Decimal
from typing import NamedTuple

import mpmath
import pytest

from orbifusion.cli import run
from orbifusion.fusion import contragredient
from orbifusion.labels import enumerate_irreducibles, vacuum
from orbifusion.qdim import qdim_exact
from orbifusion.verify import Failure, VerificationReport, _generators
from orbifusion.weights import conformal_weight


def _associative_by_sweep(products):
    """Reference for ``assoc``: the cubic sweep of (a x b) x c = a x (b x c).

    ``products`` is a fusion table's integer rows; every one of the n^3
    triples is compared as a multiset, and the first failure ends the sweep.
    """
    n = len(products)
    for ia in range(n):
        for ib in range(n):
            for ic in range(n):
                left = {}
                for t in products[ia][ib]:
                    for c in products[t][ic]:
                        left[c] = left.get(c, 0) + 1
                right = {}
                for t in products[ib][ic]:
                    for c in products[ia][t]:
                        right[c] = right.get(c, 0) + 1
                if left != right:
                    return False
    return True


@pytest.fixture
def associative_by_sweep():
    return _associative_by_sweep


def _associativity_by_triple(table, products):
    """Reference for ``assoc``'s failures: the vacuum as left unit, then one triple (g, b, c) at a time.

    ``products`` is ``table``'s integer rows.  The generators g are the
    suite's own, read from ``table``; both sides of every triple are built
    afresh as sorted lists and compared, and a failure carries the suite's
    text.
    """
    k, labels = table.k, table.labels
    n = len(labels)
    report = VerificationReport("assoc", k)
    vac = table.index[vacuum(k)]
    for ib, lab in enumerate(labels):
        report.checks_run += 1
        if products[vac][ib] != (ib,):
            report.failures.append(
                Failure(
                    f"vacuum x {lab.token()} = {table.render(products[vac][ib])}, expected {{{lab.token()}: 1}}",
                    (lab,),
                )
            )
    for ia in _generators(table.ids(), table.outputs, vac):
        for ib, ic in itertools.product(range(n), repeat=2):
            report.checks_run += 1
            left = sorted(d for t in products[ia][ib] for d in products[t][ic])
            right = sorted(d for t in products[ib][ic] for d in products[ia][t])
            if left != right:
                a, b, c = labels[ia], labels[ib], labels[ic]
                report.failures.append(
                    Failure(
                        f"({a.token()} x {b.token()}) x {c.token()} = {table.render(left)} "
                        f"but {a.token()} x ({b.token()} x {c.token()}) = {table.render(right)}",
                        (a, b, c),
                    )
                )
    return report


@pytest.fixture
def associativity_by_triple():
    return _associativity_by_triple


def _products_by_pair(k, fuse):
    """Reference for a ``_FusionTable``'s rows: one fresh tuple per ordered pair.

    Nothing is shared between pairs; each product's output indices come in
    its canonical order, repeated by multiplicity.
    """
    labels = enumerate_irreducibles(k)
    index = {lab: t for t, lab in enumerate(labels)}
    return [
        [tuple(index[c] for c, m in fuse(a, b, k).items() for _ in range(m)) for b in labels]
        for a in labels
    ]


def _table_rows(table):
    """A fusion table's products as rows of output tuples, read through its product ids."""
    return [[table.outputs[p] for p in row] for row in table.ids()]


def _duality_by_pair(table, products):
    """Reference for ``dual``: parts (ii) and (i) checked pair by pair on ``table``'s rows ``products``."""
    k, labels = table.k, table.labels
    n = len(labels)
    report = VerificationReport("dual", k)
    duals = {lab: contragredient(lab, k) for lab in labels}
    for lab in labels:  # part (iii)
        report.checks_run += 3
        d = duals[lab]
        if contragredient(d, k) != lab:
            report.failures.append(Failure(f"dual(dual({lab.token()})) = {contragredient(d, k).token()}", (lab,)))
        if conformal_weight(d, k) != conformal_weight(lab, k):
            report.failures.append(
                Failure(
                    f"weight changes under dual: {lab.token()} has {conformal_weight(lab, k)}, "
                    f"{d.token()} has {conformal_weight(d, k)}",
                    (lab, d),
                )
            )
        if qdim_exact(d, k) != qdim_exact(lab, k):
            report.failures.append(
                Failure(
                    f"qdim changes under dual: {lab.token()} -> {qdim_exact(lab, k)}, "
                    f"{d.token()} -> {qdim_exact(d, k)}",
                    (lab, d),
                )
            )
    dual = [table.index[duals[lab]] for lab in labels]
    vac = table.index[vacuum(k)]
    for ia, ib in itertools.product(range(n), repeat=2):
        product = products[ia][ib]
        report.checks_run += 1  # part (ii)
        vac_mult = product.count(vac)
        expected = 1 if ib == dual[ia] else 0
        if vac_mult != expected:
            a, b = labels[ia], labels[ib]
            report.failures.append(
                Failure(f"N_{{{a.token()},{b.token()}}}^vacuum = {vac_mult}, expected {expected}", (a, b))
            )
        for ic in dict.fromkeys(product):  # part (i), positive sweep
            report.checks_run += 1
            mult = product.count(ic)
            partner = products[ia][dual[ic]].count(dual[ib])
            if partner != mult:
                a, b, c = labels[ia], labels[ib], labels[ic]
                report.failures.append(
                    Failure(
                        f"N_{{{a.token()},{b.token()}}}^{{{c.token()}}} = {mult} but "
                        f"N_{{{a.token()},{duals[c].token()}}}^{{{duals[b].token()}}} = {partner}",
                        (a, b, c),
                    )
                )
    return report


def _qdim_by_pair(table, products):
    """Reference for ``qdim``: one residue comparison per ordered pair of ``products``, memoised by value."""
    k, labels = table.k, table.labels
    n = len(labels)
    report = VerificationReport("qdim", k)
    value_id = {}
    vid = [value_id.setdefault(qdim_exact(lab, k), len(value_id)) for lab in labels]
    values = list(value_id)
    lhs_memo = {}
    rhs_memo = {}
    for ia, ib in itertools.product(range(n), repeat=2):
        report.checks_run += 1
        key = (vid[ia], vid[ib])
        lhs = lhs_memo.get(key)
        if lhs is None:
            lhs = lhs_memo[key] = values[key[0]] * values[key[1]]
        outputs = tuple(sorted(vid[c] for c in products[ia][ib]))
        if outputs in rhs_memo:
            rhs = rhs_memo[outputs]
        else:
            rhs = None
            for v in outputs:
                rhs = values[v] if rhs is None else rhs + values[v]
            rhs_memo[outputs] = rhs
        if rhs is None or lhs != rhs:
            a, b = labels[ia], labels[ib]
            report.failures.append(
                Failure(f"qdim({a.token()}) * qdim({b.token()}) = {lhs} but fusion side sums to {rhs}", (a, b))
            )
    return report


@pytest.fixture
def table_rows():
    return _table_rows


@pytest.fixture
def products_by_pair():
    return _products_by_pair


@pytest.fixture
def duality_by_pair():
    return _duality_by_pair


@pytest.fixture
def qdim_by_pair():
    return _qdim_by_pair


def _context_qdim_numeric(i, k, precision):
    """Reference for ``qdim_numeric``: the sine ratio through mpmath's context, all recomputed.

    ``theta``, its sine, the angle ``(i+1)*theta``, its sine and the
    quotient are each rounded at ``precision + 10`` working digits inside
    ``mpmath.workdps``.
    """
    with mpmath.workdps(precision + 10):
        theta = mpmath.pi / (k + 2)
        return +(mpmath.sin((i + 1) * theta) / mpmath.sin(theta))


def _context_global_numeric(k):
    """Reference for the numeric half of ``global_dimension``: ``9 * fsum`` of squared ratios at 25 digits."""
    with mpmath.workdps(25):
        theta = mpmath.pi / (k + 2)
        sin1 = mpmath.sin(theta)
        return +(9 * mpmath.fsum((mpmath.sin((i + 1) * theta) / sin1) ** 2 for i in range(k + 1)))


def _decimal_fixed(value, decimals):
    """Reference for ``cli._fixed``: the exact binary value of ``value``, rounded half-even by ``decimal``.

    ``man * 2**exp`` is ``man * 5**-exp`` times ``10**exp`` when ``exp < 0``,
    and a Decimal built from that int's digits holds that exactly (no
    ``str(int)``, which refuses 4300 digits and more); the context carries
    every digit of the rounded result, and ``format(..., "f")`` writes it
    without an exponent.
    """
    negative, man, exp, _ = value._mpf_
    coefficient, exponent = (man << exp, 0) if exp >= 0 else (man * 5 ** -exp, exp)
    exact = Decimal((negative, Decimal(coefficient).as_tuple().digits, exponent))
    context = Context(prec=Decimal(man).adjusted() + 1 + max(exp, 0) + decimals + 10)
    return format(exact.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_EVEN, context=context), "f")


def _nstr_fixed(value, decimals):
    """Reference for ``cli._fixed`` where the output is fixed: ``nstr`` to ``decimals + 15`` digits, then ``Decimal``."""
    digits = mpmath.nstr(value, decimals + 15)
    return str(Decimal(digits).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_EVEN))


@pytest.fixture
def context_qdim_numeric():
    return _context_qdim_numeric


@pytest.fixture
def context_global_numeric():
    return _context_global_numeric


@pytest.fixture
def decimal_fixed():
    return _decimal_fixed


@pytest.fixture
def nstr_fixed():
    return _nstr_fixed


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def invoke(capsys):
    """Run one ``orbifusion`` command line through ``cli.run``: its exit status, stdout and stderr."""

    def invoke(*args):
        capsys.readouterr()
        code = run(list(args))
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return invoke
