"""Command-line front end for the orbifold catalog.

Subcommands query one level-``k`` catalog at a time: ``catalog`` lists every
irreducible module with weight, quantum dimension, dual and generating
vector; ``fuse``/``coeff``/``dual`` expose the fusion ring; ``qdim`` and
``glob`` the quantum dimensions; ``verify`` runs the identity suites.

Labels on the command line use the grammar ``u:<i>:<j>``, ``t1:<i>:<j>``,
``t2:<i>:<j>`` (lowercase, colon-separated).  Conformal weights are always
printed as exact fractions, never floats.  Exit status: 0 success, 1
verification failure (a failed identity, or a fault found while a suite
runs), 2 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

import click
import mpmath

from .labels import IrrLabel, enumerate_irreducibles, parse_label
from .weights import conformal_weight, generator_desc
from .qdim import global_dimension, qdim_numeric
from .fusion import contragredient, fuse_irreducible, fusion_coefficient
from .verify import SUITES, run_suites

FORMATS = click.Choice(["json", "csv", "markdown"])
SUITE_NAMES = [*SUITES, "all"]

_level_option = click.option(
    "--level", "-k", "k", type=click.IntRange(min=1), required=True, help="Level k of the catalog."
)


def _label(text: str, k: int) -> IrrLabel:
    try:
        return parse_label(text, k)
    except ValueError as err:
        raise click.UsageError(str(err))


def _fixed(value: mpmath.mpf, decimals: int) -> str:
    """Render ``value`` with exactly ``decimals`` decimal places, rounded exactly.

    The mpf is the binary fraction ``man * 2**exp``; the printed number is
    that fraction times ``10**decimals`` rounded half-even to an integer,
    in integer arithmetic, then written with the decimal point
    ``decimals`` places from the right.  So the digits are the exact
    rounding of the value ``value`` holds, for any ``decimals`` (no limit
    of a decimal context).  How close that value is to the true number is
    up to the precision it was computed at.  A negative value is written
    with a leading ``-``, as ``-0.00`` when it rounds to zero; an infinity
    or NaN raises ``ValueError``.
    """
    negative, man, exp, _ = value._mpf_
    if not man and exp:
        raise ValueError(f"cannot render {value} with fixed decimals")
    sign = "-" if negative else ""
    scaled = man * 10 ** decimals
    if exp >= 0:
        units = scaled << exp
    else:
        units, rest = divmod(scaled, 1 << -exp)
        half = 1 << (-exp - 1)
        if rest > half or (rest == half and units & 1):
            units += 1
    if not decimals:
        return f"{sign}{units}"
    digits = str(units).rjust(decimals + 1, "0")
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def _emit(text: str, out) -> None:
    click.echo(text, file=out)  # click writes to stdout when out is None


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


_MODULE_FIELDS = ("pretty", "weight", "qdim", "dual", "generator")


def _catalog_json(k: int, rows: list[dict[str, str]]) -> str:
    """The catalog document, byte for byte as ``json.dumps(doc, indent=2)`` writes it.

    ``doc`` is ``{"level": k, "modules": {label: {field: value}}}`` with the
    fields of ``_MODULE_FIELDS``, all strings, and at least one module.
    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set,
    so the fixed layout is written here and every string goes through json's
    own C string encoder instead.
    """
    keys = [f"      {encode_basestring_ascii(field)}: " for field in _MODULE_FIELDS]
    modules = []
    for row in rows:
        body = ",\n".join([key + encode_basestring_ascii(row[field]) for key, field in zip(keys, _MODULE_FIELDS)])
        modules.append(f"    {encode_basestring_ascii(row['label'])}: {{\n{body}\n    }}")
    return f'{{\n  "level": {k},\n  "modules": {{\n' + ",\n".join(modules) + "\n  }\n}"


@click.group()
def main() -> None:
    """Exact data of the Z3-orbifold affine sl2 catalog at level k."""


@main.command()
@_level_option
@click.option("--format", "-f", "fmt", type=FORMATS, default="json", show_default=True)
@click.option("--out", type=click.File("w"), default=None, help="Write the document to a file.")
def catalog(k: int, fmt: str, out) -> None:
    """List all 9(k+1) irreducible modules with their invariants."""
    rows = []
    qdims: dict[int, str] = {}  # qdim_numeric reads label.i only
    for lab in enumerate_irreducibles(k):
        if lab.i not in qdims:
            qdims[lab.i] = _fixed(qdim_numeric(lab, k, precision=20), 12)
        rows.append(
            {
                "label": lab.token(),
                "pretty": lab.pretty(k),
                "weight": str(conformal_weight(lab, k)),
                "qdim": qdims[lab.i],
                "dual": contragredient(lab, k).token(),
                "generator": generator_desc(lab, k),
            }
        )
    if fmt == "json":
        _emit(_catalog_json(k, rows), out)
    elif fmt == "csv":
        header = ["label", *_MODULE_FIELDS]
        _emit(_csv_table(header, [[row[h] for h in header] for row in rows]), out)
    else:
        header = ["module", "weight", "qdim", "dual", "generator"]
        dual_pretty = {row["label"]: row["pretty"] for row in rows}
        body = [[row["pretty"], row["weight"], row["qdim"], dual_pretty[row["dual"]], row["generator"]] for row in rows]
        _emit(_markdown_table(header, body), out)


@main.command()
@_level_option
@click.argument("a")
@click.argument("b")
@click.option("--format", "-f", "fmt", type=FORMATS, default="json", show_default=True)
@click.option("--out", type=click.File("w"), default=None, help="Write the document to a file.")
def fuse(k: int, a: str, b: str, fmt: str, out) -> None:
    """Fusion product A x B as a multiplicity vector."""
    product = fuse_irreducible(_label(a, k), _label(b, k), k)
    entries = [(lab.token(), mult) for lab, mult in product.items()]
    if fmt == "json":
        _emit(json.dumps(dict(entries)), out)
    elif fmt == "csv":
        _emit(_csv_table(["label", "multiplicity"], [[tok, str(m)] for tok, m in entries]), out)
    else:
        pretty = {lab.token(): lab.pretty(k) for lab in product}
        _emit(_markdown_table(["module", "multiplicity"], [[pretty[tok], str(m)] for tok, m in entries]), out)


@main.command()
@_level_option
@click.argument("a")
@click.argument("b")
@click.argument("c")
def coeff(k: int, a: str, b: str, c: str) -> None:
    """Fusion coefficient: multiplicity of C in A x B."""
    click.echo(fusion_coefficient(_label(a, k), _label(b, k), _label(c, k), k))


@main.command()
@_level_option
@click.argument("a")
def dual(k: int, a: str) -> None:
    """Label of the contragredient module of A."""
    click.echo(contragredient(_label(a, k), k).token())


@main.command()
@_level_option
@click.argument("a")
@click.option("--digits", type=click.IntRange(min=1), default=12, show_default=True,
              help="Decimal places to print.")
def qdim(k: int, a: str, digits: int) -> None:
    """Quantum dimension of A, printed to the requested precision."""
    value = qdim_numeric(_label(a, k), k, precision=digits + 5)
    click.echo(_fixed(value, digits))


@main.command()
@_level_option
def glob(k: int) -> None:
    """Global dimension 9 * sum of squared quantum dimensions."""
    exact, numeric = global_dimension(k)
    click.echo(json.dumps({"level": k, "exact": str(exact), "numeric": _fixed(numeric, 12)}))


@main.command()
@_level_option
@click.option("--suite", type=click.Choice(SUITE_NAMES), default="all", show_default=True)
def verify(k: int, suite: str) -> None:
    """Run verification suites; exit 1 if any identity fails."""
    if suite == "oracle" and k != 1:
        raise click.UsageError("the lattice oracle is a level-1 statement; run it with --level 1")
    names = [name for name in SUITES if name != "oracle" or k == 1] if suite == "all" else [suite]
    try:
        reports = run_suites(names, k)
    except ValueError as err:  # a fault found while a suite runs, not a usage error
        raise click.ClickException(str(err))
    failed = False
    for report in reports:
        click.echo(report.summary())
        if not report.passed:
            failed = True
            for failure in report.failures[:20]:
                click.echo(f"  {failure.render()}", err=True)
            if len(report.failures) > 20:
                click.echo(f"  ... {len(report.failures) - 20} more failures", err=True)
    if failed:
        sys.exit(1)


def run(argv: list[str] | None = None) -> int:
    """Invoke the command line programmatically, returning the exit status."""
    try:
        main.main(args=argv, prog_name="orbifusion", standalone_mode=True)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
