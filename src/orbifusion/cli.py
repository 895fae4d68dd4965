"""Command-line front end for the orbifold catalog.

Subcommands query one level-``k`` catalog at a time: ``catalog`` lists every
irreducible module with weight, quantum dimension, dual and generating
vector; ``fuse``/``coeff``/``dual`` expose the fusion ring; ``qdim`` and
``glob`` the quantum dimensions; ``verify`` runs the identity suites.

Labels on the command line use the grammar ``u:<i>:<j>``, ``t1:<i>:<j>``,
``t2:<i>:<j>`` (lowercase, colon-separated).  Conformal weights are always
printed as exact fractions, never floats.  Exit status: 0 success; 1 a failed
identity, a closed stdout, or a fault (found while a suite runs, or an ``--out``
file that cannot be opened) printed as ``Error: <message>``; 2 a usage error,
printed as argparse's usage line and ``orbifusion <command>: error: <message>``
(``orbifusion: error: <message>`` for an error before the command).
"""

import argparse
import csv
import io
import json
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii

import mpmath

from .labels import IrrLabel, enumerate_irreducibles, parse_label
from .weights import conformal_weight, generator_desc
from .qdim import global_dimension, qdim_numeric
from .fusion import contragredient, fuse_irreducible, fusion_coefficient
from .verify import SUITES, run_suites


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


def _label(text: str, k: int) -> IrrLabel:
    try:
        return parse_label(text, k)
    except ValueError as err:
        raise argparse.ArgumentError(None, str(err)) from None  # a usage error: run lets argparse print it


def _fixed(value: mpmath.mpf, decimals: int) -> str:
    """Render ``value`` with exactly ``decimals`` decimal places, rounded exactly.

    The mpf is the binary fraction ``man * 2**exp``; the printed number is
    that fraction times ``10**decimals`` rounded half-even to an integer,
    in integer arithmetic, then written with the decimal point
    ``decimals`` places from the right.  So the digits are the exact
    rounding of the value ``value`` holds, for any ``decimals`` (no limit
    of a decimal context, nor of ``str(int)``).  How close that value is to
    the true number is up to the precision it was computed at.  A negative
    value is written with a leading ``-``, as ``-0.00`` when it rounds to
    zero; an infinity or NaN raises ``ValueError``.
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
    digits = str(Decimal(units))  # str(int) refuses 4300 digits and more; a Decimal has no such limit
    if not decimals:
        return f"{sign}{digits}"
    digits = digits.rjust(decimals + 1, "0")
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def _emit(text: str, out: str) -> int:
    """Print ``text`` to stdout (``out`` is ``-``) or to the file ``out``, opened only now; the exit status."""
    if out == "-":
        print(text)
        return 0
    try:
        stream = open(out, "w")
    except OSError as err:
        print(f"Error: Could not open file {out!r}: {err.strerror}", file=sys.stderr)
        return 1
    with stream:
        stream.write(text + "\n")
    return 0


def _table(fmt: str, header: list[str], rows: list[tuple[str, ...]]) -> str:
    """``rows`` under ``header`` as CSV (``fmt`` is ``csv``) or as a markdown table."""
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([header, *rows])
        return buffer.getvalue().rstrip("\n")
    lines = [header, ["---" for _ in header], *rows]
    return "\n".join("| " + " | ".join(row) + " |" for row in lines)


_MODULE_FIELDS = ("pretty", "weight", "qdim", "dual", "generator")


def _catalog_json(k: int, rows: list[tuple[str, ...]]) -> str:
    """The catalog document, byte for byte as ``json.dumps(doc, indent=2)`` writes it.

    Each row is a tuple of strings, the label and then one value per field
    of ``_MODULE_FIELDS``, and there is at least one row.  ``doc`` is
    ``{"level": k, "modules": {label: {field: value}}}``.  ``json.dumps``
    runs its pure-Python encoder whenever ``indent`` is set, so the fixed
    layout is written here and every string goes through json's own C string
    encoder instead.
    """
    keys = [f"      {encode_basestring_ascii(field)}: " for field in _MODULE_FIELDS]
    modules = []
    for label, *fields in rows:
        body = ",\n".join([key + encode_basestring_ascii(value) for key, value in zip(keys, fields)])
        modules.append(f"    {encode_basestring_ascii(label)}: {{\n{body}\n    }}")
    return f'{{\n  "level": {k},\n  "modules": {{\n' + ",\n".join(modules) + "\n  }\n}"


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports its own unrecognized arguments with its own usage, first.

    argparse parses a subcommand with ``parse_known_args`` and hands what is
    left up to the root parser, which would report it with the root usage.
    It also checks required arguments before it returns what is left, so
    ``verify --lev 3`` would be told that ``--level`` is missing.  So when a
    parse fails, its arguments are parsed once more with nothing required,
    and what that leaves over, if anything, is reported instead.
    """

    _args = None  # the arguments while a parse runs, () while the second parse runs

    def parse_known_args(self, args=None, namespace=None):
        self._args = args
        try:
            parsed, extra = super().parse_known_args(args, namespace)
        finally:
            self._args = None
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed, extra

    def error(self, message):
        args = self._args
        if args == ():  # the second parse failed too: report the first error
            raise argparse.ArgumentError(None, message)
        if args is not None:
            self._args = ()
            required = [action for action in self._actions if action.required]
            for action in required:
                action.required = False
            try:
                extra = super().parse_known_args(args)[1]
            except argparse.ArgumentError:
                extra = []
            finally:
                for action in required:
                    action.required = True
            if extra:
                message = f"unrecognized arguments: {' '.join(extra)}"
        super().error(message)


_parser = argparse.ArgumentParser(prog="orbifusion", allow_abbrev=False,
                                  description="Exact data of the Z3-orbifold affine sl2 catalog at level k.")
_subparsers = _parser.add_subparsers(metavar="COMMAND", required=True, parser_class=_CommandParser)
_FORMAT = "-f --format", {"dest": "fmt", "choices": ("json", "csv", "markdown"), "default": "json", "metavar": "FORMAT",
                          "help": "json, csv or markdown (default: json)"}
_OUT = "--out", {"default": "-", "metavar": "FILE", "help": "write the document to FILE (default: -, stdout)"}


def _command(labels: str, *options: tuple[str, dict]):
    """Bind the function's name to a new subcommand parser whose ``callback`` is the function; the parser
    takes ``--level``, one label argument per letter of ``labels`` (``"AB"``: A and B) and ``options``."""

    def add(callback) -> argparse.ArgumentParser:
        doc = callback.__doc__
        command = _subparsers.add_parser(callback.__name__, help=doc, description=doc, allow_abbrev=False)
        command.add_argument("-k", "--level", dest="k", metavar="K", type=_at_least_one, required=True,
                             help="level k of the catalog, at least 1")
        for name in labels:
            command.add_argument(name.lower(), metavar=name, help="a label such as u:0:0, t1:1:2 or t2:0:1")
        for flags, settings in options:
            command.add_argument(*flags.split(), **settings)
        command.set_defaults(command=command)
        command.callback = callback
        return command

    return add


@_command("", _FORMAT, _OUT)
def catalog(k: int, fmt: str, out: str) -> int:
    """List all 9(k+1) irreducible modules with their invariants."""
    labels = enumerate_irreducibles(k)
    tokens = [lab.token() for lab in labels]
    token_of = dict(zip(labels, tokens))  # every dual is a catalog label: its token is rendered once
    qdims: dict[int, str] = {}  # qdim_numeric reads label.i only
    for lab in labels:
        if lab.i not in qdims:
            qdims[lab.i] = _fixed(qdim_numeric(lab, k, precision=20), 12)
    pretty = [lab.pretty(k) for lab in labels]
    weights = [str(conformal_weight(lab, k)) for lab in labels]
    qdim_column = [qdims[lab.i] for lab in labels]
    duals = [token_of[contragredient(lab, k)] for lab in labels]
    generators = [generator_desc(lab, k) for lab in labels]
    if fmt == "markdown":
        pretty_of = dict(zip(tokens, pretty))
        rows = list(zip(pretty, weights, qdim_column, [pretty_of[dual] for dual in duals], generators))
        return _emit(_table(fmt, ["module", "weight", "qdim", "dual", "generator"], rows), out)
    rows = list(zip(tokens, pretty, weights, qdim_column, duals, generators))  # ("label", *_MODULE_FIELDS)
    if fmt == "json":
        return _emit(_catalog_json(k, rows), out)
    return _emit(_table(fmt, ["label", *_MODULE_FIELDS], rows), out)


@_command("AB", _FORMAT, _OUT)
def fuse(k: int, a: str, b: str, fmt: str, out: str) -> int:
    """Fusion product A x B as a multiplicity vector."""
    product = fuse_irreducible(_label(a, k), _label(b, k), k)
    if fmt == "json":
        return _emit(json.dumps({lab.token(): mult for lab, mult in product.items()}), out)
    rows = [(lab.token() if fmt == "csv" else lab.pretty(k), str(mult)) for lab, mult in product.items()]
    return _emit(_table(fmt, ["label" if fmt == "csv" else "module", "multiplicity"], rows), out)


@_command("ABC")
def coeff(k: int, a: str, b: str, c: str) -> None:
    """Fusion coefficient: multiplicity of C in A x B."""
    print(fusion_coefficient(_label(a, k), _label(b, k), _label(c, k), k))


@_command("A")
def dual(k: int, a: str) -> None:
    """Label of the contragredient module of A."""
    print(contragredient(_label(a, k), k).token())


@_command("A", ("--digits", {"type": _at_least_one, "default": 12, "help": "decimal places to print (default: 12)"}))
def qdim(k: int, a: str, digits: int) -> None:
    """Quantum dimension of A, printed to the requested precision."""
    print(_fixed(qdim_numeric(_label(a, k), k, precision=digits + 5), digits))


@_command("")
def glob(k: int) -> None:
    """Global dimension 9 * sum of squared quantum dimensions."""
    exact, numeric = global_dimension(k)
    print(json.dumps({"level": k, "exact": str(exact), "numeric": _fixed(numeric, 12)}))


@_command("", ("--suite", {"choices": [*SUITES, "all"], "default": "all", "help": "suite to run (default: all)"}))
def verify(k: int, suite: str) -> int:
    """Run verification suites; exit 1 if any identity fails."""
    names = list(SUITES) if suite == "all" else [suite]
    try:
        reports = run_suites(names, k)
    except ValueError as err:  # a fault found while a suite runs, not a usage error
        print(f"Error: {err}", file=sys.stderr)
        return 1
    for report in reports:
        print(report.summary(), flush=True)  # before its failures, as a merged stdout and stderr show them
        for failure in report.failures[:20]:
            print(f"  {failure.render()}", file=sys.stderr)
        if len(report.failures) > 20:
            print(f"  ... {len(report.failures) - 20} more failures", file=sys.stderr)
    return 0 if all(report.passed for report in reports) else 1


def run(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit status."""
    try:
        options = vars(_parser.parse_args(argv))
        command = options.pop("command")
        try:
            status = command.callback(**options)
        except argparse.ArgumentError as err:  # a label the level does not have
            command.error(str(err))
        sys.stdout.flush()  # so that a closed pipe is seen here
    except SystemExit as exc:  # --help, or argparse's usage error
        return exc.code
    except BrokenPipeError:  # the reader has gone
        return 1
    return status or 0


if __name__ == "__main__":
    sys.exit(run())
