import csv
import hashlib
import io
import json
import random
import sys

import mpmath
import pytest

import orbifusion.cli as cli
from orbifusion.cli import _fixed, run
from orbifusion.labels import IrrLabel, Sector, parse_label
from orbifusion.qdim import global_dimension, qdim_numeric


def test_fuse_json_matches_expected_document(invoke):
    result = invoke("fuse", "--level", "1", "u:0:1", "u:0:2")
    assert result.exit_code == 0
    assert result.stdout.strip() == '{"u:0:0": 1}'


def test_fuse_output_is_order_independent(invoke):
    ab = invoke("fuse", "--level", "3", "t1:2:1", "t2:1:0")
    ba = invoke("fuse", "--level", "3", "t2:1:0", "t1:2:1")
    assert ab.exit_code == ba.exit_code == 0
    assert ab.stdout == ba.stdout  # byte-identical


def test_fuse_csv_and_markdown(invoke):
    by_fmt = {
        fmt: invoke("fuse", "--level", "2", "t1:1:0", "t2:1:0", "--format", fmt)
        for fmt in ("csv", "markdown")
    }
    rows = list(csv.reader(io.StringIO(by_fmt["csv"].stdout)))
    assert rows[0] == ["label", "multiplicity"]
    assert rows[1:] == [["u:0:0", "1"], ["u:2:1", "1"]]
    md = by_fmt["markdown"].stdout.splitlines()
    assert md[0] == "| module | multiplicity |"
    assert "| L(2,0)^0 | 1 |" in md


def test_qdim_digits(invoke):
    result = invoke("qdim", "--level", "2", "u:1:0", "--digits", "10")
    assert result.exit_code == 0
    assert result.stdout.strip() == "1.4142135624"
    result = invoke("qdim", "--level", "1", "u:1:0")
    assert result.stdout.strip() == "1.000000000000"


@pytest.mark.parametrize(
    "digits, k, label",
    [(digits, k, label) for digits in (28, 40, 100) for k, label in [(7, "u:3:0"), (200, "u:100:0"), (200, "t1:37:2")]]
    + [(4400, 7, "u:3:0")],
)
def test_qdim_prints_any_number_of_digits_correctly_rounded(invoke, decimal_fixed, k, label, digits):
    # beyond 27 digits a 28-digit decimal context used to overflow, and from
    # 4300 digits on str(int) refuses the conversion; the value is checked
    # against a sine ratio carried to 2 * digits + 20 digits
    result = invoke("qdim", "--level", str(k), label, "--digits", str(digits))
    assert result.exit_code == 0, result.stderr
    i = parse_label(label, k).i
    with mpmath.workdps(2 * digits + 20):
        theta = mpmath.pi / (k + 2)
        expected = mpmath.sin((i + 1) * theta) / mpmath.sin(theta)
    assert result.stdout == decimal_fixed(expected, digits) + "\n"


@pytest.mark.parametrize(
    "value, decimals, text",
    [
        (0.125, 2, "0.12"),  # exact binary ties go to the even neighbour
        (0.375, 2, "0.38"),
        (2.5, 0, "2"),
        (3.5, 0, "4"),
        (1, 12, "1.000000000000"),
        (0, 3, "0.000"),
        (1024, 1, "1024.0"),
        (64.0625, 3, "64.062"),
        (10.999999, 4, "11.0000"),
        (-0.375, 2, "-0.38"),
        pytest.param(0.375, 5000, "0.375" + "0" * 4997, id="0.375-5000"),  # more digits than str(int) converts
    ],
)
def test_fixed_examples(value, decimals, text):
    assert _fixed(mpmath.mpf(value), decimals) == text


def test_fixed_is_the_exact_half_even_rounding_of_the_binary_value(decimal_fixed):
    rng = random.Random(20)
    values = [mpmath.mpf((rng.getrandbits(rng.randint(1, 200)) | 1, rng.randint(-300, 40))) for _ in range(3000)]
    values += [mpmath.mpf(n) for n in (1, 9, 10, 11, 99, 100, 12345)]
    values += [qdim_numeric(IrrLabel(Sector.U, i, 0), 200, 20) for i in range(0, 201, 7)]
    for value in values:
        for decimals in (0, 1, 2, 7, 12, 27, 28, 40, 100):
            assert _fixed(value, decimals) == decimal_fixed(value, decimals), (value, decimals)
            assert _fixed(-value, decimals) == decimal_fixed(-value, decimals), (value, decimals)


def test_fixed_rounds_exact_binary_ties_to_even(decimal_fixed):
    # (2m+1) / 2^(d+1) times 10^d is (2m+1) 5^d / 2, an exact tie at d decimals
    rng = random.Random(21)
    parities = set()
    for decimals in range(60):
        for _ in range(4):
            odd = 2 * rng.getrandbits(40) + 1
            value = mpmath.mpf((odd, -(decimals + 1)))
            below = (odd * 10 ** decimals) >> (decimals + 1)
            parities.add(below % 2)
            text = _fixed(value, decimals)
            assert int(text.replace(".", "")) == below + below % 2
            assert text == decimal_fixed(value, decimals)
    assert parities == {0, 1}


def test_fixed_refuses_values_without_digits():
    for value in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError, match="fixed decimals"):
            _fixed(value, 3)


def test_dual_and_coeff(invoke):
    assert invoke("dual", "--level", "3", "t1:1:2").stdout.strip() == "t2:2:2"
    assert invoke("coeff", "--level", "2", "t1:1:0", "t2:1:0", "u:0:0").stdout.strip() == "1"
    assert invoke("coeff", "--level", "2", "u:1:0", "u:1:0", "u:1:0").stdout.strip() == "0"


@pytest.mark.parametrize("args", [("dual", "u:1:5"), ("qdim", "t1:2:7"), ("fuse", "u:0:0", "t2:0:3")])
def test_label_with_j_above_two_is_a_usage_error(invoke, args):
    result = invoke(args[0], "--level", "3", *args[1:])
    assert result.exit_code == 2
    assert "j out of range" in result.stderr


def test_glob_document(invoke):
    doc = json.loads(invoke("glob", "--level", "1").stdout)
    assert doc == {"level": 1, "exact": "18", "numeric": "18.000000000000"}
    doc3 = json.loads(invoke("glob", "--level", "3").stdout)
    assert doc3["exact"] == "18x + 36"


def test_catalog_json_round_trips(invoke):
    result = invoke("catalog", "--level", "2")
    doc = json.loads(result.stdout)
    assert doc["level"] == 2
    modules = doc["modules"]
    assert len(modules) == 27
    for token, row in modules.items():
        label = parse_label(token, 2)          # keys round-trip
        assert parse_label(row["dual"], 2)     # dual column parses too
        assert label.token() == token
        assert "/" in row["weight"] or row["weight"].isdigit()


@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_catalog_qdim_column_is_each_rows_own_qdim(invoke, k):
    """Every row carries qdim_numeric of its own label, although catalog
    evaluates it once per weight index."""
    def expected(token):
        return _fixed(qdim_numeric(parse_label(token, k), k, precision=20), 12)

    modules = json.loads(invoke("catalog", "--level", str(k)).stdout)["modules"]
    assert len(modules) == 9 * (k + 1)
    for token, row in modules.items():
        assert row["qdim"] == expected(token)
    rows = list(csv.DictReader(io.StringIO(invoke("catalog", "--level", str(k), "-f", "csv").stdout)))
    assert len(rows) == 9 * (k + 1)
    for row in rows:
        assert row["qdim"] == expected(row["label"])


def test_catalog_level1_weight_column(invoke):
    result = invoke("catalog", "--level", "1")
    weights = [row["weight"] for row in json.loads(result.stdout)["modules"].values()]
    assert weights == [
        "0", "1", "1", "1/4", "1/4", "9/4",
        "1/36", "49/36", "25/36", "1/9", "4/9", "16/9",
        "1/9", "4/9", "16/9", "1/36", "49/36", "25/36",
    ]


def test_catalog_csv_quotes_commas(invoke):
    result = invoke("catalog", "--level", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["label", "pretty", "weight", "qdim", "dual", "generator"]
    assert len(rows) == 1 + 27
    by_label = {row[0]: row for row in rows[1:]}
    assert by_label["u:2:1"][5] == "v^{2,1}"   # embedded comma survives


def test_catalog_markdown_uses_pretty_labels(invoke):
    lines = invoke("catalog", "--level", "1", "--format", "markdown").stdout.splitlines()
    assert lines[0].startswith("| module |")
    assert any("L(1,1)^{T1,2}" in line for line in lines)


def test_catalog_out_writes_file(invoke, tmp_path):
    target = tmp_path / "catalog.json"
    result = invoke("catalog", "--level", "1", "--out", str(target))
    assert result.exit_code == 0
    assert result.stdout == result.stderr == ""
    assert json.loads(target.read_text())["level"] == 1


@pytest.mark.parametrize("k", [*range(1, 9), 20, 200])
def test_catalog_json_is_byte_identical_to_json_dumps(invoke, tmp_path, k):
    printed = invoke("catalog", "--level", str(k)).stdout
    assert printed == json.dumps(json.loads(printed), indent=2) + "\n"
    target = tmp_path / "catalog.json"
    result = invoke("catalog", "--level", str(k), "--format", "json", "--out", str(target))
    assert result.exit_code == 0 and result.stdout == result.stderr == ""
    assert target.read_text() == printed


def test_verify_all_passes_at_level_one(invoke):
    result = invoke("verify", "--level", "1")
    assert result.exit_code == 0
    lines = [line for line in result.stdout.splitlines() if line.startswith("suite=")]
    suites = [line.split()[0].removeprefix("suite=") for line in lines]
    assert suites == ["catalog", "unit", "comm", "assoc", "dual", "qdim", "oracle"]
    assert all(line.endswith("PASS") for line in lines)


def test_verify_single_suite_and_seed(invoke):
    result = invoke("verify", "--level", "9", "--suite", "assoc")
    assert result.exit_code == 0
    assert result.stdout.startswith("suite=assoc level=9 ") and "sampled" not in result.stdout
    assert invoke("verify", "--level", "9", "--cap", "3").exit_code == 2
    assert invoke("verify", "--level", "9", "--seed", "3").exit_code == 2


def test_verify_failures_exit_one_and_show_the_first_twenty(invoke, monkeypatch):
    import orbifusion.verify as verify_mod
    from orbifusion.fusion import fuse_irreducible
    from orbifusion.labels import FusionVector, Sector

    def emptied(a, b, k):  # every u:1:j x b is empty, so comm fails on each (u:1:j, b) with b not u:1:*
        return FusionVector() if (a.sector, a.i) == (Sector.U, 1) else fuse_irreducible(a, b, k)

    monkeypatch.setattr(verify_mod, "fuse_irreducible", emptied)
    result = invoke("verify", "--level", "2", "--suite", "comm")
    assert result.exit_code == 1
    assert result.stdout.startswith("suite=comm level=2 ") and result.stdout.endswith(" FAIL (72 failures)\n")
    lines = result.stderr.splitlines()
    assert len(lines) == 21
    assert lines[0] == "  u:0:0 x u:1:0 = {u:1:0: 1} but reversed gives {}  [labels: u:0:0, u:1:0]"
    assert all(" but reversed gives " in line and "u:1:" in line for line in lines[:20])
    assert lines[20] == "  ... 52 more failures"


def test_verify_fault_found_while_a_suite_runs_is_an_error_not_usage(invoke, monkeypatch):
    import orbifusion.verify as verify_mod
    from orbifusion.fusion import fuse_irreducible
    from orbifusion.labels import FusionVector

    stray = parse_label("u:1:0", 1)._replace(i=5)  # u:5:0, not a label at level 2
    u10 = parse_label("u:1:0", 2)

    def fuse(a, b, k):
        return FusionVector({stray: 1}) if (a, b) == (u10, u10) else fuse_irreducible(a, b, k)

    monkeypatch.setattr(verify_mod, "fuse_irreducible", fuse)
    result = invoke("verify", "--level", "2", "--suite", "comm")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "Error: fusion output u:5:0 is not a label at level 2\n"


def test_verify_oracle_passes_at_level_two(invoke):
    result = invoke("verify", "--level", "2", "--suite", "oracle")
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith("suite=oracle level=2 checks=756 ") and result.stdout.endswith(" PASS\n")
    assert invoke("verify", "--level", "0", "--suite", "oracle").exit_code == 2


@pytest.mark.parametrize("k", [2, 3])
def test_verify_all_runs_every_suite_above_level_one(invoke, k):
    result = invoke("verify", "--level", str(k))
    assert result.exit_code == 0
    suites = [line.split()[0].removeprefix("suite=") for line in result.stdout.splitlines()]
    assert suites == ["catalog", "unit", "comm", "assoc", "dual", "qdim", "oracle"]


def test_usage_errors_exit_two(invoke):
    assert invoke("dual", "--level", "3", "u:4:0").exit_code == 2
    assert invoke("dual", "--level", "3", "T1:1:2").exit_code == 2
    assert invoke("dual", "--level", "0", "u:0:0").exit_code == 2
    assert invoke("verify", "--level", "1", "--suite", "nonsense").exit_code == 2



@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--level", "0"),
        ("verify", "--level", "abc"),
        ("verify",),
        ("catalog", "--level", "2", "--format", "xml"),
        ("verify", "--level", "2", "--suite", "nonsense"),
        ("glob", "--level", "2", "--bogus"),
        ("verify", "--lev", "3"),
        ("qdim", "--level", "2", "u:1:0", "--digits", "0"),
        ("dual", "--level", "1", "u:0:0", "extra"),
        (),
    ],
)
def test_usage_errors_print_only_to_stderr(invoke, args):
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "error: " in result.stderr and result.stderr.startswith("usage: orbifusion")


@pytest.mark.parametrize(
    "args, usage",
    [
        (("glob", "--level", "2", "--bogus"), "usage: orbifusion glob [-h] -k K\n"),
        (("dual", "--level", "2", "u:0:0", "extra"), "usage: orbifusion dual [-h] -k K A\n"),
    ],
)
def test_unknown_arguments_are_reported_with_the_subcommand_usage(invoke, args, usage):
    result = invoke(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{usage}orbifusion {args[0]}: error: unrecognized arguments: {args[-1]}\n"


@pytest.mark.parametrize(
    "args",
    [("verify", "--lev", "3"), ("verify", "--suite", "unit", "--lev", "3"), ("dual", "u:0:0", "--lev", "3")],
)
def test_a_misspelt_level_is_reported_as_unrecognized_not_as_missing(invoke, args):
    # argparse checks required options before leftovers; the leftovers are reported first
    result = invoke(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    usage = getattr(cli, args[0]).format_usage()
    assert "[-k K]" not in usage and " -k K" in usage  # the second parse's relaxed requirement is restored
    assert result.stderr == f"{usage}orbifusion {args[0]}: error: unrecognized arguments: --lev 3\n"
    assert getattr(cli, args[0])._args is None  # no parse is left marked as running


@pytest.mark.parametrize(
    "args, message",
    [
        (("verify",), "the following arguments are required: -k/--level"),
        (("dual", "--level", "2"), "the following arguments are required: A"),
        (("verify", "--level", "0", "--lev"), "argument -k/--level: 0 is not in the range x>=1"),
        (("dual", "--level", "2", "u:9:0"), "i out of range: 9 not in 0..2"),
    ],
)
def test_other_usage_errors_keep_their_messages(invoke, args, message):
    result = invoke(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{getattr(cli, args[0]).format_usage()}orbifusion {args[0]}: error: {message}\n"
    assert getattr(cli, args[0])._args is None  # no parse is left marked as running


def test_an_unknown_option_before_the_command_is_reported_with_the_root_usage(invoke):
    result = invoke("--bogus", "glob", "--level", "2")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "usage: orbifusion [-h] COMMAND ...\norbifusion: error: unrecognized arguments: --bogus\n"


def test_short_level_option_and_options_after_the_labels(invoke):
    expected = invoke("fuse", "--level", "7", "t1:3:2", "t2:4:1", "--format", "csv")
    assert expected.exit_code == 0 and expected.stdout.startswith("label,multiplicity\r\n")
    for args in (["-k", "7", "t1:3:2", "t2:4:1", "-f", "csv"], ["t1:3:2", "t2:4:1", "--level", "7", "-f", "csv"],
                 ["--level=7", "t1:3:2", "--format=csv", "t2:4:1"], ["-k7", "-fcsv", "t1:3:2", "t2:4:1"]):
        assert invoke("fuse", *args) == expected, args
    assert invoke("qdim", "u:3:0", "--digits", "40", "-k", "7") == invoke("qdim", "--level", "7", "u:3:0", "--digits", "40")


@pytest.mark.parametrize("command", [[], ["catalog"], ["fuse"], ["coeff"], ["dual"], ["qdim"], ["glob"], ["verify"]])
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_zero_on_stdout(invoke, command, flag):
    result = invoke(*command, flag)
    assert result.exit_code == 0
    assert result.stdout.startswith(" ".join(["usage: orbifusion", *command])) and result.stderr == ""


def test_out_creates_no_file_on_a_usage_error_and_dash_is_stdout(invoke, tmp_path):
    target = tmp_path / "fused.json"
    for args in (["fuse", "--level", "3", "u:0:0", "u:9:0"], ["catalog", "--level", "0"], ["catalog", "--level", "2", "-f", "xml"]):
        assert invoke(*args, "--out", str(target)).exit_code == 2
        assert not target.exists()
    for command in (["catalog", "--level", "2", "-f", "markdown"], ["fuse", "--level", "2", "t1:1:0", "t2:1:0"]):
        assert invoke(*command, "--out", "-") == invoke(*command)


def test_out_that_cannot_be_opened_is_a_fault(invoke, tmp_path):
    target = tmp_path / "missing" / "catalog.json"
    result = invoke("catalog", "--level", "1", "--out", str(target))
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == f"Error: Could not open file {str(target)!r}: No such file or directory\n"


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("args", [["catalog", "--level", "3"], ["dual", "--level", "1", "u:0:0"], ["verify", "--level", "2"]])
def test_a_closed_stdout_exits_one_without_a_traceback(capsys, monkeypatch, args):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(args) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_run_calls_the_callback_a_command_holds_when_it_runs(invoke, monkeypatch):
    """A caller may replace a command's ``callback`` (a tracer wraps ``catalog`` and ``verify`` so)."""
    calls = []

    def recorded(name, callback):
        def wrapper(**options):
            calls.append((name, options))
            return callback(**options)

        return wrapper

    for name in ("catalog", "verify"):
        command = getattr(cli, name)
        monkeypatch.setattr(command, "callback", recorded(name, command.callback))
    assert invoke("catalog", "--level", "1", "-f", "csv").exit_code == 0
    assert invoke("verify", "--level", "2", "--suite", "unit").exit_code == 0
    assert calls == [("catalog", {"k": 1, "fmt": "csv", "out": "-"}), ("verify", {"k": 2, "suite": "unit"})]
    monkeypatch.setattr(cli.verify, "callback", lambda k, suite: 7)
    assert invoke("verify", "--level", "1") == (7, "", "")

def test_run_helper_exit_codes(capsys):
    assert run(["fuse", "--level", "1", "u:0:0", "u:0:0"]) == 0
    capsys.readouterr()
    assert run(["fuse", "--level", "1", "u:9:0", "u:0:0"]) == 2
    capsys.readouterr()


def _token_by_property(label):
    return f"{label.sector.tag}:{label.i}:{label.j}"


def _pretty_by_name(label, k):
    if label.sector is Sector.U:
        return f"L({k},{label.i})^{label.j}"
    return f"L({k},{label.i})^{{{label.sector.name},{label.j}}}"


@pytest.mark.parametrize("k", [*range(1, 61), 100, 199, 200, 201])
def test_catalog_and_glob_match_the_reference_path_byte_for_byte(
    invoke, monkeypatch, k, context_qdim_numeric, context_global_numeric, nstr_fixed
):
    """The integer-core numerics and tuple-indexed labels print what the
    context-path numerics, the nstr-and-Decimal rounding and the Enum-based
    label rendering print."""
    commands = [["catalog", "--level", str(k), "-f", fmt] for fmt in ("json", "csv", "markdown")]
    commands.append(["glob", "--level", str(k)])
    fast = [invoke(*command) for command in commands]
    monkeypatch.setattr(cli, "qdim_numeric", lambda lab, k, precision: context_qdim_numeric(lab.i, k, precision))
    monkeypatch.setattr(cli, "global_dimension", lambda k: (global_dimension(k)[0], context_global_numeric(k)))
    monkeypatch.setattr(cli, "_fixed", nstr_fixed)
    monkeypatch.setattr(IrrLabel, "token", _token_by_property)
    monkeypatch.setattr(IrrLabel, "pretty", _pretty_by_name)
    reference = [invoke(*command) for command in commands]
    for command, got, expected in zip(commands, fast, reference):
        assert got.exit_code == expected.exit_code == 0, command
        assert (got.stdout, got.stderr) == (expected.stdout, expected.stderr), command


# SHA-256 of the concatenated stdout of ``glob --level k`` for k = 1..60 and
# 200, and of ``qdim --level k u:i:0`` for every i at those levels, as the
# release before residues kept their text printed them.
_GLOB_DIGEST = "4ffa46cfcd70455c0835f17b9babd4c43a5b245b4c0524807b9ede4c642a79b4"
_QDIM_DIGEST = "60a808cc7e1116e25a53cfc52f51f1f587a232bb34f407e90440dc73d89dc8c8"


def test_glob_and_qdim_print_the_same_bytes_at_every_index(invoke):
    levels = (*range(1, 61), 200)

    def stdout(*args):
        result = invoke(*args)
        assert result.exit_code == 0 and not result.stderr
        return result.stdout

    for _ in range(2):  # the second pass reads every residue's kept text
        globs = "".join(stdout("glob", "--level", str(k)) for k in levels)
        assert hashlib.sha256(globs.encode()).hexdigest() == _GLOB_DIGEST
    qdims = "".join(stdout("qdim", "--level", str(k), f"u:{i}:0") for k in levels for i in range(k + 1))
    assert hashlib.sha256(qdims.encode()).hexdigest() == _QDIM_DIGEST


# SHA-256 of the concatenated stdout of ``catalog --level k --format f`` for
# the levels below and f in json, csv, markdown, as the release that built
# each module's row as a dict printed them.
_CATALOG_LEVELS = (*range(1, 61), 88, 100, 118, 199, 200, 201, 298)
_CATALOG_DIGEST = "e835a4f6e54e0ddd76fb9b161256b875bf78795345845b663729497eb884ccb9"


def test_catalog_prints_the_same_bytes_in_every_format(invoke):
    digest = hashlib.sha256()
    for k in _CATALOG_LEVELS:
        for fmt in ("json", "csv", "markdown"):
            result = invoke("catalog", "--level", str(k), "--format", fmt)
            assert result.exit_code == 0 and not result.stderr
            digest.update(result.stdout.encode())
    assert digest.hexdigest() == _CATALOG_DIGEST
