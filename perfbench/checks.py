"""Correctness checks the benchmark computes itself.

Quantum dimensions are compared against sine ratios
``sin((i+1)*pi/(k+2)) / sin(pi/(k+2))`` evaluated here with mpmath and held
as fixed-point integers with ``FRAC`` fractional bits, so that sums and
products of many of them stay exact and cheap.  Nothing here imports
orbifusion: the documents are checked from their text.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache

import mpmath

#: Fractional bits of the fixed-point reference values (about 48 digits).
FRAC = 160


@lru_cache(maxsize=None)
def sine_ratio(i: int, k: int) -> int:
    """Quantum dimension of weight index ``i`` at level ``k``, times ``2**FRAC``."""
    with mpmath.workprec(FRAC + 64):
        theta = mpmath.pi / (k + 2)
        return int(mpmath.floor(mpmath.sin((i + 1) * theta) / mpmath.sin(theta) * 2**FRAC))


def agrees(value: int, reference: int, digits: int) -> bool:
    """Fixed-point values agree to ``digits`` significant digits (absolute below 1)."""
    scale = max(abs(reference), 1 << FRAC)
    return abs(value - reference) * 10**digits <= scale


def to_fixed(value) -> int:
    """Fixed-point image of an exact decimal string, Fraction or mpf."""
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return (value.numerator << FRAC) // value.denominator
    man, exp = value.man_exp  # value == man * 2**exp, exactly
    shift = exp + FRAC
    return man << shift if shift >= 0 else man >> -shift


def rounds_to(text: str, reference: int) -> bool:
    """The decimal ``text`` is ``reference`` rounded to its printed places."""
    places = len(text.partition(".")[2])
    slack = 1 << (FRAC - 40)  # the reference's own error, far below half a place
    return abs(to_fixed(text) - reference) * 2 * 10**places <= (1 << FRAC) + slack


@lru_cache(maxsize=None)
def _two_cos(k: int, bits: int) -> int:
    with mpmath.workprec(bits + 64):
        return int(mpmath.floor(2 * mpmath.cos(mpmath.pi / (k + 2)) * 2**bits))


_TERM = re.compile(r"(-?)(\d*)(x(?:\^(\d+))?)?")


def residue_value(text: str, k: int) -> int:
    """Evaluate a printed residue such as ``18x + 36`` at ``x = 2cos(pi/(k+2))``.

    Returns the value times ``2**FRAC``.  Raises ``ValueError`` on text that
    is not a polynomial in ``x``.
    """
    coeffs: dict[int, int] = {}
    for part in text.replace(" - ", " + -").split(" + "):
        match = _TERM.fullmatch(part)
        if not match or not (match[2] or match[3]):
            raise ValueError(f"not a residue: {text!r}")
        sign, digits, var, power = match.groups()
        coeff = int(digits) if digits else 1
        exp = int(power) if power else (1 if var else 0)
        coeffs[exp] = coeffs.get(exp, 0) + (-coeff if sign else coeff)
    degree = max(coeffs)
    # Horner in fixed point: each truncation error is at most doubled by the
    # remaining steps, so 2*degree guard bits on top of the coefficients'
    # size leave the result exact to far more than FRAC bits.
    bits = FRAC + 2 * degree + max(abs(c) for c in coeffs.values()).bit_length() + 64
    x = _two_cos(k, bits)
    acc = 0
    for exp in range(degree, -1, -1):
        acc = ((acc * x) >> bits) + (coeffs.get(exp, 0) << bits)
    return acc >> (bits - FRAC)


def verify_ok(exit_code, stdout: str) -> bool:
    """``verify`` passed: exit code 0 and every summary line says PASS."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return exit_code == 0 and bool(lines) and all(line.rstrip().endswith("PASS") for line in lines)


_PRETTY_INDEX = re.compile(r"L\(\d+,(\d+)\)")


def _markdown_rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = [cell.strip() for cell in lines[0].strip().strip("|").split("|")]
    rows = []
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows.append(dict(zip(header, cells)))
    return rows


def catalog_ok(fmt: str, text: str, k: int) -> bool:
    """A ``catalog`` document is sound, whatever extra columns it carries.

    It lists 9(k+1) modules, duality is an involution on them, every qdim
    decimal is the sine ratio rounded to its printed places, and the vacuum
    has weight 0.
    """
    try:
        if fmt == "json":
            modules = json.loads(text)["modules"]
            rows = {name: (m["weight"], m["qdim"], m["dual"]) for name, m in modules.items()}
            vacuum = "u:0:0"
        elif fmt == "csv":
            rows = {r["label"]: (r["weight"], r["qdim"], r["dual"]) for r in csv.DictReader(io.StringIO(text))}
            vacuum = "u:0:0"
        else:
            rows = {r["module"]: (r["weight"], r["qdim"], r["dual"]) for r in _markdown_rows(text)}
            vacuum = f"L({k},0)^0"
        if len(rows) != 9 * (k + 1) or Fraction(rows[vacuum][0]) != 0:
            return False
        for name, (_weight, qdim, dual) in rows.items():
            if rows[dual][2] != name:
                return False
            i = int(name.split(":")[1]) if fmt != "markdown" else int(_PRETTY_INDEX.match(name)[1])
            if not rounds_to(qdim, sine_ratio(i, k)):
                return False
        return True
    except (KeyError, ValueError, TypeError, IndexError):
        return False


def glob_ok(text: str, k: int) -> bool:
    """``glob``'s numeric global dimension is 9 * sum of squared sine ratios."""
    try:
        doc = json.loads(text)
        expected = 9 * sum(sine_ratio(i, k) ** 2 for i in range(k + 1)) >> FRAC
        return doc["level"] == k and rounds_to(doc["numeric"], expected)
    except (KeyError, ValueError, TypeError):
        return False
