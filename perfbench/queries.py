"""The ``queries`` workload: one client, a closed loop of seeded point queries.

Each query draws a level from a Zipf law over 1..MAX_LEVEL, a kind from
KINDS and its labels uniformly from that level's catalog, then parses the
labels from text and calls one public library function, as the CLI does.
The next query is sent only when the previous one has returned.

The worker (:func:`run`) only times the queries and writes their answers
out as text; the parent checks them with :func:`answer_ok`, so that the
checks' own memory and calls stay out of the measured interpreter.
"""

from __future__ import annotations

import json
import random
import sys
import time
from array import array
from fractions import Fraction
from itertools import accumulate

import checks

MAX_LEVEL = 200
# Unverified assumptions, not taken from any recorded traffic: popularity
# rank is the level itself (small levels hot, large levels cold), the Zipf
# exponent is 1.1, and the six kinds have equal shares.
ZIPF_EXPONENT = 1.1
LEVELS = range(1, MAX_LEVEL + 1)
CUM_WEIGHTS = list(accumulate(k ** -ZIPF_EXPONENT for k in LEVELS))
KINDS = ("fuse", "coeff", "dual", "qdim_exact", "qdim_numeric", "weight")
ARITY = {"fuse": 2, "coeff": 3}
TAGS = ("u", "t1", "t2")
BLOCK = 1000  # queries per pass; answers are written out one block at a time
_RAISED = object()


def stream(seed: str):
    """Endless seeded queries ``(kind, k, label texts)``."""
    rng = random.Random(seed)
    while True:
        k = rng.choices(LEVELS, cum_weights=CUM_WEIGHTS)[0]
        kind = rng.choice(KINDS)
        labels = tuple(
            f"{rng.choice(TAGS)}:{rng.randint(0, k)}:{rng.randrange(3)}" for _ in range(ARITY.get(kind, 1))
        )
        yield kind, k, labels


def operations(lib) -> dict:
    """The six point queries.

    Functions are looked up on the package when this is called, so traced
    wrappers installed before it are the ones called.
    """
    parse = lib.parse_label
    fuse, coeff, dual = lib.fuse_irreducible, lib.fusion_coefficient, lib.contragredient
    qdim_exact, qdim_numeric, weight = lib.qdim_exact, lib.qdim_numeric, lib.conformal_weight
    return {
        "fuse": lambda k, a, b: fuse(parse(a, k), parse(b, k), k),
        "coeff": lambda k, a, b, c: coeff(parse(a, k), parse(b, k), parse(c, k), k),
        "dual": lambda k, a: dual(parse(a, k), k),
        "qdim_exact": lambda k, a: str(qdim_exact(parse(a, k), k)),
        "qdim_numeric": lambda k, a: qdim_numeric(parse(a, k), k, 20),
        "weight": lambda k, a: weight(parse(a, k), k),
    }


def render(kind: str, result):
    """An answer as JSON data: label tokens, integers and exact numbers as text."""
    if kind == "fuse":
        return [[label.token(), m] for label, m in result.items()]
    if kind == "dual":
        return result.token()
    if kind == "qdim_numeric":  # the exact binary value, mantissa * 2**exponent
        return list(result.man_exp)
    if kind == "weight":
        return [type(result).__name__, str(result)]
    return result  # coeff: an int; qdim_exact: already a string


def answer_ok(lib, kind: str, k: int, texts: list, answer) -> bool:
    """Identities a rendered answer must satisfy, checked by the benchmark.

    A malformed answer, one that makes a check raise, is a wrong answer.
    """
    try:
        return _identities_hold(lib, kind, k, texts, answer)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError):
        return False


def _identities_hold(lib, kind: str, k: int, texts: list, answer) -> bool:
    a = lib.parse_label(texts[0], k)
    if kind == "fuse":  # qdims of the product sum to qdim(a) * qdim(b)
        b = lib.parse_label(texts[1], k)
        total = sum(m * checks.sine_ratio(int(token.split(":")[1]), k) for token, m in answer)
        product = (checks.sine_ratio(a.i, k) * checks.sine_ratio(b.i, k)) >> checks.FRAC
        return bool(answer) and checks.agrees(total, product, 30)
    if kind == "coeff":  # N_{a,b}^c = N_{a,c'}^{b'}
        b, c = lib.parse_label(texts[1], k), lib.parse_label(texts[2], k)
        mirrored = lib.fusion_coefficient(a, lib.contragredient(c, k), lib.contragredient(b, k), k)
        return answer in (0, 1) and answer == mirrored
    if kind == "dual":  # an involution that keeps or reflects i
        dual = lib.parse_label(answer, k)
        return lib.contragredient(dual, k) == a and dual.i in (a.i, k - a.i)
    if kind == "qdim_exact":
        return checks.agrees(checks.residue_value(answer, k), checks.sine_ratio(a.i, k), 30)
    if kind == "qdim_numeric":
        man, exp = answer
        return checks.agrees(checks.to_fixed(Fraction(man) * Fraction(2) ** exp), checks.sine_ratio(a.i, k), 20)
    # weight: an exact Fraction, non-negative, zero only at the vacuum, equal to the dual's weight
    type_name, text = answer
    weight = Fraction(text)
    return (
        type_name == "Fraction"
        and weight >= 0
        and (weight == 0) == (a == lib.vacuum(k))
        and weight == lib.conformal_weight(lib.contragredient(a, k), k)
    )


def run(lib, job: dict, probe) -> dict:
    """Untimed warm-up, then the timed stream of ``job["count"]`` queries.

    Each block of BLOCK timed answers is written to stdout as one JSON line
    ``[[kind, k, texts, answer], ...]`` and then dropped.  The warm-up has
    its own derived seed, so a memo of results cannot replay the timed
    stream; its answers are not written.  A query's latency is net of the
    host-speed probes (``probe``) that ran during it.
    """
    ops = operations(lib)
    clock = time.perf_counter_ns

    def drive(queries, count, latencies, write=True):
        attempted = failed = 0
        answers = []
        for kind, k, texts in queries:
            probed = probe.probe_s
            start = clock()
            try:
                result = ops[kind](k, *texts)
            except Exception:  # an exception is a failed query
                result = _RAISED
            end = clock()
            latencies.append(end - start - round((probe.probe_s - probed) * 1e9))
            attempted += 1
            if result is _RAISED:
                failed += 1
            elif write:
                answers.append((kind, k, texts, render(kind, result)))
            stop = attempted == count
            if answers and (len(answers) >= BLOCK or stop):
                with probe.held():
                    sys.stdout.write(json.dumps(answers) + "\n")
                    sys.stdout.flush()
                answers.clear()
            if stop:
                return attempted, failed

    worker = job["worker"]
    warmup = stream(f"{job['seed']}:warmup:{worker}")
    warm_attempted, warm_failed = drive(warmup, job["warmup"], array("q"), write=False)
    ready = probe.mark()
    latencies = array("q")
    attempted, failed = drive(stream(f"{job['seed']}:timed:{worker}"), job["count"], latencies)
    return {
        "ready": ready,
        "span": probe.span(ready, probe.mark()),
        "elapsed": sum(latencies) / 1e9,
        "latency_ns": latencies,
        "attempted": warm_attempted + attempted,
        "failed": warm_failed + failed,
    }
