"""Layered benchmark of orbifusion.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

* ``verify-exhaustive``: ``orbifusion verify --level k`` for k = 1..8;
* ``verify-sampled``: ``orbifusion verify --level 20``;
* ``queries``: one client sending seeded point queries in a closed loop;
* ``catalog``: ``catalog --level 200`` as json, csv and markdown, and
  ``glob --level 200``.

Every command runs in a fresh worker interpreter (``worker.py``), one at a
time, and its output is checked here.  Times are taken net of a host-speed
probe that runs in every worker and rescaled to a reference host speed
(``hostspeed.py``).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` a
separate traced run reports the per-layer metrics instead.  Lines before it
start with ``#`` and give the environment and the workload's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import queries
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 150
MIN_PASSES = 3

CATALOG_LEVEL = 200
CATALOG_FORMATS = ("json", "csv", "markdown")

QUERY_WORKERS = 5  # each sets up (import + warm-up) and then runs a share of the stream
QUERY_WARMUP = 2000
# Timed queries per second of --seconds.  The count is fixed rather than
# time-bounded, so both sides of a comparison answer the same queries and
# the one-off cold-level costs keep the same share of the stream.  On a
# 2-vCPU x86-64 host they take about 0.8 s per second of --seconds, and
# checking them takes about as long again.
QUERY_RATE = 15000
QUERY_TRACE_COUNT = 20000
TRACE_PAIRS = 3  # untraced/traced pairs in a traced run, for the overhead estimate

CLI_STEPS = {
    "verify-exhaustive": [["verify", "--level", str(k)] for k in range(1, 9)],
    "verify-sampled": [["verify", "--level", "20"]],
    "catalog": [["catalog", "--level", str(CATALOG_LEVEL), "--format", fmt] for fmt in CATALOG_FORMATS]
    + [["glob", "--level", str(CATALOG_LEVEL)]],
}
WORKLOADS = (*CLI_STEPS, "queries")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = ("catalog", "unit", "comm", "assoc", "dual", "qdim", "oracle")
_C, _S, _R = "count", "s", "ratio"
PER_LAYER = {
    "labels.make_label.calls": _C,
    "labels.make_label.self_s": _S,
    "labels.FusionVector.calls": _C,
    "labels.FusionVector.self_s": _S,
    "labels.parse_label.self_s": _S,
    "weights.conformal_weight.calls": _C,
    "weights.conformal_weight.self_s": _S,
    "chebyshev.ChebPoly.mul.calls": _C,
    "chebyshev.ChebPoly.mul.self_s": _S,
    "chebyshev.ChebPoly.divmod.calls": _C,
    "chebyshev.ChebPoly.divmod.self_s": _S,
    "chebyshev.cheb_u.hit_ratio": _R,
    "chebyshev.min_poly_two_cos.hit_ratio": _R,
    "qdim.qdim_exact.calls": _C,
    "qdim.qdim_exact.self_s": _S,
    "qdim.QDimElement.mul.calls": _C,
    "qdim.QDimElement.mul.self_s": _S,
    "qdim.qdim_numeric.calls": _C,
    "qdim.qdim_numeric.self_s": _S,
    "qdim.global_dimension.self_s": _S,
    "fusion.fuse_irreducible.calls": _C,
    "fusion.fuse_irreducible.self_s": _S,
    "fusion.fuse_irreducible.outputs": _C,
    "fusion.fuse_irreducible.distinct_ratio": _R,
    "fusion.contragredient.calls": _C,
    "fusion.contragredient.self_s": _S,
    "cli.catalog.self_s": _S,
    "cli.verify.self_s": _S,
    "verify.run_suites.self_s": _S,
    **{f"verify.{suite}.{field}": unit for suite in SUITES for field, unit in (("s", _S), ("checks", _C))},
    "trace.overhead_s": _S,
}

# Wrappers that must record calls on each workload: the public entry points
# it reaches by construction.  Zero calls there means a wrapper was not
# installed where the caller looks the name up.  Internal helpers
# (make_label, FusionVector, ChebPoly) may legitimately fall to zero.
EXPECTED_CALLS = {
    "verify-exhaustive": ("cli.verify", "fusion.fuse_irreducible", "fusion.contragredient",
                          "weights.conformal_weight", "qdim.qdim_exact"),
    "verify-sampled": ("cli.verify", "fusion.fuse_irreducible", "fusion.contragredient",
                       "weights.conformal_weight", "qdim.qdim_exact"),
    "catalog": ("cli.catalog", "weights.conformal_weight", "qdim.qdim_numeric",
                "qdim.global_dimension", "fusion.contragredient"),
    "queries": ("labels.parse_label", "fusion.fuse_irreducible", "fusion.contragredient",
                "qdim.qdim_exact", "qdim.qdim_numeric", "weights.conformal_weight"),
}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(job: dict) -> dict:
    """Run one job in a fresh interpreter; adds ``setup_s`` from spawn to ready.

    The part of the set-up inside the worker is rescaled to the reference
    host speed; the interpreter's start before the worker's first line is not.
    """
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(ROOT), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s: {job}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker failed ({proc.returncode}) on {job}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    out["setup_s"] = out["started"] - start + hostspeed.rescale(*out["setup"])
    if job["kind"] == "queries":
        out["answers"] = [answer for line in lines[:-1] for answer in json.loads(line)]
    return out


def rescaled(out: dict) -> float:
    """A worker's timed seconds, net of probes, at the reference host speed."""
    return hostspeed.rescale(out["elapsed"], out["span"][1])


def output_ok(argv: list[str], out: dict) -> bool:
    """Check one command's captured output with the benchmark's own checks."""
    if argv[0] == "verify":
        return checks.verify_ok(out["exit_code"], out["stdout"])
    if out["exit_code"] != 0:
        return False
    if argv[0] == "glob":
        return checks.glob_ok(out["stdout"], int(argv[2]))
    return checks.catalog_ok(argv[4], out["stdout"], int(argv[2]))


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def cli_pass(steps, tally: Tally, **job) -> list[dict]:
    """One pass over the workload's commands, one fresh worker each."""
    outs = []
    for argv in steps:
        out = spawn({"kind": "cli", "argv": argv, **job})
        tally.add(1, not output_ok(argv, out))
        outs.append(out)
    return outs


def cli_end_to_end(steps, seconds: float, tally: Tally, notes: dict) -> dict:
    """Passes until ``seconds`` have gone by (at least MIN_PASSES).

    Command times are rescaled to the reference host speed; the raw wall
    time of a pass is printed as ``pass_wall_s``.
    """
    times: list[list[float]] = [[] for _ in steps]
    walls: list[list[float]] = [[] for _ in steps]
    setups, rss, probes = [], [], []
    start, passes = time.perf_counter(), 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for samples, wall, out in zip(times, walls, cli_pass(steps, tally)):
            samples.append(rescaled(out))
            wall.append(out["elapsed"])
            probes.append(out["span"][1])
            setups.append(out["setup_s"])
            rss.append(out["peak_rss_kb"])
        passes += 1
    medians = {tuple(argv): statistics.median(samples) for argv, samples in zip(steps, times)}
    pass_s = sum(medians.values())
    notes["pass_wall_s"] = (sum(statistics.median(wall) for wall in walls), "s", passes)
    notes["probe_us"] = (statistics.median(probes) * 1e6, "us", len(probes))
    if steps[0][0] == "verify":
        notes["verify_s"] = (pass_s, "s", passes)
    else:
        docs = [m for argv, m in medians.items() if argv[0] == "catalog"]
        notes["catalog_s"] = (sum(docs) / len(docs), "s", passes * len(docs))
        notes["glob_s"] = (medians[tuple(steps[-1])], "s", passes)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "peak_rss_mb": max(rss) / 1024,
    }


def library():
    """The checkout's ``orbifusion``, imported into this process to check answers."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import orbifusion

    return orbifusion


def query_worker(seed: int, worker: int, tally: Tally, **job) -> dict:
    """One fresh query worker; its answers are checked here, outside it."""
    out = spawn({"kind": "queries", "seed": seed, "worker": worker, "warmup": QUERY_WARMUP, **job})
    lib = library()
    wrong = sum(not queries.answer_ok(lib, *answer) for answer in out.pop("answers"))
    tally.add(out["attempted"], out["failed"] + wrong)
    return out


def queries_end_to_end(seed: int, seconds: float, tally: Tally, notes: dict) -> dict:
    """QUERY_WORKERS fresh workers in turn, each timing its share of the queries."""
    latencies, means, walls, probes, setups, rss = [], [], [], [], [], []
    for worker in range(QUERY_WORKERS):
        out = query_worker(seed, worker, tally, count=int(seconds * QUERY_RATE / QUERY_WORKERS))
        latencies.extend(out["latency_ns"])
        walls.append(statistics.fmean(out["latency_ns"]))
        probes.append(out["span"][1])
        means.append(hostspeed.rescale(statistics.fmean(out["latency_ns"]), out["span"][1]))
        setups.append(out["setup_s"])
        rss.append(out["peak_rss_kb"])
    p50, p99 = statistics.median(latencies), statistics.quantiles(latencies, n=100)[98]
    notes["query_p50_us"] = (p50 / 1e3, "us", len(latencies))
    notes["query_p99_us"] = (p99 / 1e3, "us", len(latencies))
    notes["queries_per_s"] = (len(latencies) / (sum(latencies) / 1e9), "1/s", len(latencies))
    notes["pass_wall_s"] = (queries.BLOCK * statistics.median(walls) / 1e9, "s", QUERY_WORKERS)
    notes["probe_us"] = (statistics.median(probes) * 1e6, "us", QUERY_WORKERS)
    return {
        "setup_s": statistics.median(setups),
        # Each worker's mean, so that its one-off cold-level costs count in
        # full; the median over workers, so that a burst of load on the host
        # during one of them does not.
        "pass_s": queries.BLOCK * statistics.median(means) / 1e9,
        "peak_rss_mb": max(rss) / 1024,
    }


def layer_metrics(snapshots: list[dict], reports: list, overhead_s: float) -> dict:
    """Sum traced counters over workers and name them as in PER_LAYER."""
    values: dict[str, float] = {}
    for name in tracing.TRACED:
        values[f"{name}.calls"] = sum(s["calls"][name] for s in snapshots)
        values[f"{name}.self_s"] = sum(s["self_s"][name] for s in snapshots)
    fuse_calls = values["fusion.fuse_irreducible.calls"]
    values["fusion.fuse_irreducible.outputs"] = sum(s["fuse_outputs"] for s in snapshots)
    # Workers never share a level here, so distinct (a, b, k) sets are disjoint.
    distinct = sum(s["fuse_distinct"] for s in snapshots)
    values["fusion.fuse_irreducible.distinct_ratio"] = distinct / fuse_calls if fuse_calls else 0.0
    for cache in tracing.CACHES:
        hits = sum(s["caches"][cache][0] for s in snapshots)
        lookups = hits + sum(s["caches"][cache][1] for s in snapshots)
        values[f"{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
    for suite in SUITES:
        values[f"verify.{suite}.s"] = sum((r[1] for r in reports if r[0] == suite), 0.0)
        values[f"verify.{suite}.checks"] = sum(r[2] for r in reports if r[0] == suite)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def traced(workload: str, seed: int, tally: Tally, notes: dict) -> dict:
    """The same fixed work untraced and traced, TRACE_PAIRS times, alternating.

    Layer metrics come from the first traced pass, and suite times from the
    first untraced one, whose only wrapper reads the reports.  The work is
    fixed (one pass, or QUERY_TRACE_COUNT queries after the warm-up), so
    call counts repeat exactly for a given seed.  The tracing overhead is
    the difference of the median traced and untraced timed seconds.
    """
    passes = {False: [], True: []}
    for _ in range(TRACE_PAIRS):
        for trace in (False, True):
            if workload == "queries":
                outs = [query_worker(seed, 0, tally, count=QUERY_TRACE_COUNT, trace=trace)]
            else:
                outs = cli_pass(CLI_STEPS[workload], tally, trace=trace, reports=not trace)
            passes[trace].append(outs)
    seconds = {trace: statistics.median(sum(rescaled(out) for out in outs) for outs in runs)
               for trace, runs in passes.items()}
    notes["untraced_s"] = (seconds[False], "s", TRACE_PAIRS)
    notes["traced_s"] = (seconds[True], "s", TRACE_PAIRS)
    snapshots = [out["trace"] for out in passes[True][0]]
    reports = [r for out in passes[False][0] for r in out["reports"]]
    silent = [name for name in EXPECTED_CALLS[workload] if not sum(s["calls"][name] for s in snapshots)]
    if silent:
        raise BenchmarkError(f"wrappers recorded no calls on {workload}: {', '.join(silent)}")
    return layer_metrics(snapshots, reports, seconds[True] - seconds[False])


def environment() -> dict:
    """Python version, processors, platform and the code measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seeds the queries workload; verify ignores it")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbifusion" / "cli.py").is_file():
        print(f"error: no orbifusion source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tally, notes = Tally(), {}
    try:
        spawn({"kind": "cli", "argv": ["--help"]})  # compiles bytecode once, untimed
        if args.trace:
            metrics = traced(args.workload, args.seed, tally, notes)
        else:
            if args.workload == "queries":
                values = queries_end_to_end(args.seed, args.seconds, tally, notes)
            else:
                values = cli_end_to_end(CLI_STEPS[args.workload], args.seconds, tally, notes)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"# environment {json.dumps(environment())}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, samples) in notes.items():
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    print(f"# error_rate = {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
