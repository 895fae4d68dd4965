"""One benchmark worker: a fresh interpreter that runs one job and exits.

Usage: ``python perfbench/worker.py ROOT JOB`` where ``ROOT`` is the source
checkout and ``JOB`` is a JSON object, one of

* ``{"kind": "cli", "argv": [...], "trace": bool, "reports": bool}``: one
  ``orbifusion`` command, its stdout and stderr captured;
* ``{"kind": "queries", "seed": n, "worker": w, "warmup": n, "count": n,
  "trace": bool}``: a closed loop of seeded point queries, whose answers
  it writes out one JSON line per block for the parent to check.

A host-speed probe (``hostspeed.py``) runs from the worker's first line to
its last.  Timed spans are reported as ``[net seconds, mean probe
seconds]``: ``setup`` from the first line until ``import orbifusion.cli``
has returned (for queries, until the untimed warm-up has ended) and
``span`` around the timed work.  The worker's last line is one JSON object
with ``started`` (clock value at its first line), ``setup``, ``span``,
``elapsed`` (timed seconds net of probes), ``peak_rss_kb`` and the job's
own results.  The clock is ``time.perf_counter``, which is system-wide on
Linux, so the parent can subtract its own spawn time from ``started``.
"""

import json
import os
import sys
import time

import hostspeed


def main() -> None:
    probe = hostspeed.SpeedProbe().start()
    begin = probe.mark()
    root, job = sys.argv[1], json.loads(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import orbifusion
    import orbifusion.cli

    ready = probe.mark()
    if not os.path.abspath(orbifusion.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"orbifusion imported from {orbifusion.__file__}, not from {src}")

    import tracing

    tracer = None
    if job.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()
    reports: list = []
    if job.get("reports"):
        tracing.record_reports(reports)
    if job["kind"] == "cli":
        result = run_cli(orbifusion.cli, job["argv"], probe)
    else:
        import queries

        result = queries.run(orbifusion, job, probe)
        ready = result.pop("ready")
    probe.stop()
    result["started"] = begin[0]
    result["setup"] = probe.span(begin, ready)
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    result["reports"] = [[r.suite, r.elapsed, r.checks_run] for r in reports]
    sys.stdout.write(json.dumps(result, default=list) + "\n")  # arrays after the peak


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter's own address space, in KiB.

    On Linux this is ``VmHWM``.  ``ru_maxrss`` is the fallback only: exec
    folds the spawning parent's peak into it, so there it would report the
    benchmark's own memory whenever the parent is the larger.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(cli, argv: list[str], probe) -> dict:
    """Time one command through the public ``cli.run`` entry point."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        first = probe.mark()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code, err = None, io.StringIO(repr(exc))
        span = probe.span(first, probe.mark())
    return {"elapsed": span[0], "span": span, "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


if __name__ == "__main__":
    main()
