"""Host-speed probe: how fast this interpreter runs while timed work runs.

On a shared host the speed at which one process executes drifts by a
fifth or more, over milliseconds and over minutes, with the load of the
host's other tenants.  A raw wall time then measures the neighbours as
much as the program.  So a worker times a fixed snippet of interpreter
work, the probe, every INTERVAL_S of wall time from a ``SIGALRM`` handler
while its timed work runs.  A timed span is reported net of the probes that
ran inside it, together with the mean probe duration over the span; and
:func:`rescale` converts its seconds to seconds at the reference speed, at
which the probe takes REFERENCE_S.  Work that runs at the host's speed
scales with the probe, so the rescaled time moves with the program and
much less with the host.

The probe allocates no container object, so it never starts a garbage
collection of the program's objects.
"""

from __future__ import annotations

import contextlib
import signal
import time

INTERVAL_S = 0.005
PROBE_STEPS = 300  # about 0.08 ms of CPython 3.11 on a 2-vCPU x86-64 host
#: Probe duration that defines the reference speed: roughly its median on
#: a 2-vCPU x86-64 host under Python 3.11, so that rescaled seconds read
#: close to that host's wall seconds.
REFERENCE_S = 8.0e-5


class _Step:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 3

    def step(self, i: int) -> int:
        return self.x + i


_STEP = _Step()
_TABLE = {i: i for i in range(1024)}


def probe_once() -> float:
    """Seconds that one probe takes: dict lookups, calls and small integers."""
    table, obj, clock = _TABLE, _STEP, time.perf_counter
    total = 0
    start = clock()
    for i in range(PROBE_STEPS):
        total += table[i & 1023] + obj.step(i) + len(table)
    return clock() - start


class SpeedProbe:
    """Probes the host's speed every INTERVAL_S while it is started.

    ``probe_s`` and ``count`` grow with each probe.  :meth:`mark` takes a
    reading; :meth:`span` turns two readings into the span's seconds net of
    the probes inside it and the mean probe over it.
    """

    def __init__(self):
        self.probe_s = 0.0
        self.count = 0

    def _tick(self, signum=None, frame=None) -> None:
        self.probe_s += probe_once()
        self.count += 1

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def held(self):
        """Hold probes back while writing to a pipe, which a signal can cut short."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.probe_s, self.count

    @staticmethod
    def span(first: tuple, last: tuple) -> list[float]:
        """``[net seconds, mean probe seconds]`` between two marks.

        A span too short to hold a probe gets one probe taken after it.
        """
        count = last[2] - first[2]
        probes = last[1] - first[1]
        mean = probes / count if count else probe_once()
        return [last[0] - first[0] - probes, mean]


def rescale(net_s: float, probe_s: float) -> float:
    """Seconds at the reference speed, from net seconds and the mean probe."""
    return net_s * REFERENCE_S / probe_s
