"""Host speed probe: times that do not move with the load of neighbouring
virtual machines.

On a shared virtual machine the same code runs up to twice as slow for
seconds or minutes at a time, and the process cannot see why: the slow
phases show neither as steal time nor as a gap between CPU time and wall
time. A timer signal therefore runs a fixed piece of pure-Python work, the
probe, every ``PERIOD_S`` while the program runs, and records how long each
probe took. A window of the program's time is then

* stripped of the probes that ran inside it (``busy``), and
* divided by the mean probe duration inside it, times ``NOMINAL_S``, the
  probe's duration on an idle host (``normalize``).

A change to the program moves the program's time and not the probe's; a
busy host moves both. A normalized figure therefore reads in milliseconds
of an idle host of the kind the benchmark was written on (a 2-vCPU x86
virtual machine, CPython 3.11), and holds still when the host gets busy.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.004     # one probe every 4 ms of wall time
NOMINAL_S = 2.8e-5   # probe duration on an idle host: its 5th percentile over long runs


def _probe_work() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(300):
        d[i & 31] = s
        s += i * 3 % 7
    return s


class HostProbe:
    """Context manager: probes run from SIGALRM while inside it."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._prefix = [0.0]
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for d in self.durations[len(self._prefix) - 1:]:
            self._prefix.append(self._prefix[-1] + d)

    def _span(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def busy(self, a: float, b: float) -> float:
        """Seconds of probing that started inside [a, b)."""
        i, j = self._span(a, b)
        return self._prefix[j] - self._prefix[i]

    def slowdown(self, a: float, b: float) -> float:
        """Mean probe duration inside [a, b) over its idle-host duration."""
        i, j = self._span(a, b)
        if j == i:
            raise ValueError("no probe ran inside the window; it is shorter than the probe period")
        return (self._prefix[j] - self._prefix[i]) / (j - i) / NOMINAL_S

    def normalize(self, seconds: float, a: float, b: float) -> float:
        """``seconds`` of program time measured inside the window [a, b),
        expressed in seconds of an idle host."""
        return seconds / self.slowdown(a, b)
