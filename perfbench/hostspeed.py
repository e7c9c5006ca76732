"""Host speed, from a fixed reference loop run between operations.

The benchmark shares a host with other guests, and that host changes
speed by tens of percent over seconds to minutes: on a 2-vCPU guest a
pure-Python loop and a compile-suite mapping slowed down together by
up to 45% within 90 seconds.  Raw times of runs a few minutes apart
then differ by more than any change worth measuring.

A :class:`Speedometer` times :func:`reference_loop`, which uses no
code of the program, every :data:`INTERVAL` seconds between
operations, while nothing else of the benchmark runs.
:meth:`Speedometer.scaled` turns a wall-clock interval into the
seconds it would have taken on the *nominal host*, the one on which
the reference loop takes :data:`NOMINAL_S`: each stretch of the
interval between two samples is multiplied by ``NOMINAL_S`` over the
mean loop time of those two.  The host's speed flips within a second,
so only the samples next to a stretch tell its speed; a median over a
longer window or the whole run was less steady in trials.  Over 120
seconds of mappings on that guest, each scaled by the loop times just
before and after it, the spread of 5-second medians fell from 0.23 of
their median (raw) to 0.013 (scaled).

The in-process workloads (compile-suite, sweep-grid) run on one vCPU
and leave the other to the host, and one loop samples them.  The
daemon workloads (service-mixed, fleet-sweep) keep both vCPUs busy
with their own processes, and a loop run on one vCPU while the other
idles does not see the host as they do: scaled that way, the spread
of service-mixed grew as often as it shrank.  They are sampled with
two loops at once, one per vCPU; over eight fleet-sweep runs that cut
the spread of latency_ms_p50 from 0.22 of the median (raw) to 0.11.
run.py prints the raw value beside every scaled one.  The scale
cancels the host, not a change in the program, because the loop never
runs the program's code.
"""

from __future__ import annotations

import multiprocessing
import time

#: Seconds :func:`reference_loop` takes on the nominal host.
NOMINAL_S = 0.006
#: Iterations of the reference loop.  A sample times one loop, and
#: counts any time the host took the vCPU away during it, as the
#: workload's operations do.
LOOP = 36_000
#: Seconds between samples, where the operations allow.
INTERVAL = 0.25


def reference_loop() -> int:
    """A fixed amount of interpreter work: dictionary stores and
    lookups, integer arithmetic."""
    table: dict[int, int] = {}
    total = 0
    for index in range(LOOP):
        table[index & 255] = index
        total += table.get((index * 7) & 255, 0)
    return total


def _timed_loop() -> float:
    """Seconds one reference loop takes now."""
    begin = time.perf_counter()
    reference_loop()
    return time.perf_counter() - begin


def _alongside(connection) -> None:
    """A helper process: one timed sample per request, until told to
    stop."""
    while connection.recv():
        connection.send(_timed_loop())


class Speedometer:
    """Samples of the reference loop's time, taken between
    operations.

    A workload that keeps *busy_cpus* vCPUs busy is sampled with that
    many loops at once, one here and the rest in helper processes, so
    that the sample sees the host as the workload does; a sample is
    their mean.  :meth:`close` stops the helpers.
    """

    def __init__(self, busy_cpus: int = 1):
        #: ``(start, end, seconds)`` of every sample, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._helpers = []
        for _ in range(busy_cpus - 1):
            here, there = multiprocessing.Pipe()
            process = multiprocessing.get_context("fork").Process(
                target=_alongside, args=(there,), daemon=True)
            process.start()
            self._helpers.append((process, here))

    def sample(self) -> None:
        """Time the reference loop now."""
        start = time.perf_counter()
        for _, connection in self._helpers:
            connection.send(True)
        times = [_timed_loop()] + [connection.recv()
                                for _, connection in self._helpers]
        self.samples.append((start, time.perf_counter(),
                             sum(times) / len(times)))

    def close(self) -> None:
        """Stop and reap the helper processes."""
        for process, connection in self._helpers:
            try:
                connection.send(False)
            except OSError:
                pass  # the helper is gone already
            process.join(5)
            if process.is_alive():
                process.kill()
                process.join()
        self._helpers.clear()

    def tick(self) -> None:
        """Sample when the last sample is :data:`INTERVAL` old."""
        if not self.samples or \
                time.perf_counter() - self.samples[-1][1] >= INTERVAL:
            self.sample()

    def scaled(self, begin: float, end: float) -> float:
        """Seconds from *begin* to *end* at the nominal host's speed.

        A stretch between two samples runs at the mean speed of the
        two; before the first sample and after the last, at that
        sample's speed.
        """
        if not self.samples:
            raise RuntimeError("no host-speed sample taken")
        # Stretch k ends where sample k ends.
        edges = ([float("-inf")] + [stop for _, stop, _ in self.samples]
                 + [float("inf")])
        total = 0.0
        for index in range(len(edges) - 1):
            overlap = min(end, edges[index + 1]) - max(begin, edges[index])
            if overlap > 0:
                around = [seconds for _, _, seconds
                          in self.samples[max(index - 1, 0):index + 1]]
                total += overlap * NOMINAL_S * len(around) / sum(around)
        return total
