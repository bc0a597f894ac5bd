"""Machine speed, sampled while the benchmark runs.

The reference machine is a shared virtual machine. Its CPUs run up to
half as fast for seconds or minutes at a time while a neighbour is busy:
a fixed loop took 0.20 s in one minute and 0.31 s in the next, and CPU
time rose with it. Raw times of one run therefore say as much about the
neighbours as about the program.

Every process of a run (the harness, and through ``launcher.py`` its
workers or server) keeps a :class:`Sampler`. Every :data:`INTERVAL_S`
of real time a ``SIGALRM`` handler times a fixed loop, the probe, in the
middle of whatever the process is running. A probe that takes ``p``
seconds ran at speed ``REFERENCE_S / p``. The speed of a span of time is
the mean speed of the probes, of every process, that ended inside it. A
time measured over the span, multiplied by that speed, is what the span
would have taken at the reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Any

#: Real seconds between probes.
INTERVAL_S = 0.02

#: Iterations of the timed probe loop.
PROBE_ITERATIONS = 600

#: Iterations of the untimed loop before each probe, so that a process
#: woken from sleep does not time its caches filling.
WARMUP_ITERATIONS = 60

#: Seconds one probe takes at the reference speed: the fast mode of the
#: reference machine (2.1 GHz Xeon, Python 3.11).
REFERENCE_S = 110e-6

#: ``(time, speed)`` pairs; times are ``time.perf_counter()`` readings,
#: which on Linux are ``CLOCK_MONOTONIC`` and so agree across processes.
Samples = list[tuple[float, float]]


def _loop(iterations: int) -> frozenset[int]:
    # Packed keys counted in a dict, the kind of work the verifier's
    # Python layers do. On the reference machine this tracked the
    # program's slow spells better than pure arithmetic, tuple keys
    # built in advance, or numpy calls: normalised by it, a pass's time
    # varied least with speed. It allocates no object the cyclic
    # collector counts but the dict and the set, so the program's
    # collections keep their own schedule.
    counts: dict[int, int] = {}
    for i in range(iterations):
        key = (i % 13) * 10_000 + (i % 7) * 1_000 + (i >> 3)
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts)


def probe() -> float:
    """Time one probe now; its speed relative to the reference."""
    _loop(WARMUP_ITERATIONS)
    start = time.perf_counter()
    _loop(PROBE_ITERATIONS)
    return REFERENCE_S / (time.perf_counter() - start)


class Sampler:
    """Probes this process's speed every :data:`INTERVAL_S` between
    :meth:`start` and :meth:`stop`.

    Only one sampler may run in a process at a time: it owns the
    process's real-time interval timer and ``SIGALRM`` handler.
    """

    def __init__(self) -> None:
        self.samples: Samples = []
        self._previous: Any = None

    def _sample(self, signum: int | None = None, frame: Any = None) -> None:
        speed = probe()
        self.samples.append((time.perf_counter(), speed))

    def start(self) -> None:
        """Take one sample now, then one every :data:`INTERVAL_S`."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and put the previous ``SIGALRM`` handler back."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def span_speed(samples: Samples, start: float, end: float) -> float:
    """Mean speed of the time-sorted ``samples`` taken from ``start`` to
    ``end``; a span too short to hold one takes the last speed sampled
    before it ended."""
    low = bisect.bisect_left(samples, (start, float("-inf")))
    high = bisect.bisect_right(samples, (end, float("inf")))
    inside = [speed for _, speed in samples[low:high]]
    if inside:
        return sum(inside) / len(inside)
    if high == 0:
        raise ValueError(f"no speed sampled before {end}")
    return samples[high - 1][1]
