"""Machine-speed calibration.

On a shared host the same pure-Python work can take from 1x to almost 2x
its quiet time, and the rate drifts within a second.  A run therefore times
a fixed *probe* right before and right after every task, and, while a task
runs, a slice of the probe every ``SAMPLE_INTERVAL`` seconds (``Sampler``).
The task's time, less the time the slices took, is scaled by
``REF_SECONDS`` over the mean of these speed readings.  Times reported this
way are in *reference seconds*: what the task would have taken had the
machine run the probe in ``REF_SECONDS``.  A change to the package moves
the task's time and leaves the probe alone, so it still shows in full; a
change of machine speed moves both and cancels.

The probe is the benchmark's own code, never the package's: products of
small ternary matrices (``perfbench.algebra.mul``) written out as text,
the same mix of tuple building, generator loops, integer arithmetic and
string joins the package spends its time on.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

from perfbench.algebra import mul

#: The probe's fastest time over 300 tries on a 2-vCPU x86-64 virtual
#: machine (Xeon, 2.1 GHz) with Python 3.11; its median there was 0.014.
#: It only sets the scale of the reported times; changing it rescales every
#: calibrated figure alike.
REF_SECONDS = 0.008
#: Seconds of task time between two in-task slices.  A slice takes about
#: 1/18 of the probe, so slices cost about 1% of a task's time.
SAMPLE_INTERVAL = 0.05

_TERNARY = (-1, 0, 1)
_MATRICES = tuple(
    tuple(tuple(_TERNARY[(7 * i + 3 * j + k) % 3] for j in range(3)) for i in range(3))
    for k in range(9)
)
_PAIRS = tuple((a, b) for a in _MATRICES for b in _MATRICES)
_REPS = 6
#: every third pair, so a slice is 1/SLICES of the probe's work
_SLICE = _PAIRS[::3]
SLICES = _REPS * len(_PAIRS) // len(_SLICE)


def _work(pairs) -> None:
    for a, b in pairs:
        "\n".join(" ".join(map(str, row)) for row in mul(mul(a, b), a))


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = perf_counter()
    for _ in range(_REPS):
        _work(_PAIRS)
    return perf_counter() - t0


def scale(readings) -> float:
    """Factor that turns seconds measured during the given probe readings
    into reference seconds."""
    return REF_SECONDS / mean(readings)


class Sampler:
    """Context manager that reads the machine's speed while the code in its
    block runs: a SIGALRM handler times one slice of the probe every
    ``SAMPLE_INTERVAL`` seconds.  ``readings`` holds each slice's time
    scaled to a whole probe; ``spent`` the seconds the handler took, which
    the caller takes off the block's time.  The program under test runs in
    the main thread and sets no signal handler of its own."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        _work(_SLICE)
        t1 = perf_counter()
        self.readings.append((t1 - t0) * SLICES)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
