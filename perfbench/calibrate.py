"""Machine speed, measured with a fixed loop while the program runs.

The benchmark gets a few cores of a shared host. The speed those cores give
one process drifts by tens of per cent, over seconds and over minutes, and
the drift shows in CPU time as much as in wall time. No statistic of the
passes of one run removes a slow period that lasts longer than the run.

So the benchmark times a fixed loop, which is independent of `sqom`, in the
same thread and time window as the work it measures. The loop does the same
kind of work as the program: float math, small dicts, `repr` formatting
and a 4x4 eigenvalue call. A pass that ran while the machine was slow ran
alongside slow loops. `Sampler.slowdown` says how much slower than
`REFERENCE_S` the loops ran; the benchmark multiplies the pass's rate by it,
which gives the rate the pass would have had at the reference speed. A
change to `sqom` does not touch the loop, so it moves the scaled rate
exactly as it moves the raw one.

The cores of one machine need not run at the same speed at the same time:
one of two cores was seen running the loop at 1.3 times its reference time
while the other took 2 times. So the benchmark pins itself, and the set-up
probes it starts, to one core, and the loops measure that core.
"""
import math
import signal
import time

import numpy as np

_M = np.array([[1.0, 0.2, 0.0, 0.1], [0.2, 2.0, 0.3, 0.0],
               [0.0, 0.3, 3.0, 0.4], [0.1, 0.0, 0.4, 4.0]])

ITERATIONS = 200
# Seconds one loop takes at the reference speed: about the fastest loop seen
# on a 2-core Intel Xeon VM with Python 3.11 and numpy 2.4. It sets the scale
# only; any fixed value would do.
REFERENCE_S = 0.00075


def _loop() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0.0
    lines = []
    for i in range(ITERATIONS):
        x = 0.37 + i * 1e-3
        row = {"a": math.sin(x), "b": math.sqrt(x), "c": x * math.exp(-x),
               "d": math.atan2(x, 1.0)}
        if row["a"] > 0.5:
            acc += row["b"]
        lines.append(",".join(repr(v) for v in row.values()))
        if i % 50 == 0:
            acc += float(np.linalg.eigvals(_M * x).real.sum())
    return time.perf_counter() - start


def slowdown_now(loops: int = 20) -> float:
    """How many times slower than the reference `loops` loops run now,
    back to back."""
    return sum(_loop() for _ in range(loops)) / loops / REFERENCE_S


class Sampler:
    """Runs one loop every INTERVAL_S while a block runs, from a SIGALRM
    handler in the same thread, so the loops share the block's time window.
    `loop_s` is the time the loops took so far, to take off the block's."""

    INTERVAL_S = 0.01

    def __init__(self):
        self.loops = 0
        self.loop_s = 0.0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.loops += 1
        self.loop_s += _loop()

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference the loops ran."""
        return self.loop_s / self.loops / REFERENCE_S
