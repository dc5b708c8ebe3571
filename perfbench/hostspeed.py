"""The speed of the CPU a benchmark command runs on, sampled while it runs.

The shared hosts the benchmark runs on change speed by a third or more for
stretches of seconds to minutes, and the guest's CPU time grows with its wall
time, so neither wall time nor CPU time alone tells a slower program from a
slower host.  ``Sampler`` times a fixed pure-Python loop (``probe``) in the
command's own process, on a wall-clock timer every ``INTERVAL_S`` and at the
points the benchmark marks, so the samples interleave finely with the
command's own work.  ``reference_seconds`` turns a stretch of wall time into
the time it would have taken at the speed at which ``probe`` takes
``REFERENCE_PROBE_S``: the stretch minus the probes run inside it, times the
mean of ``REFERENCE_PROBE_S / t`` over the probe times ``t`` sampled in it.
The loop does no work of the program's, so a change to the program moves
these times as it moves wall time.
"""

import gc
import signal
import time

INTERVAL_S = 0.05
PROBE_ITERATIONS = 1000
WARM_ITERATIONS = 100
# probe's time at the reference speed (its median on the 2-vCPU host the
# benchmark was written on, CPython 3.11).
REFERENCE_PROBE_S = 0.00033


def clock():
    # CLOCK_MONOTONIC is system-wide, so timestamps of the parent and of the
    # command's process are on one clock.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_TABLE = [0] * 256


def _loop(iterations):
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 255
        _TABLE[key] = (_TABLE[key] + i) & 0xFFFFF
        acc = (acc * 31 + _TABLE[key]) & 0xFFFFF
    return acc


def probe():
    """Integer arithmetic and list traffic of a fixed size; its wall time.

    It allocates no container, runs with the collector paused and is timed
    after a short untimed pass that brings its code and data back into the
    caches, so the program's heap and cache traffic barely touch it (after
    20 ms of random reads over a 60 MB heap its mean time moved under 1%).
    """
    collecting = gc.isenabled()
    gc.disable()
    _loop(WARM_ITERATIONS)
    start = time.perf_counter()
    _loop(PROBE_ITERATIONS)
    duration = time.perf_counter() - start
    if collecting:
        gc.enable()
    return duration


class Sampler:
    """Probe samples ``(end time, duration)`` taken on a timer and on demand."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        duration = probe()
        self.samples.append((clock(), duration))

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def reference_seconds(begin, end, samples):
    """Wall time from ``begin`` to ``end`` at the reference speed.

    ``samples`` are the probes that ended in that stretch.  Returns None when
    there is none.
    """
    inside = [d for t, d in samples if begin < t <= end]
    if not inside:
        return None
    own = end - begin - sum(inside)
    return own * sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
