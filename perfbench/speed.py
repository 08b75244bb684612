"""Machine-speed calibration with reference loops.

Shared hosts drift: on the 2-core box where this benchmark was written,
the same pass took anywhere from 1.0 to 1.4 s from one 20-second window
to the next, and both cores drifted.  A short fixed loop (a burst) slows
down with the machine, so the benchmark runs bursts between operations,
outside the timed regions, and reports times rescaled to the speed at
which one burst takes its nominal time:

    calibrated = measured * nominal / mean burst time nearby

A burst tracks work like its own best, so there are two:

* ``ALU``: integer shifts, masks and branches in the interpreter, the
  kind of work the search does.  Over 20-second windows it kept the
  solve_exact pass within 5% where the raw time moved by 28%.
* ``PAGES``: fresh pages mapped and touched, as an interpreter start and
  ``import`` do.  It kept a command-line call within 4% where the raw
  time moved by 12%; the ALU burst managed 5%.

The raw wall-clock time is printed alongside.
"""

import mmap
import statistics
import time

# Burst time per second of operation, so samples spread evenly in time.
DUTY = 0.1


def _alu():
    start = time.perf_counter()
    bits = 0
    hits = 0
    for i in range(10_000):
        bits = (bits << 1 | (i & 1)) & 0xFFFFFFFFFFFF
        if bits & 5:
            hits += 1
    return time.perf_counter() - start


def _pages():
    start = time.perf_counter()
    for _ in range(4):
        region = mmap.mmap(-1, 1 << 20)
        for offset in range(0, 1 << 20, mmap.PAGESIZE):
            region[offset] = 1
        region.close()
    return time.perf_counter() - start


class Reference:
    """A burst and its median time on the box the benchmark was written on."""

    def __init__(self, burst, nominal_s):
        self.burst = burst
        self.nominal_s = nominal_s

    def factor(self, samples):
        """nominal over the mean of ``samples``: the scale for nearby times."""
        return self.nominal_s / statistics.fmean(samples)


ALU = Reference(_alu, 0.0026)
PAGES = Reference(_pages, 0.0030)


class Speedometer:
    """Runs bursts after each operation; ``factor`` turns them into a scale."""

    def __init__(self, reference):
        self.reference = reference
        self._samples = []

    def sample(self, busy_s):
        """Run bursts for about DUTY of ``busy_s`` (at least one)."""
        count = max(1, round(busy_s * DUTY / self.reference.nominal_s))
        self._samples.extend(self.reference.burst() for _ in range(count))

    def factor(self):
        """The scale over the bursts since the last call."""
        samples, self._samples = self._samples, []
        return self.reference.factor(samples)
