"""Host speed correction for the benchmark's timings.

On a shared host a vCPU runs in fast and slow phases, about 1.4 times apart
and lasting from seconds to minutes, and two vCPUs of one machine can be in
different phases at once.  A whole run can fall in a slow phase, so no
statistic over one run's samples removes it.  Each timed process therefore
also times a fixed piece of pure-Python work, the reference, right before
and right after the timed part, on the vCPU it runs on; the timing is
scaled by ``REFERENCE_S`` over the mean of the two reference times.  A
metric thus reads as seconds on a host on which the reference takes
``REFERENCE_S``.  The reference is the benchmark's own code, so no change
to sirnet moves it.

A command that runs a pool of several worker processes depends on several
vCPUs at once, which the references of its own process do not capture: on
the host this was built on, such a command spread more from run to run when
scaled by them (or by references run at once in one process per worker)
than unscaled.  It is scaled instead by the mean of all the run's reference
times, which the run's commands take on every vCPU they land on.

Run ``python3 perfbench/hostspeed.py`` to print a few reference times.
"""

from __future__ import annotations

import time

# about the reference's time in a fast phase of the host recorded in baseline.json
REFERENCE_S = 0.010
LOOPS = 60000


def reference():
    """Seconds taken by a fixed mix of interpreter work: float and integer
    arithmetic, dict and list updates and function calls."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    items = []
    for i in range(LOOPS):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
        items.append(i)
        if len(items) > 64:
            acc -= sum(items) * 1e-9
            items.clear()
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that turns seconds measured between two reference times into
    seconds at the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


if __name__ == "__main__":
    print(" ".join(f"{reference():.5f}" for _ in range(10)))
