"""The machine's pace, so that reported times follow the program and not the host.

On a shared host the whole machine speeds up and slows down in phases that
last minutes: a pure-Python loop can take twice as long in one minute as in
the next, and even the fastest of many repeats moves with it.  A fixed
reference kernel, which does not use the program, is therefore timed right
before and right after every measured section.  The section's time is
reported at the reference pace::

    paced = raw * PACE_NOMINAL_S / mean(kernel time before, kernel time after)

A change to the program moves the section and not the kernel, so it moves
the paced time by the same share as the wall time; a slow phase of the host
moves both and cancels.  The kernel mixes the two kinds of work the program
does: interpreter-bound Python and small numpy operations, plus random
reads from an array larger than a core's L2 cache, which follow contention
for the shared cache and memory that large sparse masks meet.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host the bounds were set on, in a fast phase; it
# only scales the paced times so that they read close to wall seconds.
PACE_NOMINAL_S = 0.020
PACE_REPS = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 16))
_B = _rng.standard_normal((16, 64))
_IDX = _rng.integers(0, 64, 256)
_BIG = _rng.standard_normal(1 << 20)            # 8 MiB
_BIG_IDX = _rng.integers(0, _BIG.size, 1 << 15)


def _kernel() -> None:
    s, d = 0, {}
    for i in range(6000):
        d[i & 127] = s
        s += (i * i) % 7
    for _ in range(40):
        x = _A @ _B
        np.exp(x, out=x)
        x.sum(axis=1)
        x[_IDX]
    for _ in range(10):
        _BIG[_BIG_IDX].sum()


def pace() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(PACE_REPS):
        _kernel()
    return time.perf_counter() - t0


class PacedTimer:
    """Times calls, each between two pace probes.

    ``timer.time(fn, *args)`` returns ``(result, raw_s, paced_s)``.  The
    probe after one call is the probe before the next, so a run of calls
    costs one probe each.
    """

    def __init__(self):
        self.before = pace()

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = pace()
        scale = PACE_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return out, raw, raw * scale
