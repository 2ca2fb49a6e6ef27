"""The reference kernel that measures how fast the machine runs right now.

The machine this benchmark was defined on is shared, and its speed drifts by
tens of percent over minutes.  Timing this fixed kernel next to the work,
and dividing by its time, cancels most of that drift.  It uses no ranklab
code and allocates nothing the garbage collector tracks, so no change to
ranklab can change its time.
"""

import time

# Kernel time that ``setup_s`` is scaled to; about its median on the 2-core
# machine the benchmark was defined on.
NOMINAL_MS = 15.0


def reference_ms():
    """Milliseconds one run of the kernel takes now."""
    start = time.perf_counter()
    values = [(i * 7919) % 1000003 for i in range(60000)]
    seen = set(values)
    values.sort()
    sum(1 for v in values[::3] if v + 7 in seen)
    return (time.perf_counter() - start) * 1000
