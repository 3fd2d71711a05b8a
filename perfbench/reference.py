"""A fixed reference loop that measures the speed of the core it runs on.

The shared 2-core machine the benchmark was written on changes speed by 30%
to 50% in phases that last from seconds to minutes, longer than one run.  A
run therefore times this loop next to every op (and next to every set-up
sample) and reports each time scaled to the reference speed:
``seconds * REF_S / reference_seconds``, where the reference time is the
loop's median around the op.  A change to the program moves the scaled time as
it moves the wall time; a phase of the machine moves both the op and the loop,
and cancels.

The loop is plain Python over ints, dicts and frozensets, the kind of work
absopt's pure backend does.  This module imports nothing but ``time``, so the
set-up probe can load it before ``import absopt`` without importing a module
absopt would otherwise pay for.
"""

from time import perf_counter

# Seconds the loop takes at the reference speed.  Scaled times read like wall
# times on a core that runs the loop in REF_S.
REF_S = 0.002


def _loop():
    table, seen, acc = {}, set(), 0
    for i in range(3000):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + i
        seen.add(frozenset((k, i & 15)))
        acc += len(seen) ^ k
    return acc


def reference_s():
    """Seconds one run of the reference loop takes now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
