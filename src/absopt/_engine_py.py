"""Pure-Python enumeration core with arbitrary-precision arithmetic.

The core takes DNF rows only: each row is (positive mask, negative mask,
weight), a conjunction of its literals whose weight counts when it holds, and
bit i of a mask stands for variable i + 1; no mask reaches past ``num_vars``.
The target is a pair of closed integer intervals ``((lo1, hi1), (lo2, hi2))``;
a value qualifies when it lies in either one.  Disjunctions and comparisons
are turned into this form by ``model.py`` and the endpoints are closed by
``engine.py``.

Depth-first search over assignments in lexicographic order (variable 1 first,
false before true).  A node's state is its open set, the rows not yet killed
or satisfied, held in one int and passed down the recursion by value, and
two bounds on every completion's value: lb, the certain weight plus the open
negative weights, and ub, the certain weight plus the open positive weights.
A subtree is pruned only when [lb, ub] meets neither interval, so the first
hit found is the true lexicographic first.  After the last variable every row
is decided and lb == ub is the value, so a child there that is not pruned is
the hit.

Assigning variable d a value is one precomputed step (keep, gain, loss).
Of the open rows, those with a literal that the value falsifies die, and
the survivors whose last literal is d hold; ``keep`` is every other row.  A
dying row's |w| leaves ub when w > 0 and enters lb when w < 0; a holding
row's |w| enters lb when w > 0 and leaves ub when w < 0.  So ``gain`` holds
the rows whose |w| enters lb and ``loss`` those whose |w| leaves ub, and a
child's state is ``live & keep``, ``lb + weigh(live & gain)`` and
``ub - weigh(live & loss)``.  Rows of weight 0 move no bound and are left
out; the other rows are kept, in one of two layouts:

* Unary, when the kept rows' |w| sum to at most ``UNARY_BOUND``: kept row c
  holds |w_c| consecutive bits, so a set's weight is its ``bit_count``.
* One bit per kept row, bit c for row c, otherwise: a set's weight is one
  ``bit_count`` per bit plane of |w|, or is summed row by row where the set
  holds fewer rows than there are planes, as with wide weights.

Both give the same bounds, so the search and its first hit do not depend on
the layout.  The bound comes from timing both layouts on 14 variables and
120 random rows of one to three literals with the exact target 1 (2-core
x86-64, Python 3.11; mean per call over 24 row sets): unary against bit
planes took 0.7 against 1.9 ms at |w| sums near 1,300, 1.9 against 3.2 ms
near 4,200, 6.8 against 7.6 ms near 8,200, 6.8 against 6.7 ms near 9,500
and 9.1 against 8.0 ms near 11,200, so it sits at 9,000, just short of
level.  No benchmark call comes near it (the largest seed-1 sum is 949), so
no workload checks it.  On those rows with even weights, one
``decide`` call for the unreachable value 1 takes about 9-12 ms at 4-bit
weights (unary), 37-66 ms at 40-bit and 35-47 ms at 100-bit weights (bit
planes).

The compiled backend (_core.c) runs this search with one bit per kept row,
held as arrays of 64-bit words, with the same search order, bounds and
pruning, so it finds the same first hit; it sums bound changes row by row in
int64.  Any semantic change must land in both.
"""

from __future__ import annotations

from itertools import accumulate

# The largest sum of the kept rows' |w| that takes the unary layout.
UNARY_BOUND = 9_000


def _bit_planes(mags):
    """(row set, bit) pairs, one per bit plane of the magnitudes ``mags``.

    The magnitude of a row set s is the sum over the planes of
    ``(s & row set).bit_count() << bit``.
    """
    planes = {}
    for c, mag in enumerate(mags):
        for b in range(mag.bit_length()):
            if mag >> b & 1:
                planes[b] = planes.get(b, 0) | 1 << c
    return [(rows, b) for b, rows in planes.items()]


def _plane_weigh(mags):
    """The magnitude of a set of kept rows, bit c for row c of ``mags``."""
    planes = _bit_planes(mags)
    num_planes = len(planes)

    def weigh(s):
        if s.bit_count() < num_planes:
            total = 0
            while s:
                low = s & -s
                total += mags[low.bit_length() - 1]
                s ^= low
            return total
        return sum((s & rows).bit_count() << b for rows, b in planes)

    return weigh


def _setup(num_vars: int, rows):
    """The open rows, the root bounds, each depth's steps, and ``weigh``.

    ``steps[d]`` holds one (keep, gain, loss, witness bit) step per value of
    variable d, false first; ``weigh`` gives the |w| sum of a set of rows.
    """
    cur = 0
    kept = []
    for pos, neg, wt in rows:
        if not pos | neg:
            # No literals: the empty conjunction holds vacuously.
            cur += wt
        elif wt:
            kept.append((pos, neg, wt))
    mags = [abs(wt) for _, _, wt in kept]
    lb = cur + sum(wt for _, _, wt in kept if wt < 0)
    ub = cur + sum(wt for _, _, wt in kept if wt > 0)
    if ub - lb <= UNARY_BOUND:
        blocks = [((1 << mag) - 1) << at for mag, at in zip(mags, accumulate(mags, initial=0))]
        weigh = int.bit_count
    else:
        blocks = [1 << c for c in range(len(kept))]
        weigh = _plane_weigh(mags)
    live = pos_rows = 0
    kill = [[0, 0] for _ in range(num_vars)]  # rows each value of d falsifies
    last = [0] * num_vars
    for (pos, neg, wt), block in zip(kept, blocks):
        live |= block
        if wt > 0:
            pos_rows |= block
        last[(pos | neg).bit_length() - 1] |= block
        for mask, value in ((pos, 0), (neg, 1)):
            while mask:
                low = mask & -mask
                kill[low.bit_length() - 1][value] |= block
                mask ^= low
    neg_rows = live ^ pos_rows
    steps = []
    for d in range(num_vars):
        step = []
        for value in (0, 1):
            dies = kill[d][value]
            holds = last[d] & ~dies
            gain = dies & neg_rows | holds & pos_rows
            loss = dies & pos_rows | holds & neg_rows
            step.append((live & ~(dies | last[d]), gain, loss, value << d))
        steps.append(step)
    return live, lb, ub, steps, weigh


def decide(num_vars, rows, targets):
    """First lexicographic assignment whose value lies in a target interval.

    Returns (found, witness_mask, value); the mask has bit i-1 set iff
    variable i is true.
    """
    live0, lb0, ub0, steps, weigh = _setup(num_vars, rows)
    (lo1, hi1), (lo2, hi2) = targets
    if not (lb0 <= hi1 and ub0 >= lo1 or lb0 <= hi2 and ub0 >= lo2):
        return False, None, None
    if not num_vars:
        return True, 0, ub0  # no rows with literals, so lb0 == ub0
    final = num_vars - 1

    def rec(depth, live, lb, ub, mask):
        for keep, gain, loss, bit in steps[depth]:
            clb = lb + weigh(live & gain)
            cub = ub - weigh(live & loss)
            if clb <= hi1 and cub >= lo1 or clb <= hi2 and cub >= lo2:
                if depth == final:
                    return True, mask | bit, cub  # every row is decided
                hit = rec(depth + 1, live & keep, clb, cub, mask | bit)
                if hit:
                    return hit
        return None

    return rec(0, live0, lb0, ub0, 0) or (False, None, None)
