"""Pure-Python enumeration core with arbitrary-precision arithmetic.

The core takes DNF rows only: each row is (positive mask, negative mask,
weight), a conjunction of its literals whose weight counts when it holds, and
bit i of a mask stands for variable i + 1; no mask reaches past ``num_vars``.
The target is a pair of closed integer intervals ``((lo1, hi1), (lo2, hi2))``;
a value qualifies when it lies in either one.  Disjunctions and comparisons
are turned into this form by ``model.py`` and the endpoints are closed by
``engine.py``.

Depth-first search over assignments in lexicographic order (variable 1 first,
false before true).  Satisfied and dead rows leave the open set, and the open
set's positive and negative weight sums bound every completion's value.  A
subtree is pruned only when those bounds meet neither interval, so the first
hit found is the true lexicographic first.  At a leaf every row is decided and
the bounds meet at the value, so reaching a leaf is a hit.

The search state is a row set held in one int, bit c for row c, passed down
the recursion by value.  Assigning variable d kills the open rows in a
precomputed set for d and its value, and satisfies the surviving open rows
whose last literal is d.  The bounds then move by the weight of those rows,
summed as one ``bit_count`` per bit plane of |w| and sign, or row by row
where a node changes fewer rows than there are planes, as with wide weights.
On 14 variables and 120 random rows of one to three literals with even
weights, one ``decide`` call for the unreachable value 1 takes about 40-60 ms
at 4- and 40-bit weights and 50-95 ms at 100-bit weights (2-core x86-64,
Python 3.11).  Rows of weight 0 move no bound and are left out.

The compiled backend (_core.c) runs this search on the same row sets, held
as arrays of 64-bit words, with the same search order, bounds and pruning,
so it finds the same first hit; it sums bound changes row by row in int64.  Any
semantic change must land in both.
"""

from __future__ import annotations


def _planes(weights, sign):
    """(row set, bit) pairs, one per bit plane of |w| over the rows of this sign.

    The magnitude of that weight in a row set s is the sum over the planes of
    ``(s & row set).bit_count() << bit``.
    """
    planes = {}
    for c, wt in enumerate(weights):
        if wt * sign > 0:
            mag = abs(wt)
            for b in range(mag.bit_length()):
                if mag >> b & 1:
                    planes[b] = planes.get(b, 0) | 1 << c
    return [(rows, b) for b, rows in planes.items()]


def _setup(num_vars: int, rows):
    """The open rows, the root bounds, each depth's branches, and ``move``.

    ``branches[d]`` holds one (rows killed, witness bit) pair per value of
    variable d, false first; ``last[d]`` the rows whose last literal is d.
    ``move`` gives a child's bounds from its parent's.
    """
    kill_false = [0] * num_vars  # rows with a positive literal of d
    kill_true = [0] * num_vars  # rows with a negative literal of d
    last = [0] * num_vars
    weights = []
    cur = 0
    for pos, neg, wt in rows:
        lits = pos | neg
        if not lits:
            # No literals: the empty conjunction holds vacuously.
            cur += wt
            continue
        if not wt:
            continue
        bit = 1 << len(weights)
        weights.append(wt)
        last[lits.bit_length() - 1] |= bit
        for mask, kill in ((pos, kill_false), (neg, kill_true)):
            while mask:
                low = mask & -mask
                kill[low.bit_length() - 1] |= bit
                mask ^= low
    live = (1 << len(weights)) - 1
    lb = cur + sum(wt for wt in weights if wt < 0)
    ub = cur + sum(wt for wt in weights if wt > 0)
    pos_planes, neg_planes = _planes(weights, 1), _planes(weights, -1)
    num_planes = len(pos_planes) + len(neg_planes)
    branches = [((kill_false[d], 0), (kill_true[d], 1 << d)) for d in range(num_vars)]

    def move(dead, sat, lb, ub):
        """lb and ub once the rows in dead die and the rows in sat hold.

        An open row's weight counts in ub when positive and in lb when
        negative.  A dead row's weight leaves that bound; a satisfied row's
        weight is certain and enters the other bound too.
        """
        if (dead | sat).bit_count() < num_planes:
            while dead:
                low = dead & -dead
                wt = weights[low.bit_length() - 1]
                if wt > 0:
                    ub -= wt
                else:
                    lb -= wt
                dead ^= low
            while sat:
                low = sat & -sat
                wt = weights[low.bit_length() - 1]
                if wt > 0:
                    lb += wt
                else:
                    ub += wt
                sat ^= low
        else:
            if dead:
                for rows, b in pos_planes:
                    ub -= (dead & rows).bit_count() << b
                for rows, b in neg_planes:
                    lb += (dead & rows).bit_count() << b
            if sat:
                for rows, b in pos_planes:
                    lb += (sat & rows).bit_count() << b
                for rows, b in neg_planes:
                    ub -= (sat & rows).bit_count() << b
        return lb, ub

    return live, lb, ub, branches, last, move


def decide(num_vars, rows, targets):
    """First lexicographic assignment whose value lies in a target interval.

    Returns (found, witness_mask, value); the mask has bit i-1 set iff
    variable i is true.
    """
    live0, lb0, ub0, branches, last, move = _setup(num_vars, rows)
    (lo1, hi1), (lo2, hi2) = targets

    def rec(depth, live, lb, ub, mask):
        if depth == num_vars:
            return ub, mask  # every row is decided, so lb == ub
        sat_if_open = last[depth]
        for kill, bit in branches[depth]:
            dead = live & kill
            rest = live ^ dead
            sat = rest & sat_if_open
            clb, cub = move(dead, sat, lb, ub) if dead or sat else (lb, ub)
            if clb <= hi1 and cub >= lo1 or clb <= hi2 and cub >= lo2:
                hit = rec(depth + 1, rest ^ sat, clb, cub, mask | bit)
                if hit is not None:
                    return hit
        return None

    if not (lb0 <= hi1 and ub0 >= lo1 or lb0 <= hi2 and ub0 >= lo2):
        return False, None, None
    hit = rec(0, live0, lb0, ub0, 0)
    if hit is None:
        return False, None, None
    value, mask = hit
    return True, mask, value

