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

The search state is a row set held in one int, passed down the recursion by
value.  Assigning variable d kills the open rows in a precomputed set for d
and its value, and satisfies the surviving open rows whose last literal is d.
The bounds then move by the weight of those rows.  Rows of weight 0 move no
bound and are left out; the other rows are kept, in one of two layouts:

* Unary, when the kept rows' |w| sum to at most ``UNARY_BOUND``: kept row c
  holds |w_c| consecutive bits, so every set is a union of whole blocks and a
  set's weight of one sign is one ``bit_count``.
* One bit per kept row, bit c for row c, otherwise: the weight is summed as
  one ``bit_count`` per bit plane of |w| and sign, or row by row where a node
  changes fewer rows than there are planes, as with wide weights.

Both give the same bounds, so the search and its first hit do not depend on
the layout.  The bound sits where the layouts were level on 14 variables and
120 random rows of one to three literals with target 1 (2-core x86-64,
Python 3.11): unary took 19-27 ms against 34-59 ms at |w| sums near 1,300,
61-66 ms against 68-83 ms near 4,000, and 89-145 ms against 59-82 ms at
8,000-11,000.  On those rows with even weights, one ``decide`` call for the
unreachable value 1 takes about 20-30 ms at 4-bit weights (unary), 35-65 ms
at 40-bit and 45-100 ms at 100-bit weights (bit planes).

The compiled backend (_core.c) runs this search with one bit per kept row,
held as arrays of 64-bit words, with the same search order, bounds and
pruning, so it finds the same first hit; it sums bound changes row by row in
int64.  Any semantic change must land in both.
"""

from __future__ import annotations

# The largest sum of the kept rows' |w| that takes the unary layout.
UNARY_BOUND = 4096


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


def _plane_move(weights):
    """``move`` over one bit per kept row, bit c for row c of ``weights``.

    Sums run as one ``bit_count`` per bit plane of |w| and sign, or row by row
    where a node changes fewer rows than there are planes.
    """
    pos_planes, neg_planes = _planes(weights, 1), _planes(weights, -1)
    num_planes = len(pos_planes) + len(neg_planes)

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

    return move


def _unary_move(pos, neg):
    """``move`` over |w| bits per kept row: ``pos`` and ``neg`` hold the bits
    of the positive and the negative rows, so a set's weight is a bit count."""

    def move(dead, sat, lb, ub):
        lb += (dead & neg).bit_count() + (sat & pos).bit_count()
        ub -= (dead & pos).bit_count() + (sat & neg).bit_count()
        return lb, ub

    return move


def _setup(num_vars: int, rows):
    """The open rows, the root bounds, each depth's branches, and ``move``.

    ``branches[d]`` holds one (rows killed, witness bit) pair per value of
    variable d, false first; ``last[d]`` the rows whose last literal is d.
    ``move`` gives a child's bounds from its parent's.
    """
    cur = 0
    kept = []
    for pos, neg, wt in rows:
        if not pos | neg:
            # No literals: the empty conjunction holds vacuously.
            cur += wt
        elif wt:
            kept.append((pos, neg, wt))
    weights = [wt for _, _, wt in kept]
    lb = cur + sum(wt for wt in weights if wt < 0)
    ub = cur + sum(wt for wt in weights if wt > 0)
    if ub - lb <= UNARY_BOUND:
        blocks, pos_bits, offset = [], 0, 0
        for wt in weights:
            block = ((1 << abs(wt)) - 1) << offset
            blocks.append(block)
            if wt > 0:
                pos_bits |= block
            offset += abs(wt)
        live = (1 << offset) - 1
        move = _unary_move(pos_bits, live ^ pos_bits)
    else:
        blocks = [1 << c for c in range(len(kept))]
        live = (1 << len(kept)) - 1
        move = _plane_move(weights)
    kill_false = [0] * num_vars  # rows with a positive literal of d
    kill_true = [0] * num_vars  # rows with a negative literal of d
    last = [0] * num_vars
    for (pos, neg, _), block in zip(kept, blocks):
        last[(pos | neg).bit_length() - 1] |= block
        for mask, kill in ((pos, kill_false), (neg, kill_true)):
            while mask:
                low = mask & -mask
                kill[low.bit_length() - 1] |= block
                mask ^= low
    branches = [((kill_false[d], 0), (kill_true[d], 1 << d)) for d in range(num_vars)]
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

