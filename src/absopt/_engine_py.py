"""Pure-Python enumeration core with arbitrary-precision arithmetic.

The core takes DNF rows only: each row is (positive mask, negative mask,
weight), a conjunction of its literals whose weight counts when it holds, and
bit i of a mask stands for variable i + 1.  The target is a pair of closed
integer intervals ``((lo1, hi1), (lo2, hi2))``; a value qualifies when it lies
in either one.  Disjunctions and comparisons are turned into this form by
``model.py`` and the endpoints are closed by ``engine.py``.

Depth-first search over assignments in lexicographic order (variable 1 first,
false before true).  Each row tracks how many of its literals are still
unassigned; satisfied and dead rows leave the open set, and the open set's
positive and negative weight sums bound every completion's value.  A subtree
is pruned only when those bounds meet neither interval, so the first hit found
is the true lexicographic first.  At a leaf every row is decided and the
bounds meet at the value, so reaching a leaf is a hit.

The compiled backend (_core.c) mirrors this file exactly; any semantic change
must land in both.
"""

from __future__ import annotations


def _setup(num_vars: int, rows):
    m = len(rows)
    status = [0] * m  # 0 open, 1 satisfied, 2 dead
    rem = [0] * m
    weights = [0] * m
    occ = [[] for _ in range(num_vars)]
    cur = 0
    open_pos = 0
    open_neg = 0
    for c, (pos, neg, wt) in enumerate(rows):
        weights[c] = wt
        k = pos.bit_count() + neg.bit_count()
        rem[c] = k
        for i in range(num_vars):
            bit = 1 << i
            if pos & bit:
                occ[i].append((c, True))
            if neg & bit:
                occ[i].append((c, False))
        if k == 0:
            # No literals: the empty conjunction holds vacuously.
            status[c] = 1
            cur += wt
        elif wt > 0:
            open_pos += wt
        elif wt < 0:
            open_neg += wt
    return status, rem, weights, occ, cur, open_pos, open_neg


def _apply(occ_i, val, status, rem, weights):
    """Propagate one variable assignment; returns (undo list, d_cur, d_pos, d_neg)."""
    changes = []
    dc = dp = dn = 0
    for c, sign in occ_i:
        if status[c]:
            continue
        if sign == val:
            r = rem[c] - 1
            rem[c] = r
            if r == 0:
                status[c] = 1
                wt = weights[c]
                dc += wt
                if wt > 0:
                    dp -= wt
                elif wt < 0:
                    dn -= wt
                changes.append((c, 1))
            else:
                changes.append((c, 0))
        else:
            status[c] = 2
            wt = weights[c]
            if wt > 0:
                dp -= wt
            elif wt < 0:
                dn -= wt
            changes.append((c, 2))
    return changes, dc, dp, dn


def _undo(changes, status, rem):
    for c, kind in reversed(changes):
        if kind == 0:
            rem[c] += 1
        elif kind == 1:
            status[c] = 0
            rem[c] += 1
        else:
            status[c] = 0


def decide(num_vars, rows, targets):
    """First lexicographic assignment whose value lies in a target interval.

    Returns (found, witness_mask, value); the mask has bit i-1 set iff
    variable i is true.
    """
    status, rem, weights, occ, cur0, pos0, neg0 = _setup(num_vars, rows)
    (lo1, hi1), (lo2, hi2) = targets
    path = bytearray(num_vars)

    def rec(depth, cur, opos, oneg):
        lb, ub = cur + oneg, cur + opos
        if not (lb <= hi1 and ub >= lo1 or lb <= hi2 and ub >= lo2):
            return None
        if depth == num_vars:
            return cur
        occ_i = occ[depth]
        for val in (False, True):
            path[depth] = val
            changes, dc, dp, dn = _apply(occ_i, val, status, rem, weights)
            r = rec(depth + 1, cur + dc, opos + dp, oneg + dn)
            _undo(changes, status, rem)
            if r is not None:
                return r
        return None

    value = rec(0, cur0, pos0, neg0)
    if value is None:
        return False, None, None
    mask = 0
    for i in range(num_vars):
        if path[i]:
            mask |= 1 << i
    return True, mask, value


def extremes(num_vars, rows):
    """Exact max and min value with their earliest witnesses.

    Returns (max_value, argmax_mask, min_value, argmin_mask).  Ties keep the
    lexicographically first assignment because only strict improvements
    replace the incumbent and the search visits assignments in order.
    """
    status, rem, weights, occ, cur0, pos0, neg0 = _setup(num_vars, rows)
    path = bytearray(num_vars)
    best = [None, 0, None, 0]  # max, argmax, min, argmin

    def mask_of_path():
        mask = 0
        for i in range(num_vars):
            if path[i]:
                mask |= 1 << i
        return mask

    def rec(depth, cur, opos, oneg):
        if best[0] is not None and cur + opos <= best[0] and cur + oneg >= best[2]:
            return
        if depth == num_vars:
            if best[0] is None or cur > best[0]:
                best[0] = cur
                best[1] = mask_of_path()
            if best[2] is None or cur < best[2]:
                best[2] = cur
                best[3] = mask_of_path()
            return
        occ_i = occ[depth]
        for val in (False, True):
            path[depth] = val
            changes, dc, dp, dn = _apply(occ_i, val, status, rem, weights)
            rec(depth + 1, cur + dc, opos + dp, oneg + dn)
            _undo(changes, status, rem)

    rec(0, cur0, pos0, neg0)
    return best[0], best[1], best[2], best[3]
