"""Pure-Python enumeration core with arbitrary-precision arithmetic.

Depth-first search over assignments in lexicographic order (variable 1 first,
false before true).  Each clause tracks how many of its literals are still
unassigned; satisfied and dead clauses leave the open set, and the open set's
positive and negative weight sums bound every completion's value.  A subtree
is pruned only when those bounds show no completion can qualify, so the first
hit found is the true lexicographic first.

The compiled backend (_core.c) mirrors this file exactly; any semantic change
must land in both.
"""

from __future__ import annotations


def _setup(num_vars: int, clauses, dnf: bool):
    m = len(clauses)
    status = [0] * m  # 0 open, 1 satisfied, 2 dead
    rem = [0] * m
    weights = [0] * m
    occ = [[] for _ in range(num_vars)]
    cur = 0
    open_pos = 0
    open_neg = 0
    for c, (pos, neg, wt) in enumerate(clauses):
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
            # No literals: a conjunction holds vacuously, a disjunction never.
            if dnf:
                status[c] = 1
                cur += wt
            else:
                status[c] = 2
        else:
            if wt > 0:
                open_pos += wt
            elif wt < 0:
                open_neg += wt
    return status, rem, weights, occ, cur, open_pos, open_neg


def _apply(occ_i, val, dnf, status, rem, weights):
    """Propagate one variable assignment; returns (undo list, d_cur, d_pos, d_neg)."""
    changes = []
    dc = dp = dn = 0
    if dnf:
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
    else:
        for c, sign in occ_i:
            if status[c]:
                continue
            if sign == val:
                status[c] = 1
                wt = weights[c]
                dc += wt
                if wt > 0:
                    dp -= wt
                elif wt < 0:
                    dn -= wt
                changes.append((c, 2))
            else:
                r = rem[c] - 1
                rem[c] = r
                if r == 0:
                    status[c] = 2
                    wt = weights[c]
                    if wt > 0:
                        dp -= wt
                    elif wt < 0:
                        dn -= wt
                    changes.append((c, 1))
                else:
                    changes.append((c, 0))
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


def _reach_fn(alpha, absolute, comparison):
    if comparison == "atleast":
        if absolute:
            return lambda lb, ub: ub >= alpha or lb <= -alpha
        return lambda lb, ub: ub >= alpha
    if comparison == "exact":
        if absolute:
            return lambda lb, ub: lb <= alpha <= ub or lb <= -alpha <= ub
        return lambda lb, ub: lb <= alpha <= ub
    if absolute:
        return lambda lb, ub: not (lb > alpha or ub < -alpha)
    return lambda lb, ub: lb <= alpha


def _hit_fn(alpha, absolute, comparison):
    if comparison == "atleast":
        if absolute:
            return lambda v: v >= alpha or v <= -alpha
        return lambda v: v >= alpha
    if comparison == "exact":
        if absolute:
            return lambda v: v == alpha or v == -alpha
        return lambda v: v == alpha
    if absolute:
        return lambda v: -alpha <= v <= alpha
    return lambda v: v <= alpha


def decide(num_vars, clauses, *, dnf, alpha, absolute, comparison):
    """First lexicographic assignment meeting the comparison, or absence.

    Returns (found, witness_mask, value); the mask has bit i-1 set iff
    variable i is true.
    """
    status, rem, weights, occ, cur0, pos0, neg0 = _setup(num_vars, clauses, dnf)
    reach = _reach_fn(alpha, absolute, comparison)
    hit = _hit_fn(alpha, absolute, comparison)
    path = bytearray(num_vars)

    def rec(depth, cur, opos, oneg):
        if not reach(cur + oneg, cur + opos):
            return None
        if depth == num_vars:
            return cur if hit(cur) else None
        occ_i = occ[depth]
        for val in (False, True):
            path[depth] = val
            changes, dc, dp, dn = _apply(occ_i, val, dnf, status, rem, weights)
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


def extremes(num_vars, clauses, *, dnf):
    """Exact max and min value with their earliest witnesses.

    Returns (max_value, argmax_mask, min_value, argmin_mask).  Ties keep the
    lexicographically first assignment because only strict improvements
    replace the incumbent and the search visits assignments in order.
    """
    status, rem, weights, occ, cur0, pos0, neg0 = _setup(num_vars, clauses, dnf)
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
            changes, dc, dp, dn = _apply(occ_i, val, dnf, status, rem, weights)
            rec(depth + 1, cur + dc, opos + dp, oneg + dn)
            _undo(changes, status, rem)

    rec(0, cur0, pos0, neg0)
    return best[0], best[1], best[2], best[3]
