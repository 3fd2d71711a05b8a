/* Compiled enumeration core, loaded through ctypes by engine.py.

   Matches _engine_py.py node for node: depth-first search over assignments
   in lexicographic order (variable 1 first, false before true), the same
   bounds and pruning, and the same witness tie-breaking.  The data layout
   differs: per-row counters and an undo trail here, row sets held in ints
   there.  Plain C with no Python API.  The caller guarantees at most 62
   variables and an absolute weight sum T below 2^62, and closes every target
   endpoint within [-T-1, T+1], so no int64 sum or comparison the search
   forms can overflow.

   The input is m DNF rows of (positive mask, negative mask, weight), each a
   conjunction of its literals; bit i of a mask stands for variable i + 1, and
   so does bit i of a witness.  The target is two closed intervals
   (lo1, hi1, lo2, hi2), and a value qualifies when it lies in either. */

#include <stdint.h>
#include <stdlib.h>

enum { OPEN = 0, SATISFIED = 1, DEAD = 2 };
/* Undo records: restore rem, restore status and rem, or restore status. */
enum { UNDO_REM = 0, UNDO_BOTH = 1, UNDO_STATUS = 2 };

typedef struct {
    int n, top;
    int64_t lo1, hi1, lo2, hi2;
    char *mem;      /* one block holding the arrays below */
    int64_t *w;
    int *rem;
    int *occ_start; /* n + 1 offsets into occ */
    int *occ;       /* row << 1 | literal is positive, grouped by variable */
    int *trail;     /* row << 2 | undo record */
    unsigned char *status;
    uint64_t path;  /* values on the current branch */
    int64_t value;  /* decide: the value of the hit */
    int have;       /* extremes: the incumbents below are set */
    int64_t maxv, minv;
    uint64_t argmax, argmin;
} Core;

static int popcount(uint64_t x)
{
    int k = 0;
    for (; x; x &= x - 1)
        k++;
    return k;
}

/* Builds the occurrence lists and the open bounds; returns -1 when out of
   memory.  Empty rows start satisfied. */
static int build(Core *k, int n, int m, const int64_t *cl,
                 int64_t *cur, int64_t *pos, int64_t *neg)
{
    int total = 0, c, i;
    for (c = 0; c < m; c++)
        total += popcount((uint64_t)cl[3 * c]) + popcount((uint64_t)cl[3 * c + 1]);
    k->mem = calloc(1, sizeof(int64_t) * (m + 1)
                       + sizeof(int) * ((m + 1) + (n + 2) + 2 * (total + 1)) + (m + 1));
    if (!k->mem)
        return -1;
    k->w = (int64_t *)k->mem;
    k->rem = (int *)(k->w + m + 1);
    k->occ_start = k->rem + m + 1;
    k->occ = k->occ_start + n + 2;
    k->trail = k->occ + total + 1;
    k->status = (unsigned char *)(k->trail + total + 1);
    k->n = n;
    /* Count each variable's occurrences into occ_start[i + 2]; after the
       prefix sums, occ_start[i + 1] is variable i's fill cursor. */
    for (c = 0; c < m; c++)
        for (i = 0; i < n; i++)
            k->occ_start[i + 2] += (int)((cl[3 * c] >> i & 1) + (cl[3 * c + 1] >> i & 1));
    for (i = 2; i <= n + 1; i++)
        k->occ_start[i] += k->occ_start[i - 1];
    *cur = *pos = *neg = 0;
    for (c = 0; c < m; c++) {
        int64_t wt = cl[3 * c + 2];
        for (i = 0; i < n; i++) {
            if (cl[3 * c] >> i & 1)
                k->occ[k->occ_start[i + 1]++] = c << 1 | 1;
            if (cl[3 * c + 1] >> i & 1)
                k->occ[k->occ_start[i + 1]++] = c << 1;
        }
        k->w[c] = wt;
        k->rem[c] = popcount((uint64_t)cl[3 * c]) + popcount((uint64_t)cl[3 * c + 1]);
        if (k->rem[c] == 0) {
            k->status[c] = SATISFIED;
            *cur += wt;
        } else if (wt > 0) {
            *pos += wt;
        } else {
            *neg += wt;
        }
    }
    return 0;
}

/* Assigns val to variable depth + 1, pushing undo records, and adds the
   changes of the current value and of the open positive and negative sums. */
static void apply(Core *k, int depth, int val, int64_t *dc, int64_t *dp, int64_t *dn)
{
    int j;
    for (j = k->occ_start[depth]; j < k->occ_start[depth + 1]; j++) {
        int c = k->occ[j] >> 1, match = (k->occ[j] & 1) == val, kind;
        int64_t wt = k->w[c];
        if (k->status[c] != OPEN)
            continue;
        /* A matching literal advances the row, a clashing one kills it. */
        if (!match) {
            k->status[c] = DEAD;
            kind = UNDO_STATUS;
        } else if (--k->rem[c] == 0) {
            k->status[c] = SATISFIED;
            kind = UNDO_BOTH;
        } else {
            kind = UNDO_REM;
        }
        k->trail[k->top++] = c << 2 | kind;
        if (kind == UNDO_REM)
            continue;
        if (k->status[c] == SATISFIED)
            *dc += wt;
        if (wt > 0)
            *dp -= wt;
        else if (wt < 0)
            *dn -= wt;
    }
}

static void unwind(Core *k, int mark)
{
    while (k->top > mark) {
        int t = k->trail[--k->top], c = t >> 2;
        if ((t & 3) != UNDO_REM)
            k->status[c] = OPEN;
        if ((t & 3) != UNDO_STATUS)
            k->rem[c]++;
    }
}

/* Whether [lb, ub] meets either target interval.  At a leaf lb == ub is the
   value, so this is also the hit test. */
static int reach(const Core *k, int64_t lb, int64_t ub)
{
    return (lb <= k->hi1 && ub >= k->lo1) || (lb <= k->hi2 && ub >= k->lo2);
}

static int decide_rec(Core *k, int depth, int64_t cur, int64_t opos, int64_t oneg)
{
    int val;
    if (!reach(k, cur + oneg, cur + opos))
        return 0;
    if (depth == k->n) {
        k->value = cur;
        return 1;
    }
    for (val = 0; val < 2; val++) {
        int64_t dc = 0, dp = 0, dn = 0;
        int mark = k->top, found;
        k->path = (k->path & ~((uint64_t)1 << depth)) | (uint64_t)val << depth;
        apply(k, depth, val, &dc, &dp, &dn);
        found = decide_rec(k, depth + 1, cur + dc, opos + dp, oneg + dn);
        unwind(k, mark);
        if (found)
            return 1;
    }
    return 0;
}

static void extremes_rec(Core *k, int depth, int64_t cur, int64_t opos, int64_t oneg)
{
    int val;
    if (k->have && cur + opos <= k->maxv && cur + oneg >= k->minv)
        return;
    if (depth == k->n) {
        if (!k->have || cur > k->maxv) {
            k->maxv = cur;
            k->argmax = k->path;
        }
        if (!k->have || cur < k->minv) {
            k->minv = cur;
            k->argmin = k->path;
        }
        k->have = 1;
        return;
    }
    for (val = 0; val < 2; val++) {
        int64_t dc = 0, dp = 0, dn = 0;
        int mark = k->top;
        k->path = (k->path & ~((uint64_t)1 << depth)) | (uint64_t)val << depth;
        apply(k, depth, val, &dc, &dp, &dn);
        extremes_rec(k, depth + 1, cur + dc, opos + dp, oneg + dn);
        unwind(k, mark);
    }
}

/* The first assignment whose value lies in a target interval: returns 1 with
   out = (mask, value), 0 when none exists, -1 when out of memory. */
int absopt_decide(int n, int m, const int64_t *rows, const int64_t *targets, int64_t *out)
{
    Core k = {0};
    int64_t cur, pos, neg;
    int found;
    if (build(&k, n, m, rows, &cur, &pos, &neg) < 0)
        return -1;
    k.lo1 = targets[0];
    k.hi1 = targets[1];
    k.lo2 = targets[2];
    k.hi2 = targets[3];
    found = decide_rec(&k, 0, cur, pos, neg);
    out[0] = (int64_t)k.path;
    out[1] = k.value;
    free(k.mem);
    return found;
}

/* out = (max, argmax, min, argmin); returns 0, or -1 when out of memory. */
int absopt_extremes(int n, int m, const int64_t *rows, int64_t *out)
{
    Core k = {0};
    int64_t cur, pos, neg;
    if (build(&k, n, m, rows, &cur, &pos, &neg) < 0)
        return -1;
    extremes_rec(&k, 0, cur, pos, neg);
    out[0] = k.maxv;
    out[1] = (int64_t)k.argmax;
    out[2] = k.minv;
    out[3] = (int64_t)k.argmin;
    free(k.mem);
    return 0;
}
