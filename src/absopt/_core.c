/* Compiled enumeration core, loaded through ctypes by engine.py.

   Runs the decide search of _engine_py.py: depth-first search over
   assignments in lexicographic order (variable 1 first, false before true),
   with the same bounds and pruning, so it reports the same first hit.  It
   keeps one bit per kept row, as the pure core does above its unary bound,
   and sums weights row by row; the pure core weighs a set of rows there by
   bit planes of |w|, or row by row where the set holds fewer rows than
   there are planes.
   Plain C with no Python API, and one export, absopt_decide.
   The caller guarantees at most 62 variables and an absolute weight sum T
   below 2^62, and closes every target endpoint within [-T-1, T+1], so no
   int64 sum or comparison the search forms can overflow.

   The input is m DNF rows of (positive mask, negative mask, weight), each a
   conjunction of its literals; bit i of a mask stands for variable i + 1, and
   so does bit i of a witness.  The target is two closed intervals
   (lo1, hi1, lo2, hi2), and a value qualifies when it lies in either.

   Rows without literals hold vacuously and go into the root bounds; rows of
   weight 0 move no bound and are left out.  The other rows are kept, and a
   row set holds kept row c as bit c % 64 of word c / 64.  Per variable and
   value there is the set of rows that value kills, per variable the set of
   rows whose last literal is that variable, and per depth the set of open
   rows.  Assigning a value to the variable at depth d gives the rows
   dead = live & kill and sat = (live ^ dead) & last, and the child's open
   rows live ^ dead ^ sat; the bounds move by the weights of dead and sat. */

#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int n, words;   /* variables, and 64-bit words per row set */
    int64_t lo1, hi1, lo2, hi2;
    uint64_t *mem;  /* one block holding the arrays below */
    uint64_t *kill; /* set 2d + v: the rows value v of variable d + 1 kills */
    uint64_t *last; /* set d: the rows whose last literal is variable d + 1 */
    uint64_t *live; /* set d: the open rows at depth d */
    int64_t *w;     /* the weight of each kept row */
    int64_t value;  /* the value of the hit */
    uint64_t hit;   /* its witness */
} Core;

/* The index of the lowest set bit of x, which is not 0. */
static int low_bit(uint64_t x)
{
#ifdef __GNUC__
    return __builtin_ctzll(x);
#else
    int b = 0;
    while (!(x >> b & 1))
        b++;
    return b;
#endif
}

/* Builds the row sets and the root bounds lb and ub; returns -1 when out of
   memory. */
static int build(Core *k, int n, int m, const int64_t *rows, int64_t *lb, int64_t *ub)
{
    int kept = 0, c, d, words;
    for (c = 0; c < m; c++)
        kept += (rows[3 * c] | rows[3 * c + 1]) && rows[3 * c + 2];
    words = (kept + 63) / 64;
    k->mem = calloc((size_t)(4 * n + 1) * words + kept + 1, sizeof(uint64_t));
    if (!k->mem)
        return -1;
    k->kill = k->mem;
    k->last = k->kill + 2 * n * words;
    k->live = k->last + n * words;
    k->w = (int64_t *)(k->live + (n + 1) * words);
    k->n = n;
    k->words = words;
    *lb = *ub = 0;
    kept = 0;
    for (c = 0; c < m; c++) {
        uint64_t pos = (uint64_t)rows[3 * c], neg = (uint64_t)rows[3 * c + 1], bit;
        int64_t wt = rows[3 * c + 2];
        int j;
        if (!(pos | neg)) {
            *lb += wt;
            *ub += wt;
            continue;
        }
        if (!wt)
            continue;
        j = kept / 64;
        bit = (uint64_t)1 << kept % 64;
        k->w[kept++] = wt;
        k->live[j] |= bit;
        if (wt > 0)
            *ub += wt;
        else
            *lb += wt;
        /* false kills the rows with a positive literal, true the others */
        for (d = 0; d < n; d++) {
            if (pos >> d & 1)
                k->kill[2 * d * words + j] |= bit;
            if (neg >> d & 1)
                k->kill[(2 * d + 1) * words + j] |= bit;
            if ((pos | neg) >> d == 1)
                k->last[d * words + j] |= bit;
        }
    }
    return 0;
}

/* Fills the open rows at depth d + 1 once variable d + 1 takes value v, and
   moves lb and ub by the rows that die or hold.  An open row's weight counts
   in ub when positive and in lb when negative.  A dead row's weight leaves
   that bound; a satisfied row's weight is certain and enters the other bound
   too. */
static void step(const Core *k, int d, int v, int64_t *lb, int64_t *ub)
{
    const uint64_t *live = k->live + d * k->words;
    const uint64_t *kill = k->kill + (2 * d + v) * k->words;
    const uint64_t *last = k->last + d * k->words;
    uint64_t *child = k->live + (d + 1) * k->words;
    int j;
    for (j = 0; j < k->words; j++) {
        uint64_t dead = live[j] & kill[j], sat = (live[j] ^ dead) & last[j];
        const int64_t *w = k->w + 64 * j;
        child[j] = live[j] ^ dead ^ sat;
        for (; dead; dead &= dead - 1) {
            int64_t wt = w[low_bit(dead)];
            if (wt > 0)
                *ub -= wt;
            else
                *lb -= wt;
        }
        for (; sat; sat &= sat - 1) {
            int64_t wt = w[low_bit(sat)];
            if (wt > 0)
                *lb += wt;
            else
                *ub += wt;
        }
    }
}

/* Whether [lb, ub] meets either target interval. */
static int reach(const Core *k, int64_t lb, int64_t ub)
{
    return (lb <= k->hi1 && ub >= k->lo1) || (lb <= k->hi2 && ub >= k->lo2);
}

/* A leaf is a hit: its bounds met a target, and every row is decided, so
   lb == ub is the value. */
static int decide_rec(Core *k, int d, int64_t lb, int64_t ub, uint64_t mask)
{
    int v;
    if (d == k->n) {
        k->value = ub;
        k->hit = mask;
        return 1;
    }
    for (v = 0; v < 2; v++) {
        int64_t clb = lb, cub = ub;
        step(k, d, v, &clb, &cub);
        if (reach(k, clb, cub) && decide_rec(k, d + 1, clb, cub, mask | (uint64_t)v << d))
            return 1;
    }
    return 0;
}

/* The first assignment whose value lies in a target interval: returns 1 with
   out = (mask, value), 0 when none exists, -1 when out of memory. */
int absopt_decide(int n, int m, const int64_t *rows, const int64_t *targets, int64_t *out)
{
    Core k = {0};
    int64_t lb, ub;
    int found;
    if (build(&k, n, m, rows, &lb, &ub) < 0)
        return -1;
    k.lo1 = targets[0];
    k.hi1 = targets[1];
    k.lo2 = targets[2];
    k.hi2 = targets[3];
    found = reach(&k, lb, ub) && decide_rec(&k, 0, lb, ub, 0);
    out[0] = (int64_t)k.hit;
    out[1] = k.value;
    free(k.mem);
    return found;
}
