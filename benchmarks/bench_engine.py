#!/usr/bin/env python3
"""Timing comparison of the pure-Python and compiled enumeration backends.

Runs the same workloads through both implementations and prints a table.
The compiled core is loaded directly from the library that
``python3 setup.py build_ext --inplace`` builds; a missing library just drops
the compiled column.
"""

import argparse
import random
import time

from absopt import _engine_py as pure
from absopt.engine import CompiledCore, library_path

compiled = CompiledCore(library_path()) if library_path() is not None else None


def random_clauses(rng, n, m, max_weight=9):
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(n), width)
        pos = neg = 0
        for v in vs:
            if rng.random() < 0.5:
                pos |= 1 << v
            else:
                neg |= 1 << v
        w = 0
        while w == 0:
            w = rng.randint(-max_weight, max_weight)
        clauses.append((pos, neg, w))
    return clauses


def run(core, work, n, clauses, alpha):
    if work == "extremes":
        return core.extremes(n, clauses, dnf=True)
    return core.decide(
        n, clauses, dnf=True, alpha=alpha, absolute=True, comparison="atleast"
    )


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 18, 20])
    ap.add_argument("--clauses", type=int, default=12)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    if compiled is None:
        print("note: compiled core not built, timing the pure path only")
    header = f"{'workload':<12} {'n':>3} {'pure (ms)':>10} {'compiled (ms)':>13} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for n in args.sizes:
        rng = random.Random(args.seed)
        clauses = random_clauses(rng, n, args.clauses)
        # one above the optimum: unreachable, but too tight for the root
        # bound to cut the search off early
        mx, _, mn, _ = pure.extremes(n, clauses, dnf=True)
        tight = max(abs(mx), abs(mn)) + 1
        for work, alpha in (("decide-no", tight), ("extremes", 0)):
            t_pure, r_pure = best_of(
                lambda: run(pure, work, n, clauses, alpha), args.repeats
            )
            if compiled is None:
                print(f"{work:<12} {n:>3} {t_pure * 1e3:>10.3f} {'-':>13} {'-':>8}")
                continue
            t_comp, r_comp = best_of(
                lambda: run(compiled, work, n, clauses, alpha), args.repeats
            )
            if tuple(r_pure) != tuple(r_comp):
                raise SystemExit(
                    f"backend mismatch on {work} n={n}: {r_pure} vs {r_comp}"
                )
            ratio = t_pure / t_comp if t_comp > 0 else float("inf")
            print(f"{work:<12} {n:>3} {t_pure * 1e3:>10.3f} {t_comp * 1e3:>13.3f} {ratio:>7.1f}x")


if __name__ == "__main__":
    main()
