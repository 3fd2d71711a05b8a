"""Spans around absopt's layer boundaries, recorded from outside the program.

``install`` replaces module attributes with timing wrappers.  A function bound
with ``from ... import`` is wrapped in every module that holds it, since each
binding is looked up separately; a recursive function is wrapped in its own
module, through which it calls itself.  Spans stay in memory as
[name, start, end, parent index, count] and are written out by the worker
when the run ends.  ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import re
from time import perf_counter

_LEAF_POINTS = re.compile(r"leaf points=(\d+)")


def _leaf_points(args, result):
    return sum(int(m) for line in result.transcript for m in _LEAF_POINTS.findall(line))


# (module, attribute, span name, count taken from (args, result) or None)
POINTS = [
    ("cli", "main", "cli", None),
    ("formats", "parse_instance", "formats.parse", None),
    ("formats", "serialize_instance", "formats.serialize", None),
    ("formats", "serialize_witness", "formats.serialize", None),
    ("formats", "serialize_hypergraph", "formats.serialize", None),
    ("pipeline", "solve_unbalanced", "pipeline.solve", None),
    ("pipeline", "solve_abs_dnf", "pipeline.solve", None),
    ("pipeline", "solve_abs_cnf", "pipeline.solve", None),
    ("pipeline", "verify_witness", "pipeline.verify", None),
    ("absio", "verify_point", "pipeline.verify", None),
    ("pipeline", "monotonize_abs_dnf", "reductions.monotonize", lambda a, r: len(r[0].clauses)),
    ("cli", "monotonize_abs_dnf", "reductions.monotonize", lambda a, r: len(r[0].clauses)),
    ("pipeline", "abs_cnf_to_abs_dnf", "reductions.cnf2dnf", None),
    ("cli", "abs_cnf_to_abs_dnf", "reductions.cnf2dnf", None),
    ("pipeline", "encode_dnf_as_hypergraph", "reductions.encode", None),
    ("cli", "encode_dnf_as_hypergraph", "reductions.encode", None),
    ("pipeline", "kernelize", "kernel.kernelize", None),
    ("absio", "kernelize", "kernel.kernelize", None),
    ("cli", "kernelize", "kernel.kernelize", None),
    ("kernel", "extract_witness_packing", "kernel.packing", None),
    ("kernel", "extract_witness_sunflower", "kernel.sunflower", None),
    ("kernel", "rule4_subedge", "kernel.rule4", None),
    ("kernel", "g", "kernel.g", None),
    ("pipeline", "brute_force_hypergraph", "model.brute_force", lambda a, r: len(a[0].edges)),
    ("engine", "decide", "engine.decide", lambda a, r: a[0]),
    ("absio", "rule5_simplify", "absio.rule5", None),
    ("absio", "rule6_shift", "absio.rule6", None),
    ("absio", "brute_force_absio", "absio.leaf", _leaf_points),
    ("absio", "solve_absio", "absio.solve", None),
    ("cli", "solve_absio", "absio.solve", None),
]

# per-layer metric -> ("self", span name): summed self time in seconds,
# ("count", span name): summed counts, ("calls", span name): number of spans.
METRICS = {
    "formats.parse_s": ("self", "formats.parse"),
    "formats.serialize_s": ("self", "formats.serialize"),
    "reductions.monotonize_s": ("self", "reductions.monotonize"),
    "reductions.cnf2dnf_s": ("self", "reductions.cnf2dnf"),
    "reductions.encode_s": ("self", "reductions.encode"),
    "reductions.clauses_out": ("count", "reductions.monotonize"),
    "kernel.self_s": ("self", "kernel.kernelize"),
    "kernel.packing_s": ("self", "kernel.packing"),
    "kernel.sunflower_s": ("self", "kernel.sunflower"),
    "kernel.rule4_s": ("self", "kernel.rule4"),
    "kernel.g_s": ("self", "kernel.g"),
    "kernel.g_calls": ("calls", "kernel.g"),
    "kernel.edges_out": ("count", "model.brute_force"),
    "engine.decide_s": ("self", "engine.decide"),
    "engine.vars": ("count", "engine.decide"),
    "pipeline.verify_s": ("self", "pipeline.verify"),
    "absio.rule5_s": ("self", "absio.rule5"),
    "absio.rule6_s": ("self", "absio.rule6"),
    "absio.leaf_s": ("self", "absio.leaf"),
    "absio.leaf_points": ("count", "absio.leaf"),
    "absio.solve_self_s": ("self", "absio.solve"),
    "absio.solve_calls": ("calls", "absio.solve"),
    "cli.self_s": ("self", "cli"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, module, attr, name, count):
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        setattr(module, attr, traced)

    def install(self, modules):
        for mod, attr, name, count in POINTS:
            self.wrap(modules[mod], attr, name, count)

    def clear(self):
        self.spans.clear()


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - inner for (_, start, end, _, _), inner in zip(spans, child)]


def _roots(spans):
    """Index of the root span (the op) each span belongs to, ops counted in run order."""
    root_of, roots = [], 0
    for _, _, _, parent, _ in spans:
        root = roots if parent < 0 else root_of[parent]
        roots += parent < 0
        root_of.append(root)
    return root_of


def layer_metrics(spans, rounds, scales):
    """Per-layer figures per round of the workload's fixed op set.

    ``scales[i]`` scales the times of the i-th op run to the reference speed.
    """
    self_s, counts, calls = {}, {}, {}
    for (name, _, _, _, count), own, root in zip(spans, _self_times(spans), _roots(spans)):
        self_s[name] = self_s.get(name, 0.0) + own * scales[root]
        counts[name] = counts.get(name, 0) + count
        calls[name] = calls.get(name, 0) + 1
    table = {"self": self_s, "count": counts, "calls": calls}
    out = {}
    for metric, (kind, name) in METRICS.items():
        value = table[kind].get(name, 0) / rounds
        out[metric] = value if kind == "self" else round(value)
    return out


def layer_shares(spans, groups):
    """Share of op time spent in each layer, per group of ops.

    ``groups[i]`` names the group of the i-th op of a round; root spans
    (one per op) follow the plan's op order round after round.
    """
    totals, per_layer = {}, {}
    for (name, start, end, parent, _), own, root in zip(spans, _self_times(spans), _roots(spans)):
        group = groups[root % len(groups)]
        if parent < 0:
            totals[group] = totals.get(group, 0.0) + end - start
        layer = per_layer.setdefault(group, {})
        key = name.split(".")[0]
        layer[key] = layer.get(key, 0.0) + own
    return {g: {k: round(v / totals[g], 3) for k, v in sorted(per_layer[g].items())}
            for g in per_layer}
