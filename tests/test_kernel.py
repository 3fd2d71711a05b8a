import random
import time

import pytest

from absopt import (
    ContractViolationError,
    KernelOutcome,
    WeightedHypergraph,
    g,
    induced_weight,
    kernelize,
)
from absopt.kernel import (
    MODE_DEGREE,
    MODE_EDGECOUNT,
    MODE_SUBEDGE,
    MODES,
    STATUS_REDUCED,
    STATUS_TRIVIAL_YES,
    extract_witness_packing,
    extract_witness_sunflower,
    rule1_isolated,
    rule2_zero_weight,
    rule3_degree,
    rule4_subedge,
    _links_below_g,
)
from absopt import kernel
from helpers import naive_hypergraph_decide, random_hypergraph, rule4_all_subsets


def test_g_values():
    assert g(0, 1, 1) == 1
    assert g(0, 9, 3) == 1
    assert g(1, 1, 2) == 32
    assert g(2, 1, 2) == 2_097_152
    for alpha in (1, 2, 5, 11):
        assert g(1, alpha, 1) == 8 * alpha
    with pytest.raises(ContractViolationError):
        g(-1, 1, 1)
    with pytest.raises(ContractViolationError):
        g(1, 0, 1)
    with pytest.raises(ContractViolationError):
        g(1, 1, 0)


def test_rule1_removes_isolated():
    h = WeightedHypergraph({1, 2, 3, 4}, (((1, 2), 3),), 1, 2)
    reduced, removed = rule1_isolated(h)
    assert removed == frozenset({3, 4})
    assert reduced.vertices == frozenset({1, 2})
    assert reduced.edges == h.edges
    assert rule1_isolated(reduced) is None


def test_rule1_keeps_empty_edge_vertices_apart():
    # the empty edge covers nobody, so every vertex is isolated
    h = WeightedHypergraph({1, 2}, (((), 5),), 1, 1)
    reduced, removed = rule1_isolated(h)
    assert removed == frozenset({1, 2})
    assert reduced.num_vertices == 0


def test_rule2_removes_zero_weight():
    h = WeightedHypergraph({1, 2}, (((1,), 0), ((2,), 4), ((1, 2), 0)), 1, 2)
    reduced, removed = rule2_zero_weight(h)
    assert set(removed) == {frozenset({1}), frozenset({1, 2})}
    assert reduced.edges == ((frozenset({2}), 4),)
    assert rule2_zero_weight(reduced) is None


def _singletons(n, weights):
    return tuple(((v,), w) for v, w in zip(range(1, n + 1), weights))


def test_rule3_fires_on_disjoint_singletons():
    # d=1, Delta=1: threshold is 2*alpha, met exactly
    h = WeightedHypergraph(range(1, 5), _singletons(4, [1, 1, 1, 1]), 2, 1)
    out = rule3_degree(h)
    assert out is not None
    witness, line = out
    assert abs(induced_weight(h, witness)) >= 2
    assert line == "rule3 |V|=4 threshold=4"


def test_rule3_below_threshold_or_empty():
    h = WeightedHypergraph(range(1, 4), _singletons(3, [1, 1, 1]), 2, 1)
    assert rule3_degree(h) is None
    assert rule3_degree(WeightedHypergraph((), (), 1, 1)) is None


def test_rule3_mixed_signs():
    h = WeightedHypergraph(range(1, 7), _singletons(6, [1, -1, 1, -1, 1, -1]), 3, 1)
    out = rule3_degree(h)
    assert out is not None
    witness, _ = out
    assert abs(induced_weight(h, witness)) >= 3


def test_packing_survives_hostile_empty_edge():
    # the positive side only reaches 1 after the empty edge; the negative
    # side (the empty set itself) scores -3
    edges = _singletons(4, [1, 1, 1, 1]) + (((), -3),)
    h = WeightedHypergraph(range(1, 5), edges, 2, 1)
    w = extract_witness_packing(h)
    assert abs(induced_weight(h, w)) >= 2


def test_packing_exact_witnesses():
    # {1,5} sorts before its subedge {5} but is never picked: {2}, {3,4} and
    # {5} are, and the positive side {2} + {5} reaches alpha = 2
    h = WeightedHypergraph(range(1, 6), (((1, 5), 1), ((5,), 1), ((2,), 1), ((3, 4), -1)), 2, 2)
    assert extract_witness_packing(h) == frozenset({2, 5})
    # picking {1} covers {1,2}, which knocks out the minimal edge {2,3}; the
    # negative side {1}, {4}, {5} outnumbers {6} and is tried first
    edges = (((1,), -1), ((1, 2), 1), ((2, 3), -1), ((4,), -1), ((5,), -1), ((6,), 1))
    h = WeightedHypergraph(range(1, 7), edges, 3, 2)
    assert extract_witness_packing(h) == frozenset({1, 4, 5})


def test_rule4_empty_core_direct():
    # 8*alpha disjoint singletons make link(empty) hit its threshold
    for alpha in (1, 2):
        n = 8 * alpha
        h = WeightedHypergraph(range(1, n + 1), _singletons(n, [1] * n), alpha, 1)
        core = rule4_subedge(h)
        assert core == frozenset()
        w = extract_witness_sunflower(h, core)
        assert abs(induced_weight(h, w)) >= alpha


def test_rule4_below_threshold():
    h = WeightedHypergraph(range(1, 8), _singletons(7, [1] * 7), 1, 1)
    assert rule4_subedge(h) is None


def _star(center, petals, weights, alpha):
    edges = tuple(((center, p), w) for p, w in zip(petals, weights))
    vertices = {center, *petals}
    return WeightedHypergraph(vertices, edges, alpha, 2)


def test_rule4_star_core():
    petals = list(range(2, 34))
    h = _star(1, petals, [1] * 32, 1)
    core = rule4_subedge(h)
    assert core == frozenset({1})
    w = extract_witness_sunflower(h, core)
    assert abs(induced_weight(h, w)) >= 1
    # one petal short: no candidate reaches its threshold
    short = _star(1, petals[:-1], [1] * 31, 1)
    assert rule4_subedge(short) is None


def test_rule4_star_mixed_signs():
    petals = list(range(2, 34))
    weights = [1 if p % 2 == 0 else -1 for p in petals]
    h = _star(1, petals, weights, 1)
    core = rule4_subedge(h)
    assert core == frozenset({1})
    w = extract_witness_sunflower(h, core)
    assert abs(induced_weight(h, w)) >= 1


def test_sunflower_exact_witness():
    # core {1}, link in scan order: {1,2,3} picked; {1,2,5} and {1,3,4} meet
    # it outside the core; {1,5} would bring the unpicked {1,2,5} inside the
    # picked union; {1,6,9} strictly contains the later {1,9}; then {1,7},
    # {1,8} and {1,9} are picked
    edges = (
        ((1, 2, 3), 1), ((1, 2, 5), 1), ((1, 3, 4), 1), ((1, 5), 1),
        ((1, 6, 9), 1), ((1, 7), 1), ((1, 8), -1), ((1, 9), 1),
    )
    h = WeightedHypergraph(range(1, 10), edges, 3, 3)
    assert extract_witness_sunflower(h, frozenset({1})) == frozenset({1, 2, 3, 7, 9})


def test_extraction_scales_near_linearly():
    # one pass over a vertex index takes a fraction of a second on 40,000
    # edges; the 5 s bounds leave room for slow machines
    n = 40_000
    pairs = WeightedHypergraph(2 * n, tuple(((2 * i + 1, 2 * i + 2), 1) for i in range(n)), 1, 2)
    start = time.perf_counter()
    w = extract_witness_packing(pairs)
    assert time.perf_counter() - start < 5
    assert w == pairs.vertices
    star = _star(1, range(2, n + 2), [1] * n, 1)
    start = time.perf_counter()
    w = extract_witness_sunflower(star, frozenset({1}))
    assert time.perf_counter() - start < 5
    assert w == star.vertices


def test_rule4_prefers_larger_cores():
    # a size-1 core at threshold wins over the empty core, which is also huge
    petals = list(range(2, 34))
    h = _star(1, petals, [1] * 32, 1)
    assert rule4_subedge(h) == frozenset({1})


def _small_thresholds(monkeypatch, table):
    # g(i) = table[i], and no guard, so small instances reach every size
    monkeypatch.setattr(kernel, "g", lambda i, alpha, d: table[i])
    monkeypatch.setattr(kernel, "_links_below_g", lambda edge_count, d: False)


def test_rule4_matches_all_subsets_reference(monkeypatch):
    # non-decreasing small thresholds, as g's are, let cores of every size
    # below d fire, and some instances fire none
    rng = random.Random(53)
    fired = set()
    for _ in range(600):
        d = rng.randint(1, 4)
        h = random_hypergraph(rng, max_vertices=7, max_edges=24, max_d=d, max_alpha=3)
        table = [1, rng.randint(1, len(h.edges) + 1)]
        for _ in range(d - 1):
            table.append(table[-1] + rng.randint(0, 3))
        _small_thresholds(monkeypatch, table)
        core = rule4_subedge(h)
        assert core == rule4_all_subsets(h)
        fired.add(None if core is None else len(core))
    assert fired == {None, 0, 1, 2, 3}


def test_rule4_threshold_equal_to_edge_count_fires(monkeypatch):
    # every edge of the star strictly contains {1}: its link holds all of E
    h = _star(1, [2, 3, 4], [1, -1, 1], 1)
    _small_thresholds(monkeypatch, [1, 3, 4])
    assert rule4_subedge(h) == frozenset({1})
    # at |E| + 1 the size is skipped before any link of it is counted, and so
    # is every smaller size
    calls = []
    monkeypatch.setattr(kernel, "g", lambda i, alpha, d: calls.append(i) or 4)
    monkeypatch.setattr(kernel, "combinations", None)
    assert rule4_subedge(h) is None
    assert calls == [1]


def test_kernelize_rejects_unknown_mode():
    h = WeightedHypergraph({1}, (((1,), 1),), 1, 1)
    with pytest.raises(ContractViolationError):
        kernelize(h, "turbo")


def test_kernelize_alpha_zero():
    h = WeightedHypergraph({1, 2}, (((1, 2), -7),), 0, 2)
    out = kernelize(h)
    assert out.status == STATUS_TRIVIAL_YES
    assert out.witness == frozenset()
    assert out.transcript == ("alpha0",)


def test_kernelize_transcript_labels():
    h = WeightedHypergraph({1, 2, 3}, (((1,), 0), ((2,), 5)), 9, 1)
    out = kernelize(h)
    assert out.status == STATUS_REDUCED
    kinds = [line.split()[0] for line in out.transcript]
    assert "rule1" in kinds and "rule2" in kinds
    assert out.instance.vertices == frozenset({2})
    assert out.instance.edges == ((frozenset({2}), 5),)


def test_kernelize_idempotent():
    rng = random.Random(23)
    for _ in range(120):
        h = random_hypergraph(rng, max_vertices=9, max_edges=7)
        out = kernelize(h)
        if out.status != STATUS_REDUCED:
            continue
        again = kernelize(out.instance)
        assert again.status == STATUS_REDUCED
        assert again.transcript == ()
        assert again.instance == out.instance


def test_kernelize_star_end_to_end():
    # the center's degree blows up the rule-3 threshold, so rule 4 decides
    petals = list(range(2, 34))
    h = _star(1, petals, [1] * 32, 1)
    out = kernelize(h, MODE_SUBEDGE)
    assert out.status == STATUS_TRIVIAL_YES
    assert any(line.startswith("rule4 core={1} link=32") for line in out.transcript)
    assert abs(induced_weight(h, out.witness)) >= 1


def test_degree_mode_skips_rule4():
    petals = list(range(2, 34))
    h = _star(1, petals, [1] * 32, 1)
    out = kernelize(h, MODE_DEGREE)
    assert out.status == STATUS_REDUCED
    assert out.instance == h


def test_edgecount_real_threshold():
    # at d=1 and alpha=1 the certificate needs g(1) = 8 edges
    h = WeightedHypergraph(range(1, 9), _singletons(8, [1] * 8), 1, 1)
    out = kernelize(h, MODE_EDGECOUNT)
    assert out.status == STATUS_TRIVIAL_YES
    assert out.transcript == ("edgecount |E|=8 threshold=8",)
    assert abs(induced_weight(h, out.witness)) >= 1
    short = WeightedHypergraph(range(1, 8), _singletons(7, [1] * 7), 1, 1)
    assert kernelize(short, MODE_EDGECOUNT).status == STATUS_REDUCED


def test_links_below_g_is_a_lower_bound():
    # g(1) is the smallest threshold over i >= 1; the guard holds below it
    # and, up to the cap at d = 7, is tight at alpha = 1
    for d in range(1, 10):
        bound = 1 << ((1 << min(d, 7)) + 1)
        assert _links_below_g(bound - 1, d)
        assert bound - 1 < g(1, 1, d)
        if d < 7:
            assert not _links_below_g(g(1, 1, d), d)


@pytest.mark.parametrize("mode", MODES)
def test_kernelize_high_d_builds_no_threshold(mode, small_g_only):
    # two edges under a declared edge-size bound of 20
    for edges, alpha in (((((1, 2), 2), ((3,), -1)), 2), ((((1, 2), 1), ((3,), 1)), 3)):
        h = WeightedHypergraph(3, edges, alpha, 20)
        out = kernelize(h, mode)
        assert out.status == STATUS_REDUCED
        want = naive_hypergraph_decide(h) is not None
        assert (naive_hypergraph_decide(out.instance) is not None) == want


@pytest.mark.parametrize("mode", MODES)
def test_kernelize_preserves_decision(mode):
    rng = random.Random(31)
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=9, max_edges=7, max_alpha=3)
        want = naive_hypergraph_decide(h) is not None
        out = kernelize(h, mode)
        assert isinstance(out, KernelOutcome)
        if out.status == STATUS_TRIVIAL_YES:
            assert want
            # deletions never touch induced weights, so the witness holds
            # on the original instance too
            assert abs(induced_weight(h, out.witness)) >= h.alpha
        else:
            got = naive_hypergraph_decide(out.instance) is not None
            assert got == want
