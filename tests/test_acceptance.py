"""End-to-end acceptance checks.

Each test covers one numbered criterion and appends a single PASS/FAIL line
to RESULTS; the conftest hook prints the collected lines after the run.
Wall-clock budgets are asserted where a criterion states one.
"""

import functools
import random
import time

import numpy as np
import pytest

from absopt import (
    Graph,
    WeightedFormula,
    WeightedHypergraph,
    brute_force_absio,
    brute_force_formula,
    eval_formula,
    eval_poly,
    g,
    induced_weight,
    kernelize,
    solve_abs_dnf,
    solve_absio,
    verify_point,
)
from absopt.absio import AbsIoInstance, negate_variable, shift_variable
from absopt.cli import EXIT_YES, main
from absopt.kernel import (
    MODE_DEGREE,
    MODE_SUBEDGE,
    MODES,
    STATUS_REDUCED,
    STATUS_TRIVIAL_YES,
    extract_witness_sunflower,
    rule4_subedge,
)
from absopt.reductions import (
    abs_cnf_to_abs_dnf,
    expand_conjunctions_to_disjunctions,
    gen_is_to_abs_monotone_dnf_np,
    gen_is_to_abs_monotone_dnf_w1,
    gen_is_to_max_monotone_dnf,
    monotonize_abs_dnf,
)
from helpers import (
    independence_number,
    random_absio,
    random_formula,
    random_graph,
    value_profile,
)

RESULTS = []


def criterion(number, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                RESULTS.append(f"criterion {number}: FAIL ({type(exc).__name__}: {exc})")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                RESULTS.append(
                    f"criterion {number}: FAIL (took {elapsed:.1f}s, budget {budget}s)"
                )
                pytest.fail(f"criterion {number} exceeded its {budget}s budget")
            RESULTS.append(f"criterion {number}: PASS ({detail}; {elapsed:.1f}s)")

        return run

    return wrap


EXAMPLE6 = Graph(
    6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 3), (3, 5))
)


@criterion(1, budget=60)
def test_criterion_1_example_graph():
    assert independence_number(EXAMPLE6) == 3
    phi3 = gen_is_to_abs_monotone_dnf_np(EXAMPLE6, 3)
    assert phi3.alpha == 3 + 8
    verdict = solve_abs_dnf(phi3)
    assert verdict.decision
    assert abs(verdict.achieved) == 11
    oracle = brute_force_formula(phi3)
    assert oracle.decision
    # no assignment reaches 12, so 11 is the exact optimum
    phi4 = gen_is_to_abs_monotone_dnf_np(EXAMPLE6, 4)
    assert phi4.alpha == 12
    assert not solve_abs_dnf(phi4).decision
    assert not brute_force_formula(phi4).decision
    return "optimum exactly 11 at k=3, no at k=4"


@criterion(2, budget=120)
def test_criterion_2_value_preservation():
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        phi = random_formula(rng, kind="dnf", max_vars=12, max_clauses=8)
        mono, _ = monotonize_abs_dnf(phi)
        assert mono.monotone
        assert np.array_equal(value_profile(phi), value_profile(mono))
        checked += 1
    for _ in range(200):
        phi = random_formula(rng, kind="cnf", max_vars=12, max_clauses=8)
        dnf, _ = abs_cnf_to_abs_dnf(phi)
        assert np.array_equal(value_profile(phi), value_profile(dnf))
        checked += 1
    done = 0
    while done < 200:
        phi = random_formula(rng, kind="dnf", max_vars=12, max_clauses=8, monotone=True)
        if any(not lits for lits, _ in phi.clauses):
            continue
        cnf, _ = expand_conjunctions_to_disjunctions(phi)
        assert np.array_equal(value_profile(phi), value_profile(cnf))
        done += 1
        checked += 1
    return f"{checked} formulas, all assignments preserved across 3 transforms"


def _np_hypergraph_decide(h):
    order = sorted(h.vertices)
    pos = {v: i for i, v in enumerate(order)}
    masks = np.arange(1 << len(order), dtype=np.int64)
    vals = np.zeros(masks.shape, dtype=np.int64)
    for e, w in h.edges:
        em = 0
        for v in e:
            em |= 1 << pos[v]
        vals[(masks & em) == em] += w
    return bool((np.abs(vals) >= h.alpha).any())


def _random_kernel_instance(rng):
    n = rng.randint(0, 16)
    vertices = range(1, n + 1)
    m = rng.randint(0, 8)
    edges = []
    for _ in range(m):
        size = rng.randint(0, min(3, n))
        edges.append((tuple(rng.sample(vertices, size)), rng.randint(-5, 5)))
    return WeightedHypergraph(vertices, tuple(edges), rng.randint(0, 4))


@criterion(3, budget=300)
def test_criterion_3_kernel_equivalence():
    rng = random.Random(103)
    for trial in range(500):
        h = _random_kernel_instance(rng)
        want = _np_hypergraph_decide(h)
        for mode in MODES:
            out = kernelize(h, mode)
            if out.status == STATUS_TRIVIAL_YES:
                assert want, (trial, mode)
                assert abs(induced_weight(h, out.witness)) >= h.alpha
            else:
                assert _np_hypergraph_decide(out.instance) == want, (trial, mode)
    return "500 instances x 3 modes agree with exhaustive reference"


@criterion(4)
def test_criterion_4_threshold_arithmetic():
    assert 2 * 1 * 2**3 * 3**2 == 144  # degree-rule bound at alpha=1, d=2, Delta=3
    assert g(2, 1, 2) == 2_097_152
    assert g(1, 1, 2) == 32
    return "144, 2097152, and 32 confirmed exactly"


def _nonzero_weight(rng):
    w = 0
    while w == 0:
        w = rng.randint(-5, 5)
    return w


def _rule3_instance(rng, d, alpha):
    m = 2 * alpha * d * d
    ids = rng.sample(range(1, 400), m * d)
    edges = tuple(
        (tuple(ids[i * d : (i + 1) * d]), _nonzero_weight(rng)) for i in range(m)
    )
    return WeightedHypergraph(ids, edges, alpha, d)


def _star_instance(rng, alpha):
    ids = rng.sample(range(1, 4000), 32 * alpha + 1)
    center, petals = ids[0], ids[1:]
    edges = tuple(((center, p), _nonzero_weight(rng)) for p in petals)
    return WeightedHypergraph(ids, edges, alpha, 2), center


def _sunflower_instance(rng):
    ids = rng.sample(range(1, 4000), 514)
    a, b, petals = ids[0], ids[1], ids[2:]
    edges = tuple(((a, b, p), _nonzero_weight(rng)) for p in petals)
    return WeightedHypergraph(ids, edges, 1, 3), frozenset({a, b})


@criterion(5, budget=300)
def test_criterion_5_witness_extraction():
    rng = random.Random(105)
    verified = 0
    # degree rule: disjoint edges at the exact vertex-count threshold
    for trial in range(100):
        d = 1 + trial % 3
        alpha = 1 + (trial // 3) % 3
        h = _rule3_instance(rng, d, alpha)
        out = kernelize(h, MODE_DEGREE)
        assert out.status == STATUS_TRIVIAL_YES
        assert any(line.startswith("rule3") for line in out.transcript)
        assert abs(induced_weight(h, out.witness)) >= alpha
        verified += 1
    # subedge rule, empty core: disjoint singletons (the degree rule would
    # fire first end to end, so the rule is exercised directly)
    for trial in range(34):
        alpha = 1 + trial % 3
        n = 8 * alpha
        ids = rng.sample(range(1, 300), n)
        edges = tuple(((v,), _nonzero_weight(rng)) for v in ids)
        h = WeightedHypergraph(ids, edges, alpha, 1)
        core = rule4_subedge(h)
        assert core == frozenset()
        w = extract_witness_sunflower(h, core)
        assert abs(induced_weight(h, w)) >= alpha
        verified += 1
    # subedge rule, singleton core: stars with 32*alpha petals
    for trial in range(33):
        alpha = 1 + trial % 3
        h, center = _star_instance(rng, alpha)
        out = kernelize(h, MODE_SUBEDGE)
        assert out.status == STATUS_TRIVIAL_YES
        assert any(f"core={{{center}}}" in line for line in out.transcript)
        assert abs(induced_weight(h, out.witness)) >= alpha
        verified += 1
    # subedge rule, two-vertex core: 3-uniform sunflowers with 512 petals
    for _ in range(33):
        h, core = _sunflower_instance(rng)
        out = kernelize(h, MODE_SUBEDGE)
        assert out.status == STATUS_TRIVIAL_YES
        assert any(line.startswith("rule4") for line in out.transcript)
        assert abs(induced_weight(h, out.witness)) >= 1
        verified += 1
    assert verified == 200
    return "200/200 extracted witnesses verified on their original instances"


@criterion(6, budget=300)
def test_criterion_6_generator_equivalence():
    rng = random.Random(106)
    generators = (
        gen_is_to_max_monotone_dnf,
        gen_is_to_abs_monotone_dnf_np,
        gen_is_to_abs_monotone_dnf_w1,
    )
    checks = 0
    for _ in range(100):
        graph = random_graph(rng, max_vertices=7)
        s = independence_number(graph)
        for k in range(0, 8):
            want = s >= k
            for gen in generators:
                phi = gen(graph, k)
                verdict = brute_force_formula(phi, max_vars=32)
                assert verdict.decision == want, (graph, k, gen)
                checks += 1
    return f"{checks} generator decisions match the independent-set reference"


def _windowed(inst):
    width = 50
    lower = []
    upper = []
    for lo, hi in zip(inst.lower, inst.upper):
        if lo is None:
            lo = min(-width // 2, (hi if hi is not None else 0) - width)
        if hi is None:
            hi = max(width // 2, lo + width)
        lower.append(lo)
        upper.append(hi)
    return AbsIoInstance(inst.terms, tuple(lower), tuple(upper), inst.alpha, inst.var_ids)


@criterion(7, budget=300)
def test_criterion_7_polynomial_solver():
    rng = random.Random(107)
    for trial in range(300):
        inst = random_absio(rng, max_vars=4, max_terms=6)
        verdict = solve_absio(inst)
        want = brute_force_absio(inst)
        assert verdict.decision == want.decision, (trial, inst)
        if verdict.decision:
            ok, _ = verify_point(inst, verdict.witness)
            assert ok
    wide = 0
    while wide < 50:
        inst = random_absio(
            rng, max_vars=3, max_terms=4, bound_range=(-30, 30), allow_unbounded=True
        )
        if inst.num_vars == 0:
            continue
        verdict = solve_absio(inst)
        window = brute_force_absio(_windowed(inst), max_points=10**7)
        if verdict.decision:
            ok, _ = verify_point(inst, verdict.witness)
            assert ok
        else:
            # a no on the full box implies a no on any finite window of it
            assert not window.decision, inst
        if window.decision:
            assert verdict.decision, inst
        wide += 1
    return "300 finite + 50 wide or unbounded instances agree with enumeration"


@criterion(8)
def test_criterion_8_normalization_spot_checks():
    inst = AbsIoInstance((((2,), 1),), (-3,), (5,), 1)
    shifted, entry = shift_variable(inst, 0, -3)
    assert entry == ("shift", 1, -3)
    assert shifted.terms == (((2,), 1), ((1,), -6), ((0,), 9))
    assert shifted.lower == (0,) and shifted.upper == (8,)
    for y in range(0, 9):
        assert eval_poly(shifted, (y,)) == (y - 3) ** 2
    inst = AbsIoInstance((((1,), 2),), (None,), (-1,), 1)
    negated, entry = negate_variable(inst, 0)
    assert entry == ("negate", 1)
    assert negated.terms == (((1,), -2),)
    assert negated.lower == (1,) and negated.upper == (None,)
    return "shift and negation rewrites match hand-computed results"


@criterion(9)
def test_criterion_9_idempotence_and_determinism(tmp_path, capsys):
    rng = random.Random(109)
    reduced_seen = 0
    for _ in range(200):
        h = _random_kernel_instance(rng)
        out = kernelize(h)
        if out.status != STATUS_REDUCED:
            continue
        again = kernelize(out.instance)
        assert again.transcript == ()
        assert again.instance == out.instance
        reduced_seen += 1
    assert reduced_seen >= 50
    star = "p uhg 33 32 1\n" + "".join(f"e 1 1 {p} 0\n" for p in range(2, 34))
    path = tmp_path / "star.uhg"
    path.write_text(star)
    outputs = []
    for _ in range(2):
        assert main(["solve", str(path), "--explain"]) == EXIT_YES
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    formula = tmp_path / "a.wdnf"
    formula.write_text("p wdnf 3 2 3\nw 5 1 -2 0\nw -2 3 0\n")
    outputs = []
    for _ in range(2):
        assert main(["solve", str(formula), "--explain"]) == EXIT_YES
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    return f"{reduced_seen} reduced instances stable, repeated runs byte-identical"
