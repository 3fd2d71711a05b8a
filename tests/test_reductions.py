import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absopt.errors import BudgetExceededError, ContractViolationError, InvalidInstanceError
from absopt.model import WeightedFormula, brute_force_formula, eval_formula, iter_subsets_lex
from absopt.reductions import (
    Graph,
    abs_cnf_to_abs_dnf,
    encode_dnf_as_hypergraph,
    expand_conjunctions_to_disjunctions,
    gen_exact_variant,
    gen_is_to_abs_monotone_dnf_np,
    gen_is_to_abs_monotone_dnf_w1,
    gen_is_to_max_monotone_dnf,
    gen_min_variant,
    monotonize_abs_dnf,
)

from helpers import (
    independence_number,
    is_independent,
    mask_vars,
    naive_hypergraph_value,
    random_formula,
    random_graph,
    value_profile,
)


def test_monotonize_single_negation():
    phi = WeightedFormula("dnf", 2, (((1, -2), 5),), 5)
    mono, _ = monotonize_abs_dnf(phi)
    assert mono.monotone
    assert mono.clauses == ((frozenset({1}), 5), (frozenset({1, 2}), -5))
    assert np.array_equal(value_profile(phi), value_profile(mono))


def test_monotonize_preserves_values():
    rng = random.Random(11)
    for _ in range(200):
        phi = random_formula(rng, kind="dnf", max_vars=7)
        mono, _ = monotonize_abs_dnf(phi)
        assert mono.monotone
        assert mono.num_vars == phi.num_vars
        assert np.array_equal(value_profile(phi), value_profile(mono))


def test_monotonize_width_never_grows():
    rng = random.Random(12)
    for _ in range(100):
        phi = random_formula(rng, kind="dnf", max_vars=6)
        mono, _ = monotonize_abs_dnf(phi)
        assert mono.width <= max(phi.width, 0)


def test_monotonize_exact_output():
    # clause 1 expands onto clause 2's {1, 2}, which cancels to a kept 0; the
    # all-negated clause 3 lands on the empty clause 0 and on clause 1's {1}
    phi = WeightedFormula("dnf", 3, (((), 4), ((1, -2), 3), ((1, 2), 3), ((-1, -3), 2)), 1)
    mono, _ = monotonize_abs_dnf(phi)
    assert mono.clauses == (
        (frozenset(), 6),
        (frozenset({1}), 1),
        (frozenset({1, 2}), 0),
        (frozenset({3}), -2),
        (frozenset({1, 3}), 2),
    )
    assert np.array_equal(value_profile(phi), value_profile(mono))


@st.composite
def _dnf_clause(draw):
    # 0-5 negated and 0-2 plain variables out of 1..6, listed in any order,
    # so that expansions of different clauses often meet and merge
    order = draw(st.permutations(range(1, 7)))
    negated = draw(st.integers(0, 5))
    plain = draw(st.integers(0, min(2, 6 - negated)))
    lits = [-v for v in order[:negated]] + list(order[negated:negated + plain])
    return tuple(draw(st.permutations(lits))), draw(st.integers(-3, 3))


@settings(deadline=None, max_examples=300)
@given(st.lists(_dnf_clause(), min_size=1, max_size=4))
@example([((1, -2), 3), ((2, 1), 3)])  # {1, 2} cancels to a kept 0
@example([((-5, -3, -1, -4, -2), 1)])
def test_monotonize_matches_subset_reference(clauses):
    phi = WeightedFormula("dnf", 6, clauses, 1)
    expected = []
    for lits, wt in phi.clauses:
        positive = frozenset(l for l in lits if l > 0)
        for subset in iter_subsets_lex(-l for l in lits if l < 0):
            expected.append((positive | subset, -wt if len(subset) % 2 else wt))
    mono, _ = monotonize_abs_dnf(phi)
    assert mono.clauses == WeightedFormula("dnf", 6, expected, 1).clauses


def test_monotonize_negation_cap():
    at_cap = WeightedFormula("dnf", 10, ((tuple(range(-10, 0)), 1),), 1)
    assert len(monotonize_abs_dnf(at_cap)[0].clauses) == 1 << 10
    over = WeightedFormula("dnf", 12, ((tuple(range(-11, 0)) + (12,), 1),), 1)
    with pytest.raises(BudgetExceededError):
        monotonize_abs_dnf(over)


def test_encode_hypergraph_matches_assignments():
    rng = random.Random(14)
    for _ in range(100):
        phi = random_formula(rng, kind="dnf", max_vars=6, monotone=True)
        h, receipt = encode_dnf_as_hypergraph(phi)
        assert h.num_vertices == phi.num_vars
        assert h.d == phi.width
        profile = value_profile(phi)
        for mask in range(1 << phi.num_vars):
            xs = {i + 1 for i in range(phi.num_vars) if mask >> i & 1}
            assert naive_hypergraph_value(h, xs) == profile[mask]


def test_encode_rejects_negations():
    phi = WeightedFormula("dnf", 2, (((1, -2), 1),), 1)
    with pytest.raises(ContractViolationError):
        encode_dnf_as_hypergraph(phi)


def test_cnf_to_dnf_minterms():
    phi = WeightedFormula("cnf", 2, (((1, -2), 3),), 1)
    dnf, _ = abs_cnf_to_abs_dnf(phi)
    assert dnf.kind == "dnf"
    # all minterms over {1,2} except the single falsifier (-1, 2), in the
    # order of the truth table with x1 before x2 and false before true
    assert dnf.clauses == (
        (frozenset({-1, -2}), 3),
        (frozenset({1, -2}), 3),
        (frozenset({1, 2}), 3),
    )
    assert np.array_equal(value_profile(phi), value_profile(dnf))


def test_cnf_to_dnf_preserves_values():
    rng = random.Random(15)
    for _ in range(200):
        phi = random_formula(rng, kind="cnf", max_vars=6)
        dnf, _ = abs_cnf_to_abs_dnf(phi)
        assert dnf.kind == "dnf"
        assert np.array_equal(value_profile(phi), value_profile(dnf))


def test_cnf_to_dnf_width_cap():
    phi = WeightedFormula("cnf", 12, ((tuple(range(1, 13)), 1),), 1)
    with pytest.raises(BudgetExceededError):
        abs_cnf_to_abs_dnf(phi)


def test_expand_inclusion_exclusion_signs():
    phi = WeightedFormula("dnf", 3, (((1, 2, 3), 1),), 1)
    cnf, _ = expand_conjunctions_to_disjunctions(phi)
    assert cnf.kind == "cnf"
    # nonempty subsets in iter_subsets_lex order, odd sizes +1, even sizes -1
    assert cnf.clauses == (
        (frozenset({3}), 1),
        (frozenset({2}), 1),
        (frozenset({2, 3}), -1),
        (frozenset({1}), 1),
        (frozenset({1, 3}), -1),
        (frozenset({1, 2}), -1),
        (frozenset({1, 2, 3}), 1),
    )
    assert np.array_equal(value_profile(phi), value_profile(cnf))


def test_expand_preserves_values():
    rng = random.Random(16)
    for _ in range(200):
        phi = random_formula(rng, kind="dnf", max_vars=6, monotone=True)
        # the empty conjunction cannot be written as a disjunction
        if any(not lits for lits, _ in phi.clauses):
            with pytest.raises(ContractViolationError):
                expand_conjunctions_to_disjunctions(phi)
            continue
        cnf, _ = expand_conjunctions_to_disjunctions(phi)
        assert np.array_equal(value_profile(phi), value_profile(cnf))


def test_graph_construction():
    g = Graph(3, ((2, 1), (2, 3)))
    assert g.edges == ((1, 2), (2, 3))
    with pytest.raises(InvalidInstanceError):
        Graph(3, ((1, 1),))
    with pytest.raises(InvalidInstanceError):
        Graph(3, ((1, 2), (2, 1)))
    with pytest.raises(InvalidInstanceError):
        Graph(2, ((1, 3),))
    with pytest.raises(InvalidInstanceError):
        Graph(True, ())


def _gen_decides_is(gen, g, k):
    phi = gen(g, k)
    return brute_force_formula(phi, max_vars=40).decision


@pytest.mark.parametrize(
    "gen",
    [gen_is_to_max_monotone_dnf, gen_is_to_abs_monotone_dnf_np, gen_is_to_abs_monotone_dnf_w1],
)
def test_generators_decide_independent_set(gen):
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, max_vertices=5)
        s = independence_number(g)
        for k in range(0, 6):
            assert _gen_decides_is(gen, g, k) == (s >= k), (g, k, s)


def test_max_dnf_shape():
    g = Graph(3, ((1, 2),))
    phi = gen_is_to_max_monotone_dnf(g, 2)
    assert phi.num_vars == 3
    assert phi.alpha == 2 and phi.objective == "sum"
    weights = dict(phi.clauses)
    assert weights[frozenset({1})] == 1 and weights[frozenset({1, 2})] == -1
    # an independent set of size k scores exactly k
    assert eval_formula(phi, {1, 3}) == 2


def test_np_shape_and_alpha():
    g = Graph(2, ((1, 2),))
    phi = gen_is_to_abs_monotone_dnf_np(g, 1)
    assert phi.num_vars == 8
    assert phi.alpha == 1 + 1
    assert phi.monotone


def test_w1_merges_twin_neighborhoods():
    g = Graph(2, ((1, 2),))
    phi = gen_is_to_abs_monotone_dnf_w1(g, 1)
    # both closed neighborhoods are {1,2}, so their -1 clauses merge
    weights = dict(phi.clauses)
    assert weights[frozenset({1, 2})] == -2
    assert weights[frozenset({1})] == 1 and weights[frozenset({2})] == 1


def test_variant_builders():
    g = Graph(3, ((1, 2), (2, 3)))
    base = gen_is_to_abs_monotone_dnf_w1(g, 2)
    exact, _ = gen_exact_variant(base)
    assert exact.comparison == "exact" and exact.alpha == 0
    assert dict(exact.clauses)[frozenset()] == -2
    mn, _ = gen_min_variant(base)
    assert mn.comparison == "atmost" and mn.alpha == 0
    # exact variant holds exactly where the base value equals the old target
    for mask in range(1 << 3):
        trues = mask_vars(mask)
        base_val = eval_formula(base, trues)
        assert (abs(eval_formula(exact, trues)) == 0) == (base_val == 2)
    # an empty clause already present takes the shift at its own position,
    # and stays when the sum is 0
    held = (((1,), 3), ((), 2), ((2,), -1))
    for build, comparison in ((gen_exact_variant, "exact"), (gen_min_variant, "atmost")):
        for alpha, empty in ((2, 0), (5, -3)):
            out, _ = build(WeightedFormula("dnf", 2, held, alpha))
            assert out.comparison == comparison and out.alpha == 0
            assert out.clauses == (
                (frozenset({1}), 3), (frozenset(), empty), (frozenset({2}), -1)
            )
    with pytest.raises(ContractViolationError):
        gen_exact_variant(WeightedFormula("dnf", 1, (((-1,), 1),), 1))
