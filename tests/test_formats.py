import random

import pytest

from absopt import (
    AbsIoInstance,
    Graph,
    InvalidInstanceError,
    ParseError,
    WeightedFormula,
    WeightedHypergraph,
)
from absopt.formats import (
    detect_kind,
    parse_absio,
    parse_formula,
    parse_graph,
    parse_hypergraph,
    parse_instance,
    parse_witness,
    serialize_absio,
    serialize_formula,
    serialize_graph,
    serialize_hypergraph,
    serialize_instance,
    serialize_witness,
)
from helpers import random_absio, random_formula, random_graph, random_hypergraph


def test_formula_roundtrip():
    rng = random.Random(53)
    for _ in range(150):
        phi = random_formula(rng)
        again = parse_formula(serialize_formula(phi))
        assert again == phi


def test_formula_header_defaults():
    phi = parse_formula("p wdnf 2 1 3\nw 5 1 -2 0\n")
    assert phi.objective == "abs" and phi.comparison == "atleast"
    phi = parse_formula("p wcnf 1 0 0 sum\n")
    assert phi.kind == "cnf" and phi.objective == "sum" and phi.comparison == "atleast"
    phi = parse_formula("p wdnf 1 1 2 sum atmost\nw -1 1 0\n")
    assert phi.comparison == "atmost"


def test_formula_comments_and_blanks():
    text = "c a comment\nc\n\np wdnf 1 1 1\nc mid-file note\nw 2 1 0\n"
    phi = parse_formula(text)
    assert phi.clauses == ((frozenset({1}), 2),)


def test_formula_parse_errors():
    cases = [
        ("p wxyz 1 0 0\n", 1,
         "expected: p wdnf|wcnf nvars nclauses alpha [objective] [comparison]"),
        ("w 1 1 0\n", 1, "clause before the problem line"),
        ("p wdnf 1 0 0\np wdnf 1 0 0\n", 2, "second problem line"),
        ("p wdnf 1 1 0\nw 2 0 0\n", 2, "literal 0 inside a clause"),
        ("p wdnf 1 1 0\nw 2 5 0\n", 2, "literal 5 exceeds 1 variables"),
        ("p wdnf 2 1 0\nw 2 -3 0\n", 2, "literal -3 exceeds 2 variables"),
        ("p wdnf 2 1 0\nw 2 1 -1 0\n", 2, "variable 1 repeats in one clause"),
        ("p wdnf 2 1 0\nw 2 1 x 0\n", 2, "literal must be an integer, got 'x'"),
        ("p wdnf 2 1 0\nw 2.5 1 0\n", 2, "weight must be an integer, got '2.5'"),
        ("p wdnf 2 1 0\nw 2 1\n", 2, "list line must end with 0"),
        ("p wdnf 2 1 0\nw 2\n", 2, "clause line needs a weight and a 0 terminator"),
        ("p wdnf 1 1 0\nq zzz\n", 2, "unexpected line 'q' in a formula file"),
        ("p wdnf 1 1 0 fancy\n", 1, "objective must be abs or sum, got 'fancy'"),
        ("p wdnf 1 1 0 abs near\n", 1,
         "comparison must be atleast, exact, or atmost, got 'near'"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.line_no == line, text
        assert str(exc.value) == f"line {line}: {message}"
    with pytest.raises(ParseError):
        parse_formula("p wdnf 1 2 0\nw 1 1 0\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_formula("c nothing here\n")


def test_hypergraph_roundtrip_identity_vertices():
    rng = random.Random(59)
    for _ in range(100):
        h = random_hypergraph(rng)
        if h.vertices != frozenset(range(1, h.num_vertices + 1)):
            continue
        text = serialize_hypergraph(h)
        assert "\nn " not in text
        # the file format carries no d, so the parse derives it from the edges
        assert parse_hypergraph(text) == WeightedHypergraph(h.vertices, h.edges, h.alpha)


def test_hypergraph_roundtrip_named_vertices():
    h = WeightedHypergraph({3, 7, 9}, (((3, 9), -2), ((), 4)), 2)
    text = serialize_hypergraph(h)
    assert "n 3 7 9 0" in text
    assert parse_hypergraph(text) == h


def test_hypergraph_parse_errors():
    cases = [
        ("p uhg 2 1 1\ne 3 1 1 0\n", 2, "vertex 1 repeats in one edge"),
        ("p uhg 2 1 1\nn 3 7 0\ne 1 3 3 0\n", 3, "vertex 3 repeats in one edge"),
        ("p uhg 2 1 1\ne 3 5 0\n", 2, "vertex 5 is not in the vertex set"),
        ("p uhg 2 1 1\ne 3 0 0\n", 2, "vertex 0 is not in the vertex set"),
        ("p uhg 2 1 1\nn 3 7 0\ne 1 3 4 0\n", 3, "vertex 4 is not in the vertex set"),
        ("p uhg 2 1 1\ne 3 1 v 0\n", 2, "vertex must be an integer, got 'v'"),
        ("p uhg 2 1 1\nn 1 2 0\ne 3 1 0\nn 1 2 0\n", 4, "second vertex list"),
        ("p uhg 2 1 1\ne 3 1 0\nn 1 2 0\n", 3, "vertex list must come before the edges"),
        ("p uhg 2 1 1\nn 1 1 0\ne 3 1 0\n", 2,
         "vertex ids must be distinct positive integers"),
        ("p uhg 2 1\n", 1, "expected: p uhg nvertices nedges alpha"),
        ("p uhg 2 0 1\nn 1 0\n", 2, "header promises 2 vertices, list has 1"),
        ("p uhg 2 1 1\ne 3\n", 2, "edge line needs a weight and a 0 terminator"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_hypergraph(text)
        assert exc.value.line_no == line, text
        assert str(exc.value) == f"line {line}: {message}"
    with pytest.raises(ParseError):
        parse_hypergraph("p uhg 1 2 1\ne 1 1 0\n")


def test_absio_roundtrip():
    rng = random.Random(61)
    for _ in range(100):
        inst = random_absio(rng, allow_unbounded=True)
        text = serialize_absio(inst)
        assert parse_absio(text) == inst


def test_absio_unbounded_tokens():
    text = "p absio 2 1 5\ncol 3 1:2 0\nb 1 -inf 4\n"
    inst = parse_absio(text)
    assert inst.lower == (None, None) and inst.upper == (4, None)
    assert inst.terms == (((2, 0), 3),)
    out = serialize_absio(inst)
    assert "b 1 -inf 4" in out and "b 2 -inf inf" in out


def test_absio_parse_errors():
    cases = [
        ("p absio 1 1 1\ncol 2\n", 2, "term line needs a weight and a 0 terminator"),
        ("p absio 1 1 1\ncol w 1:1 0\n", 2, "weight must be an integer, got 'w'"),
        ("p absio 1 1 1\ncol 2 1:1\n", 2, "list line must end with 0"),
        ("p absio 1 1 1\ncol 2 x 0\n", 2, "expected <var>:<exp>, got 'x'"),
        ("p absio 1 1 1\ncol 2 a:1 0\n", 2, "variable must be an integer, got 'a'"),
        ("p absio 1 1 1\ncol 2 1:b 0\n", 2, "exponent must be an integer, got 'b'"),
        ("p absio 1 1 1\ncol 2 2:1 0\n", 2, "variable 2 is not in 1..1"),
        ("p absio 1 1 1\ncol 2 0:1 0\n", 2, "variable 0 is not in 1..1"),
        ("p absio 1 1 1\ncol 2 1:0 0\n", 2, "exponent for variable 1 must be positive"),
        ("p absio 1 1 1\ncol 2 1:-1 0\n", 2, "exponent for variable 1 must be positive"),
        ("p absio 1 1 1\ncol 2 1:1 1:2 0\n", 2, "variable 1 repeats in one term"),
        ("p absio 1 0 1\nb 1 inf 3\n", 2, "lower bound cannot be +inf"),
        ("p absio 1 0 1\nb 1 0 -inf\n", 2, "upper bound cannot be -inf"),
        ("p absio 1 0 1\nb 1 0 3\nb 1 0 3\n", 3, "second bounds line for variable 1"),
        ("p absio 1 0 1\nb 2 0 3\n", 2, "variable 2 is not in 1..1"),
        ("p absio 1 0\n", 1, "expected: p absio nvars nterms alpha"),
        ("p absio 1 0 1\nb 1 0\n", 2, "expected: b <var> <min|-inf> <max|inf>"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_absio(text)
        assert exc.value.line_no == line, text
        assert str(exc.value) == f"line {line}: {message}"


def test_absio_serialize_requires_identity_ids():
    inst = AbsIoInstance((((1,), 2),), (0,), (3,), 1, (5,))
    with pytest.raises(InvalidInstanceError):
        serialize_absio(inst)


def test_graph_roundtrip_and_errors():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng)
        assert parse_graph(serialize_graph(g)) == g
    for text, line, message in [
        ("p edge 2 1\ne 1 1\n", 2, "self-loop at 1"),
        ("p edge 2 2\ne 1 2\ne 2 1\n", 3, "edge (1, 2) repeats"),
        ("p edge 2 1\ne 1 5\n", 2, "vertex 5 is not in 1..2"),
        ("p edge 2\n", 1, "expected: p edge nvertices nedges"),
        ("p edge 2 1\ne 1\n", 2, "expected: e <u> <v>"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line_no == line
        assert str(exc.value) == f"line {line}: {message}"


# The errors every instance grammar shares, with their full text.
SHARED_PARSE_ERRORS = [
    (parse_formula, "w 1 1 0\n", "line 1: clause before the problem line"),
    (parse_formula, "p wdnf 1 0 0\np wdnf 1 0 0\n", "line 2: second problem line"),
    (parse_formula, "p wdnf 1 0 0\nq 1\n", "line 2: unexpected line 'q' in a formula file"),
    (parse_formula, "q 1\n", "line 1: unexpected line 'q' in a formula file"),
    (parse_formula, "c only\n", "line 0: no problem line found"),
    (parse_formula, "p wcnf 1 2 0\nw 1 1 0\n",
     "line 0: header promises 2 clauses, file has 1"),
    (parse_hypergraph, "n 1 0\n", "line 1: vertex list before the problem line"),
    (parse_hypergraph, "e 1 1 0\n", "line 1: edge before the problem line"),
    (parse_hypergraph, "p uhg 1 0 0\np uhg 1 0 0\n", "line 2: second problem line"),
    (parse_hypergraph, "p uhg 1 0 0\nw 1 0\n",
     "line 2: unexpected line 'w' in a hypergraph file"),
    (parse_hypergraph, "", "line 0: no problem line found"),
    (parse_hypergraph, "p uhg 1 0 0\ne 1 1 0\n", "line 0: header promises 0 edges, file has 1"),
    (parse_absio, "col 1 0\n", "line 1: term before the problem line"),
    (parse_absio, "b 1 0 1\n", "line 1: bounds before the problem line"),
    (parse_absio, "p absio 1 0 0\np absio 1 0 0\n", "line 2: second problem line"),
    (parse_absio, "p absio 1 0 0\ne 1 0\n",
     "line 2: unexpected line 'e' in a polynomial file"),
    (parse_absio, "\nc\n", "line 0: no problem line found"),
    (parse_absio, "p absio 1 1 0\n", "line 0: header promises 1 terms, file has 0"),
    (parse_graph, "e 1 2\n", "line 1: edge before the problem line"),
    (parse_graph, "p edge 2 0\np edge 2 0\n", "line 2: second problem line"),
    (parse_graph, "p edge 2 0\ncol 1 0\n", "line 2: unexpected line 'col' in a graph file"),
    (parse_graph, "c\n", "line 0: no problem line found"),
    (parse_graph, "p edge 2 2\ne 1 2\n", "line 0: header promises 2 edges, file has 1"),
    (parse_formula, "p wdnf -1 0 0\n", "line 1: variable count must be non-negative, got -1"),
    (parse_hypergraph, "p uhg 1 -2 0\n", "line 1: edge count must be non-negative, got -2"),
    (parse_absio, "p absio 0 0 -3\n", "line 1: target must be non-negative, got -3"),
    (parse_graph, "p edge -1 0\n", "line 1: vertex count must be non-negative, got -1"),
    (parse_instance, "q 1\n", "line 1: expected a problem line, got 'q'"),
    (parse_instance, "c only\n", "line 0: no problem line found"),
    (parse_instance, "c\np\n", "line 2: problem line needs a kind"),
    (parse_instance, "p mystery 1 0\n", "line 1: unknown instance kind 'mystery'"),
    # outside comments, tokens are ASCII without '_': int() alone takes both
    (parse_hypergraph, "p uhg 2 1 1_0\n", "line 1: token '1_0' holds '_' or a non-ASCII character"),
    (parse_instance, "p uhg 2 0 \uff13\n",
     "line 1: token '\uff13' holds '_' or a non-ASCII character"),
    (parse_formula, "c \u00e9\np wdnf 1 1 0\nw 1 \u0661 0\n",
     "line 3: token '\u0661' holds '_' or a non-ASCII character"),
    (parse_absio, "p absio 1 0 1\nb 1 0 1_000\n",
     "line 2: token '1_000' holds '_' or a non-ASCII character"),
    (parse_graph, "p edge 2 1\ne 1 2\u2081\n",
     "line 2: token '2\u2081' holds '_' or a non-ASCII character"),
]


@pytest.mark.parametrize(
    "parse,text,message", SHARED_PARSE_ERRORS,
    ids=[f"{parse.__name__}-{k}" for k, (parse, _, _) in enumerate(SHARED_PARSE_ERRORS)],
)
def test_shared_parse_error_text(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_comments_may_hold_anything():
    text = "c x_1 \u00e9 \uff13\np uhg 2 1 3\nc _\ne 3 1 2 0\n"
    assert parse_hypergraph(text) == parse_hypergraph("p uhg 2 1 3\ne 3 1 2 0\n")


def test_detect_and_dispatch():
    samples = {
        "wdnf": "p wdnf 1 0 0\n",
        "wcnf": "p wcnf 1 0 0\n",
        "uhg": "p uhg 0 0 0\n",
        "absio": "p absio 0 0 0\n",
        "edge": "p edge 0 0\n",
    }
    types = {
        "wdnf": WeightedFormula,
        "wcnf": WeightedFormula,
        "uhg": WeightedHypergraph,
        "absio": AbsIoInstance,
        "edge": Graph,
    }
    for kind, text in samples.items():
        assert detect_kind(text) == kind
        obj = parse_instance(text)
        assert isinstance(obj, types[kind])
        again = parse_instance(serialize_instance(obj))
        assert again == obj
    with pytest.raises(ParseError):
        detect_kind("p mystery 1 0\n")
    with pytest.raises(InvalidInstanceError):
        serialize_instance(42)


def test_formula_witness_roundtrip():
    phi = WeightedFormula("dnf", 3, (((1, -2), 4),), 4)
    text = serialize_witness(phi, frozenset({1, 3}))
    assert text == "v 1 -2 3\n"
    assert parse_witness(text, phi) == frozenset({1, 3})
    # any iterable of true variables serializes the same way
    assert serialize_witness(phi, [3, 1]) == text


def test_formula_witness_errors():
    phi = WeightedFormula("dnf", 2, (((1,), 1),), 1)
    with pytest.raises(ParseError):
        parse_witness("v 1\n", phi)  # x2 missing
    with pytest.raises(ParseError):
        parse_witness("v 1 -1 2\n", phi)
    with pytest.raises(ParseError):
        parse_witness("v 1 3 2\n", phi)
    with pytest.raises(ParseError):
        parse_witness("s 1 2\n", phi)


def test_hypergraph_witness_roundtrip():
    h = WeightedHypergraph({2, 4, 6}, (((2, 4), 1),), 1)
    assert serialize_witness(h, frozenset({4, 2})) == "s 2 4\n"
    assert parse_witness("s 2 4\n", h) == frozenset({2, 4})
    assert serialize_witness(h, frozenset()) == "s\n"
    assert parse_witness("s\n", h) == frozenset()
    with pytest.raises(ParseError):
        parse_witness("s 3\n", h)
    with pytest.raises(ParseError):
        parse_witness("s 2 2\n", h)


def test_absio_witness_roundtrip():
    inst = AbsIoInstance((((1, 0), 2), ((0, 1), 3)), (0, -5), (9, 5), 1)
    text = serialize_witness(inst, (4, -1))
    assert text == "x 1 4\nx 2 -1\n"
    assert parse_witness(text, inst) == (4, -1)
    with pytest.raises(ParseError):
        parse_witness("x 1 4\n", inst)
    with pytest.raises(ParseError):
        parse_witness("x 1 4\nx 1 5\nx 2 0\n", inst)
    with pytest.raises(InvalidInstanceError):
        serialize_witness(inst, (1,))


def test_witness_skips_solve_status_lines():
    # solve's own output is a witness file for every kind; s NO holds none
    phi = WeightedFormula("dnf", 2, (((1,), 1),), 1)
    h = WeightedHypergraph({2, 4}, (((2, 4), 1),), 1)
    inst = AbsIoInstance((((1,), 2),), (0,), (9,), 1)
    head = "c method pipeline\ns YES\no 7\n"
    assert parse_witness(head + "v 1 -2\n", phi) == frozenset({1})
    assert parse_witness(head + "s 2 4\n", h) == frozenset({2, 4})
    assert parse_witness(head + "s\n", h) == frozenset()
    assert parse_witness(head + "x 1 4\n", inst) == (4,)
    for instance in (phi, h, inst):
        with pytest.raises(ParseError) as exc:
            parse_witness("c method pipeline\ns NO\n", instance)
        assert str(exc.value) == "line 2: status s NO: the file holds no witness"


WITNESS_PARSE_ERRORS = [
    (WeightedHypergraph({1, 2}, (((1,), 1),), 1), "x 1\n", "line 1: expected an s line, got 'x'"),
    (AbsIoInstance((((1,), 2),), (0,), (9,), 1), "x 1\n", "line 1: expected: x <var> <value>"),
    (AbsIoInstance((((1,), 2),), (0,), (9,), 1), "x 3 1\n",
     "line 1: variable 3 is not in the instance"),
    (AbsIoInstance((((1,), 2),), (0,), (9,), 1), "x 1 \uff14\n",
     "line 1: token '\uff14' holds '_' or a non-ASCII character"),
]


@pytest.mark.parametrize(
    "instance,text,message", WITNESS_PARSE_ERRORS,
    ids=[f"{type(inst).__name__}-{k}" for k, (inst, _, _) in enumerate(WITNESS_PARSE_ERRORS)],
)
def test_witness_parse_error_text(instance, text, message):
    with pytest.raises(ParseError) as exc:
        parse_witness(text, instance)
    assert str(exc.value) == message


def test_witness_rejects_graph():
    g = Graph(2, ((1, 2),))
    with pytest.raises(InvalidInstanceError):
        parse_witness("s 1\n", g)
    with pytest.raises(InvalidInstanceError):
        serialize_witness(g, (1,))
