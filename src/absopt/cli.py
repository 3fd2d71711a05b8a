"""Command-line front end.

Subcommands: solve (decide an instance file), reduce (rewrite a formula),
kernelize (run the hypergraph reduction rules), generate (build a formula
from a graph), verify (check a witness file against an instance file).

Exit codes: 10 answer yes, 20 answer no, 0 for non-decision outputs,
1 usage or input errors, 2 enumeration budget exceeded.  verify exits 0
when the witness is valid and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats, pipeline
from .absio import brute_force_absio, solve_absio
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InvalidInstanceError,
    ParseError,
)
from .kernel import MODE_SUBEDGE, MODES, STATUS_TRIVIAL_YES, kernelize
from .model import (
    CMP_ATLEAST,
    KIND_DNF,
    OBJ_ABS,
    WeightedFormula,
    WeightedHypergraph,
    brute_force_formula,
    brute_force_hypergraph,
)
from .reductions import (
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

EXIT_YES = 10
EXIT_NO = 20
EXIT_ERROR = 1
EXIT_BUDGET = 2

_GENERATORS = {
    "max-dnf": gen_is_to_max_monotone_dnf,
    "abs-np": gen_is_to_abs_monotone_dnf_np,
    "abs-w1": gen_is_to_abs_monotone_dnf_w1,
}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _print_transcript(lines) -> None:
    for line in lines:
        print(f"c {line}")


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = formats.parse_instance(_read(args.file))
    if isinstance(instance, Graph):
        raise InvalidInstanceError(
            "a bare graph carries no weights or target; run generate first"
        )
    if isinstance(instance, WeightedFormula):
        routed = (
            instance.objective == OBJ_ABS and instance.comparison == CMP_ATLEAST
        )
        if args.oracle or not routed:
            method = "oracle"
            verdict = brute_force_formula(instance, max_vars=args.cap)
        elif instance.kind == KIND_DNF:
            method = "pipeline"
            verdict = pipeline.solve_abs_dnf(instance, args.mode, max_vertices=args.cap)
        else:
            method = "pipeline"
            verdict = pipeline.solve_abs_cnf(instance, args.mode, max_vertices=args.cap)
    elif isinstance(instance, WeightedHypergraph):
        if args.oracle:
            method = "oracle"
            verdict = brute_force_hypergraph(instance, max_vertices=args.cap)
        else:
            method = "pipeline"
            verdict = pipeline.solve_unbalanced(instance, args.mode, max_vertices=args.cap)
    else:
        if args.oracle:
            method = "oracle"
            verdict = brute_force_absio(instance, max_points=args.cap)
        else:
            method = "pipeline"
            verdict = solve_absio(instance, max_points=args.cap)
    print(f"c method {method}")
    if args.explain:
        _print_transcript(verdict.transcript)
    if not verdict.decision:
        print("s NO")
        return EXIT_NO
    print("s YES")
    print(f"o {verdict.achieved}")
    sys.stdout.write(formats.serialize_witness(instance, verdict.witness))
    return EXIT_YES


def _reduce_monotonize(phi: WeightedFormula):
    return monotonize_abs_dnf(phi)[0]


def _reduce_cnf2dnf(phi: WeightedFormula):
    return abs_cnf_to_abs_dnf(phi)[0]


def _reduce_expand(phi: WeightedFormula):
    return expand_conjunctions_to_disjunctions(phi)[0]


def _reduce_dnf2uhg(phi: WeightedFormula):
    return encode_dnf_as_hypergraph(phi)[0]


def _reduce_exact(phi: WeightedFormula):
    return gen_exact_variant(phi)[0]


def _reduce_min(phi: WeightedFormula):
    return gen_min_variant(phi)[0]


_REDUCERS = {
    "monotonize": _reduce_monotonize,
    "cnf2dnf": _reduce_cnf2dnf,
    "expand": _reduce_expand,
    "dnf2uhg": _reduce_dnf2uhg,
    "exact": _reduce_exact,
    "min": _reduce_min,
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    instance = formats.parse_instance(_read(args.file))
    if not isinstance(instance, WeightedFormula):
        raise InvalidInstanceError("reduce expects a wdnf or wcnf file")
    result = _REDUCERS[args.transform](instance)
    _emit(formats.serialize_instance(result), args.output)
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    instance = formats.parse_instance(_read(args.file))
    if not isinstance(instance, WeightedHypergraph):
        raise InvalidInstanceError("kernelize expects a uhg file")
    outcome = kernelize(instance, args.mode)
    if args.explain:
        _print_transcript(outcome.transcript)
    if outcome.status == STATUS_TRIVIAL_YES:
        value = pipeline._checked_value(instance, outcome.witness)
        print("s YES")
        print(f"o {value}")
        sys.stdout.write(formats.serialize_witness(instance, outcome.witness))
        return EXIT_YES
    _emit(formats.serialize_hypergraph(outcome.instance), args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = formats.parse_instance(_read(args.graph))
    if not isinstance(graph, Graph):
        raise InvalidInstanceError("generate expects a p edge graph file")
    phi = _GENERATORS[args.generator](graph, args.k)
    _emit(formats.serialize_formula(phi), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = formats.parse_instance(_read(args.instance))
    if isinstance(instance, Graph):
        raise InvalidInstanceError("a bare graph has nothing to verify against")
    witness = formats.parse_witness(_read(args.witness), instance)
    ok, value = pipeline.verify_witness(instance, witness)
    print(f"c value={value}")
    print("s VALID" if ok else "s INVALID")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error; argparse's own 2 is EXIT_BUDGET."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="absopt",
        description="weighted clause, hypergraph, and polynomial imbalance solver",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("file")
    p.add_argument("--mode", choices=MODES, default=MODE_SUBEDGE,
                   help="kernelization flavor (default subedge)")
    p.add_argument("--oracle", action="store_true",
                   help="skip reductions and enumerate directly")
    p.add_argument("--explain", action="store_true",
                   help="print the rule transcript as comments")
    p.add_argument("--cap", type=int, default=None,
                   help="enumeration budget override")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="rewrite a formula file")
    p.add_argument("transform", choices=sorted(_REDUCERS))
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("kernelize", help="apply the reduction rules to a hypergraph")
    p.add_argument("file")
    p.add_argument("--mode", choices=MODES, default=MODE_SUBEDGE)
    p.add_argument("--explain", action="store_true")
    p.add_argument("-o", "--output", default=None,
                   help="write the reduced instance here instead of stdout")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("generate", help="build a formula from a graph")
    p.add_argument("generator", choices=sorted(_GENERATORS))
    p.add_argument("graph")
    p.add_argument("k", type=int, help="independent-set size target")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a witness file against an instance")
    p.add_argument("instance")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidInstanceError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
