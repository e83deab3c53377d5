"""Command-line surface: stable text and JSON adapters over the library.

Exit codes: 0 success, 1 negative verdict (not realizable, not minimal,
failed validation), 2 malformed input or usage, 3 internal limit hit.
Graph arguments are file paths or ``-`` for stdin; edge-list and graph6
inputs are auto-detected.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import analyze, fitting_bounds, sigma_partition_bound
from .errors import FormatError, LimitExceeded
from .formats import (
    emit_arc_list,
    emit_edge_list,
    emit_graph6,
    parse_arc_list,
    parse_graph_auto,
)
from .graphs import LabeledGraph, canonical_form, cycle_graph
from .minimality import (
    check_minimal_lemmas,
    enumerate_minimal,
    is_minimal,
    linked_vertex_duplication,
    canonical_orientation,
)
from .model import GroupModel, round_trip_report
from .realizability import (
    classify_girth,
    exceptional_forests,
    is_solvable_prime_graph,
    validate_frobenius_orientation,
)
from .synthesis import (
    CONGRUENCE_GLOBAL,
    CONGRUENCE_PER_ARC,
    estimate_order,
    plan_from_json_dict,
    plan_to_json_dict,
    synthesize,
    validate_plan,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_check(args) -> int:
    g = parse_graph_auto(_read(args.graph))
    verdict = is_solvable_prime_graph(g)
    _emit_json(verdict.to_json_dict())
    return EXIT_OK if verdict.realizable else EXIT_NEGATIVE


def _cmd_orient(args) -> int:
    g = parse_graph_auto(_read(args.graph))
    verdict = is_solvable_prime_graph(g)
    if not verdict.realizable:
        print("not realizable; no orientation exists", file=sys.stderr)
        return EXIT_NEGATIVE
    print(emit_arc_list(canonical_orientation(g)), end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    o = parse_arc_list(_read(args.arcs))
    violations = validate_frobenius_orientation(o)
    _emit_json(
        {
            "schema": "solvgraph.validate/1",
            "violations": [
                {"kind": v.kind, "vertices": list(v.vertices)} for v in violations
            ],
        }
    )
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_classify_girth(args) -> int:
    g = parse_graph_auto(_read(args.graph))
    result = classify_girth(g)
    _emit_json(
        {
            "schema": "solvgraph.girth/1",
            "status": result.status,
            "kind": result.kind,
        }
    )
    return EXIT_OK if result.status != "not-realizable" else EXIT_NEGATIVE


def _cmd_exceptions(_args) -> int:
    for forest in exceptional_forests():
        sys.stdout.write(canonical_form(forest).decode("ascii") + "\n")
    for cycle in (cycle_graph("abcd"), cycle_graph("abcde")):
        sys.stdout.write(canonical_form(cycle).decode("ascii") + "\n")
    return EXIT_OK


def _cmd_minimal_check(args) -> int:
    g = parse_graph_auto(_read(args.graph))
    report = is_minimal(g)
    doc = report.to_json_dict()
    if report.minimal and args.lemmas:
        lemmas = check_minimal_lemmas(g)
        doc["lemmas"] = {
            "complement_not_2_colorable": lemmas.complement_not_2_colorable,
            "no_complement_singletons": lemmas.no_complement_singletons,
            "has_induced_c5": lemmas.has_induced_c5,
            "partition_classes_nonempty": lemmas.partition_classes_nonempty,
        }
        doc["fitting_bounds"] = _fitting_doc(g)
    _emit_json(doc)
    return EXIT_OK if report.minimal else EXIT_NEGATIVE


def _fitting_doc(g: LabeledGraph) -> dict:
    bounds = fitting_bounds(g)
    return {
        "low": bounds.low,
        "high": bounds.high,
        "exact": bounds.exact,
        "note": bounds.note,
    }


def _cmd_minimal_duplicate(args) -> int:
    g = parse_graph_auto(_read(args.graph))
    result = linked_vertex_duplication(g, args.vertex, args.label)
    print(emit_edge_list(result), end="")
    return EXIT_OK


def _cmd_minimal_enumerate(args) -> int:
    for g in enumerate_minimal(args.n):
        sys.stdout.write(emit_graph6(g).decode("ascii") + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    o = parse_arc_list(_read(args.arcs))
    a = analyze(o)
    doc = a.to_json_dict()
    bound = sigma_partition_bound(a)
    doc["partition_bound"] = {
        "n_vertices": bound.n_vertices,
        "bound": bound.bound,
        "holds": bound.holds,
    }
    _emit_json(doc)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    o = parse_arc_list(_read(args.arcs))
    plan = synthesize(o, congruence=args.congruence, prime_cap=args.prime_cap)
    doc = plan_to_json_dict(plan)
    doc["estimated_order"] = str(estimate_order(plan))
    _emit_json(doc)
    return EXIT_OK


def _load_plan(path: str):
    return plan_from_json_dict(json.loads(_read(path)))


def _load_model(path: str) -> GroupModel | None:
    """Model of a plan that passes validate_plan; None, with the problems
    on stderr, when it does not."""
    plan = _load_plan(path)
    problems = validate_plan(plan)
    for problem in problems:
        print(f"invalid plan: {problem}", file=sys.stderr)
    return None if problems else GroupModel(plan)


def _cmd_prime_graph(args) -> int:
    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    print(emit_edge_list(model.compute_prime_graph()), end="")
    return EXIT_OK


def _cmd_digraph(args) -> int:
    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    print(emit_arc_list(model.compute_frobenius_digraph()), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = round_trip_report(_load_plan(args.plan))
    report["group_order"] = str(report["group_order"])
    _emit_json(report)
    ok = report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"]
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_sigma(args) -> int:
    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    sigma = model.sigma_of_model()
    count = len(model.primes())
    _emit_json(
        {
            "schema": "solvgraph.sigma/1",
            "sigma": sigma,
            "prime_count": count,
            "within_triple_bound": count <= 3 * sigma,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvgraph",
        description="Prime graphs of finite solvable groups: checks, certificates, models.",
    )
    parser.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="realizability verdict with certificate")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("orient", help="canonical valid orientation of the complement")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("validate", help="check an orientation for violations")
    p.add_argument("arcs")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify-girth", help="girth classification of a realizable graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_classify_girth)

    p = sub.add_parser("exceptions", help="the girth exceptions as graph6 lines")
    p.set_defaults(func=_cmd_exceptions)

    minimal = sub.add_parser("minimal", help="minimal prime graph tools")
    minimal_sub = minimal.add_subparsers(dest="minimal_command", required=True)
    p = minimal_sub.add_parser("check", help="minimality report")
    p.add_argument("graph")
    p.add_argument("--lemmas", action="store_true", help="include lemma checks")
    p.set_defaults(func=_cmd_minimal_check)
    p = minimal_sub.add_parser("duplicate", help="linked vertex duplication")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_minimal_duplicate)
    p = minimal_sub.add_parser("enumerate", help="all minimal graphs on n vertices")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_minimal_enumerate)

    p = sub.add_parser("analyze", help="source/double/sink analysis of an orientation")
    p.add_argument("arcs")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="group plan realizing an orientation")
    p.add_argument("arcs")
    p.add_argument(
        "--congruence",
        choices=[CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC],
        default=CONGRUENCE_GLOBAL,
    )
    p.add_argument("--prime-cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("prime-graph", help="prime graph of a plan's model")
    p.add_argument("plan")
    p.set_defaults(func=_cmd_prime_graph)

    p = sub.add_parser("digraph", help="recomputed digraph of a plan's model")
    p.add_argument("plan")
    p.set_defaults(func=_cmd_digraph)

    p = sub.add_parser("verify", help="round-trip report for a plan")
    p.add_argument("plan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sigma", help="element-order prime statistics of a model")
    p.add_argument("plan")
    p.set_defaults(func=_cmd_sigma)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitExceeded as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


def main() -> None:
    sys.exit(run())
