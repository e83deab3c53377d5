"""Command-line surface: stable text and JSON adapters over the library.

It writes the check, validate, girth, minimal, analysis and sigma JSON
documents, each section from its record's ``_asdict()``; the plan/1 and
verify/1 documents come from the library.

Exit codes: 0 success, 1 negative verdict (not realizable, not minimal,
failed validation), 2 malformed input or usage, 3 internal limit hit.
Graph arguments are file paths or ``-`` for stdin; edge-list and graph6
inputs are auto-detected.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import FormatError, LimitExceeded

# Each verb imports the library modules it calls, so that a process
# running one verb compiles and loads only those.
if TYPE_CHECKING:
    from .analysis import DigraphAnalysis
    from .model import GroupModel
    from .realizability import RealizabilityVerdict

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _prime_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return cap


def _label(text: str) -> str:
    if not text or "#" in text or any(c.isspace() for c in text):
        raise argparse.ArgumentTypeError(
            f"must be non-empty, without whitespace or '#', got {text!r}"
        )
    return text


def _read(path: str) -> str:
    """Text of the file at path, or of stdin for ``-``, decoded alike:
    strict UTF-8 with line ends kept, so byte offsets in errors are exact."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("utf-8")


def _document(name: str, body: dict) -> dict:
    """body as the solvgraph.<name>/1 document: the schema key first."""
    return {"schema": f"solvgraph.{name}/1", **body}


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def check_document(verdict: RealizabilityVerdict) -> dict:
    """The check/1 document: search_nodes before the coloring, sorted by
    vertex; a violation's vertices a list, empty for an exhausted search."""
    coloring, violation = verdict.certificate, verdict.violation
    if coloring is not None:
        coloring = dict(sorted(coloring.assignment.items()))
    if violation is not None:
        violation = violation._replace(vertices=list(violation.vertices or ()))._asdict()
    head = {"realizable": verdict.realizable, "search_nodes": verdict.search_nodes}
    return _document("check", {**head, "coloring": coloring, "violation": violation})


def analysis_document(a: DigraphAnalysis) -> dict:
    """The analysis/1 document: a's vertex sets, named by their fields
    without ``_set`` and listed in vertex order, so the bytes do not
    depend on the hash seed."""
    key = {v: i for i, v in enumerate(a.orientation.vertices)}.__getitem__
    sets = a._asdict()
    del sets["orientation"]
    body = {f.removesuffix("_set"): sorted(vs, key=key) for f, vs in sets.items()}
    # o1_of keeps its place between phi and o1, its keys sorted just above
    body["o1_of"] = {v: sorted(a.o1_of[v], key=key) for v in body["o1_of"]}
    return _document("analysis", body)


def _cmd_check(args) -> int:
    from .formats import parse_graph_auto
    from .realizability import is_solvable_prime_graph

    g = parse_graph_auto(_read(args.graph))
    verdict = is_solvable_prime_graph(g)
    _emit_json(check_document(verdict))
    return EXIT_OK if verdict.realizable else EXIT_NEGATIVE


def _cmd_orient(args) -> int:
    from .formats import emit_arc_list, parse_graph_auto
    from .minimality import canonical_orientation
    from .realizability import is_solvable_prime_graph

    g = parse_graph_auto(_read(args.graph))
    verdict = is_solvable_prime_graph(g)
    if not verdict.realizable:
        print("not realizable; no orientation exists", file=sys.stderr)
        return EXIT_NEGATIVE
    print(emit_arc_list(canonical_orientation(g)), end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .formats import parse_arc_list
    from .realizability import validate_frobenius_orientation

    o = parse_arc_list(_read(args.arcs))
    violations = validate_frobenius_orientation(o)
    _emit_json(_document("validate", {"violations": [v._asdict() for v in violations]}))
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_classify_girth(args) -> int:
    from .formats import parse_graph_auto
    from .realizability import classify_girth

    g = parse_graph_auto(_read(args.graph))
    result = classify_girth(g)
    _emit_json(_document("girth", result._asdict()))
    return EXIT_OK if result.status != "not-realizable" else EXIT_NEGATIVE


def _cmd_exceptions(_args) -> int:
    from .census import canonical_form
    from .graphs import cycle_graph
    from .realizability import exceptional_forests

    for forest in exceptional_forests():
        sys.stdout.write(canonical_form(forest).decode("ascii") + "\n")
    for cycle in (cycle_graph("abcd"), cycle_graph("abcde")):
        sys.stdout.write(canonical_form(cycle).decode("ascii") + "\n")
    return EXIT_OK


def _cmd_minimal_check(args) -> int:
    from .analysis import fitting_bounds
    from .formats import parse_graph_auto
    from .minimality import check_minimal_lemmas, is_minimal

    g = parse_graph_auto(_read(args.graph))
    report = is_minimal(g)
    doc = _document("minimal", report._asdict())
    if report.minimal and args.lemmas:
        doc["lemmas"] = check_minimal_lemmas(g)._asdict()
        doc["fitting_bounds"] = fitting_bounds(g)._asdict()
    _emit_json(doc)
    return EXIT_OK if report.minimal else EXIT_NEGATIVE


def _cmd_minimal_duplicate(args) -> int:
    from .formats import emit_edge_list, parse_graph_auto
    from .minimality import linked_vertex_duplication

    g = parse_graph_auto(_read(args.graph))
    result = linked_vertex_duplication(g, args.vertex, args.label)
    print(emit_edge_list(result), end="")
    return EXIT_OK


def _cmd_minimal_enumerate(args) -> int:
    from .formats import emit_graph6
    from .minimality import enumerate_minimal

    for g in enumerate_minimal(args.n):
        sys.stdout.write(emit_graph6(g).decode("ascii") + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analysis import analyze, sigma_partition_bound
    from .formats import parse_arc_list

    a = analyze(parse_arc_list(_read(args.arcs)))
    _emit_json({**analysis_document(a), "partition_bound": sigma_partition_bound(a)._asdict()})
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    from .formats import parse_arc_list
    from .primes import decimal
    from .synthesis import estimate_order, plan_to_json_dict, synthesize

    o = parse_arc_list(_read(args.arcs))
    plan = synthesize(o, congruence=args.congruence, prime_cap=args.prime_cap)
    doc = plan_to_json_dict(plan)
    doc["estimated_order"] = decimal(estimate_order(plan))
    _emit_json(doc)
    return EXIT_OK


def _load_plan(path: str):
    from .synthesis import plan_from_json_dict

    text = _read(path)
    try:
        doc = json.loads(text)
    except RecursionError:
        raise FormatError("plan JSON is nested too deeply") from None
    return plan_from_json_dict(doc)


def _report_problems(plan) -> tuple[str, ...]:
    """The plan's problems, each printed on stderr."""
    for problem in plan.problems:
        print(f"invalid plan: {problem}", file=sys.stderr)
    return plan.problems


def _load_model(path: str) -> GroupModel | None:
    """Model of a plan that passes validate_plan; None, with the problems
    on stderr, when it does not."""
    from .model import GroupModel

    plan = _load_plan(path)
    return None if _report_problems(plan) else GroupModel(plan)


def _cmd_prime_graph(args) -> int:
    from .formats import emit_edge_list

    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    print(emit_edge_list(model.compute_prime_graph()), end="")
    return EXIT_OK


def _cmd_digraph(args) -> int:
    from .formats import emit_arc_list

    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    print(emit_arc_list(model.compute_frobenius_digraph()), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .model import round_trip_report
    from .primes import decimal

    plan = _load_plan(args.plan)
    report = round_trip_report(plan)
    if not report["plan_valid"]:
        _report_problems(plan)  # the report keeps only the verdict
    report["group_order"] = decimal(report["group_order"])
    _emit_json(report)
    ok = report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"]
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_sigma(args) -> int:
    if (model := _load_model(args.plan)) is None:
        return EXIT_NEGATIVE
    sigma = model.sigma_of_model()
    count = len(model.primes())
    body = {"sigma": sigma, "prime_count": count, "within_triple_bound": count <= 3 * sigma}
    _emit_json(_document("sigma", body))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .formats import CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC, DEFAULT_PRIME_CAP

    parser = argparse.ArgumentParser(
        prog="solvgraph",
        description="Prime graphs of finite solvable groups: checks, certificates, models.",
    )
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
    p.add_argument("--label", type=_label, default=None)
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
    p.add_argument("--prime-cap", type=_prime_cap, default=DEFAULT_PRIME_CAP)
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


if __name__ == "__main__":
    main()
