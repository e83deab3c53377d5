"""CLI verbs: payloads, exit codes, determinism."""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from helpers import grotzsch
from solvgraph import complement, emit_edge_list
from solvgraph.cli import run

ROOT = Path(__file__).resolve().parent.parent

C5_EDGES = "a b\nb c\nc d\nd e\ne a\n"
PENTAGON_ARCS = "p1 > p3\np3 > p4\np1 > p5\np2 > p4\np2 > p5\n"


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_check_realizable(tmp_path, capsys):
    code = run(["check", _write(tmp_path, "g.txt", C5_EDGES)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["realizable"] is True
    assert doc["coloring"] is not None


def test_check_negative_verdict_exit_code(tmp_path, capsys):
    code = run(["check", _write(tmp_path, "g.txt", "vertices: a b c\n")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["violation"]["kind"] == "triangle-in-complement"


def test_check_malformed_input(tmp_path, capsys):
    code = run(["check", _write(tmp_path, "g.txt", "a a\n")])
    capsys.readouterr()
    assert code == 2
    for verb, text, message in (
        ("check", "vertices: a b a\n", "vertex 'a' declared twice"),
        ("validate", "a >\n", "expected 'u > v', got 'a >'"),
    ):
        code = run([verb, _write(tmp_path, "bad.txt", text)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", verb
        assert err == f"error: {message} (byte offset 0)\n", verb


def test_search_budget_is_exit_3(tmp_path, capsys, monkeypatch):
    # the default budget is far above any search a test can afford; the
    # verdict's search gets a tiny one, as if the input had outgrown it
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 5)
    path = _write(tmp_path, "g.txt", emit_edge_list(complement(grotzsch())))
    code = run(["check", path])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "limited to 5 nodes" in err


def test_orient_then_validate(tmp_path, capsys):
    code = run(["orient", _write(tmp_path, "g.txt", C5_EDGES)])
    arcs = capsys.readouterr().out
    assert code == 0
    code = run(["validate", _write(tmp_path, "o.txt", arcs)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["violations"] == []


def test_validate_reports_violations(tmp_path, capsys):
    code = run(["validate", _write(tmp_path, "o.txt", "a > b\nb > c\nc > d\n")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["violations"][0]["kind"] == "directed-3-path"


def test_classify_girth_verb(tmp_path, capsys):
    code = run(["classify-girth", _write(tmp_path, "g.txt", C5_EDGES)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["kind"] == "C5"


def test_exceptions_verb(capsys):
    assert run(["exceptions"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9  # 7 forests, then the 4-cycle and the 5-cycle


def test_minimal_check_verb(tmp_path, capsys):
    code = run(["minimal", "check", _write(tmp_path, "g.txt", C5_EDGES), "--lemmas"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["minimal"] is True
    assert doc["fitting_bounds"]["low"] == 3
    assert doc["fitting_bounds"]["high"] == 4

    code = run(["minimal", "check", _write(tmp_path, "h.txt", "a b\n")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["failing_edge"] == ["a", "b"]


def test_minimal_duplicate_verb(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", C5_EDGES)
    code = run(["minimal", "duplicate", path, "a", "--label", "f"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f" in out.splitlines()[0]
    from solvgraph import linked_vertex_duplication, parse_edge_list, parse_graph_auto

    assert parse_graph_auto(out) == linked_vertex_duplication(parse_edge_list(C5_EDGES), "a", "f")

    # edge-list text could not carry these labels back
    for label in ("", "x y", "#x"):
        assert run(["minimal", "duplicate", path, "a", "--label", label]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--label: must be non-empty, without whitespace or '#'" in err


def test_minimal_enumerate_verb(capsys):
    assert run(["minimal", "enumerate", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    from solvgraph import cycle_graph, isomorphic, parse_graph6

    assert isomorphic(parse_graph6(lines[0]), cycle_graph("abcde"))


def test_analyze_verb(tmp_path, capsys):
    code = run(["analyze", _write(tmp_path, "o.txt", PENTAGON_ARCS)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["o"] == ["p1", "p2"] and doc["pi"] == ["p4"]
    assert doc["partition_bound"] == {"n_vertices": 5, "bound": 6, "holds": True}


def test_synthesize_and_model_verbs(tmp_path, capsys):
    code = run(["synthesize", _write(tmp_path, "o.txt", PENTAGON_ARCS)])
    plan_json = capsys.readouterr().out
    assert code == 0
    doc = json.loads(plan_json)
    assert doc["primes"] == {"p1": "2", "p2": "3", "p3": "7", "p4": "43", "p5": "13"}
    assert doc["estimated_order"] == "1009554"
    plan_path = _write(tmp_path, "plan.json", plan_json)

    assert run(["prime-graph", plan_path]) == 0
    edge_text = capsys.readouterr().out
    from solvgraph import parse_edge_list

    pg = parse_edge_list(edge_text)
    assert set(pg.vertices) == {"2", "3", "7", "43", "13"}
    assert {frozenset(e) for e in pg.edges} == {
        frozenset(p) for p in [("2", "3"), ("3", "7"), ("7", "13"), ("13", "43"), ("43", "2")]
    }

    assert run(["digraph", plan_path]) == 0
    arc_text = capsys.readouterr().out
    assert "2 > 7" in arc_text

    assert run(["verify", plan_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["digraph_matches"] and report["prime_graph_matches"]

    assert run(["sigma", plan_path]) == 0
    sigma_doc = json.loads(capsys.readouterr().out)
    assert sigma_doc["sigma"] == 2 and sigma_doc["prime_count"] == 5
    assert sigma_doc["within_triple_bound"] is True


def test_group_orders_past_the_digit_limit_are_written_in_full(tmp_path, capsys, monkeypatch):
    # a 5,000-digit order, above the 4,300 digits str() converts by default
    digits = "7" + "".join(random.Random(5000).choice("0123456789") for _ in range(4999))
    order = 0
    for at in range(0, 5000, 500):
        order = order * 10**500 + int(digits[at : at + 500])
    monkeypatch.setattr("solvgraph.synthesis.estimate_order", lambda plan: order)
    monkeypatch.setattr("solvgraph.model.estimate_order", lambda plan: order)

    assert run(["synthesize", _write(tmp_path, "o.txt", PENTAGON_ARCS)]) == 0
    plan_json = capsys.readouterr().out
    assert json.loads(plan_json)["estimated_order"] == digits
    assert run(["verify", _write(tmp_path, "plan.json", plan_json)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_order"] == digits
    assert report["digraph_matches"] and report["prime_graph_matches"]


def test_synthesize_per_arc_flag(tmp_path, capsys):
    path = _write(tmp_path, "o.txt", PENTAGON_ARCS)
    code = run(["synthesize", path, "--congruence", "per-arc"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["primes"]["p3"] == "5"

    assert run(["synthesize", "--help"]) == 0
    assert "--congruence {global,per-arc}" in capsys.readouterr().out
    assert run(["synthesize", path, "--congruence", "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'bogus'" in err


def test_prime_cap_below_2_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "o.txt", PENTAGON_ARCS)
    for cap in ("1", "0", "-5", "two"):
        assert run(["synthesize", path, f"--prime-cap={cap}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--prime-cap: must be an integer >= 2" in err


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "o.txt", PENTAGON_ARCS)
    run(["synthesize", path])
    first = capsys.readouterr().out
    run(["synthesize", path])
    assert capsys.readouterr().out == first


def test_pipeline_property_on_small_realizable_graphs(tmp_path, capsys):
    """check -> orient -> synthesize -> verify succeeds end to end."""
    import json as json_mod

    from solvgraph import emit_edge_list, enumerate_graphs, is_solvable_prime_graph

    checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if not is_solvable_prime_graph(g).realizable:
                continue
            graph_path = _write(tmp_path, "g.txt", emit_edge_list(g))
            assert run(["check", graph_path]) == 0
            capsys.readouterr()
            assert run(["orient", graph_path]) == 0
            arcs = capsys.readouterr().out
            arc_path = _write(tmp_path, "o.txt", arcs)
            assert run(["synthesize", arc_path, "--congruence", "per-arc"]) == 0
            plan_path = _write(tmp_path, "plan.json", capsys.readouterr().out)
            assert run(["verify", plan_path]) == 0
            report = json_mod.loads(capsys.readouterr().out)
            assert report["digraph_matches"] and report["prime_graph_matches"]
            checked += 1
    assert checked > 20


def test_usage_error_exit_code(capsys):
    assert run(["no-such-verb"]) == 2
    capsys.readouterr()


def test_missing_file_is_input_error(capsys):
    assert run(["check", "/nonexistent/file"]) == 2
    capsys.readouterr()


def _pentagon_plan_doc() -> dict:
    from helpers import pentagon_orientation
    from solvgraph import plan_to_json_dict, synthesize

    return plan_to_json_dict(synthesize(pentagon_orientation()))


def _run_plan_verb(tmp_path, capsys, verb, doc):
    code = run([verb, _write(tmp_path, "plan.json", json.dumps(doc))])
    out, err = capsys.readouterr()
    return code, out, err


def _assert_plan_rejected(tmp_path, capsys, doc, key_path):
    for verb in ("verify", "prime-graph", "digraph", "sigma"):
        code, out, err = _run_plan_verb(tmp_path, capsys, verb, doc)
        assert code == 2, (verb, err)
        assert out == "" and key_path in err and "Traceback" not in err


def test_plan_missing_key_is_input_error(tmp_path, capsys):
    doc = _pentagon_plan_doc()
    del doc["primes"]
    _assert_plan_rejected(tmp_path, capsys, doc, "'primes'")
    doc = _pentagon_plan_doc()
    del doc["primes"]["p3"]
    _assert_plan_rejected(tmp_path, capsys, doc, "'primes.p3'")


def test_plan_wrong_type_is_input_error(tmp_path, capsys):
    doc = _pentagon_plan_doc()
    doc["k_actions"][0]["exponent"] = "six"
    _assert_plan_rejected(tmp_path, capsys, doc, "'k_actions[0].exponent'")
    doc["k_actions"][0]["exponent"] = "--5"
    _assert_plan_rejected(tmp_path, capsys, doc, "'k_actions[0].exponent'")
    doc = _pentagon_plan_doc()
    doc["modules"]["p4"]["dimension"] = [2]
    _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.dimension'")
    _assert_plan_rejected(tmp_path, capsys, ["not", "a", "plan"], "plan")


def test_plan_non_square_matrix_is_input_error(tmp_path, capsys):
    doc = _pentagon_plan_doc()
    doc["modules"]["p4"]["actions"]["p1"] = [[0, 1]]
    _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.actions.p1'")


def test_plan_non_monomial_matrix_is_input_error(tmp_path, capsys):
    doc = _pentagon_plan_doc()
    doc["modules"]["p4"]["actions"]["p1"] = [[1, 1], [0, 1]]
    _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.actions.p1'")


def test_plan_module_dimension_is_checked_on_load(tmp_path, capsys):
    # the group order is r**dimension, so a declared dimension must be
    # checked against the matrices before any arithmetic uses it
    for dimension in (3000, 10**9):
        doc = _pentagon_plan_doc()
        doc["modules"]["p4"]["dimension"] = dimension
        _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.dimension'")
    doc = _pentagon_plan_doc()
    doc["modules"]["p4"]["actions"] = {}
    _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.actions'")
    del doc["modules"]["p4"]["actions"]
    _assert_plan_rejected(tmp_path, capsys, doc, "'modules.p4.actions'")


def test_deeply_nested_plan_is_input_error(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit is malformed input,
    not a negative verdict with a traceback."""
    path = _write(tmp_path, "plan.json", "[" * 200_000)
    for verb in ("verify", "prime-graph", "digraph", "sigma"):
        code = run([verb, path])
        out, err = capsys.readouterr()
        assert code == 2, (verb, err)
        assert out == "" and "nested too deeply" in err and "Traceback" not in err, verb
    done = _python("-m", "solvgraph.cli", "verify", path)
    assert done.returncode == 2 and b"Traceback" not in done.stderr


def test_model_verbs_refuse_invalid_plans(tmp_path, capsys):
    def refused(doc, problem):
        for verb in ("verify", "prime-graph", "digraph", "sigma"):
            code, out, err = _run_plan_verb(tmp_path, capsys, verb, doc)
            assert code == 1, verb
            assert f"invalid plan: {problem}" in err and "Traceback" not in err, verb
            if verb == "verify":
                report = json.loads(out)
                assert report["plan_valid"] is False
                assert report["digraph_matches"] is False and report["prime_graph_matches"] is False
            else:
                assert out == "", verb

    doc = _pentagon_plan_doc()
    doc["primes"]["p3"] = "11"  # breaks the global congruence (11 != 1 mod 6)
    refused(doc, "double prime 11 is not 1 mod 6")
    doc["primes"]["p1"] = "0"  # a modulus of the congruence checks
    refused(doc, "0 (vertex 'p1') is not prime")

    doc = _pentagon_plan_doc()
    doc["primes"]["p5"] = doc["primes"]["p4"]
    refused(doc, "primes are not distinct")

    doc = _pentagon_plan_doc()
    # p2 > p5 reversed: p1 > p5 > p2 > p4 is a directed 3-path
    doc["arcs"] = [[v, u] if [u, v] == ["p2", "p5"] else [u, v] for u, v in doc["arcs"]]
    refused(doc, "orientation fails validation")

    doc = _pentagon_plan_doc()
    doc["congruence"] = "bogus"
    refused(doc, "unknown congruence mode 'bogus'")

    # a single arc: the pentagon's module entries are not monomial mod 4
    from solvgraph import orientation_from_arcs, plan_to_json_dict, synthesize

    doc = plan_to_json_dict(synthesize(orientation_from_arcs("ab", [("a", "b")])))
    doc["modules"]["b"]["characteristic"] = "4"
    refused(doc, "module characteristic 4 for 'b' is not prime")


def test_plan_problems_do_not_depend_on_the_hash_seed(tmp_path):
    """Problems come in vertex order: here the global-congruence lines of
    the doubles x and y, whichever order a set of labels has."""
    from solvgraph import orientation_from_arcs, plan_to_json_dict, synthesize

    arcs = [("a", "x"), ("b", "y"), ("a", "z"), ("x", "s"), ("y", "t"), ("z", "u")]
    doc = plan_to_json_dict(synthesize(orientation_from_arcs("abxyzstu", arcs)))
    doc["primes"]["x"], doc["primes"]["y"] = "11", "5"  # both not 1 mod 2 * 3
    path = _write(tmp_path, "plan.json", json.dumps(doc))
    runs = [_python("-m", "solvgraph.cli", "verify", path, PYTHONHASHSEED=seed) for seed in "01"]
    assert [done.returncode for done in runs] == [1, 1]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.decode().splitlines()[:2] == [
        "invalid plan: double prime 11 is not 1 mod 6",
        "invalid plan: double prime 5 is not 1 mod 6",
    ]


def _python(*args: str, stdin: bytes = b"", **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        input=stdin,
        capture_output=True,
    )


def test_cli_import_leaves_numpy_out():
    """Importing the CLI loads no library module, each verb only the
    modules it runs, and nothing loads numpy, dataclasses or inspect."""
    data = ROOT / "perfbench" / "data"
    heavy = {f"solvgraph.{m}" for m in ("analysis", "minimality", "synthesis", "model", "modmat", "primes")}
    stdlib = {"dataclasses", "inspect"}

    def loaded_after(code: str) -> set[str]:
        report = (
            "import json, sys; print(json.dumps([m for m in sys.modules"
            f" if m.startswith(('solvgraph', 'numpy')) or m in {sorted(stdlib)!r}]))"
        )
        done = _python("-c", f"{code}\n{report}")
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    def loaded_by_verb(*argv: str) -> set[str]:
        return loaded_after(f"from solvgraph.cli import run; run({list(argv)!r})")

    assert loaded_after("import solvgraph.cli") == {"solvgraph", "solvgraph.errors", "solvgraph.cli"}
    check = loaded_by_verb("check", str(data / "c5.txt"))
    assert "solvgraph.realizability" in check and not check & heavy
    verify = loaded_by_verb("verify", str(data / "pentagon.plan.json"))
    assert "solvgraph.model" in verify and "solvgraph.minimality" not in verify
    synthesize = loaded_by_verb("synthesize", str(data / "pentagon.arcs"))
    assert "solvgraph.synthesis" in synthesize
    assert "solvgraph.analysis" not in synthesize | verify
    assert "numpy" not in check | verify
    library = (ROOT / "src" / "solvgraph").glob("[!_]*.py")
    every = loaded_after("".join(f"import solvgraph.{p.stem}\n" for p in library))
    assert heavy <= every
    assert not stdlib & (check | verify | synthesize | every)


def test_graph6_input_with_two_graphs_is_input_error():
    """Piping several graph6 lines into check names the second line
    instead of judging the first graph alone."""
    listing = _python("-m", "solvgraph.cli", "minimal", "enumerate", "7")
    assert listing.returncode == 0 and listing.stdout.count(b"\n") > 1
    done = _python("-m", "solvgraph.cli", "check", "-", stdin=listing.stdout)
    second = listing.stdout.index(b"\n") + 1
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == f"error: more than one graph6 line; give one graph (byte offset {second})\n".encode()


def test_stdin_is_decoded_like_files(tmp_path):
    c5 = ROOT / "perfbench" / "data" / "c5.txt"
    done = _python("-m", "solvgraph.cli", "check", "-", stdin=c5.read_bytes())
    assert done.returncode == 0
    assert done.stdout == (ROOT / "perfbench" / "golden" / "check.out").read_bytes()

    def same_error(data: bytes) -> bytes:
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        piped = _python("-m", "solvgraph.cli", "check", "-", stdin=data)
        from_file = _python("-m", "solvgraph.cli", "check", str(path))
        assert piped.returncode == from_file.returncode == 2
        assert piped.stderr == from_file.stderr
        return piped.stderr

    for data in (b"\xff\xfe a b\n", b"\xff\xfe\n"):
        assert same_error(data).startswith(b"error: 'utf-8' codec can't decode byte 0xff")
    # line ends are kept, so the offset counts both bytes of each CRLF
    assert same_error(b"a b\r\nb c\r\nc\r\n") == b"error: expected 'u v', got 'c' (byte offset 10)\n"


def test_non_ascii_graph6_line_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"# x\n\xc3\xa9D?")
    code = run(["check", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: non-ASCII byte 0xc3 in graph6 line (byte offset 4)\n"


def test_module_entry_point_runs_the_cli():
    done = _python("-m", "solvgraph.cli", "check", str(ROOT / "perfbench" / "data" / "c5.txt"))
    assert done.returncode == 0
    assert done.stdout == (ROOT / "perfbench" / "golden" / "check.out").read_bytes()


def _benchmark_cli_verbs():
    """``CLI_VERBS`` of perfbench/worker.py, evaluated from its source
    alone: importing the worker would start its timing probe."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    wanted = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("DATA", "CLI_VERBS")
    ]
    scope: dict = {}
    exec(compile(ast.Module(wanted, type_ignores=[]), "worker.py", "exec"), scope)
    return scope["CLI_VERBS"]


def test_cli_verbs_reproduce_golden_outputs(monkeypatch, capsys):
    """The benchmark's CLI calls, in-process: stdout byte-identical to
    perfbench/golden/<verb>.out and the recorded exit codes."""
    golden = ROOT / "perfbench" / "golden"
    exits = json.loads((golden / "golden.json").read_text())["cli_exit"]
    verbs = _benchmark_cli_verbs()
    assert len(verbs) == 14
    monkeypatch.chdir(ROOT)
    for verb, argv in verbs:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == exits[verb], verb
        assert out.encode() == (golden / f"{verb}.out").read_bytes(), verb


def test_record_fields_are_pinned_by_the_json_schemas():
    """The JSON documents write these records' fields as keys, in order:
    renaming or reordering a field is a schema change of its document."""
    from solvgraph.analysis import DigraphAnalysis, FittingBounds, SigmaPartitionBound
    from solvgraph.minimality import MinimalityReport, MinimalLemmaReport
    from solvgraph.realizability import GirthClassification, OrientationViolation, Violation

    pinned = {
        "check/1 violation": (Violation, ("kind", "vertices")),
        "validate/1 violations": (OrientationViolation, ("kind", "vertices")),
        "girth/1": (GirthClassification, ("status", "kind")),
        "minimal/1": (
            MinimalityReport,
            ("minimal", "failing_edge", "connectivity_ok", "nontrivial_ok"),
        ),
        "minimal/1 lemmas": (
            MinimalLemmaReport,
            (
                "complement_not_2_colorable",
                "no_complement_singletons",
                "has_induced_c5",
                "partition_classes_nonempty",
            ),
        ),
        "minimal/1 fitting_bounds": (FittingBounds, ("low", "high", "exact", "note")),
        "analysis/1": (
            DigraphAnalysis,
            ("orientation", "o_set", "d_set", "i_set", "pi_set", "phi_set")
            + ("o1_of", "o1", "o1_star", "o2", "o2_star"),
        ),
        "analysis/1 partition_bound": (SigmaPartitionBound, ("n_vertices", "bound", "holds")),
    }
    for section, (record, fields) in pinned.items():
        assert record._fields == fields, f"{record.__name__} fields changed: a schema change of {section}"


def test_json_documents_open_with_schema_and_follow_record_fields(tmp_path, capsys):
    """Every JSON verb's document opens with its schema key, and every
    section written from a record lists that record's fields in order."""
    from solvgraph.analysis import DigraphAnalysis, FittingBounds, SigmaPartitionBound
    from solvgraph.minimality import MinimalityReport, MinimalLemmaReport
    from solvgraph.realizability import GirthClassification, OrientationViolation, Violation

    c5 = _write(tmp_path, "g.txt", C5_EDGES)
    arcs = _write(tmp_path, "o.txt", PENTAGON_ARCS)
    plan = _write(tmp_path, "plan.json", json.dumps(_pentagon_plan_doc()))

    def document(name: str, *argv: str) -> dict:
        run(list(argv))
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[0] == "schema" and doc["schema"] == f"solvgraph.{name}/1", argv
        return doc

    def body(doc: dict) -> list[str]:
        return list(doc)[1:]

    document("check", "check", c5)
    document("plan", "synthesize", arcs)
    document("verify", "verify", plan)
    document("sigma", "sigma", plan)
    violation = document("check", "check", _write(tmp_path, "k3.txt", "vertices: a b c\n"))["violation"]
    assert list(violation) == list(Violation._fields)
    validate = document("validate", "validate", _write(tmp_path, "p.txt", "a > b\nb > c\nc > d\n"))
    assert list(validate["violations"][0]) == list(OrientationViolation._fields)
    assert body(document("girth", "classify-girth", c5)) == list(GirthClassification._fields)

    minimal = document("minimal", "minimal", "check", c5, "--lemmas")
    assert body(minimal) == [*MinimalityReport._fields, "lemmas", "fitting_bounds"]
    assert list(minimal["lemmas"]) == list(MinimalLemmaReport._fields)
    assert list(minimal["fitting_bounds"]) == list(FittingBounds._fields)

    analysis = document("analysis", "analyze", arcs)
    sets = [field.removesuffix("_set") for field in DigraphAnalysis._fields[1:]]
    assert body(analysis) == [*sets, "partition_bound"]
    assert list(analysis["partition_bound"]) == list(SigmaPartitionBound._fields)


def test_json_documents_do_not_depend_on_the_hash_seed(tmp_path):
    """analyze and minimal check --lemmas order their frozensets: the
    same bytes under two hash seeds."""
    from helpers import six_prime_example_graph, six_prime_example_orientation
    from solvgraph import emit_arc_list

    arcs = _write(tmp_path, "o.txt", emit_arc_list(six_prime_example_orientation()))
    graph = _write(tmp_path, "g.txt", emit_edge_list(six_prime_example_graph()))
    for argv in (["analyze", arcs], ["minimal", "check", graph, "--lemmas"]):
        runs = [_python("-m", "solvgraph.cli", *argv, PYTHONHASHSEED=seed) for seed in "01"]
        assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, argv
