"""CLI verbs: payloads, exit codes, determinism."""

from __future__ import annotations

import json

from solvgraph.cli import run

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
    code = run(["minimal", "duplicate", _write(tmp_path, "g.txt", C5_EDGES), "a", "--label", "f"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f" in out.splitlines()[0]


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


def test_synthesize_per_arc_flag(tmp_path, capsys):
    code = run(
        ["synthesize", _write(tmp_path, "o.txt", PENTAGON_ARCS), "--congruence", "per-arc"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["primes"]["p3"] == "5"


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


def test_model_verbs_refuse_invalid_plans(tmp_path, capsys):
    doc = _pentagon_plan_doc()
    doc["primes"]["p3"] = "11"  # breaks the global congruence (11 != 1 mod 6)
    for verb in ("prime-graph", "digraph", "sigma"):
        code, out, err = _run_plan_verb(tmp_path, capsys, verb, doc)
        assert code == 1 and out == "", verb
        assert "invalid plan: double prime 11 is not 1 mod 6" in err
    code, out, _ = _run_plan_verb(tmp_path, capsys, "verify", doc)
    assert code == 1 and json.loads(out)["plan_valid"] is False

    doc["primes"]["p1"] = "0"  # a modulus of the congruence checks
    for verb in ("prime-graph", "digraph", "sigma"):
        code, out, err = _run_plan_verb(tmp_path, capsys, verb, doc)
        assert code == 1 and out == "", verb
        assert "invalid plan: 0 (vertex 'p1') is not prime" in err


def test_cli_import_leaves_numpy_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, solvgraph.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
