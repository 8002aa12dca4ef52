import json
from pathlib import Path

import pytest

from twosquares.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def analytic_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"domain": ["1", "2"], "ext": {"S": ["1"], "P": ["1", "2"]}}))
    return str(path)


@pytest.fixture
def synthetic_model(tmp_path):
    path = tmp_path / "smodel.json"
    path.write_text(json.dumps({"universe": ["u"], "is": {"u": ["P"]}}))
    return str(path)


@pytest.fixture
def copula_structure(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(
        json.dumps(
            {
                "universe": ["c", "a", "b"],
                "isPrim": [["c", "a"], ["c", "b"], ["c", "c"]],
                "denote": {"S": "a", "P": "b"},
            }
        )
    )
    return str(path)


def test_eval_analytic(capsys, analytic_model):
    code, out, _ = run(
        capsys, "eval", "S a P", "--model", analytic_model, "--semantics", "analytic"
    )
    assert code == 0 and out == "true\n"


def test_eval_synthetic_json(capsys, synthetic_model):
    code, out, _ = run(capsys, "eval", "S si P", "--model", synthetic_model, "--json")
    assert code == 0
    assert json.loads(out) == {"formula": "S si P", "value": True}


def test_eval_rejects_family_mismatch(capsys, synthetic_model):
    code, _, err = run(capsys, "eval", "S a P", "--model", synthetic_model)
    assert code == 2 and "error" in err


def test_eval_derived_readings_differ(capsys, copula_structure):
    code, out, _ = run(
        capsys, "eval", "S sa P", "--model", copula_structure,
        "--reading", "derived-charitable",
    )
    assert code == 0
    charitable = out.strip()
    code, out, _ = run(
        capsys, "eval", "S sa P", "--model", copula_structure, "--reading", "derived"
    )
    assert code == 0
    # "a is S" holds charitably for the denoting witness but not literally
    assert (charitable, out.strip()) == ("true", "false")


def test_eval_missing_model_file(capsys):
    code, _, err = run(capsys, "eval", "S a P", "--model", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "S sa P", "S si P", "--bound", "3")
    assert code == 0
    assert "contrary" in out


def test_classify_analytic(capsys):
    code, out, _ = run(
        capsys, "classify", "S a P", "S e P", "--semantics", "analytic", "--bound", "3"
    )
    assert code == 0 and "contrary" in out


def test_square_passes(capsys):
    code, out, _ = run(capsys, "square", "--semantics", "synthetic", "--bound", "3")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_square_fails_with_empty_universe(capsys):
    code, out, _ = run(capsys, "square", "--allow-empty", "--bound", "2")
    assert code == 1
    assert "FAIL" in out


def test_diagram_contains_nodes_and_styled_edges(capsys):
    code, out, _ = run(capsys, "diagram", "--semantics", "synthetic", "--bound", "2")
    assert code == 0
    assert out.startswith("digraph synthetic_square {")
    assert '[label="S sa P"]' in out
    assert "style=dashed" in out and "style=dotted" in out and "dir=both" in out


def test_diagram_analytic_subalternation_arrows(capsys):
    code, out, _ = run(capsys, "diagram", "--semantics", "analytic", "--bound", "3")
    assert code == 0
    assert 'a -> i [label="subalternation-forward"' in out
    assert 'e -> o [label="subalternation-forward"' in out


def test_diagram_is_byte_stable(capsys):
    _, first, _ = run(capsys, "diagram", "--bound", "2")
    _, second, _ = run(capsys, "diagram", "--bound", "2")
    assert first == second


def test_diagram_marks_failures(capsys):
    code, out, _ = run(capsys, "diagram", "--allow-empty", "--bound", "2")
    assert code == 1
    assert "color=red" in out and "witness" in out


def test_prove_ok(capsys, tmp_path):
    script = tmp_path / "t01.proof"
    script.write_text(
        "1. (S so P -> ~(S sa P)) & (~(S sa P) -> S so P) ; def-o S P\n"
        "2. ((S so P -> ~(S sa P)) & (~(S sa P) -> S so P)) -> (S sa P -> ~(S so P)) ; taut\n"
        "3. S sa P -> ~(S so P) ; mp 1 2\n"
    )
    code, out, _ = run(capsys, "prove", str(script), "--axioms", "a5,def")
    assert code == 0 and out.startswith("ok")


def test_prove_rejected(capsys, tmp_path):
    script = tmp_path / "bad.proof"
    script.write_text("1. S sa P -> S si P ; axiom5 S:=S P:=P\n")
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 1 and "rejected at line 1" in out


def test_prove_unknown_axiom_source(capsys, tmp_path):
    script = tmp_path / "t.proof"
    script.write_text("1. S sa P -> S se P ; axiom5 S:=S P:=P\n")
    code, _, err = run(capsys, "prove", str(script), "--axioms", "a9")
    assert code == 2 and "unknown axiom source" in err


def test_verify_paper_text(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_paper_bad_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-paper", "--bound", "99")
    assert code == 2 and "error" in err


def test_verify_paper_small_bound_marks_a8_inconclusive(capsys):
    code, out, _ = run(capsys, "verify-paper", "--bound", "1", "--atoms", "1")
    assert code == 1  # the A8 expectation cannot be met at bound 1
    assert "[ ?? ] A8" in out


def test_verify_paper_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--json", "--out", str(out_path))
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert report["bounds"] == {"model_bound": 3, "atom_count": 2}


@pytest.mark.parametrize(
    "model, text, options, code, output",
    [
        # The left disjunct decides the analytic formula; X is never looked up.
        ({"domain": ["1"], "ext": {"S": ["1"], "P": ["1"]}}, "S a P | X a Y",
         ("--semantics", "analytic"), 0, "true"),
        ({"domain": ["1"], "ext": {"S": ["1"], "P": ["1"]}}, "X a Y | S a P",
         ("--semantics", "analytic"), 2, "term 'X' has no extent"),
        # Nothing is S literally here, so the unknown right disjunct is reached.
        ({"universe": ["u", "v"], "isPrim": [["u", "u"], ["u", "v"]],
          "denote": {"S": "u", "P": "v"}}, "S sa P | X sa Y",
         ("--reading", "derived"), 2, "term 'X' has no denotation"),
        ({"universe": ["u"], "isPrim": [["u", "u"]], "denote": {"S": "u", "P": "u"}},
         "S sa P | X sa Y", ("--reading", "derived"), 0, "true"),
    ],
    ids=["analytic-left-decides", "analytic-unknown-first", "derived-unknown-reached",
         "derived-left-decides"],
)
def test_eval_short_circuits_before_unknown_terms(
    capsys, tmp_path, model, text, options, code, output
):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    got_code, out, err = run(capsys, "eval", text, "--model", str(path), *options)
    assert got_code == code
    assert output in (out if code == 0 else err)


@pytest.mark.parametrize(
    "model, options, message",
    [
        ([{"domain": ["1"]}], ("--semantics", "analytic"), "must be a JSON object"),
        ({"ext": {"S": ["1"]}}, ("--semantics", "analytic"), "lacks 'domain'"),
        ({"universe": ["u"], "is": {"u": "PM"}}, (), "must be a list of strings"),
        ({"universe": ["u", "u"]}, (), "repeats an entry"),
        ({"universe": ["u", "v"], "isPrim": ["uv"], "denote": {"S": "u", "P": "v"}},
         ("--reading", "derived"), "isPrim entry must be a list of strings"),
    ],
    ids=["json-list", "missing-domain", "terms-as-string", "duplicate-individual",
         "prim-entry-not-a-pair"],
)
def test_eval_rejects_malformed_model_files(capsys, tmp_path, model, options, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "eval", "S sa P", "--model", str(path), *options)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# Output of `python -m twosquares <argv>`, pinned byte for byte so that a
# changed verdict or witness shows up as a failure, not only run-to-run drift.
GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden, argv, code",
    [
        ("verify_paper_b3_a2.json", ("verify-paper", "--json", "--bound", "3", "--atoms", "2"), 0),
        ("verify_paper_b4_a3.json", ("verify-paper", "--json", "--bound", "4", "--atoms", "3"), 0),
        ("square_derived_b2.json", ("square", "--reading", "derived", "--bound", "2", "--json"), 1),
        ("square_derived_charitable_b2.json",
         ("square", "--reading", "derived-charitable", "--bound", "2", "--json"), 1),
        ("square_derived_b3.json", ("square", "--reading", "derived", "--bound", "3", "--json"), 1),
        ("square_derived_charitable_b3.json",
         ("square", "--reading", "derived-charitable", "--bound", "3", "--json"), 1),
    ],
)
def test_output_matches_golden_bytes(capsys, golden, argv, code):
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
