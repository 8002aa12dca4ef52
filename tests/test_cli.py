import ast
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import analytic, commands, report, synthetic
from oracles import build_parser
from twosquares.cli import main, parse_args
from twosquares.errors import BoundError, InputError
from twosquares.formula import _MAX_DEPTH, Copula
from twosquares.proofscript import bundled_theorem_scripts
from twosquares.starb import MAX_ATOMS
from twosquares.synthetic import DIRECT_EMPTY_OK, DIRECT_NONEMPTY, MAX_UNIVERSE_DIRECT, Reading


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


def test_a_cold_verify_paper_loads_no_class_building_modules():
    """The import layer: neither importing the CLI nor running it pulls
    in `dataclasses`, `typing` or what `dataclasses` imports, nor
    `argparse` or what argparse loads to translate and lay out its
    messages (`gettext`, `locale`, `shutil`)."""
    script = (
        "import contextlib, io, sys\n"
        "import twosquares.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify-paper', '--json']) == 0\n"
        "print(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'typing', 'ast', 'dis',\n"
        "                                 'argparse', 'gettext', 'locale', 'shutil'}))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# the modules `import twosquares.cli` loads, and what each command adds to them
IMPORTED = ("cli", "errors", "formula", "record", "search", "synthetic")
HANDLERS = ("analytic", "commands", "opposition")  # what the handlers in `commands` load
# the lines of the modules a default `verify-paper --json` loads, so that code
# added to that path shows; a deliberate change to the path updates it here
VERIFY_PAPER_LINES = 2583


@pytest.mark.parametrize(
    "argv, added",
    [
        (None, ()),
        (["eval", "S si P", "--model", "MODEL"], HANDLERS),
        (["eval", "S sa P", "--model", "STRUCTURE", "--reading", "derived"], (*HANDLERS, "copula")),
        (["classify", "S sa P", "S so P"], HANDLERS),
        (["classify", "S sa P", "S si P", "--reading", "derived-charitable"], (*HANDLERS, "copula")),
        (["square"], HANDLERS),
        (["square", "--json"], HANDLERS),
        (["diagram"], HANDLERS),
        (["prove", "SCRIPT"], (*HANDLERS, "proofs", "proofscript")),
        (["verify-paper", "--json"],
         ("analytic", "opposition", "proofs", "report", "starb")),
    ],
    ids=["import", "eval", "eval-derived", "classify", "classify-derived-charitable", "square",
         "square-json", "diagram", "prove", "verify-paper"],
)
def test_each_command_loads_only_the_modules_it_runs(
    synthetic_model, copula_structure, tmp_path, argv, added
):
    """Each command loads exactly the `twosquares` modules it runs: the
    derived readings (`copula`) only under a derived reading, the other
    commands' handlers (`commands`) and the proof-script format
    (`proofscript`) never for `verify-paper`, which alone loads the report
    and the carrier."""
    script_path = tmp_path / "t01.proof"
    script_path.write_text(bundled_theorem_scripts()["T01"])
    files = {"MODEL": synthetic_model, "STRUCTURE": copula_structure, "SCRIPT": str(script_path)}
    run_argv = [files.get(a, a) for a in argv or ()]
    script = (
        "import contextlib, io, json, sys\n"
        "import twosquares.cli as cli\n"
        f"if {run_argv!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main({run_argv!r}) == 0\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'twosquares')\n"
        "lines = sum(sum(1 for _ in open(sys.modules[m].__file__, 'rb')) for m in mods)\n"
        "print(json.dumps([mods, lines]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    modules, lines = json.loads(done.stdout)
    assert modules == ["twosquares"] + sorted(f"twosquares.{m}" for m in IMPORTED + added)
    if argv == ["verify-paper", "--json"]:
        assert lines == VERIFY_PAPER_LINES


def test_prove_axioms_default_and_help_name_every_rule_source():
    """`cli` states the rule sources as literals, so that it need not load
    `proofs`; they must be the names `proofs.SOURCES` accepts."""
    from twosquares import proofs
    from twosquares.cli import _COMMANDS

    names = ",".join(sorted(proofs.SOURCES))
    (option,) = [o for o in _COMMANDS["prove"][3] if o[0] == "--axioms"]
    assert option[3] == names
    assert option[4] == f"comma list from {names} (default: all)"


def test_every_function_the_benchmark_tracer_rebinds_resolves():
    """`perfbench/tracer.py` rebinds these names by lookup; a renamed or
    removed one would otherwise break only the traced benchmark run."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    targets = next(
        node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    )
    pairs = [(module, function) for module, function, _, _ in ast.literal_eval(targets)]
    assert ("starb", "verify_two_squares") in pairs
    for module, function in pairs:
        assert callable(getattr(importlib.import_module(f"twosquares.{module}"), function, None)), (
            module, function
        )


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parent.parent / "src" / "twosquares").glob("*.py")),
    ids=lambda path: path.name,
)
def test_each_module_reads_every_name_it_imports(path):
    """Every name a module imports is read in it, so that each name has
    one import path: the module that defines it, not a re-export."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


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


def test_classify_prints_copula_structure_witnesses(capsys):
    # the one output that prints CopulaStructure.summary
    code, out, _ = run(capsys, "classify", "S sa P", "S si P", "--reading", "derived-charitable")
    assert code == 0
    assert out == (
        "S sa P  /  S si P: contrary (bound 3)\n"
        "  both_false: U={u}; prim={}; P->u,S->u\n"
        "  first_only: U={u}; prim={(u,u)}; P->u,S->u\n"
    )


def test_classify_analytic(capsys):
    code, out, _ = run(
        capsys, "classify", "S a P", "S e P", "--semantics", "analytic", "--bound", "3"
    )
    assert code == 0 and "contrary" in out
    code, out, _ = run(
        capsys, "classify", "S a P", "S i P", "--semantics", "analytic", "--import", "off", "--json"
    )
    assert code == 0 and json.loads(out)["semantics"] == "analytic(import=off)"


def test_square_passes(capsys):
    code, out, _ = run(capsys, "square", "--semantics", "synthetic", "--bound", "3")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_square_fails_with_empty_universe(capsys):
    code, out, _ = run(capsys, "square", "--allow-empty", "--bound", "2")
    assert code == 1
    assert "FAIL" in out
    # so does the analytic square without existential import, and its header says so
    code, out, _ = run(capsys, "square", "--semantics", "analytic", "--import", "off")
    assert code == 1
    assert out.splitlines()[0] == "analytic square (analytic(import=off), bound 3)"


@pytest.mark.parametrize("reading", ["direct", "derived"])
def test_square_refuses_bound_0_with_a_nonempty_universe(capsys, reading):
    # bound 0 with the empty universe disallowed would search no model at all
    code, out, err = run(capsys, "square", "--bound", "0", "--reading", reading)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["square"], ["classify", "S sa P", "S si P"]], ids=str)
@pytest.mark.parametrize("reading", ["derived", "derived-charitable"])
def test_derived_bound_0_is_refused_even_with_the_empty_universe(capsys, command, reading):
    # a copula structure needs an individual to denote its terms
    argv = [*command, "--bound", "0", "--allow-empty", "--reading", reading]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: universe bound 0 outside 1..3 for {reading}\n"


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


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--bound", "0", "universe bound 0 outside 1..4 for direct"),
        ("--bound", "5", "universe bound 5 outside 1..4 for direct"),
        ("--atoms", "0", "atom count 0 outside 1..4"),
        ("--atoms", "5", "atom count 5 outside 1..4"),
    ],
)
def test_verify_paper_refuses_bounds_outside_their_range(option, value, message):
    # through `python -m twosquares`, so `__main__` and the script entry run too
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "twosquares", "verify-paper", option, value]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_verify_paper_small_bound_marks_a8_inconclusive(capsys):
    code, out, _ = run(capsys, "verify-paper", "--bound", "1", "--atoms", "1")
    assert code == 1  # the A8 expectation cannot be met at bound 1
    assert "[ ?? ] A8" in out
    # the JSON row, which no golden report holds
    code, out, _ = run(capsys, "verify-paper", "--json", "--bound", "1", "--atoms", "1")
    (row,) = [r for r in json.loads(out)["sections"]["theorem_catalog"]["entries"] if r["id"] == "A8"]
    assert code == 1
    assert (row["met"], row["status"]) == ("inconclusive", "no counterexample found up to bound 1")


def test_catalog_rows_name_the_semantics_they_ran_under(capsys):
    # the catalog runs on nonempty universes; the T19 boundary row admits the empty one
    code, out, _ = run(capsys, "verify-paper", "--json", "--bound", "2", "--atoms", "1")
    catalog = json.loads(out)["sections"]["theorem_catalog"]
    assert {row["semantics"] for row in catalog["entries"]} == {"synthetic(direct, nonempty)"}
    boundary = catalog["empty_universe_boundary"]
    assert boundary["semantics"] == "synthetic(direct, empty-allowed)"
    assert boundary["witness"]["universe"] == []


@pytest.mark.parametrize("bound, atoms", [(3, 2), (4, 3)])
def test_verify_paper_decides_each_claim_once(monkeypatch, bound, atoms):
    # the catalog's 23 distinct formulas (T13 and A5 are one) under the
    # nonempty reading, T19 alone with the empty universe allowed, and
    # the analytic subalternation; the derivation rows reuse the
    # catalog's verdicts
    decisions = Counter()
    synthetic_decide = synthetic.decide_synthetic_validity
    analytic_decide = analytic.decide_analytic_validity

    def count_synthetic(f, bound, opts):
        decisions[opts] += 1
        return synthetic_decide(f, bound, opts)

    def count_analytic(f, bound, existential_import):
        decisions["analytic"] += 1
        return analytic_decide(f, bound, existential_import)

    monkeypatch.setattr(synthetic, "decide_synthetic_validity", count_synthetic)
    monkeypatch.setattr(analytic, "decide_analytic_validity", count_analytic)
    assert report.run_verify_paper(bound, atoms)["pass"]
    assert decisions == {DIRECT_NONEMPTY: 23, DIRECT_EMPTY_OK: 1, "analytic": 1}


# the expectation rows each `verify-paper` section writes, by id prefix, in section order
SECTION_ROW_PREFIXES = {
    "analytic_square": ("analytic-",),
    "synthetic_square": ("synthetic-square",),
    "theorem_catalog": ("T", "A", "catalog-"),
    "case_sweep": ("case-sweep", "inf-sup-standard"),
    "proposition1": ("proposition1-", "prop1-"),
    "matrix_properties": ("matrix-",),
    "bridge_models": ("bridge-",),
    "derivations": ("derivations-",),
}


# the names the sections call in `report`, each with the sections that call it
SECTION_CALLS = {
    "analytic_square": ("analytic_square",),
    "synthetic_square": ("synthetic_square",),
    "run_catalog": ("theorem_catalog", "derivations"),
    "case_analysis": ("case_sweep",),
    "verify_two_squares": ("proposition1",),
    "matrix_properties": ("matrix_properties",),
    "bridge_tables": ("bridge_models",),
    "bundled_theorem_derivations": ("derivations",),
}


@pytest.fixture(scope="module")
def whole_report():
    return report.run_verify_paper(3, 1)


@pytest.mark.parametrize("call", SECTION_CALLS)
def test_a_failed_call_marks_each_section_that_makes_it(monkeypatch, whole_report, call):
    """A section whose call raises reads as its error, with one failed row in
    place of its rows; every other section and row is the unpatched report's."""
    failing = SECTION_CALLS[call]
    rows = {name: [] for name in SECTION_ROW_PREFIXES}
    for row in whole_report["expectations"]:
        owner = next(n for n, ids in SECTION_ROW_PREFIXES.items() if row["id"].startswith(ids))
        rows[owner].append(row)
    assert whole_report["pass"] is True and all(rows.values())
    assert [row for name in rows for row in rows[name]] == whole_report["expectations"]

    def refuse(*args):
        raise BoundError(f"{call} refused")

    monkeypatch.setattr(report, call, refuse)
    result = report.run_verify_paper(3, 1)
    error = {"error": f"{call} refused"}
    assert list(result["sections"]) == list(whole_report["sections"]) == list(rows)
    assert result["sections"] == {
        name: error if name in failing else section
        for name, section in whole_report["sections"].items()
    }
    marker = {name: [{"id": f"section-{name}", "description": f"section {name} completed",
                      "status": "failed"}] for name in failing}
    assert result["expectations"] == [row for name in rows for row in marker.get(name, rows[name])]
    assert result["pass"] is False
    assert {k: v for k, v in result.items() if k not in ("sections", "expectations", "pass")} == {
        k: v for k, v in whole_report.items() if k not in ("sections", "expectations", "pass")
    }


def test_verify_paper_builds_one_algebra_for_the_case_and_bridge_sections(monkeypatch):
    seen = []

    def recording(run):
        def wrapper(algebra):
            seen.append(algebra)
            return run(algebra)
        return wrapper

    monkeypatch.setattr(report, "case_analysis", recording(report.case_analysis))
    monkeypatch.setattr(report, "bridge_tables", recording(report.bridge_tables))
    result = report.run_verify_paper(1, 2)
    assert len(seen) == 2 and seen[0] is seen[1] and seen[0].atom_count == 2
    assert result["sections"]["case_sweep"]["atom_count"] == 2
    assert result["sections"]["bridge_models"]["atom_count"] == 2


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
        ("[" * 100_000, (), "nests too deeply"),
        ({"ext": {"S": ["1"]}}, ("--semantics", "analytic"), "lacks 'domain'"),
        ({"universe": ["u"], "is": {"u": "PM"}}, (), "must be a list of strings"),
        ({"universe": ["u", "u"]}, (), "repeats an entry"),
        ({"universe": ["u", "v"], "isPrim": ["uv"], "denote": {"S": "u", "P": "v"}},
         ("--reading", "derived"), "isPrim entry must be a list of strings"),
        ({"universe": ["u", "v"], "isPrim": [["u", "v", "u"]], "denote": {"S": "u", "P": "v"}},
         ("--reading", "derived"), "isPrim must be a list of [individual, individual] pairs"),
        ({"universe": ["u", "v"], "isPrim": [["u", "w"]], "denote": {"S": "u", "P": "v"}},
         ("--reading", "derived"), "primitive pair ('u', 'w') outside the universe"),
        ({"universe": ["u"], "isPrim": [], "denote": {"S": "w", "P": "u"}},
         ("--reading", "derived"), "denotation of 'S' outside the universe"),
        ({"universe": ["u"], "is": {"w": ["S"]}}, (), "individual 'w' outside the universe"),
        ({"domain": ["1"], "ext": [["S", "1"]]}, ("--semantics", "analytic"),
         "ext must be a JSON object"),
        ({"domain": ["1"], "ext": {"S": "1"}}, ("--semantics", "analytic"),
         "extent of 'S' must be a list of strings"),
        ({"domain": ["1", "1"], "ext": {}}, ("--semantics", "analytic"), "domain repeats an entry"),
        ({"domain": ["1"], "ext": {"P": ["1"], "S": ["2"]}}, ("--semantics", "analytic"),
         "extent of 'S' leaves the domain"),
    ],
    ids=["json-list", "deeply-nested", "missing-domain", "terms-as-string",
         "duplicate-individual", "prim-entry-not-a-pair", "prim-entry-of-three",
         "prim-pair-outside-universe", "denotation-outside-universe",
         "individual-outside-universe", "ext-not-an-object", "extent-not-a-list",
         "duplicate-domain-entry", "extent-outside-domain"],
)
def test_eval_rejects_malformed_model_files(capsys, tmp_path, model, options, message):
    path = tmp_path / "model.json"
    path.write_text(model if isinstance(model, str) else json.dumps(model))
    code, out, err = run(capsys, "eval", "S sa P", "--model", str(path), *options)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, data, message",
    [
        (("eval", "S sa P", "--model"), b'{"universe": ["\xff"]}', "model file {!r} is not UTF-8 JSON: "
         "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (("eval", "S sa P", "--model"), b"",
         "model file {!r} is not UTF-8 JSON: Expecting value: line 1 column 1 (char 0)"),
        (("prove",), b"1. S sa P ; taut\n\xff", "proof script {!r} is not UTF-8"),
    ],
    ids=["model-not-utf8", "model-not-json", "script-not-utf8"],
)
def test_an_unreadable_input_file_is_named_in_its_error(capsys, tmp_path, command, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert run(capsys, *command, str(path)) == (2, "", f"error: {message.format(str(path))}\n")


@pytest.mark.parametrize("error", [InputError("bad input"), OSError("no disk")], ids=["package", "os"])
def test_exit_2_reports_an_error_of_the_package_or_the_system(capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(commands, "run_square", fail)
    assert run(capsys, "square") == (2, "", f"error: {error}\n")


def test_any_other_error_escapes_as_a_fault(monkeypatch):
    def fail(args):
        raise ValueError("a fault, not an input error")

    monkeypatch.setattr(commands, "run_square", fail)
    with pytest.raises(ValueError, match="^a fault, not an input error$"):
        main(["square"])


KINDS = ["(", "~", "&", "|", "->"]
KIND_IDS = ["paren", "not", "and", "or", "implies"]


def nested(kind, levels):
    """A formula of `levels` nesting levels of one kind over one atom."""
    atom = "S sa P"
    if kind == "(":
        return "(" * levels + atom + ")" * levels
    if kind == "~":
        return "~" * levels + atom
    return f" {kind} ".join([atom] * (levels + 1))


@pytest.mark.parametrize("command", ["eval", "classify", "prove"])
@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("past", [0, 1], ids=["at-limit", "past-limit"])
def test_formula_nesting_is_evaluated_up_to_the_limit_and_refused_past_it(
    capsys, tmp_path, synthetic_model, command, kind, past
):
    text = nested(kind, _MAX_DEPTH + past)
    script = tmp_path / "deep.proof"
    script.write_text(f"1. {text} ; taut\n")
    argv = {
        "eval": ["eval", text, "--model", synthetic_model, "--json"],
        "classify": ["classify", text, "S so P", "--json"],
        "prove": ["prove", str(script), "--json"],
    }[command]
    code, out, err = run(capsys, *argv)
    if past:
        assert code == 2 and out == "" and "formula nesting too deep" in err
    else:
        # a tautology only as a chain of implications
        assert code == (1 if command == "prove" and kind != "->" else 0), err
        assert err == ""


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_formula_nesting_far_past_the_limit_is_refused(capsys, synthetic_model, kind):
    code, out, err = run(capsys, "eval", nested(kind, 5000), "--model", synthetic_model)
    assert code == 2 and out == "" and err.startswith("error: formula nesting too deep")


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
        ("verify_paper_b4_a4.json", ("verify-paper", "--json", "--bound", "4", "--atoms", "4"), 0),
        ("diagram_synthetic_b3.dot", ("diagram", "--bound", "3"), 0),
        ("diagram_analytic_b4.dot", ("diagram", "--semantics", "analytic", "--bound", "4"), 0),
        ("diagram_empty_b2.dot", ("diagram", "--allow-empty", "--bound", "2"), 1),  # red edges with witnesses
        ("diagram_derived_charitable_b3.dot",
         ("diagram", "--reading", "derived-charitable", "--bound", "3"), 1),
    ],
)
def test_output_matches_golden_bytes(capsys, golden, argv, code):
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_verify_paper_output_matches_recorded_digests(capsys):
    """The text and `--json` output of `verify-paper` at every bound and
    atom count, pinned by SHA-256 next to the exit code.  The digest file
    holds `got` below, dumped with `json.dumps(got, indent=2)`, from a
    commit whose output is known good."""
    got = {}
    for bound, atoms in itertools.product(range(1, 5), repeat=2):
        argv = ("verify-paper", "--bound", str(bound), "--atoms", str(atoms))
        code, text, text_err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--json")
        assert (json_code, text_err, json_err) == (code, "", "")
        got[" ".join(argv[1:])] = {
            "exit_code": code,
            "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "json_sha256": hashlib.sha256(out.encode()).hexdigest(),
        }
    assert got == json.loads((GOLDEN / "verify_paper_digests.json").read_text())


# --- fuzzing the command line -------------------------------------------------

def formulas(copulas):
    """Formula texts over S, P and, less often, M with the given copulas."""
    terms = st.sampled_from(["S", "P", "S", "P", "M"])
    atoms = st.builds("{} {} {}".format, terms, st.sampled_from(copulas), terms)
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            inner.map("~({})".format),
            st.builds("({} {} {})".format, inner, st.sampled_from(["&", "|", "->"]), inner),
        ),
        max_leaves=4,
    )


FORMULAS = st.one_of(
    formulas([c.value for c in Copula if c.analytic]),
    formulas([c.value for c in Copula if c.synthetic]),
    formulas([c.value for c in Copula]),
    st.text(alphabet="SPM aeiso~&|()->", max_size=12),
)
NAMES = st.sampled_from(["1", "2", "u", "v", "S", "P", "PM"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["domain", "ext", "universe", "is", "isPrim", "denote", "S", "P", "u"]),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)
MODELS = st.one_of(
    JSON,
    st.builds(
        lambda domain, s, p: {"domain": domain, "ext": {"S": s, "P": p}},
        st.just(["1", "2"]), st.lists(st.sampled_from(["1", "2"]), unique=True),
        st.lists(st.sampled_from(["1", "2"]), unique=True),
    ),
    st.builds(
        lambda facts: {"universe": ["u", "v"], "is": facts},
        st.dictionaries(st.sampled_from(["u", "v"]), st.lists(st.sampled_from(["S", "P", "M"]))),
    ),
    st.builds(
        lambda prim, s, p: {"universe": ["u", "v"], "isPrim": prim, "denote": {"S": s, "P": p}},
        st.lists(st.lists(st.sampled_from(["u", "v"]), min_size=2, max_size=2), max_size=4),
        st.sampled_from(["u", "v"]), st.sampled_from(["u", "v"]),
    ),
)
SEMANTICS_FLAGS = st.builds(
    lambda semantics, imp, reading, empty, json_flag: [
        "--semantics", semantics, "--import", imp, "--reading", reading,
        *(["--allow-empty"] if empty else []), *(["--json"] if json_flag else []),
    ],
    st.sampled_from(["analytic", "synthetic"]), st.sampled_from(["on", "off"]),
    st.sampled_from([r.value for r in Reading]), st.booleans(), st.booleans(),
)
MODEL_FILES = st.one_of(
    MODELS.map(lambda model: json.dumps(model).encode()),
    MODELS.map(lambda model: b"\xff" + json.dumps(model).encode()),  # not UTF-8
    st.binary(max_size=6),
)
BOUNDS = st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["x", "", "3.5"]))
# line numbers: decimal ones, other scripts' decimal digits, digits that are not
# decimal, and more digits than `int` reads
NUMBERS = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["\u0661", "\u00b2", "1\u00b2", "9" * 5000]))
SCRIPTS = st.one_of(
    st.sampled_from(sorted(bundled_theorem_scripts().values())),
    st.lists(st.builds("{}. {} ; {}".format, NUMBERS, FORMULAS, st.one_of(
        st.sampled_from(["taut", "def-o S P", "axiom5 S:=S P:=P"]), st.builds("mp {} {}".format, NUMBERS, NUMBERS)
    )), max_size=3).map("\n".join),
)
SCRIPT_FILES = st.one_of(SCRIPTS.map(str.encode), SCRIPTS.map(lambda text: text.encode() + b"\xff"))


@st.composite
def command_lines(draw, folder, commands=("eval", "classify", "square", "diagram", "prove", "verify-paper")):
    command = draw(st.sampled_from(commands))
    if command == "eval":
        model = folder / "model.json"
        model.write_bytes(draw(MODEL_FILES))
        return ["eval", draw(FORMULAS), "--model", str(model), *draw(SEMANTICS_FLAGS)]
    if command == "classify":
        return ["classify", draw(FORMULAS), draw(FORMULAS), "--bound", draw(BOUNDS),
                *draw(SEMANTICS_FLAGS)]
    if command in ("square", "diagram"):
        flags = [f for f in draw(SEMANTICS_FLAGS) if command == "square" or f != "--json"]
        return [command, "--bound", draw(BOUNDS), *flags]
    if command == "prove":
        script = folder / "script.proof"
        script.write_bytes(draw(SCRIPT_FILES))
        axioms = draw(st.sampled_from(["a5,a6,a7,a8,def", "a5,def", "a6", "a9", ""]))
        return ["prove", str(script), "--axioms", axioms]
    return ["verify-paper", "--bound", draw(BOUNDS), "--atoms", draw(st.integers(0, 4).map(str))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_codes_under_fuzzing(tmp_path_factory, data):
    check_exit_code(data.draw(command_lines(tmp_path_factory.mktemp("fuzz"))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_reading_exit_codes_under_fuzzing(tmp_path_factory, data):
    """The commands that read a file, more often: its bytes, and its line numbers."""
    check_exit_code(data.draw(command_lines(tmp_path_factory.mktemp("fuzz"), ("eval", "prove"))))


def check_exit_code(argv):
    """`main(argv)` exits 0, 1 or 2 without a traceback; only the commands
    with an expectation exit 1.  Any exception but the package's errors and
    `OSError` escapes `main` and fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert code != 1 or argv[0] in ("square", "diagram", "prove", "verify-paper"), argv


# --- the command-line table against the argparse parser ------------------------

def parsed(argv):
    """What `parse_args` makes of `argv`: ("args", values) or ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        got = parse_args(list(argv))
    return ("exit", got) if isinstance(got, int) else ("args", vars(got))


def reference(argv):
    """What the argparse parser in `oracles` makes of `argv`, in the same form."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return ("args", vars(build_parser().parse_args(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code)


SEMANTICS_OPTIONS = ("--semantics", "--import", "--reading", "--allow-empty")
OPTIONS = {
    "eval": ("--model", *SEMANTICS_OPTIONS, "--json", "--out"),
    "classify": (*SEMANTICS_OPTIONS, "--bound", "--json", "--out"),
    "square": (*SEMANTICS_OPTIONS, "--bound", "--json", "--out"),
    "diagram": (*SEMANTICS_OPTIONS, "--bound", "--out"),
    "prove": ("--axioms", "--json", "--out"),
    "verify-paper": ("--bound", "--atoms", "--json", "--out"),
}
POSITIONALS = {"eval": 1, "classify": 2, "prove": 1}
INTEGERS = (["3", "0", "4", "-1", " 2"], ["-7", "x", "", "3.5", "--json"])
VALUES = {  # the valid values of each option, and others
    "--model": (["model.json", "S sa P"], ["", "--json"]),
    "--semantics": (["analytic", "synthetic"], ["modal", ""]),
    "--import": (["on", "off"], ["yes"]),
    "--reading": ([r.value for r in Reading], ["derived-literal"]),
    "--bound": INTEGERS,
    "--atoms": INTEGERS,
    "--axioms": (["a5,def", "a9"], [""]),
    "--out": (["report.json", "-3"], ["", "--json", "-x"]),
}
FLAGS = ("--allow-empty", "--json")
FORMULA_TEXTS = st.sampled_from(
    ["S sa P", "S si P", "~(S a P)", "S", "", "-3", "-> S si P", "-x", "eval"]
)
UNKNOWN = st.sampled_from(
    ["--frobnicate", "--frobnicate=1", "-x", "--model", "--bound=3", "--atoms"]
)
HELP = st.sampled_from(["-h", "--help", "--he", "--h", "-hh", "--help=x"])


def sometimes(strategy, odds):
    """`strategy`'s value as a one-item list, or an empty list `odds` times as often."""
    one = strategy.map(lambda value: [value])
    return st.integers(0, odds).flatmap(lambda n: one if n == 0 else st.just([]))


@st.composite
def option_words(draw, name):
    """`name` with its value: in full or by a unique prefix, apart or
    joined by `=`; now and then with the ambiguous empty prefix, with the
    value missing, or with a value it refuses."""
    spelled = draw(st.sampled_from([name, name[:draw(st.integers(3, len(name)))]]))
    if name in FLAGS:
        return draw(st.sampled_from([[spelled]] * 6 + [[f"{spelled}=1"], [f"{spelled}="]]))
    valid, invalid = VALUES[name]
    value = draw(st.sampled_from(valid * 4 + invalid))
    return draw(st.sampled_from(
        [[spelled, value]] * 4 + [[f"{spelled}={value}"]] * 3 + [[f"--={value}"], [spelled]]
    ))


@st.composite
def argument_vectors(draw):
    """An argv around a known or an unknown command: its options, valid
    and not, its positionals, one too few or one too many, and now and
    then an unknown option, a help request or an option before the command."""
    command = draw(st.sampled_from([*OPTIONS, "verify", "evaluate"]))
    names = OPTIONS.get(command, ("--json",))
    chosen = draw(st.lists(st.sampled_from(names), max_size=4))
    pieces = [draw(option_words(name)) for name in chosen]
    count = POSITIONALS.get(command, 0) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    pieces += [[draw(FORMULA_TEXTS)] for _ in range(max(count, 0))]
    pieces += [draw(sometimes(UNKNOWN, 6)), draw(sometimes(HELP, 9))]
    lead = draw(sometimes(st.sampled_from(["--json", "-h", "--he", "--help=x"]), 9))
    named = [command] if draw(st.integers(0, 19)) else []
    return [*lead, *named, *itertools.chain(*draw(st.permutations(pieces)))]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=argument_vectors())
def test_parser_matches_the_argparse_reference(argv):
    """Either both parsers accept `argv` with the same values, or both
    refuse it with the same exit code: 2 for a usage error, 0 for help.
    Messages are not compared, since argparse words them differently
    from one Python version to the next."""
    assert parsed(argv) == reference(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "-h", "--=x"],  # an ambiguous option is refused before any is read
        ["verify-paper", "--out", "--json"],  # a value that reads as an option is missing
        ["eval", "S sa P", "--model", "--json"],
        ["eval", "--model", "-> S si P", "-3"],  # a word with a space or a negative number
        ["classify", "-1", "-.5", "--bound", "-0"],
        ["verify-paper", "--json", "--json", "--bound", "1", "--bound", "2"],  # the last one wins
        ["--frobnicate", "verify-paper", "-hh"],  # help before the unknown option is reported
        ["--help=x", "verify-paper"],
        ["verify-paper", "--atoms", "x", "-h"],  # a refused value before the help request
        ["prove", "--axioms=", "t01.proof", "--out="],
    ],
    ids=str,
)
def test_parser_matches_the_argparse_reference_on_edge_cases(argv):
    assert parsed(argv) == reference(argv), argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify-paper", "--b", "1", "--a", "1"],
         {"command": "verify-paper", "bound": 1, "atoms": 1, "json": False, "out": None}),
        (["verify-paper", "--bound=4"],
         {"command": "verify-paper", "bound": 4, "atoms": 2, "json": False, "out": None}),
        (["classify", "--bound", "-1", "S sa P", "--reading=derived", "S si P", "--bound", "2"],
         {"command": "classify", "first": "S sa P", "second": "S si P", "semantics": "synthetic",
          "existential_import": "on", "reading": "derived", "allow_empty": False, "bound": 2,
          "json": False, "out": None}),
    ],
    ids=["prefixes", "joined-value", "mixed-order"],
)
def test_the_table_reads_prefixes_joined_values_and_any_order(argv, expected):
    assert parsed(argv) == reference(argv) == ("args", expected)


def test_prefixed_options_run_as_the_full_ones(capsys):
    assert run(capsys, "verify-paper", "--b", "1", "--a", "1") == run(
        capsys, "verify-paper", "--bound", "1", "--atoms", "1"
    )
    code, out, err = run(capsys, "verify-paper", "--b", "1", "--a", "1")
    assert (code, err) == (1, "") and "[ ?? ] A8" in out


@pytest.mark.parametrize(
    "argv, command, message",
    [
        (["verify-paper", "--json=1"], "verify-paper", "argument --json: ignored explicit argument '1'"),
        (["eval", "S sa P"], "eval", "the following arguments are required: --model"),
        ([], None, "the following arguments are required: command"),
        (["verify-paper", "--bound", "x"], "verify-paper", "argument --bound: invalid int value: 'x'"),
        (["verify"], None, "argument command: invalid choice: 'verify'"),
        # a bare `--` names no option: it is neither a prefix of every long one nor their end
        (["--"], None, "the following arguments are required: command"),
        (["--", "verify-paper"], None, "unrecognized arguments: --"),
        (["verify-paper", "--"], None, "unrecognized arguments: --"),
        (["verify-paper", "--out", "--"], "verify-paper", "argument --out: expected one argument"),
        (["diagram", "--json"], None, "unrecognized arguments: --json"),  # a diagram is DOT only
    ],
    ids=["flag-with-value", "eval-without-model", "no-arguments", "bound-not-a-number",
         "unknown-command", "double-dash", "double-dash-before-command",
         "double-dash-after-command", "double-dash-as-value", "diagram-json"],
)
def test_usage_errors_exit_2_with_a_usage_and_an_error_line(capsys, argv, command, message):
    code, out, err = run(capsys, *argv)
    prog = f"twosquares {command}" if command else "twosquares"
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]") and error == f"{prog}: error: {message}"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [None, "eval", "classify", "square", "diagram", "prove",
                                     "verify-paper"])
def test_help_names_the_commands_positionals_choices_and_help_strings(capsys, command):
    code, out, err = run(capsys, *([command] if command else []), "-h")
    assert (code, err) == (0, "") and out.startswith("usage: twosquares")
    assert run(capsys, *([command] if command else []), "--he") == (code, out, err)
    expected = {
        None: ["eval", "verify-paper", "run the full verification suite",
               "verification workbench for the analytic and synthetic squares of opposition"],
        "eval": ["formula", "--model MODEL", "JSON model file", "{analytic,synthetic}",
                 "{direct,derived,derived-charitable}", "--allow-empty"],
        "classify": ["first", "second", "{on,off}", "--bound BOUND"],
        "square": ["--reading", "--json", "write output to FILE instead of stdout"],
        "diagram": ["--semantics", "--out OUT"],
        "prove": ["script", "comma list from a5,a6,a7,a8,def (default: all)"],
        "verify-paper": [f"synthetic model bound (1..{MAX_UNIVERSE_DIRECT})",
                         f"algebra atom count (1..{MAX_ATOMS})"],
    }[command]
    assert all(word in out for word in expected), out


@pytest.mark.parametrize(
    "path",
    # `__main__` runs the command line when imported
    [p for p in sorted((Path(__file__).resolve().parent.parent / "src" / "twosquares").glob("*.py"))
     if p.stem != "__main__"],
    ids=lambda path: path.name,
)
def test_every_annotation_resolves(path):
    """`typing.get_type_hints` resolves every function, method and class
    that a module defines: each name an annotation uses is a name of the
    module, not one it imports only inside a function."""
    import inspect
    import typing

    name = "twosquares" if path.stem == "__init__" else f"twosquares.{path.stem}"
    module = importlib.import_module(name)
    owned = [v for v in vars(module).values() if getattr(v, "__module__", None) == name]
    for cls in [v for v in owned if inspect.isclass(v)]:
        owned += [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(cls).values()]
    for obj in owned:
        if inspect.isfunction(obj) or inspect.isclass(obj):
            typing.get_type_hints(obj)
