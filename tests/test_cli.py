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

from twosquares import opposition, report
from twosquares.cli import main
from twosquares.errors import BoundError
from twosquares.formula import _MAX_DEPTH, Copula
from twosquares.proofs import bundled_theorem_scripts
from twosquares.synthetic import DIRECT_EMPTY_OK, DIRECT_NONEMPTY, Reading


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
    in `dataclasses`, `typing` or what `dataclasses` imports."""
    script = (
        "import contextlib, io, sys\n"
        "import twosquares.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify-paper', '--json']) == 0\n"
        "print(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'typing', 'ast', 'dis'}))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


HEAVY_MODULES = ("twosquares.proofs", "twosquares.report", "twosquares.starb")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, ()),
        (["eval", "S si P", "--model", "MODEL"], ()),
        (["classify", "S sa P", "S so P"], ()),
        (["square"], ()),
        (["square", "--json"], ()),
        (["diagram"], ()),
        (["verify-paper", "--json"], HEAVY_MODULES),
    ],
    ids=["import", "eval", "classify", "square", "square-json", "diagram", "verify-paper"],
)
def test_each_command_loads_only_the_modules_it_runs(synthetic_model, argv, loaded):
    """The report, the prover and the carrier are loaded by the commands
    that run them and by no other."""
    run_argv = [synthetic_model if a == "MODEL" else a for a in argv or ()]
    script = (
        "import contextlib, io, sys\n"
        "import twosquares.cli as cli\n"
        f"if {run_argv!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main({run_argv!r}) == 0\n"
        f"print(sorted(set(sys.modules) & set({HEAVY_MODULES!r})))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{sorted(loaded)}\n", "")


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


def test_verify_paper_small_bound_marks_a8_inconclusive(capsys):
    code, out, _ = run(capsys, "verify-paper", "--bound", "1", "--atoms", "1")
    assert code == 1  # the A8 expectation cannot be met at bound 1
    assert "[ ?? ] A8" in out


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
    synthetic_decide = opposition.decide_synthetic_validity
    analytic_decide = opposition.decide_analytic_validity

    def count_synthetic(f, bound, opts):
        decisions[opts] += 1
        return synthetic_decide(f, bound, opts)

    def count_analytic(f, bound, policy):
        decisions["analytic"] += 1
        return analytic_decide(f, bound, policy)

    monkeypatch.setattr(opposition, "decide_synthetic_validity", count_synthetic)
    monkeypatch.setattr(opposition, "decide_analytic_validity", count_analytic)
    assert report.run_verify_paper(bound, atoms)["pass"]
    assert decisions == {DIRECT_NONEMPTY: 23, DIRECT_EMPTY_OK: 1, "analytic": 1}


def test_a_failed_catalog_run_marks_both_sections_that_use_it(monkeypatch):
    def refuse(bound, options):
        raise BoundError("catalog refused")

    monkeypatch.setattr(report, "run_catalog", refuse)
    result = report.run_verify_paper(3, 1)
    for name in ("theorem_catalog", "derivations"):
        assert result["sections"][name] == {"error": "catalog refused"}
        assert {"id": f"section-{name}", "description": f"section {name} completed",
                "status": "failed"} in result["expectations"]
    assert result["pass"] is False


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
    ],
    ids=["json-list", "deeply-nested", "missing-domain", "terms-as-string",
         "duplicate-individual", "prim-entry-not-a-pair"],
)
def test_eval_rejects_malformed_model_files(capsys, tmp_path, model, options, message):
    path = tmp_path / "model.json"
    path.write_text(model if isinstance(model, str) else json.dumps(model))
    code, out, err = run(capsys, "eval", "S sa P", "--model", str(path), *options)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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
BOUNDS = st.integers(-1, 5).map(str)
SCRIPTS = st.one_of(
    st.sampled_from(sorted(bundled_theorem_scripts().values())),
    st.lists(st.builds("{}. {} ; {}".format, st.integers(0, 3), FORMULAS,
                       st.sampled_from(["taut", "mp 1 2", "def-o S P", "axiom5 S:=S P:=P"])),
             max_size=3).map("\n".join),
)


@st.composite
def command_lines(draw, folder):
    command = draw(st.sampled_from(
        ["eval", "classify", "square", "diagram", "prove", "verify-paper"]
    ))
    if command == "eval":
        model = folder / "model.json"
        model.write_text(json.dumps(draw(MODELS)))
        return ["eval", draw(FORMULAS), "--model", str(model), *draw(SEMANTICS_FLAGS)]
    if command == "classify":
        return ["classify", draw(FORMULAS), draw(FORMULAS), "--bound", draw(BOUNDS),
                *draw(SEMANTICS_FLAGS)]
    if command in ("square", "diagram"):
        return [command, "--bound", draw(BOUNDS), *draw(SEMANTICS_FLAGS)]
    if command == "prove":
        script = folder / "script.proof"
        script.write_text(draw(SCRIPTS))
        axioms = draw(st.sampled_from(["a5,a6,a7,a8,def", "a5,def", "a6", "a9", ""]))
        return ["prove", str(script), "--axioms", axioms]
    return ["verify-paper", "--bound", draw(BOUNDS), "--atoms", draw(st.integers(0, 4).map(str))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_codes_under_fuzzing(tmp_path_factory, data):
    argv = data.draw(command_lines(tmp_path_factory.mktemp("fuzz")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert code != 1 or argv[0] in ("square", "diagram", "prove", "verify-paper"), argv
