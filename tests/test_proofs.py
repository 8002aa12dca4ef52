import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twosquares import proofs
from twosquares.cli import main
from twosquares.errors import BoundError, ParseError
from twosquares.formula import And, Atom, Copula, Implies, Not, Or, parse
from twosquares.opposition import catalog_entries
from twosquares.proofs import (
    AXIOM5_WITH_DEFINITIONS,
    AxiomInstance,
    AxiomSet,
    Derivation,
    DerivationLine,
    ModusPonens,
    Tautology,
    _build_derivation,
    bundled_theorem_derivations,
    check_derivation,
    check_proves,
    is_tautology,
)
from twosquares.proofscript import bundled_theorem_scripts, format_script, parse_script
from twosquares.search import Valid
from twosquares.synthetic import DIRECT_NONEMPTY

from oracles import row_by_row_tautology

ALL_SOURCES = AxiomSet()


def test_tautology_contraposition_schema():
    assert is_tautology(parse("(S sa P -> S se P) -> (~(S se P) -> ~(S sa P))"))


def test_tautology_excluded_middle():
    assert is_tautology(parse("S sa P | ~(S sa P)"))


def test_distinct_atoms_are_independent():
    assert not is_tautology(parse("S sa P -> S se P"))


def test_tautology_atom_budget():
    big = " | ".join(f"X{i} sa Y{i}" for i in range(13))
    with pytest.raises(BoundError):
        is_tautology(parse(big))


def test_tautology_at_the_atom_budget():
    letters = [f"X{i} sa Y{i}" for i in range(12)]
    assert is_tautology(parse(" | ".join(letters[:-1] + [f"~(X0 sa Y0) | {letters[-1]}"])))
    assert not is_tautology(parse(" | ".join(letters)))


@st.composite
def _letter_formulas(draw):
    """Formulas over 1-6 letters, few enough that some are tautologies."""
    letters = [Atom(f"X{i}", Copula.SA, "Y") for i in range(draw(st.integers(1, 6)))]
    return draw(
        st.recursive(
            st.sampled_from(letters),
            lambda kids: st.one_of(
                kids.map(Not),
                st.builds(And, kids, kids),
                st.builds(Or, kids, kids),
                st.builds(Implies, kids, kids),
            ),
            max_leaves=12,
        )
    )


@given(_letter_formulas())
def test_tautology_table_matches_row_by_row(f):
    assert is_tautology(f) == row_by_row_tautology(f)


def test_tautology_table_matches_row_by_row_to_depth_two():
    # every formula of depth at most 2 over two letters, nested `->` among them,
    # which the drawn formulas can miss
    formulas = [Atom("X0", Copula.SA, "Y"), Atom("X1", Copula.SA, "Y")]
    for _ in range(2):
        formulas += [Not(f) for f in formulas] + [
            node(f, g) for node in (And, Or, Implies) for f in formulas for g in formulas
        ]
    verdicts = [is_tautology(f) for f in formulas]
    assert verdicts == [row_by_row_tautology(f) for f in formulas]
    assert len(formulas) == 800 and 0 < sum(verdicts) < 800


def test_axiom_set_requires_a_source():
    with pytest.raises(ValueError):
        AxiomSet(frozenset())


def _t09_derivation():
    # S sa P -> ~(S si P) from an axiom-5 instance and the e-definition
    return parse_script(
        """
        1. S sa P -> S se P ; axiom5 S:=S P:=P
        2. (S se P -> ~(S si P)) & (~(S si P) -> S se P) ; def-e S P
        3. (S sa P -> S se P) -> (((S se P -> ~(S si P)) & (~(S si P) -> S se P)) -> (S sa P -> ~(S si P))) ; taut
        4. ((S se P -> ~(S si P)) & (~(S si P) -> S se P)) -> (S sa P -> ~(S si P)) ; mp 1 3
        5. S sa P -> ~(S si P) ; mp 2 4
        """
    )


def test_accepts_theorem_derivation():
    result = check_derivation(_t09_derivation(), AXIOM5_WITH_DEFINITIONS)
    assert result.ok
    assert result.refuted_axioms_used == ()


def test_rejects_when_mp_premise_missing():
    d = _t09_derivation()
    without_line_2 = Derivation(tuple(l for l in d.lines if l.index != 2))
    result = check_derivation(without_line_2, AXIOM5_WITH_DEFINITIONS)
    assert not result.ok
    assert result.line == 5  # first line whose cited premise is gone
    assert "missing" in result.reason


def test_rejects_wrong_schema_shape():
    d = Derivation(
        (
            DerivationLine(
                1,
                parse("P sa S -> S sa P"),
                AxiomInstance("axiom5", (("S", "S"), ("P", "P"))),
            ),
        )
    )
    result = check_derivation(d, ALL_SOURCES)
    assert not result.ok and result.line == 1
    assert "instance" in result.reason


def test_rejects_disabled_source():
    d = _t09_derivation()
    no_defs = AxiomSet(frozenset({"a5", "a6", "a7", "a8"}))
    result = check_derivation(d, no_defs)
    assert not result.ok and result.line == 2
    assert "disabled" in result.reason


def test_rejects_empty_and_bad_index_order():
    assert not check_derivation(Derivation(()), ALL_SOURCES).ok
    lines = _t09_derivation().lines
    shuffled = Derivation((lines[1], lines[0]) + lines[2:])
    assert not check_derivation(shuffled, ALL_SOURCES).ok


@pytest.mark.parametrize(
    "formula, justification, reason",
    [
        ("S sa P -> S se P", AxiomInstance("axiom9", (("S", "S"), ("P", "P"))),
         "unknown schema 'axiom9'"),
        ("S sa P -> S se P", AxiomInstance("axiom5", (("S", "S"),)),
         "bad binding: no binding for metavariable 'P'"),
        ("S sa P -> S se P", AxiomInstance("axiom5", (("S", "S"), ("P", "sa"))),
         "bad binding: binding 'P' to reserved or invalid token 'sa'"),
        (" | ".join(f"X{i} sa Y{i}" for i in range(13)), Tautology(),
         "13 distinct atoms exceed the budget of 12"),
    ],
    ids=["unknown-schema", "missing-binding", "reserved-binding", "taut-over-budget"],
)
def test_rejects_unknown_schema_bad_binding_and_oversized_tautology(formula, justification, reason):
    d = Derivation((DerivationLine(3, parse(formula), justification),))
    result = check_derivation(d, ALL_SOURCES)
    assert (result.ok, result.line, result.reason) == (False, 3, reason)


_A5 = AxiomInstance("axiom5", (("S", "S"), ("P", "P")))
_A6 = AxiomInstance("axiom6", (("S", "S"), ("P", "P")))


def _line(index, text, justification):
    return DerivationLine(index, parse(text), justification)


@pytest.mark.parametrize(
    "lines, ax, line, reason",
    [
        ([_line(0, "S sa P -> S se P", _A5)], ALL_SOURCES,
         0, "line indices must strictly increase"),
        ([_line(-1, "S sa P -> S se P", _A5)], ALL_SOURCES,
         -1, "line indices must strictly increase"),
        ([_line(1, "S sa P -> S se P", _A5), _line(1, "S sa P -> S se P", _A5)], ALL_SOURCES,
         1, "line indices must strictly increase"),
        ([_line(1, "S sa P -> S se P", _A5), _line(2, "S sa P | ~(S sa P)", Tautology()),
          _line(4, "S so P -> P so S", _A6)], AxiomSet(frozenset({"a5"})),
         4, "schema 'axiom6' disabled in this axiom set"),
        ([_line(1, "S sa P -> S se P", AxiomInstance("axiom5", (("S", "P"), ("P", "S"))))],
         ALL_SOURCES, 1, "formula is not the stated axiom5 instance"),
        ([_line(1, "S so P -> P so S", _A6), _line(2, "S sa P -> S se P", Tautology())],
         ALL_SOURCES, 2, "formula is not a tautology"),
        ([_line(1, "S sa P -> S se P", _A5), _line(2, "S sa P | ~(S sa P)", Tautology()),
          _line(3, "S se P", ModusPonens(1, 3))], ALL_SOURCES,
         3, "modus ponens cites a missing or later line"),
        ([_line(1, "S sa P -> S se P", _A5), _line(2, "S se P", ModusPonens(1, 1))], ALL_SOURCES,
         2, "cited lines do not fit modus ponens for this formula"),
    ],
    ids=["first-index-zero", "first-index-negative", "repeated-index", "disabled-source",
         "wrong-instance", "not-a-tautology", "mp-later-line", "mp-mismatch"],
)
def test_each_rejection_names_its_line_and_flags_nothing(lines, ax, line, reason):
    result = check_derivation(Derivation(tuple(lines)), ax)
    assert (result.ok, result.line, result.reason, result.refuted_axioms_used) == (
        False, line, reason, ()
    )


@pytest.mark.parametrize(
    "binding, prefix",
    [
        ((("S", 1), ("P", "P")), "bad binding: binding 'S' to reserved or invalid token 1"),
        ((("S",), ("P", "P")), "bad binding: dictionary update sequence element"),
    ],
    ids=["int-target", "not-a-pair"],
)
def test_any_malformed_binding_is_a_rejection(binding, prefix):
    d = Derivation((_line(1, "S sa P -> S se P", AxiomInstance("axiom5", binding)),))
    result = check_derivation(d, ALL_SOURCES)
    assert (result.ok, result.line, result.refuted_axioms_used) == (False, 1, ())
    # the rest of the message is worded differently across Python versions
    assert result.reason.startswith(prefix)


def test_a_program_error_in_instantiate_propagates(monkeypatch):
    """Only a malformed binding reads as a rejection: any other error inside
    `instantiate` is a fault of the program, and propagates."""
    def broken(schema, binding):
        raise KeyError("not a binding error")

    monkeypatch.setattr(proofs, "instantiate", broken)
    with pytest.raises(KeyError):
        check_derivation(Derivation((_line(1, "S sa P -> S se P", _A5),)), ALL_SOURCES)


def test_flags_semantically_refuted_axioms():
    for schema_id, text, binding in (
        ("axiom6", "S so P -> P so S", (("S", "S"), ("P", "P"))),
        ("axiom8", "(M sa P & S se M) -> S se P", (("M", "M"), ("P", "P"), ("S", "S"))),
    ):
        d = Derivation((DerivationLine(1, parse(text), AxiomInstance(schema_id, binding)),))
        result = check_derivation(d, ALL_SOURCES)
        assert result.ok
        assert result.refuted_axioms_used == (schema_id,)
        assert "unsound" in result.describe() or "refuted" in result.describe()


REFUTED_SCRIPT = """\
1. S so P -> P so S ; axiom6 S:=S P:=P
2. M so N -> N so M ; axiom6 S:=M P:=N
3. (M sa P & S se M) -> S se P ; axiom8 M:=M P:=P S:=S
"""


def test_refuted_axioms_are_flagged_once_each_in_citation_order():
    result = check_derivation(parse_script(REFUTED_SCRIPT), ALL_SOURCES)
    assert result.ok
    assert result.refuted_axioms_used == ("axiom6", "axiom8")
    assert result.describe() == "ok (sound relative to semantically refuted axioms: axiom6, axiom8)"


def test_check_is_independent_of_annotation_details():
    # renumbering lines (keeping order and fixing citations) changes nothing
    d = _t09_derivation()
    renumber = {line.index: 10 * line.index for line in d.lines}
    relabeled = []
    for line in d.lines:
        j = line.justification
        if isinstance(j, ModusPonens):
            j = ModusPonens(renumber[j.antecedent], renumber[j.implication])
        relabeled.append(DerivationLine(renumber[line.index], line.formula, j))
    assert check_derivation(Derivation(tuple(relabeled)), AXIOM5_WITH_DEFINITIONS).ok


def test_script_round_trip():
    d = _t09_derivation()
    assert parse_script(format_script(d)) == d


@pytest.mark.parametrize(
    "script, message",
    [
        ("1. S sa P -> S se P", "line 1: missing ';' justification separator at offset 19"),
        ("# comment\n\n1 S sa P ; taut", "line 3: expected 'n. <formula> ; <rule>' at offset 0"),
        ("  x. S sa P ; taut", "line 1: expected 'n. <formula> ; <rule>' at offset 2"),
        ("1. S sa P ;  ", "line 1: empty justification at offset 11"),
        ("1. S sa P ; taut\n2. S sa P ; mp 1", "line 2: mp needs two line numbers at offset 12"),
        ("1. S sa P ; mp 1 x", "line 1: mp needs two line numbers at offset 12"),
        ("  1. S sa P ;\tmp 1", "line 1: mp needs two line numbers at offset 14"),
        ("1. S so P ; def-o S", "line 1: def-o needs two term arguments at offset 12"),
        ("1. S sa P -> S se P ; axiom5 S P", "line 1: expected NAME:=TERM, got 'S' at offset 29"),
        ("1. S sa P -> S se P ; axiom5 S:=S", "line 1: axiom5 needs bindings for S, P at offset 22"),
        ("1. S sa P ; modus 1 2", "line 1: unknown rule 'modus' at offset 12"),
        ("1. S sa P | ~(S sa P) ; taut 3", "line 1: taut takes no arguments at offset 29"),
        ("1. M sa P -> M se P ; axiom5 S:=S S:=M P:=P", "line 1: axiom5 binds S twice at offset 34"),
        # a superscript digit is a digit but not a decimal one, which int() reads
        ("1². S sa P ; taut", "line 1: expected 'n. <formula> ; <rule>' at offset 0"),
        ("1. S sa P ; mp 1 ²", "line 1: mp needs two line numbers at offset 12"),
        # a formula's offset counts from the start of its line
        ("1. S sa P ; taut\n\n2. S x P ; taut",
         "line 3: unexpected token 'x' at offset 5 (expected: a, e, i, o, sa, se, si, so)"),
    ],
    ids=["no-separator", "no-dot", "bad-number", "empty-rule", "mp-one-line", "mp-not-a-number",
         "mp-indented", "def-one-term", "binding-without-assignment", "binding-missing",
         "unknown-rule", "taut-with-arguments", "binding-repeated", "superscript-number",
         "mp-superscript", "bad-formula"],
)
def test_parse_script_rejects_malformed_lines(script, message):
    with pytest.raises(ParseError) as exc:
        parse_script(script)
    assert str(exc.value) == message
    assert f" at offset {exc.value.position}" in message


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="int() reads any number of digits")
def test_a_line_number_past_the_digit_limit_is_malformed():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    for script, message in (
        (f"{digits}. S sa P ; taut", "line 1: expected 'n. <formula> ; <rule>' at offset 0"),
        (f"1. S sa P ; mp 1 {digits}", "line 1: mp needs two line numbers at offset 12"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_script(script)
        assert str(exc.value) == message


def test_prove_reports_a_malformed_script_as_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.proof"
    path.write_text("1. S sa P -> S se P\n")
    assert main(["prove", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: missing ';' justification separator at offset 19\n"


def test_prove_names_no_line_for_an_empty_script(capsys, tmp_path):
    path = tmp_path / "empty.proof"
    path.write_text("# only a comment\n\n")
    assert main(["prove", str(path)]) == 1
    assert capsys.readouterr().out == "rejected: empty derivation\n"
    assert main(["prove", str(path), "--json"]) == 1
    detail = {"ok": False, "detail": "rejected: empty derivation", "conclusion": None}
    assert json.loads(capsys.readouterr().out) == detail


def test_three_line_derivation_from_the_o_definition():
    script = """
    1. (S so P -> ~(S sa P)) & (~(S sa P) -> S so P) ; def-o S P
    2. ((S so P -> ~(S sa P)) & (~(S sa P) -> S so P)) -> (S sa P -> ~(S so P)) ; taut
    3. S sa P -> ~(S so P) ; mp 1 2
    """
    result = check_derivation(parse_script(script), AXIOM5_WITH_DEFINITIONS)
    assert result.ok


# --- the bundled catalog derivations -----------------------------------------

def _targets():
    return {
        e.id: e.schema.formula for e in catalog_entries() if e.source == "theorem-list"
    }


def test_bundle_covers_all_twenty_theorems():
    derivations = bundled_theorem_derivations()
    assert sorted(derivations) == [f"T{n:02d}" for n in range(1, 21)]


def test_every_bundled_derivation_checks_and_proves_its_theorem():
    targets = _targets()
    for tid, d in bundled_theorem_derivations().items():
        result = check_proves(d, targets[tid], AXIOM5_WITH_DEFINITIONS)
        assert result.ok, f"{tid}: {result.describe()}"


def _premises(d: Derivation):
    return tuple(
        (line.justification.schema_id, line.justification.binding)
        for line in d.lines
        if isinstance(line.justification, AxiomInstance)
    )


def test_bundled_premises_follow_from_the_copulas():
    premise_ids = {tid: [sid for sid, _ in _premises(d)]
                   for tid, d in bundled_theorem_derivations().items()}
    assert premise_ids["T01"] == ["def-o"]  # a- and o-forms only
    assert premise_ids["T03"] == ["def-e"]  # e- and i-forms only
    assert premise_ids["T13"] == ["axiom5"]
    assert premise_ids["T14"] == ["axiom5", "def-e", "def-o"]


def test_every_bundled_premise_is_needed():
    targets = _targets()
    for tid, d in bundled_theorem_derivations().items():
        assert check_proves(d, targets[tid], AXIOM5_WITH_DEFINITIONS).ok, tid
        premises = _premises(d)
        for k in range(len(premises)):
            fewer = _build_derivation(targets[tid], premises[:k] + premises[k + 1:])
            result = check_proves(fewer, targets[tid], AXIOM5_WITH_DEFINITIONS)
            assert not result.ok, f"{tid} checks without {premises[k][0]}"


def test_bundled_scripts_reparse_and_recheck():
    targets = _targets()
    for tid, script in bundled_theorem_scripts().items():
        d = parse_script(script)
        assert check_proves(d, targets[tid], AXIOM5_WITH_DEFINITIONS).ok


def _mutations(d: Derivation):
    """Deterministic single-line mutations: negate a formula, bump a modus
    ponens citation, drop the line."""
    for k, line in enumerate(d.lines):
        yield Derivation(
            d.lines[:k]
            + (DerivationLine(line.index, Not(line.formula), line.justification),)
            + d.lines[k + 1:]
        )
        if isinstance(line.justification, ModusPonens):
            j = line.justification
            yield Derivation(
                d.lines[:k]
                + (
                    DerivationLine(
                        line.index, line.formula, ModusPonens(j.antecedent, j.antecedent)
                    ),
                )
                + d.lines[k + 1:]
            )
        yield Derivation(d.lines[:k] + d.lines[k + 1:])


def test_single_line_mutations_break_every_bundled_derivation():
    targets = _targets()
    for tid, d in bundled_theorem_derivations().items():
        for mutant in _mutations(d):
            result = check_proves(mutant, targets[tid], AXIOM5_WITH_DEFINITIONS)
            assert not result.ok, f"{tid} survived a mutation"


def test_kernel_accepted_formulas_are_model_checked_valid():
    targets = _targets()
    for tid, d in bundled_theorem_derivations().items():
        assert check_proves(d, targets[tid], AXIOM5_WITH_DEFINITIONS).ok
        assert DIRECT_NONEMPTY.decide(d.conclusion, 3) == Valid(3), tid
