"""Acceptance suite: every top-level claim the package makes, checked
exhaustively at its stated bound and time budget, one pass/fail line each
(run with -s to see them)."""

import subprocess
import sys
import time

from twosquares.analytic import IMPORT_OFF, IMPORT_ON
from twosquares.formula import Not, parse
from twosquares.opposition import (
    AnalyticSemantics,
    RelationKind,
    SyntheticSemantics,
    analytic_square,
    catalog_entries,
    run_catalog,
    synthetic_square,
    verify_square,
)
from twosquares.proofs import (
    AXIOM5_WITH_DEFINITIONS,
    Derivation,
    DerivationLine,
    ModusPonens,
    bundled_theorem_derivations,
    check_proves,
)
from twosquares.report import run_verify_paper
from twosquares.search import Counterexample, Valid
from twosquares.starb import (
    FiniteBooleanAlgebra,
    all_elements,
    classify_cases,
    fneg,
    join,
    leq,
    matrix_imp,
    matrix_neg,
    meet,
    mk_standard,
    verify_two_squares,
)
from twosquares.synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    enumerate_synthetic_models,
)


class _Criterion:
    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {self.description}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_synthetic_square():
    with _Criterion(1, "synthetic square over 84 direct models, 1 <= |U| <= 3", 1.0):
        models = list(enumerate_synthetic_models(("P", "S"), 3, DIRECT_NONEMPTY))
        assert len(models) == 4 + 16 + 64
        report = verify_square(synthetic_square(), SyntheticSemantics(DIRECT_NONEMPTY), 3)
        got = {(p.first, p.second): p.relation.kind for p in report.pairs}
        assert got == {
            ("a", "i"): RelationKind.CONTRARY,
            ("e", "o"): RelationKind.SUBCONTRARY,
            ("a", "o"): RelationKind.CONTRADICTORY,
            ("e", "i"): RelationKind.CONTRADICTORY,
            ("a", "e"): RelationKind.SUBALTERNATION_FORWARD,
            ("i", "o"): RelationKind.SUBALTERNATION_FORWARD,
        }
        assert report.passed


def test_criterion_2_theorem_catalog():
    with _Criterion(2, "all 20 theorems valid at bound 3; empty model breaks contrariety", 1.0):
        results = {r.entry.id: r for r in run_catalog(3)}
        for n in range(1, 21):
            verdict = results[f"T{n:02d}"].verdict
            assert verdict == Valid(3), f"T{n:02d}: {verdict}"
        with_empty = {r.entry.id: r for r in run_catalog(3, DIRECT_EMPTY_OK)}
        t19 = with_empty["T19"].verdict
        assert isinstance(t19, Counterexample)
        assert t19.model.universe == ()


def test_criterion_3_axiom_status():
    with _Criterion(3, "A5/A7 valid; A6 fails at size 1, A8 at size 2, listed in the report", 1.0):
        results = {r.entry.id: r for r in run_catalog(3)}
        assert results["A5"].verdict == Valid(3)
        assert results["A7"].verdict == Valid(3)
        a6, a8 = results["A6"].verdict, results["A8"].verdict
        assert isinstance(a6, Counterexample) and len(a6.model.universe) == 1
        assert isinstance(a8, Counterexample) and len(a8.model.universe) == 2
        report = run_verify_paper()
        rows = {e["id"]: e for e in report["sections"]["theorem_catalog"]["entries"]}
        assert rows["A6"]["witness"] == {"universe": ["u"], "is": {"u": ["P"]}}
        assert rows["A8"]["witness"] == {
            "universe": ["u", "v"],
            "is": {"u": ["M", "P"], "v": ["P"]},
        }


def test_criterion_4_conventional_analytic_square():
    with _Criterion(4, "analytic square with import on, |D| <= 4; a=>i fails without import", 5.0):
        report = verify_square(analytic_square(), AnalyticSemantics(IMPORT_ON), 4)
        assert report.passed
        verdict = AnalyticSemantics(IMPORT_OFF).decide(parse("S a P -> S i P"), 4)
        assert isinstance(verdict, Counterexample)
        assert verdict.model.extent("S") == 0


def test_criterion_5_case_sweep():
    with _Criterion(5, "cases 1-12 conclusions hold on all 16 two-atom elements", 1.0):
        alg = FiniteBooleanAlgebra(2)
        elements = all_elements(alg)
        assert len(elements) == 16
        for x in elements:
            for outcome in classify_cases(x):
                if outcome.hypothesis_holds:
                    assert outcome.conclusion_holds, (str(x), outcome.case_id)
            assert meet(x, fneg(x)).standard
            assert join(x, fneg(x)).standard


def test_criterion_6_proposition_1():
    with _Criterion(
        6, "two-square classification of the 1-3 atom carriers, decided on one atom", 2.0
    ):
        for k in (1, 2, 3):
            row = verify_two_squares(FiniteBooleanAlgebra(k))
            assert row["conventional"]["violations"] == [], row
            assert row["synthetic"]["violations"] == [], row
            assert row["hypothesis_equivalences_ok"], row
            assert row["conventional"]["nonstandard_satisfiers"] > 0
            assert row["synthetic"]["nonstandard_satisfiers"] == 0


def test_criterion_7_matrix_logic():
    with _Criterion(7, "matrix involution, modus ponens, top identity, designation order", 1.0):
        alg = FiniteBooleanAlgebra(2)
        elements = all_elements(alg)
        top = mk_standard(alg, alg.top)
        for x in elements:
            assert matrix_neg(matrix_neg(x)) == x
            assert matrix_imp(top, x) == x
        for x in elements:
            for y in elements:
                if x == top and matrix_imp(x, y) == top:
                    assert y == top
                assert (matrix_imp(x, y) == top) == leq(x, y)


def _mutations(d: Derivation):
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
                + (DerivationLine(line.index, line.formula, ModusPonens(j.antecedent, j.antecedent)),)
                + d.lines[k + 1:]
            )
        yield Derivation(d.lines[:k] + d.lines[k + 1:])


def test_criterion_8_proof_kernel():
    with _Criterion(8, "20 derivations check, mutations rejected, conclusions model-valid", 5.0):
        targets = {
            e.id: e.schema.formula for e in catalog_entries() if e.source == "theorem-list"
        }
        derivations = bundled_theorem_derivations()
        assert len(derivations) == 20
        semantics = SyntheticSemantics(DIRECT_NONEMPTY)
        for tid, derivation in derivations.items():
            assert check_proves(derivation, targets[tid], AXIOM5_WITH_DEFINITIONS).ok, tid
            assert semantics.decide(targets[tid], 3) == Valid(3), tid
            for mutant in _mutations(derivation):
                assert not check_proves(mutant, targets[tid], AXIOM5_WITH_DEFINITIONS).ok, tid


def test_criterion_9_determinism():
    with _Criterion(9, "two consecutive verify-paper --json runs are byte-identical", 30.0):
        command = [sys.executable, "-m", "twosquares", "verify-paper", "--json"]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty report
