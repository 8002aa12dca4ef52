"""Whole-catalog verification run and its deterministic report.

`run_verify_paper` executes every check the package makes about the two
squares: the conventional square under Venn semantics, the synthetic
square and claim catalog under the direct reading, the twelve-case
sweep, the two-square classification and matrix properties on the
nonstandard carrier, the bridge satisfaction tables, and the bundled
derivations.  The result is a plain dict that serializes byte-stably:
all iteration is over explicitly ordered data, and no timestamps or
environment details are recorded.
"""

from __future__ import annotations

import functools
import json

from . import __version__
from .analytic import IMPORT_OFF, IMPORT_ON
from .errors import BoundError, TwoSquaresError
from .formula import parse, render
from .opposition import (
    AnalyticSemantics,
    CatalogResult,
    SyntheticSemantics,
    analytic_square,
    check_entry,
    run_catalog,
    synthetic_square,
    verify_square,
)
from .proofs import (
    AXIOM5_WITH_DEFINITIONS,
    bundled_theorem_derivations,
    check_proves,
)
from .search import Counterexample, Valid, Verdict
from .starb import (
    ONE,
    FiniteBooleanAlgebra,
    all_elements,
    bridge_tables,
    case_analysis,
    leq,
    matrix_imp,
    matrix_neg,
    verify_two_squares,
)
from .synthetic import DIRECT_EMPTY_OK, DIRECT_NONEMPTY, MAX_UNIVERSE_DIRECT

ANALYTIC_SQUARE_BOUND = 4  # the conventional-square claim is about |D| <= 4

_NOTES = (
    "universal-affirmative: the bare-existence disjunct is implemented literally, "
    "so `S sa P` is true whenever anything is S",
    "strict designation is never met by a nonstandard atom value; the filter "
    "policy is reported alongside",
    "all validity verdicts are bounded; no unbounded claim is made",
    "the carrier results (case sweep, proposition 1, matrix properties) hold for every "
    "finite atom count: the n-atom carrier is the n-th direct power of the one-atom "
    "carrier, which decides them",
)


def _verdict_dict(verdict: Verdict) -> dict:
    if isinstance(verdict, Valid):
        return {"status": verdict.describe()}
    return {
        "status": "counterexample",
        "witness": verdict.model.to_dict(),
        "witness_summary": verdict.model.summary(),
        "atom_values": {atom: value for atom, value in verdict.atom_trace},
    }


class _Expectations:
    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, check_id: str, description: str, status) -> None:
        if isinstance(status, bool):
            status = "met" if status else "failed"
        self.rows.append({"id": check_id, "description": description, "status": status})

    @property
    def all_met(self) -> bool:
        return all(row["status"] == "met" for row in self.rows)


def _analytic_section(expect: _Expectations) -> dict:
    report = verify_square(analytic_square(), AnalyticSemantics(IMPORT_ON), ANALYTIC_SQUARE_BOUND)
    expect.add(
        "analytic-square",
        f"conventional square holds with import on, |D| <= {ANALYTIC_SQUARE_BOUND}",
        report.passed,
    )
    subalt = AnalyticSemantics(IMPORT_OFF).decide(parse("S a P -> S i P"), ANALYTIC_SQUARE_BOUND)
    fails_without_import = isinstance(subalt, Counterexample)
    empty_subject = fails_without_import and not subalt.model.extent("S")
    expect.add(
        "analytic-subalternation-import-off",
        "a=>i fails without import, empty-subject witness",
        fails_without_import and empty_subject,
    )
    return {
        "square": report.to_dict(),
        "subalternation_without_import": {
            "formula": "S a P -> S i P",
            **_verdict_dict(subalt),
            "empty_subject_witness": empty_subject,
        },
    }


def _synthetic_square_section(expect: _Expectations, model_bound: int) -> dict:
    report = verify_square(synthetic_square(), SyntheticSemantics(DIRECT_NONEMPTY), model_bound)
    expect.add(
        "synthetic-square",
        f"synthetic square holds, direct reading, 1 <= |U| <= {model_bound}",
        report.passed,
    )
    return report.to_dict()


def _catalog_row(result: CatalogResult, semantics_label: str) -> dict:
    row = {
        "id": result.entry.id,
        "schema": render(result.entry.schema.formula),
        "source": result.entry.source,
        "semantics": semantics_label,
        "expected": result.entry.expected(),
        **_verdict_dict(result.verdict),
        "met": result.status,
    }
    if result.status == "inconclusive" and isinstance(result.verdict, Valid):
        row["status"] = f"no counterexample found up to bound {result.verdict.bound}"
    return row


def _catalog_section(
    expect: _Expectations, model_bound: int, results: tuple[CatalogResult, ...]
) -> dict:
    for result in results:
        expect.add(
            result.entry.id,
            f"{render(result.entry.schema.formula)} expected {result.entry.expected()}",
            result.status,
        )
    t19 = next(r.entry for r in results if r.entry.id == "T19")
    empty_ok = SyntheticSemantics(DIRECT_EMPTY_OK)
    boundary = check_entry(t19, model_bound, empty_ok.decide)
    boundary_failed = (
        isinstance(boundary.verdict, Counterexample)
        and len(boundary.verdict.model.universe) == 0
    )
    expect.add(
        "catalog-empty-boundary",
        "admitting the empty universe breaks a-i contrariety (T19) with witness U = {}",
        boundary_failed,
    )
    label = SyntheticSemantics(DIRECT_NONEMPTY).label()
    return {
        "bound": model_bound,
        "entries": [_catalog_row(r, label) for r in results],
        "empty_universe_boundary": _catalog_row(boundary, empty_ok.label()),
    }


def _case_section(expect: _Expectations, algebra: FiniteBooleanAlgebra) -> dict:
    atom_count = algebra.atom_count
    counts, violations, standard_ok = case_analysis(algebra)
    expect.add(
        "case-sweep",
        f"cases 1-12 conclusions hold for every hypothesis-satisfying element ({atom_count} atoms)",
        violations == 0,
    )
    expect.add(
        "inf-sup-standard",
        "inf(x, x-flip) and sup(x, x-flip) are standard for every x",
        standard_ok,
    )
    return {
        "atom_count": atom_count,
        "elements": 4**atom_count,
        "cases": [{"case": case, "hypothesis_holds_for": k} for case, k in enumerate(counts, 1)],
        "conclusion_violations": violations,
        "inf_sup_standard": standard_ok,
    }


def _proposition1_section(expect: _Expectations, atom_count: int) -> dict:
    rows = [verify_two_squares(FiniteBooleanAlgebra(k)) for k in range(1, atom_count + 1)]
    for row in rows:
        expect.add(
            f"proposition1-{row['atom_count']}atom",
            f"two-square sweep passes over the {row['atom_count']}-atom carrier",
            not row["conventional"]["violations"]
            and not row["synthetic"]["violations"]
            and row["hypothesis_equivalences_ok"],
        )
    expect.add(
        "prop1-conventional-nonstandard",
        "the conventional-square condition is realizable by nonstandard elements",
        all(row["conventional"]["nonstandard_satisfiers"] > 0 for row in rows),
    )
    expect.add(
        "prop1-synthetic-standard-only",
        "the synthetic-square condition forces [f] = [f¬] in this carrier",
        all(row["synthetic"]["nonstandard_satisfiers"] == 0 for row in rows),
    )
    return {"sweeps": rows}


def _matrix_section(expect: _Expectations, atom_count: int) -> dict:
    # each check is universal Horn, or an equivalence of two conjunctions
    # over the atoms, so ONE decides it for every atom count (see starb)
    elems = all_elements(ONE)
    top = elems[-1]
    checks = {
        "double_negation": all(matrix_neg(matrix_neg(x)) == x for x in elems),
        "imp_top_identity": all(matrix_imp(top, x) == x for x in elems),
        # *1 is the only designated value, so x = *1 is the only premise.
        "modus_ponens_preservation": all(y == top for y in elems if matrix_imp(top, y) == top),
        "designation_order_compatibility": all(
            (matrix_imp(x, y) == top) == leq(x, y) for x in elems for y in elems
        ),
    }
    for name, ok in checks.items():
        expect.add(f"matrix-{name.replace('_', '-')}", f"matrix logic: {name}", ok)
    return {"atom_count": atom_count, "elements": 4**atom_count, **checks}


def _bridge_section(expect: _Expectations, algebra: FiniteBooleanAlgebra) -> dict:
    tables = bridge_tables(algebra)
    strict_nonstandard, strict_top = tables[0], tables[4]  # the primary column, strict
    expect.add(
        "bridge-strict-nonstandard-atom",
        "strict designation leaves the nonstandard a-form atom unsatisfied",
        not strict_nonstandard["satisfied"]["sa"],
    )
    expect.add(
        "bridge-strict-axiom5-shape",
        "the axiom-5 shape is satisfied in the strict nonstandard model",
        strict_nonstandard["axiom5_shape_satisfied"],
    )
    expect.add(
        "bridge-strict-top-atom",
        "the a-form atom is satisfied when the generator is *1",
        strict_top["satisfied"]["sa"],
    )
    return {"atom_count": algebra.atom_count, "tables": tables}


def _derivations_section(expect: _Expectations, results: tuple[CatalogResult, ...]) -> dict:
    """Check each bundled derivation; its semantic status is the catalog's
    verdict for that theorem."""
    catalog = {r.entry.id: r for r in results}
    rows = []
    all_ok = True
    all_valid = True
    for tid, derivation in sorted(bundled_theorem_derivations().items()):
        target = catalog[tid]
        result = check_proves(derivation, target.entry.schema.formula, AXIOM5_WITH_DEFINITIONS)
        all_ok = all_ok and result.ok
        all_valid = all_valid and isinstance(target.verdict, Valid)
        rows.append(
            {
                "id": tid,
                "lines": len(derivation.lines),
                "check": result.describe(),
                "semantic_status": target.verdict.describe(),
            }
        )
    expect.add(
        "derivations-ok",
        "all bundled theorem derivations check under axiom5 + definitional schemas",
        all_ok,
    )
    expect.add(
        "derivations-sound",
        "every bundled conclusion is confirmed valid by the model checker",
        all_valid,
    )
    return {"axiom_set": "axiom5 + definitional schemas", "entries": rows}


def run_verify_paper(model_bound: int = 3, atom_count: int = 2) -> dict:
    """Run the full verification and return the report dict.

    `model_bound` caps the synthetic-model sweeps (catalog, axioms, the
    synthetic square); the analytic square always runs at domain bound
    4, which is what its claim is about.  `atom_count` is the
    carrier's atom count: the bridge models are built on it, and the
    carrier sections describe it but are decided on one atom (see
    `starb`).  Section failures are recorded in the expectation
    table; the report's "pass" is true iff every expectation is met.
    """
    if not 1 <= model_bound <= MAX_UNIVERSE_DIRECT:
        raise BoundError(f"model bound {model_bound} outside 1..{MAX_UNIVERSE_DIRECT}")
    algebra = FiniteBooleanAlgebra(atom_count)  # or the atom count's bound error
    expect = _Expectations()
    sections: dict = {}
    # one catalog run for both sections; an error is not cached, so each gets its marker
    catalog = functools.cache(lambda: run_catalog(model_bound, DIRECT_NONEMPTY))
    builders = (
        ("analytic_square", lambda: _analytic_section(expect)),
        ("synthetic_square", lambda: _synthetic_square_section(expect, model_bound)),
        ("theorem_catalog", lambda: _catalog_section(expect, model_bound, catalog())),
        ("case_sweep", lambda: _case_section(expect, algebra)),
        ("proposition1", lambda: _proposition1_section(expect, atom_count)),
        ("matrix_properties", lambda: _matrix_section(expect, atom_count)),
        ("bridge_models", lambda: _bridge_section(expect, algebra)),
        ("derivations", lambda: _derivations_section(expect, catalog())),
    )
    for name, build in builders:
        try:
            sections[name] = build()
        except TwoSquaresError as exc:  # partial report with a failure marker
            sections[name] = {"error": str(exc)}
            expect.add(f"section-{name}", f"section {name} completed", False)
    return {
        "title": "two squares of opposition: verification report",
        "version": __version__,
        "bounds": {"model_bound": model_bound, "atom_count": atom_count},
        "sections": sections,
        "expectations": expect.rows,
        "notes": list(_NOTES),
        "pass": expect.all_met,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def report_text(report: dict) -> str:
    """Plain-text summary: one line per expectation plus the headline."""
    marks = {"met": "[ OK ]", "failed": "[FAIL]", "inconclusive": "[ ?? ]"}
    lines = [
        report["title"],
        "version %s; synthetic model bound %d; algebra atoms %d"
        % (report["version"], report["bounds"]["model_bound"], report["bounds"]["atom_count"]),
        "",
    ]
    for row in report["expectations"]:
        lines.append(f"{marks[row['status']]} {row['id']}: {row['description']}")
    lines.append("")
    lines.append("overall: %s" % ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"
