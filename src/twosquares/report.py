"""Whole-catalog verification run and its deterministic report.

`run_verify_paper` executes every check the package makes about the two
squares: the conventional square under Venn semantics, the synthetic
square and claim catalog under the direct reading, the twelve-case
sweep, the two-square classification and matrix properties on the
nonstandard carrier, the bridge satisfaction tables, and the bundled
derivations.  Their modules decide each check and write each verdict,
square and catalog row as JSON; this one arranges the rows and adds one
expectation row per check.  The result is a plain dict that serializes
byte-stably: all iteration is over explicitly ordered data, and no
timestamps or environment details are recorded.
"""

from __future__ import annotations

import functools
import json

from . import __version__
from .analytic import WITH_IMPORT, WITHOUT_IMPORT
from .errors import TwoSquaresError
from .formula import parse
from .opposition import (
    CatalogResult,
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
from .search import Counterexample, Valid
from .starb import (
    FiniteBooleanAlgebra,
    bridge_tables,
    case_analysis,
    matrix_properties,
    verify_two_squares,
)
from .synthetic import DIRECT_EMPTY_OK, DIRECT_NONEMPTY

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


def _expect(rows: list[dict], check_id: str, description: str, status: bool | str) -> None:
    """Add an expectation row; a bool status reads as met or failed."""
    if isinstance(status, bool):
        status = "met" if status else "failed"
    rows.append({"id": check_id, "description": description, "status": status})


def _analytic_section(expectations: list[dict]) -> dict:
    report = verify_square(analytic_square(), WITH_IMPORT, ANALYTIC_SQUARE_BOUND)
    _expect(
        expectations, "analytic-square",
        f"conventional square holds with import on, |D| <= {ANALYTIC_SQUARE_BOUND}",
        report.passed,
    )
    subalt = WITHOUT_IMPORT.decide(parse("S a P -> S i P"), ANALYTIC_SQUARE_BOUND)
    fails_without_import = isinstance(subalt, Counterexample)
    empty_subject = fails_without_import and not subalt.model.extent("S")
    _expect(
        expectations, "analytic-subalternation-import-off",
        "a=>i fails without import, empty-subject witness",
        fails_without_import and empty_subject,
    )
    return {
        "square": report.to_dict(),
        "subalternation_without_import": {
            "formula": "S a P -> S i P",
            **subalt.to_dict(),
            "empty_subject_witness": empty_subject,
        },
    }


def _synthetic_square_section(expectations: list[dict], model_bound: int) -> dict:
    report = verify_square(synthetic_square(), DIRECT_NONEMPTY, model_bound)
    _expect(
        expectations, "synthetic-square",
        f"synthetic square holds, direct reading, 1 <= |U| <= {model_bound}",
        report.passed,
    )
    return report.to_dict()


def _catalog_section(
    expectations: list[dict], model_bound: int, results: tuple[CatalogResult, ...]
) -> dict:
    entries = [r.to_dict(DIRECT_NONEMPTY.label()) for r in results]
    for row in entries:
        _expect(expectations, row["id"], f"{row['schema']} expected {row['expected']}", row["met"])
    t19 = next(r.entry for r in results if r.entry.id == "T19")
    boundary = check_entry(t19, model_bound, DIRECT_EMPTY_OK.decide)
    boundary_failed = (
        isinstance(boundary.verdict, Counterexample)
        and len(boundary.verdict.model.universe) == 0
    )
    _expect(
        expectations, "catalog-empty-boundary",
        "admitting the empty universe breaks a-i contrariety (T19) with witness U = {}",
        boundary_failed,
    )
    return {
        "bound": model_bound,
        "entries": entries,
        "empty_universe_boundary": boundary.to_dict(DIRECT_EMPTY_OK.label()),
    }


def _case_section(expectations: list[dict], algebra: FiniteBooleanAlgebra) -> dict:
    atom_count = algebra.atom_count
    counts, violations, standard_ok = case_analysis(algebra)
    _expect(
        expectations, "case-sweep",
        f"cases 1-12 conclusions hold for every hypothesis-satisfying element ({atom_count} atoms)",
        violations == 0,
    )
    _expect(
        expectations, "inf-sup-standard",
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


def _proposition1_section(expectations: list[dict], atom_count: int) -> dict:
    rows = [verify_two_squares(FiniteBooleanAlgebra(k)) for k in range(1, atom_count + 1)]
    for row in rows:
        _expect(
            expectations, f"proposition1-{row['atom_count']}atom",
            f"two-square sweep passes over the {row['atom_count']}-atom carrier",
            not row["conventional"]["violations"]
            and not row["synthetic"]["violations"]
            and row["hypothesis_equivalences_ok"],
        )
    _expect(
        expectations, "prop1-conventional-nonstandard",
        "the conventional-square condition is realizable by nonstandard elements",
        all(row["conventional"]["nonstandard_satisfiers"] > 0 for row in rows),
    )
    _expect(
        expectations, "prop1-synthetic-standard-only",
        "the synthetic-square condition forces [f] = [f¬] in this carrier",
        all(row["synthetic"]["nonstandard_satisfiers"] == 0 for row in rows),
    )
    return {"sweeps": rows}


def _matrix_section(expectations: list[dict], atom_count: int) -> dict:
    checks = matrix_properties()
    for name, ok in checks.items():
        _expect(expectations, f"matrix-{name.replace('_', '-')}", f"matrix logic: {name}", ok)
    return {"atom_count": atom_count, "elements": 4**atom_count, **checks}


def _bridge_section(expectations: list[dict], algebra: FiniteBooleanAlgebra) -> dict:
    tables = bridge_tables(algebra)
    strict_nonstandard, strict_top = tables[0], tables[4]  # the primary column, strict
    _expect(
        expectations, "bridge-strict-nonstandard-atom",
        "strict designation leaves the nonstandard a-form atom unsatisfied",
        not strict_nonstandard["satisfied"]["sa"],
    )
    _expect(
        expectations, "bridge-strict-axiom5-shape",
        "the axiom-5 shape is satisfied in the strict nonstandard model",
        strict_nonstandard["axiom5_shape_satisfied"],
    )
    _expect(
        expectations, "bridge-strict-top-atom",
        "the a-form atom is satisfied when the generator is *1",
        strict_top["satisfied"]["sa"],
    )
    return {"atom_count": algebra.atom_count, "tables": tables}


def _derivations_section(expectations: list[dict], results: tuple[CatalogResult, ...]) -> dict:
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
    _expect(
        expectations, "derivations-ok",
        "all bundled theorem derivations check under axiom5 + definitional schemas",
        all_ok,
    )
    _expect(
        expectations, "derivations-sound",
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
    DIRECT_NONEMPTY.sizes(model_bound)  # or the model bound's error
    algebra = FiniteBooleanAlgebra(atom_count)  # or the atom count's bound error
    expectations: list[dict] = []
    sections: dict = {}
    # one catalog run for both sections; an error is not cached, so each gets its marker
    catalog = functools.cache(lambda: run_catalog(model_bound, DIRECT_NONEMPTY))
    builders = (
        ("analytic_square", lambda: _analytic_section(expectations)),
        ("synthetic_square", lambda: _synthetic_square_section(expectations, model_bound)),
        ("theorem_catalog", lambda: _catalog_section(expectations, model_bound, catalog())),
        ("case_sweep", lambda: _case_section(expectations, algebra)),
        ("proposition1", lambda: _proposition1_section(expectations, atom_count)),
        ("matrix_properties", lambda: _matrix_section(expectations, atom_count)),
        ("bridge_models", lambda: _bridge_section(expectations, algebra)),
        ("derivations", lambda: _derivations_section(expectations, catalog())),
    )
    for name, build in builders:
        try:
            sections[name] = build()
        except TwoSquaresError as exc:  # partial report with a failure marker
            sections[name] = {"error": str(exc)}
            _expect(expectations, f"section-{name}", f"section {name} completed", False)
    return {
        "title": "two squares of opposition: verification report",
        "version": __version__,
        "bounds": {"model_bound": model_bound, "atom_count": atom_count},
        "sections": sections,
        "expectations": expectations,
        "notes": list(_NOTES),
        "pass": all(row["status"] == "met" for row in expectations),
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
