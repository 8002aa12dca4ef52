"""Whole-catalog verification run and its deterministic report.

`run_verify_paper` executes every check the package makes about the two
squares: the conventional square under Venn semantics, the synthetic
square and claim catalog under the direct reading, the twelve-case
sweep, the two-square classification and matrix properties on the
nonstandard carrier, the bridge satisfaction tables, and the bundled
derivations.  Their modules decide each check and write each verdict,
square and catalog row as JSON.  Each section here returns its data and
its expectation rows, one `(id, description, status)` per check, and
`run_verify_paper` arranges both.  The result is a plain dict that
serializes byte-stably: all iteration is over explicitly ordered data,
and no timestamps or environment details are recorded.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable

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

Section = tuple[dict, list[tuple]]  # a section's data and its expectation rows

_NOTES = (
    "universal-affirmative: the bare-existence disjunct is implemented literally, "
    "so `S sa P` is true whenever anything is S",
    "strict designation is never met by a nonstandard atom value; the filter "
    "policy is reported alongside",
    "all validity verdicts are bounded; no unbounded validity claim is made",
    "the carrier results (case sweep, proposition 1, matrix properties) hold for every "
    "finite atom count: the n-atom carrier is the n-th direct power of the one-atom "
    "carrier, which decides them",
)


def _analytic_section() -> Section:
    report = verify_square(analytic_square(), WITH_IMPORT, ANALYTIC_SQUARE_BOUND)
    formula = "S a P -> S i P"
    subalt = WITHOUT_IMPORT.decide(parse(formula), ANALYTIC_SQUARE_BOUND)
    empty_subject = isinstance(subalt, Counterexample) and not subalt.model.extent("S")
    section = {
        "square": report.to_dict(),
        "subalternation_without_import": {
            "formula": formula,
            **subalt.to_dict(),
            "empty_subject_witness": empty_subject,
        },
    }
    return section, [
        ("analytic-square",
         f"conventional square holds with import on, |D| <= {ANALYTIC_SQUARE_BOUND}",
         report.passed),
        ("analytic-subalternation-import-off",
         "a=>i fails without import, empty-subject witness",
         empty_subject),
    ]


def _synthetic_square_section(model_bound: int) -> Section:
    report = verify_square(synthetic_square(), DIRECT_NONEMPTY, model_bound)
    description = f"synthetic square holds, direct reading, 1 <= |U| <= {model_bound}"
    return report.to_dict(), [("synthetic-square", description, report.passed)]


def _catalog_section(model_bound: int, catalog: Callable[[], tuple[CatalogResult, ...]]) -> Section:
    results = catalog()
    entries = [r.to_dict(DIRECT_NONEMPTY.label()) for r in results]
    t19 = next(r.entry for r in results if r.entry.id == "T19")
    boundary = check_entry(t19, model_bound, DIRECT_EMPTY_OK.decide)
    boundary_failed = (
        isinstance(boundary.verdict, Counterexample)
        and len(boundary.verdict.model.universe) == 0
    )
    section = {
        "bound": model_bound,
        "entries": entries,
        "empty_universe_boundary": boundary.to_dict(DIRECT_EMPTY_OK.label()),
    }
    rows = [(e["id"], f"{e['schema']} expected {e['expected']}", e["met"]) for e in entries]
    rows.append(("catalog-empty-boundary",
                 "admitting the empty universe breaks a-i contrariety (T19) with witness U = {}",
                 boundary_failed))
    return section, rows


def _case_section(algebra: FiniteBooleanAlgebra) -> Section:
    atom_count = algebra.atom_count
    counts, violations, standard_ok = case_analysis(algebra)
    section = {
        "atom_count": atom_count,
        "elements": 4**atom_count,
        "cases": [{"case": case, "hypothesis_holds_for": k} for case, k in enumerate(counts, 1)],
        "conclusion_violations": violations,
        "inf_sup_standard": standard_ok,
    }
    return section, [
        ("case-sweep",
         "cases 1-12 conclusions hold for every hypothesis-satisfying element "
         f"({atom_count} atoms)",
         violations == 0),
        ("inf-sup-standard",
         "inf(x, x-flip) and sup(x, x-flip) are standard for every x",
         standard_ok),
    ]


def _proposition1_section(atom_count: int) -> Section:
    sweeps = [verify_two_squares(FiniteBooleanAlgebra(k)) for k in range(1, atom_count + 1)]
    rows = [
        (f"proposition1-{s['atom_count']}atom",
         f"two-square sweep passes over the {s['atom_count']}-atom carrier",
         not s["conventional"]["violations"]
         and not s["synthetic"]["violations"]
         and s["hypothesis_equivalences_ok"])
        for s in sweeps
    ]
    rows += [
        ("prop1-conventional-nonstandard",
         "the conventional-square condition is realizable by nonstandard elements",
         all(s["conventional"]["nonstandard_satisfiers"] > 0 for s in sweeps)),
        ("prop1-synthetic-standard-only",
         "the synthetic-square condition forces [f] = [f¬] in this carrier",
         all(s["synthetic"]["nonstandard_satisfiers"] == 0 for s in sweeps)),
    ]
    return {"sweeps": sweeps}, rows


def _matrix_section(atom_count: int) -> Section:
    checks = matrix_properties()
    rows = [(f"matrix-{n.replace('_', '-')}", f"matrix logic: {n}", ok) for n, ok in checks.items()]
    return {"atom_count": atom_count, "elements": 4**atom_count, **checks}, rows


def _bridge_section(algebra: FiniteBooleanAlgebra) -> Section:
    tables = bridge_tables(algebra)
    strict_nonstandard, strict_top = tables[0], tables[4]  # the primary column, strict
    return {"atom_count": algebra.atom_count, "tables": tables}, [
        ("bridge-strict-nonstandard-atom",
         "strict designation leaves the nonstandard a-form atom unsatisfied",
         not strict_nonstandard["satisfied"]["sa"]),
        ("bridge-strict-axiom5-shape",
         "the axiom-5 shape is satisfied in the strict nonstandard model",
         strict_nonstandard["axiom5_shape_satisfied"]),
        ("bridge-strict-top-atom",
         "the a-form atom is satisfied when the generator is *1",
         strict_top["satisfied"]["sa"]),
    ]


def _derivations_section(catalog: Callable[[], tuple[CatalogResult, ...]]) -> Section:
    """Check each bundled derivation; its semantic status is the catalog's
    verdict for that theorem."""
    results = {r.entry.id: r for r in catalog()}
    entries = []
    all_ok = all_valid = True
    for tid, derivation in sorted(bundled_theorem_derivations().items()):
        target = results[tid]
        result = check_proves(derivation, target.entry.schema.formula, AXIOM5_WITH_DEFINITIONS)
        all_ok = all_ok and result.ok
        all_valid = all_valid and isinstance(target.verdict, Valid)
        entries.append(
            {
                "id": tid,
                "lines": len(derivation.lines),
                "check": result.describe(),
                "semantic_status": target.verdict.describe(),
            }
        )
    return {"axiom_set": "axiom5 + definitional schemas", "entries": entries}, [
        ("derivations-ok",
         "all bundled theorem derivations check under axiom5 + definitional schemas",
         all_ok),
        ("derivations-sound",
         "every bundled conclusion is confirmed valid by the model checker",
         all_valid),
    ]


def run_verify_paper(model_bound: int = 3, atom_count: int = 2) -> dict:
    """Run the full verification and return the report dict.

    `model_bound` caps the synthetic-model sweeps (catalog, axioms, the
    synthetic square); the analytic square always runs at domain bound
    4, which is what its claim is about.  `atom_count` is the
    carrier's atom count: the bridge models are built on it, and the
    carrier sections describe it but are decided on one atom (see
    `starb`).  Each section returns its data and its expectation rows.
    A section that fails records its error, with one failed row in place
    of its rows; the report's "pass" is true iff every expectation is met.
    """
    DIRECT_NONEMPTY.sizes(model_bound)  # or the model bound's error
    algebra = FiniteBooleanAlgebra(atom_count)  # or the atom count's bound error
    # one catalog run for both sections; an error is not cached, so each gets its marker
    catalog = functools.cache(lambda: run_catalog(model_bound, DIRECT_NONEMPTY))
    sections: dict = {}
    expectations: list[dict] = []
    for name, build, *args in (
        ("analytic_square", _analytic_section),
        ("synthetic_square", _synthetic_square_section, model_bound),
        ("theorem_catalog", _catalog_section, model_bound, catalog),
        ("case_sweep", _case_section, algebra),
        ("proposition1", _proposition1_section, atom_count),
        ("matrix_properties", _matrix_section, atom_count),
        ("bridge_models", _bridge_section, algebra),
        ("derivations", _derivations_section, catalog),
    ):
        try:
            sections[name], rows = build(*args)
        except TwoSquaresError as exc:  # partial report with a failure marker
            sections[name] = {"error": str(exc)}
            rows = [(f"section-{name}", f"section {name} completed", False)]
        for check_id, description, status in rows:
            if isinstance(status, bool):  # a bool status reads as met or failed
                status = "met" if status else "failed"
            expectations.append({"id": check_id, "description": description, "status": status})
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
