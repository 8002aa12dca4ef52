"""Reference checks on every operation's output.

Each function returns a list of problems; an empty list means the
output passed.  The checks use only the benchmark's own reference
evaluators and the expected file they produced.
"""

from __future__ import annotations

import json

import gen
import make_expected
import reference

PAPER_WITNESS_SIZES = {"A6": 1, "A8": 2}


def _tupled(f):
    return tuple(_tupled(x) if isinstance(x, list) else x for x in f)


# --- paper -------------------------------------------------------------------

def check_paper(code: int, out: bytes, first_report: bytes | None) -> list[str]:
    """A cold `verify-paper --json` run: exit 0, pass, every expectation
    met, the pinned A6/A8 witness sizes, and byte-identical repeats."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("pass") is not True:
        problems.append("report does not pass")
    unmet = [row["id"] for row in report.get("expectations", []) if row["status"] != "met"]
    if unmet or not report.get("expectations"):
        problems.append(f"expectations not met: {unmet or 'none listed'}")
    entries = {e["id"]: e for e in report["sections"]["theorem_catalog"]["entries"]}
    for cid, size in PAPER_WITNESS_SIZES.items():
        witness = entries.get(cid, {}).get("witness", {})
        if len(witness.get("universe", ())) != size:
            problems.append(f"{cid} witness is not of size {size}")
    if first_report is not None and out != first_report:
        problems.append("report differs from the first one at these bounds")
    return problems


# --- verdicts ------------------------------------------------------------------

def check_verdict(f, verdict: dict, bound: int, expected_size: int | None, types_of) -> list[str]:
    """Check a decide verdict against the smallest falsifier size.

    `types_of(witness)` gives the witness's individual types over the
    formula's sorted terms."""
    if expected_size is None:
        if verdict.get("valid") != bound:
            return [f"expected valid up to bound {bound}, got {_short(verdict)}"]
        return []
    if "witness" not in verdict:
        return [f"expected a counterexample of size {expected_size}, got {_short(verdict)}"]
    witness = verdict["witness"]
    terms = gen.terms(f)
    types = types_of(witness)
    problems = []
    if len(types) != expected_size:
        problems.append(f"witness size {len(types)}, smallest falsifier {expected_size}")
    if reference.compile_formula(f, terms)(types):
        problems.append("witness does not falsify the formula")
    for text, value in verdict["trace"]:
        s, cop, p = text.split()
        if reference.compile_formula(("atom", s, cop, p), terms)(types) != value:
            problems.append(f"atom value of {text!r} is wrong in the witness")
    return problems


def check_relation(pair, relation: dict, sizes: dict, types_of) -> list[str]:
    """Check a classify_pair result against reference category sizes."""
    problems = []
    kind = reference.relation_kind(sizes)
    if relation["kind"] != kind:
        problems.append(f"relation {relation['kind']}, reference {kind}")
    terms = gen.terms(pair[0])
    p1, p2 = (reference.compile_formula(f, terms) for f in pair)
    for name in reference.CATEGORIES:
        model = relation["witnesses"].get(name)
        if model is None:
            if sizes[name] is not None:
                problems.append(f"no {name} witness, reference has size {sizes[name]}")
            continue
        types = types_of(model)
        if reference.category(p1(types), p2(types)) != name:
            problems.append(f"{name} witness is in another category")
        if len(types) != sizes[name]:
            problems.append(f"{name} witness size {len(types)}, smallest {sizes[name]}")
    return problems


def _short(verdict: dict) -> str:
    return "valid" if "valid" in verdict else "a counterexample"


# --- queries -----------------------------------------------------------------

def check_query(query: dict, result: dict) -> list[str]:
    terms = gen.terms(query["formulas"][0])

    def types_of(model):
        return reference.model_types(model, terms)

    if query["kind"] == "decide":
        return check_verdict(
            query["formulas"][0], result, query["bound"], query["min_falsifier"], types_of
        )
    allow_empty = query["family"] == "analytic"
    sized = (
        (ts, len(ts)) for ts in reference.typesets(len(terms), query["bound"], allow_empty)
    )
    preds = [reference.compile_formula(f, terms) for f in query["formulas"]]
    return check_relation(
        query["formulas"], result, reference.pair_profile(*preds, sized), types_of
    )


# --- derived -----------------------------------------------------------------

def check_derived(reading: str, formulas: list, result: dict, expected: dict) -> list[str]:
    """A derived operation: every witness re-checked by the composite
    copula evaluator, every status compared with the expected file.
    `formulas` pairs each decided formula with its expected smallest
    counter-structure size."""
    charitable = reading == "derived-charitable"
    bound = expected["bound"]

    def types_for(f):
        terms = gen.terms(f)
        return lambda structure: reference.derived_types(structure, terms, charitable)

    problems = []
    if sorted(result["square"]) != sorted(expected["square"][reading]):
        problems.append("square pairs differ from the paper's")
    for label, relation in result["square"].items():
        want = expected["square"][reading][label]
        first, second = (make_expected.SQUARE_CORNERS[c] for c in label.split("-"))
        problems += [
            f"square {label}: {p}"
            for p in check_relation((first, second), relation, want["sizes"], types_for(first))
        ]
    catalog_expected = expected["catalog"][reading]
    if sorted(result["catalog"]) != sorted(catalog_expected):
        problems.append("catalog ids differ from the paper's")
    for cid, verdict in result["catalog"].items():
        f = _tupled(result["catalog_formulas"][cid])
        if f != make_expected.CATALOG.get(cid):
            problems.append(f"catalog {cid}: formula differs from the paper's")
            continue
        problems += [
            f"catalog {cid}: {p}"
            for p in check_verdict(f, verdict, bound, catalog_expected[cid], types_for(f))
        ]
    for (f, size), verdict in zip(formulas, result["formulas"]):
        problems += [
            f"{gen.render(f)}: {p}" for p in check_verdict(f, verdict, bound, size, types_for(f))
        ]
    if len(result["formulas"]) != len(formulas):
        problems.append("not every formula was decided")
    return problems

