"""The handlers of `eval`, `classify`, `square`, `diagram` and `prove`,
which `cli` loads when one of them runs.  Each imports the renderer or
the prover it uses, so that the others neither compile nor run those."""

from __future__ import annotations

import json

from .cli import _write
from .errors import SemanticsError
from .formula import Schema, parse, render, term_names
from .opposition import (
    AnalyticSemantics, SyntheticSemantics, analytic_square, classify_pair, synthetic_square, verify_square
)
from .search import Model
from .synthetic import Reading, SyntheticOptions


def _semantics(args):
    if args.semantics == "analytic":
        return AnalyticSemantics(args.existential_import == "on")
    return SyntheticSemantics(SyntheticOptions(Reading(args.reading), args.allow_empty))


def _load_model(path: str, args):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise SemanticsError(f"model file {path!r} nests too deeply") from None
    if args.semantics == "analytic" or Reading(args.reading) is Reading.DIRECT:
        return Model.from_dict(data, args.semantics != "analytic")
    from .copula import CopulaStructure

    return CopulaStructure.from_dict(data)


def run_eval(args) -> int:
    semantics = _semantics(args)
    formula = parse(args.formula)
    model = _load_model(args.model, args)
    value = semantics.evaluate(model, formula)
    if args.json:
        _write(json.dumps({"formula": render(formula), "value": value}) + "\n", args.out)
    else:
        _write(("true" if value else "false") + "\n", args.out)
    return 0


def run_classify(args) -> int:
    semantics = _semantics(args)
    first, second = parse(args.first), parse(args.second)
    relation = classify_pair(
        Schema(first, term_names(first)), Schema(second, term_names(second)), semantics, args.bound
    )
    if args.json:
        payload = {
            "first": render(first),
            "second": render(second),
            "semantics": semantics.label(),
            "bound": args.bound,
            "relation": relation.kind.value,
            "witnesses": {k: m.to_dict() for k, m in relation.witnesses().items()},
        }
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"{render(first)}  /  {render(second)}: {relation.kind.value} (bound {args.bound})"]
        for name, model in relation.witnesses().items():
            lines.append(f"  {name}: {model.summary()}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _square_report(args):
    spec = analytic_square() if args.semantics == "analytic" else synthetic_square()
    return verify_square(spec, _semantics(args), args.bound)


def run_square(args) -> int:
    report = _square_report(args)
    if args.json:
        _write(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    else:
        lines = [f"{report.name} square ({report.semantics_label}, bound {report.bound})"]
        for pv in report.pairs:
            mark = "ok  " if pv.ok else "FAIL"
            lines.append(
                f"  [{mark}] {pv.first}-{pv.second}: expected {pv.expected.value}, "
                f"got {pv.relation.kind.value}"
            )
        lines.append("PASS" if report.passed else "FAIL")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def run_diagram(args) -> int:
    from .diagram import emit_diagram

    report = _square_report(args)
    _write(emit_diagram(report), args.out)
    return 0 if report.passed else 1


def run_prove(args) -> int:
    from .proofs import AxiomSet, check_derivation
    from .proofscript import parse_script

    with open(args.script, encoding="utf-8") as handle:
        derivation = parse_script(handle.read())
    axioms = AxiomSet(frozenset(w.strip() for w in args.axioms.split(",") if w.strip()))
    result = check_derivation(derivation, axioms)
    conclusion = derivation.conclusion
    if args.json:
        payload = {
            "ok": result.ok,
            "detail": result.describe(),
            "conclusion": render(conclusion) if conclusion is not None else None,
        }
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        line = result.describe()
        if result.ok and conclusion is not None:
            line += f"; derives {render(conclusion)}"
        _write(line + "\n", args.out)
    return 0 if result.ok else 1
