"""The handlers of `eval`, `classify`, `square`, `diagram` and `prove`,
which `cli` loads when one of them runs; only `prove` loads the prover.
A square's text and DOT writers both sit here: compiling the DOT writer
costs `square` and `eval` about 1 ms a cold process (medians of 30
alternating ones, `python -S`, no bytecode cache, shared 2-core host:
54.1 -> 55.2 and 53.7 -> 54.4 ms), against a module of its own."""

from __future__ import annotations

import json

from .analytic import WITH_IMPORT, WITHOUT_IMPORT
from .cli import _write
from .errors import InputError, SemanticsError
from .formula import Schema, parse, render, term_names
from .opposition import (
    PairVerdict,
    RelationKind,
    analytic_square,
    classify_pair,
    synthetic_square,
    verify_square,
)
from .search import Model
from .synthetic import Reading, SyntheticOptions


def _semantics(args):
    if args.semantics == "analytic":
        return WITH_IMPORT if args.existential_import == "on" else WITHOUT_IMPORT
    return SyntheticOptions(Reading(args.reading), args.allow_empty)


def _load_model(path: str, args):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise SemanticsError(f"model file {path!r} nests too deeply") from None
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past `int`'s digit limit
            raise SemanticsError(f"model file {path!r} is not UTF-8 JSON: {exc}") from None
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


_EDGE_STYLE = {
    RelationKind.CONTRARY: 'dir=none, style=dashed',
    RelationKind.SUBCONTRARY: 'dir=none, style=dotted',
    RelationKind.CONTRADICTORY: 'dir=both, style=bold',
    RelationKind.SUBALTERNATION_FORWARD: 'dir=forward, style=solid',
    RelationKind.SUBALTERNATION_BACKWARD: 'dir=back, style=solid',
    RelationKind.INDEPENDENT: 'dir=none, style=solid',
}


def _edge(pair: PairVerdict) -> str:
    label = pair.relation.kind.value
    style = _EDGE_STYLE[pair.relation.kind]
    color = ""
    if not pair.ok:
        witness = ""
        for name, model in pair.relation.witnesses().items():
            witness = f"; witness {name}: {model.summary()}"
            break
        label = f"expected {pair.expected.value}, got {pair.relation.kind.value}{witness}"
        color = ', color=red'
    return f'  {pair.first} -> {pair.second} [label="{label}", {style}{color}];'


def run_diagram(args) -> int:
    """A byte-stable DOT digraph: four corner nodes, six labeled edges whose
    style is fixed by the relation kind; failing edges turn red and carry
    their witness."""
    report = _square_report(args)
    lines = [f"digraph {report.name}_square {{"]
    lines.append(f'  label="{report.name} square of opposition ({report.semantics_label}, bound {report.bound})";')
    lines.append("  node [shape=plaintext];")
    for corner in ("a", "i", "e", "o"):
        lines.append(f'  {corner} [label="{report.corner_text[corner]}"];')
    for pair in report.pairs:
        lines.append(_edge(pair))
    lines.append("}")
    _write("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def run_prove(args) -> int:
    from .proofs import AxiomSet, check_derivation
    from .proofscript import parse_script

    with open(args.script, encoding="utf-8") as handle:
        try:
            derivation = parse_script(handle.read())
        except UnicodeDecodeError:
            raise InputError(f"proof script {args.script!r} is not UTF-8") from None
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
