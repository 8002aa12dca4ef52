"""Command-line driver.

Subcommands: eval, classify, square, prove, verify-paper, diagram.
Exit codes: 0 pass, 1 expectation failure, 2 usage or input error.
Each handler imports the report, the prover or the renderer it uses, so
that the other subcommands neither compile nor run them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analytic import IMPORT_OFF, IMPORT_ON, AnalyticModel
from .errors import SemanticsError, TwoSquaresError
from .formula import Schema, parse, render, term_names
from .opposition import (
    AnalyticSemantics,
    SyntheticSemantics,
    analytic_square,
    classify_pair,
    synthetic_square,
    verify_square,
)
from .synthetic import CopulaStructure, Reading, SyntheticModel, SyntheticOptions


def _synthetic_options(args) -> SyntheticOptions:
    return SyntheticOptions(Reading(args.reading), args.allow_empty)


def _semantics(args):
    if args.semantics == "analytic":
        return AnalyticSemantics(IMPORT_ON if args.existential_import == "on" else IMPORT_OFF)
    return SyntheticSemantics(_synthetic_options(args))


def _add_semantics_flags(sub) -> None:
    sub.add_argument("--semantics", choices=("analytic", "synthetic"), default="synthetic")
    sub.add_argument("--import", dest="existential_import", choices=("on", "off"), default="on")
    sub.add_argument(
        "--reading", choices=tuple(r.value for r in Reading), default=Reading.DIRECT.value
    )
    sub.add_argument("--allow-empty", action="store_true")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_model(path: str, args):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise SemanticsError(f"model file {path!r} nests too deeply") from None
    if args.semantics == "analytic":
        return AnalyticModel.from_dict(data)
    if Reading(args.reading) is Reading.DIRECT:
        return SyntheticModel.from_dict(data)
    return CopulaStructure.from_dict(data)


def _cmd_eval(args) -> int:
    semantics = _semantics(args)
    formula = parse(args.formula)
    model = _load_model(args.model, args)
    value = semantics.evaluate(model, formula)
    if args.json:
        _write(json.dumps({"formula": render(formula), "value": value}) + "\n", args.out)
    else:
        _write(("true" if value else "false") + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    semantics = _semantics(args)
    first, second = parse(args.first), parse(args.second)
    metavars = tuple(sorted(set(term_names(first)) | set(term_names(second))))
    relation = classify_pair(
        Schema(first, tuple(m for m in metavars if m in term_names(first))),
        Schema(second, tuple(m for m in metavars if m in term_names(second))),
        semantics,
        args.bound,
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
    if args.semantics == "analytic":
        return verify_square(analytic_square(), _semantics(args), args.bound)
    return verify_square(synthetic_square(), _semantics(args), args.bound)


def _cmd_square(args) -> int:
    report = _square_report(args)
    if args.json:
        from .diagram import square_dict

        _write(json.dumps(square_dict(report), indent=2) + "\n", args.out)
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


def _cmd_diagram(args) -> int:
    from .diagram import emit_diagram

    report = _square_report(args)
    _write(emit_diagram(report), args.out)
    return 0 if report.passed else 1


def _axiom_set(spec: str):
    from .proofs import AxiomSet

    return AxiomSet(frozenset(w.strip() for w in spec.split(",") if w.strip()))


def _cmd_prove(args) -> int:
    from .proofs import check_derivation, parse_script

    with open(args.script, encoding="utf-8") as handle:
        derivation = parse_script(handle.read())
    result = check_derivation(derivation, _axiom_set(args.axioms))
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


def _cmd_verify_paper(args) -> int:
    from .report import report_json, report_text, run_verify_paper

    report = run_verify_paper(args.bound, args.atoms)
    _write(report_json(report) if args.json else report_text(report), args.out)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="verification workbench for the analytic and synthetic squares of opposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula against a model file")
    p_eval.add_argument("formula")
    p_eval.add_argument("--model", required=True, help="JSON model file")
    _add_semantics_flags(p_eval)

    p_classify = sub.add_parser("classify", help="classify the opposition relation of two formulas")
    p_classify.add_argument("first")
    p_classify.add_argument("second")
    _add_semantics_flags(p_classify)
    p_classify.add_argument("--bound", type=int, default=3)

    p_square = sub.add_parser("square", help="verify a full square of opposition")
    _add_semantics_flags(p_square)
    p_square.add_argument("--bound", type=int, default=3)

    p_diagram = sub.add_parser("diagram", help="emit a DOT diagram of a verified square")
    _add_semantics_flags(p_diagram)
    p_diagram.add_argument("--bound", type=int, default=3)

    p_prove = sub.add_parser("prove", help="check a proof script")
    p_prove.add_argument("script")
    p_prove.add_argument(
        "--axioms", default="a5,a6,a7,a8,def",
        help="comma list from a5,a6,a7,a8,def (default: all)",
    )

    p_verify = sub.add_parser("verify-paper", help="run the full verification suite")
    p_verify.add_argument("--bound", type=int, default=3, help="synthetic model bound (1..4)")
    p_verify.add_argument("--atoms", type=int, default=2, help="algebra atom count (1..4)")

    for p in (p_eval, p_classify, p_square, p_diagram, p_prove, p_verify):
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write output to FILE instead of stdout")
    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "square": _cmd_square,
    "diagram": _cmd_diagram,
    "prove": _cmd_prove,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TwoSquaresError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
