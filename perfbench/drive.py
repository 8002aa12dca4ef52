"""Calls into the program under test, and the fresh-interpreter entry.

Every call goes through the module attribute (``synthetic.decide_...``)
so that the tracer's rebinding, when installed, sees it.  Results are
turned into plain dicts, in the program's own model-file shape, for the
reference checks in `checks`.

As a script this is the fresh interpreter that a `setup` measurement, a
`derived` operation, a `twosquares` command line or the query stream
starts::

    python3 -S perfbench/drive.py setup WORKLOAD SEED
    python3 -S perfbench/drive.py derived SIDE_FILE OP TRACE READING TEXTS_JSON
    python3 -S perfbench/drive.py cli SIDE_FILE OP TRACE -- CLI_ARGS...
    python3 -S perfbench/drive.py queries

`derived` prints its results as JSON; `cli` runs `twosquares.cli.main`
on CLI_ARGS, which prints as the command would.  Both write to SIDE_FILE
the import time, the calibration samples taken while the program ran,
the peak resident memory and, when TRACE is 1, the tracer's dump.
`queries` answers requests on standard input (see `serve_queries`).
The parent puts the checkout's ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import stats

DERIVED_BOUND = 3
SETUP_SAMPLE_EVERY_S = 0.02  # set-up takes a fraction of a second


def verdict_dict(verdict) -> dict:
    """{"valid": bound} or {"witness": model dict, "trace": atom values}."""
    if type(verdict).__name__ == "Valid":
        return {"valid": verdict.bound}
    return {"witness": verdict.model.to_dict(), "trace": [list(p) for p in verdict.atom_trace]}


def relation_dict(relation) -> dict:
    return {
        "kind": relation.kind.value,
        "witnesses": {name: m.to_dict() for name, m in relation.witnesses().items()},
    }


def query_semantics(family: str):
    from twosquares import analytic, opposition

    if family == "analytic":
        return opposition.AnalyticSemantics(analytic.IMPORT_ON)
    return opposition.SyntheticSemantics()


def run_query(query: dict) -> dict:
    """Parse and decide one query from `gen.query_stream`."""
    from twosquares import analytic, formula, opposition, synthetic

    parsed = [formula.parse(text) for text in query["texts"]]
    if query["kind"] == "classify":
        metavars = formula.term_names(parsed[0])
        relation = opposition.classify_pair(
            formula.Schema(parsed[0], metavars),
            formula.Schema(parsed[1], metavars),
            query_semantics(query["family"]),
            query["bound"],
        )
        return relation_dict(relation)
    if query["family"] == "analytic":
        verdict = analytic.decide_analytic_validity(parsed[0], query["bound"], analytic.IMPORT_ON)
    else:
        verdict = synthetic.decide_synthetic_validity(
            parsed[0], query["bound"], synthetic.DIRECT_NONEMPTY
        )
    return verdict_dict(verdict)


def run_derived(reading: str, texts: list[str]) -> dict:
    """One derived operation: the synthetic square, the claim catalog and
    the given formulas, all at bound 3 under one derived reading."""
    from twosquares import formula, opposition, synthetic

    options = synthetic.SyntheticOptions(synthetic.Reading(reading))
    semantics = opposition.SyntheticSemantics(options)
    square = opposition.verify_square(opposition.synthetic_square(), semantics, DERIVED_BOUND)
    catalog = opposition.run_catalog(DERIVED_BOUND, options)
    decided = [semantics.decide(formula.parse(text), DERIVED_BOUND) for text in texts]
    return {
        "square": {f"{p.first}-{p.second}": relation_dict(p.relation) for p in square.pairs},
        "catalog": {r.entry.id: verdict_dict(r.verdict) for r in catalog},
        "catalog_formulas": {r.entry.id: formula_tuple(r.entry.schema.formula) for r in catalog},
        "formulas": [verdict_dict(v) for v in decided],
    }


def formula_tuple(f):
    """The program's formula AST in the benchmark's tuple form."""
    name = type(f).__name__
    if name == "Atom":
        return ["atom", f.subject, f.copula.value, f.predicate]
    if name == "Not":
        return ["not", formula_tuple(f.operand)]
    tag = {"And": "and", "Or": "or", "Implies": "imp"}[name]
    return [tag, formula_tuple(f.left), formula_tuple(f.right)]


def _measured(side_file: str, op: int, trace: bool, work):
    """Import the CLI, then run `work()`, under a calibration sampler and,
    if `trace`, a tracer; write what they saw to `side_file` and return
    the work's result."""
    t = uninstall = None
    with stats.Sampler() as sampler:
        import_s = _import_cli()
        if trace:
            import tracer

            t = tracer.Tracer()
            t.begin_op(op)
            uninstall = t.install()
        try:
            result = work()
        finally:
            if uninstall:
                uninstall()
    side = {"import_s": import_s, "calibration": sampler.samples, "busy_s": sampler.busy_s,
            "maxrss_kb": _maxrss_kb()}
    if t is not None:
        side["trace"] = t.dump()
    with open(side_file, "w", encoding="utf-8") as handle:
        json.dump(side, handle)
    return result


def serve_queries(lines) -> None:
    """Answer one JSON request per line of `lines` with one JSON line:

        {"query": QUERY, "op": K}  ->  {"s": SECONDS, "result": ...}
                                       or {"s": SECONDS, "error": ...}
        {"trace": true}            ->  {}, and later queries are traced
        {"trace": false}           ->  the tracer's dump; tracing stops

    QUERY is a query of `gen.query_stream` without its formula tuples;
    SECONDS is the time of parsing and deciding it.  A first line {}
    follows the import of the program, a last one {"maxrss_kb": ...} the
    end of input."""
    _import_cli()
    _reply({})
    t = uninstall = None
    for line in lines:
        request = json.loads(line)
        if request.get("trace") is True:
            import tracer

            t = tracer.Tracer()
            uninstall = t.install()
            _reply({})
        elif request.get("trace") is False:
            uninstall()
            _reply(t.dump())
            t = uninstall = None
        else:
            if t is not None:
                t.begin_op(request["op"])
            start = time.perf_counter()
            try:
                reply = {"result": run_query(request["query"])}
            except Exception as exc:  # a program error fails this query only
                reply = {"error": repr(exc)}
            reply["s"] = time.perf_counter() - start
            _reply(reply)
    _reply({"maxrss_kb": _maxrss_kb()})


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_cli() -> float:
    start = time.perf_counter()
    import twosquares.cli  # noqa: F401

    return time.perf_counter() - start


def _cli(args: list[str]) -> int:
    import twosquares.cli

    return twosquares.cli.main(args)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        with stats.Sampler(SETUP_SAMPLE_EVERY_S) as sampler:
            import_s = _import_cli()
            import gen

            gen.first_input(argv[1], int(argv[2]))
        print(json.dumps({"import_s": import_s, "calibration": sampler.samples,
                          "busy_s": sampler.busy_s}))
        return 0
    if mode == "queries":
        serve_queries(sys.stdin)
        return 0
    side_file, op, trace = argv[1], int(argv[2]), argv[3] == "1"
    if mode == "derived":
        reading, texts = argv[4], json.loads(argv[5])
        print(json.dumps(_measured(side_file, op, trace, lambda: run_derived(reading, texts))))
        return 0
    if mode == "cli":
        return _measured(side_file, op, trace, lambda: _cli(argv[5:]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
