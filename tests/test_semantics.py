"""The two semantics records, and the entry points the benchmark reaches.

`analytic.AnalyticSemantics` and `synthetic.SyntheticOptions` give the
same five methods: `label`, `sizes`, `space`, `evaluate` and `decide`.
The benchmark in `perfbench/` calls the program by name: its tracer
rebinds the functions in `tracer.TARGETS`, and its `drive.py` builds the
semantics and decides queries, squares and catalogs.  A renamed entry
point fails here, not only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from twosquares import opposition
from twosquares.analytic import IMPORT_OFF, IMPORT_ON, AnalyticSemantics
from twosquares.errors import BoundError
from twosquares.formula import parse, term_names
from twosquares.search import Counterexample, Valid
from twosquares.synthetic import DIRECT_EMPTY_OK, DIRECT_NONEMPTY, Reading, SyntheticOptions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LABELS = [
    (AnalyticSemantics(IMPORT_ON), "analytic(import=on)"),
    (AnalyticSemantics(IMPORT_OFF), "analytic(import=off)"),
    (DIRECT_NONEMPTY, "synthetic(direct, nonempty)"),
    (DIRECT_EMPTY_OK, "synthetic(direct, empty-allowed)"),
    (SyntheticOptions(Reading.DERIVED_LITERAL), "synthetic(derived, nonempty)"),
    (SyntheticOptions(Reading.DERIVED_LITERAL, True), "synthetic(derived, empty-allowed)"),
    (SyntheticOptions(Reading.DERIVED_CHARITABLE), "synthetic(derived-charitable, nonempty)"),
    (SyntheticOptions(Reading.DERIVED_CHARITABLE, True), "synthetic(derived-charitable, empty-allowed)"),
]


@pytest.mark.parametrize("semantics, label", LABELS, ids=[label for _, label in LABELS])
def test_each_semantics_states_its_label(semantics, label):
    assert semantics.label() == label


@pytest.mark.parametrize(
    "semantics, sizes, refused, message",
    [
        (AnalyticSemantics(), range(0, 7), 7, "domain bound 7 outside 0..6"),
        (AnalyticSemantics(IMPORT_OFF), range(0, 7), -1, "domain bound -1 outside 0..6"),
        (DIRECT_NONEMPTY, range(1, 5), 0, "universe bound 0 outside 1..4 for direct"),
        (DIRECT_EMPTY_OK, range(0, 5), 5, "universe bound 5 outside 0..4 for direct"),
        (SyntheticOptions(Reading.DERIVED_LITERAL), range(1, 4), 4, "universe bound 4 outside 1..3 for derived"),
        # no copula structure is empty, so allowing the empty universe changes nothing
        (SyntheticOptions(Reading.DERIVED_CHARITABLE, True), range(1, 4), 0,
         "universe bound 0 outside 1..3 for derived-charitable"),
    ],
    ids=["analytic-7", "analytic-minus-1", "direct-0", "direct-empty-5", "derived-4", "charitable-empty-0"],
)
def test_each_semantics_states_its_bound(semantics, sizes, refused, message):
    assert semantics.sizes(sizes[-1]) == sizes
    with pytest.raises(BoundError, match=f"^{message}$"):
        semantics.sizes(refused)
    # the search space and the decision refuse the bound with the same error
    with pytest.raises(BoundError, match=f"^{message}$"):
        semantics.space(("P", "S"), refused)
    with pytest.raises(BoundError, match=f"^{message}$"):
        semantics.decide(parse("S sa P" if isinstance(semantics, SyntheticOptions) else "S a P"), refused)


@pytest.mark.parametrize("semantics", [s for s, _ in LABELS], ids=[label for _, label in LABELS])
def test_each_semantics_decides_over_its_space_and_evaluates_its_witness(semantics):
    f = parse("S so P -> P so S" if isinstance(semantics, SyntheticOptions) else "S a P -> S i P")
    verdict = semantics.decide(f, 3)
    space = semantics.space(term_names(f), 3)
    assert verdict == space.decide(f)
    if isinstance(verdict, Counterexample):
        assert semantics.evaluate(verdict.model, f) is False
    else:
        assert verdict == Valid(3)


def test_the_synthetic_semantics_are_its_options():
    assert opposition.SyntheticSemantics() is DIRECT_NONEMPTY
    options = SyntheticOptions(Reading.DERIVED_CHARITABLE)
    assert opposition.SyntheticSemantics(options) is options
    assert opposition.AnalyticSemantics is AnalyticSemantics


def tracer_targets():
    """`TARGETS` of `perfbench/tracer.py`, read from its source."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py names no TARGETS")


def test_every_function_the_tracer_rebinds_exists():
    targets = tracer_targets()
    assert len(targets) > 20
    for module, name, _, _ in targets:
        assert callable(getattr(importlib.import_module(f"twosquares.{module}"), name)), (module, name)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("drive"), importlib.import_module("tracer")


def test_each_benchmark_operation_runs_and_the_tracer_counts_each_decision(perfbench):
    drive, tracer = perfbench
    trace = tracer.Tracer()
    uninstall = trace.install()
    try:
        assert drive.run_query(
            {"kind": "decide", "family": "analytic", "texts": ["S a P -> S i P"], "bound": 2}
        ) == {"valid": 2}
        assert drive.run_query(
            {"kind": "decide", "family": "synthetic", "texts": ["S so P -> P so S"], "bound": 2}
        )["witness"] == {"universe": ["u"], "is": {"u": ["P"]}}
        for family, texts, kind in (("analytic", ["S a P", "S o P"], "contradictory"),
                                    ("synthetic", ["S sa P", "S si P"], "contrary")):
            query = {"kind": "classify", "family": family, "texts": texts, "bound": 2}
            assert drive.run_query(query)["kind"] == kind
        derived = drive.run_derived("derived-charitable", ["S sa P -> S se P"])
        assert len(derived["square"]) == 6 and len(derived["catalog"]) == 24
    finally:
        uninstall()
    # 23 distinct catalog formulas and one text under the derived reading, one direct query
    assert (trace.calls["analytic.decide"], trace.calls["synthetic.decide"]) == (1, 25)
    assert trace.calls["opposition.classify"] == 2 + 6
    assert trace.calls["opposition.catalog"] == 1
