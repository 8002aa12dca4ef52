import functools
import json

import pytest

from twosquares import opposition
from twosquares.analytic import IMPORT_ON
from twosquares.copula import enumerate_copula_structures
from twosquares.errors import BoundError, SemanticsError
from twosquares.formula import Schema, holds, instantiate, parse, render, schema_of, term_names
from twosquares.opposition import (
    AnalyticSemantics,
    RelationKind,
    SquareSpec,
    SyntheticSemantics,
    analytic_square,
    catalog_entries,
    check_entry,
    classify_pair,
    run_catalog,
    synthetic_square,
    verify_square,
)
from twosquares.search import Counterexample, Model, Valid
from twosquares.synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    MAX_UNIVERSE_DERIVED,
    Reading,
    SyntheticOptions,
    decide_synthetic_validity,
    eval_synthetic,
)

from oracles import (
    derived_image,
    first_counterexample,
    induced_models,
    scan_classify,
    structure_walk,
    verdict_bytes,
)

ANALYTIC = AnalyticSemantics(IMPORT_ON)
SYNTHETIC = SyntheticSemantics(DIRECT_NONEMPTY)


def test_analytic_a_e_contrary():
    rel = classify_pair(schema_of("S a P"), schema_of("S e P"), ANALYTIC, 3)
    assert rel.kind is RelationKind.CONTRARY
    assert rel.both_true is None and rel.both_false is not None


def test_synthetic_a_i_contrary():
    rel = classify_pair(schema_of("S sa P"), schema_of("S si P"), SYNTHETIC, 3)
    assert rel.kind is RelationKind.CONTRARY


def test_synthetic_a_o_contradictory():
    rel = classify_pair(schema_of("S sa P"), schema_of("S so P"), SYNTHETIC, 3)
    assert rel.kind is RelationKind.CONTRADICTORY
    assert rel.both_true is None and rel.both_false is None


def test_classify_rejects_copula_family_mismatch():
    with pytest.raises(SemanticsError):
        classify_pair(schema_of("S a P"), schema_of("S e P"), SYNTHETIC, 2)


def test_classify_rejects_terms_outside_the_metavariables():
    # Q is in the formula but is no metavariable, so no model gives it a meaning.
    for semantics, text in ((SYNTHETIC, "S sa P & S sa Q"), (ANALYTIC, "S a P & S a Q")):
        phi = Schema(parse(text), ("S", "P"))
        with pytest.raises(SemanticsError):
            classify_pair(phi, schema_of(text.split(" & ")[0]), semantics, 2)


def test_square_needs_exactly_the_six_corner_pairs():
    square = analytic_square()
    five = square.expected[:5]
    for expected in (five, five + square.expected[:1]):
        with pytest.raises(ValueError, match="^a square needs exactly the six corner pairs$"):
            SquareSpec(square.name, square.corners, expected)
    assert SquareSpec(square.name, square.corners, square.expected) == square


def test_classify_rejects_metavariable_mismatch():
    with pytest.raises(ValueError):
        classify_pair(schema_of("S sa P"), schema_of("S si Q"), SYNTHETIC, 2)


def test_relation_symmetry_of_the_symmetric_kinds():
    pairs = [("S sa P", "S si P"), ("S sa P", "S so P"), ("S se P", "S so P")]
    for left, right in pairs:
        ab = classify_pair(schema_of(left), schema_of(right), SYNTHETIC, 2)
        ba = classify_pair(schema_of(right), schema_of(left), SYNTHETIC, 2)
        assert ab.kind is ba.kind


def test_subalternation_flips_orientation():
    fwd = classify_pair(schema_of("S sa P"), schema_of("S se P"), SYNTHETIC, 2)
    back = classify_pair(schema_of("S se P"), schema_of("S sa P"), SYNTHETIC, 2)
    assert fwd.kind is RelationKind.SUBALTERNATION_FORWARD
    assert back.kind is RelationKind.SUBALTERNATION_BACKWARD


def test_classifier_sound_against_validity():
    # a contradictory pair makes both the exclusion and the covering valid
    rel = classify_pair(schema_of("S sa P"), schema_of("S so P"), SYNTHETIC, 3)
    assert rel.kind is RelationKind.CONTRADICTORY
    assert SYNTHETIC.decide(parse("~(S sa P & S so P)"), 3) == Valid(3)
    assert SYNTHETIC.decide(parse("S sa P | S so P"), 3) == Valid(3)
    # a contrary pair validates the exclusion only
    assert SYNTHETIC.decide(parse("~(S sa P & S si P)"), 3) == Valid(3)
    assert isinstance(SYNTHETIC.decide(parse("S sa P | S si P"), 3), Counterexample)
    # a subcontrary pair validates the covering only
    assert SYNTHETIC.decide(parse("S se P | S so P"), 3) == Valid(3)
    assert isinstance(SYNTHETIC.decide(parse("~(S se P & S so P)"), 3), Counterexample)
    # a forward subalternation validates the implication, not its converse
    assert SYNTHETIC.decide(parse("S sa P -> S se P"), 3) == Valid(3)
    assert isinstance(SYNTHETIC.decide(parse("S se P -> S sa P"), 3), Counterexample)


def test_analytic_square_passes():
    report = verify_square(analytic_square(), ANALYTIC, 3)
    assert report.passed
    assert {(p.first, p.second): p.relation.kind for p in report.pairs} == {
        ("a", "e"): RelationKind.CONTRARY,
        ("i", "o"): RelationKind.SUBCONTRARY,
        ("a", "o"): RelationKind.CONTRADICTORY,
        ("e", "i"): RelationKind.CONTRADICTORY,
        ("a", "i"): RelationKind.SUBALTERNATION_FORWARD,
        ("e", "o"): RelationKind.SUBALTERNATION_FORWARD,
    }


def test_synthetic_square_passes():
    report = verify_square(synthetic_square(), SYNTHETIC, 3)
    assert report.passed
    assert {(p.first, p.second): p.relation.kind for p in report.pairs} == {
        ("a", "i"): RelationKind.CONTRARY,
        ("e", "o"): RelationKind.SUBCONTRARY,
        ("a", "o"): RelationKind.CONTRADICTORY,
        ("e", "i"): RelationKind.CONTRADICTORY,
        ("a", "e"): RelationKind.SUBALTERNATION_FORWARD,
        ("i", "o"): RelationKind.SUBALTERNATION_FORWARD,
    }


def test_synthetic_square_fails_with_empty_universe_admitted():
    report = verify_square(synthetic_square(), SyntheticSemantics(DIRECT_EMPTY_OK), 3)
    assert not report.passed
    contrariety = next(p for p in report.pairs if (p.first, p.second) == ("a", "i"))
    assert not contrariety.ok
    assert contrariety.relation.both_true is not None
    assert contrariety.relation.both_true.universe == ()


def test_square_report_renders_its_own_json():
    report = verify_square(synthetic_square(), SyntheticSemantics(DIRECT_EMPTY_OK), 3)
    data = json.loads(json.dumps(report.to_dict()))
    assert {k: v for k, v in data.items() if k != "pairs"} == {
        "name": "synthetic",
        "semantics": "synthetic(direct, empty-allowed)",
        "bound": 3,
        "corners": {"a": "S sa P", "e": "S se P", "i": "S si P", "o": "S so P"},
        "pass": False,
    }
    assert [row["corners"] for row in data["pairs"]] == [f"{p.first}-{p.second}" for p in report.pairs]
    for row, pv in zip(data["pairs"], report.pairs):
        assert (row["expected"], row["actual"], row["ok"]) == (
            pv.expected.value,
            pv.relation.kind.value,
            pv.ok,
        )
        witnesses = pv.relation.witnesses()
        assert row["witnesses"].keys() == witnesses.keys()
        for name, model in witnesses.items():
            assert Model.from_dict(row["witnesses"][name], True) == model
    assert any(row["witnesses"] for row in data["pairs"])


def test_catalog_ids_and_sources():
    entries = catalog_entries()
    assert [e.id for e in entries] == [f"T{n:02d}" for n in range(1, 21)] + ["A5", "A6", "A7", "A8"]
    assert all(e.source == "theorem-list" for e in entries[:20])
    assert all(e.source == "axiom" for e in entries[20:])


def test_run_catalog_default_expectations_met():
    results = run_catalog(3)
    assert all(r.status == "met" for r in results)
    by_id = {r.entry.id: r for r in results}
    assert isinstance(by_id["T01"].verdict, Valid)
    assert isinstance(by_id["A5"].verdict, Valid)
    assert isinstance(by_id["A7"].verdict, Valid)
    assert len(by_id["A6"].verdict.model.universe) == 1
    assert len(by_id["A8"].verdict.model.universe) == 2


def test_run_catalog_decides_each_distinct_formula_once(monkeypatch):
    decided = []

    def count(f, bound, opts):
        decided.append(f)
        return decide_synthetic_validity(f, bound, opts)

    monkeypatch.setattr(opposition, "decide_synthetic_validity", count)
    results = run_catalog(3)
    assert len(decided) == len(set(decided)) == 23 < len(results) == 24
    by_id = {r.entry.id: r for r in results}
    assert by_id["T13"].entry.schema.formula == by_id["A5"].entry.schema.formula
    assert by_id["T13"].verdict is by_id["A5"].verdict
    run_catalog(3)
    assert len(decided) == 46  # each run decides its own


def test_run_catalog_inconclusive_below_witness_size():
    by_id = {r.entry.id: r for r in run_catalog(1)}
    assert by_id["A6"].status == "met"
    assert isinstance(by_id["A8"].verdict, Valid)
    assert by_id["A8"].status == "inconclusive"


def _countermodel(universe):
    return Counterexample(Model(tuple(universe), (), True), ())


@pytest.mark.parametrize(
    "entry_id, verdict, bound, status",
    [
        ("T01", Valid(3), 3, "met"),
        ("T01", _countermodel("u"), 3, "failed"),
        ("A8", _countermodel("uv"), 3, "met"),
        ("A8", _countermodel("u"), 3, "failed"),
        ("A8", Valid(1), 1, "inconclusive"),
        ("A8", Valid(2), 2, "failed"),
    ],
    ids=["valid-met", "valid-failed", "size-met", "size-failed", "below-size", "at-size"],
)
def test_check_entry_judges_the_verdict_against_the_entry(entry_id, verdict, bound, status):
    entry = next(e for e in catalog_entries() if e.id == entry_id)
    calls = []

    def decide(f, b):
        calls.append((f, b))
        return verdict

    result = check_entry(entry, bound, decide)
    assert calls == [(entry.schema.formula, bound)]
    assert (result.entry, result.verdict, result.status) == (entry, verdict, status)


def test_run_catalog_empty_universe_breaks_contrariety_entry():
    by_id = {r.entry.id: r for r in run_catalog(3, DIRECT_EMPTY_OK)}
    verdict = by_id["T19"].verdict
    assert isinstance(verdict, Counterexample)
    assert verdict.model.universe == ()


def test_counterexamples_persist_at_larger_bounds():
    f = parse("S so P -> P so S")
    small = SYNTHETIC.decide(f, 1)
    for bound in (2, 3):
        larger = SYNTHETIC.decide(f, bound)
        assert isinstance(larger, Counterexample)
        assert larger.model == small.model  # enumeration order is stable


def test_entry_schemas_render_round_trip():
    for entry in catalog_entries():
        assert parse(render(entry.schema.formula)) == entry.schema.formula


# --- the derived image against a full scan -------------------------------------

DERIVED_OPTIONS = [
    SyntheticOptions(reading, empty)
    for reading in (Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE)
    for empty in (False, True)
]


class FullScan:
    """Every structure over `terms` up to `bound`, in enumeration order:
    a prefix of the one shared structure walk.  Each atom's truth is
    evaluated once per reading and induced model."""

    def __init__(self, terms, bound, opts):
        walk = structure_walk(terms)
        self.structures = walk[: sum(len(c.universe) <= bound for c in walk)]
        if bound < MAX_UNIVERSE_DERIVED:
            assert self.structures == tuple(enumerate_copula_structures(terms, bound, opts))
        self._atom = _atoms(terms, opts.reading is Reading.DERIVED_CHARITABLE)

    def evaluate(self, c, f):
        return holds(f, self._atom[id(c)])


def _memo_atom(model):
    truths = {}

    def atom(a):
        key = (a.subject, a.copula, a.predicate)
        truth = truths.get(key)
        if truth is None:
            truth = truths[key] = eval_synthetic(model, a, DIRECT_EMPTY_OK)
        return truth

    return atom


# Both universe options of one reading share its induced models, and
# structures with equal induced models share their atoms' truths.
@functools.cache
def _atoms(terms, charitable):
    models = induced_models(terms, charitable)
    memo = {m: _memo_atom(m) for m in set(models)}
    return {id(c): memo[m] for c, m in zip(structure_walk(terms), models)}


@functools.cache
def full_scan(terms, bound, opts):
    return FullScan(terms, bound, opts)


def full_scan_decide(f, bound, opts):
    """Oracle: the first falsifying structure over every structure."""
    scan = full_scan(term_names(f), bound, opts)
    return first_counterexample(scan.structures, f, scan.evaluate, bound)


def full_scan_witnesses(phi, psi, opts, bound):
    """Oracle: classify_pair's truth-pair loop over every structure."""
    scan = full_scan(tuple(sorted(phi.metavars)), bound, opts)
    return scan_classify(
        instantiate(phi, {m: m for m in phi.metavars}),
        instantiate(psi, {m: m for m in psi.metavars}),
        scan.structures,
        scan.evaluate,
        bound,
    ).witnesses()


@pytest.mark.parametrize("opts", DERIVED_OPTIONS, ids=lambda o: o.label())
def test_derived_image_decides_like_a_full_scan(opts):
    square = synthetic_square()
    semantics = SyntheticSemantics(opts)
    for bound in (1, 2, 3):
        for entry in catalog_entries():
            f = entry.schema.formula
            assert verdict_bytes(decide_synthetic_validity(f, bound, opts)) == verdict_bytes(
                full_scan_decide(f, bound, opts)
            ), (entry.id, bound)
        for first, second, _ in square.expected:
            phi, psi = square.corners[first], square.corners[second]
            relation = classify_pair(phi, psi, semantics, bound)
            got = {name: m.to_dict() for name, m in relation.witnesses().items()}
            expected = full_scan_witnesses(phi, psi, opts, bound)
            assert got == {name: m.to_dict() for name, m in expected.items()}, (first, second)


@pytest.mark.parametrize("reading", [Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE])
@pytest.mark.parametrize("terms", [("P", "S"), ("M", "P", "S")])
def test_derived_image_holds_the_first_structure_of_every_atom_profile(reading, terms):
    # Every formula over `terms` is a Boolean combination of the atoms
    # below, so the image decides every such formula like a full scan iff
    # it keeps, in enumeration order, the first structure of each profile.
    opts = SyntheticOptions(reading)
    atoms = [parse(f"{s} {c} {p}") for s in terms for p in terms for c in ("sa", "si")]
    scan = full_scan(terms, 3, opts)
    first = {}
    for c in scan.structures:
        first.setdefault(tuple(scan.evaluate(c, a) for a in atoms), _key(c))
    position = {_key(c): n for n, c in enumerate(scan.structures)}
    image = [_key(c) for c in derived_image(terms, 3, opts)]
    assert all(witness in image for witness in first.values())
    positions = [position[witness] for witness in image]
    assert positions == sorted(positions)


def _key(c):
    return c.universe, c.is_prim, tuple(sorted(c.denote.items()))


@pytest.mark.parametrize(
    "reading, terms, size",
    [
        (Reading.DERIVED_LITERAL, ("P", "S"), 2),
        (Reading.DERIVED_LITERAL, ("M", "P", "S"), 2),
        (Reading.DERIVED_CHARITABLE, ("P", "S"), 11),
        (Reading.DERIVED_CHARITABLE, ("M", "P", "S"), 34),
    ],
)
def test_derived_image_sizes_at_bound_3(reading, terms, size):
    assert len(derived_image(terms, 3, SyntheticOptions(reading))) == size


@pytest.mark.parametrize("opts", DERIVED_OPTIONS, ids=lambda o: o.label())
def test_derived_image_keeps_the_bound_guard(opts):
    with pytest.raises(BoundError):
        derived_image(("P", "S"), 4, opts)
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), 4, opts)
