"""Opposition classification, square verification, and the claim catalog.

A pair of schemas is classified by its truth-pair profile over every
model at the bound: which of both-true / both-false / first-only /
second-only are possible.  The mapping is

    neither both-true nor both-false        -> contradictory
    no both-true, both-false possible       -> contrary
    no both-false, both-true possible       -> subcontrary
    first => second valid, converse fails   -> subalternation (forward)
    second => first valid, converse fails   -> subalternation (backward)
    anything else                           -> independent

so every relation claim is falsifiable by a concrete witness model.
Verdicts are always relative to the bound; no unbounded validity is
claimed.  Under a semantics, an `analytic.AnalyticSemantics` or a
`synthetic.SyntheticOptions` record, this module only classifies,
verifies squares, and runs the catalog and writes its rows.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from enum import Enum

from .analytic import AnalyticSemantics
from .errors import InputError
from .formula import Formula, Schema, render, schema_of
from .record import Record
from .search import Counterexample, Valid, Verdict
from .synthetic import DIRECT_NONEMPTY, SyntheticOptions

Semantics = AnalyticSemantics | SyntheticOptions


def SyntheticSemantics(options: SyntheticOptions = DIRECT_NONEMPTY) -> SyntheticOptions:
    """`options`, which are the synthetic semantics.  It exists only because
    `perfbench/drive.py` calls it; ROADMAP item 15's benchmark change deletes it."""
    return options


class RelationKind(Enum):
    CONTRADICTORY = "contradictory"
    CONTRARY = "contrary"
    SUBCONTRARY = "subcontrary"
    SUBALTERNATION_FORWARD = "subalternation-forward"
    SUBALTERNATION_BACKWARD = "subalternation-backward"
    INDEPENDENT = "independent"


class OppositionRelation(Record):
    """Classification of a schema pair with the first witness model found
    for each truth-pair category that is possible at the bound."""

    kind: RelationKind
    both_true: object | None = None
    both_false: object | None = None
    first_only: object | None = None
    second_only: object | None = None

    def witnesses(self) -> dict[str, object]:
        out = {}
        for name in ("both_true", "both_false", "first_only", "second_only"):
            model = getattr(self, name)
            if model is not None:
                out[name] = model
        return out


def classify_pair(
    phi: Schema, psi: Schema, semantics: Semantics, bound: int
) -> OppositionRelation:
    """Classify the opposition relation between two schemas over the same
    two metavariables by exhaustive search at the bound: each category's
    witness is the first model in search order that shows it."""
    if set(phi.metavars) != set(psi.metavars) or len(phi.metavars) != 2:
        raise InputError("schemas must share the same two metavariables")
    space = semantics.space(tuple(sorted(phi.metavars)), bound)
    p, q = space.vector(phi.formula), space.vector(psi.formula)
    both_true = space.first(p & q)
    both_false = space.first(space.full & ~(p | q))
    first_only = space.first(p & ~q)
    second_only = space.first(q & ~p)

    if both_true is None and both_false is None:
        kind = RelationKind.CONTRADICTORY
    elif both_true is None:
        kind = RelationKind.CONTRARY
    elif both_false is None:
        kind = RelationKind.SUBCONTRARY
    elif first_only is None and second_only is not None:
        kind = RelationKind.SUBALTERNATION_FORWARD
    elif second_only is None and first_only is not None:
        kind = RelationKind.SUBALTERNATION_BACKWARD
    else:
        kind = RelationKind.INDEPENDENT
    return OppositionRelation(kind, both_true, both_false, first_only, second_only)


# --- squares ---------------------------------------------------------------

class SquareSpec(Record):
    """Four corner schemas plus the expected relation for each of the six
    corner pairs.  Pair order matters for subalternation: the expected
    forward arrow runs first -> second."""

    name: str
    corners: Mapping[str, Schema]
    expected: tuple[tuple[str, str, RelationKind], ...]

    def __post_init__(self) -> None:
        pairs = {frozenset((a, b)) for a, b, _ in self.expected}
        if len(pairs) != 6 or len(self.expected) != 6:
            raise InputError("a square needs exactly the six corner pairs")


class PairVerdict(Record):
    first: str
    second: str
    expected: RelationKind
    relation: OppositionRelation

    @property
    def ok(self) -> bool:
        return self.relation.kind is self.expected


class SquareReport(Record):
    name: str
    semantics_label: str
    bound: int
    pairs: tuple[PairVerdict, ...]
    corner_text: Mapping[str, str]

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.pairs)

    def to_dict(self) -> dict:
        """The square as JSON data, as `square --json` and the report give it."""
        pairs = [
            {
                "corners": f"{pv.first}-{pv.second}",
                "expected": pv.expected.value,
                "actual": pv.relation.kind.value,
                "ok": pv.ok,
                "witnesses": {name: model.to_dict() for name, model in pv.relation.witnesses().items()},
            }
            for pv in self.pairs
        ]
        return {
            "name": self.name,
            "semantics": self.semantics_label,
            "bound": self.bound,
            "corners": dict(self.corner_text),
            "pairs": pairs,
            "pass": self.passed,
        }


def verify_square(spec: SquareSpec, semantics: Semantics, bound: int) -> SquareReport:
    """Classify all six corner pairs and compare against the expectations."""
    pairs = []
    for first, second, expected in spec.expected:
        relation = classify_pair(spec.corners[first], spec.corners[second], semantics, bound)
        pairs.append(PairVerdict(first, second, expected, relation))
    corner_text = {label: render(spec.corners[label].formula) for label in sorted(spec.corners)}
    return SquareReport(spec.name, semantics.label(), bound, tuple(pairs), corner_text)


def _square(name: str, prefix: str, expected: tuple) -> SquareSpec:
    """The square whose corner c is `S {prefix}c P`."""
    return SquareSpec(name, {c: schema_of(f"S {prefix}{c} P") for c in "aeio"}, expected)


@functools.cache
def analytic_square() -> SquareSpec:
    """The conventional square: a-e contrary, i-o subcontrary, the two
    diagonals contradictory, and downward subalternations a->i, e->o.
    Built once and shared."""
    return _square("analytic", "", (
        ("a", "e", RelationKind.CONTRARY),
        ("i", "o", RelationKind.SUBCONTRARY),
        ("a", "o", RelationKind.CONTRADICTORY),
        ("e", "i", RelationKind.CONTRADICTORY),
        ("a", "i", RelationKind.SUBALTERNATION_FORWARD),
        ("e", "o", RelationKind.SUBALTERNATION_FORWARD),
    ))


@functools.cache
def synthetic_square() -> SquareSpec:
    """The synthetic square: a-i contrary, e-o subcontrary, a-o and e-i
    contradictory, subalternations a->e and i->o.  Built once and shared."""
    return _square("synthetic", "s", (
        ("a", "i", RelationKind.CONTRARY),
        ("e", "o", RelationKind.SUBCONTRARY),
        ("a", "o", RelationKind.CONTRADICTORY),
        ("e", "i", RelationKind.CONTRADICTORY),
        ("a", "e", RelationKind.SUBALTERNATION_FORWARD),
        ("i", "o", RelationKind.SUBALTERNATION_FORWARD),
    ))


# --- claim catalog ---------------------------------------------------------

class CatalogEntry(Record):
    id: str
    schema: Schema
    source: str  # "axiom" | "theorem-list"
    countermodel_size: int | None = None  # None: expected valid

    def expected(self) -> str:
        if self.countermodel_size is None:
            return "valid"
        return f"counterexample at size {self.countermodel_size}"


class CatalogResult(Record):
    entry: CatalogEntry
    verdict: Verdict
    status: str  # "met" | "failed" | "inconclusive"

    def to_dict(self, semantics_label: str) -> dict:
        """The result as a report row; an inconclusive `Valid` reads as no counterexample found."""
        row = {
            "id": self.entry.id,
            "schema": render(self.entry.schema.formula),
            "source": self.entry.source,
            "semantics": semantics_label,
            "expected": self.entry.expected(),
            **self.verdict.to_dict(),
            "met": self.status,
        }
        if self.status == "inconclusive":
            row["status"] = f"no counterexample found up to bound {self.verdict.bound}"
        return row


_THEOREM_TEXTS = (
    ("T01", "S sa P -> ~(S so P)"),
    ("T02", "~(S so P) -> S sa P"),
    ("T03", "S si P -> ~(S se P)"),
    ("T04", "~(S se P) -> S si P"),
    ("T05", "S se P -> ~(S si P)"),
    ("T06", "~(S si P) -> S se P"),
    ("T07", "S so P -> ~(S sa P)"),
    ("T08", "~(S sa P) -> S so P"),
    ("T09", "S sa P -> ~(S si P)"),
    ("T10", "S si P -> ~(S sa P)"),
    ("T11", "~(S se P) -> S so P"),
    ("T12", "~(S so P) -> S se P"),
    ("T13", "S sa P -> S se P"),
    ("T14", "S si P -> S so P"),
    ("T15", "S se P | S si P"),
    ("T16", "~(S se P & S si P)"),
    ("T17", "S sa P | S so P"),
    ("T18", "~(S sa P & S so P)"),
    ("T19", "~(S sa P & S si P)"),
    ("T20", "S se P | S so P"),
)

_AXIOM_TEXTS = (
    ("A5", "S sa P -> S se P", None),
    ("A6", "S so P -> P so S", 1),
    ("A7", "(M sa P & S sa M) -> S sa P", None),
    ("A8", "(M sa P & S se M) -> S se P", 2),
)


@functools.cache
def catalog_entries() -> tuple[CatalogEntry, ...]:
    """The fixed catalog: theorems T01-T20 and axioms A5-A8, in id order,
    parsed once and shared (the records are frozen)."""
    entries = [
        CatalogEntry(tid, schema_of(text), "theorem-list")
        for tid, text in _THEOREM_TEXTS
    ]
    entries.extend(
        CatalogEntry(aid, schema_of(text), "axiom", size)
        for aid, text, size in _AXIOM_TEXTS
    )
    return tuple(entries)


def check_entry(
    entry: CatalogEntry, bound: int, decide: Callable[[Formula, int], Verdict]
) -> CatalogResult:
    """Decide one catalog entry with `decide` and judge it against its expectation."""
    verdict = decide(entry.schema.formula, bound)
    size = entry.countermodel_size
    if size is None:
        status = "met" if isinstance(verdict, Valid) else "failed"
    elif isinstance(verdict, Counterexample):
        status = "met" if len(verdict.model.universe) == size else "failed"
    else:
        status = "inconclusive" if bound < size else "failed"
    return CatalogResult(entry, verdict, status)


def run_catalog(
    bound: int = 3, options: SyntheticOptions = DIRECT_NONEMPTY
) -> tuple[CatalogResult, ...]:
    """Evaluate every catalog entry under the given synthetic options.

    Failures are data, not errors: each result carries the verdict and
    whether it met the entry's recorded expectation (which is stated for
    the default nonempty direct reading).  Each distinct formula is
    decided once: T13 and A5 are the same formula and share a verdict."""
    decide = functools.cache(options.decide)
    return tuple(check_entry(entry, bound, decide) for entry in catalog_entries())
