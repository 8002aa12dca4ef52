"""Semantics for the synthetic copulas over a primitive "is" relation.

The four synthetic forms are quantifier expressions over a bound
individual variable A:

    S sa P :  (exists A. A is S)  or  (forall A. A is P and A is S)
    S si P :  forall A. A is P and not (A is S)
    S so P :  (forall A. not (A is S)) and (exists A. not (A is P) or not (A is S))
    S se P :  exists A. not (A is P) or (A is S)

`so` and `se` are by construction the negations of `sa` and `si`.
Note the first disjunct of `sa` does not mention P at all; it is
implemented literally and the resulting behaviour is surfaced in
reports rather than repaired.

Three readings of "A is S" are supported.  Direct treats it as a
primitive relation given by the model: a `search.Model` record of the
synthetic family, which keeps each term's nonempty extent, is read and
written in the `universe`/`is` format, and reads a term it lacks as
empty.  The two Derived readings produce
that relation with the composite copula definition over a structure with
a primitive relation between individuals plus a denotation for each
term: the structure induces the direct model in which x is t iff the
composite copula holds between x and t's denotation, and the forms are
evaluated on that model.  The readings differ in the last conjunct
(Literal demands forall C. (C prim a and C prim b), Charitable weakens
it to forall C. (C prim a -> C prim b)).  Neither derived reading is
preferred; they exist to probe the composite definition, and load from
`copula` at their first use.

The semantics is a `SyntheticOptions` record of a reading and whether
the empty universe is allowed: its `label`, `sizes`, `space`, `evaluate`
and `decide` are those of `analytic.AnalyticSemantics`.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .errors import BoundError, SemanticsError
from .formula import Formula, term_names
from .record import Record
from .search import INDIVIDUALS, Model, ModelSpace, Verdict, evaluate, every_model, monadic_shape

MAX_UNIVERSE_DIRECT = len(INDIVIDUALS[True])
MAX_UNIVERSE_DERIVED = 3


class Reading(Enum):
    DIRECT = "direct"
    DERIVED_LITERAL = "derived"
    DERIVED_CHARITABLE = "derived-charitable"


class SyntheticOptions(Record):
    reading: Reading = Reading.DIRECT
    allow_empty_universe: bool = False

    def label(self) -> str:
        return f"synthetic({self.reading.value}, {'empty-allowed' if self.allow_empty_universe else 'nonempty'})"

    def sizes(self, bound: int) -> range:
        """The universe sizes up to `bound`, or an error if none or past the
        reading's cap.  Only the direct reading has an empty model: a copula
        structure needs an individual to denote its terms."""
        direct = self.reading is Reading.DIRECT
        low = 0 if self.allow_empty_universe and direct else 1
        cap = MAX_UNIVERSE_DIRECT if direct else MAX_UNIVERSE_DERIVED
        if not low <= bound <= cap:
            raise BoundError(f"universe bound {bound} outside {low}..{cap} for {self.reading.value}")
        return range(low, bound + 1)

    def space(self, terms: tuple[str, ...], bound: int) -> ModelSpace:
        """The type-sets of the direct models up to `bound`, each at its first
        model in enumeration order, or a derived reading's image, where
        allowing the empty universe changes nothing: no structure is empty."""
        start = self.sizes(bound).start
        if self.reading is Reading.DIRECT:
            return ModelSpace(monadic_shape(len(terms), start, bound, True, False), terms)
        from .copula import derived_shape

        return ModelSpace(derived_shape(len(terms), bound, self.reading is Reading.DERIVED_CHARITABLE), terms)

    def evaluate(self, model: Record, f: Formula) -> bool:
        return eval_synthetic(model, f, self)

    def decide(self, f: Formula, bound: int) -> Verdict:
        return decide_synthetic_validity(f, bound, self)


DIRECT_NONEMPTY = SyntheticOptions()
DIRECT_EMPTY_OK = SyntheticOptions(allow_empty_universe=True)


def eval_synthetic(
    model: Record,
    f: Formula,
    opts: SyntheticOptions = DIRECT_NONEMPTY,
) -> bool:
    """Evaluate a synthetic-only formula in a synthetic `Model`, or under a
    derived reading on the model a `copula.CopulaStructure` induces."""
    derived = opts.reading is not Reading.DIRECT
    if derived:
        from .copula import CopulaStructure, induced_model

        if not isinstance(model, CopulaStructure):
            raise SemanticsError("derived readings expect a CopulaStructure")
    if not model.universe and not opts.allow_empty_universe:
        raise SemanticsError("empty universe disallowed by the evaluation options")
    if not derived:
        return evaluate(model, f, True, False)
    induced = induced_model(model, opts.reading is Reading.DERIVED_CHARITABLE)

    def extent(term: str) -> int:
        model.denotation(term)  # a term without a denotation is an error, not an empty term
        return induced.extent(term)

    return evaluate(induced, f, True, False, extent)


def enumerate_synthetic_models(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Iterator[Model]:
    """All models with |U| <= max_u, smallest universe first, then
    lexicographic fact assignments; the empty universe comes first when
    allowed."""
    yield from every_model(terms, opts.sizes(max_u), True)


def decide_synthetic_validity(
    f: Formula, bound: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return opts.space(term_names(f), bound).decide(f)


def __getattr__(name: str) -> object:
    """`derived_copula` and `enumerate_copula_structures`, from `copula`:
    the benchmark's tracer still rebinds them under `synthetic`.  Every
    other name of the derived readings is imported from `copula`."""
    if name in ("derived_copula", "enumerate_copula_structures"):
        from . import copula

        return getattr(copula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
