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
primitive relation given by the model.  The two Derived readings produce
that relation with the composite copula definition over a structure with
a primitive relation between individuals plus a denotation for each
term: the structure induces the direct model in which x is t iff the
composite copula holds between x and t's denotation, and the forms are
evaluated on that model.  The readings differ in the last conjunct
(Literal demands forall C. (C prim a and C prim b), Charitable weakens
it to forall C. (C prim a -> C prim b)).  Neither derived reading is
preferred; they exist to probe the composite definition, and load from
`copula` at their first use.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from enum import Enum

from .errors import BoundError, SemanticsError, json_object, string_list
from .formula import Atom, Formula, holds, term_names
from .record import Record
from .search import ModelSpace, Regions, check_family, copula_truth, monadic_space, occupied
from .verdicts import Verdict

_INDIVIDUALS = ("u", "v", "w", "x")
MAX_UNIVERSE_DIRECT = 4
MAX_UNIVERSE_DERIVED = 3


class Reading(Enum):
    DIRECT = "direct"
    DERIVED_LITERAL = "derived"
    DERIVED_CHARITABLE = "derived-charitable"


class SyntheticOptions(Record):
    reading: Reading = Reading.DIRECT
    allow_empty_universe: bool = False

    def label(self) -> str:
        return f"{self.reading.value}, {'empty-allowed' if self.allow_empty_universe else 'nonempty'}"


DIRECT_NONEMPTY = SyntheticOptions()
DIRECT_EMPTY_OK = SyntheticOptions(allow_empty_universe=True)


class SyntheticModel(Record):
    """Finite universe plus the set of true (individual, term) facts."""

    universe: tuple[str, ...]
    facts: frozenset[tuple[str, str]]

    def holds(self, individual: str, term: str) -> bool:
        return (individual, term) in self.facts

    def regions(self, s: str, p: str) -> Regions:
        """Which regions of the terms s and p hold an individual."""
        return occupied((self.holds(x, s), self.holds(x, p)) for x in self.universe)

    def summary(self) -> str:
        parts = ["U={%s}" % ",".join(self.universe)]
        for term in sorted({t for _, t in self.facts}):
            members = sorted(a for a, t in self.facts if t == term)
            parts.append("%s={%s}" % (term, ",".join(members)))
        return "; ".join(parts)

    def to_dict(self) -> dict:
        return {
            "universe": list(self.universe),
            "is": {a: sorted(t for b, t in self.facts if b == a) for a in self.universe},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> SyntheticModel:
        data = json_object(data, "synthetic model", ("universe",))
        universe = string_list(data["universe"], "universe", distinct=True)
        facts = set()
        for individual, terms in json_object(data.get("is", {}), "is").items():
            if individual not in universe:
                raise SemanticsError(f"individual {individual!r} outside the universe")
            for t in string_list(terms, f"terms of {individual!r}"):
                facts.add((individual, t))
        return cls(universe, frozenset(facts))


def eval_synthetic(
    model: SyntheticModel | CopulaStructure,
    f: Formula,
    opts: SyntheticOptions = DIRECT_NONEMPTY,
) -> bool:
    """Evaluate a synthetic-only formula under the chosen reading; a
    derived reading evaluates it on the structure's induced model."""
    direct = opts.reading is Reading.DIRECT
    if direct and not isinstance(model, SyntheticModel):
        raise SemanticsError("direct reading expects a SyntheticModel")
    if not direct:
        from .copula import CopulaStructure, induced_model

        if not isinstance(model, CopulaStructure):
            raise SemanticsError("derived readings expect a CopulaStructure")
    if not model.universe and not opts.allow_empty_universe:
        raise SemanticsError("empty universe disallowed by the evaluation options")
    if not direct:
        denotation = model.denotation
        model = induced_model(model, opts.reading is Reading.DERIVED_CHARITABLE)

    def atom(g: Atom) -> bool:
        check_family(g.copula, True)
        if not direct:
            # a term without a denotation is an error, not an empty term
            denotation(g.subject)
            denotation(g.predicate)
        return bool(copula_truth(g.copula, model.regions(g.subject, g.predicate), False) & 1)

    return holds(f, atom)


def _universe_sizes(max_u: int, opts: SyntheticOptions) -> range:
    """The universe sizes up to `max_u`, or an error if none or past the
    reading's cap.  Only the direct reading has an empty model: a copula
    structure needs an individual to denote its terms."""
    direct = opts.reading is Reading.DIRECT
    low = 0 if opts.allow_empty_universe and direct else 1
    cap = MAX_UNIVERSE_DIRECT if direct else MAX_UNIVERSE_DERIVED
    if not low <= max_u <= cap:
        raise BoundError(f"universe bound {max_u} outside {low}..{cap} for {opts.reading.value}")
    return range(low, max_u + 1)


def _model(terms: tuple[str, ...], size: int, masks: tuple[int, ...]) -> SyntheticModel:
    universe = _INDIVIDUALS[:size]
    facts = frozenset(
        (universe[i], t) for k, t in enumerate(terms) for i in range(size) if masks[k] >> i & 1
    )
    return SyntheticModel(universe, facts)


def enumerate_synthetic_models(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Iterator[SyntheticModel]:
    """All models with |U| <= max_u, smallest universe first, then
    lexicographic fact assignments; the empty universe comes first when
    allowed."""
    for size in _universe_sizes(max_u, opts):
        for masks in itertools.product(range(1 << size), repeat=len(terms)):
            yield _model(terms, size, masks)


def synthetic_space(terms: tuple[str, ...], bound: int, opts: SyntheticOptions) -> ModelSpace:
    """The type-sets of the direct models up to `bound`, each at its first
    model in enumeration order, or a derived reading's image."""
    if opts.reading is Reading.DIRECT:
        return monadic_space(terms, _universe_sizes(bound, opts).start, bound, True, False, _model)
    from .copula import derived_space

    return derived_space(terms, bound, opts)


def decide_synthetic_validity(
    f: Formula, bound: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return synthetic_space(term_names(f), bound, opts).decide(f)


def __getattr__(name: str) -> object:
    """The derived readings' names that `synthetic` held, from `copula`."""
    if name in ("CopulaStructure", "derived_copula", "enumerate_copula_structures", "induced_model"):
        from . import copula

        return getattr(copula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
