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
preferred; they exist to probe the composite definition.

A form's truth depends only on which sets of terms the individuals of
a model realize, so derived decisions range over the derived image:
one witness structure per realized type-set, found by one scan of the
structures per term set, bound and reading.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .errors import BoundError, SemanticsError, json_object, string_list
from .formula import Atom, Copula, Formula, holds, term_names
from .verdicts import Verdict, first_counterexample

_INDIVIDUALS = ("u", "v", "w", "x")
MAX_UNIVERSE_DIRECT = 4
MAX_UNIVERSE_DERIVED = 3


class Reading(Enum):
    DIRECT = "direct"
    DERIVED_LITERAL = "derived"
    DERIVED_CHARITABLE = "derived-charitable"


@dataclass(frozen=True)
class SyntheticOptions:
    reading: Reading = Reading.DIRECT
    allow_empty_universe: bool = False

    def label(self) -> str:
        return f"{self.reading.value}, {'empty-allowed' if self.allow_empty_universe else 'nonempty'}"


DIRECT_NONEMPTY = SyntheticOptions()
DIRECT_EMPTY_OK = SyntheticOptions(allow_empty_universe=True)


@dataclass(frozen=True)
class SyntheticModel:
    """Finite universe plus the set of true (individual, term) facts."""

    universe: tuple[str, ...]
    facts: frozenset[tuple[str, str]]

    def holds(self, individual: str, term: str) -> bool:
        return (individual, term) in self.facts

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


@dataclass(frozen=True)
class CopulaStructure:
    """Carrier for the composite copula: a primitive relation between
    individuals and a denoting individual per term."""

    universe: tuple[str, ...]
    is_prim: frozenset[tuple[str, str]]
    denote: Mapping[str, str]

    def prim(self, a: str, b: str) -> bool:
        return (a, b) in self.is_prim

    def denotation(self, term: str) -> str:
        try:
            return self.denote[term]
        except KeyError:
            raise SemanticsError(f"term {term!r} has no denotation") from None

    def summary(self) -> str:
        prim = ",".join(f"({a},{b})" for a, b in sorted(self.is_prim))
        den = ",".join(f"{t}->{self.denote[t]}" for t in sorted(self.denote))
        return "U={%s}; prim={%s}; %s" % (",".join(self.universe), prim, den)

    def to_dict(self) -> dict:
        return {
            "universe": list(self.universe),
            "isPrim": [list(pair) for pair in sorted(self.is_prim)],
            "denote": {t: self.denote[t] for t in sorted(self.denote)},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> CopulaStructure:
        data = json_object(data, "copula structure", ("universe",))
        universe = string_list(data["universe"], "universe", distinct=True)
        prim = data.get("isPrim", [])
        if not isinstance(prim, list) or any(
            len(string_list(p, "isPrim entry")) != 2 for p in prim
        ):
            raise SemanticsError("isPrim must be a list of [individual, individual] pairs")
        pairs = frozenset(tuple(p) for p in prim)
        denote = dict(json_object(data.get("denote", {}), "denote"))
        for a, b in pairs:
            if a not in universe or b not in universe:
                raise SemanticsError(f"primitive pair ({a!r}, {b!r}) outside the universe")
        for term, ind in denote.items():
            if ind not in universe:
                raise SemanticsError(f"denotation of {term!r} outside the universe")
        return cls(universe, pairs, denote)


def derived_copula(c: CopulaStructure, a: str, b: str, charitable: bool) -> bool:
    """The composite "a is b" over the primitive relation.

    Literal mode:  (exists C. C prim a)
                   and (forall C, D. (C prim a and D prim a) -> C prim D)
                   and (forall C. C prim a and C prim b).
    Charitable mode replaces the last conjunct by
    forall C. (C prim a -> C prim b).
    """
    if a not in c.universe or b not in c.universe:
        raise SemanticsError(f"unknown individual in copula: {a!r}, {b!r}")
    u = c.universe
    if not any(c.prim(x, a) for x in u):
        return False
    if not all(
        c.prim(x, y)
        for x in u
        for y in u
        if c.prim(x, a) and c.prim(y, a)
    ):
        return False
    if charitable:
        return all(c.prim(x, b) for x in u if c.prim(x, a))
    return all(c.prim(x, a) and c.prim(x, b) for x in u)


def induced_model(c: CopulaStructure, charitable: bool) -> SyntheticModel:
    """The direct model a structure induces under a derived reading: x is
    t iff derived_copula(c, x, c.denote[t], charitable).

    With pred(x) = {y : y prim x}, x can be a subject iff pred(x) is a
    nonempty clique; the literal reading then holds iff pred(x) = pred(b)
    = U, the charitable one iff pred(x) is a subset of pred(b).
    """
    pred = {x: set() for x in c.universe}
    for y, x in c.is_prim:
        pred[x].add(y)
    everyone = set(c.universe)
    subjects = [
        x for x, p in pred.items() if p and c.is_prim.issuperset(itertools.product(p, p))
    ]
    facts = frozenset(
        (x, t)
        for t, b in c.denote.items()
        for x in subjects
        if (pred[x] <= pred[b] if charitable else pred[x] == pred[b] == everyone)
    )
    return SyntheticModel(c.universe, facts)


def _atom_truth(copula: Copula, model: SyntheticModel, s: str, p: str) -> bool:
    universe = model.universe
    is_s = lambda a: model.holds(a, s)
    is_p = lambda a: model.holds(a, p)
    if copula is Copula.SA:
        return any(is_s(a) for a in universe) or all(is_p(a) and is_s(a) for a in universe)
    if copula is Copula.SI:
        return all(is_p(a) and not is_s(a) for a in universe)
    if copula is Copula.SO:
        return all(not is_s(a) for a in universe) and any(
            not is_p(a) or not is_s(a) for a in universe
        )
    # SE
    return any(not is_p(a) or is_s(a) for a in universe)


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
    if not direct and not isinstance(model, CopulaStructure):
        raise SemanticsError("derived readings expect a CopulaStructure")
    if not model.universe and not opts.allow_empty_universe:
        raise SemanticsError("empty universe disallowed by the evaluation options")
    if not direct:
        denotation = model.denotation
        model = induced_model(model, opts.reading is Reading.DERIVED_CHARITABLE)

    def atom(g: Atom) -> bool:
        if not g.copula.synthetic:
            raise SemanticsError(f"analytic copula {g.copula.value!r} under synthetic semantics")
        if not direct:
            # a term without a denotation is an error, not an empty term
            denotation(g.subject)
            denotation(g.predicate)
        return _atom_truth(g.copula, model, g.subject, g.predicate)

    return holds(f, atom)


def _check_universe_bound(max_u: int, opts: SyntheticOptions) -> None:
    cap = MAX_UNIVERSE_DIRECT if opts.reading is Reading.DIRECT else MAX_UNIVERSE_DERIVED
    if not 0 <= max_u <= cap:
        raise BoundError(f"universe bound {max_u} outside 0..{cap} for {opts.reading.value}")


def enumerate_synthetic_models(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Iterator[SyntheticModel]:
    """All models with |U| <= max_u, smallest universe first, then
    lexicographic fact assignments; the empty universe comes first when
    allowed."""
    _check_universe_bound(max_u, opts)
    start = 0 if opts.allow_empty_universe else 1
    for size in range(start, max_u + 1):
        universe = _INDIVIDUALS[:size]
        for masks in itertools.product(range(1 << size), repeat=len(terms)):
            facts = frozenset(
                (universe[i], t)
                for k, t in enumerate(terms)
                for i in range(size)
                if masks[k] >> i & 1
            )
            yield SyntheticModel(universe, facts)


def enumerate_copula_structures(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions
) -> Iterator[CopulaStructure]:
    """All copula structures with |U| <= max_u: every primitive relation,
    every denotation assignment.  A nonempty term list admits no empty
    structure (denotations need a target), so size 0 is skipped."""
    _check_universe_bound(max_u, opts)
    start = 0 if opts.allow_empty_universe else 1
    for size in range(start, max_u + 1):
        universe = _INDIVIDUALS[:size]
        if size == 0:
            if not terms:
                yield CopulaStructure((), frozenset(), {})
            continue
        pairs = [(a, b) for a in universe for b in universe]
        for prim_mask in range(1 << len(pairs)):
            prim = frozenset(p for i, p in enumerate(pairs) if prim_mask >> i & 1)
            for denote_choice in itertools.product(range(size), repeat=len(terms)):
                denote = {t: universe[denote_choice[k]] for k, t in enumerate(terms)}
                yield CopulaStructure(universe, prim, denote)


def _type_set(model: SyntheticModel) -> frozenset[frozenset[str]]:
    """The set of term-types the individuals of `model` realize."""
    types = {x: set() for x in model.universe}
    for x, t in model.facts:
        types[x].add(t)
    return frozenset(frozenset(ts) for ts in types.values())


@functools.cache
def derived_image(
    terms: tuple[str, ...], bound: int, opts: SyntheticOptions
) -> tuple[CopulaStructure, ...]:
    """The first structure, in enumeration order, of each type-set the
    induced models realize, in order of first appearance.

    Every form quantifies over individuals only through their types, so
    each structure agrees with the witness of its type-set on every
    formula over `terms`; the first structure that falsifies a formula,
    or that shows a truth-pair category, is the first of its type-set.
    Searching the image therefore gives the verdicts and witnesses of a
    full scan."""
    charitable = opts.reading is Reading.DERIVED_CHARITABLE
    witnesses: dict[frozenset, CopulaStructure] = {}
    for c in enumerate_copula_structures(terms, bound, opts):
        witnesses.setdefault(_type_set(induced_model(c, charitable)), c)
    return tuple(witnesses.values())


def synthetic_models(
    terms: tuple[str, ...], bound: int, opts: SyntheticOptions
) -> Iterable[SyntheticModel | CopulaStructure]:
    """What a search under `opts` ranges over: every direct model up to
    `bound`, or a derived reading's image."""
    if opts.reading is Reading.DIRECT:
        return enumerate_synthetic_models(terms, bound, opts)
    return derived_image(terms, bound, opts)


def decide_synthetic_validity(
    f: Formula, bound: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return first_counterexample(
        synthetic_models(term_names(f), bound, opts),
        f,
        lambda model, g: eval_synthetic(model, g, opts),
        bound,
    )
