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
the first structure of each realized type-set.  It is computed from
bitmask columns: one pass over the relations of each universe size and
reading, shared by every term count, keeps the relations with new
columns, and only the distinct columns are chosen as denotations.  Only
the witnesses themselves are built as structures.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Mapping
from enum import Enum
from types import MappingProxyType

from .copula import CopulaStructure, derived_copula  # noqa: F401  (derived_copula is re-exported)
from .errors import BoundError, SemanticsError, json_object, string_list
from .formula import Atom, Formula, holds, term_names
from .record import Record
from .search import (
    ModelSpace, Regions, check_family, copula_truth, monadic_space, occupied, type_set_atom
)
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


def induced_model(c: CopulaStructure, charitable: bool) -> SyntheticModel:
    """The direct model a structure induces under a derived reading: x is
    t iff derived_copula(c, x, c.denote[t], charitable), read off the
    columns of its primitive relation."""
    size, at = len(c.universe), {x: i for i, x in enumerate(c.universe)}
    col = _columns(size, sum(1 << (size * at[y] + at[x]) for y, x in c.is_prim), charitable)
    facts = frozenset(
        (x, t) for t, b in c.denote.items() for i, x in enumerate(c.universe) if col[at[b]] >> i & 1
    )
    return SyntheticModel(c.universe, facts)


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


def enumerate_copula_structures(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions
) -> Iterator[CopulaStructure]:
    """All copula structures with |U| <= max_u: every primitive relation,
    every denotation assignment.  Sizes start at 1 even when the empty
    universe is allowed, as denotations need a target.  This is the
    definition of the order the derived image keeps and the tests' oracle;
    no decision walks it."""
    for size in _universe_sizes(max_u, opts):
        universe = _INDIVIDUALS[:size]
        pairs = [(a, b) for a in universe for b in universe]
        for prim_mask in range(1 << len(pairs)):
            prim = frozenset(p for i, p in enumerate(pairs) if prim_mask >> i & 1)
            for denote_choice in itertools.product(range(size), repeat=len(terms)):
                denote = {t: universe[denote_choice[k]] for k, t in enumerate(terms)}
                yield CopulaStructure(universe, prim, denote)


def _columns(size: int, prim_mask: int, charitable: bool) -> tuple[int, ...]:
    """col[b] is the bitmask of the individuals that are b under a derived
    reading, for the relation with bit size*y+x of `prim_mask` set iff y
    prim x.  With pred(x) = {y : y prim x}, x can be a subject iff pred(x)
    is a nonempty clique; the literal reading then holds iff pred(x) =
    pred(b) = U, the charitable one iff pred(x) is a subset of pred(b)."""
    everyone, pred = (1 << size) - 1, [0] * size
    for i in range(size * size):
        if prim_mask >> i & 1:
            pred[i % size] |= 1 << i // size
    col = [0] * size
    for x, p in enumerate(pred):
        subject = p != 0
        for z in range(size):
            if p >> z & 1 and p & ~pred[z]:
                subject = False
        if subject:
            for b, q in enumerate(pred):
                if (p & ~q == 0) if charitable else p == q == everyone:
                    col[b] |= 1 << x
    return tuple(col)


@functools.cache
def _relations(size: int, charitable: bool) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(prim_mask, columns) of the first relation, in `prim_mask` order, of
    each distinct column tuple over `size` individuals.  A later relation
    with the same columns realizes only type-sets an earlier one did."""
    first: dict[tuple[int, ...], int] = {}
    for prim_mask in range(1 << size * size):
        first.setdefault(_columns(size, prim_mask, charitable), prim_mask)
    return tuple((prim_mask, col) for col, prim_mask in first.items())


def _derived_shape(k: int, bound: int, opts: SyntheticOptions) -> tuple[int, int, bool]:
    """The key of a derived reading's image over k terms, or a bound error.
    Allowing the empty universe changes nothing, as no structure is empty."""
    _universe_sizes(bound, opts)
    return k, bound, opts.reading is Reading.DERIVED_CHARITABLE


@functools.cache
def _derived_scan(k: int, bound: int, charitable: bool) -> Mapping[int, CopulaStructure]:
    """The derived image over the term positions 0..k-1 as term names, by
    type-set key: the first structure, in enumeration order, of each
    type-set the induced models realize, in order of first appearance.  As
    a form's truth depends only on the type-set, searching the image gives
    the verdicts and witnesses of a full scan.

    Walks the structures in `enumerate_copula_structures` order without
    building them, over `_relations` only.  A denotation choice d gives
    individual x the type {t : x in col[d[t]]}, so the type-set is a
    2^k-bit key.  Only the first individual of each distinct column is
    chosen: a later one repeats the key of a choice that comes earlier in
    product order."""
    witnesses: dict[int, CopulaStructure] = {}
    for size in range(1, bound + 1):
        universe = _INDIVIDUALS[:size]
        for prim_mask, col in _relations(size, charitable):
            firsts = [b for b in range(size) if col.index(col[b]) == b]
            for choice in itertools.product(firsts, repeat=k):
                key = 0
                for x in range(size):
                    key |= 1 << sum((col[b] >> x & 1) << t for t, b in enumerate(choice))
                if key not in witnesses:
                    pairs = itertools.product(universe, universe)
                    prim = frozenset(p for i, p in enumerate(pairs) if prim_mask >> i & 1)
                    denote = {t: universe[b] for t, b in enumerate(choice)}
                    witnesses[key] = CopulaStructure(universe, prim, denote)
    return MappingProxyType(witnesses)


def _named(c: CopulaStructure, terms: tuple[str, ...]) -> CopulaStructure:
    return CopulaStructure(c.universe, c.is_prim, {terms[t]: x for t, x in c.denote.items()})


def synthetic_space(terms: tuple[str, ...], bound: int, opts: SyntheticOptions) -> ModelSpace:
    """The type-sets of the direct models up to `bound`, each at its first
    model in enumeration order, or a derived reading's image."""
    if opts.reading is Reading.DIRECT:
        return monadic_space(terms, _universe_sizes(bound, opts).start, bound, True, False, _model)
    shape = _derived_shape(len(terms), bound, opts)
    image = tuple(_derived_scan(*shape).values())
    atom_vector = functools.partial(type_set_atom, _derived_scan, shape, False)
    model_at = lambda m: _named(image[m], terms)  # noqa: E731
    return ModelSpace((1 << len(image)) - 1, bound, terms, True, atom_vector, model_at)


def decide_synthetic_validity(
    f: Formula, bound: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return synthetic_space(term_names(f), bound, opts).decide(f)
