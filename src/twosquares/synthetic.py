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
the first structure of each realized type-set.  It is computed once per
term count, bound and reading from per-relation bitmask columns; only
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
from .formula import Atom, Copula, Formula, holds, term_names
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


def _check_universe_bound(max_u: int, opts: SyntheticOptions) -> None:
    cap = MAX_UNIVERSE_DIRECT if opts.reading is Reading.DIRECT else MAX_UNIVERSE_DERIVED
    if not 0 <= max_u <= cap:
        raise BoundError(f"universe bound {max_u} outside 0..{cap} for {opts.reading.value}")


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
    _check_universe_bound(max_u, opts)
    start = 0 if opts.allow_empty_universe else 1
    for size in range(start, max_u + 1):
        for masks in itertools.product(range(1 << size), repeat=len(terms)):
            yield _model(terms, size, masks)


def enumerate_copula_structures(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions
) -> Iterator[CopulaStructure]:
    """All copula structures with |U| <= max_u: every primitive relation,
    every denotation assignment.  A nonempty term list admits no empty
    structure (denotations need a target), so size 0 yields none.  This is
    the definition of the order `derived_image` keeps and the tests'
    oracle; no decision walks it."""
    _check_universe_bound(max_u, opts)
    start = 0 if opts.allow_empty_universe else 1
    for size in range(start, max_u + 1):
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
    cells, everyone = range(size), (1 << size) - 1
    pred = [sum((prim_mask >> (size * y + x) & 1) << y for y in cells) for x in cells]
    within = lambda x, b: (pred[x] | pred[b]) == pred[b]
    subjects = [x for x in cells if pred[x] and all(within(x, z) for z in cells if pred[x] >> z & 1)]
    is_b = within if charitable else lambda x, b: pred[x] == pred[b] == everyone
    return tuple(sum(1 << x for x in subjects if is_b(x, b)) for b in cells)


@functools.cache
def _derived_scan(k: int, bound: int, opts: SyntheticOptions) -> Mapping[int, CopulaStructure]:
    """`derived_image` over the term positions 0..k-1 as term names, by type-set key.

    Walks the structures in `enumerate_copula_structures` order without
    building them.  A denotation choice d gives individual x the type
    {t : x in col[d[t]]}, so the type-set is a 2^k-bit key.  A relation
    with the columns of an earlier one of the same size yields only keys
    already seen, so it is skipped."""
    _check_universe_bound(bound, opts)
    charitable = opts.reading is Reading.DERIVED_CHARITABLE
    witnesses: dict[int, CopulaStructure] = {}
    for size in range(0 if opts.allow_empty_universe else 1, bound + 1):
        universe = _INDIVIDUALS[:size]
        seen = set()
        for prim_mask in range(1 << size * size):
            col = _columns(size, prim_mask, charitable)
            if col in seen:
                continue
            seen.add(col)
            for choice in itertools.product(range(size), repeat=k):
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
    full scan.  The image is computed by term position, so one pass per
    term count serves every choice of term names."""
    return tuple(_named(c, terms) for c in _derived_scan(len(terms), bound, opts).values())


@functools.cache
def _derived_atom(k: int, bound: int, opts: SyntheticOptions, s: int, p: int, c: Copula) -> int:
    """Truth of `s c p` (term positions) over the derived image, whose
    structure with type-set key K has an individual of type t iff K has bit t."""
    keys = _derived_scan(k, bound, opts)
    rows = [occupied((t >> s & 1, t >> p & 1) for t in range(1 << k) if ts >> t & 1) for ts in keys]
    regions = tuple(sum(row[r] << m for m, row in enumerate(rows)) for r in range(4))
    return ((1 << len(keys)) - 1) & copula_truth(c, regions, False)


def synthetic_space(terms: tuple[str, ...], bound: int, opts: SyntheticOptions) -> ModelSpace:
    """Every direct model up to `bound` in enumeration order, or a
    derived reading's image."""
    _check_universe_bound(bound, opts)
    if opts.reading is Reading.DIRECT:
        start = 0 if opts.allow_empty_universe else 1
        return monadic_space(terms, start, bound, True, False, _model)
    k = len(terms)
    image = tuple(_derived_scan(k, bound, opts).values())
    atom_vector = functools.partial(_derived_atom, k, bound, opts)
    full = (1 << len(image)) - 1
    return ModelSpace(full, bound, terms, True, atom_vector, lambda i: _named(image[i], terms))


def decide_synthetic_validity(
    f: Formula, bound: int, opts: SyntheticOptions = DIRECT_NONEMPTY
) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return synthetic_space(term_names(f), bound, opts).decide(f)
