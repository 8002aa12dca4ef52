"""The derived readings: the composite copula over a primitive "is"
relation between individuals and a denoting individual per term, and
the direct model a structure induces through it, on which `synthetic`
evaluates the forms; `synthetic` loads them at the first derived reading.

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
from types import MappingProxyType

from .errors import SemanticsError, json_object, string_list
from .record import Record
from .search import INDIVIDUALS, Model, Shape, type_set_atom
from .synthetic import SyntheticOptions, _universe_sizes


class CopulaStructure(Record):
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


def induced_model(c: CopulaStructure, charitable: bool) -> Model:
    """The direct model a structure induces under a derived reading: x is
    t iff derived_copula(c, x, c.denote[t], charitable), read off the
    columns of its primitive relation, where t's extent is its
    denotation's column."""
    size, at = len(c.universe), {x: i for i, x in enumerate(c.universe)}
    col = _columns(size, sum(1 << (size * at[y] + at[x]) for y, x in c.is_prim), charitable)
    extents = sorted((t, col[at[b]]) for t, b in c.denote.items() if col[at[b]])
    return Model(c.universe, tuple(extents), True)


def enumerate_copula_structures(
    terms: tuple[str, ...], max_u: int, opts: SyntheticOptions
) -> Iterator[CopulaStructure]:
    """All copula structures with |U| <= max_u: every primitive relation,
    every denotation assignment.  Sizes start at 1 even when the empty
    universe is allowed, as denotations need a target.  This is the
    definition of the order the derived image keeps and the tests' oracle;
    no decision walks it."""
    for size in _universe_sizes(max_u, opts):
        universe = INDIVIDUALS[True][:size]
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
        universe = INDIVIDUALS[True][:size]
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


@functools.cache
def derived_shape(k: int, bound: int, charitable: bool) -> Shape:
    """A derived reading's image over k terms up to `bound`, in order of first appearance."""
    image = tuple(_derived_scan(k, bound, charitable).values())
    atom_vector = functools.partial(type_set_atom, _derived_scan, (k, bound, charitable), False)
    witness = lambda terms, m: _named(image[m], terms)  # noqa: E731
    return Shape((1 << len(image)) - 1, bound, True, atom_vector, witness)
