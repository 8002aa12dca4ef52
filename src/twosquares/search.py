"""One truth table for the copulas, one model record for both monadic
families, and bounded search over every type-set at once, ending in a
verdict: valid up to the bound, or the first counterexample.

Every form quantifies over one monadic relation with one variable, so
an atom `S c P` is decided by which of its regions hold an individual:
S and P, S only, P only, neither.  Only `copula_truth` gives the copulas
a meaning; the evaluator and the searches differ only in how they produce
the regions, from two extent masks of one `Model` or as vectors over a
space.  Both the analytic semantics and the direct synthetic reading read
their forms over the same `Model`: individuals, and one extent per term.

So a formula's truth in a model depends only on its type-set, the types
(sets of terms) of its individuals.  A search ranges over type-sets, each
a 2^k-bit key with bit ty set iff type ty is realized; bit t of ty is
term position t.  An atom's vector has bit m set iff it holds at the m-th
type-set, a formula's is the `truth_vector` of its atoms' vectors, and
only the witness at the lowest set bit of a vector is built as a model.
A `Shape` keeps the keys and the vectors computed from them.

The monadic families (the analytic semantics and the direct synthetic
reading) enumerate models by size n, then by a block index whose bit
n*(k-1-t)+i says that individual i is in term t.  A model that repeats a
type follows a smaller one with the same type-set, so ordering the
type-sets by their first models gives the verdicts and witnesses of a
model-by-model scan, just as bounded.  A witness is the term masks of
that first model plus the names of its terms and individuals.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping

from .errors import BoundError, SemanticsError, json_object, string_list
from .formula import Atom, Copula, Formula, atom_text, holds, truth_vector
from .record import Record

# The regions S and P, S only, P only and neither, by (is S, is P).
REGIONS = ((1, 1), (1, 0), (0, 1), (0, 0))
Regions = tuple[int, int, int, int]


def copula_truth(copula: Copula, regions: Regions, existential_import: bool) -> int:
    """The truth of `S copula P` from its four region occupancies, as 0/1
    bits of one model or vectors over a space; bits beyond are unspecified."""
    both, s_only, p_only, neither = regions
    if copula in (Copula.I, Copula.E):
        v = both
    elif copula in (Copula.A, Copula.O):  # no S outside P, and with import some S at all
        v = ~s_only & both if existential_import else ~s_only
    elif copula in (Copula.SA, Copula.SO):  # some individual is S, or every one is S and P
        v = both | s_only | ~(p_only | neither)
    else:  # every individual is P and not S
        v = ~(both | s_only | neither)
    return ~v if copula in (Copula.E, Copula.O, Copula.SE, Copula.SO) else v


def check_family(copula: Copula, synthetic: bool) -> None:
    """An error unless `copula` belongs to the family of the semantics."""
    if copula.synthetic is not synthetic:
        name = ("analytic", "synthetic")
        raise SemanticsError(
            f"{name[copula.synthetic]} copula {copula.value!r} under {name[synthetic]} semantics"
        )


def lowest_bit(v: int) -> int:
    """The index of the lowest set bit of `v` > 0."""
    return (v & -v).bit_length() - 1


class Model(Record):
    """A model of either monadic family: its individuals, each term's extent
    as a bitmask over them (bit i is `universe[i]`), sorted by term, and the
    family.  The family picks the codec and how a term the model lacks reads.
    An analytic model keeps every term, empty ones too, in the `domain`/`ext`
    format, and lacks no term it is asked about.  A synthetic model keeps
    only the nonempty extents, as its `universe`/`is` format lists facts, and
    reads any other term as empty."""

    universe: tuple[str, ...]
    extents: tuple[tuple[str, int], ...]
    synthetic: bool

    def extent(self, term: str) -> int:
        for t, mask in self.extents:
            if t == term:
                return mask
        if self.synthetic:
            return 0
        raise SemanticsError(f"term {term!r} has no extent in this model")

    def _members(self, mask: int) -> list[str]:
        return sorted(x for i, x in enumerate(self.universe) if mask >> i & 1)

    def summary(self) -> str:
        parts = ["%s={%s}" % ("DU"[self.synthetic], ",".join(self.universe))]
        parts += ["%s={%s}" % (t, ",".join(self._members(mask))) for t, mask in self.extents]
        return "; ".join(parts)

    def to_dict(self) -> dict:
        if self.synthetic:
            facts = {x: [t for t, mask in self.extents if mask >> i & 1] for i, x in enumerate(self.universe)}
            return {"universe": list(self.universe), "is": facts}
        return {"domain": list(self.universe), "ext": {t: self._members(mask) for t, mask in self.extents}}

    @classmethod
    def from_dict(cls, data: Mapping, synthetic: bool) -> Model:
        members: dict[str, list[str]] = {}
        if synthetic:
            data = json_object(data, "synthetic model", ("universe",))
            universe = string_list(data["universe"], "universe", distinct=True)
            for individual, terms in json_object(data.get("is", {}), "is").items():
                if individual not in universe:
                    raise SemanticsError(f"individual {individual!r} outside the universe")
                for t in string_list(terms, f"terms of {individual!r}"):
                    members.setdefault(t, []).append(individual)
        else:
            data = json_object(data, "analytic model", ("domain", "ext"))
            universe = string_list(data["domain"], "domain", distinct=True)
            for t, xs in json_object(data["ext"], "ext").items():
                members[t] = string_list(xs, f"extent of {t!r}")
            for t, xs in members.items():
                if not set(xs) <= set(universe):
                    raise SemanticsError(f"extent of {t!r} leaves the domain")
        bit = {x: 1 << i for i, x in enumerate(universe)}
        extents = sorted((t, sum({bit[x] for x in xs})) for t, xs in members.items())
        return cls(universe, tuple(extents), synthetic)


# the individuals of the models a search or an enumeration builds, by family
INDIVIDUALS = (("1", "2", "3", "4", "5", "6"), ("u", "v", "w", "x"))


def build_model(terms: tuple[str, ...], size: int, masks: tuple[int, ...], synthetic: bool) -> Model:
    """The model of the family over its first `size` individuals in which
    `terms[t]` has the extent `masks[t]`."""
    extents = sorted(zip(terms, masks))
    if synthetic:
        extents = [e for e in extents if e[1]]
    return Model(INDIVIDUALS[synthetic][:size], tuple(extents), synthetic)


def every_model(terms: tuple[str, ...], sizes: range, synthetic: bool) -> Iterator[Model]:
    """Every model of the family over `terms` with a size in `sizes`: by size,
    then by the extent masks in product order, the first term varying slowest."""
    for size in sizes:
        for masks in itertools.product(range(1 << size), repeat=len(terms)):
            yield build_model(terms, size, masks, synthetic)


def evaluate(
    model: Model, f: Formula, synthetic: bool, existential_import: bool,
    extent: Callable[[str], int] | None = None,
) -> bool:
    """The truth of `f`, a formula of the family `synthetic`, in `model`, a
    model of that family, with each term's extent from `extent` if given."""
    if not isinstance(model, Model) or model.synthetic is not synthetic:
        raise SemanticsError(("analytic semantics expects an analytic model",
                              "synthetic semantics expects a synthetic model")[synthetic])
    extent = extent or model.extent
    full = (1 << len(model.universe)) - 1

    def atom(a: Atom) -> bool:
        check_family(a.copula, synthetic)
        x, y = extent(a.subject), extent(a.predicate)
        regions = (int(x & y != 0), int(x & ~y != 0), int(y & ~x != 0), int(x | y != full))
        return bool(copula_truth(a.copula, regions, existential_import) & 1)

    return holds(f, atom)


class Shape(Record):
    """What a search depends on apart from its term names: its type-sets as
    2^k-bit `keys` in order, their bound, the family and its import setting,
    and `witness(terms, m)`, the model of the m-th type-set over `terms`.
    `full` (one set bit per type-set) and the type and atom vectors are
    computed from `keys` on first use and kept on the shape."""

    keys: tuple[int, ...]
    bound: int
    synthetic: bool
    existential_import: bool
    witness: Callable[[tuple[str, ...], int], object]

    full = functools.cached_property(lambda self: (1 << len(self.keys)) - 1)
    _atoms = functools.cached_property(lambda self: {})  # the atom vectors built, by (s, p, copula)

    @functools.cached_property
    def _type_vectors(self) -> dict[int, int]:
        """Each type's vector: bit m is set iff the m-th type-set has it."""
        members: dict[int, list[int]] = {}
        for m, key in enumerate(self.keys):
            while key:
                members.setdefault(lowest_bit(key), []).append(m)
                key &= key - 1
        vectors = {}
        for ty, ms in members.items():
            bits = bytearray(ms[-1] // 8 + 1)
            for m in ms:
                bits[m >> 3] |= 1 << (m & 7)
            vectors[ty] = int.from_bytes(bits, "little")
        return vectors

    def atom_vector(self, s: int, p: int, copula: Copula) -> int:
        """Truth of `s copula p` (term positions) over the type-sets, kept in `_atoms`:
        a region is occupied in those with a type of its membership of s and p."""
        regions = [0, 0, 0, 0]
        for ty, members in self._type_vectors.items():
            regions[REGIONS.index((ty >> s & 1, ty >> p & 1))] |= members
        v = self._atoms[s, p, copula] = self.full & copula_truth(copula, tuple(regions), self.existential_import)
        return v


class Valid(Record):
    """True in every model up to `bound`, checked on one model per type-set; no unbounded claim."""

    bound: int

    def describe(self) -> str:
        return f"valid up to bound {self.bound}"

    def to_dict(self) -> dict:
        return {"status": self.describe()}


class Counterexample(Record):
    """First falsifying model in enumeration order, with per-atom truth values."""

    model: object
    atom_trace: tuple[tuple[str, bool], ...]

    def describe(self) -> str:
        return f"counterexample ({self.model.summary()})"

    def to_dict(self) -> dict:
        m = self.model
        return {"status": "counterexample", "witness": m.to_dict(), "witness_summary": m.summary(),
                "atom_values": dict(self.atom_trace)}


Verdict = Valid | Counterexample


class ModelSpace(Record):
    """The type-sets of a search over `terms`, in order: a shape with its
    term names bound."""

    shape: Shape
    terms: tuple[str, ...]

    full = property(lambda self: self.shape.full)

    def model(self, m: int) -> object:
        """The witness of the type-set at index `m`."""
        return self.shape.witness(self.terms, m)

    def vector(self, f: Formula, seen: list[tuple[Atom, int]] | None = None) -> int:
        """The truth vector of `f`, a formula of the space's family over `terms`;
        each atom occurrence is appended to `seen`, if given, with its vector."""
        shape, terms = self.shape, self.terms
        synthetic, vectors = shape.synthetic, shape._atoms

        def atom(a: Atom) -> int:
            if a.copula.synthetic is not synthetic:
                check_family(a.copula, synthetic)
            try:
                key = terms.index(a.subject), terms.index(a.predicate), a.copula
            except ValueError:
                t = a.predicate if a.subject in terms else a.subject
                raise SemanticsError(f"term {t!r} is not among the searched terms") from None
            v = vectors.get(key)
            if v is None:
                v = shape.atom_vector(*key)
            if seen is not None:
                seen.append((a, v))
            return v

        return truth_vector(f, atom) & shape.full

    def first(self, v: int) -> object | None:
        """The first model whose bit is set in `v`, or None."""
        return self.model(lowest_bit(v)) if v else None

    def decide(self, f: Formula) -> Verdict:
        """Valid up to the bound, or the first countermodel with the truth
        value there of each distinct atom of `f`, read off the vectors of
        the walk in first-occurrence order."""
        seen = []
        falsified = self.shape.full ^ self.vector(f, seen)
        if not falsified:
            return Valid(self.shape.bound)
        m = lowest_bit(falsified)
        trace = {atom_text(a): bool(v >> m & 1) for a, v in seen}
        return Counterexample(self.model(m), tuple(trace.items()))


MAX_TYPE_SETS = 1 << 16  # one bit per type-set: all those of four terms, 8 KiB a vector
MAX_TYPE_BITS = 1 << 24  # type-sets x 2^k bits: the keys, and the per-type vectors at most; 2 MiB


def _descending(k: int, types: Iterable[int]) -> list[int]:
    """`types` in descending order, with term position 0 the most significant bit."""
    return sorted(types, key=lambda ty: [ty >> t & 1 for t in range(k)], reverse=True)


@functools.cache
def monadic_keys(k: int, start: int, bound: int) -> tuple[int, ...]:
    """The type-sets with start..bound types over k terms, by size and then by
    the block index of their first models: each gives its types, in `_descending`
    order, to individuals 0, 1, ...; any other model with them comes later."""
    sizes = range(start, min(bound, 1 << k) + 1)
    count = sum(math.comb(1 << k, n) for n in sizes)
    if count > MAX_TYPE_SETS:
        raise BoundError(
            f"{k} terms up to size {bound} give {count} type-sets, over the cap of {MAX_TYPE_SETS}"
        )
    if count << k > MAX_TYPE_BITS:
        raise BoundError(
            f"{k} terms up to size {bound} give {count} type-sets of {1 << k} bits each,"
            f" {count << k} bits over the cap of {MAX_TYPE_BITS}"
        )
    keys = []
    for n in sizes:
        # spread[ty] << i is what individual i adds to the block index when of type ty
        spread = {ty: sum((ty >> t & 1) << n * (k - 1 - t) for t in range(k)) for ty in range(1 << k)}
        index = lambda c: sum(map(operator.lshift, map(spread.__getitem__, c), range(n)))  # noqa: E731
        block = sorted(itertools.combinations(_descending(k, spread), n), key=index)
        keys += [sum(1 << ty for ty in c) for c in block]
    return tuple(keys)


@functools.cache
def _first_model(k: int, key: int) -> tuple[int, tuple[int, ...]]:
    """The size and term masks of the first model that realizes `key`."""
    types = _descending(k, (ty for ty, bit in enumerate(reversed(bin(key))) if bit == "1"))
    return len(types), tuple(sum((ty >> t & 1) << i for i, ty in enumerate(types)) for t in range(k))


@functools.cache
def monadic_shape(k: int, start: int, bound: int, synthetic: bool, existential_import: bool) -> Shape:
    """The type-sets over k terms with start..bound types, in the order of
    their first models, each a witness of the family."""
    keys = monadic_keys(k, start, bound)
    witness = lambda terms, m: build_model(terms, *_first_model(k, keys[m]), synthetic)  # noqa: E731
    return Shape(keys, bound, synthetic, existential_import, witness)
