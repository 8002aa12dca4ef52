"""One truth table for the copulas, and bounded search over every type-set at once.

Every form quantifies over one monadic relation with one variable, so
an atom `S c P` is decided by which of its regions hold an individual:
S and P, S only, P only, neither.  Only `copula_truth` gives the copulas
a meaning; evaluators and searches differ only in how they produce the
regions, as bits of one model or as vectors over a space.

So a formula's truth in a model depends only on its type-set, the types
(sets of terms) of its individuals.  A search ranges over type-sets, each
a 2^k-bit key with bit ty set iff type ty is realized; bit t of ty is
term position t.  An atom's vector has bit m set iff it holds at the m-th
type-set, a formula's is a fold of `~ & |` over its atoms' vectors, and
only the witness at the lowest set bit of a vector is built as a model.

The monadic families (the analytic semantics and the direct synthetic
reading) enumerate models by size n, then by a block index whose bit
n*(k-1-t)+i says that individual i is in term t.  A model that repeats a
type follows a smaller one with the same type-set, so ordering the
type-sets by their first models gives the verdicts and witnesses of a
model-by-model scan, just as bounded.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable

from .errors import BoundError, SemanticsError
from .formula import Atom, Copula, Formula, fold, render
from .record import Record
from .verdicts import Counterexample, Valid, Verdict

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


def occupied(memberships: Iterable[tuple[int, int]]) -> Regions:
    """The region bits of one model from each individual's (is S, is P)."""
    seen = set(memberships)
    return tuple(int(r in seen) for r in REGIONS)


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


class Shape(Record):
    """What a search depends on apart from its term names, built once per
    shape: `full` has one set bit per type-set, `atom_vector(s, p, copula)`
    is an atom's truth vector by term positions, and `witness(terms, m)`
    builds the model of the m-th type-set over `terms`."""

    full: int
    bound: int
    synthetic: bool
    atom_vector: Callable[[int, int, Copula], int]
    witness: Callable[[tuple[str, ...], int], object]


_implies = lambda x, y: ~x | y  # noqa: E731


class ModelSpace(Record):
    """The type-sets of a search over `terms`, in order: a shape with its
    term names bound."""

    shape: Shape
    terms: tuple[str, ...]

    full = property(lambda self: self.shape.full)

    def model(self, m: int) -> object:
        """The witness of the type-set at index `m`."""
        return self.shape.witness(self.terms, m)

    def atom(self, a: Atom) -> int:
        """The truth vector of `a`, an atom of the space's family over `terms`."""
        check_family(a.copula, self.shape.synthetic)
        try:
            s, p = self.terms.index(a.subject), self.terms.index(a.predicate)
        except ValueError:
            t = a.predicate if a.subject in self.terms else a.subject
            raise SemanticsError(f"term {t!r} is not among the searched terms") from None
        return self.shape.atom_vector(s, p, a.copula)

    def vector(self, f: Formula, atom: Callable[[Atom], int] | None = None) -> int:
        """The truth vector of `f`, with its atoms' vectors from `atom` if given."""
        v = fold(f, atom or self.atom, operator.invert, operator.and_, operator.or_, _implies)
        return v & self.shape.full

    def first(self, v: int) -> object | None:
        """The first model whose bit is set in `v`, or None."""
        return self.model(lowest_bit(v)) if v else None

    def decide(self, f: Formula) -> Verdict:
        """Valid up to the bound, or the first countermodel with the truth
        value there of each distinct atom of `f`, read off the vectors of
        the fold in first-occurrence order."""
        seen = []  # (atom, vector) of each atom occurrence, in fold order
        falsified = self.shape.full ^ self.vector(f, lambda a: seen.append((a, self.atom(a))) or seen[-1][1])
        if not falsified:
            return Valid(self.shape.bound)
        m = lowest_bit(falsified)
        trace = {render(a): bool(v >> m & 1) for a, v in seen}
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
def _type_vectors(keys_of: Callable, shape: tuple) -> dict[int, int]:
    """Each type's vector over the type-sets `keys_of(*shape)`: bit m is set iff the m-th has it."""
    members: dict[int, list[int]] = {}
    for m, key in enumerate(keys_of(*shape)):
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


@functools.cache
def type_set_atom(
    keys_of: Callable, shape: tuple, existential_import: bool, s: int, p: int, copula: Copula
) -> int:
    """Truth of `s copula p` (term positions) over the type-sets `keys_of(*shape)`:
    a region is occupied in those with a type of its membership of s and p."""
    regions = [0, 0, 0, 0]
    for ty, v in _type_vectors(keys_of, shape).items():
        regions[REGIONS.index((ty >> s & 1, ty >> p & 1))] |= v
    full = (1 << len(keys_of(*shape))) - 1
    return full & copula_truth(copula, tuple(regions), existential_import)


@functools.cache
def monadic_shape(k: int, start: int, bound: int, synthetic: bool, existential_import: bool,
                  model: Callable[[tuple[str, ...], int, tuple[int, ...]], object]) -> Shape:
    """The type-sets over k terms with start..bound types, in the order of
    their first models; `model(terms, size, masks)` builds one."""
    keys = monadic_keys(k, start, bound)
    atom_vector = functools.partial(type_set_atom, monadic_keys, (k, start, bound), existential_import)
    witness = lambda terms, m: model(terms, *_first_model(k, keys[m]))  # noqa: E731
    return Shape((1 << len(keys)) - 1, bound, synthetic, atom_vector, witness)
