"""One truth table for the copulas, and bounded search over every model at once.

Every form quantifies over one monadic relation with one variable, so
an atom `S c P` is decided by which of its regions hold an individual:
S and P, S only, P only, neither.  Only `copula_truth` gives the copulas
a meaning; evaluators and searches differ only in how they produce the
regions, as bits of one model or as vectors over a space.

A search ranges over a fixed sequence of models.  Each atom becomes an
int whose bit m is its truth in the m-th model, a formula's vector is a
fold of `~ & |` over its atoms' vectors, and the first model with a
property is the lowest set bit of a vector.  A verdict is the same as
that of a model-by-model scan in the same order, and just as bounded.

The monadic families (the analytic semantics and the direct synthetic
reading) enumerate models in blocks, smallest size first; in a block of
size n over k terms, individual i belongs to term t (sorted position,
the first term slowest) iff bit n*(k-1-t)+i of the block index is set.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import BoundError, SemanticsError
from .formula import Atom, Copula, Formula, atoms, fold, render
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


@dataclass(frozen=True)
class ModelSpace:
    """The models of a search over `terms`, in order: `full` has one set
    bit per model, `atom_vector(s, p, copula)` is an atom's truth vector
    by term positions, and `model` rebuilds the model at an index."""

    full: int
    bound: int
    terms: tuple[str, ...]
    synthetic: bool
    atom_vector: Callable[[int, int, Copula], int]
    model: Callable[[int], Any]

    def atom(self, a: Atom) -> int:
        """The truth vector of `a`, an atom of the space's family over `terms`."""
        check_family(a.copula, self.synthetic)
        try:
            s, p = self.terms.index(a.subject), self.terms.index(a.predicate)
        except ValueError:
            t = a.predicate if a.subject in self.terms else a.subject
            raise SemanticsError(f"term {t!r} is not among the searched terms") from None
        return self.atom_vector(s, p, a.copula)

    def vector(self, f: Formula) -> int:
        """The truth vector of `f`."""
        implies = lambda x, y: ~x | y  # noqa: E731
        return fold(f, self.atom, operator.invert, operator.and_, operator.or_, implies) & self.full

    def first(self, v: int) -> Any | None:
        """The first model whose bit is set in `v`, or None."""
        return self.model(lowest_bit(v)) if v else None

    def decide(self, f: Formula) -> Verdict:
        """Valid up to the bound, or the first countermodel with the
        truth value of each atom of `f` there."""
        falsified = self.full ^ self.vector(f)
        if not falsified:
            return Valid(self.bound)
        m = lowest_bit(falsified)
        trace = tuple((render(a), bool(self.atom(a) >> m & 1)) for a in atoms(f))
        return Counterexample(self.model(m), trace)


def _bit_pattern(b: int, length: int) -> int:
    """The `length`-bit int whose bit m is bit b of m, built by doubling
    shifts in time linear in `length`."""
    period = 2 << b
    x = ((1 << (1 << b)) - 1) << (1 << b)
    while period < length:
        x |= x << period
        period <<= 1
    return x


@dataclass(frozen=True)
class MonadicLayout:
    """The blocks of sizes start..bound over k terms.  `member[t][i]` is
    the vector of "individual i is in term t" and `present[i]` that of
    "the model has an individual i"; `full` has every model's bit set."""

    k: int
    start: int
    full: int
    member: tuple[tuple[int, ...], ...]
    present: tuple[int, ...]

    def masks(self, index: int) -> tuple[int, tuple[int, ...]]:
        """The block size of model `index` and each term's member mask."""
        n = self.start
        while index >= 1 << (n * self.k):
            index -= 1 << (n * self.k)
            n += 1
        return n, tuple(index >> (n * (self.k - 1 - t)) & ((1 << n) - 1) for t in range(self.k))


# One bit per model: a larger space needs megabytes per vector.  The
# model-by-model scan it replaces took hours at this size.
MAX_MODELS = 1 << 25


@functools.cache
def monadic_layout(k: int, start: int, bound: int) -> MonadicLayout:
    """The vectors over every model with start..bound individuals and k
    terms, in the order the monadic enumerators yield them."""
    size = sum(1 << (n * k) for n in range(start, bound + 1))
    if size > MAX_MODELS:
        raise BoundError(
            f"{k} terms up to size {bound} give {size} models, more than the {MAX_MODELS} searched"
        )
    member = [[0] * bound for _ in range(k)]
    present = [0] * bound
    offset = 0
    for n in range(start, bound + 1):
        length = 1 << (n * k)
        for i in range(n):
            present[i] |= ((1 << length) - 1) << offset
            for t in range(k):
                member[t][i] |= _bit_pattern(n * (k - 1 - t) + i, length) << offset
        offset += length
    full = (1 << offset) - 1
    return MonadicLayout(k, start, full, tuple(map(tuple, member)), tuple(present))


def any_of(vectors) -> int:
    """The bits set in any of `vectors`."""
    return functools.reduce(operator.or_, vectors, 0)


@functools.cache
def _monadic_atom(
    k: int, start: int, bound: int, existential_import: bool, s: int, p: int, copula: Copula
) -> int:
    """Truth of `s copula p` (term positions) over `monadic_layout(k, start, bound)`."""
    layout = monadic_layout(k, start, bound)
    rows = tuple(zip(layout.present, layout.member[s], layout.member[p]))
    regions = tuple(
        any_of(e & (x if a else ~x) & (y if b else ~y) for e, x, y in rows) for a, b in REGIONS
    )
    return layout.full & copula_truth(copula, regions, existential_import)


def monadic_space(
    terms: tuple[str, ...],
    start: int,
    bound: int,
    synthetic: bool,
    existential_import: bool,
    model: Callable[[tuple[str, ...], int, tuple[int, ...]], Any],
) -> ModelSpace:
    """Every model over `terms` with start..bound individuals, in the
    enumerators' order; `model(terms, size, masks)` builds one."""
    layout = monadic_layout(len(terms), start, bound)
    atom_vector = functools.partial(_monadic_atom, len(terms), start, bound, existential_import)
    model_at = lambda index: model(terms, *layout.masks(index))  # noqa: E731
    return ModelSpace(layout.full, bound, terms, synthetic, atom_vector, model_at)
