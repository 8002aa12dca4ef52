"""Bounded search over every model at once.

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
from typing import Any, Callable

from .errors import BoundError, SemanticsError
from .formula import Atom, Copula, Formula, atoms, fold, render
from .verdicts import Counterexample, Valid, Verdict


def atom_vectors(
    terms: tuple[str, ...], synthetic: bool, vector: Callable[[int, int, Copula], int]
) -> Callable[[Atom], int]:
    """An atom's truth vector from `vector(s, p, copula)`, where s and p
    are the positions of its terms in `terms`.  An atom with a copula of
    the other family, or with a term outside `terms`, is an error."""
    position = {t: n for n, t in enumerate(terms)}
    family = ("analytic", "synthetic")

    def atom(a: Atom) -> int:
        if a.copula.synthetic is not synthetic:
            raise SemanticsError(
                f"{family[a.copula.synthetic]} copula {a.copula.value!r} "
                f"under {family[synthetic]} semantics"
            )
        try:
            s, p = position[a.subject], position[a.predicate]
        except KeyError as exc:
            raise SemanticsError(f"term {exc.args[0]!r} is not among the searched terms") from None
        return vector(s, p, a.copula)

    return atom


def lowest_bit(v: int) -> int:
    """The index of the lowest set bit of `v` > 0."""
    return (v & -v).bit_length() - 1


@dataclass(frozen=True)
class ModelSpace:
    """The models of a search, in order: `full` has one set bit per
    model, `atom` gives an atom's truth vector and `model` rebuilds the
    model at an index."""

    full: int
    bound: int
    atom: Callable[[Atom], int]
    model: Callable[[int], Any]

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
