"""The composite copula: a primitive "is" relation between individuals,
a denoting individual per term, and the copula defined over them.  The
derived readings in `synthetic` evaluate forms on the direct model a
structure induces through this copula."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import SemanticsError, json_object, string_list


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
