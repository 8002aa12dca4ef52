"""Set-theoretic (Venn) semantics for the analytic copulas over finite models.

An atom `S a P` compares the extent of S with the extent of P.  With
existential import on (the default), the universal affirmative also
requires a nonempty subject extent; `o` is its negation, while `e` and
`i` are import-free.  That is the minimal convention under which all
six relations of the conventional square hold at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping

from .errors import BoundError, SemanticsError, json_object, string_list
from .formula import Atom, Formula, holds, term_names
from .record import Record
from .search import ModelSpace, Regions, check_family, copula_truth, monadic_shape, occupied
from .verdicts import Verdict

_INDIVIDUALS = ("1", "2", "3", "4", "5", "6")
MAX_DOMAIN = 6


class ImportPolicy(Record):
    existential_import: bool = True

    def label(self) -> str:
        return "on" if self.existential_import else "off"


IMPORT_ON = ImportPolicy(True)
IMPORT_OFF = ImportPolicy(False)


class AnalyticModel(Record):
    """Finite domain plus one extent per term."""

    domain: tuple[str, ...]
    ext: Mapping[str, frozenset[str]]

    def extension(self, term: str) -> frozenset[str]:
        try:
            return self.ext[term]
        except KeyError:
            raise SemanticsError(f"term {term!r} has no extent in this model") from None

    def regions(self, s: str, p: str) -> Regions:
        """Which regions of the terms s and p hold an individual."""
        x, y = self.extension(s), self.extension(p)
        return occupied((d in x, d in y) for d in self.domain)

    def summary(self) -> str:
        parts = ["D={%s}" % ",".join(self.domain)]
        for term in sorted(self.ext):
            parts.append("%s={%s}" % (term, ",".join(sorted(self.ext[term]))))
        return "; ".join(parts)

    def to_dict(self) -> dict:
        return {
            "domain": list(self.domain),
            "ext": {t: sorted(self.ext[t]) for t in sorted(self.ext)},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> AnalyticModel:
        data = json_object(data, "analytic model", ("domain", "ext"))
        domain = string_list(data["domain"], "domain", distinct=True)
        ext = {
            t: frozenset(string_list(members, f"extent of {t!r}"))
            for t, members in json_object(data["ext"], "ext").items()
        }
        for term, members in ext.items():
            if not members <= set(domain):
                raise SemanticsError(f"extent of {term!r} leaves the domain")
        return cls(domain, ext)


def eval_analytic(model: AnalyticModel, f: Formula, policy: ImportPolicy = IMPORT_ON) -> bool:
    """Evaluate an analytic-only formula in `model` under `policy`."""

    def atom(a: Atom) -> bool:
        check_family(a.copula, False)
        regions = model.regions(a.subject, a.predicate)
        return bool(copula_truth(a.copula, regions, policy.existential_import) & 1)

    return holds(f, atom)


def _check_domain_bound(max_domain: int) -> None:
    if not 0 <= max_domain <= MAX_DOMAIN:
        raise BoundError(f"domain bound {max_domain} outside 0..{MAX_DOMAIN}")


def _model(terms: tuple[str, ...], size: int, masks: tuple[int, ...]) -> AnalyticModel:
    domain = _INDIVIDUALS[:size]
    ext = {
        t: frozenset(domain[i] for i in range(size) if masks[k] >> i & 1)
        for k, t in enumerate(terms)
    }
    return AnalyticModel(domain, ext)


def enumerate_analytic_models(terms: tuple[str, ...], max_domain: int) -> Iterator[AnalyticModel]:
    """All models with |domain| <= max_domain, smallest domain first, then
    lexicographic extension assignments (subset bitmasks ascending, the
    first term varying slowest)."""
    _check_domain_bound(max_domain)
    for size in range(max_domain + 1):
        for masks in itertools.product(range(1 << size), repeat=len(terms)):
            yield _model(terms, size, masks)


def analytic_space(terms: tuple[str, ...], bound: int, policy: ImportPolicy) -> ModelSpace:
    """The type-sets of `enumerate_analytic_models(terms, bound)`, each at its first model."""
    _check_domain_bound(bound)
    return ModelSpace(monadic_shape(len(terms), 0, bound, False, policy.existential_import, _model), terms)


def decide_analytic_validity(f: Formula, bound: int, policy: ImportPolicy = IMPORT_ON) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return analytic_space(term_names(f), bound, policy).decide(f)
