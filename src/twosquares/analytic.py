"""Set-theoretic (Venn) semantics for the analytic copulas over finite models.

An atom `S a P` compares the extent of S with the extent of P.  With
existential import on (the default), the universal affirmative also
requires a nonempty subject extent; `o` is its negation, while `e` and
`i` are import-free.  That is the minimal convention under which all
six relations of the conventional square hold at once.

Models are `search.Model` records of the analytic family: a domain and
an extent for every term, empty ones included, read and written in the
`domain`/`ext` format; a term a model lacks is an error.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import BoundError
from .formula import Formula, term_names
from .record import Record
from .search import INDIVIDUALS, Model, ModelSpace, evaluate, every_model, monadic_shape
from .verdicts import Verdict

MAX_DOMAIN = len(INDIVIDUALS[False])


class ImportPolicy(Record):
    existential_import: bool = True

    def label(self) -> str:
        return "on" if self.existential_import else "off"


IMPORT_ON = ImportPolicy(True)
IMPORT_OFF = ImportPolicy(False)


def eval_analytic(model: Model, f: Formula, policy: ImportPolicy = IMPORT_ON) -> bool:
    """Evaluate an analytic-only formula in an analytic `Model` under `policy`."""
    return evaluate(model, f, False, policy.existential_import)


def _check_domain_bound(max_domain: int) -> None:
    if not 0 <= max_domain <= MAX_DOMAIN:
        raise BoundError(f"domain bound {max_domain} outside 0..{MAX_DOMAIN}")


def enumerate_analytic_models(terms: tuple[str, ...], max_domain: int) -> Iterator[Model]:
    """All models with |domain| <= max_domain, smallest domain first, then
    lexicographic extension assignments (subset bitmasks ascending, the
    first term varying slowest)."""
    _check_domain_bound(max_domain)
    yield from every_model(terms, range(max_domain + 1), False)


def analytic_space(terms: tuple[str, ...], bound: int, policy: ImportPolicy) -> ModelSpace:
    """The type-sets of `enumerate_analytic_models(terms, bound)`, each at its first model."""
    _check_domain_bound(bound)
    return ModelSpace(monadic_shape(len(terms), 0, bound, False, policy.existential_import), terms)


def decide_analytic_validity(f: Formula, bound: int, policy: ImportPolicy = IMPORT_ON) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return analytic_space(term_names(f), bound, policy).decide(f)
