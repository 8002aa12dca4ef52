"""Set-theoretic (Venn) semantics for the analytic copulas over finite models.

An atom `S a P` compares the extent of S with the extent of P.  With
existential import on (the default), the universal affirmative also
requires a nonempty subject extent; `o` is its negation, while `e` and
`i` are import-free.  That is the minimal convention under which all
six relations of the conventional square hold at once.

Models are `search.Model` records of the analytic family: a domain and
an extent for every term, empty ones included, read and written in the
`domain`/`ext` format; a term a model lacks is an error.  The semantics
is `WITH_IMPORT` or `WITHOUT_IMPORT`, an `AnalyticSemantics` record of
one bool with the five methods of `synthetic.SyntheticOptions`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import BoundError
from .formula import Formula, term_names
from .record import Record
from .search import INDIVIDUALS, Model, ModelSpace, Verdict, evaluate, every_model, monadic_shape

MAX_DOMAIN = len(INDIVIDUALS[False])
IMPORT_ON, IMPORT_OFF = True, False


class AnalyticSemantics(Record):
    existential_import: bool = IMPORT_ON

    def label(self) -> str:
        return f"analytic(import={'on' if self.existential_import else 'off'})"

    def sizes(self, bound: int) -> range:
        """The domain sizes up to `bound`, or an error past the cap."""
        if not 0 <= bound <= MAX_DOMAIN:
            raise BoundError(f"domain bound {bound} outside 0..{MAX_DOMAIN}")
        return range(bound + 1)

    def space(self, terms: tuple[str, ...], bound: int) -> ModelSpace:
        """The type-sets of `enumerate_analytic_models(terms, bound)`, each at its first model."""
        self.sizes(bound)
        return ModelSpace(monadic_shape(len(terms), 0, bound, False, self.existential_import), terms)

    def evaluate(self, model: Model, f: Formula) -> bool:
        return eval_analytic(model, f, self.existential_import)

    def decide(self, f: Formula, bound: int) -> Verdict:
        return decide_analytic_validity(f, bound, self.existential_import)


WITH_IMPORT, WITHOUT_IMPORT = AnalyticSemantics(IMPORT_ON), AnalyticSemantics(IMPORT_OFF)


def eval_analytic(model: Model, f: Formula, existential_import: bool = IMPORT_ON) -> bool:
    """Evaluate an analytic-only formula in an analytic `Model`, with or without import."""
    return evaluate(model, f, False, existential_import)


def enumerate_analytic_models(terms: tuple[str, ...], max_domain: int) -> Iterator[Model]:
    """All models with |domain| <= max_domain, smallest domain first, then
    lexicographic extension assignments (subset bitmasks ascending, the
    first term varying slowest)."""
    yield from every_model(terms, WITH_IMPORT.sizes(max_domain), False)


def decide_analytic_validity(f: Formula, bound: int, existential_import: bool = IMPORT_ON) -> Verdict:
    """Valid up to `bound`, or the first (minimal) countermodel."""
    return (WITH_IMPORT if existential_import else WITHOUT_IMPORT).space(term_names(f), bound).decide(f)
