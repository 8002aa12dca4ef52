"""Model-by-model search: the oracle for the bit-parallel search.

Each function visits the models one at a time, in the order the
enumerators yield them, and stops where the first model of interest
shows up, as the checkers did before they evaluated every model at once.
`derived_scan` builds the derived image the same way, one structure and
induced model at a time.
"""

from twosquares.analytic import enumerate_analytic_models
from twosquares.formula import atoms, render, term_names
from twosquares.opposition import AnalyticSemantics, OppositionRelation, RelationKind
from twosquares.synthetic import (
    Reading,
    derived_image,
    enumerate_copula_structures,
    enumerate_synthetic_models,
    induced_model,
)
from twosquares.verdicts import Counterexample, Valid


def models(semantics, terms, bound):
    """The models a search under `semantics` ranges over."""
    if isinstance(semantics, AnalyticSemantics):
        return enumerate_analytic_models(terms, bound)
    opts = semantics.options
    if opts.reading is Reading.DIRECT:
        return enumerate_synthetic_models(terms, bound, opts)
    return derived_image(terms, bound, opts)


def type_set(model):
    """The set of term-types the individuals of `model` realize."""
    types = {x: set() for x in model.universe}
    for x, t in model.facts:
        types[x].add(t)
    return frozenset(frozenset(ts) for ts in types.values())


def derived_scan(terms, bound, opts):
    """The derived image by a scan of every structure: the first
    structure of each type-set its induced model realizes."""
    charitable = opts.reading is Reading.DERIVED_CHARITABLE
    witnesses = {}
    for c in enumerate_copula_structures(terms, bound, opts):
        witnesses.setdefault(type_set(induced_model(c, charitable)), c)
    return tuple(witnesses.values())


def first_counterexample(models, f, evaluate, bound):
    """Valid up to `bound`, or the first of `models` that falsifies `f`
    together with the truth value of each of its atoms there."""
    for model in models:
        if not evaluate(model, f):
            return Counterexample(model, tuple((render(a), evaluate(model, a)) for a in atoms(f)))
    return Valid(bound)


def verdict_bytes(verdict):
    """A verdict as the values its report shows."""
    if isinstance(verdict, Valid):
        return ("valid", verdict.bound)
    return ("counterexample", verdict.model.to_dict(), verdict.atom_trace)


def scan_decide(semantics, f, bound):
    return first_counterexample(models(semantics, term_names(f), bound), f, semantics.evaluate, bound)


def scan_classify(left, right, models, evaluate, bound):
    """The relation of two formulas with the first model of each
    truth-pair category among `models`."""
    both_true = both_false = first_only = second_only = None
    for model in models:
        p = evaluate(model, left)
        q = evaluate(model, right)
        if p and q and both_true is None:
            both_true = model
        elif p and not q and first_only is None:
            first_only = model
        elif q and not p and second_only is None:
            second_only = model
        elif not p and not q and both_false is None:
            both_false = model

    if both_true is None and both_false is None:
        kind = RelationKind.CONTRADICTORY
    elif both_true is None:
        kind = RelationKind.CONTRARY
    elif both_false is None:
        kind = RelationKind.SUBCONTRARY
    elif first_only is None and second_only is not None:
        kind = RelationKind.SUBALTERNATION_FORWARD
    elif second_only is None and first_only is not None:
        kind = RelationKind.SUBALTERNATION_BACKWARD
    else:
        kind = RelationKind.INDEPENDENT
    return OppositionRelation(kind, bound, both_true, both_false, first_only, second_only)
