"""Oracles kept out of the package.

Model-by-model search, the oracle for the bit-parallel search: each
function visits the models one at a time, in the order the enumerators
yield them, and stops where the first model of interest shows up, as
the checkers did before they evaluated every model at once.
`derived_scan` builds the derived image the same way, one structure and
induced model at a time.  `structure_walk` and `induced_models` are one
cached walk over every copula structure, shared by the tests that
compare against all of them.

The pair carrier, the oracle for the packed one in `twosquares.starb`:
an element is the coefficient pair (f0, f1) and every operation acts on
the two coefficients through the base algebra's own operations.
"""

import functools
from dataclasses import dataclass

from twosquares.analytic import enumerate_analytic_models
from twosquares.formula import atoms, render, term_names
from twosquares.opposition import AnalyticSemantics, OppositionRelation, RelationKind
from twosquares.starb import (
    CaseOutcome,
    FiniteBooleanAlgebra,
    OrderMode,
    Proposition1Report,
    SquareSweepResult,
)
from twosquares.synthetic import (
    MAX_UNIVERSE_DERIVED,
    Reading,
    SyntheticOptions,
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
    start = 0 if opts.allow_empty_universe else 1
    witnesses = {}
    for c, types in zip(structure_walk(terms), _type_sets(terms, charitable)):
        if start <= len(c.universe) <= bound:
            witnesses.setdefault(types, c)
    return tuple(witnesses.values())


@functools.cache
def structure_walk(terms):
    """Every copula structure over `terms` up to the derived bound, in
    enumeration order, with the empty universe allowed: it adds the one
    empty structure when `terms` is empty and none otherwise.  The
    reading does not change the walk, and the structures of a smaller
    universe come first."""
    opts = SyntheticOptions(Reading.DERIVED_LITERAL, allow_empty_universe=True)
    return tuple(enumerate_copula_structures(terms, MAX_UNIVERSE_DERIVED, opts))


@functools.cache
def induced_models(terms, charitable):
    """The induced model of each structure of `structure_walk(terms)`."""
    return tuple(induced_model(c, charitable) for c in structure_walk(terms))


@functools.cache
def _type_sets(terms, charitable):
    return tuple(type_set(m) for m in induced_models(terms, charitable))


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


# --- the pair carrier -----------------------------------------------------------

@dataclass(frozen=True)
class PairElement:
    algebra: FiniteBooleanAlgebra
    f0: int
    f1: int

    def __post_init__(self):
        self.algebra.check(self.f0)
        self.algebra.check(self.f1)

    @property
    def standard(self):
        return self.f0 == self.f1

    def __str__(self):
        render = self.algebra.render_element
        if self.standard:
            return "*" + render(self.f0)
        return f"⟨{render(self.f0)}, {render(self.f1)}⟩"


def pair_elements(alg):
    return tuple(PairElement(alg, f0, f1) for f0 in alg.elements() for f1 in alg.elements())


def pair_meet(x, y):
    alg = x.algebra
    return PairElement(alg, alg.meet(x.f0, y.f0), alg.meet(x.f1, y.f1))


def pair_join(x, y):
    alg = x.algebra
    return PairElement(alg, alg.join(x.f0, y.f0), alg.join(x.f1, y.f1))


def pair_complement(x):
    return PairElement(x.algebra, x.algebra.comp(x.f0), x.algebra.comp(x.f1))


def pair_fneg(x):
    return PairElement(x.algebra, x.f1, x.f0)


def pair_leq(x, y, mode=OrderMode.POINTWISE):
    alg = x.algebra
    if mode is OrderMode.POINTWISE:
        return alg.leq(x.f0, y.f0) and alg.leq(x.f1, y.f1)
    if x.standard and y.standard:
        return alg.leq(x.f0, y.f0)
    if x.standard:
        return x.f0 == alg.bottom
    if y.standard:
        return y.f0 != alg.bottom
    return alg.leq(x.f0, y.f0) and alg.leq(x.f1, y.f1)


def pair_incomparable(x, y):
    return not pair_leq(x, y) and not pair_leq(y, x)


def pair_matrix_imp(x, y):
    return pair_join(pair_complement(pair_join(x, y)), y)


def pair_quadruple(x):
    return x, pair_fneg(x), pair_complement(x), pair_complement(pair_fneg(x))


def _pair_cases():
    leq, incomparable = pair_leq, pair_incomparable
    return (
        (1, "¬[f], [f¬] incomparable → bounds on ([f],[f¬])",
         lambda f, fn, nf, nfn: incomparable(nf, fn),
         lambda f, fn, nf, nfn: (f, fn), "bounds-only"),
        (2, "[f¬] ≤ ¬[f] → inf([f],[f¬]) = *0",
         lambda f, fn, nf, nfn: leq(fn, nf),
         lambda f, fn, nf, nfn: (f, fn), "inf-bottom"),
        (3, "¬[f] ≤ [f¬] → sup([f],[f¬]) = *1",
         lambda f, fn, nf, nfn: leq(nf, fn),
         lambda f, fn, nf, nfn: (f, fn), "sup-top"),
        (4, "[f], ¬[f¬] incomparable → bounds on (¬[f],¬[f¬])",
         lambda f, fn, nf, nfn: incomparable(f, nfn),
         lambda f, fn, nf, nfn: (nf, nfn), "bounds-only"),
        (5, "[f] ≤ ¬[f¬] → sup(¬[f],¬[f¬]) = *1",
         lambda f, fn, nf, nfn: leq(f, nfn),
         lambda f, fn, nf, nfn: (nf, nfn), "sup-top"),
        (6, "¬[f¬] ≤ [f] → inf(¬[f],¬[f¬]) = *0",
         lambda f, fn, nf, nfn: leq(nfn, f),
         lambda f, fn, nf, nfn: (nf, nfn), "inf-bottom"),
        (7, "¬[f¬], ¬[f] incomparable → bounds on ([f],¬[f¬])",
         lambda f, fn, nf, nfn: incomparable(nfn, nf),
         lambda f, fn, nf, nfn: (f, nfn), "bounds-only"),
        (8, "¬[f¬] ≤ ¬[f] → inf([f],¬[f¬]) = *0",
         lambda f, fn, nf, nfn: leq(nfn, nf),
         lambda f, fn, nf, nfn: (f, nfn), "inf-bottom"),
        (9, "¬[f] ≤ ¬[f¬] → sup([f],¬[f¬]) = *1",
         lambda f, fn, nf, nfn: leq(nf, nfn),
         lambda f, fn, nf, nfn: (f, nfn), "sup-top"),
        (10, "[f], [f¬] incomparable → bounds on (¬[f],[f¬])",
         lambda f, fn, nf, nfn: incomparable(f, fn),
         lambda f, fn, nf, nfn: (nf, fn), "bounds-only"),
        (11, "[f] ≤ [f¬] → sup(¬[f],[f¬]) = *1",
         lambda f, fn, nf, nfn: leq(f, fn),
         lambda f, fn, nf, nfn: (nf, fn), "sup-top"),
        (12, "[f¬] ≤ [f] → inf(¬[f],[f¬]) = *0",
         lambda f, fn, nf, nfn: leq(fn, f),
         lambda f, fn, nf, nfn: (nf, fn), "inf-bottom"),
    )


def pair_classify_cases(x):
    quad = pair_quadruple(x)
    alg = x.algebra
    bottom, top = PairElement(alg, alg.bottom, alg.bottom), PairElement(alg, alg.top, alg.top)
    outcomes = []
    for case_id, description, hypothesis, pair, exact in _pair_cases():
        holds = hypothesis(*quad)
        conclusion = None
        if holds:
            u, v = pair(*quad)
            inf, sup = pair_meet(u, v), pair_join(u, v)
            conclusion = pair_leq(bottom, inf) and pair_leq(sup, top)
            if exact == "inf-bottom":
                conclusion = conclusion and inf == bottom
            elif exact == "sup-top":
                conclusion = conclusion and sup == top
        outcomes.append(CaseOutcome(case_id, description, holds, conclusion))
    return tuple(outcomes)


def _pair_opposition(x, y):
    """(contrary, subcontrary, contradictory) read off the lattice."""
    alg = x.algebra
    bottom, top = PairElement(alg, alg.bottom, alg.bottom), PairElement(alg, alg.top, alg.top)
    return pair_meet(x, y) == bottom, pair_join(x, y) == top, y == pair_complement(x)


def _pair_conventional(f, fn, nf, nfn):
    return (
        ("[f],[f¬] contrary", _pair_opposition(f, fn)[0]),
        ("¬[f¬],¬[f] subcontrary", _pair_opposition(nfn, nf)[1]),
        ("[f],¬[f] contradictory", _pair_opposition(f, nf)[2]),
        ("[f¬],¬[f¬] contradictory", _pair_opposition(fn, nfn)[2]),
        ("[f] ≤ ¬[f¬] subalternation", pair_leq(f, nfn)),
        ("[f¬] ≤ ¬[f] subalternation", pair_leq(fn, nf)),
    )


def _pair_synthetic(f, fn, nf, nfn):
    return (
        ("[f],¬[f¬] contrary", _pair_opposition(f, nfn)[0]),
        ("¬[f],[f¬] subcontrary", _pair_opposition(nf, fn)[1]),
        ("[f],¬[f] contradictory", _pair_opposition(f, nf)[2]),
        ("[f¬],¬[f¬] contradictory", _pair_opposition(fn, nfn)[2]),
        ("[f] ≤ [f¬] subalternation", pair_leq(f, fn)),
        ("¬[f¬] ≤ ¬[f] subalternation", pair_leq(nfn, nf)),
    )


def pair_verify_two_squares(alg):
    bottom = PairElement(alg, alg.bottom, alg.bottom)
    conv_satisfied = conv_nonstandard = 0
    conv_violations = []
    syn_satisfied = syn_nonstandard = 0
    syn_violations = []
    equivalences_ok = True
    bullet_ok = True
    bullet_witness = None
    for x in pair_elements(alg):
        f, fn, nf, nfn = pair_quadruple(x)
        conv_condition = pair_meet(f, fn) == bottom
        if conv_condition != pair_leq(fn, nf):
            equivalences_ok = False
        if conv_condition:
            conv_satisfied += 1
            if not x.standard:
                conv_nonstandard += 1
            for label, holds in _pair_conventional(f, fn, nf, nfn):
                if not holds:
                    conv_violations.append(f"{x}: {label}")
        syn_condition = pair_leq(f, fn)
        if syn_condition != pair_leq(nfn, nf):
            equivalences_ok = False
        if syn_condition:
            syn_satisfied += 1
            if not x.standard:
                syn_nonstandard += 1
            for label, holds in _pair_synthetic(f, fn, nf, nfn):
                if not holds:
                    syn_violations.append(f"{x}: {label}")
        if pair_leq(fn, f) and not all(h for _, h in _pair_conventional(f, fn, nf, nfn)):
            if bullet_ok:
                bullet_witness = str(x)
            bullet_ok = False
    return Proposition1Report(
        atom_count=alg.atom_count,
        total_elements=alg.size * alg.size,
        conventional=SquareSweepResult(
            "inf([f],[f¬]) = *0", conv_satisfied, conv_nonstandard, tuple(conv_violations)
        ),
        synthetic=SquareSweepResult(
            "[f] ≤ [f¬]", syn_satisfied, syn_nonstandard, tuple(syn_violations)
        ),
        hypothesis_equivalences_ok=equivalences_ok,
        proof_bullet_generates_conventional=bullet_ok,
        proof_bullet_witness=bullet_witness,
    )
