"""The bit-parallel search against the model-by-model oracle in oracles.py."""

import random

import pytest

from twosquares.analytic import IMPORT_OFF, IMPORT_ON, decide_analytic_validity
from twosquares.errors import BoundError
from twosquares.formula import (
    And,
    Atom,
    Copula,
    Implies,
    Not,
    Or,
    Schema,
    instantiate,
    parse,
    term_names,
)
from twosquares.opposition import (
    AnalyticSemantics,
    SyntheticSemantics,
    analytic_square,
    catalog_entries,
    catalog_formula,
    classify_pair,
    synthetic_square,
)
from twosquares.search import _bit_pattern, monadic_layout
from twosquares.synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    Reading,
    SyntheticOptions,
    decide_synthetic_validity,
    enumerate_synthetic_models,
)
from oracles import models, scan_classify, scan_decide, verdict_bytes

# (semantics, bounds) for every family, policy and reading
CASES = [
    *[(AnalyticSemantics(policy), (0, 1, 2, 3, 4)) for policy in (IMPORT_ON, IMPORT_OFF)],
    *[(SyntheticSemantics(opts), (0, 1, 2, 3, 4)) for opts in (DIRECT_NONEMPTY, DIRECT_EMPTY_OK)],
    *[
        (SyntheticSemantics(SyntheticOptions(reading, empty)), (1, 2, 3))
        for reading in (Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE)
        for empty in (False, True)
    ],
]
NAMES = ("Q", "B", "Z", "M")  # not in sorted order, so positions differ from draw order


def relation_bytes(relation):
    witnesses = {name: m.to_dict() for name, m in relation.witnesses().items()}
    return relation.kind, witnesses


def random_formula(rng, names, copulas, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names), rng.choice(copulas), rng.choice(names))
    shape = rng.choice((Not, And, Or, Implies))
    if shape is Not:
        return Not(random_formula(rng, names, copulas, depth - 1))
    return shape(random_formula(rng, names, copulas, depth - 1),
                 random_formula(rng, names, copulas, depth - 1))


def random_over(rng, names, copulas):
    """A random formula in which every one of `names` occurs."""
    while True:
        f = random_formula(rng, names, copulas)
        if set(term_names(f)) == set(names):
            return f


def copulas_of(semantics):
    family = [c for c in Copula if c.synthetic == isinstance(semantics, SyntheticSemantics)]
    return tuple(family)


def square_of(semantics):
    return synthetic_square() if isinstance(semantics, SyntheticSemantics) else analytic_square()


@pytest.mark.parametrize("semantics, bounds", CASES, ids=[s.label() for s, _ in CASES])
def test_decisions_and_classifications_match_the_oracle(semantics, bounds):
    rng = random.Random(f"search:{semantics.label()}")
    copulas = copulas_of(semantics)
    square = square_of(semantics)
    for bound in bounds:
        formulas = []
        if isinstance(semantics, SyntheticSemantics):
            formulas += [catalog_formula(entry) for entry in catalog_entries()]
        for k in (1, 2, 3, 4):
            if k == 4 and bound == bounds[-1]:
                continue  # too many models or structures for the oracle
            formulas += [random_over(rng, rng.sample(NAMES, k), copulas) for _ in range(4)]
        for f in formulas:
            assert verdict_bytes(semantics.decide(f, bound)) == verdict_bytes(
                scan_decide(semantics, f, bound)
            ), (f, bound)

        pairs = [(square.corners[a], square.corners[b]) for a, b, _ in square.expected]
        for _ in range(4):
            names = rng.sample(NAMES, 2)
            pairs.append(tuple(Schema(random_over(rng, names, copulas), names) for _ in range(2)))
        for phi, psi in pairs:
            left = instantiate(phi, {m: m for m in phi.metavars})
            right = instantiate(psi, {m: m for m in psi.metavars})
            expected = scan_classify(
                left, right, models(semantics, tuple(sorted(phi.metavars)), bound),
                semantics.evaluate, bound,
            )
            assert relation_bytes(classify_pair(phi, psi, semantics, bound)) == relation_bytes(
                expected
            ), (left, right, bound)


def test_layout_matches_the_enumeration():
    terms = ("M", "P", "S")
    enumerated = list(enumerate_synthetic_models(terms, 2, DIRECT_EMPTY_OK))
    layout = monadic_layout(len(terms), 0, 2)
    assert layout.full == (1 << len(enumerated)) - 1
    for m, model in enumerate(enumerated):
        size, masks = layout.masks(m)
        assert len(model.universe) == size
        for t, term in enumerate(terms):
            for i, individual in enumerate(model.universe):
                fact = model.holds(individual, term)
                assert bool(masks[t] >> i & 1) == fact
                assert bool(layout.member[t][i] >> m & 1) == fact
            assert not any(layout.member[t][i] >> m & 1 for i in range(size, 2))


def test_bit_pattern_by_doubling():
    for b, length in ((0, 2), (0, 16), (2, 16), (3, 16), (4, 64)):
        assert _bit_pattern(b, length) == sum(1 << m for m in range(length) if m >> b & 1)


def test_bound_guard_comes_before_any_table():
    before = monadic_layout.cache_info().currsize
    with pytest.raises(BoundError):
        decide_analytic_validity(parse("S a P"), 7)
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), 5)
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), -1, DIRECT_EMPTY_OK)
    with pytest.raises(BoundError):  # 34 636 833 models over five terms
        decide_analytic_validity(parse("S a P | M a Q | Q a R"), 5)
    assert monadic_layout.cache_info().currsize == before
