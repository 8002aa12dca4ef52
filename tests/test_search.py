"""The bit-parallel search against the model-by-model oracle in oracles.py."""

import json
import random

import pytest

from twosquares.analytic import (
    IMPORT_OFF,
    IMPORT_ON,
    analytic_space,
    decide_analytic_validity,
    enumerate_analytic_models,
)
from twosquares.copula import derived_shape, enumerate_copula_structures
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
    classify_pair,
    synthetic_square,
)
from twosquares.search import Counterexample, Model, Valid, monadic_keys, monadic_shape, type_set_atom
from twosquares.synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    Reading,
    SyntheticOptions,
    decide_synthetic_validity,
    enumerate_synthetic_models,
    synthetic_space,
)
from oracles import models, scan_classify, scan_decide, verdict_bytes

# (semantics, bounds) for every family, policy and reading
CASES = [
    *[(AnalyticSemantics(existential_import), (0, 1, 2, 3, 4)) for existential_import in (IMPORT_ON, IMPORT_OFF)],
    (SyntheticSemantics(DIRECT_NONEMPTY), (1, 2, 3, 4)),
    (SyntheticSemantics(DIRECT_EMPTY_OK), (0, 1, 2, 3, 4)),
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
            formulas += [entry.schema.formula for entry in catalog_entries()]
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


@pytest.mark.parametrize(
    "reading, enumerate_models",
    [
        (Reading.DIRECT, enumerate_synthetic_models),
        (Reading.DERIVED_LITERAL, enumerate_copula_structures),
    ],
    ids=["direct", "derived"],
)
def test_bound_0_without_the_empty_universe_is_refused(reading, enumerate_models):
    # no universe of size 1..0 exists, so there would be no model to search
    opts = SyntheticOptions(reading)
    square = synthetic_square()
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), 0, opts)
    with pytest.raises(BoundError):
        classify_pair(square.corners["a"], square.corners["o"], SyntheticSemantics(opts), 0)
    with pytest.raises(BoundError):
        next(enumerate_models(("P", "S"), 0, opts))


def test_every_small_model_reads_back_from_its_file():
    """Both families' models up to two individuals, empty extents and the
    empty models included, come back equal from their files, with the same
    summary and hash."""
    models = [*enumerate_analytic_models(("P", "S"), 2),
              *enumerate_synthetic_models(("P", "S"), 2, DIRECT_EMPTY_OK)]
    assert models[0] == Model((), (("P", 0), ("S", 0)), False) and Model((), (), True) in models
    for m in models:
        twin = Model.from_dict(json.loads(json.dumps(m.to_dict())), m.synthetic)
        assert (twin, twin.summary(), hash(twin)) == (m, m.summary(), hash(m))
    assert len(set(models)) == len({m.summary() for m in models}) == len(models) == 42


def type_set_of(model, terms):
    """The set of term-types the individuals of a monadic model realize."""
    return frozenset(frozenset(t for t in terms if model.extent(t) >> i & 1) for i in range(len(model.universe)))


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_type_sets_come_in_the_order_of_their_first_models(k):
    terms = ("M", "P", "S", "T")[:k]
    for bound in range(3 if k == 4 else 5):
        spaces = [
            (analytic_space(terms, bound, IMPORT_ON), enumerate_analytic_models(terms, bound)),
            (
                synthetic_space(terms, bound, DIRECT_EMPTY_OK),
                enumerate_synthetic_models(terms, bound, DIRECT_EMPTY_OK),
            ),
        ]
        if bound:  # the nonempty direct family starts at size 1
            spaces.append((
                synthetic_space(terms, bound, DIRECT_NONEMPTY),
                enumerate_synthetic_models(terms, bound, DIRECT_NONEMPTY),
            ))
        for space, enumerated in spaces:
            first = {}
            for model in enumerated:
                first.setdefault(type_set_of(model, terms), model)
            assert space.full == (1 << len(first)) - 1, (k, bound)
            witnesses = [space.model(m).to_dict() for m in range(len(first))]
            assert witnesses == [model.to_dict() for model in first.values()], (k, bound)


def test_type_set_counts():
    for k, bound, count in ((1, 4, 4), (2, 4, 16), (3, 4, 163), (4, 3, 697), (5, 4, 41449)):
        assert len(monadic_keys(k, 0, bound)) == count
        assert len(monadic_keys(k, 1, bound)) == count - 1
    assert analytic_space(("P", "S"), 4, IMPORT_ON).full.bit_length() == 16
    assert synthetic_space(("M", "P", "S"), 4, DIRECT_NONEMPTY).full.bit_length() == 162


def chain(k, copula="a"):
    """`T00 c T01 & ... & Tk-2 c Tk-1 -> T00 c Tk-1`, valid for `a` with import on."""
    links = " & ".join(f"T{i:02} {copula} T{i + 1:02}" for i in range(k - 1))
    return parse(f"{links} -> T00 {copula} T{k - 1:02}")


def table_sizes():
    """The entries of every table a search builds: type-set keys, per-shape
    tables, atom vectors and derived shapes."""
    tables = (monadic_keys, monadic_shape, type_set_atom, derived_shape)
    return tuple(table.cache_info().currsize for table in tables)


def test_bound_guard_comes_before_any_table():
    before = table_sizes()
    with pytest.raises(BoundError):
        decide_analytic_validity(parse("S a P"), 7)
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), 5)
    with pytest.raises(BoundError):
        decide_synthetic_validity(parse("S sa P"), -1, DIRECT_EMPTY_OK)
    with pytest.raises(BoundError):  # 242 825 type-sets over five terms
        decide_analytic_validity(parse("S a P | M a Q | Q a R"), 5)
    # the smallest refused term count at each bound: past 2^16 type-sets,
    # or at bound 1 past 2^24 bits of type-set keys
    for k, bound, count in ((6, 4, 679121), (7, 3, 349633), (9, 2, 131329), (12, 1, 4097)):
        with pytest.raises(BoundError, match=f"give {count} type-sets"):
            decide_analytic_validity(chain(k), bound)
    with pytest.raises(BoundError, match="give 8192 type-sets of 8192 bits each, 67108864 bits"):
        decide_synthetic_validity(chain(13, "sa"), 1)
    for reading in (Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE):
        for bound in (0, 4):
            with pytest.raises(BoundError):
                decide_synthetic_validity(parse("S sa P"), bound, SyntheticOptions(reading, True))
    assert table_sizes() == before


def test_largest_admitted_shapes_decide():
    # 41 449 type-sets over five terms at bound 4, 32 897 over eight at bound 2,
    # and at bound 1 2 049 keys of 2^11 bits, or 4 096 of 2^12 without the empty model
    assert decide_analytic_validity(chain(5), 4) == Valid(4)
    assert decide_analytic_validity(chain(8), 2) == Valid(2)
    assert decide_analytic_validity(chain(11), 1) == Valid(1)
    assert decide_synthetic_validity(chain(12, "sa"), 1) == Valid(1)


@pytest.mark.parametrize(
    "decide, formula",
    [
        (lambda f: decide_analytic_validity(f, 3, IMPORT_OFF), "{0} a {1} & {1} a {2} -> {2} a {0}"),
        (
            lambda f: decide_synthetic_validity(f, 3, SyntheticOptions(Reading.DERIVED_CHARITABLE)),
            "{0} sa {1} & {1} sa {2} -> {2} sa {0}",
        ),
    ],
    ids=["monadic", "derived"],
)
def test_fresh_term_names_of_a_seen_shape_build_no_table(decide, formula):
    """A space binds only its term names to its shape's tables: deciding
    over new names of a shape already seen adds no table entry, and each
    countermodel is the first one's over the names of its own decision."""
    names = [("A", "B", "C"), ("Ab", "Cd", "Ef"), ("X1", "Y1", "Z1")]  # each in sorted order
    first = decide(parse(formula.format(*names[0])))
    assert isinstance(first, Counterexample)
    before = table_sizes()
    for fresh in names[1:]:
        verdict = decide(parse(formula.format(*fresh)))
        assert table_sizes() == before
        rename = dict(zip(names[0], fresh))
        renamed = json.dumps(first.model.to_dict())
        for old, new in rename.items():
            renamed = renamed.replace(f'"{old}"', f'"{new}"')
        assert json.dumps(verdict.model.to_dict()) == renamed
        assert verdict.atom_trace == tuple(
            (" ".join(rename.get(word, word) for word in text.split()), value)
            for text, value in first.atom_trace
        )
