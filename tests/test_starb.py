import copy
import itertools
import operator
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from twosquares import starb
from twosquares.errors import BoundError, SemanticsError
from twosquares.formula import And, Atom, Copula, Implies, Not, Or, parse
from twosquares.opposition import RelationKind, SquareSpec, analytic_square, synthetic_square
from twosquares.report import report_json, run_verify_paper
from twosquares.starb import (
    ONE,
    BridgeModel,
    FiniteBooleanAlgebra,
    UltraElement,
    all_elements,
    bridge_satisfies,
    bridge_tables,
    case_analysis,
    classify_cases,
    complement,
    fneg,
    incomparable,
    join,
    leq,
    lift,
    matrix_eval,
    matrix_imp,
    matrix_neg,
    meet,
    mk_standard,
    quadruple,
    square_relations,
    verify_two_squares,
)

from oracles import (
    PairElement,
    pair_bridge_tables,
    pair_bridge_value,
    pair_carrier_sections,
    pair_classify_cases,
    pair_complement,
    pair_conventional,
    pair_designated,
    pair_elements,
    pair_fneg,
    pair_incomparable,
    pair_join,
    pair_leq,
    pair_matrix_imp,
    pair_meet,
    pair_quadruple,
    pair_synthetic,
    pair_verify_two_squares,
)

GOLDEN = Path(__file__).parent / "data"
ALG2 = FiniteBooleanAlgebra(2)
P = 0b01  # the atom p as a mask in the 2-atom algebra
Q = 0b10


def shannon(alg, f0, f1):
    """Pointwise oracle: the function the pair denotes."""
    return lambda a: (a & f1) | (alg.top & ~a & f0)


# --- algebra and carrier basics ----------------------------------------------

def test_algebra_bounds():
    with pytest.raises(BoundError):
        FiniteBooleanAlgebra(0)
    with pytest.raises(BoundError):
        FiniteBooleanAlgebra(5)


def test_boolean_laws_exhaustive_three_atoms():
    alg = FiniteBooleanAlgebra(3)
    elems = all_elements(alg)
    bottom, top = mk_standard(alg, 0), mk_standard(alg, alg.top)
    for x in elems:
        assert meet(x, complement(x)) == bottom
        assert join(x, complement(x)) == top
        assert complement(complement(x)) == x
    for x, y in itertools.product(elems, repeat=2):
        assert meet(x, y) == meet(y, x)
        assert join(x, y) == join(y, x)
    some = elems[:: max(1, len(elems) // 12)]
    for x, y, z in itertools.product(some, repeat=3):
        assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))


def test_standard_embedding_preserves_order():
    for m in ALG2.elements():
        for n in ALG2.elements():
            assert leq(mk_standard(ALG2, m), mk_standard(ALG2, n)) == (m & ~n == 0)


def test_standard_top_and_bottom():
    assert mk_standard(ALG2, ALG2.top) == UltraElement(ALG2, 0b11, 0b11)
    assert str(mk_standard(ALG2, ALG2.top)) == "*1"
    assert str(mk_standard(ALG2, 0)) == "*0"
    assert str(UltraElement(ALG2, P, 0)) == "⟨p, 0⟩"


def test_lattice_ops_match_pointwise_oracle():
    for x, y in itertools.product(all_elements(ALG2), repeat=2):
        fx, fy = shannon(ALG2, x.f0, x.f1), shannon(ALG2, y.f0, y.f1)
        m, j = meet(x, y), join(x, y)
        fm, fj = shannon(ALG2, m.f0, m.f1), shannon(ALG2, j.f0, j.f1)
        for a in ALG2.elements():
            assert fm(a) == fx(a) & fy(a)
            assert fj(a) == fx(a) | fy(a)
    for x in all_elements(ALG2):
        fx = shannon(ALG2, x.f0, x.f1)
        n = complement(x)
        fn = shannon(ALG2, n.f0, n.f1)
        for a in ALG2.elements():
            assert fn(a) == ALG2.top & ~fx(a)


def test_ops_commute_with_standard_embedding():
    for m, n in itertools.product(ALG2.elements(), repeat=2):
        assert meet(mk_standard(ALG2, m), mk_standard(ALG2, n)) == mk_standard(ALG2, m & n)
        assert join(mk_standard(ALG2, m), mk_standard(ALG2, n)) == mk_standard(ALG2, m | n)
        assert complement(mk_standard(ALG2, m)) == mk_standard(ALG2, ALG2.top & ~m)


def test_algebra_mismatch_rejected():
    x, y = mk_standard(ALG2, 0), mk_standard(FiniteBooleanAlgebra(1), 0)
    for op in (meet, join, leq, incomparable, matrix_imp):
        with pytest.raises(SemanticsError):
            op(x, y)
    assert x != y


def test_the_carrier_operators_are_its_lattice_operations():
    for alg in (ONE, ALG2):
        for x, y in itertools.product(all_elements(alg), repeat=2):
            assert (x & y, x | y, ~x) == (meet(x, y), join(x, y), complement(x))
    x, y = mk_standard(ALG2, 0), mk_standard(ONE, 0)
    for op in (operator.and_, operator.or_):
        with pytest.raises(SemanticsError):
            op(x, y)


def test_equal_algebras_combine():
    other = FiniteBooleanAlgebra(2)
    assert other is not ALG2
    x, y = UltraElement(ALG2, P, Q), UltraElement(other, P, Q)
    assert x == y and hash(x) == hash(y)
    assert meet(x, y) == x and join(x, fneg(y)) == mk_standard(other, ALG2.top)
    assert leq(x, y) and matrix_imp(x, y) == mk_standard(ALG2, ALG2.top)


def test_public_constructor_validates_and_elements_are_immutable():
    with pytest.raises(SemanticsError):
        UltraElement(ALG2, ALG2.size, 0)
    with pytest.raises(SemanticsError):
        UltraElement(ALG2, 0, -1)
    x = UltraElement(ALG2, P, Q)
    assert (x.f0, x.f1) == (P, Q)
    with pytest.raises(AttributeError):
        x.f0 = 0
    assert x == UltraElement(ALG2, P, Q)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and str(y) == str(x)
        assert meet(y, x) == x


# --- the carrier against the pair oracle ------------------------------------

def _as_pair(x):
    return x.f0, x.f1, x.standard, str(x)


@pytest.mark.parametrize("atom_count", [1, 2, 3, 4])
def test_carrier_matches_the_pair_oracle(atom_count):
    # Every element at 1-4 atoms; every pair of elements at 1-3 atoms.
    alg = FiniteBooleanAlgebra(atom_count)
    elems, oracle = all_elements(alg), pair_elements(alg)
    assert [_as_pair(x) for x in elems] == [_as_pair(o) for o in oracle]
    for x, o in zip(elems, oracle):
        assert _as_pair(complement(x)) == _as_pair(pair_complement(o))
        assert _as_pair(matrix_neg(x)) == _as_pair(pair_complement(o))
        assert _as_pair(fneg(x)) == _as_pair(pair_fneg(o))
        assert classify_cases(x) == pair_classify_cases(o), str(x)
    assert verify_two_squares(alg) == pair_verify_two_squares(alg)
    if atom_count == 4:
        return
    for (x, o), (y, p) in itertools.product(zip(elems, oracle), repeat=2):
        assert _as_pair(meet(x, y)) == _as_pair(pair_meet(o, p))
        assert _as_pair(join(x, y)) == _as_pair(pair_join(o, p))
        assert _as_pair(matrix_imp(x, y)) == _as_pair(pair_matrix_imp(o, p))
        assert leq(x, y) == pair_leq(o, p), (str(x), str(y))
        assert incomparable(x, y) == pair_incomparable(o, p)
        assert (x == y) == (o == p)


# --- the carrier acts atom by atom ------------------------------------------------

ALG1 = FiniteBooleanAlgebra(1)


def project(x, i):
    """The 1-atom element of x's coefficients at atom i."""
    return UltraElement(ALG1, x.f0 >> i & 1, x.f1 >> i & 1)


def projections(x):
    return [project(x, i) for i in range(x.algebra.atom_count)]


def order_breaks(order, alg):
    """The pairs on which `order` differs from its atom-by-atom reading."""
    return [
        (x, y)
        for x, y in itertools.product(all_elements(alg), repeat=2)
        if order(x, y) != all(map(order, projections(x), projections(y)))
    ]


def fiat_leq(x, y):
    # a standard-first order: nonstandard elements below every nonzero
    # standard one, *0 the bottom, pointwise otherwise
    if x.standard != y.standard:
        return x.f0 == 0 if x.standard else y.f0 != 0
    return leq(x, y)


@pytest.mark.parametrize("atom_count", [1, 2, 3, 4])
def test_carrier_operations_act_atom_by_atom(atom_count):
    # every element at 1-4 atoms; every pair at 1-3 atoms
    alg = FiniteBooleanAlgebra(atom_count)
    elems = all_elements(alg)
    for x in elems:
        assert projections(complement(x)) == [complement(p) for p in projections(x)]
        assert projections(fneg(x)) == [fneg(p) for p in projections(x)]
        assert x.standard == all(p.standard for p in projections(x))
        assert lift(alg, projections(x)) == x
    if atom_count == 4:
        return
    for x, y in itertools.product(elems, repeat=2):
        px, py = projections(x), projections(y)
        assert projections(meet(x, y)) == list(map(meet, px, py))
        assert projections(join(x, y)) == list(map(join, px, py))
        assert projections(matrix_imp(x, y)) == list(map(matrix_imp, px, py))
    assert order_breaks(leq, alg) == []


def test_an_order_that_mixes_atoms_fails_the_atom_check():
    # the standard-first order agrees with the pointwise one on one atom only
    assert order_breaks(fiat_leq, ALG1) == []
    assert len(order_breaks(fiat_leq, ALG2)) == 24
    assert order_breaks(fiat_leq, FiniteBooleanAlgebra(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_counts_have_closed_forms(n):
    alg = FiniteBooleanAlgebra(n)
    row = verify_two_squares(alg)
    conventional, synthetic = row["conventional"], row["synthetic"]
    assert row["elements"] == 4**n
    assert (conventional["satisfied_by"], conventional["nonstandard_satisfiers"]) == (
        3**n, 3**n - 1
    )
    assert (synthetic["satisfied_by"], synthetic["nonstandard_satisfiers"]) == (2**n, 0)
    counts = [0] * 12
    for x in all_elements(alg):
        for outcome in classify_cases(x):
            counts[outcome.case_id - 1] += outcome.hypothesis_holds
    incomparable, unequal = 4**n - 2 * 3**n + 2**n, 4**n - 2**n
    closed = {1: incomparable, 4: incomparable, 7: unequal, 10: unequal}
    closed.update({case: 3**n for case in (2, 3, 5, 6)})
    assert counts == [closed.get(case, 2**n) for case in range(1, 13)]
    assert case_analysis(alg) == (counts, 0, True)


# --- the report's carrier sections, from one atom ------------------------------------

def carrier_sections(atom_count):
    sections = run_verify_paper(1, atom_count)["sections"]
    return {name: sections[name] for name in ("case_sweep", "proposition1", "matrix_properties")}


@pytest.mark.parametrize("atom_count", [1, 2, 3, 4])
def test_carrier_sections_equal_the_sweep_oracle(atom_count):
    # every element at 1-4 atoms; every pair at 1-3 atoms
    sections = carrier_sections(atom_count)
    if atom_count == 4:
        del sections["matrix_properties"]["designation_order_compatibility"]
    assert sections == pair_carrier_sections(atom_count, pairs=atom_count < 4)


def rotate(m, n):
    """The n-atom mask m with each atom's bit moved to the next atom."""
    return (m << 1 | m >> n - 1) & ((1 << n) - 1)


def rotated_fneg(x):
    # the flip, then every atom's bit pair moved to the next atom
    n = x.algebra.atom_count
    return UltraElement(x.algebra, rotate(x.f1, n), rotate(x.f0, n))


def rotated_pair_fneg(x):
    n = x.algebra.atom_count
    return PairElement(x.algebra, rotate(x.f1, n), rotate(x.f0, n))


def fiat_pair_leq(x, y):
    if x.standard != y.standard:
        return x.f0 == 0 if x.standard else y.f0 != 0
    return pair_leq(x, y)


@pytest.mark.parametrize(
    "name, packed, pair",
    [("leq", fiat_leq, fiat_pair_leq), ("fneg", rotated_fneg, rotated_pair_fneg)],
)
def test_an_operation_that_mixes_atoms_splits_the_sections_from_the_sweep(
    monkeypatch, name, packed, pair
):
    # Both mutants agree with the real operation on one atom and mix atoms
    # on more.  The sections, which rest on every operation acting atom by
    # atom, keep their values; the sweep sees the mutant.
    expected = {n: carrier_sections(n) for n in (1, 2)}
    monkeypatch.setattr(starb, name, packed)
    monkeypatch.setattr(oracles, f"pair_{name}", pair)
    assert {n: carrier_sections(n) for n in (1, 2)} == expected
    assert pair_carrier_sections(1) == expected[1]
    assert pair_carrier_sections(2) != expected[2]


def test_verify_paper_sweeps_no_carrier_past_one_atom(monkeypatch):
    sweep, init = all_elements, UltraElement.__init__
    built = []  # (atom count, f0, f1) of every element built

    def one_atom_only(alg):
        assert alg.atom_count == 1, f"swept the {alg.atom_count}-atom carrier"
        return sweep(alg)

    def counted_init(x, alg, f0, f1):
        init(x, alg, f0, f1)
        built.append((alg.atom_count, f0, f1))

    monkeypatch.setattr(starb, "all_elements", one_atom_only)
    monkeypatch.setattr(UltraElement, "__init__", counted_init)
    result = run_verify_paper(4, 4)
    assert result["pass"]
    assert report_json(result).encode() == (GOLDEN / "verify_paper_b4_a4.json").read_bytes()
    four_atoms = [(f0, f1) for n, f0, f1 in built if n == 4]
    # each bridge model builds its generator's quadruple once, not once per atom
    assert 0 < len(set(four_atoms)) < 4**4 // 8, sorted(set(four_atoms))
    assert len(four_atoms) <= 64, len(four_atoms)


# --- the argument flip ---------------------------------------------------------

def test_fneg_matches_argument_flip_oracle():
    # evaluate h(a) = f(~a) on every argument and re-derive the coefficients
    for x in all_elements(ALG2):
        f = shannon(ALG2, x.f0, x.f1)
        h = lambda a: f(ALG2.top & ~a)
        hx = fneg(x)
        assert (hx.f0, hx.f1) == (h(0), h(ALG2.top)) == (x.f1, x.f0)
        g = shannon(ALG2, hx.f0, hx.f1)
        for a in ALG2.elements():
            assert g(a) == h(a)


def test_fneg_involution_and_standard_fixpoints():
    for x in all_elements(ALG2):
        assert fneg(fneg(x)) == x
    for m in ALG2.elements():
        assert fneg(mk_standard(ALG2, m)) == mk_standard(ALG2, m)


def test_fneg_is_an_automorphism():
    for x, y in itertools.product(all_elements(ALG2), repeat=2):
        assert fneg(meet(x, y)) == meet(fneg(x), fneg(y))
        assert fneg(join(x, y)) == join(fneg(x), fneg(y))
    for x in all_elements(ALG2):
        assert fneg(complement(x)) == complement(fneg(x))


def test_element_and_flip_are_complementary_in_the_square_sense():
    x = UltraElement(ALG2, P, Q)
    y = fneg(x)
    assert meet(x, y) == mk_standard(ALG2, 0)
    assert join(x, y) == mk_standard(ALG2, ALG2.top)


def test_inf_sup_with_flip_are_standard():
    for x in all_elements(ALG2):
        assert meet(x, fneg(x)) == mk_standard(ALG2, x.f0 & x.f1)
        assert join(x, fneg(x)) == mk_standard(ALG2, x.f0 | x.f1)


# --- quotient -------------------------------------------------------------------

# Test-only model of the construction: a raw function of the (conceptually
# infinite) argument space before the quotient, with finitely many overrides.
MAX_EXCEPTIONS = 16


@dataclass(frozen=True)
class RawFunction:
    """A Shannon-form function with finitely many pointwise overrides.

    At a non-exception index i the value is the Shannon form evaluated
    at the algebra element i mod size.  Exceptions are a finite set and
    hence null for the quotient.
    """

    algebra: FiniteBooleanAlgebra
    f0: int
    f1: int
    exceptions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.exceptions) > MAX_EXCEPTIONS:
            raise BoundError(f"exception list longer than {MAX_EXCEPTIONS}")
        self.algebra.check(self.f0)
        self.algebra.check(self.f1)
        for index, value in self.exceptions:
            if index < 0:
                raise SemanticsError("exception index must be nonnegative")
            self.algebra.check(value)

    def value_at(self, index: int) -> int:
        for i, value in reversed(self.exceptions):
            if i == index:
                return value
        a = index % self.algebra.size
        alg = self.algebra
        return (a & self.f1) | (alg.top & ~a & self.f0)


def quotient(raw: RawFunction) -> UltraElement:
    """Collapse a raw function to its class: the exception list is finite,
    hence Frechet-null, and only the Shannon pair survives."""
    return UltraElement(raw.algebra, raw.f0, raw.f1)


def test_quotient_discards_exceptions():
    raw = RawFunction(ALG2, P, P, ((0, 1), (5, 2), (9, 0)))
    assert quotient(raw) == mk_standard(ALG2, P)
    raw2 = RawFunction(ALG2, P, Q, ((5, ALG2.top),))
    assert quotient(raw2) == UltraElement(ALG2, P, Q)


def test_quotient_equates_cofinitely_agreeing_functions():
    # oracle: sample a large index range and confirm cofinite agreement
    left = RawFunction(ALG2, P, Q, ((0, 1), (7, 3)))
    right = RawFunction(ALG2, P, Q, ((3, 2), (11, 0)))
    disagreements = sum(
        1 for i in range(1000) if left.value_at(i) != right.value_at(i)
    )
    assert disagreements <= 4
    assert quotient(left) == quotient(right)


def test_exception_list_capped():
    with pytest.raises(BoundError):
        RawFunction(ALG2, 0, 0, tuple((i, 0) for i in range(17)))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=3)),
        max_size=16,
    ),
)
def test_quotient_invariant_under_exception_lists(f0, f1, exceptions):
    base = quotient(RawFunction(ALG2, f0, f1))
    assert quotient(RawFunction(ALG2, f0, f1, tuple(exceptions))) == base


# --- the order -------------------------------------------------------------------

def test_bottom_below_everything():
    bottom = mk_standard(ALG2, 0)
    for x in all_elements(ALG2):
        assert leq(bottom, x)


def test_pointwise_componentwise_inclusion():
    assert leq(UltraElement(ALG2, P, 0), UltraElement(ALG2, P, Q))
    assert not leq(UltraElement(ALG2, P, Q), UltraElement(ALG2, P, 0))
    x = UltraElement(ALG2, P, Q)
    assert not leq(x, mk_standard(ALG2, P))  # q not below p
    assert not leq(mk_standard(ALG2, P), x)
    assert not leq(x, mk_standard(ALG2, 0))


# --- the twelve cases -------------------------------------------------------------

def test_case_2_on_disjoint_pair():
    # x = (p, 0): the flip sits below the complement, and the meet is *0
    outcomes = {o.case_id: o for o in classify_cases(UltraElement(ALG2, P, 0))}
    assert outcomes[2].hypothesis_holds and outcomes[2].conclusion_holds
    x = UltraElement(ALG2, P, 0)
    assert leq(fneg(x), complement(x))
    assert meet(x, fneg(x)) == mk_standard(ALG2, 0)


def test_standard_elements_satisfy_the_comparable_cases():
    for m in ALG2.elements():
        outcomes = {o.case_id: o for o in classify_cases(mk_standard(ALG2, m))}
        assert outcomes[11].hypothesis_holds  # x below its own flip
        assert outcomes[12].hypothesis_holds
        assert outcomes[11].conclusion_holds and outcomes[12].conclusion_holds


def test_case_sweep_has_no_violations_two_atoms():
    for x in all_elements(ALG2):
        for outcome in classify_cases(x):
            if outcome.hypothesis_holds:
                assert outcome.conclusion_holds, (str(x), outcome.case_id)


def test_case_sweep_has_no_violations_three_atoms():
    alg = FiniteBooleanAlgebra(3)
    for x in all_elements(alg):
        for outcome in classify_cases(x):
            if outcome.hypothesis_holds:
                assert outcome.conclusion_holds


# --- opposition read off the lattice --------------------------------------------

BOTTOM2, TOP2 = mk_standard(ALG2, 0), mk_standard(ALG2, ALG2.top)


def test_flip_pair_contrary_but_not_subcontrary():
    x = UltraElement(ALG2, P, 0)
    assert meet(x, fneg(x)) == BOTTOM2
    assert join(x, fneg(x)) != TOP2
    assert fneg(x) != complement(x)


def test_complement_pair_fully_opposed():
    for x in all_elements(ALG2):
        assert meet(x, complement(x)) == BOTTOM2 and join(x, complement(x)) == TOP2


def test_subalternation_toward_the_flip_complement():
    x = UltraElement(ALG2, P, 0)
    assert leq(x, complement(fneg(x)))


# --- the two squares ------------------------------------------------------------------

def test_conventional_square_for_disjoint_generator():
    quad = f, fn, nf, nfn = quadruple(UltraElement(ALG2, P, 0))
    assert meet(f, fn) == BOTTOM2
    assert join(nfn, nf) == TOP2
    assert nf == complement(f) and nfn == complement(fn)
    assert leq(f, nfn) and leq(fn, nf)
    assert all(test(quad[i], quad[j]) for _, test, i, j in square_relations(analytic_square()))


@pytest.mark.parametrize("atom_count", [1, 2, 3])
def test_square_relations_match_the_pair_oracle(atom_count):
    # each square's six relations, read off its spec through the primary
    # column, against the oracle's hand-written lists
    alg = FiniteBooleanAlgebra(atom_count)
    squares = ((analytic_square(), pair_conventional), (synthetic_square(), pair_synthetic))
    for x, o in zip(all_elements(alg), pair_elements(alg)):
        quad = quadruple(x)
        for spec, oracle in squares:
            relations = [(label, test(quad[i], quad[j]))
                         for label, test, i, j in square_relations(spec)]
            assert relations == list(oracle(*pair_quadruple(o))), (str(x), spec.name)


def test_a_mutated_square_spec_yields_violations(monkeypatch):
    # the synthetic square with a-e contrary, as in the conventional one,
    # instead of the subalternation a->e
    spec = synthetic_square()
    expected = tuple(
        (a, b, RelationKind.CONTRARY) if (a, b) == ("a", "e") else (a, b, kind)
        for a, b, kind in spec.expected
    )
    assert expected != spec.expected
    mutated = SquareSpec(spec.name, spec.corners, expected)
    monkeypatch.setattr(starb, "synthetic_square", lambda: mutated)
    row = verify_two_squares(ALG2)
    assert row["synthetic"]["violations"] == [f"*{m}: [f],[f¬] contrary" for m in ("p", "q", "1")]
    assert row["conventional"]["violations"] == []
    assert row["hypothesis_equivalences_ok"]


def test_two_square_sweeps_pass_all_atom_counts():
    for k in (1, 2, 3, 4):
        row = verify_two_squares(FiniteBooleanAlgebra(k))
        assert row["conventional"]["violations"] == []
        assert row["synthetic"]["violations"] == []
        assert row["hypothesis_equivalences_ok"]
        assert row["conventional"]["nonstandard_satisfiers"] > 0
        assert row["synthetic"]["nonstandard_satisfiers"] == 0


def test_synthetic_condition_exactly_the_standard_elements():
    synthetic = verify_two_squares(ALG2)["synthetic"]
    assert synthetic["satisfied_by"] == ALG2.size  # one per standard element
    assert synthetic["nonstandard_satisfiers"] == 0


@pytest.mark.parametrize("atom_count", [1, 2, 3, 4])
def test_alternative_conventional_hypothesis_fails_with_witness(atom_count):
    # the first witness the sweep finds is the standard element of atom p
    alg = FiniteBooleanAlgebra(atom_count)
    alternative = verify_two_squares(alg)["alternative_hypothesis"]
    assert not alternative["generates_conventional_square"]
    assert alternative == pair_verify_two_squares(alg)["alternative_hypothesis"]
    assert alternative["witness"] == str(mk_standard(alg, P))
    assert alternative["witness"] == ("*p" if atom_count > 1 else "*1")


# --- matrix logic ------------------------------------------------------------------------

def test_matrix_imp_literal_reading_equals_material_form():
    for x, y in itertools.product(all_elements(ALG2), repeat=2):
        assert matrix_imp(x, y) == join(complement(x), y)


def test_imp_from_top_is_identity():
    top = mk_standard(ALG2, ALG2.top)
    for x in all_elements(ALG2):
        assert matrix_imp(top, x) == x
        assert matrix_imp(x, top) == top
    assert matrix_neg(top) == mk_standard(ALG2, 0)


def test_matrix_modus_ponens_preserves_designation():
    top = mk_standard(ALG2, ALG2.top)
    for x, y in itertools.product(all_elements(ALG2), repeat=2):
        if x == top and matrix_imp(x, y) == top:
            assert y == top


def test_designation_matches_pointwise_order():
    top = mk_standard(ALG2, ALG2.top)
    for x, y in itertools.product(all_elements(ALG2), repeat=2):
        assert (matrix_imp(x, y) == top) == leq(x, y)


def test_matrix_eval_compound():
    x = UltraElement(ALG2, P, 0)
    v = {Atom("S", Copula.SA, "P"): x, Atom("S", Copula.SE, "P"): fneg(x)}
    assert matrix_eval(parse("S sa P & S se P"), v) == mk_standard(ALG2, 0)
    assert matrix_eval(parse("S sa P | S se P"), v) == join(x, fneg(x))
    assert matrix_eval(parse("~(S sa P)"), v) == complement(x)
    with pytest.raises(SemanticsError):
        matrix_eval(parse("X si Y"), v)


def _reference_matrix_eval(f, valuation):
    if isinstance(f, Atom):
        return valuation[f]
    if isinstance(f, Not):
        return matrix_neg(_reference_matrix_eval(f.operand, valuation))
    op = {And: meet, Or: join, Implies: matrix_imp}[type(f)]
    return op(_reference_matrix_eval(f.left, valuation), _reference_matrix_eval(f.right, valuation))


def test_matrix_eval_matches_a_reference_walk_on_every_depth_two_formula():
    # each connective over each depth-1 child, `->` included, under every
    # valuation of the two atoms
    a, b = Atom("S", Copula.SA, "P"), Atom("M", Copula.SI, "S")
    shallow = [a, b, Not(b)] + [node(a, b) for node in (And, Or, Implies)]
    formulas = shallow + [Not(f) for f in shallow]
    formulas += [node(f, g) for f in shallow for g in shallow for node in (And, Or, Implies)]
    for alg in (ONE, ALG2):
        for x, y in itertools.product(all_elements(alg), repeat=2):
            valuation = {a: x, b: y}
            for f in formulas:
                assert matrix_eval(f, valuation) == _reference_matrix_eval(f, valuation), (f, x, y)


# --- bridge models ------------------------------------------------------------------------

def test_strict_nonstandard_atom_unsatisfied_but_negation_holds():
    bm = BridgeModel(UltraElement(ALG2, P, 0), TOP2)
    assert not bridge_satisfies(bm, parse("S sa P"))
    assert bridge_satisfies(bm, parse("~(S sa P)"))


def test_strict_top_generator_satisfies_affirmatives():
    bm = BridgeModel(TOP2, TOP2)
    assert bridge_satisfies(bm, parse("S sa P"))
    assert bridge_satisfies(bm, parse("S sa P | S so P"))


def test_axiom5_shape_satisfied_in_strict_nonstandard_model():
    bm = BridgeModel(UltraElement(ALG2, P, 0), TOP2)
    assert bridge_satisfies(bm, parse("S sa P -> S se P"))


def test_filter_policy_designates_the_generated_quadrant():
    x = UltraElement(ALG2, P, 0)
    bm = BridgeModel(x, x)
    assert bridge_satisfies(bm, parse("S sa P"))     # [f] itself
    assert bridge_satisfies(bm, parse("S si P"))     # complement of the flip
    assert not bridge_satisfies(bm, parse("S se P"))
    assert not bridge_satisfies(bm, parse("S so P"))


def test_bridge_interprets_both_copula_families_alike():
    x = UltraElement(ALG2, P, 0)
    bm = BridgeModel(complement(fneg(x)), TOP2)  # the alternate column of x
    assert bm.interpret(Atom("S", Copula.A, "P")) == bm.interpret(Atom("S", Copula.SA, "P"))
    assert bm.interpret(Atom("S", Copula.O, "P")) == fneg(x)


@pytest.mark.parametrize("atom_count", range(1, 5))
def test_bridge_model_matches_the_two_slot_tables_and_the_two_designation_rules(atom_count):
    """The alternate column is the slot table read on the quadruple of
    ¬[f¬], strict designation is the threshold *1, and the report's bridge
    tables are the ones the two tables and two rules give."""
    alg = FiniteBooleanAlgebra(atom_count)
    top = mk_standard(alg, alg.top)
    for x in all_elements(alg):
        pair = PairElement(alg, x.f0, x.f1)
        for column, generator in (("primary", x), ("alternate", complement(fneg(x)))):
            bm = BridgeModel(generator, top)
            for copula in Copula:
                got = bm.interpret(Atom("S", copula, "P"))
                want = pair_bridge_value(pair, column, copula.value)
                assert (got.f0, got.f1) == (want.f0, want.f1), (x, column, copula)
        assert leq(top, x) == pair_designated("strict", pair) == (x == top)
    assert bridge_tables(alg) == pair_bridge_tables(alg)
