"""Nonstandard extension of a finite Boolean algebra, in Shannon form.

The construction quotients the one-variable function space B -> B by
agreement on a cofinite set of arguments (the Frechet filter).  The
carrier implemented here is the fragment of classes represented by
Shannon-form functions

    f(a) = (a /\\ f1) \\/ (~a /\\ f0),

so a class is just the coefficient pair (f0, f1) = (f(0), f(1)).
Within this fragment the quotient is exact rather than approximated:
two Shannon forms disagree on the complement of an order interval,
which in an infinite algebra is never finite and nonempty, so cofinite
agreement coincides with equality of the pairs.  A function that
differs from a Shannon form at finitely many arguments therefore lies
in that form's class, and a class is its coefficient pair alone.

Classes of constant functions are the standard elements *m (pairs with
f0 = f1).  The argument-flip x |-> x(~a) swaps the coefficients; the
pointwise lattice operations act componentwise.  Everything the
twelve-case analysis and the two-square classification manipulate --
[f], its flip, and their complements -- lives in this fragment, and
all sweeps here are exhaustive over it.

B x B with componentwise operations is itself the Boolean algebra on
2n atoms, so an element is one int, `f0 | f1 << n`: every operation is
one int expression, and the flip swaps the two n-bit halves.  The
public `UltraElement(alg, f0, f1)` checks the coefficients; binary
operations check only that the atom counts agree (an identity test,
then an int comparison) and return members of the algebra's `carrier`.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from functools import cached_property

from .errors import BoundError, SemanticsError
from .formula import Atom, Formula, fold, holds
from .record import Record

MAX_ATOMS = 4
_ATOM_NAMES = "pqrs"


class FiniteBooleanAlgebra(Record):
    """Powerset algebra on `atom_count` atoms; elements are bitmasks."""

    atom_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.atom_count <= MAX_ATOMS:
            raise BoundError(f"atom count {self.atom_count} outside 1..{MAX_ATOMS}")

    @cached_property
    def size(self) -> int:
        return 1 << self.atom_count

    @cached_property
    def top(self) -> int:
        return self.size - 1

    @cached_property
    def carrier_top(self) -> int:
        """*1 of the carrier: both halves full."""
        return self.top | self.top << self.atom_count

    @cached_property
    def carrier(self) -> tuple[UltraElement, ...]:
        """The carrier's elements, each at the index of its bits; the
        operations return these rather than build new elements."""
        return tuple(UltraElement(self, f0, f1) for f1 in self.elements() for f0 in self.elements())

    bottom = 0

    def __reduce__(self) -> tuple:
        # rebuild from the atom count: the cached carrier refers back here
        return FiniteBooleanAlgebra, (self.atom_count,)

    def elements(self) -> range:
        return range(self.size)

    def check(self, m: int) -> int:
        if not 0 <= m < self.size:
            raise SemanticsError(f"element {m} outside the algebra")
        return m

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def comp(self, a: int) -> int:
        return self.top & ~a

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def render_element(self, m: int) -> str:
        if m == 0:
            return "0"
        if m == self.top:
            return "1"
        return "∨".join(_ATOM_NAMES[i] for i in range(self.atom_count) if m >> i & 1)


class UltraElement:
    """Class of a Shannon-form function, held as `bits = f0 | f1 << n`.

    Immutable.  The operations return elements of the algebra's
    `carrier` table, so they build no element and check no coefficient.
    """

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: FiniteBooleanAlgebra, f0: int, f1: int) -> None:
        bits = algebra.check(f0) | algebra.check(f1) << algebra.atom_count
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to '{name}': carrier elements are immutable")

    @property
    def f0(self) -> int:
        return self.bits & self.algebra.top

    @property
    def f1(self) -> int:
        return self.bits >> self.algebra.atom_count

    @property
    def standard(self) -> bool:
        return self.bits & self.algebra.top == self.bits >> self.algebra.atom_count

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not UltraElement:
            return NotImplemented
        return self.bits == other.bits and (
            self.algebra is other.algebra or self.algebra.atom_count == other.algebra.atom_count
        )

    def __hash__(self) -> int:
        return hash((self.algebra.atom_count, self.bits))

    def __reduce__(self) -> tuple:
        return UltraElement, (self.algebra, self.f0, self.f1)

    def __str__(self) -> str:
        render = self.algebra.render_element
        if self.standard:
            return "*" + render(self.f0)
        return f"⟨{render(self.f0)}, {render(self.f1)}⟩"

    __repr__ = __str__


def mk_standard(alg: FiniteBooleanAlgebra, m: int) -> UltraElement:
    """Embed the algebra element m as the class of the constant function."""
    return UltraElement(alg, m, m)


def all_elements(alg: FiniteBooleanAlgebra) -> tuple[UltraElement, ...]:
    """Every carrier element, in (f0, f1) lexicographic order."""
    n, carrier = alg.atom_count, alg.carrier
    return tuple(carrier[f0 | f1 << n] for f0 in alg.elements() for f1 in alg.elements())


# --- lattice structure -------------------------------------------------------

def _same_algebra(x: UltraElement, y: UltraElement) -> FiniteBooleanAlgebra:
    alg = x.algebra
    if alg is not y.algebra and alg.atom_count != y.algebra.atom_count:
        raise SemanticsError("elements from different algebras")
    return alg


def meet(x: UltraElement, y: UltraElement) -> UltraElement:
    return _same_algebra(x, y).carrier[x.bits & y.bits]


def join(x: UltraElement, y: UltraElement) -> UltraElement:
    return _same_algebra(x, y).carrier[x.bits | y.bits]


def complement(x: UltraElement) -> UltraElement:
    return x.algebra.carrier[x.algebra.carrier_top ^ x.bits]


def fneg(x: UltraElement) -> UltraElement:
    """Class of a |-> x(~a): swaps the Shannon coefficients.  An involution
    that fixes exactly the standard elements."""
    alg, n = x.algebra, x.algebra.atom_count
    return alg.carrier[x.bits >> n | (x.bits & alg.top) << n]


class OrderMode(Enum):
    POINTWISE = "pointwise"
    PAPER_FIAT = "paper-fiat"


_FIAT = OrderMode.PAPER_FIAT  # a global is cheaper to load than an Enum member


def leq(x: UltraElement, y: UltraElement, mode: OrderMode = OrderMode.POINTWISE) -> bool:
    """Order the carrier.

    Pointwise: componentwise inclusion of the pairs (the order induced
    by the pointwise meet/join).  PaperFiat: standard elements compare
    as in the base algebra, every nonstandard element sits below every
    nonzero standard element, *0 is the global bottom; nonstandard
    against nonstandard is not specified by that rule set and falls
    back to pointwise (flagged wherever reports rely on it).  Between
    two standard elements the base order and the pointwise one agree.
    """
    _same_algebra(x, y)
    if mode is _FIAT and x.standard != y.standard:
        return x.bits == 0 if x.standard else y.bits != 0
    return x.bits & ~y.bits == 0


def incomparable(x: UltraElement, y: UltraElement) -> bool:
    return not leq(x, y) and not leq(y, x)


# --- the twelve-case analysis ------------------------------------------------

class CaseOutcome(Record):
    case_id: int
    description: str
    hypothesis_holds: bool
    conclusion_holds: bool | None  # None when the hypothesis fails


# Quadruple slots: 0 [f], 1 [f¬], 2 ¬[f], 3 ¬[f¬].  A case is its id and
# text, its hypothesis with the two slots it compares, the two slots
# whose inf/sup it bounds, and which bound it makes exact.
_CASES = (
    (1, "¬[f], [f¬] incomparable → bounds on ([f],[f¬])", incomparable, (2, 1), (0, 1), "bounds-only"),
    (2, "[f¬] ≤ ¬[f] → inf([f],[f¬]) = *0", leq, (1, 2), (0, 1), "inf-bottom"),
    (3, "¬[f] ≤ [f¬] → sup([f],[f¬]) = *1", leq, (2, 1), (0, 1), "sup-top"),
    (4, "[f], ¬[f¬] incomparable → bounds on (¬[f],¬[f¬])", incomparable, (0, 3), (2, 3), "bounds-only"),
    (5, "[f] ≤ ¬[f¬] → sup(¬[f],¬[f¬]) = *1", leq, (0, 3), (2, 3), "sup-top"),
    (6, "¬[f¬] ≤ [f] → inf(¬[f],¬[f¬]) = *0", leq, (3, 0), (2, 3), "inf-bottom"),
    (7, "¬[f¬], ¬[f] incomparable → bounds on ([f],¬[f¬])", incomparable, (3, 2), (0, 3), "bounds-only"),
    (8, "¬[f¬] ≤ ¬[f] → inf([f],¬[f¬]) = *0", leq, (3, 2), (0, 3), "inf-bottom"),
    (9, "¬[f] ≤ ¬[f¬] → sup([f],¬[f¬]) = *1", leq, (2, 3), (0, 3), "sup-top"),
    (10, "[f], [f¬] incomparable → bounds on (¬[f],[f¬])", incomparable, (0, 1), (2, 1), "bounds-only"),
    (11, "[f] ≤ [f¬] → sup(¬[f],[f¬]) = *1", leq, (0, 1), (2, 1), "sup-top"),
    (12, "[f¬] ≤ [f] → inf(¬[f],[f¬]) = *0", leq, (1, 0), (2, 1), "inf-bottom"),
)


def quadruple(x: UltraElement) -> tuple[UltraElement, UltraElement, UltraElement, UltraElement]:
    """([f], [f¬], ¬[f], ¬[f¬]) generated from x."""
    return x, fneg(x), complement(x), complement(fneg(x))


def classify_cases(x: UltraElement) -> tuple[CaseOutcome, ...]:
    """Test each of the twelve case hypotheses on x's quadruple (pointwise
    order) and, where a hypothesis holds, check the stated inf/sup
    conclusion.  The generic bounds *0 ≤ inf and sup ≤ *1 are asserted
    in every case."""
    quad = quadruple(x)
    bottom, top = x.algebra.carrier[0], x.algebra.carrier[-1]
    outcomes = []
    for case_id, description, hypothesis, (a, b), (u, v), exact in _CASES:
        holds = hypothesis(quad[a], quad[b])
        conclusion = None
        if holds:
            inf, sup = meet(quad[u], quad[v]), join(quad[u], quad[v])
            conclusion = leq(bottom, inf) and leq(sup, top)
            if exact == "inf-bottom":
                conclusion = conclusion and inf == bottom
            elif exact == "sup-top":
                conclusion = conclusion and sup == top
        outcomes.append(CaseOutcome(case_id, description, holds, conclusion))
    return tuple(outcomes)


# --- opposition relations on the carrier -------------------------------------

class OppositionFlags(Record):
    contrary: bool
    subcontrary: bool
    contradictory: bool
    subaltern_xy: bool
    subaltern_yx: bool


def algebraic_opposition(x: UltraElement, y: UltraElement) -> OppositionFlags:
    """Relations read off the lattice: contrary = meet is *0, subcontrary =
    join is *1, contradictory = complement, subalternation = pointwise
    order."""
    alg = _same_algebra(x, y)
    bottom, top = alg.carrier[0], alg.carrier[-1]
    return OppositionFlags(
        contrary=meet(x, y) == bottom,
        subcontrary=join(x, y) == top,
        contradictory=y == complement(x),
        subaltern_xy=leq(x, y),
        subaltern_yx=leq(y, x),
    )


# --- the two squares ---------------------------------------------------------

class SquareSweepResult(Record):
    condition: str
    satisfied_by: int
    nonstandard_satisfiers: int
    violations: tuple[str, ...]


class Proposition1Report(Record):
    """Exhaustive two-square sweep over one carrier.

    For every element whose quadruple satisfies a square's hypothesis,
    all six of that square's relations are checked.  The realizability
    findings record whether the conventional hypothesis is met by
    genuinely nonstandard elements and whether the synthetic hypothesis
    forces the flip to fix the element (it does, in this carrier).
    """

    atom_count: int
    total_elements: int
    conventional: SquareSweepResult
    synthetic: SquareSweepResult
    hypothesis_equivalences_ok: bool
    proof_bullet_generates_conventional: bool
    proof_bullet_witness: str | None

    @property
    def passed(self) -> bool:
        return (
            not self.conventional.violations
            and not self.synthetic.violations
            and self.hypothesis_equivalences_ok
        )

    @property
    def conventional_nonstandard_realizable(self) -> bool:
        return self.conventional.nonstandard_satisfiers > 0

    @property
    def synthetic_forces_standard(self) -> bool:
        return self.synthetic.nonstandard_satisfiers == 0


def _conventional_relations(f, fn, nf, nfn) -> tuple[tuple[str, bool], ...]:
    return (
        ("[f],[f¬] contrary", algebraic_opposition(f, fn).contrary),
        ("¬[f¬],¬[f] subcontrary", algebraic_opposition(nfn, nf).subcontrary),
        ("[f],¬[f] contradictory", algebraic_opposition(f, nf).contradictory),
        ("[f¬],¬[f¬] contradictory", algebraic_opposition(fn, nfn).contradictory),
        ("[f] ≤ ¬[f¬] subalternation", leq(f, nfn)),
        ("[f¬] ≤ ¬[f] subalternation", leq(fn, nf)),
    )


def _synthetic_relations(f, fn, nf, nfn) -> tuple[tuple[str, bool], ...]:
    return (
        ("[f],¬[f¬] contrary", algebraic_opposition(f, nfn).contrary),
        ("¬[f],[f¬] subcontrary", algebraic_opposition(nf, fn).subcontrary),
        ("[f],¬[f] contradictory", algebraic_opposition(f, nf).contradictory),
        ("[f¬],¬[f¬] contradictory", algebraic_opposition(fn, nfn).contradictory),
        ("[f] ≤ [f¬] subalternation", leq(f, fn)),
        ("¬[f¬] ≤ ¬[f] subalternation", leq(nfn, nf)),
    )


def verify_two_squares(alg: FiniteBooleanAlgebra) -> Proposition1Report:
    """Sweep every carrier element and check both square conditions.

    Conventional: inf([f],[f¬]) = *0, equivalently [f¬] ≤ ¬[f].
    Synthetic: [f] ≤ [f¬], equivalently ¬[f¬] ≤ ¬[f].
    Additionally probes the alternative conventional hypothesis
    [f¬] ≤ [f]: it does not generate the conventional square's six
    relations (any nonzero standard element is a witness).
    """
    bottom = alg.carrier[0]
    squares = (  # condition, its test and the equivalent form's, relations
        ("inf([f],[f¬]) = *0", lambda f, fn, nf, nfn: (meet(f, fn) == bottom, leq(fn, nf)),
         _conventional_relations),
        ("[f] ≤ [f¬]", lambda f, fn, nf, nfn: (leq(f, fn), leq(nfn, nf)), _synthetic_relations),
    )
    tallies = [[0, 0, []] for _ in squares]  # satisfied, nonstandard, violations
    equivalences_ok = True
    bullet_witness = None
    for x in all_elements(alg):
        quad = quadruple(x)
        for (_, test, relations), tally in zip(squares, tallies):
            holds, equivalent = test(*quad)
            equivalences_ok = equivalences_ok and holds == equivalent
            if holds:
                tally[0] += 1
                tally[1] += not x.standard
                tally[2].extend(f"{x}: {label}" for label, ok in relations(*quad) if not ok)
        if (bullet_witness is None and leq(quad[1], quad[0])
                and not all(ok for _, ok in _conventional_relations(*quad))):
            bullet_witness = str(x)

    conventional, synthetic = (
        SquareSweepResult(condition, satisfied, nonstandard, tuple(violations))
        for (condition, _, _), (satisfied, nonstandard, violations) in zip(squares, tallies)
    )
    return Proposition1Report(
        atom_count=alg.atom_count,
        total_elements=alg.size * alg.size,
        conventional=conventional,
        synthetic=synthetic,
        hypothesis_equivalences_ok=equivalences_ok,
        proof_bullet_generates_conventional=bullet_witness is None,
        proof_bullet_witness=bullet_witness,
    )


# --- matrix logic ------------------------------------------------------------
# Truth values are the carrier; the only designated value is *1.

def matrix_neg(x: UltraElement) -> UltraElement:
    return complement(x)


def matrix_imp(x: UltraElement, y: UltraElement) -> UltraElement:
    # "top minus sup, plus y" read with minus as complement and plus as
    # join; equals complement(x) ∨ y.
    alg = _same_algebra(x, y)
    return alg.carrier[(alg.carrier_top ^ (x.bits | y.bits)) | y.bits]


def matrix_eval(f: Formula, valuation: Mapping[Atom, UltraElement]) -> UltraElement:
    """Evaluate a formula over opaque atoms into the carrier."""

    def atom(a: Atom) -> UltraElement:
        try:
            return valuation[a]
        except KeyError:
            raise SemanticsError(f"no value bound for atom {a}") from None

    return fold(f, atom, matrix_neg, meet, join, matrix_imp)


# --- syllogistic bridge models ------------------------------------------------

class Column(Enum):
    PRIMARY = "primary"
    ALTERNATE = "alternate"


class Strict(Record):
    """Designated set {*1} exactly."""

    def label(self) -> str:
        return "strict"


class Filter(Record):
    """Designate everything pointwise above the threshold.  Exists because
    strict designation never satisfies a nonstandard atom value, which
    trivializes models generated from nonstandard elements."""

    threshold: UltraElement

    def label(self) -> str:
        return f"filter(≥ {self.threshold})"


DesignationPolicy = Strict | Filter

# copula -> quadruple slot, per assignment column; slots index ([f], [f¬],
# ¬[f], ¬[f¬]).  Analytic and synthetic copulas share the assignments.
_PRIMARY_SLOTS = {"a": 0, "e": 1, "i": 3, "o": 2}
_ALTERNATE_SLOTS = {"a": 3, "e": 2, "i": 0, "o": 1}


class BridgeModel(Record):
    """Interpretation of atomic syllogistic formulas inside one quadruple.

    Every atom's value depends only on its copula: the chosen assignment
    column sends each of the four forms to one of [f], [f¬], ¬[f],
    ¬[f¬] generated from the given element.
    """

    generator: UltraElement
    column: Column = Column.PRIMARY
    policy: DesignationPolicy = Strict()

    def carrier(self) -> tuple[UltraElement, UltraElement, UltraElement, UltraElement]:
        return quadruple(self.generator)

    def interpret(self, atom: Atom) -> UltraElement:
        slots = _PRIMARY_SLOTS if self.column is Column.PRIMARY else _ALTERNATE_SLOTS
        key = atom.copula.value[-1]  # a/e/i/o, either family
        return self.carrier()[slots[key]]

    def designated(self, value: UltraElement) -> bool:
        if isinstance(self.policy, Strict):
            return value.bits == value.algebra.carrier_top
        return leq(self.policy.threshold, value, OrderMode.POINTWISE)


def bridge_satisfies(bm: BridgeModel, f: Formula) -> bool:
    """Satisfaction: an atom holds iff its interpreted value is designated;
    compounds follow the classical clauses (an implication holds iff its
    antecedent fails or its consequent holds)."""
    return holds(f, lambda atom: bm.designated(bm.interpret(atom)))
