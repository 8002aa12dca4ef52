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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .errors import BoundError, SemanticsError
from .formula import Atom, Formula, fold, holds

MAX_ATOMS = 4
_ATOM_NAMES = "pqrs"


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Powerset algebra on `atom_count` atoms; elements are bitmasks."""

    atom_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.atom_count <= MAX_ATOMS:
            raise BoundError(f"atom count {self.atom_count} outside 1..{MAX_ATOMS}")

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def top(self) -> int:
        return self.size - 1

    bottom = 0

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


@dataclass(frozen=True)
class UltraElement:
    """Class of a Shannon-form function, held as the pair (f(0), f(1))."""

    algebra: FiniteBooleanAlgebra
    f0: int
    f1: int

    def __post_init__(self) -> None:
        self.algebra.check(self.f0)
        self.algebra.check(self.f1)

    @property
    def standard(self) -> bool:
        return self.f0 == self.f1

    def __str__(self) -> str:
        if self.standard:
            return "*" + self.algebra.render_element(self.f0)
        return f"⟨{self.algebra.render_element(self.f0)}, {self.algebra.render_element(self.f1)}⟩"


def mk_standard(alg: FiniteBooleanAlgebra, m: int) -> UltraElement:
    """Embed the algebra element m as the class of the constant function."""
    alg.check(m)
    return UltraElement(alg, m, m)


def all_elements(alg: FiniteBooleanAlgebra) -> tuple[UltraElement, ...]:
    """Every carrier element, in (f0, f1) lexicographic order."""
    return tuple(
        UltraElement(alg, f0, f1) for f0 in alg.elements() for f1 in alg.elements()
    )


# --- lattice structure -------------------------------------------------------

def _same_algebra(x: UltraElement, y: UltraElement) -> FiniteBooleanAlgebra:
    if x.algebra != y.algebra:
        raise SemanticsError("elements from different algebras")
    return x.algebra


def meet(x: UltraElement, y: UltraElement) -> UltraElement:
    alg = _same_algebra(x, y)
    return UltraElement(alg, alg.meet(x.f0, y.f0), alg.meet(x.f1, y.f1))


def join(x: UltraElement, y: UltraElement) -> UltraElement:
    alg = _same_algebra(x, y)
    return UltraElement(alg, alg.join(x.f0, y.f0), alg.join(x.f1, y.f1))


def complement(x: UltraElement) -> UltraElement:
    return UltraElement(x.algebra, x.algebra.comp(x.f0), x.algebra.comp(x.f1))


def fneg(x: UltraElement) -> UltraElement:
    """Class of a |-> x(~a): swaps the Shannon coefficients.  An involution
    that fixes exactly the standard elements."""
    return UltraElement(x.algebra, x.f1, x.f0)


class OrderMode(Enum):
    POINTWISE = "pointwise"
    PAPER_FIAT = "paper-fiat"


def leq(x: UltraElement, y: UltraElement, mode: OrderMode = OrderMode.POINTWISE) -> bool:
    """Order the carrier.

    Pointwise: componentwise inclusion of the pairs (the order induced
    by the pointwise meet/join).  PaperFiat: standard elements compare
    as in the base algebra, every nonstandard element sits below every
    nonzero standard element, *0 is the global bottom; nonstandard
    against nonstandard is not specified by that rule set and falls
    back to pointwise (flagged wherever reports rely on it).
    """
    alg = _same_algebra(x, y)
    if mode is OrderMode.POINTWISE:
        return alg.leq(x.f0, y.f0) and alg.leq(x.f1, y.f1)
    if x.standard and y.standard:
        return alg.leq(x.f0, y.f0)
    if x.standard:
        return x.f0 == alg.bottom
    if y.standard:
        return y.f0 != alg.bottom
    return alg.leq(x.f0, y.f0) and alg.leq(x.f1, y.f1)


def incomparable(x: UltraElement, y: UltraElement) -> bool:
    return not leq(x, y) and not leq(y, x)


# --- the twelve-case analysis ------------------------------------------------

@dataclass(frozen=True)
class CaseOutcome:
    case_id: int
    description: str
    hypothesis_holds: bool
    conclusion_holds: bool | None  # None when the hypothesis fails


@dataclass(frozen=True)
class _Case:
    case_id: int
    description: str
    hypothesis: Callable
    pair: Callable  # quadruple -> (u, v) whose inf/sup the case bounds
    exact: str  # "inf-bottom" | "sup-top" | "bounds-only"


def _cases() -> tuple[_Case, ...]:
    # quadruple order: (f, fn, nf, nfn) = ([f], [f~], ~[f], ~[f~])
    return (
        _Case(1, "¬[f], [f¬] incomparable → bounds on ([f],[f¬])",
              lambda f, fn, nf, nfn: incomparable(nf, fn),
              lambda f, fn, nf, nfn: (f, fn), "bounds-only"),
        _Case(2, "[f¬] ≤ ¬[f] → inf([f],[f¬]) = *0",
              lambda f, fn, nf, nfn: leq(fn, nf),
              lambda f, fn, nf, nfn: (f, fn), "inf-bottom"),
        _Case(3, "¬[f] ≤ [f¬] → sup([f],[f¬]) = *1",
              lambda f, fn, nf, nfn: leq(nf, fn),
              lambda f, fn, nf, nfn: (f, fn), "sup-top"),
        _Case(4, "[f], ¬[f¬] incomparable → bounds on (¬[f],¬[f¬])",
              lambda f, fn, nf, nfn: incomparable(f, nfn),
              lambda f, fn, nf, nfn: (nf, nfn), "bounds-only"),
        _Case(5, "[f] ≤ ¬[f¬] → sup(¬[f],¬[f¬]) = *1",
              lambda f, fn, nf, nfn: leq(f, nfn),
              lambda f, fn, nf, nfn: (nf, nfn), "sup-top"),
        _Case(6, "¬[f¬] ≤ [f] → inf(¬[f],¬[f¬]) = *0",
              lambda f, fn, nf, nfn: leq(nfn, f),
              lambda f, fn, nf, nfn: (nf, nfn), "inf-bottom"),
        _Case(7, "¬[f¬], ¬[f] incomparable → bounds on ([f],¬[f¬])",
              lambda f, fn, nf, nfn: incomparable(nfn, nf),
              lambda f, fn, nf, nfn: (f, nfn), "bounds-only"),
        _Case(8, "¬[f¬] ≤ ¬[f] → inf([f],¬[f¬]) = *0",
              lambda f, fn, nf, nfn: leq(nfn, nf),
              lambda f, fn, nf, nfn: (f, nfn), "inf-bottom"),
        _Case(9, "¬[f] ≤ ¬[f¬] → sup([f],¬[f¬]) = *1",
              lambda f, fn, nf, nfn: leq(nf, nfn),
              lambda f, fn, nf, nfn: (f, nfn), "sup-top"),
        _Case(10, "[f], [f¬] incomparable → bounds on (¬[f],[f¬])",
              lambda f, fn, nf, nfn: incomparable(f, fn),
              lambda f, fn, nf, nfn: (nf, fn), "bounds-only"),
        _Case(11, "[f] ≤ [f¬] → sup(¬[f],[f¬]) = *1",
              lambda f, fn, nf, nfn: leq(f, fn),
              lambda f, fn, nf, nfn: (nf, fn), "sup-top"),
        _Case(12, "[f¬] ≤ [f] → inf(¬[f],[f¬]) = *0",
              lambda f, fn, nf, nfn: leq(fn, f),
              lambda f, fn, nf, nfn: (nf, fn), "inf-bottom"),
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
    bottom = mk_standard(x.algebra, x.algebra.bottom)
    top = mk_standard(x.algebra, x.algebra.top)
    outcomes = []
    for case in _cases():
        holds = case.hypothesis(*quad)
        conclusion = None
        if holds:
            u, v = case.pair(*quad)
            inf, sup = meet(u, v), join(u, v)
            conclusion = leq(bottom, inf) and leq(sup, top)
            if case.exact == "inf-bottom":
                conclusion = conclusion and inf == bottom
            elif case.exact == "sup-top":
                conclusion = conclusion and sup == top
        outcomes.append(CaseOutcome(case.case_id, case.description, holds, conclusion))
    return tuple(outcomes)


# --- opposition relations on the carrier -------------------------------------

@dataclass(frozen=True)
class OppositionFlags:
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
    bottom = mk_standard(alg, alg.bottom)
    top = mk_standard(alg, alg.top)
    return OppositionFlags(
        contrary=meet(x, y) == bottom,
        subcontrary=join(x, y) == top,
        contradictory=y == complement(x),
        subaltern_xy=leq(x, y),
        subaltern_yx=leq(y, x),
    )


# --- the two squares ---------------------------------------------------------

@dataclass(frozen=True)
class SquareSweepResult:
    condition: str
    satisfied_by: int
    nonstandard_satisfiers: int
    violations: tuple[str, ...]


@dataclass(frozen=True)
class Proposition1Report:
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
    if alg.atom_count > 3:
        raise BoundError("two-square sweep capped at 3 atoms")
    bottom = mk_standard(alg, alg.bottom)
    conv_satisfied = conv_nonstandard = 0
    conv_violations: list[str] = []
    syn_satisfied = syn_nonstandard = 0
    syn_violations: list[str] = []
    equivalences_ok = True
    bullet_ok = True
    bullet_witness = None

    for x in all_elements(alg):
        f, fn, nf, nfn = quadruple(x)
        conv_condition = meet(f, fn) == bottom
        if conv_condition != leq(fn, nf):
            equivalences_ok = False
        if conv_condition:
            conv_satisfied += 1
            if not x.standard:
                conv_nonstandard += 1
            for label, holds in _conventional_relations(f, fn, nf, nfn):
                if not holds:
                    conv_violations.append(f"{x}: {label}")
        syn_condition = leq(f, fn)
        if syn_condition != leq(nfn, nf):
            equivalences_ok = False
        if syn_condition:
            syn_satisfied += 1
            if not x.standard:
                syn_nonstandard += 1
            for label, holds in _synthetic_relations(f, fn, nf, nfn):
                if not holds:
                    syn_violations.append(f"{x}: {label}")
        if leq(fn, f) and not all(h for _, h in _conventional_relations(f, fn, nf, nfn)):
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


# --- matrix logic ------------------------------------------------------------
# Truth values are the carrier; the only designated value is *1.

def matrix_neg(x: UltraElement) -> UltraElement:
    return complement(x)


def matrix_imp(x: UltraElement, y: UltraElement) -> UltraElement:
    # "top minus sup, plus y" read with minus as complement and plus as
    # join; equals complement(x) ∨ y.
    return join(complement(join(x, y)), y)


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


@dataclass(frozen=True)
class Strict:
    """Designated set {*1} exactly."""

    def label(self) -> str:
        return "strict"


@dataclass(frozen=True)
class Filter:
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


@dataclass(frozen=True)
class BridgeModel:
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
            return value == mk_standard(value.algebra, value.algebra.top)
        return leq(self.policy.threshold, value, OrderMode.POINTWISE)


def bridge_satisfies(bm: BridgeModel, f: Formula) -> bool:
    """Satisfaction: an atom holds iff its interpreted value is designated;
    compounds follow the classical clauses (an implication holds iff its
    antecedent fails or its consequent holds)."""
    return holds(f, lambda atom: bm.designated(bm.interpret(atom)))
