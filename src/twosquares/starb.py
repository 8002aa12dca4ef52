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
pointwise lattice operations, the carrier's `&`, `|` and `~`, act
componentwise.  Everything the twelve-case analysis and the two-square
classification manipulate -- [f], its flip, and their complements --
lives in this fragment.

An element is a `Record` of its algebra and its two coefficients; every
operation acts on the two coefficients and builds its result through
the constructor, which checks both.  Packing an element into one int,
`f0 | f1 << n`, would speed up sweeps of all 4^n elements, but none
runs (see below): at `--atoms 4` a `verify-paper` builds 39 four-atom
elements, 7 of them distinct.

Every operation acts on each atom's pair of coefficient bits alone, and
≤, = and `standard` hold iff they hold at every atom, so the carrier on n
atoms is the n-th direct power of ONE, the carrier on one atom.  Direct
products preserve universal Horn sentences (Horn, J. Symbolic Logic 16,
1951), and ONE embeds in every carrier on the diagonal; so a universal
Horn check holds on every carrier iff it holds on ONE, and a witness on
ONE lifts to every carrier.  A conjunction of atomic formulas in x holds
iff it holds at each projection of x: if S satisfies it on ONE, |S|^n
elements do on n atoms.  The report's carrier results come from ONE,
the matrix laws of `matrix_properties` among them.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from functools import cached_property

from .errors import BoundError, SemanticsError
from .formula import Atom, Copula, Formula, holds, truth_vector
from .opposition import (
    RelationKind,
    SquareSpec,
    analytic_square,
    catalog_entries,
    synthetic_square,
)
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

    def elements(self) -> range:
        return range(self.size)

    def check(self, m: int) -> None:
        if not 0 <= m < self.size:
            raise SemanticsError(f"element {m} outside the algebra")

    def render_element(self, m: int) -> str:
        if m == 0:
            return "0"
        if m == self.top:
            return "1"
        return "∨".join(_ATOM_NAMES[i] for i in range(self.atom_count) if m >> i & 1)


class UltraElement(Record):
    """Class of a Shannon-form function: its coefficients, bitmasks of
    `algebra`, which the constructor checks."""

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
    return tuple(UltraElement(alg, f0, f1) for f0 in alg.elements() for f1 in alg.elements())


# --- lattice structure -------------------------------------------------------

def _same_algebra(x: UltraElement, y: UltraElement) -> FiniteBooleanAlgebra:
    if x.algebra != y.algebra:
        raise SemanticsError("elements from different algebras")
    return x.algebra


def meet(x: UltraElement, y: UltraElement) -> UltraElement:
    return UltraElement(_same_algebra(x, y), x.f0 & y.f0, x.f1 & y.f1)


def join(x: UltraElement, y: UltraElement) -> UltraElement:
    return UltraElement(_same_algebra(x, y), x.f0 | y.f0, x.f1 | y.f1)


def complement(x: UltraElement) -> UltraElement:
    top = x.algebra.top
    return UltraElement(x.algebra, top ^ x.f0, top ^ x.f1)


# the carrier is a Boolean algebra, with these as its `&`, `|` and `~`
UltraElement.__and__, UltraElement.__or__, UltraElement.__invert__ = meet, join, complement


def fneg(x: UltraElement) -> UltraElement:
    """Class of a |-> x(~a): swaps the Shannon coefficients.  An involution
    that fixes exactly the standard elements."""
    return UltraElement(x.algebra, x.f1, x.f0)


def leq(x: UltraElement, y: UltraElement) -> bool:
    """The pointwise order: componentwise inclusion of the pairs, the
    order induced by meet and join.  It acts on each atom's pair of
    coefficient bits alone, as every other carrier operation does.
    Between two standard elements it is the base algebra's order."""
    _same_algebra(x, y)
    return x.f0 & ~y.f0 == 0 and x.f1 & ~y.f1 == 0


def incomparable(x: UltraElement, y: UltraElement) -> bool:
    return not leq(x, y) and not leq(y, x)


# --- the one-atom carrier, which decides every carrier ----------------------

ONE = FiniteBooleanAlgebra(1)


def product_count(n: int, holds: set, fails: tuple = ()) -> int:
    """The elements on n atoms with every projection in `holds` and, for
    each set of `fails`, some projection outside it; the sets hold
    elements of ONE."""
    return sum(
        (-1) ** len(chosen) * len(holds.intersection(*chosen)) ** n
        for k in range(len(fails) + 1) for chosen in itertools.combinations(fails, k)
    )


def lift(alg: FiniteBooleanAlgebra, parts) -> UltraElement:
    """The element of `alg` whose projection on atom i is parts[i], or *0
    past the end of `parts`."""
    f0 = sum(p.f0 << i for i, p in enumerate(parts))
    f1 = sum(p.f1 << i for i, p in enumerate(parts))
    return UltraElement(alg, f0, f1)


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


def _concludes(quad: tuple, u: int, v: int, exact: str) -> bool:
    """A case's conclusion on slots u and v: *0 ≤ inf, sup ≤ *1, and its exact bound."""
    inf, sup = meet(quad[u], quad[v]), join(quad[u], quad[v])
    alg = inf.algebra
    bottom, top = mk_standard(alg, 0), mk_standard(alg, alg.top)
    exact_ok = {"inf-bottom": inf == bottom, "sup-top": sup == top}.get(exact, True)
    return leq(bottom, inf) and leq(sup, top) and exact_ok


def classify_cases(x: UltraElement) -> tuple[CaseOutcome, ...]:
    """Test each of the twelve case hypotheses on x's quadruple (pointwise
    order) and, where a hypothesis holds, check the stated inf/sup
    conclusion.  The generic bounds *0 ≤ inf and sup ≤ *1 are asserted
    in every case."""
    quad = quadruple(x)
    outcomes = []
    for case_id, description, hypothesis, (a, b), (u, v), exact in _CASES:
        holds = hypothesis(quad[a], quad[b])
        conclusion = _concludes(quad, u, v, exact) if holds else None
        outcomes.append(CaseOutcome(case_id, description, holds, conclusion))
    return tuple(outcomes)


def case_analysis(alg: FiniteBooleanAlgebra) -> tuple[list[int], int, bool]:
    """Per case, the carrier elements that meet its hypothesis; the
    (element, case) pairs whose conclusion then fails, counted on ONE (an
    incomparability hypothesis fails both comparisons of its slots); and
    whether inf and sup of each element with its flip are standard."""
    n, one = alg.atom_count, all_elements(ONE)
    quads = [quadruple(x) for x in one]
    counts, violations = [], 0
    for _, _, hypothesis, (a, b), (u, v), exact in _CASES:
        below, above = (
            {x for x, q in zip(one, quads) if leq(q[i], q[j])} for i, j in ((a, b), (b, a))
        )
        concluded = {x for x, q in zip(one, quads) if _concludes(q, u, v, exact)}
        holds, fails = (set(one), (below, above)) if hypothesis is incomparable else (below, ())
        counts.append(product_count(n, holds, fails))
        violations += product_count(n, holds, fails + (concluded,))
    standard = all(meet(x, fneg(x)).standard and join(x, fneg(x)).standard for x in one)
    return counts, violations, standard


# --- the two squares ---------------------------------------------------------

# Quadruple slot names, and the lattice test of each relation kind a
# square states.
_SLOT_NAMES = ("[f]", "[f¬]", "¬[f]", "¬[f¬]")
_LATTICE_TESTS = {
    RelationKind.CONTRARY: lambda x, y: meet(x, y) == mk_standard(x.algebra, 0),
    RelationKind.SUBCONTRARY: lambda x, y: join(x, y) == mk_standard(x.algebra, x.algebra.top),
    RelationKind.CONTRADICTORY: lambda x, y: y == complement(x),
    RelationKind.SUBALTERNATION_FORWARD: leq,
}


def square_relations(spec: SquareSpec) -> tuple[tuple[str, Callable, int, int], ...]:
    """The square's six expected relations on a quadruple: each as its
    label, its lattice test and the two slots it compares, the corners
    placed by the bridge's slot table."""
    relations = []
    for first, second, kind in spec.expected:
        i, j = _SLOTS[first], _SLOTS[second]
        x, y = _SLOT_NAMES[i], _SLOT_NAMES[j]
        if kind is RelationKind.SUBALTERNATION_FORWARD:
            label = f"{x} ≤ {y} subalternation"
        else:
            label = f"{x},{y} {kind.value}"
        relations.append((label, _LATTICE_TESTS[kind], i, j))
    return tuple(relations)


def _failures(relations: tuple, quad: tuple) -> list[str]:
    return [label for label, test, i, j in relations if not test(quad[i], quad[j])]


def verify_two_squares(alg: FiniteBooleanAlgebra) -> dict:
    """The report's two-square classification row for `alg`, on ONE.

    Conventional: inf([f],[f¬]) = *0, equivalently [f¬] ≤ ¬[f].
    Synthetic: [f] ≤ [f¬], equivalently ¬[f¬] ≤ ¬[f].
    For every element that meets a square's condition, the relations
    `analytic_square` and `synthetic_square` state for the model checker
    are checked.  An element violates one iff a projection does, so the
    satisfiers are listed only when ONE has a violation.  The alternative
    conventional hypothesis [f¬] ≤ [f] does not generate the conventional
    square's six relations (any nonzero standard element is a witness).
    The witness reported is ONE's first at atom p, with *0 (which meets
    the hypothesis) at the other atoms: the standard element *p, *1 on
    one atom, which the tests' sweep finds first.
    """
    n, one = alg.atom_count, all_elements(ONE)
    quads = {x: quadruple(x) for x in one}
    squares = (  # name, condition, its test and the equivalent form's, relations
        ("conventional", "inf([f],[f¬]) = *0",
         lambda f, fn, nf, nfn: (meet(f, fn) == one[0], leq(fn, nf)),
         square_relations(analytic_square())),
        ("synthetic", "[f] ≤ [f¬]", lambda f, fn, nf, nfn: (leq(f, fn), leq(nfn, nf)),
         square_relations(synthetic_square())),
    )
    standard = {x for x in one if x.standard}
    row, equivalences_ok = {"atom_count": n, "elements": 4**n}, True
    for name, condition, test, relations in squares:
        held, equivalent = ({x for x in one if test(*quads[x])[k]} for k in (0, 1))
        equivalences_ok = equivalences_ok and held == equivalent
        violations = []
        if any(_failures(relations, quads[x]) for x in held):
            lifted = (lift(alg, parts) for parts in itertools.product(held, repeat=n))
            for x in sorted(lifted, key=lambda x: (x.f0, x.f1)):
                violations.extend(f"{x}: {label}" for label in _failures(relations, quadruple(x)))
        row[name] = {
            "condition": condition,
            "satisfied_by": len(held) ** n,
            "nonstandard_satisfiers": product_count(n, held, (standard,)),
            "violations": violations,
        }
    witnesses = [w for w in one if leq(quads[w][1], w) and _failures(squares[0][3], quads[w])]
    row["hypothesis_equivalences_ok"] = equivalences_ok
    row["alternative_hypothesis"] = {
        "condition": "[f¬] ≤ [f]",
        "generates_conventional_square": not witnesses,
        "witness": str(lift(alg, witnesses[:1])) if witnesses else None,
    }
    return row


# --- matrix logic ------------------------------------------------------------
# Truth values are the carrier; the only designated value is *1.

def matrix_neg(x: UltraElement) -> UltraElement:
    return complement(x)


def matrix_imp(x: UltraElement, y: UltraElement) -> UltraElement:
    # "top minus sup, plus y" read with minus as complement and plus as
    # join; equals ~x | y.
    return ~(x | y) | y


def matrix_eval(f: Formula, valuation: Mapping[Atom, UltraElement]) -> UltraElement:
    """Evaluate a formula over opaque atoms into the carrier, by `truth_vector`."""

    def atom(a: Atom) -> UltraElement:
        try:
            return valuation[a]
        except KeyError:
            raise SemanticsError(f"no value bound for atom {a}") from None

    return truth_vector(f, atom)


def matrix_properties() -> dict[str, bool]:
    """The report's four matrix laws.  Each is universal Horn, or an equivalence of
    two conjunctions over the atoms, so ONE decides it for every atom count."""
    elems = all_elements(ONE)
    top = elems[-1]
    return {
        "double_negation": all(matrix_neg(matrix_neg(x)) == x for x in elems),
        "imp_top_identity": all(matrix_imp(top, x) == x for x in elems),
        # *1 is the only designated value, so x = *1 is the only premise.
        "modus_ponens_preservation": all(y == top for y in elems if matrix_imp(top, y) == top),
        "designation_order_compatibility": all(
            (matrix_imp(x, y) == top) == leq(x, y) for x in elems for y in elems
        ),
    }


# --- syllogistic bridge models ------------------------------------------------

# copula -> quadruple slot; slots index ([f], [f¬], ¬[f], ¬[f¬]).  Analytic
# and synthetic copulas share the assignment.
_SLOTS = {"a": 0, "e": 1, "i": 3, "o": 2}


class BridgeModel(Record):
    """Interpretation of atomic syllogistic formulas inside one quadruple.

    Every atom's value depends only on its copula: the slot table sends
    each of the four forms to one of [f], [f¬], ¬[f], ¬[f¬] generated from
    `generator`, and an atom holds iff its value is at or above
    `threshold`.  The report's alternate column is this table read on the
    quadruple of ¬[f¬], which is (¬[f¬], ¬[f], [f¬], [f]); its strict
    designation is the threshold *1, the only value at or above *1.
    """

    generator: UltraElement
    threshold: UltraElement

    @cached_property
    def values(self) -> dict[str, UltraElement]:
        quad = quadruple(self.generator)
        return {copula: quad[slot] for copula, slot in _SLOTS.items()}

    def interpret(self, atom: Atom) -> UltraElement:
        return self.values[atom.copula.value[-1]]  # a/e/i/o, either family


def bridge_satisfies(bm: BridgeModel, f: Formula) -> bool:
    """Satisfaction: an atom holds iff its interpreted value is at or above
    the threshold; compounds follow the classical clauses (an implication holds iff its
    antecedent fails or its consequent holds)."""
    return holds(f, lambda atom: leq(bm.threshold, bm.interpret(atom)))


def bridge_tables(alg: FiniteBooleanAlgebra) -> list[dict]:
    """The report's bridge tables on `alg`.  For the generators ⟨p, 0⟩,
    which meets the conventional-square condition, and *1, each column
    and each designation policy: the value and satisfaction of each
    atomic form, and whether the axiom-5 shape is satisfied.  A
    nonstandard atom value never meets strict designation, so the filter
    above the generator is reported alongside it."""
    top = mk_standard(alg, alg.top)
    atoms = {c: Atom("S", Copula(c), "P") for c in ("sa", "se", "si", "so")}
    axiom5 = next(e.schema.formula for e in catalog_entries() if e.id == "A5")
    tables = []
    for g in (UltraElement(alg, 1, 0), top):
        for column, generator in (("primary", g), ("alternate", complement(fneg(g)))):
            for policy, threshold in (("strict", top), (f"filter(≥ {g})", g)):
                bm = BridgeModel(generator, threshold)
                tables.append({
                    "generator": str(g),
                    "column": column,
                    "policy": policy,
                    "atom_values": {c: str(bm.interpret(atom)) for c, atom in atoms.items()},
                    "satisfied": {c: bridge_satisfies(bm, atom) for c, atom in atoms.items()},
                    "axiom5_shape_satisfied": bridge_satisfies(bm, axiom5),
                })
    return tables
