"""Oracles kept out of the package.

Model-by-model search, the oracle for the bit-parallel search: each
function visits the models one at a time, in the order the enumerators
yield them, and stops where the first model of interest shows up, as
the checkers did before they evaluated every model at once.
`derived_scan` builds the derived image the same way, one structure and
induced model at a time, and `derived_image` reads the package's image
off its search space.  `structure_walk` and `induced_models` are one
cached walk over every copula structure, shared by the tests that
compare against all of them.

The pair carrier, the oracle for the carrier in `twosquares.starb`:
an element is the coefficient pair (f0, f1), and every operation acts
on the two coefficients, bitmasks of the base algebra.
`pair_carrier_sections` sweeps it to build the report's carrier
sections, which the package computes from the one-atom carrier.
`pair_bridge_tables` builds the report's bridge tables from the two
slot tables (one per column) and the two designation rules (strict and
filter) that the package reads as one table on a second generator and
one threshold.

The per-word parser, the oracle for the package's: `reference_parse`
lexes one word or symbol at a time and reads each atom as three
tokens, as the package did before one scan lexed whole atoms.  The
row-by-row truth table, the oracle for `proofs.is_tautology`, walks
every assignment to the letters with `holds`.

The argparse parser, the oracle for the package's command-line table:
`build_parser` is the parser `twosquares.cli` built before it read the
command line from one table.
"""

import argparse
import functools
import itertools
import re
from dataclasses import dataclass

from twosquares.analytic import AnalyticSemantics, enumerate_analytic_models
from twosquares.copula import enumerate_copula_structures, induced_model
from twosquares.errors import ParseError
from twosquares.formula import (
    _MAX_DEPTH,
    COPULA_TOKENS,
    RESERVED_TOKENS,
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    atoms,
    holds,
    render,
    term_names,
)
from twosquares.opposition import OppositionRelation, RelationKind
from twosquares.search import Counterexample, Valid
from twosquares.starb import CaseOutcome, FiniteBooleanAlgebra
from twosquares.synthetic import (
    MAX_UNIVERSE_DERIVED,
    Reading,
    SyntheticOptions,
    enumerate_synthetic_models,
)


def models(semantics, terms, bound):
    """The models a search under `semantics` ranges over."""
    if isinstance(semantics, AnalyticSemantics):
        return enumerate_analytic_models(terms, bound)
    if semantics.reading is Reading.DIRECT:
        return enumerate_synthetic_models(terms, bound, semantics)
    return derived_image(terms, bound, semantics)


def derived_image(terms, bound, opts):
    """The structures a derived reading's search ranges over, in order:
    the first structure of each type-set its induced models realize."""
    space = opts.space(terms, bound)
    return tuple(space.model(m) for m in range(space.full.bit_length()))


def facts(model):
    """The (individual, term) pairs of a monadic model: x is t."""
    return {(x, t) for t, mask in model.extents for i, x in enumerate(model.universe) if mask >> i & 1}


def type_set(model):
    """The set of term-types the individuals of `model` realize."""
    types = {x: set() for x in model.universe}
    for x, t in facts(model):
        types[x].add(t)
    return frozenset(frozenset(ts) for ts in types.values())


def derived_scan(terms, bound, opts):
    """The derived image by a scan of every structure: the first
    structure of each type-set its induced model realizes."""
    charitable = opts.reading is Reading.DERIVED_CHARITABLE
    walk = structure_walk(terms)
    assert bound <= len(walk[-1].universe), "the walk stops below this bound"
    witnesses = {}
    for c, types in zip(walk, _type_sets(terms, charitable)):
        if len(c.universe) <= bound:
            witnesses.setdefault(types, c)
    return tuple(witnesses.values())


@functools.cache
def structure_walk(terms):
    """Every copula structure over `terms` up to the derived bound, or up
    to bound 2 past three terms (four give 41 730 structures at bound 3),
    in enumeration order.  Neither the reading nor allowing the empty
    universe changes the walk; the structures of a smaller universe come
    first."""
    opts = SyntheticOptions(Reading.DERIVED_LITERAL)
    bound = MAX_UNIVERSE_DERIVED if len(terms) <= 3 else 2
    return tuple(enumerate_copula_structures(terms, bound, opts))


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


def scan_classify(left, right, models, evaluate):
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
    return OppositionRelation(kind, both_true, both_false, first_only, second_only)


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
    return PairElement(x.algebra, x.f0 & y.f0, x.f1 & y.f1)


def pair_join(x, y):
    return PairElement(x.algebra, x.f0 | y.f0, x.f1 | y.f1)


def pair_complement(x):
    return PairElement(x.algebra, x.algebra.top & ~x.f0, x.algebra.top & ~x.f1)


def pair_fneg(x):
    return PairElement(x.algebra, x.f1, x.f0)


def pair_leq(x, y):
    return x.f0 & ~y.f0 == 0 and x.f1 & ~y.f1 == 0


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
    bottom, top = PairElement(alg, 0, 0), PairElement(alg, alg.top, alg.top)
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
    bottom, top = PairElement(alg, 0, 0), PairElement(alg, alg.top, alg.top)
    return pair_meet(x, y) == bottom, pair_join(x, y) == top, y == pair_complement(x)


def pair_conventional(f, fn, nf, nfn):
    return (
        ("[f],[f¬] contrary", _pair_opposition(f, fn)[0]),
        ("¬[f¬],¬[f] subcontrary", _pair_opposition(nfn, nf)[1]),
        ("[f],¬[f] contradictory", _pair_opposition(f, nf)[2]),
        ("[f¬],¬[f¬] contradictory", _pair_opposition(fn, nfn)[2]),
        ("[f] ≤ ¬[f¬] subalternation", pair_leq(f, nfn)),
        ("[f¬] ≤ ¬[f] subalternation", pair_leq(fn, nf)),
    )


def pair_synthetic(f, fn, nf, nfn):
    return (
        ("[f],¬[f¬] contrary", _pair_opposition(f, nfn)[0]),
        ("[f¬],¬[f] subcontrary", _pair_opposition(fn, nf)[1]),
        ("[f],¬[f] contradictory", _pair_opposition(f, nf)[2]),
        ("[f¬],¬[f¬] contradictory", _pair_opposition(fn, nfn)[2]),
        ("[f] ≤ [f¬] subalternation", pair_leq(f, fn)),
        ("¬[f¬] ≤ ¬[f] subalternation", pair_leq(nfn, nf)),
    )


def pair_verify_two_squares(alg):
    bottom = PairElement(alg, 0, 0)
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
            for label, holds in pair_conventional(f, fn, nf, nfn):
                if not holds:
                    conv_violations.append(f"{x}: {label}")
        syn_condition = pair_leq(f, fn)
        if syn_condition != pair_leq(nfn, nf):
            equivalences_ok = False
        if syn_condition:
            syn_satisfied += 1
            if not x.standard:
                syn_nonstandard += 1
            for label, holds in pair_synthetic(f, fn, nf, nfn):
                if not holds:
                    syn_violations.append(f"{x}: {label}")
        if pair_leq(fn, f) and not all(h for _, h in pair_conventional(f, fn, nf, nfn)):
            if bullet_ok:
                bullet_witness = str(x)
            bullet_ok = False
    return {
        "atom_count": alg.atom_count,
        "elements": alg.size * alg.size,
        "conventional": {
            "condition": "inf([f],[f¬]) = *0",
            "satisfied_by": conv_satisfied,
            "nonstandard_satisfiers": conv_nonstandard,
            "violations": conv_violations,
        },
        "synthetic": {
            "condition": "[f] ≤ [f¬]",
            "satisfied_by": syn_satisfied,
            "nonstandard_satisfiers": syn_nonstandard,
            "violations": syn_violations,
        },
        "hypothesis_equivalences_ok": equivalences_ok,
        "alternative_hypothesis": {
            "condition": "[f¬] ≤ [f]",
            "generates_conventional_square": bullet_ok,
            "witness": bullet_witness,
        },
    }


def pair_carrier_sections(atom_count, pairs=True):
    """The report's case_sweep, proposition1 and matrix_properties
    sections from sweeps of every pair-carrier element, and of every
    pair of elements unless `pairs` is false, which leaves out
    designation-order compatibility."""
    alg = FiniteBooleanAlgebra(atom_count)
    elems = pair_elements(alg)
    counts, violations = [0] * 12, 0
    for x in elems:
        for outcome in pair_classify_cases(x):
            counts[outcome.case_id - 1] += outcome.hypothesis_holds
            violations += outcome.hypothesis_holds and not outcome.conclusion_holds
    cases = {
        "atom_count": atom_count,
        "elements": len(elems),
        "cases": [{"case": case, "hypothesis_holds_for": k} for case, k in enumerate(counts, 1)],
        "conclusion_violations": violations,
        "inf_sup_standard": all(
            pair_meet(x, pair_fneg(x)).standard and pair_join(x, pair_fneg(x)).standard
            for x in elems
        ),
    }
    sweeps = [
        pair_verify_two_squares(FiniteBooleanAlgebra(k)) for k in range(1, atom_count + 1)
    ]
    top = PairElement(alg, alg.top, alg.top)
    matrix = {
        "atom_count": atom_count,
        "elements": len(elems),
        "double_negation": all(pair_complement(pair_complement(x)) == x for x in elems),
        "imp_top_identity": all(pair_matrix_imp(top, x) == x for x in elems),
        "modus_ponens_preservation": all(
            y == top for y in elems if pair_matrix_imp(top, y) == top
        ),
    }
    if pairs:
        matrix["designation_order_compatibility"] = all(
            (pair_matrix_imp(x, y) == top) == pair_leq(x, y) for x in elems for y in elems
        )
    return {"case_sweep": cases, "proposition1": {"sweeps": sweeps}, "matrix_properties": matrix}


# --- the bridge's two slot tables and two designation rules -------------------

# copula -> slot of ([f], [f¬], ¬[f], ¬[f¬]), one table per column
PAIR_BRIDGE_SLOTS = {
    "primary": {"a": 0, "e": 1, "i": 3, "o": 2},
    "alternate": {"a": 3, "e": 2, "i": 0, "o": 1},
}


def pair_bridge_value(x, column, copula):
    """The value the column gives an atom with this copula (either
    family) in the quadruple of x."""
    return pair_quadruple(x)[PAIR_BRIDGE_SLOTS[column][copula[-1]]]


def pair_designated(policy, value):
    """Strict designation is {*1} exactly; a filter, given as its
    threshold, designates every value at or above it."""
    if policy == "strict":
        return value.f0 == value.f1 == value.algebra.top
    return pair_leq(policy, value)


def pair_bridge_tables(alg):
    """The report's bridge tables from the two slot tables and the two
    designation rules, for the generators ⟨p, 0⟩ and *1."""
    atoms = {c: reference_parse(f"S {c} P") for c in ("sa", "se", "si", "so")}
    axiom5 = reference_parse("S sa P -> S se P")
    tables = []
    for x in (PairElement(alg, 1, 0), PairElement(alg, alg.top, alg.top)):
        for column in ("primary", "alternate"):
            for policy in ("strict", x):
                def satisfied(f):
                    return holds(f, lambda atom: pair_designated(
                        policy, pair_bridge_value(x, column, atom.copula.value)))

                tables.append({
                    "generator": str(x),
                    "column": column,
                    "policy": "strict" if policy == "strict" else f"filter(≥ {x})",
                    "atom_values": {
                        c: str(pair_bridge_value(x, column, c)) for c in atoms
                    },
                    "satisfied": {c: satisfied(atom) for c, atom in atoms.items()},
                    "axiom5_shape_satisfied": satisfied(axiom5),
                })
    return tables


# --- per-word parser -----------------------------------------------------

# connective token -> (node, binding strength); only `->` groups to the right
_BINARY = {"&": (And, 3), "|": (Or, 2), "->": (Implies, 1)}

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|->|[~&|()]")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos,
                ("term", "~", "(",),
            )
        lexeme = m.group()
        kind = "ident" if lexeme[0].isalpha() else lexeme
        tokens.append((kind, lexeme, pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}", tok[2], expected)
        return self.advance()

    # `binary` and `unary` take the levels enclosing them and return what
    # they parsed with the levels it nests; both counts are bounded.

    def binary(self, depth: int, minimum: int = 1) -> tuple[Formula, int]:
        """Operands joined by connectives binding at least as tightly as `minimum`."""
        left = self.unary(depth)
        while _BINARY.get(self.peek()[0], (None, 0))[1] >= minimum:
            node, strength = _BINARY[self.advance()[0]]
            if node is Implies:
                right = self.binary(depth + 1)
            else:
                right = self.binary(depth, strength + 1)
            left = self.nest(node(left[0], right[0]), max(left[1], right[1]))
        return left

    def nest(self, f: Formula, levels: int) -> tuple[Formula, int]:
        """`f` one level above `levels`, or an error past the limit."""
        if levels >= _MAX_DEPTH:
            raise ParseError("formula nesting too deep", self.peek()[2], ())
        return f, levels + 1

    def unary(self, depth: int) -> tuple[Formula, int]:
        if depth > _MAX_DEPTH:
            raise ParseError("formula nesting too deep", self.peek()[2], ())
        kind, _, _ = self.peek()
        if kind == "~":
            self.advance()
            operand, levels = self.unary(depth + 1)
            return self.nest(Not(operand), levels)
        if kind == "(":
            self.advance()
            inner, levels = self.binary(depth + 1)
            self.expect(")", (")",))
            return self.nest(inner, levels)
        return self.atom(), 0

    def term(self, expected: tuple[str, ...]) -> str:
        kind, lexeme, pos = self.peek()
        if kind != "ident" or lexeme in RESERVED_TOKENS:
            raise ParseError(
                f"unexpected token {lexeme or 'end of input'!r}", pos, expected,
            )
        self.advance()
        return lexeme

    def atom(self) -> Formula:
        subject = self.term(("term", "~", "("))
        kind, lexeme, pos = self.peek()
        if kind != "ident" or lexeme not in COPULA_TOKENS:
            raise ParseError(
                f"unexpected token {lexeme or 'end of input'!r}", pos,
                tuple(sorted(COPULA_TOKENS)),
            )
        copula = COPULA_TOKENS[lexeme]
        self.advance()
        predicate = self.term(("term",))
        return Atom(subject, copula, predicate)


def reference_parse(text: str) -> Formula:
    """Parse `text` into a Formula, or raise a positioned ParseError."""
    p = _Parser(text)
    f, _ = p.binary(0)
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
    return f


def row_by_row_tautology(f: Formula) -> bool:
    """True iff `f` holds on every row of its truth table, its distinct
    atoms taken as opaque letters; one `holds` walk per row."""
    letters = atoms(f)
    for values in itertools.product((False, True), repeat=len(letters)):
        if not holds(f, dict(zip(letters, values)).__getitem__):
            return False
    return True


# --- the argparse command line -------------------------------------------------

def _add_semantics_flags(sub) -> None:
    sub.add_argument("--semantics", choices=("analytic", "synthetic"), default="synthetic")
    sub.add_argument("--import", dest="existential_import", choices=("on", "off"), default="on")
    sub.add_argument(
        "--reading", choices=tuple(r.value for r in Reading), default=Reading.DIRECT.value
    )
    sub.add_argument("--allow-empty", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="verification workbench for the analytic and synthetic squares of opposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula against a model file")
    p_eval.add_argument("formula")
    p_eval.add_argument("--model", required=True, help="JSON model file")
    _add_semantics_flags(p_eval)

    p_classify = sub.add_parser("classify", help="classify the opposition relation of two formulas")
    p_classify.add_argument("first")
    p_classify.add_argument("second")
    _add_semantics_flags(p_classify)
    p_classify.add_argument("--bound", type=int, default=3)

    p_square = sub.add_parser("square", help="verify a full square of opposition")
    _add_semantics_flags(p_square)
    p_square.add_argument("--bound", type=int, default=3)

    p_diagram = sub.add_parser("diagram", help="emit a DOT diagram of a verified square")
    _add_semantics_flags(p_diagram)
    p_diagram.add_argument("--bound", type=int, default=3)

    p_prove = sub.add_parser("prove", help="check a proof script")
    p_prove.add_argument("script")
    p_prove.add_argument(
        "--axioms", default="a5,a6,a7,a8,def",
        help="comma list from a5,a6,a7,a8,def (default: all)",
    )

    p_verify = sub.add_parser("verify-paper", help="run the full verification suite")
    p_verify.add_argument("--bound", type=int, default=3, help="synthetic model bound (1..4)")
    p_verify.add_argument("--atoms", type=int, default=2, help="algebra atom count (1..4)")

    for p in (p_eval, p_classify, p_square, p_diagram, p_prove, p_verify):
        if p is not p_diagram:  # a diagram is DOT only
            p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write output to FILE instead of stdout")
    return parser
