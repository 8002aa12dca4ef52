"""Syllogistic formula language: AST, parser, printer, schema instantiation.

Surface grammar (exact)::

    formula := implies
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "(" formula ")" | atom
    atom    := IDENT COP IDENT
    COP     := "a" | "e" | "i" | "o" | "sa" | "se" | "si" | "so"

`a e i o` are the analytic copulas, `sa se si so` the synthetic ones.
Precedence: ~ > & > | > ->, with `->` right-associative.  The copula
keywords are reserved and cannot be used as term names.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from enum import Enum

from .errors import InstantiationError, ParseError
from .record import Record


class Copula(Enum):
    A = "a"
    E = "e"
    I = "i"
    O = "o"
    SA = "sa"
    SE = "se"
    SI = "si"
    SO = "so"

    def __init__(self, token: str) -> None:
        self.synthetic = len(token) == 2
        self.analytic = not self.synthetic


COPULA_TOKENS: Mapping[str, Copula] = {c.value: c for c in Copula}
RESERVED_TOKENS = frozenset(COPULA_TOKENS)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def is_term_name(name: str) -> bool:
    """True iff `name` is a legal term identifier (and not a copula keyword)."""
    return bool(_IDENT_RE.fullmatch(name)) and name not in RESERVED_TOKENS


class Atom(Record):
    subject: str
    copula: Copula
    predicate: str


class Not(Record):
    operand: Formula


class And(Record):
    left: Formula
    right: Formula


class Or(Record):
    left: Formula
    right: Formula


class Implies(Record):
    left: Formula
    right: Formula


Formula = Atom | Not | And | Or | Implies


def atoms(f: Formula) -> tuple[Atom, ...]:
    """Distinct atoms of `f` in first-occurrence order."""
    seen: dict[Atom, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            seen.setdefault(g, None)
        elif isinstance(g, Not):
            walk(g.operand)
        else:
            walk(g.left)
            walk(g.right)

    walk(f)
    return tuple(seen)


def holds(f: Formula, atom: Callable[[Atom], bool]) -> bool:
    """Classical truth of `f`, with `atom` giving each atom's truth.

    Operands are evaluated left to right and short-circuit, so `atom` is
    never asked about an atom whose operand is already decided; an error
    it raises for such an atom does not surface.
    """
    if isinstance(f, Atom):
        return atom(f)
    if isinstance(f, Not):
        return not holds(f.operand, atom)
    if isinstance(f, And):
        return holds(f.left, atom) and holds(f.right, atom)
    if isinstance(f, Or):
        return holds(f.left, atom) or holds(f.right, atom)
    return (not holds(f.left, atom)) or holds(f.right, atom)


def fold(
    f: Formula,
    atom: Callable[[Atom], object],
    neg: Callable[[object], object],
    conj: Callable[[object, object], object],
    disj: Callable[[object, object], object],
    imp: Callable[[object, object], object],
) -> object:
    """The value of `f`, with `atom` giving each atom's value and the
    other four combining operand values; every operand is evaluated."""

    def walk(g: Formula) -> object:
        if isinstance(g, Atom):
            return atom(g)
        if isinstance(g, Not):
            return neg(walk(g.operand))
        op = conj if isinstance(g, And) else disj if isinstance(g, Or) else imp
        return op(walk(g.left), walk(g.right))

    return walk(f)


def term_names(f: Formula) -> tuple[str, ...]:
    """Sorted term identifiers occurring in `f`."""
    names = set()
    for atom in atoms(f):
        names.add(atom.subject)
        names.add(atom.predicate)
    return tuple(sorted(names))


class Schema(Record):
    """A formula whose listed term identifiers are metavariables."""

    formula: Formula
    metavars: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.metavars)) != len(self.metavars):
            raise ValueError("duplicate metavariable")
        present = set(term_names(self.formula))
        missing = [m for m in self.metavars if m not in present]
        if missing:
            raise ValueError(f"metavariables do not occur in formula: {missing}")


def instantiate(schema: Schema, binding: Mapping[str, str]) -> Formula:
    """Substitute term identifiers for the schema's metavariables.

    The substitution is simultaneous and distributes through the
    connectives; identifiers that are not metavariables pass through
    untouched.
    """
    for m in schema.metavars:
        if m not in binding:
            raise InstantiationError(f"no binding for metavariable {m!r}")
    for m in schema.metavars:
        target = binding[m]
        if not is_term_name(target):
            raise InstantiationError(f"binding {m!r} to reserved or invalid token {target!r}")
    meta = set(schema.metavars)

    def subst(name: str) -> str:
        return binding[name] if name in meta else name

    return fold(
        schema.formula,
        lambda a: Atom(subst(a.subject), a.copula, subst(a.predicate)),
        Not,
        And,
        Or,
        Implies,
    )


def schema_of(text: str) -> Schema:
    """Parse `text` and treat every term occurring in it as a metavariable."""
    f = parse(text)
    return Schema(f, term_names(f))


# --- parsing ---------------------------------------------------------------

_MAX_DEPTH = 400  # keeps pathological inputs from blowing the stack

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

    def formula(self, depth: int = 0) -> Formula:
        if depth > _MAX_DEPTH:
            raise ParseError("formula nesting too deep", self.peek()[2], ())
        left = self.disjunction(depth)
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.formula(depth + 1))
        return left

    def disjunction(self, depth: int) -> Formula:
        left = self.conjunction(depth)
        while self.peek()[0] == "|":
            self.advance()
            left = Or(left, self.conjunction(depth))
        return left

    def conjunction(self, depth: int) -> Formula:
        left = self.unary(depth)
        while self.peek()[0] == "&":
            self.advance()
            left = And(left, self.unary(depth))
        return left

    def unary(self, depth: int) -> Formula:
        if depth > _MAX_DEPTH:
            raise ParseError("formula nesting too deep", self.peek()[2], ())
        kind, _, _ = self.peek()
        if kind == "~":
            self.advance()
            return Not(self.unary(depth + 1))
        if kind == "(":
            self.advance()
            inner = self.formula(depth + 1)
            self.expect(")", (")",))
            return inner
        return self.atom()

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


def parse(text: str) -> Formula:
    """Parse `text` into a Formula, or raise a positioned ParseError."""
    p = _Parser(text)
    f = p.formula()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
    return f


# --- printing --------------------------------------------------------------

# Binding strength; a node is parenthesized when it appears in a context
# that requires at least the given level.
_IMPLIES_LVL, _OR_LVL, _AND_LVL, _NOT_LVL, _ATOM_LVL = 1, 2, 3, 4, 5


def render(f: Formula) -> str:
    """Print `f` with minimal parentheses; parse(render(f)) == f."""
    return _render(f, _IMPLIES_LVL)


def _render(f: Formula, minimum: int) -> str:
    if isinstance(f, Atom):
        return f"{f.subject} {f.copula.value} {f.predicate}"
    if isinstance(f, Not):
        text, level = "~" + _render(f.operand, _NOT_LVL), _NOT_LVL
    elif isinstance(f, And):
        text = f"{_render(f.left, _AND_LVL)} & {_render(f.right, _AND_LVL + 1)}"
        level = _AND_LVL
    elif isinstance(f, Or):
        text = f"{_render(f.left, _OR_LVL)} | {_render(f.right, _OR_LVL + 1)}"
        level = _OR_LVL
    else:
        text = f"{_render(f.left, _OR_LVL)} -> {_render(f.right, _IMPLIES_LVL)}"
        level = _IMPLIES_LVL
    return f"({text})" if level < minimum else text
