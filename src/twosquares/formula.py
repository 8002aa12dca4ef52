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

import operator
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

# a term identifier or a copula keyword: the lexer's word
_WORD = r"[A-Za-z][A-Za-z0-9_]*"


def is_term_name(name: str) -> bool:
    """True iff `name` is a legal term identifier (and not a copula keyword)."""
    return bool(re.fullmatch(_WORD, name)) and name not in RESERVED_TOKENS


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
    add = operator.add
    return tuple(dict.fromkeys(fold(f, lambda a: (a,), tuple, add, add, add)))


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
    other four combining operand values; every operand is evaluated,
    left to right."""

    def walk(g: Formula) -> object:
        node = type(g)
        if node is Atom:
            return atom(g)
        if node is Not:
            return neg(walk(g.operand))
        op = conj if node is And else disj if node is Or else imp
        return op(walk(g.left), walk(g.right))

    return walk(f)


def term_names(f: Formula) -> tuple[str, ...]:
    """Sorted term identifiers occurring in `f`."""
    names, stack = set(), [f]
    while stack:
        g = stack.pop()
        node = type(g)
        if node is Atom:
            names.add(g.subject)
            names.add(g.predicate)
        elif node is Not:
            stack.append(g.operand)
        else:
            stack += g.left, g.right
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

# Levels a formula may nest: each parenthesis, `~`, and connective of a
# chain is one.  A level costs the parser two frames at most and a walker
# one (`==` on two formulas three), all below the default recursion limit.
_MAX_DEPTH = 200

# connective token -> (node, binding strength); only `->` groups to the right
_BINARY = {"&": (And, 3), "|": (Or, 2), "->": (Implies, 1)}

# what an atom's copula word may be, in the order an error lists them
_COPULAS = tuple(sorted(COPULA_TOKENS))

# One scan lexes the whole text.  A word, a copula keyword (`s?[aeio]`)
# and a word, whitespace between the three, is an atom and one token; the
# parser then reads the formula one token per atom.  Each match skips
# whitespace and fills one group set: subject (and copula and predicate
# for an atom candidate), a connective or parenthesis, or the character
# no token starts with; or none, at the end.  Without the match at the
# end, trailing whitespace would fail a match at each of its positions,
# a scan quadratic in its length.
_TOKEN_RE = re.compile(
    rf"\s*(?:({_WORD})(?:\s+(s?[aeio])\s+({_WORD}))?|(->|[~&|()])|(\S)|\Z)"
)

# (kind, lexeme, the Atom of an "atom" token or None); kind is "atom",
# "ident" for a word, the symbol itself, or "eof"
_Token = tuple[str, str, Atom | None]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`.  A candidate with a reserved term is three
    words, as is every other atom that is not well formed; the parser
    builds no atom from words and reads them only to report the one out
    of place.  `findall` builds no match objects: `_offsets` scans again
    for an error's offset."""
    tokens = []
    for subject, copula, predicate, symbol, bad in _TOKEN_RE.findall(text):
        if copula and subject not in RESERVED_TOKENS and predicate not in RESERVED_TOKENS:
            tokens.append(("atom", subject, Atom(subject, COPULA_TOKENS[copula], predicate)))
        elif symbol:
            tokens.append((symbol, symbol, None))
        elif subject:
            tokens += [("ident", word, None) for word in (subject, copula, predicate) if word]
        elif bad:
            offset = _offsets(text, tokens)[len(tokens)]
            raise ParseError(f"unexpected character {bad!r}", offset, ("term", "~", "("))
    tokens.append(("eof", "", None))
    return tokens


def _offsets(text: str, tokens: list[_Token]) -> list[int]:
    """The offsets in `text` of `tokens`, its tokens, for an error: an
    atom's is its subject's, the end of input's the length of `text`.
    Where `tokens` stop at a character no token starts with, its offset
    follows theirs."""
    offsets = []
    for m in _TOKEN_RE.finditer(text):
        starts = [m.start(g) for g in range(1, 6) if m[g]]
        atom = len(offsets) < len(tokens) and tokens[len(offsets)][0] == "atom"
        offsets += starts[:1] if atom else starts
    return offsets + [len(text)]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message: str, at: int, expected: tuple[str, ...]) -> ParseError:
        return ParseError(message, _offsets(self.text, self.tokens)[at], expected)

    # `binary` and `unary` take the levels enclosing them and return what
    # they parsed with the levels it nests; both counts are bounded.

    def binary(self, depth: int, minimum: int = 1) -> tuple[Formula, int]:
        """Operands joined by connectives binding at least as tightly as `minimum`."""
        left, levels = self.unary(depth)
        while (op := _BINARY.get(self.tokens[self.i][0])) and op[1] >= minimum:
            self.i += 1
            node, strength = op
            if node is Implies:
                right, nested = self.binary(depth + 1)
            else:
                right, nested = self.binary(depth, strength + 1)
            levels = max(levels, nested)
            if levels >= _MAX_DEPTH:
                raise self.error("formula nesting too deep", self.i, ())
            left, levels = node(left, right), levels + 1
        return left, levels

    def unary(self, depth: int) -> tuple[Formula, int]:
        kind, _, atom = self.tokens[self.i]
        if depth > _MAX_DEPTH:
            raise self.error("formula nesting too deep", self.i, ())
        if kind == "atom":
            self.i += 1
            return atom, 0
        if kind == "~":
            self.i += 1
            operand, levels = self.unary(depth + 1)
            f = Not(operand)
        elif kind == "(":
            self.i += 1
            f, levels = self.binary(depth + 1)
            kind, lexeme, _ = self.tokens[self.i]
            if kind != ")":
                raise self.error(f"unexpected token {lexeme or 'end of input'!r}", self.i, (")",))
            self.i += 1
        else:
            raise self.atom_error()
        if levels >= _MAX_DEPTH:
            raise self.error("formula nesting too deep", self.i, ())
        return f, levels + 1

    def atom_error(self) -> ParseError:
        """The error where an atom should start, at the first of subject,
        copula and predicate out of place: not a word, or a copula keyword
        but where the copula goes.  A well-formed atom is one "atom" token,
        so one of the three always is."""
        words = zip(self.tokens[self.i:], (("term", "~", "("), _COPULAS, ("term",)))
        for at, ((kind, lexeme, _), expected) in enumerate(words, self.i):
            if kind != "ident" or (lexeme in RESERVED_TOKENS) != (expected is _COPULAS):
                break
        return self.error(f"unexpected token {lexeme or 'end of input'!r}", at, expected)


def parse(text: str) -> Formula:
    """Parse `text` into a Formula, or raise a positioned ParseError."""
    p = _Parser(text)
    f, _ = p.binary(0)
    kind, lexeme, _ = p.tokens[p.i]
    if kind != "eof":
        raise p.error(f"trailing input {lexeme!r}", p.i, ("end of input",))
    return f


# --- printing --------------------------------------------------------------

# connective node -> (symbol, binding strength), as the parser reads them;
# `~` binds more tightly than every connective
_CONNECTIVES = {node: (symbol, strength) for symbol, (node, strength) in _BINARY.items()}
_NOT_STRENGTH = 4


def render(f: Formula) -> str:
    """Print `f` with minimal parentheses; parse(render(f)) == f."""
    return _render(f, 0)


def _render(f: Formula, minimum: int) -> str:
    """`f`, parenthesized when it binds less tightly than `minimum`."""
    if isinstance(f, Atom):
        return f"{f.subject} {f.copula.value} {f.predicate}"
    if isinstance(f, Not):
        text, strength = "~" + _render(f.operand, _NOT_STRENGTH), _NOT_STRENGTH
    else:
        symbol, strength = _CONNECTIVES[type(f)]
        # only `->` groups to the right
        left, right = (strength + 1, strength) if type(f) is Implies else (strength, strength + 1)
        text = f"{_render(f.left, left)} {symbol} {_render(f.right, right)}"
    return f"({text})" if strength < minimum else text
