"""Syllogistic formula language: AST, parser, printer, schema instantiation,
and `truth_vector`, the one eager walk: it evaluates every operand of a
formula, in ints of truth bits or in any Boolean algebra.

Surface grammar (exact)::

    formula := implies
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "(" formula ")" | atom
    atom    := IDENT COP IDENT
    COP     := "a" | "e" | "i" | "o" | "sa" | "se" | "si" | "so"
    IDENT   := [A-Za-z][A-Za-z0-9_]*

`a e i o` are the analytic copulas, `sa se si so` the synthetic ones.
Precedence: ~ > & > | > ->, with `->` right-associative.  The copula
keywords are reserved and cannot be used as term names.  Blanks (what
`str.isspace` accepts) separate words, and a symbol needs none around it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from enum import Enum

from .errors import InputError, InstantiationError, ParseError
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

    __hash__ = object.__hash__  # members are singletons; Enum's hashes the name in Python


COPULA_TOKENS: Mapping[str, Copula] = {c.value: c for c in Copula}
RESERVED_TOKENS = frozenset(COPULA_TOKENS)


def is_term_name(name: str) -> bool:
    """True iff `name` is a legal term identifier, an ASCII letter followed by
    ASCII letters, digits and `_`, and not a copula keyword; the parser's test."""
    return name.isidentifier() and name.isascii() and name[0] != "_" and name not in RESERVED_TOKENS


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
    seen = {}
    truth_vector(f, lambda a: seen.setdefault(a, 0))
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


def truth_vector(f: Formula, atom: Callable[[Atom], int]) -> int:
    """The value of `f`: the values `atom` gives its atoms, combined with `~`, `&`
    and `|`, with `x -> y` read as `~x | y`.  They are ints of truth bits, or the
    elements of any Boolean algebra with those operators.  The one eager walk:
    every operand is evaluated, left to right."""
    node = type(f)
    if node is Atom:
        return atom(f)
    if node is Not:
        return ~truth_vector(f.operand, atom)
    if node is And:
        return truth_vector(f.left, atom) & truth_vector(f.right, atom)
    if node is Or:
        return truth_vector(f.left, atom) | truth_vector(f.right, atom)
    return ~truth_vector(f.left, atom) | truth_vector(f.right, atom)


def term_names(f: Formula) -> tuple[str, ...]:
    """Sorted term identifiers occurring in `f`."""
    names = set()

    def add(a: Atom) -> int:
        names.add(a.subject)
        names.add(a.predicate)
        return 0

    truth_vector(f, add)
    return tuple(sorted(names))


class Schema(Record):
    """A formula whose listed term identifiers are metavariables."""

    formula: Formula
    metavars: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.metavars)) != len(self.metavars):
            raise InputError("duplicate metavariable")
        present = set(term_names(self.formula))
        missing = [m for m in self.metavars if m not in present]
        if missing:
            raise InputError(f"metavariables do not occur in formula: {missing}")


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
        if not (isinstance(target, str) and is_term_name(target)):
            raise InstantiationError(f"binding {m!r} to reserved or invalid token {target!r}")
    meta = set(schema.metavars)

    def subst(name: str) -> str:
        return binding[name] if name in meta else name

    def walk(g: Formula) -> Formula:
        node = type(g)
        if node is Atom:
            return Atom(subst(g.subject), g.copula, subst(g.predicate))
        if node is Not:
            return Not(walk(g.operand))
        return node(walk(g.left), walk(g.right))

    return walk(schema.formula)


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

# The lexer splits the text on blanks once a blank is put around each
# symbol: its words are `->`, `~ & | ( )` and the runs of other characters
# between them.  A term is a word `is_term_name` accepts, and an atom three
# words: a term, a `COPULA_TOKENS` key and a term.  Only a failed parse runs
# a regex, for a character no token starts with, which is reported before
# any other error; otherwise the failing word is, at the offset `str.find`
# gives it.


def _words(text: str) -> list[str]:
    """The words of `text`, in order."""
    return (
        text.replace("->", " -> ").replace("~", " ~ ").replace("&", " & ")
        .replace("|", " | ").replace("(", " ( ").replace(")", " ) ").split()
    )


def parse(text: str) -> Formula:
    """Parse `text` into a Formula, or raise a positioned ParseError."""
    words = _words(text)
    words += "", "", ""  # the end of input, and room to read an atom at it
    f, _, i = _formula(text, words, 0, 0, 1)
    if words[i]:
        raise _error(text, i, ("end of input",))
    return f


def _formula(text: str, words: list[str], i: int, depth: int, minimum: int) -> tuple[Formula, int, int]:
    """The formula at word `i` whose connectives bind at least as tightly as
    `minimum`, a `_BINARY` strength, with `depth` levels enclosing it: the
    formula, the levels it nests and the index of the word after it.  Both
    counts are bounded; a nesting error is raised at the word where it is found."""
    left = None  # the conjunction before an `&`
    while True:  # one operand, then the `&` before the next
        start = i
        while words[i] == "~":
            i += 1
        negations = i - start
        if depth + negations > _MAX_DEPTH:
            raise _error(text, start + max(0, _MAX_DEPTH + 1 - depth), ())
        subject = words[i]
        if subject == "(":
            f, levels, i = _formula(text, words, i + 1, depth + negations + 1, 1)
            if words[i] != ")":
                raise _error(text, i, (")",))
            i += 1
            if levels >= _MAX_DEPTH:
                raise _error(text, i, ())
            levels += 1
        else:
            copula, predicate = COPULA_TOKENS.get(words[i + 1]), words[i + 2]
            if copula is None or not is_term_name(subject) or not is_term_name(predicate):
                raise _error(text, i, None)
            f, levels = Atom(subject, copula, predicate), 0
            i += 3
        if negations:
            if levels + negations > _MAX_DEPTH:
                raise _error(text, i, ())
            for _ in range(negations):
                f = Not(f)
            levels += negations
        if left is not None:
            if left_levels > levels:
                levels = left_levels
            if levels >= _MAX_DEPTH:
                raise _error(text, i, ())
            f, levels = And(left, f), levels + 1
        if words[i] != "&":
            break
        left, left_levels = f, levels
        i += 1
    # nothing binds more tightly than `&`: a connective ahead is `|` or `->`
    while (op := _BINARY.get(words[i])) and op[1] >= minimum:
        node, strength = op
        if node is Implies:  # the one that groups to the right
            right, nested, i = _formula(text, words, i + 1, depth + 1, strength)
        else:
            right, nested, i = _formula(text, words, i + 1, depth, strength + 1)
        if nested > levels:
            levels = nested
        if levels >= _MAX_DEPTH:
            raise _error(text, i, ())
        f, levels = node(f, right), levels + 1
    return f, levels, i


def _error(text: str, at: int, expected: tuple[str, ...] | None) -> ParseError:
    """The error of `text` at its word `at`, unless the text holds a character no
    token starts with: the first such character is the error.  Where an operand
    should start (`expected` None), the error is at the first of subject, copula
    and predicate out of place."""
    for m in re.finditer(r"[A-Za-z][A-Za-z0-9_]*|->|[~&|()]|(\S)", text):
        if m[1]:
            return ParseError(f"unexpected character {m[1]!r}", m.start(), ("term", "~", "("))
    words = _words(text) + [""]
    if expected is None:
        for at, expected in zip(range(at, at + 3), (("term", "~", "("), _COPULAS, ("term",))):
            if not (words[at] in COPULA_TOKENS if expected is _COPULAS else is_term_name(words[at])):
                break
    offset = 0
    for word in words[:at]:
        offset = text.find(word, offset) + len(word)
    word = words[at]
    offset = text.find(word, offset) if word else len(text)
    if expected == ("end of input",):
        return ParseError(f"trailing input {word!r}", offset, expected)
    message = f"unexpected token {word or 'end of input'!r}" if expected else "formula nesting too deep"
    return ParseError(message, offset, expected)


# --- printing --------------------------------------------------------------

# connective node -> (symbol, binding strength), as the parser reads them;
# `~` binds more tightly than every connective
_CONNECTIVES = {node: (symbol, strength) for symbol, (node, strength) in _BINARY.items()}
_NOT_STRENGTH = 4


def render(f: Formula) -> str:
    """Print `f` with minimal parentheses; parse(render(f)) == f."""
    return _render(f, 0)


def atom_text(a: Atom) -> str:
    """`a` as the parser reads it, from the copula's plain `_value_` (`value` is an Enum property)."""
    return f"{a.subject} {a.copula._value_} {a.predicate}"


def _render(f: Formula, minimum: int) -> str:
    """`f`, parenthesized when it binds less tightly than `minimum`."""
    if isinstance(f, Atom):
        return atom_text(f)
    if isinstance(f, Not):
        text, strength = "~" + _render(f.operand, _NOT_STRENGTH), _NOT_STRENGTH
    else:
        symbol, strength = _CONNECTIVES[type(f)]
        # only `->` groups to the right
        left, right = (strength + 1, strength) if type(f) is Implies else (strength, strength + 1)
        text = f"{_render(f.left, left)} {symbol} {_render(f.right, right)}"
    return f"({text})" if strength < minimum else text
