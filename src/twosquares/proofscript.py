"""Proof scripts: a derivation as text, which `prove` reads.

Proof script line format (one line per derivation step)::

    n. <formula> ; axiom5 S:=X P:=Y
    n. <formula> ; axiom7 M:=A P:=B S:=C
    n. <formula> ; def-o X Y
    n. <formula> ; def-e X Y
    n. <formula> ; taut
    n. <formula> ; mp i j        # line i: phi, line j: phi -> psi

The definitional schemas (`proofs.DEFINITIONS`) bind their terms by
position, the axioms by name, each metavariable once; `taut` takes no
arguments.  Lines must be numbered in strictly increasing order; `mp` may
cite earlier lines only; the derived formula is the last line.  Blank
lines and lines starting with `#` are ignored, and `prove` reads past a
leading UTF-8 byte-order mark.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .formula import parse, render
from .proofs import (
    DEFINITIONS, SCHEMAS, AxiomInstance, Derivation, DerivationLine, Justification, ModusPonens,
    Tautology, bundled_theorem_derivations,
)


def format_script(d: Derivation) -> str:
    out = []
    for line in d.lines:
        j = line.justification
        if isinstance(j, AxiomInstance):
            args = (v if j.schema_id in DEFINITIONS else f"{m}:={v}" for m, v in j.binding)
            just = " ".join((j.schema_id, *args))
        elif isinstance(j, Tautology):
            just = "taut"
        else:
            just = f"mp {j.antecedent} {j.implication}"
        out.append(f"{line.index}. {render(line.formula)} ; {just}")
    return "\n".join(out) + "\n"


def parse_script(text: str) -> Derivation:
    """Parse a proof script (see the module docstring for the format)."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lead = len(raw) - len(raw.lstrip())  # the offset of `stripped` in the line
        head, sep, just_text = stripped.partition(";")
        if not sep:
            raise ParseError(f"line {lineno}: missing ';' justification separator", lead + len(stripped))
        num_text, dot, formula_text = head.partition(".")
        index = _number(num_text.strip())
        if not dot or index is None:
            raise ParseError(f"line {lineno}: expected 'n. <formula> ; <rule>'", lead)
        try:
            formula = parse(formula_text.strip())
        except ParseError as exc:  # its offset counts from the formula: count it from the line
            at = lead + len(head) - len(formula_text.lstrip())
            raise ParseError(f"line {lineno}: {exc.message}", at + exc.position, exc.expected) from None
        lines.append(DerivationLine(index, formula, _parse_justification(just_text, lineno, lead + len(head) + 1)))
    return Derivation(tuple(lines))


def _number(word: str) -> int | None:
    """`word` as a line number if it is decimal digits that `int` reads, else None."""
    try:
        return int(word) if word.isdecimal() else None
    except ValueError:  # past the interpreter's limit on digits
        return None


def _parse_justification(text: str, lineno: int, at: int) -> Justification:
    """The justification `text`, which starts at offset `at` of line `lineno`.
    An error's offset is that of the argument it quotes, else of the rule."""
    words = [(at + m.start(), m[0]) for m in re.finditer(r"\S+", text)]
    if not words:
        raise ParseError(f"line {lineno}: empty justification", at)
    (rule_at, rule), args = words[0], [w for _, w in words[1:]]
    if rule == "taut":
        if args:
            raise ParseError(f"line {lineno}: taut takes no arguments", words[1][0])
        return Tautology()
    if rule == "mp":
        numbers = [_number(w) for w in args]
        if len(numbers) != 2 or None in numbers:
            raise ParseError(f"line {lineno}: mp needs two line numbers", rule_at)
        return ModusPonens(*numbers)
    if rule in DEFINITIONS:
        if len(args) != 2:
            raise ParseError(f"line {lineno}: {rule} needs two term arguments", rule_at)
        return AxiomInstance(rule, tuple(zip(DEFINITIONS[rule].metavars, args)))
    if rule in SCHEMAS:
        binding = {}
        for arg_at, arg in words[1:]:
            name, sep, value = arg.partition(":=")
            if not sep:
                raise ParseError(f"line {lineno}: expected NAME:=TERM, got {arg!r}", arg_at)
            if name in binding:
                raise ParseError(f"line {lineno}: {rule} binds {name} twice", arg_at)
            binding[name] = value
        order = SCHEMAS[rule].metavars
        if set(binding) != set(order):
            raise ParseError(f"line {lineno}: {rule} needs bindings for {', '.join(order)}", rule_at)
        return AxiomInstance(rule, tuple((m, binding[m]) for m in order))
    raise ParseError(f"line {lineno}: unknown rule {rule!r}", rule_at)


def bundled_theorem_scripts() -> dict[str, str]:
    return {tid: format_script(d) for tid, d in bundled_theorem_derivations().items()}
