"""Hilbert-style derivation checker for the synthetic syllogistic.

Rule sources: instances of the four axiom schemas, the two definitional
schemas (the o-form as the negation of the a-form, the e-form as the
negation of the i-form, each encoded as a conjunction of the two
implications since the surface language has no biconditional),
propositional tautologies admitted wholesale by truth-table check, and
modus ponens.

Proof script line format (one line per derivation step)::

    n. <formula> ; axiom5 S:=X P:=Y
    n. <formula> ; axiom7 M:=A P:=B S:=C
    n. <formula> ; def-o X Y
    n. <formula> ; def-e X Y
    n. <formula> ; taut
    n. <formula> ; mp i j        # line i: phi, line j: phi -> psi

Lines must be numbered in strictly increasing order; `mp` may cite
earlier lines only; the derived formula is the last line.  Blank lines
and lines starting with `#` are ignored.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

from .errors import BoundError, ParseError
from .formula import Formula, Implies, Schema, atoms, holds, instantiate, parse, render
from .opposition import catalog_entries, catalog_formula
from .record import Record

MAX_TAUTOLOGY_ATOMS = 12

SCHEMAS: Mapping[str, Schema] = {
    "axiom5": Schema(parse("S sa P -> S se P"), ("S", "P")),
    "axiom6": Schema(parse("S so P -> P so S"), ("S", "P")),
    "axiom7": Schema(parse("(M sa P & S sa M) -> S sa P"), ("M", "P", "S")),
    "axiom8": Schema(parse("(M sa P & S se M) -> S se P"), ("M", "P", "S")),
    "def-o": Schema(parse("(X so Y -> ~(X sa Y)) & (~(X sa Y) -> X so Y)"), ("X", "Y")),
    "def-e": Schema(parse("(X se Y -> ~(X si Y)) & (~(X si Y) -> X se Y)"), ("X", "Y")),
}

# Axiom schemas whose catalog entry records a countermodel under the
# direct nonempty reading; derivations using them are flagged, not rejected.
_REFUTED_FORMULAS = {
    e.schema.formula for e in catalog_entries() if e.source == "axiom" and not e.expected.valid
}
SEMANTICALLY_REFUTED = tuple(
    sid for sid, schema in SCHEMAS.items() if schema.formula in _REFUTED_FORMULAS
)


def is_tautology(f: Formula) -> bool:
    """Truth-table check treating distinct atoms as opaque letters."""
    letters = atoms(f)
    if len(letters) > MAX_TAUTOLOGY_ATOMS:
        raise BoundError(f"{len(letters)} distinct atoms exceed the budget of {MAX_TAUTOLOGY_ATOMS}")
    for values in itertools.product((False, True), repeat=len(letters)):
        if not holds(f, dict(zip(letters, values)).__getitem__):
            return False
    return True


class AxiomSet(Record):
    use_axiom5: bool = True
    use_axiom6: bool = True
    use_axiom7: bool = True
    use_axiom8: bool = True
    use_definitional_schemas: bool = True

    def __post_init__(self) -> None:
        if not any(
            (self.use_axiom5, self.use_axiom6, self.use_axiom7, self.use_axiom8,
             self.use_definitional_schemas)
        ):
            raise ValueError("at least one rule source must be enabled")

    def allows(self, schema_id: str) -> bool:
        if schema_id in ("def-o", "def-e"):
            return self.use_definitional_schemas
        return {
            "axiom5": self.use_axiom5,
            "axiom6": self.use_axiom6,
            "axiom7": self.use_axiom7,
            "axiom8": self.use_axiom8,
        }.get(schema_id, False)


AXIOM5_WITH_DEFINITIONS = AxiomSet(
    use_axiom6=False, use_axiom7=False, use_axiom8=False
)


class AxiomInstance(Record):
    schema_id: str
    binding: tuple[tuple[str, str], ...]  # in schema metavariable order


class Tautology(Record):
    pass


class ModusPonens(Record):
    antecedent: int  # line holding phi
    implication: int  # line holding phi -> psi


Justification = AxiomInstance | Tautology | ModusPonens


class DerivationLine(Record):
    index: int
    formula: Formula
    justification: Justification


class Derivation(Record):
    lines: tuple[DerivationLine, ...]

    @property
    def conclusion(self) -> Formula | None:
        return self.lines[-1].formula if self.lines else None


class ProofCheckResult(Record):
    ok: bool
    line: int | None = None
    reason: str | None = None
    # nonempty when the derivation leans on axiom schemas the model
    # checker refutes: "sound relative to an unsound axiom"
    refuted_axioms_used: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.ok:
            note = ""
            if self.refuted_axioms_used:
                note = " (sound relative to semantically refuted axioms: %s)" % (
                    ", ".join(self.refuted_axioms_used)
                )
            return "ok" + note
        return f"rejected at line {self.line}: {self.reason}"


def check_derivation(d: Derivation, ax: AxiomSet) -> ProofCheckResult:
    """Accept iff every line is a correct axiom instance, a tautology, or
    follows by modus ponens from cited earlier lines."""
    if not d.lines:
        return ProofCheckResult(False, None, "empty derivation")
    by_index: dict[int, Formula] = {}
    last_index = 0
    refuted_used: list[str] = []
    for line in d.lines:
        if line.index <= last_index:
            return ProofCheckResult(False, line.index, "line indices must strictly increase")
        j = line.justification
        if isinstance(j, AxiomInstance):
            if j.schema_id not in SCHEMAS:
                return ProofCheckResult(False, line.index, f"unknown schema {j.schema_id!r}")
            if not ax.allows(j.schema_id):
                return ProofCheckResult(
                    False, line.index, f"schema {j.schema_id!r} disabled in this axiom set"
                )
            schema = SCHEMAS[j.schema_id]
            binding = dict(j.binding)
            try:
                expected = instantiate(schema, binding)
            except Exception as exc:
                return ProofCheckResult(False, line.index, f"bad binding: {exc}")
            if expected != line.formula:
                return ProofCheckResult(
                    False, line.index,
                    f"formula is not the stated {j.schema_id} instance",
                )
            if j.schema_id in SEMANTICALLY_REFUTED:
                refuted_used.append(j.schema_id)
        elif isinstance(j, Tautology):
            try:
                if not is_tautology(line.formula):
                    return ProofCheckResult(False, line.index, "formula is not a tautology")
            except BoundError as exc:
                return ProofCheckResult(False, line.index, str(exc))
        else:
            if j.antecedent not in by_index or j.implication not in by_index:
                return ProofCheckResult(
                    False, line.index, "modus ponens cites a missing or later line"
                )
            premise = by_index[j.antecedent]
            implication = by_index[j.implication]
            if implication != Implies(premise, line.formula):
                return ProofCheckResult(
                    False, line.index,
                    "cited lines do not fit modus ponens for this formula",
                )
        by_index[line.index] = line.formula
        last_index = line.index
    return ProofCheckResult(True, refuted_axioms_used=tuple(dict.fromkeys(refuted_used)))


def check_proves(d: Derivation, target: Formula, ax: AxiomSet) -> ProofCheckResult:
    """As check_derivation, but additionally demand the conclusion is `target`."""
    result = check_derivation(d, ax)
    if not result.ok:
        return result
    if d.conclusion != target:
        return ProofCheckResult(
            False, d.lines[-1].index, "derivation concludes a different formula"
        )
    return result


# --- proof scripts ---------------------------------------------------------

def format_script(d: Derivation) -> str:
    out = []
    for line in d.lines:
        j = line.justification
        if isinstance(j, AxiomInstance):
            if j.schema_id.startswith("def-"):
                just = f"{j.schema_id} " + " ".join(v for _, v in j.binding)
            else:
                just = f"{j.schema_id} " + " ".join(f"{m}:={v}" for m, v in j.binding)
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
        head, sep, just_text = stripped.partition(";")
        if not sep:
            raise ParseError(f"line {lineno}: missing ';' justification separator", 0)
        num_text, dot, formula_text = head.partition(".")
        if not dot or not num_text.strip().isdigit():
            raise ParseError(f"line {lineno}: expected 'n. <formula> ; <rule>'", 0)
        index = int(num_text.strip())
        formula = parse(formula_text.strip())
        lines.append(DerivationLine(index, formula, _parse_justification(just_text, lineno)))
    return Derivation(tuple(lines))


def _parse_justification(text: str, lineno: int) -> Justification:
    words = text.split()
    if not words:
        raise ParseError(f"line {lineno}: empty justification", 0)
    rule, args = words[0], words[1:]
    if rule == "taut":
        return Tautology()
    if rule == "mp":
        if len(args) != 2 or not all(w.isdigit() for w in args):
            raise ParseError(f"line {lineno}: mp needs two line numbers", 0)
        return ModusPonens(int(args[0]), int(args[1]))
    if rule in ("def-o", "def-e"):
        if len(args) != 2:
            raise ParseError(f"line {lineno}: {rule} needs two term arguments", 0)
        return AxiomInstance(rule, (("X", args[0]), ("Y", args[1])))
    if rule in SCHEMAS:
        binding = {}
        for arg in args:
            name, sep, value = arg.partition(":=")
            if not sep:
                raise ParseError(f"line {lineno}: expected NAME:=TERM, got {arg!r}", 0)
            binding[name] = value
        order = SCHEMAS[rule].metavars
        if set(binding) != set(order):
            raise ParseError(f"line {lineno}: {rule} needs bindings for {', '.join(order)}", 0)
        return AxiomInstance(rule, tuple((m, binding[m]) for m in order))
    raise ParseError(f"line {lineno}: unknown rule {rule!r}", 0)


# --- bundled derivations of the theorem catalog ------------------------------

# Premises needed per theorem; the builder adds one glue tautology and a
# modus ponens chain.  Only axiom5 and the two definitional schemas are
# ever used, so the whole bundle checks under AXIOM5_WITH_DEFINITIONS.
_A5 = ("axiom5", (("S", "S"), ("P", "P")))
_DEF_O = ("def-o", (("X", "S"), ("Y", "P")))
_DEF_E = ("def-e", (("X", "S"), ("Y", "P")))

_BUNDLE_PREMISES: Mapping[str, tuple] = {
    "T01": (_DEF_O,),
    "T02": (_DEF_O,),
    "T03": (_DEF_E,),
    "T04": (_DEF_E,),
    "T05": (_DEF_E,),
    "T06": (_DEF_E,),
    "T07": (_DEF_O,),
    "T08": (_DEF_O,),
    "T09": (_A5, _DEF_E),
    "T10": (_A5, _DEF_E),
    "T11": (_A5, _DEF_O),
    "T12": (_A5, _DEF_O),
    "T13": (_A5,),
    "T14": (_A5, _DEF_E, _DEF_O),
    "T15": (_DEF_E,),
    "T16": (_DEF_E,),
    "T17": (_DEF_O,),
    "T18": (_DEF_O,),
    "T19": (_A5, _DEF_E),
    "T20": (_A5, _DEF_O),
}


def _build_derivation(target: Formula, premises: tuple) -> Derivation:
    lines = []
    premise_formulas = []
    for k, (schema_id, binding) in enumerate(premises, start=1):
        formula = instantiate(SCHEMAS[schema_id], dict(binding))
        premise_formulas.append(formula)
        lines.append(DerivationLine(k, formula, AxiomInstance(schema_id, binding)))
    if len(premise_formulas) == 1 and premise_formulas[0] == target:
        return Derivation(tuple(lines))
    glue = target
    for formula in reversed(premise_formulas):
        glue = Implies(formula, glue)
    n = len(premises)
    lines.append(DerivationLine(n + 1, glue, Tautology()))
    implication_line = n + 1
    current = glue
    for k in range(n):
        current = current.right
        lines.append(
            DerivationLine(n + 2 + k, current, ModusPonens(k + 1, implication_line))
        )
        implication_line = n + 2 + k
    return Derivation(tuple(lines))


def bundled_theorem_derivations() -> dict[str, Derivation]:
    """Checked derivations for T01-T20 from axiom5 plus the definitional
    schemas; keyed by catalog id."""
    out = {}
    for entry in catalog_entries():
        if entry.source != "theorem-list":
            continue
        target = catalog_formula(entry)
        out[entry.id] = _build_derivation(target, _BUNDLE_PREMISES[entry.id])
    return out


def bundled_theorem_scripts() -> dict[str, str]:
    return {tid: format_script(d) for tid, d in bundled_theorem_derivations().items()}
