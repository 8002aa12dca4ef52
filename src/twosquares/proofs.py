"""Hilbert-style derivation checker for the synthetic syllogistic.

Rule sources: instances of the four axiom schemas, the two definitional
schemas (the o-form as the negation of the a-form, the e-form as the
negation of the i-form, each encoded as a conjunction of the two
implications since the surface language has no biconditional),
propositional tautologies admitted wholesale by truth-table check, and
modus ponens.  Proof scripts are read and written by `proofscript`.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import BoundError, InputError, InstantiationError
from .formula import Formula, Implies, Schema, atoms, instantiate, parse, truth_vector
from .opposition import catalog_entries
from .record import Record

MAX_TAUTOLOGY_ATOMS = 12

# The axiom schemas are the catalog's A5-A8; a derivation citing one whose
# catalog entry records a countermodel is flagged, not rejected.
_AXIOMS = {f"axiom{e.id[1:]}": e for e in catalog_entries() if e.source == "axiom"}


def _axiom_schema(f: Formula) -> Schema:
    """`f` with its terms as metavariables, in first-occurrence order."""
    return Schema(f, tuple(dict.fromkeys(t for a in atoms(f) for t in (a.subject, a.predicate))))


# the definitional schemas, which a proof script binds by position
DEFINITIONS: Mapping[str, Schema] = {
    "def-o": Schema(parse("(X so Y -> ~(X sa Y)) & (~(X sa Y) -> X so Y)"), ("X", "Y")),
    "def-e": Schema(parse("(X se Y -> ~(X si Y)) & (~(X si Y) -> X se Y)"), ("X", "Y")),
}
SCHEMAS: Mapping[str, Schema] = {
    **{sid: _axiom_schema(e.schema.formula) for sid, e in _AXIOMS.items()},
    **DEFINITIONS,
}

# each schema -> the `--axioms` name that admits it
_SOURCE_OF = {
    **{sid: e.id.lower() for sid, e in _AXIOMS.items()},
    **dict.fromkeys(DEFINITIONS, "def"),
}
SOURCES = frozenset(_SOURCE_OF.values())


def is_tautology(f: Formula) -> bool:
    """Truth-table check treating distinct atoms as opaque letters.

    The whole table is one `truth_vector` over big-int columns: bit r of
    letter k's column is its value in row r, bit k of r.
    """
    letters = atoms(f)
    if len(letters) > MAX_TAUTOLOGY_ATOMS:
        raise BoundError(f"{len(letters)} distinct atoms exceed the budget of {MAX_TAUTOLOGY_ATOMS}")
    full = (1 << (1 << len(letters))) - 1
    column = {}
    for k, letter in enumerate(letters):
        half = 1 << k
        # `half` zero rows then `half` one rows, repeated down the table
        column[letter] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    table = truth_vector(f, column.__getitem__)
    return table & full == full


class AxiomSet(Record):
    """The rule sources a derivation may cite, by their `SOURCES` names."""

    sources: frozenset[str] = SOURCES

    def __post_init__(self) -> None:
        unknown = self.sources - SOURCES
        if unknown:
            raise InputError(f"unknown axiom source(s): {', '.join(sorted(unknown))}")
        if not self.sources:
            raise InputError("at least one rule source must be enabled")

    def allows(self, schema_id: str) -> bool:
        return _SOURCE_OF.get(schema_id) in self.sources


AXIOM5_WITH_DEFINITIONS = AxiomSet(frozenset({"a5", "def"}))


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
        where = "" if self.line is None else f" at line {self.line}"
        return f"rejected{where}: {self.reason}"


def _fault(line: DerivationLine, earlier: Mapping[int, Formula], ax: AxiomSet) -> str | None:
    """Why `line` does not follow from the `earlier` lines under `ax`, or
    None when it does."""
    j = line.justification
    if isinstance(j, AxiomInstance):
        if j.schema_id not in SCHEMAS:
            return f"unknown schema {j.schema_id!r}"
        if not ax.allows(j.schema_id):
            return f"schema {j.schema_id!r} disabled in this axiom set"
        try:
            binding = dict(j.binding)
        except (TypeError, ValueError) as exc:
            return f"bad binding: {exc}"
        try:
            expected = instantiate(SCHEMAS[j.schema_id], binding)
        except InstantiationError as exc:
            return f"bad binding: {exc}"
        if expected != line.formula:
            return f"formula is not the stated {j.schema_id} instance"
    elif isinstance(j, Tautology):
        try:
            if not is_tautology(line.formula):
                return "formula is not a tautology"
        except BoundError as exc:
            return str(exc)
    elif j.antecedent not in earlier or j.implication not in earlier:
        return "modus ponens cites a missing or later line"
    elif earlier[j.implication] != Implies(earlier[j.antecedent], line.formula):
        return "cited lines do not fit modus ponens for this formula"
    return None


def check_derivation(d: Derivation, ax: AxiomSet) -> ProofCheckResult:
    """Accept iff every line is a correct axiom instance, a tautology, or
    follows by modus ponens from cited earlier lines."""
    if not d.lines:
        return ProofCheckResult(False, None, "empty derivation")
    earlier: dict[int, Formula] = {}
    last_index = 0
    for line in d.lines:
        if line.index <= last_index:
            reason = "line indices must strictly increase"
        else:
            reason = _fault(line, earlier, ax)
        if reason is not None:
            return ProofCheckResult(False, line.index, reason)
        earlier[line.index] = line.formula
        last_index = line.index
    refuted = (
        j.schema_id for j in (line.justification for line in d.lines)
        if isinstance(j, AxiomInstance) and j.schema_id in _AXIOMS
        and _AXIOMS[j.schema_id].countermodel_size is not None
    )
    return ProofCheckResult(True, refuted_axioms_used=tuple(dict.fromkeys(refuted)))


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


# --- bundled derivations of the theorem catalog ------------------------------

# The builder adds one glue tautology and a modus ponens chain to the
# premises.  Only axiom5 and the two definitional schemas are ever used,
# so the whole bundle checks under AXIOM5_WITH_DEFINITIONS.
_A5 = ("axiom5", (("S", "S"), ("P", "P")))
_DEF_O = ("def-o", (("X", "S"), ("Y", "P")))
_DEF_E = ("def-e", (("X", "S"), ("Y", "P")))


def _premises(target: Formula) -> tuple:
    """The premises a bundled derivation of `target` cites, in order:
    axiom5 when the theorem mentions an a- or o-form and an e- or
    i-form, def-e when it mentions the i-form, def-o when it mentions the
    o-form."""
    copulas = {a.copula.value for a in atoms(target)}
    premises = []
    if copulas & {"sa", "so"} and copulas & {"se", "si"}:
        premises.append(_A5)
    if "si" in copulas:
        premises.append(_DEF_E)
    if "so" in copulas:
        premises.append(_DEF_O)
    return tuple(premises)


def _build_derivation(target: Formula, premises: tuple) -> Derivation:
    lines = []
    for k, (schema_id, binding) in enumerate(premises, start=1):
        formula = instantiate(SCHEMAS[schema_id], dict(binding))
        lines.append(DerivationLine(k, formula, AxiomInstance(schema_id, binding)))
    if len(lines) == 1 and lines[0].formula == target:
        return Derivation(tuple(lines))
    glue = target
    for line in reversed(lines):
        glue = Implies(line.formula, glue)
    n = len(premises)
    lines.append(DerivationLine(n + 1, glue, Tautology()))
    # line n + 1 + k detaches premise k from the implication on the line above
    for k in range(1, n + 1):
        lines.append(DerivationLine(n + 1 + k, lines[-1].formula.right, ModusPonens(k, n + k)))
    return Derivation(tuple(lines))


def bundled_theorem_derivations() -> dict[str, Derivation]:
    """Checked derivations for T01-T20 from axiom5 plus the definitional
    schemas; keyed by catalog id."""
    out = {}
    for entry in catalog_entries():
        if entry.source != "theorem-list":
            continue
        out[entry.id] = _build_derivation(entry.schema.formula, _premises(entry.schema.formula))
    return out

