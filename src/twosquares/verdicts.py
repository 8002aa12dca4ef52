"""Validity verdicts produced by the bounded model checkers."""

from __future__ import annotations

from .record import Record


class Valid(Record):
    """True in every model enumerated up to `bound`; no unbounded claim."""

    bound: int

    def describe(self) -> str:
        return f"valid up to bound {self.bound}"


class Counterexample(Record):
    """First falsifying model in enumeration order, with per-atom truth values."""

    model: object
    atom_trace: tuple[tuple[str, bool], ...]

    def describe(self) -> str:
        return f"counterexample ({self.model.summary()})"


Verdict = Valid | Counterexample

