"""Validity verdicts produced by the bounded model checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Valid:
    """True in every model enumerated up to `bound`; no unbounded claim."""

    bound: int

    def describe(self) -> str:
        return f"valid up to bound {self.bound}"


@dataclass(frozen=True)
class Counterexample:
    """First falsifying model in enumeration order, with per-atom truth values."""

    model: Any
    atom_trace: tuple[tuple[str, bool], ...]

    def describe(self) -> str:
        return f"counterexample ({self.model.summary()})"


Verdict = Valid | Counterexample

