"""Validity verdicts produced by the bounded model checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .formula import Formula, atoms, render


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


def first_counterexample(
    models: Iterable[Any], f: Formula, evaluate: Callable[[Any, Formula], bool], bound: int
) -> Verdict:
    """Valid up to `bound`, or the first of `models` that falsifies `f`
    together with the truth value of each of its atoms there."""
    for model in models:
        if not evaluate(model, f):
            return Counterexample(model, tuple((render(a), evaluate(model, a)) for a in atoms(f)))
    return Valid(bound)
