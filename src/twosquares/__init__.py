"""Verification workbench for the analytic and synthetic squares of opposition."""

__version__ = "0.1.0"

from .analytic import (
    IMPORT_OFF,
    IMPORT_ON,
    AnalyticModel,
    ImportPolicy,
    decide_analytic_validity,
    enumerate_analytic_models,
    eval_analytic,
)
from .errors import (
    BoundError,
    InstantiationError,
    ParseError,
    SemanticsError,
    TwoSquaresError,
)
from .formula import (
    And,
    Atom,
    Copula,
    Formula,
    Implies,
    Not,
    Or,
    Schema,
    instantiate,
    parse,
    render,
    schema_of,
)
from .opposition import (
    AnalyticSemantics,
    OppositionRelation,
    RelationKind,
    SquareReport,
    SquareSpec,
    SyntheticSemantics,
    analytic_square,
    classify_pair,
    run_catalog,
    synthetic_square,
    verify_square,
)
from .synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    Reading,
    SyntheticModel,
    SyntheticOptions,
    decide_synthetic_validity,
    enumerate_synthetic_models,
    eval_synthetic,
)
from .verdicts import Counterexample, Valid, Verdict

__all__ = sorted({name for name in dir() if not name.startswith("_")} | {"CopulaStructure", "derived_copula"})


def __getattr__(name: str) -> object:
    """`CopulaStructure` and `derived_copula`, from `copula`, loaded at first use."""
    if name in ("CopulaStructure", "derived_copula"):
        from . import copula

        return getattr(copula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
