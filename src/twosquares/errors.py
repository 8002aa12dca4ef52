"""Exception types shared across the package, and the shape checks on
JSON input that raise them."""

from collections.abc import Mapping


class TwoSquaresError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TwoSquaresError):
    """Syntax error with a byte offset and the set of expected tokens."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class InstantiationError(TwoSquaresError):
    """Schema instantiation failed: missing binding or reserved target."""


class SemanticsError(TwoSquaresError):
    """Formula and semantics do not match (wrong copula family, unknown term,
    model/reading mismatch, or an empty universe where one is disallowed)."""


class BoundError(TwoSquaresError):
    """A search or enumeration bound was exceeded."""


def json_object(data: object, what: str, required: tuple[str, ...] = ()) -> Mapping:
    """`data` if it is a JSON object holding every `required` key."""
    if not isinstance(data, Mapping):
        raise SemanticsError(f"{what} must be a JSON object")
    for key in required:
        if key not in data:
            raise SemanticsError(f"{what} lacks {key!r}")
    return data


def string_list(data: object, what: str, distinct: bool = False) -> tuple[str, ...]:
    """`data` as a tuple if it is a JSON list of strings, without repeats
    when `distinct`."""
    if not isinstance(data, list) or not all(isinstance(item, str) for item in data):
        raise SemanticsError(f"{what} must be a list of strings")
    if distinct and len(set(data)) != len(data):
        raise SemanticsError(f"{what} repeats an entry")
    return tuple(data)
