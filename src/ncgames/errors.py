"""Exception types shared across the package.

Every rejected input raises a subclass of :class:`NcgError` carrying a
stable ``code`` naming the failed check, the structural rule the check
enforces (``axiom``, bracketed as in ``[G2]``, when one applies), and
the offending values (``details``).  Tests and the command line key on
``code`` rather than on message text.
"""

from __future__ import annotations

__all__ = [
    "NcgError",
    "TreeError",
    "PreformError",
    "FormError",
    "GameError",
    "MorphismError",
    "TransformError",
    "DocumentError",
    "DocumentSyntaxError",
    "AxiomViolation",
    "StrategySpaceTooLarge",
    "SearchBudgetExceeded",
]


class NcgError(Exception):
    """Base class for all validation and precondition failures."""

    def __init__(self, code: str, message: str, *, axiom: str | None = None, **details):
        self.code = code
        self.axiom = axiom
        self.details = details
        tag = code if axiom is None else f"{code} {axiom}"
        super().__init__(f"{tag}: {message}")


class TreeError(NcgError):
    """Node set plus predecessor pairs is not a tree, or a tree operation was misused."""


class PreformError(NcgError):
    """Operator triples do not form a preform, or a preform operation was misused."""


class FormError(NcgError):
    """Player ownership data does not form a form, or a form operation was misused."""


class GameError(NcgError):
    """Utility data does not form a game, or a game operation was misused."""


class MorphismError(NcgError):
    """Candidate component maps do not form a structure-preserving morphism."""


class TransformError(NcgError):
    """A style conversion was applied outside its domain."""


class StrategySpaceTooLarge(NcgError):
    """Exhaustive strategy enumeration refused because the space exceeds the cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            "StrategySpaceTooLarge",
            f"{count} strategies exceed the cap of {cap}; raise the cap to proceed",
            count=count,
            cap=cap,
        )


class SearchBudgetExceeded(NcgError):
    """Isomorphism search gave up after the configured number of node expansions."""

    def __init__(self, budget: int):
        super().__init__(
            "SearchBudgetExceeded",
            f"isomorphism search exceeded {budget} node expansions",
            budget=budget,
        )


class DocumentError(NcgError):
    """A game or morphism document could not be read or written."""


class DocumentSyntaxError(DocumentError):
    """The document text is malformed before any structural rule applies."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        detail = message if line is None else f"{message} (line {line}, column {column})"
        super().__init__("SyntaxError", detail, line=line, column=column)
        self.line = line
        self.column = column


class AxiomViolation(DocumentError):
    """The document parsed but its content violates a structural rule."""

    def __init__(self, inner: NcgError):
        self.inner = inner
        super().__init__("AxiomViolation", str(inner), axiom=inner.axiom)
