"""Exception types shared across the package.

Everything derives from ValueError so callers that only care about
"bad input" can catch one thing; the subclasses exist where callers
(and tests) need to tell failure categories apart.
"""


class InvalidDimensionError(ValueError):
    """Hypervector dimension is zero or below the supported minimum."""


class DegenerateInputError(ValueError):
    """Input too short / empty / constant where the operation needs content."""


class MissingClassError(ValueError):
    """A training set has no samples for one of the two classes."""


class InsufficientDataError(ValueError):
    """Not enough records or subjects for the requested CV protocol."""


class DegenerateCohortError(ValueError):
    """Merging a cohort produced a non-positive total weight for a class.

    `total_weight` is that class's total when a merge raised the error.
    """

    def __init__(self, message: str, total_weight: float | None = None):
        self.total_weight = total_weight
        super().__init__(message)


class IncompatibleModelsError(ValueError):
    """Models or codebooks do not share an encoder configuration."""


class CorruptModelError(ValueError):
    """A model file has a bad magic, bad version, or is truncated."""


class ParseError(ValueError):
    """A data file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
