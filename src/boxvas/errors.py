"""Exception hierarchy shared by all modules; the CLI exit code follows it."""


class BoxVasError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(BoxVasError, ValueError):
    """A system, target or constant is malformed: a wrong arity, a negative
    entry, a duplicate or unknown state name.  An unknown state passed to a
    command (``--from``, ``--to``) is checked by ``Vass1System.check_state``
    instead, so it is a ``PreconditionError``, exit 3."""


class MalformedPathError(InvalidInputError):
    """A path references a generator or transition index that does not exist."""


class InstanceParseError(InvalidInputError):
    """An instance file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(BoxVasError):
    """A documented precondition of an operation was violated."""


class UnsupportedDimensionError(PreconditionError):
    """An operation restricted to dimension 2 was called on another dimension."""


class DegenerateSystemError(PreconditionError):
    """The system violates a nondegeneracy assumption; the message names it."""


class EvidenceError(PreconditionError):
    """Witness synthesis was given evidence too weak for the case at hand."""


class ResourceBudgetError(BoxVasError):
    """A search exceeded its configured node or enumeration budget."""

    def __init__(self, message: str, budget: int | None = None):
        super().__init__(message)
        self.budget = budget


class InternalCheckError(BoxVasError):
    """A constructed object failed its own re-verification; indicates a bug."""
