"""Exception hierarchy shared across the package, and the invariant policy: a
re-verification that fails is a bug, raised by ``invariant`` as ``InvariantError``."""


class LndkitError(Exception):
    """Base class for all errors raised by lndkit."""


class ContextMismatchError(LndkitError):
    """Operands belong to different variable contexts."""


class UnknownVariableError(LndkitError):
    """A variable name does not exist in the relevant context."""


class DomainError(LndkitError):
    """A mathematical precondition is violated (zero derivation, non-slice, ...)."""


class UnsupportedSizeError(LndkitError):
    """Input exceeds a hard size cap of a brute-force search."""


class PolyParseError(LndkitError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class JobParseError(LndkitError):
    """Syntax or reference error in a job document, with source position."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class FailsUpToCapError(LndkitError):
    """A capped construction search was exhausted; carries the attempt trace."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


class InvariantError(AssertionError):
    """A failed internal invariant, such as a witness that did not re-verify:
    a bug, never bad input."""


def invariant(ok: object, message: str) -> None:
    """Raise ``InvariantError(message)`` unless ``ok``; unlike ``assert``, ``python -O`` keeps it."""
    if not ok:
        raise InvariantError(message)
