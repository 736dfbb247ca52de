"""Exception types shared across the package. Each carries the exit
code the CLI returns for it: 1 parse, 2 validation, 3 resource guard."""


class DomsetError(Exception):
    """Base class for all domset errors."""

    exit_code = 1


class ParseError(DomsetError):
    """Malformed input text. Carries the 1-based line number when known."""

    exit_code = 1

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RangeError(DomsetError):
    """A vertex or element id is outside its declared range."""

    exit_code = 2


class ValidationError(DomsetError):
    """A structural invariant does not hold."""

    exit_code = 2


class ResourceLimitError(DomsetError):
    """A configured size guard refused the computation."""

    exit_code = 3
