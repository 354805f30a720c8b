"""Exception types shared across the library."""


class EkrLabError(Exception):
    """Base class for all library errors."""


class DomainError(EkrLabError, ValueError):
    """An argument violates an operation's precondition."""


class FormatError(EkrLabError, ValueError):
    """A family file or report payload is malformed."""


class ResourceLimitError(EkrLabError, RuntimeError):
    """An instance exceeds a configured size limit."""


class ContradictionError(EkrLabError, RuntimeError):
    """A search or an exact self-check found what theory rules out.

    A complete search exhausted where theory guarantees a witness, or a
    computed result failed an identity it must satisfy.  Raising this means
    either the input violated an unchecked hypothesis or the implementation
    is wrong; tests treat it as a failure.
    """
