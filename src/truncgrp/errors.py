"""Exception types shared across the package."""


class TruncgrpError(Exception):
    """Base class for all package errors."""


class ParseError(TruncgrpError):
    """Malformed ring-element or matrix literal."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonUnitError(TruncgrpError):
    """Inversion of a non-unit was attempted."""


class MembershipError(TruncgrpError):
    """A matrix is not an element of the requested group."""


class CapExceededError(TruncgrpError):
    """An enumeration would exceed one of the package's size caps."""


class ClosureMismatchError(TruncgrpError):
    """Generated closure size disagrees with the closed-form group order."""
