"""Exception types shared across the package."""


class HeckeHiggsError(Exception):
    """Base class for all package errors."""


class ParseError(HeckeHiggsError):
    """Malformed polynomial or rational text."""


class ValidationError(HeckeHiggsError):
    """Structurally invalid input data (duplicate points, bad degrees, ...)."""


class CommutationError(HeckeHiggsError):
    """The two components of a Higgs pair do not commute."""


class FiberConditionError(HeckeHiggsError):
    """The marked-point fiber equation fails; carries the failing points."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = tuple(points)


class RetryExhaustedError(HeckeHiggsError):
    """Randomized presentation search failed to hit the requested target."""


class NonIntegralError(HeckeHiggsError):
    """The spectral curve is not integral; carries the certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotInCommutantError(HeckeHiggsError):
    """Second component is not a function-field polynomial in the first."""


class EigenvalueConditionError(HeckeHiggsError):
    """A fiber point violates the marked-point eigenvalue equation."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class DegreeBoundError(HeckeHiggsError):
    """A constructed matrix entry exceeds its twisted-homomorphism bound."""
