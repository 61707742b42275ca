"""Exception types shared across the package."""


class HssError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(HssError):
    """Operands belong to different field specs."""


class DimensionMismatch(HssError):
    """Matrix/vector shapes are incompatible."""


class EnumerationBudgetExceeded(HssError):
    """An exhaustive enumeration would exceed the configured budget."""


class BadGoppaPolynomial(HssError):
    """Supplied polynomial is unusable: wrong degree, reducible, or vanishes on the support."""


class ParameterOutOfRange(HssError):
    """Construction parameters violate their preconditions."""


class NotACube(ParameterOutOfRange):
    """Server count must be a cube of a prime power in exact mode."""


class ConditionViolated(ParameterOutOfRange):
    """Extension degree too small for the dimension guarantee to apply."""


class DegenerateDimension(ParameterOutOfRange):
    """Requested random-code dimension would be below 1."""


class InsufficientLabelweight(HssError):
    """Code labelweight is too small to support the requested scheme."""


class MissingShare(HssError):
    """A server's output vector is missing or of the wrong length at reconstruction."""


class FieldTooLarge(HssError):
    """The field order exceeds 256, the limit of byte packing and lookup tables."""


class DecodeError(HssError):
    """Malformed wire frame or serialized document."""
