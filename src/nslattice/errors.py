"""Exception types shared by all modules."""


class NSLatticeError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidParameterError(NSLatticeError):
    """A numeric parameter (n, r, self-intersection, degree bound) is out of range."""


class DimensionError(NSLatticeError):
    """A coefficient vector does not match the rank of its lattice."""


class FamilyError(NSLatticeError):
    """An operation was applied to a lattice of the wrong family."""


class NotEffectiveError(NSLatticeError):
    """The class is not effective, so its complete linear system is empty."""


class PreconditionError(NSLatticeError):
    """A documented caller-side assertion does not hold."""


class InputError(InvalidParameterError, TypeError):
    """An input value is missing or has the wrong type (so a TypeError too); never coerced."""
