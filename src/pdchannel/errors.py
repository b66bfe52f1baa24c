"""Exception types shared across the package."""


class PdChannelError(Exception):
    """Base class for all package errors."""


class DimMismatch(PdChannelError):
    """Operand dimensions are inconsistent with each other or with metadata."""


class SizeLimit(PdChannelError):
    """A constructed matrix would exceed the configured maximum side length."""


class NotHermitian(PdChannelError):
    """Input expected to be Hermitian exceeds the Hermiticity tolerance."""


class NotTracePreserving(PdChannelError):
    """Channel violates trace preservation beyond tolerance."""


class NotDensityMatrix(PdChannelError):
    """Matrix fails the density-matrix invariants (Hermitian, PSD, unit trace)."""


class DomainError(PdChannelError):
    """A constructor parameter is outside its allowed range."""
