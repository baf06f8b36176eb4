"""Exception types shared across the package.

Two broad classes matter for the CLI exit-code contract: bad user input
(`InvalidParameterError`, `InvalidStateError`, `DimensionMismatchError`,
`StackParseError` -> exit 2) and internal tolerance failures
(`TruncationError`, `InconsistentSolutionError`, `NumericalDomainError`
-> exit 3).
"""


class QellipError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QellipError, ValueError):
    """A scalar argument is outside its admissible domain (non-finite q,
    negative kappa, non-integer mean photon-difference shift, ...)."""


class InvalidStateError(QellipError, ValueError):
    """A state object violates its invariants (e.g. not normalized)."""


class DimensionMismatchError(QellipError, ValueError):
    """A state's box or a requested layer does not fit the Fock cutoff."""


class TruncationError(QellipError):
    """A truncation window (Fourier order, Fock cutoff, layer size) is too
    small to hold the requested state within the tail tolerance."""


class InconsistentSolutionError(QellipError):
    """A computed solution fails an internal consistency check, signalling
    truncation or convergence failure rather than bad user input."""


class NumericalDomainError(QellipError):
    """Evaluation hit a numerically singular regime (e.g. grazing
    incidence)."""


class StackParseError(QellipError, ValueError):
    """A layer-stack description file could not be parsed."""
