"""Exception types shared across the package.

Two broad classes matter for the CLI exit-code contract: bad user input
(`InvalidParameterError`, `InvalidStateError`, `DimensionMismatchError`,
`StackParseError` -> exit 2) and internal tolerance failures
(`TruncationError`, `InconsistentSolutionError`, `NumericalDomainError`
-> exit 3).

Every caller-supplied scalar goes through ``finite`` or ``integer``.
"""

import math


class QellipError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QellipError, ValueError):
    """A scalar argument is outside its admissible domain (non-finite q,
    negative kappa, non-integer mean photon-difference shift, ...)."""


class InvalidStateError(QellipError, ValueError):
    """A state object violates its invariants (e.g. not normalized)."""


class DimensionMismatchError(QellipError, ValueError):
    """A two-mode state's factors and pair amplitudes do not fit together."""


class TruncationError(QellipError):
    """A truncation window (Fock cutoff, layer size) is too small to hold
    the requested state within the tail tolerance."""


class InconsistentSolutionError(QellipError):
    """A computed solution fails an internal consistency check, signalling
    truncation or convergence failure rather than bad user input."""


class NumericalDomainError(QellipError):
    """Evaluation hit a numerically singular regime (e.g. grazing
    incidence)."""


class StackParseError(QellipError, ValueError):
    """A layer-stack description file could not be parsed."""


def finite(what: str, value):
    """``value``, refused unless it is a finite real or complex number.  The
    message shows it as passed, so a complex parameter passes complex(x)."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidParameterError(f"{what} must be finite, got {value}")
    return value


def integer(what: str, value) -> int:
    """``value`` as an int, refused unless it is a whole number (1.5 is not 1)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{what} must be an integer, got {value!r}")


class Checked:
    """Mixin, listed first among the bases, of a named tuple whose
    ``__new__`` checks its fields: ``_make``, which ``_replace`` calls
    too, goes through ``cls(...)``, so every construction path checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
