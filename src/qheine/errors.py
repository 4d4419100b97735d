"""Exception and warning types shared across the package."""


class QHeineError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergentBase(QHeineError):
    """An infinite product was requested for a base with modulus >= 1."""


class DivisionByZero(QHeineError):
    """A q-rising factorial ratio hit an exact zero in its denominator."""


class LengthMismatch(QHeineError):
    """Two sequences that must have equal length do not."""


class DegenerateVariables(QHeineError):
    """A variable vector has coinciding components, so a Vandermonde
    denominator vanishes."""


class DomainViolation(QHeineError):
    """A parameter point lies outside the convergence domain of a series."""


class PoleEncountered(QHeineError):
    """A series term hit a zero denominator; the parameter point is a pole."""


class PropertyHViolation(QHeineError):
    """A building block failed the homogeneity check required for
    composition."""


class DomainExhausted(QHeineError):
    """Rejection sampling failed too many times in a row."""


class UnknownIdentity(QHeineError):
    """An identity id was requested that is not in the registry."""


class InvalidConfig(QHeineError):
    """A run configuration is malformed or inconsistent."""


class TruncationNotConverged(UserWarning):
    """The tail ratio never fell below tolerance before the shell cap; the
    returned value carries a warning flag in its diagnostics."""
