"""High-precision evaluation and numerical verification of basic
hypergeometric transformation identities over root systems of type A."""

from .errors import (
    DegenerateVariables,
    DivisionByZero,
    DomainExhausted,
    DomainViolation,
    InvalidConfig,
    LengthMismatch,
    NonConvergentBase,
    PoleEncountered,
    PropertyHViolation,
    QHeineError,
    TruncationNotConverged,
    UnknownIdentity,
)
from .multisum import (
    Diagnostics,
    EvalContext,
    SeriesSide,
    TruncationPolicy,
    enumerate_shell,
    evaluate_in_context,
    make_context,
    vandermonde_ratio,
)
from .qcore import (
    DEFAULT_PRECISION,
    BaseSystem,
    PochCache,
    default_tol,
    e2,
    qpoch_infinite,
)

__version__ = "0.1.0"
