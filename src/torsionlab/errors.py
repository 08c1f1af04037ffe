"""Exception hierarchy, and _as_int, the integer rule every constructor shares.

Every failure mode of the public API raises a subclass of TorsionLabError,
so callers (and the CLI) can distinguish contract violations from bugs.
Each class's exit_code is the CLI's exit status for it: 2 for SchemaError
and its subclasses (a value outside its documented domain), 3 for
NotAcyclic, 4 for PoleHit and 1 for every other error, NumericalLimit (a
value inside its domain that the numerics cannot hold) among them.
"""

import numbers


class TorsionLabError(Exception):
    """Base class for all torsionlab errors."""

    exit_code = 1


class SchemaError(TorsionLabError):
    """Malformed input data: unknown fields, wrong types, bad indices."""

    exit_code = 2


class BadRepresentation(SchemaError):
    """A generator image is not orthogonal to within tolerance."""


class NonChainComplex(TorsionLabError):
    """Composed twisted boundaries are not zero to within tolerance."""


class ShapeMismatch(TorsionLabError):
    """Dimensions of matrices, metrics or weight vectors do not chain."""


class NotAcyclic(TorsionLabError):
    """An operation requiring vanishing homology met a complex without it:
    a nonzero Betti number, or a minor-oracle pivot at or below its
    threshold or a row it leaves unpivoted."""

    exit_code = 3


class StepTooLarge(TorsionLabError):
    """Finite-difference check did not exhibit quadratic convergence."""


class PoleHit(TorsionLabError):
    """A zeta function evaluated at a pole of its meromorphic continuation."""

    exit_code = 4


class QuadratureFailure(TorsionLabError):
    """Adaptive quadrature returned a non-finite or untrusted result."""


class BadParameter(SchemaError):
    """A geometric or model parameter is out of its admissible range."""


class NumericalLimit(TorsionLabError):
    """A parameter inside its admissible range that floating point or a
    truncated series cannot serve: an eigenvalue that under- or overflows,
    a series that would need too many terms, an s below the reach of an
    asymptotic expansion."""


class UnsupportedPartition(SchemaError):
    """gluing_check was asked for a partition it does not support."""


def _as_int(value, name: str, error: type[Exception] = SchemaError,
            low: int | None = None) -> int:
    """value as an int; `error` refuses a bool or a value that is not an integer
    (numpy integers are integers), and one below `low` (0 or 1) when given."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be {'positive' if low else 'non-negative'}, got {int(value)}")
    return int(value)
