"""Exception hierarchy.

Every failure mode of the public API raises a subclass of TorsionLabError,
so callers (and the CLI) can distinguish contract violations from bugs.
Each class's exit_code is the CLI's exit status for it: 2 for SchemaError,
3 for NotAcyclic, 4 for PoleHit and 1 for every other error.
"""


class TorsionLabError(Exception):
    """Base class for all torsionlab errors."""

    exit_code = 1


class SchemaError(TorsionLabError):
    """Malformed input data: unknown fields, wrong types, bad indices."""

    exit_code = 2


class BadRepresentation(TorsionLabError):
    """A generator image is not orthogonal to within tolerance."""


class NonChainComplex(TorsionLabError):
    """Composed twisted boundaries are not zero to within tolerance."""


class ShapeMismatch(TorsionLabError):
    """Dimensions of matrices, metrics or weight vectors do not chain."""


class NotAnEigenvalue(TorsionLabError):
    """hodge_split was asked for an eigenvalue the operator does not have."""


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


class BadParameter(TorsionLabError):
    """A geometric or model parameter is out of its admissible range."""


class UnsupportedPartition(TorsionLabError):
    """gluing_check was asked for a partition it does not support."""
