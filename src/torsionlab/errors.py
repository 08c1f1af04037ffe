"""Exception hierarchy.

Every failure mode of the public API raises a subclass of TorsionLabError,
so callers (and the CLI) can distinguish contract violations from bugs.
"""


class TorsionLabError(Exception):
    """Base class for all torsionlab errors."""


class SchemaError(TorsionLabError):
    """Malformed input data: unknown fields, wrong types, bad indices."""


class BadRepresentation(TorsionLabError):
    """A generator image is not orthogonal to within tolerance."""


class NonChainComplex(TorsionLabError):
    """Composed twisted boundaries are not zero to within tolerance."""


class NotAcyclicPreset(TorsionLabError):
    """A preset that must be acyclic was given a trivial twisting angle."""


class ShapeMismatch(TorsionLabError):
    """Dimensions of matrices, metrics or weight vectors do not chain."""


class NotAnEigenvalue(TorsionLabError):
    """hodge_split was asked for an eigenvalue the operator does not have."""


class NotAcyclic(TorsionLabError):
    """An operation requiring vanishing homology met a nonzero Betti number."""


class PivotFailure(TorsionLabError):
    """Gaussian elimination could not find an acceptable pivot."""


class StepTooLarge(TorsionLabError):
    """Finite-difference check did not exhibit quadratic convergence."""


class PoleAtOne(TorsionLabError):
    """Riemann/Hurwitz zeta evaluated at its pole s = 1."""


class PoleHit(TorsionLabError):
    """Spectral zeta evaluated at a pole of its meromorphic continuation."""


class QuadratureFailure(TorsionLabError):
    """Adaptive quadrature returned a non-finite or untrusted result."""


class BadParameter(TorsionLabError):
    """A geometric or model parameter is out of its admissible range."""


class UnsupportedPartition(TorsionLabError):
    """gluing_check was asked for a partition it does not support."""
