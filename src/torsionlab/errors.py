"""Exception hierarchy, and the rules every constructor applies to an argument.

Every failure mode of the public API raises a subclass of TorsionLabError,
so callers (and the CLI) can distinguish contract violations from bugs.
Each class's exit_code is the CLI's exit status for it: 2 for SchemaError
and its subclasses (a value outside its documented domain), 3 for
NotAcyclic, 4 for PoleHit and 1 for every other error, NumericalLimit (a
value inside its domain that the numerics cannot hold) among them.

Each rule has its one definition here:

* _as_int, an integer (complexes, models, boundary, and the seed of
  verify.run_suites);
* _as_real, a real number (_angle, _tolerance, zetas._length, the radius
  and split of boundary.gluing_check, and weights._weights);
* _angle, a character angle in [0, 2 pi) (the presets and circle models in
  complexes, models and zetas);
* _tolerance, a finite tol >= 0 (models, boundary and verify);
* _points, a non-empty sample of points s (models.identity_suite and
  boundary.proposition_check);
* _family, a table of keyword-only builders that refuses an unknown name
  or a keyword the chosen builder does not read (models.build_model and
  complexes.preset);
* _real_array, an array of integers or floats (the metrics and generators of
  hodge, the boundaries and generator images of complexes).
"""

import math
import numbers

import numpy as np


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


def _as_real(value, name: str, error: type[Exception] = SchemaError) -> float:
    """value as a float; `error` refuses a bool or a value that is not a real
    number (a str, None or a complex; numpy floats are real numbers)."""
    if type(value) is float:
        return value
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_array(value, name: str, error: type[Exception]) -> np.ndarray:
    """value as a new float array; `error` refuses ragged rows and any entry that is
    not an integer or a float (a complex, a bool, a str, None), never casting it."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise error(f"{name} is not a rectangular array") from None
    if array.dtype.kind not in "iuf":
        raise error(f"{name} has entries of type {array.dtype}, not integers or floats")
    return array.astype(float)


def _angle(value, name: str) -> float:
    """value as a float in [0, 2 pi); BadParameter refuses any other, NaN included."""
    theta = _as_real(value, name, BadParameter)
    if not 0.0 <= theta < 2.0 * math.pi:
        raise BadParameter(f"{name} must lie in [0, 2*pi), got {value}")
    return theta


def _tolerance(tol) -> None:
    """Refuse, with SchemaError, a tol that is not a finite number >= 0."""
    value = _as_real(tol, "tolerance")
    if not (math.isfinite(value) and value >= 0.0):
        raise SchemaError(f"tolerance must be a finite number >= 0, got {tol!r}")


def _points(s_values) -> tuple:
    """The sample points s_values, any iterable, as a tuple; BadParameter
    refuses one that is not iterable or is empty."""
    try:
        points = tuple(s_values)
    except TypeError:
        raise BadParameter(f"s_values must be an iterable of points, got {s_values!r}") from None
    if not points:
        raise BadParameter("s_values is empty: the identities would be checked nowhere")
    return points


def _family(kind: str, builders: dict):
    """build(name, params) = builders[name](**params), where BadParameter refuses
    an unknown name and names every keyword the builder does not read.  The
    keywords are read here, when the table is made, before anything (a tracer)
    can wrap a builder and hide them; the builder is looked up on each call."""
    keywords = {name: frozenset(f.__kwdefaults__ or ()) for name, f in builders.items()}

    def build(name: str, params: dict):
        if name not in builders:
            raise BadParameter(f"unknown {kind} {name!r}")
        unread = params.keys() - keywords[name]
        if unread:
            raise BadParameter(f"{kind} {name} does not read {', '.join(sorted(unread))}")
        return builders[name](**params)

    return build
