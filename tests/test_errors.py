"""The scalar and matrix rules of errors.py: each argument that is not a number
(or an array of numbers) of its kind is refused with its documented class,
never a raw Python or numpy error nor a value cast from a degraded input."""

import re

import numpy as np
import pytest

from torsionlab import (
    ChainMetric,
    Representation,
    TwistedComplex,
    build_cylinder,
    build_interval,
    build_model,
    build_preset,
    exponential_metric_path,
    factorize,
    generalized_log_torsion,
    gluing_check,
    identity_suite,
    preset,
    proposition_check,
    residue_torsion,
    variation_check,
)
from torsionlab.complexes import complex_from_json
from torsionlab.errors import BadParameter, BadRepresentation, SchemaError, ShapeMismatch
from torsionlab.verify import run_suites

# (call, class, message prefix); before these rules each escaped as a raw
# TypeError, ValueError, AttributeError or LinAlgError, or (the string weights
# of generalized_log_torsion) returned a number
_REFUSALS = {
    "preset angle": (lambda: preset("circle", theta="1"), BadParameter,
                     "theta must be a real number, got '1'"),
    "preset angle None": (lambda: preset("torus2", beta=None), BadParameter,
                          "beta must be a real number, got None"),
    "model angle": (lambda: build_model("circle", theta="1"), BadParameter,
                    "theta must be a real number, got '1'"),
    "model length": (lambda: build_model("circle", L="2"), BadParameter,
                     "L must be a real number, got '2'"),
    "interval length": (lambda: build_interval("1"), BadParameter,
                        "R must be a real number, got '1'"),
    "gluing split": (lambda: gluing_check("interval", split="0.5"), BadParameter,
                     "split must be a real number, got '0.5'"),
    "gluing R": (lambda: gluing_check("interval", R="2"), BadParameter,
                 "R must be a real number, got '2'"),
    "cylinder length": (lambda: build_cylinder(1.0, "2"), BadParameter,
                        "L must be a real number, got '2'"),
    "gluing cylinder length": (lambda: gluing_check("cylinder", L=None), BadParameter,
                               "L must be a real number, got None"),
    "identity tolerance": (lambda: identity_suite(build_model("circle"), tol="1"), SchemaError,
                           "tolerance must be a real number, got '1'"),
    "proposition tolerance": (
        lambda: proposition_check(build_interval(1.0, "relative"),
                                  build_interval(1.0, "absolute"), tol=None),
        SchemaError, "tolerance must be a real number, got None"),
    "verify seed": (lambda: run_suites("combinatorial", seed=1.5), SchemaError,
                    "seed must be an integer, got 1.5"),
    "sample not iterable": (lambda: identity_suite(build_model("circle"), s_values=0.75),
                            BadParameter, "s_values must be an iterable of points, got 0.75"),
    "weight str": (lambda: residue_torsion(build_model("circle"), ("a", 1.0)), BadParameter,
                   "weight beta_0 must be a real number, got 'a'"),
    "weight None": (lambda: residue_torsion(build_model("circle"), (None, 1.0)), BadParameter,
                    "weight beta_0 must be a real number, got None"),
    "weight parsed": (lambda: generalized_log_torsion([1.0, 2.0], ["1", "2"]), BadParameter,
                      "weight beta_0 must be a real number, got '1'"),
    "generator 2x3": (lambda: exponential_metric_path([np.zeros((2, 3))]), ShapeMismatch,
                      "metric generator in degree 0 is not square: (2, 3)"),
    "generator 1-d": (lambda: exponential_metric_path([np.eye(2), np.zeros(2)]), ShapeMismatch,
                      "metric generator in degree 1 is not square: (2,)"),
    "metric 2x3": (lambda: ChainMetric([np.eye(2), np.zeros((2, 3))]), ShapeMismatch,
                   "metric in degree 1 is not square: (2, 3)"),
    "metric str": (lambda: factorize(build_preset("circle"), "identity"), BadParameter,
                   "metric must be a ChainMetric or None, got str"),
    "path None": (lambda: variation_check(build_preset("circle"), lambda u: None, (0.0, 1.0)),
                  BadParameter, "metric path must state its tangent at u = 0, got a function "
                                 "without one"),
    # the matrix rule: before it a complex entry lost its imaginary part with a
    # ComplexWarning (this metric gave the torsion of diag(2, 1), the generator
    # that of the identity metric), a bool or None was cast, and a str escaped
    "metric complex": (lambda: ChainMetric([[[2 + 5j, 0], [0, 1]], np.eye(2)]), BadParameter,
                       "metric in degree 0 has entries of type complex128"),
    "metric entry str": (lambda: ChainMetric([[["a"]]]), BadParameter,
                         "metric in degree 0 has entries of type <U1"),
    "metric ragged": (lambda: ChainMetric([np.eye(1), [[1.0, 0.0], [0.0]]]), BadParameter,
                      "metric in degree 1 is not a rectangular array"),
    "generator complex": (lambda: exponential_metric_path([[[1j, 0], [0, 0]]]), BadParameter,
                          "metric generator in degree 0 has entries of type complex128"),
    "generator str": (lambda: exponential_metric_path([np.eye(1), [["a"]]]), BadParameter,
                      "metric generator in degree 1 has entries of type <U1"),
    "boundary complex": (lambda: TwistedComplex(1, [1, 1], [[[1j]]]), SchemaError,
                         "bd_1 has entries of type complex128"),
    "boundary None": (lambda: TwistedComplex(1, [1, 1], [[[None]]]), SchemaError,
                      "bd_1 has entries of type object"),
    "image complex": (lambda: Representation(1, [np.eye(1), [[1j]]]), BadRepresentation,
                      "generator 1 has entries of type complex128"),
    "image bool": (lambda: Representation(1, [[[True]]]), BadRepresentation,
                   "generator 0 has entries of type bool"),
    "image from JSON": (lambda: complex_from_json({"dimension": 0, "rank": 1, "generators": 1,
                                                   "rep": [[["a"]]], "cells": [[[]]]}),
                        BadRepresentation, "generator 0 has entries of type <U1"),
}


@pytest.mark.parametrize("call, error, prefix", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_scalar_rules_refuse_with_their_class(call, error, prefix):
    with pytest.raises(error, match=f"^{re.escape(prefix)}") as info:
        call()
    assert info.type is error


def test_a_number_of_another_type_is_read_as_a_float():
    # numpy scalars and ints are real numbers: read, not refused
    assert preset("circle", theta=np.float64(1.0))[1].generator_images[0][0, 0] == np.cos(1.0)
    assert build_model("circle", L=np.int64(2)).name == build_model("circle", L=2.0).name
    assert generalized_log_torsion([1.0, 2.0], [np.float32(1.0), 2]) == 1.5
    # and arrays of integers or of any float width are read as float arrays
    assert ChainMetric([np.eye(2, dtype=np.int64)]).matrix(0).dtype == np.float64
    assert TwistedComplex(1, [1, 1], [np.float32([[2.0]])]).boundary(1).tolist() == [[2.0]]
    assert Representation(1, [[[-1]]]).generator_images[0].tolist() == [[-1.0]]
