"""Interval and cylinder builders, the boundary sign law, the gluing check.

build_interval and build_cylinder return a models.SpectralModel with its
condition set; the cylinder is models.product of its interval and circle
factors.  proposition_check compares a relative and an absolute model, and
gluing_check splits a geometry and assembles both sides of the gluing
formula from models.residue_torsion.

On a product [0, R] x N the form Laplacian splits by writing
omega = omega_1 + dx ^ omega_2; relative conditions impose Dirichlet data
on the tangential part omega_1 and Neumann data on the normal part
omega_2, absolute conditions swap the two.  On the geometries here this
resolves each degree into explicit Dirichlet/Neumann (or mixed) interval
factors times circle factors:

interval [0, R]           relative: (D; N)           absolute: (N; D)
cylinder [0, R] x S^1_L   relative: (DxC; NxC + DxC; NxC)
                          absolute: (NxC; DxC + NxC; DxC)

Each interval factor is an image sum on the circle of length 2R: its
modes are the odd (Dirichlet), even (Neumann) or antiperiodic (mixed)
functions there, so with circle = zetas.circle_heat_trace

    Dirichlet  (m pi/R)^2, m >= 1             = 1/2 circle(2R) - 1/2
    Neumann    (m pi/R)^2, m >= 0             = 1/2 circle(2R) + 1/2
    mixed      ((m + 1/2) pi/R)^2, m >= 0     = 1/2 circle(2R, theta=pi)

Betti numbers follow the boundary Hodge theorem: relative kernels realize
H^k(X, Y), absolute kernels realize H^k(X).  "mixed" (relative on one end,
absolute on the other) is supported as the interval factor appearing in
gluing; it has no harmonic forms and no constant heat coefficient.

A doubled-multiplicity convention for the interval is exposed as rank=2
(a trivial rank-2 coefficient bundle): every spectral quantity and Betti
number doubles.  The verify suite reports the weighted zeta sums under both
conventions.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import (BadParameter, ShapeMismatch, UnsupportedPartition, _as_int, _as_real,
                     _points, _tolerance)
from .models import SpectralModel, TorsionReport, circle, product, residue_torsion
from .zetas import _length, circle_heat_trace, combine_heat_traces

CONDITIONS = ("relative", "absolute", "mixed")

# Bench contract: bench/tracer.py wraps vars(BoundaryModel)["zeta"] by this
# name.  Remove with the next change to bench/.
BoundaryModel = SpectralModel


def _check_condition(condition: str) -> str:
    if condition not in CONDITIONS:
        raise BadParameter(f"condition must be one of {CONDITIONS}, got {condition!r}")
    return condition


def build_interval(R: float = 1.0, condition: str = "relative", rank: int = 1) -> SpectralModel:
    """Interval [0, R]: degree 0 carries the tangential factor, degree 1 the normal.

    relative: b = (0, 1), chi = -1; absolute: b = (1, 0), chi = 1;
    mixed: b = (0, 0).  rank=2 doubles all multiplicities (the doubled
    interval convention); both counts are reported by the verify suite.
    """
    _length(R, "R", scale=2.0)  # the factors are halves of the circle of length 2R
    _check_condition(condition)
    rank = _as_int(rank, "interval rank", BadParameter)
    if rank not in (1, 2):
        raise BadParameter(f"interval rank must be 1 or 2, got {rank}")
    half = 0.5 * rank
    if condition == "mixed":
        heat = (combine_heat_traces([(half, circle_heat_trace(2.0 * R, theta=math.pi))]),) * 2
    else:
        doubled = circle_heat_trace(2.0 * R)
        dirichlet = combine_heat_traces([(half, doubled)], constant=-half)
        neumann = combine_heat_traces([(half, doubled)], constant=half)
        heat = (dirichlet, neumann) if condition == "relative" else (neumann, dirichlet)
    return SpectralModel(name=f"interval(R={R:g}, {condition}, rank={rank})",
                         heat=heat, condition=condition)


def build_cylinder(R: float = 1.0, L: float = 2.0 * math.pi,
                   condition: str = "relative") -> SpectralModel:
    """Cylinder [0, R] x S^1 of circumference L: models.product of
    build_interval(R, condition) and the circle of length L.

    Degree 0: tangential x circle; degree 2: normal x circle; degree 1 is
    the direct sum of the two mixed products (the dtheta and dx form parts).
    relative: b = (0, 1, 1); absolute: b = (1, 1, 0); mixed: b = (0, 0, 0).
    """
    # the factors first: their rules refuse an R or L that {R:g} or {L:g} would not format
    interval, factor = build_interval(R, condition), circle(L=L)
    return product(f"cylinder(R={R:g}, L={L:g}, {condition})", interval, factor)


class PropositionReport(NamedTuple):
    """Deviations of the relative/absolute weighted and plain sum identities."""

    geometry: str
    s_values: tuple[float, ...]
    weighted_sign_law: float      # sum_R - (-1)^(n-1) sum_A
    unweighted_relative: float    # |sum_k (-1)^k zeta_{k,R}(s)|
    unweighted_absolute: float
    duality: float                # max |zeta_{k,R}(s) - zeta_{n-k,A}(s)|
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in
                   (self.weighted_sign_law, self.unweighted_relative,
                    self.unweighted_absolute, self.duality))

    def as_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


def proposition_check(relative: SpectralModel, absolute: SpectralModel,
                      s_values: Iterable[float] = (0.0, 0.75, 2.0),
                      tol: float = 1e-8) -> PropositionReport:
    """Check sum_k (-1)^k k zeta_{k,R}(s) = (-1)^(n-1) sum_k (-1)^k k zeta_{k,A}(s),
    the vanishing of both unweighted alternating sums, and the degree-flip
    duality zeta_{k,R} = zeta_{n-k,A}, at every sampled s of the iterable
    s_values.  SchemaError refuses a tol that is not a finite number >= 0,
    BadParameter no s_values.
    """
    _tolerance(tol)
    s_values = _points(s_values)
    if relative.dim != absolute.dim:
        raise ShapeMismatch("models have different dimensions")
    if relative.condition != "relative" or absolute.condition != "absolute":
        raise BadParameter("pass the relative model first, absolute second")
    n = relative.dim
    sign = (-1.0) ** (n - 1)
    weighted = unweighted_r = unweighted_a = duality = 0.0
    for s in s_values:
        zr = [relative.zeta(k, s).value for k in range(n + 1)]
        za = [absolute.zeta(k, s).value for k in range(n + 1)]
        weighted = max(weighted, abs(
            sum((-1.0) ** k * k * zr[k] for k in range(n + 1))
            - sign * sum((-1.0) ** k * k * za[k] for k in range(n + 1))))
        unweighted_r = max(unweighted_r, abs(
            sum((-1.0) ** k * zr[k] for k in range(n + 1))))
        unweighted_a = max(unweighted_a, abs(
            sum((-1.0) ** k * za[k] for k in range(n + 1))))
        duality = max(duality, max(abs(zr[k] - za[n - k]) for k in range(n + 1)))
    return PropositionReport(geometry=relative.name, s_values=s_values,
                             weighted_sign_law=weighted,
                             unweighted_relative=unweighted_r,
                             unweighted_absolute=unweighted_a,
                             duality=duality, tol=tol)


# Bench contract: bench/jobs.py calls this name and the tracer times it as
# boundary.residue_torsion_s.  Remove with the next change to bench/.
def boundary_residue_torsion(model: SpectralModel, beta: Sequence[float]) -> TorsionReport:
    """models.residue_torsion under the name the benchmark calls."""
    return residue_torsion(model, beta)


class GluingReport(NamedTuple):
    """Both sides of the torsion gluing identity, term by term.

    lhs = log T_res,k of the glued manifold; the right side adds the two
    pieces (relative conditions on the new interior boundary), the torsion
    of the interface Y, and chi(Y)/2.
    """

    geometry: str
    outer_condition: str
    split: float
    lhs: float
    piece1: float
    piece2: float
    interface_torsion: float
    half_chi_interface: float
    tol: float

    @property
    def rhs(self) -> float:
        return (self.piece1 + self.piece2 + self.interface_torsion
                + self.half_chi_interface)

    @property
    def discrepancy(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def ok(self) -> bool:
        return self.discrepancy <= self.tol

    def as_dict(self) -> dict:
        return {**self._asdict(), "rhs": self.rhs, "discrepancy": self.discrepancy,
                "ok": self.ok}


def _log_t_res_k(model: SpectralModel) -> float:
    return residue_torsion(model, range(model.dim + 1)).log_torsion_res


def gluing_check(geometry: str, *, R: float = 1.0, L: float = 2.0 * math.pi,
                 split: float = 0.5, outer: str = "absolute",
                 tol: float = 1e-8) -> GluingReport:
    """Evaluate every term of the gluing identity on a supported partition.

    interval: [0, R] = [0, split] + [split, R], interface a point
              (interface torsion 0, chi = 1);
    cylinder: [0, R] x S^1 = two shorter cylinders, interface the circle
              (odd-dimensional, so its residue torsion vanishes; chi = 0).

    Pieces keep the outer condition on the original boundary and take
    relative conditions on the interface, i.e. they are fully relative when
    outer='relative' and mixed otherwise.  BadParameter refuses an R or a
    split that is not a real number, UnsupportedPartition a degenerate split
    (an empty piece), and SchemaError a tol that is not a finite number >= 0.
    """
    _tolerance(tol)
    if outer not in ("relative", "absolute"):
        raise BadParameter("outer condition must be 'relative' or 'absolute'")
    _as_real(R, "R", BadParameter)
    _as_real(split, "split", BadParameter)
    if not 0.0 < split < R:
        raise UnsupportedPartition(
            f"split must cut the interior: need 0 < {split:g} < {R:g}")
    piece_condition = "relative" if outer == "relative" else "mixed"
    if geometry == "interval":
        full = build_interval(R, outer)
        piece1 = build_interval(split, piece_condition)
        piece2 = build_interval(R - split, piece_condition)
        interface_torsion = 0.0  # a point has no positive degrees: beta_0 = 0
        half_chi = 0.5
    elif geometry == "cylinder":
        full = build_cylinder(R, L, outer)
        piece1 = build_cylinder(split, L, piece_condition)
        piece2 = build_cylinder(R - split, L, piece_condition)
        interface = circle(L=L)
        interface_torsion = _log_t_res_k(interface)
        half_chi = 0.5 * interface.chi
    else:
        raise UnsupportedPartition(f"unsupported geometry {geometry!r}")
    return GluingReport(geometry=geometry, outer_condition=outer, split=split,
                        lhs=_log_t_res_k(full), piece1=_log_t_res_k(piece1),
                        piece2=_log_t_res_k(piece2),
                        interface_torsion=interface_torsion,
                        half_chi_interface=half_chi, tol=tol)
