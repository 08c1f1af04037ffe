"""torsionlab: combinatorial and spectral torsion invariants at desk scale.

Combinatorial side: twisted chain complexes from CW data and orthogonal
representations, Laplacian spectra under deformable chain metrics (one
SVD per boundary map), and log-torsion computed two independent ways.

Spectral side: model heat traces (circle, torus, 2-sphere, interval and
cylinder with relative/absolute boundary conditions), zeta functions by
heat-trace Mellin continuation, and the residue/analytic torsion
combinations with their invariance identities.
"""

from .complexes import (
    CellStructure,
    Representation,
    TwistedComplex,
    ValidationReport,
    build_preset,
    build_twisted_boundary,
    complex_from_json,
    preset,
    rotation,
    structure_from_json,
    validate,
)
from .hodge import (
    ChainMetric,
    Factorization,
    factorize,
)
from .torsion import (
    BetaClassification,
    VariationReport,
    classify_beta,
    determinant_oracle,
    euler_characteristics,
    exponential_metric_path,
    generalized_log_torsion,
    log_reidemeister,
    variation_check,
)
from .zetas import (
    HeatTrace,
    ZetaEval,
    circle_heat_trace,
    combine_heat_traces,
    digamma,
    mellin_zeta,
    product_heat_trace,
    sphere2_scalar_heat_trace,
    zeta_at_zero,
)
from .models import (
    IdentityReport,
    SpectralModel,
    TorsionReport,
    analytic_torsion,
    build_model,
    identity_suite,
    residue_log_trace,
    residue_torsion,
    surface_residue_combination,
)
from .boundary import (
    GluingReport,
    PropositionReport,
    build_cylinder,
    build_interval,
    gluing_check,
    proposition_check,
)
from . import errors

__version__ = "0.1.0"
