"""torsionlab: combinatorial and spectral torsion invariants at desk scale.

Combinatorial side: twisted chain complexes from CW data and orthogonal
representations, Hodge Laplacians with deformable chain metrics, and the
log-torsion of acyclic complexes computed two independent ways.

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
    EigenspaceSplit,
    Factorization,
    acyclic_spectra,
    betti,
    factorize,
    hodge_split,
    laplacian,
    positive_spectra,
    sym_expm,
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
    telescoping_identity_holds,
    variation_check,
)
from .zetas import (
    HeatTrace,
    ZetaEval,
    circle_character_heat_trace,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_prime0,
    mellin_zeta,
    product_heat_trace,
    riemann_zeta,
    riemann_zeta_prime0,
    scale_heat_trace,
    sphere2_scalar_heat_trace,
    sum_heat_traces,
    theta_expansion,
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
