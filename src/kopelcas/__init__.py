"""Exact analysis of an adaptive duopoly map.

Fixed points are enumerated as certified algebraic numbers, stability is
decided by polynomial sign queries, and the parameter-space certificates
that summarise both are machine-verified against their derivations.
"""

from .certificates import (
    EquilibriumCountClass,
    IdentityResult,
    NamedCertificate,
    StableCountClass,
    build_certificates,
    classify,
    classify_equilibrium_count,
    classify_stable_best_response,
    classify_stable_homogeneous,
    verify_all,
    verify_identity,
)
from .exactpoly import MPoly, dense_to_mpoly, resultant
from .model import (
    Equilibrium,
    ModelParams,
    StabilityReport,
    State,
    Trajectory,
    e0_stable,
    equilibria,
    equilibrium_cubic,
    equilibrium_report,
    iterate,
    jacobian,
    jury_report,
    stability_conditions,
    step,
    y_relation,
)
from .rational import coerce_rational, format_rational, parse_rational
from .realroots import (
    AlgebraicReal,
    isolate_real_roots,
    sign_at,
)
from .scanner import (
    ScanCell,
    ScanGrid,
    ScanSpec,
    emit_grid,
    scan,
    scan_equilibrium_count,
    scan_stability_best_response,
    scan_stability_homogeneous,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicReal",
    "Equilibrium",
    "EquilibriumCountClass",
    "IdentityResult",
    "MPoly",
    "ModelParams",
    "NamedCertificate",
    "ScanCell",
    "ScanGrid",
    "ScanSpec",
    "StabilityReport",
    "StableCountClass",
    "State",
    "Trajectory",
    "build_certificates",
    "classify",
    "classify_equilibrium_count",
    "classify_stable_best_response",
    "classify_stable_homogeneous",
    "coerce_rational",
    "dense_to_mpoly",
    "e0_stable",
    "emit_grid",
    "equilibria",
    "equilibrium_cubic",
    "equilibrium_report",
    "format_rational",
    "isolate_real_roots",
    "iterate",
    "jacobian",
    "jury_report",
    "parse_rational",
    "resultant",
    "scan",
    "scan_equilibrium_count",
    "scan_stability_best_response",
    "scan_stability_homogeneous",
    "sign_at",
    "stability_conditions",
    "step",
    "verify_all",
    "verify_identity",
    "y_relation",
]
