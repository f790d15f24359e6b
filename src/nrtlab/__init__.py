"""Numerical laboratory for a cavity no-response-test indicator.

The package verifies, with closed forms wherever possible, that a
single-measurement no-response indicator fails to see an off-origin
cavity: the constrained sup stays bounded on regions containing the
origin and blows up elsewhere, a Runge-type fit drives the blow-up
explicitly, and independent sign-map and enclosure routes cross-check
the underlying kernels.
"""

from .checks import (
    SignField,
    enclosure_bound,
    enclosure_closed_form,
    enclosure_indicator,
    enclosure_sweep,
    gradient_identity,
    probe_kernel,
    sign_indefiniteness_certificate,
    sign_map,
)
from .geometry import (
    DiskRegion,
    OriginLocation,
    QuadratureRule,
    build_disk_quadrature,
    validate_admissible,
)
from .harmonic import (
    BoundaryData,
    HarmonicSeries,
    annulus_neumann_solution,
    boundary_pairing,
    dirichlet_disk_solve,
    gap_neumann_trace,
    random_boundary_data,
)
from .indicator import (
    GramConditioningError,
    GramSystem,
    IndicatorCurve,
    OriginOnBoundaryError,
    RungeFit,
    SupResult,
    Verdict,
    assemble_gram,
    blow_up_diagnostic,
    indicator_sweep,
    log_slope,
    runge_fit,
    sup_indicator,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "DiskRegion",
    "GramConditioningError",
    "GramSystem",
    "HarmonicSeries",
    "IndicatorCurve",
    "OriginLocation",
    "OriginOnBoundaryError",
    "QuadratureRule",
    "RungeFit",
    "SignField",
    "SupResult",
    "Verdict",
    "annulus_neumann_solution",
    "assemble_gram",
    "blow_up_diagnostic",
    "boundary_pairing",
    "build_disk_quadrature",
    "dirichlet_disk_solve",
    "enclosure_bound",
    "enclosure_closed_form",
    "enclosure_indicator",
    "enclosure_sweep",
    "gap_neumann_trace",
    "gradient_identity",
    "indicator_sweep",
    "log_slope",
    "probe_kernel",
    "random_boundary_data",
    "runge_fit",
    "sign_indefiniteness_certificate",
    "sign_map",
    "sup_indicator",
    "validate_admissible",
    "__version__",
]
