"""Numerical laboratory for a cavity no-response-test indicator.

The package verifies, with closed forms wherever possible, that a
single-measurement no-response indicator fails to see an off-origin
cavity: the constrained sup stays bounded on regions containing the
origin and blows up elsewhere, a Runge-type fit drives the blow-up
explicitly, and independent sign-map and enclosure routes cross-check
the underlying kernels.

The top level binds only the names the benchmark reads as
nrtlab.<name>; every other name is imported from its module.
"""

from .checks import enclosure_closed_form, enclosure_indicator
from .geometry import DiskRegion, build_disk_quadrature
from .indicator import indicator_sweep, runge_fit

__version__ = "0.1.0"

__all__ = [
    "DiskRegion",
    "build_disk_quadrature",
    "enclosure_closed_form",
    "enclosure_indicator",
    "indicator_sweep",
    "runge_fit",
    "__version__",
]
