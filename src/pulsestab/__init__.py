"""Spectral-stability workbench for sech^2 pulses of the abc water-wave system.

Builds the explicit pulse family, assembles the linearized operators as
their cosine and sine blocks on a periodic Fourier collocation grid,
evaluates the instability-index quantity in closed form and by solves on the
even block, counts unstable modes by direct dense eigensolves, and pins the
critical coefficient ratio of the standing-wave branch by bisection.

The package re-exports what scripts/scan_index_bounds.py uses; everything
else is imported from its submodule.
"""

__version__ = "0.1.0"

from .discretization import build_grid
from .index_count import (
    index_lower_bound_poly,
    index_upper_bound_poly,
    standing_quadratic,
)

__all__ = [
    "build_grid",
    "index_lower_bound_poly",
    "index_upper_bound_poly",
    "standing_quadratic",
]
