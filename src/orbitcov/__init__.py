"""Downlink coverage for LEO constellations whose satellites form
Poisson point processes on inclined circular orbits.

The package splits along the math: `geometry` holds the closed-form
visibility geometry, `distance` the nearest-satellite law, `interference`
the aggregate-interference Laplace transform, `coverage` the SIR/SNR
coverage integrals and the multi-orbit combiner (conditional coverage
for threshold arrays, unconditional curves on dB grids), `montecarlo`
the simulation twins of all of it, and `validation` the acceptance criteria
that hold the two sides together. `numerics` holds the fixed
Gauss-Legendre rules every analytic integral runs on and the seeded
random streams. `cli` wraps the lot for scenario files. The runtime
needs numpy only. Independent reference forms (distance-domain integrals,
explicit 3-D orbit snapshots) live in the test suite, not here.
"""

from .coverage import (
    ConstellationSpec,
    CoverageCurve,
    LinkBudget,
    db_to_linear,
    max_sir_coverage_conditional,
    max_sir_coverage_curve,
    sir_coverage_conditional,
    sir_coverage_curve,
    snr_coverage_conditional,
    snr_coverage_curve,
    threshold_grid_db,
)
from .distance import (
    NearestDistanceLaw,
    nearest_ccdf,
    nearest_pdf,
)
from .geometry import (
    EarthConstants,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    d_min,
    distance_to_arc,
    eta,
    orbital_speed,
    visibility_probability,
    visible_arc_length,
    visible_time,
)
from .interference import (
    ChannelParams,
    laplace_derivatives,
    log_laplace,
)
from .montecarlo import (
    DegenerateSampleError,
    McConfig,
    empirical_max_sir_coverage,
    empirical_nearest_ccdf,
    empirical_sir_coverage,
    empirical_snr_sinr_coverage,
)
from .numerics import RandomSource

__version__ = "0.1.0"

__all__ = [
    "ConstellationSpec",
    "CoverageCurve",
    "LinkBudget",
    "db_to_linear",
    "max_sir_coverage_conditional",
    "max_sir_coverage_curve",
    "sir_coverage_conditional",
    "sir_coverage_curve",
    "snr_coverage_conditional",
    "snr_coverage_curve",
    "threshold_grid_db",
    "NearestDistanceLaw",
    "nearest_ccdf",
    "nearest_pdf",
    "EarthConstants",
    "OrbitGeometry",
    "VisibilityWindow",
    "arc_to_distance",
    "d_min",
    "distance_to_arc",
    "eta",
    "orbital_speed",
    "visibility_probability",
    "visible_arc_length",
    "visible_time",
    "ChannelParams",
    "laplace_derivatives",
    "log_laplace",
    "DegenerateSampleError",
    "McConfig",
    "empirical_max_sir_coverage",
    "empirical_nearest_ccdf",
    "empirical_sir_coverage",
    "empirical_snr_sinr_coverage",
    "RandomSource",
    "__version__",
]
