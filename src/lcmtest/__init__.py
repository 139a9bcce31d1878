"""Concavity tests for distribution functions on the unit interval.

The test statistic is the scaled L^p distance between the empirical CDF and
its least concave majorant; critical values come from simulating the limit
law under the uniform distribution, which stochastically dominates the limit
under every other concave CDF.
"""

# Set before the submodules import it.
__version__ = "0.1.0"

from .coupling import (
    COUPLING_TOL,
    CouplingIdentity,
    DominanceCheck,
    coupling_lengths,
    lcm_gap_on_grid,
    sample_wiener,
    uniform_grid,
    verify_dominance_coupling,
    verify_rescaling_identity,
)
from .limits import (
    DEFAULT_GRID,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    ENGINE,
    CriticalValueTable,
    QuantileEstimate,
    SimConfig,
    build_critical_table,
    estimate_quantiles,
    p_key,
    simulate_draws,
)
from .models import (
    ConcaveCdf,
    IntervalStructure,
    PiecewiseAffineCdf,
    PowerCdf,
    UniformCdf,
    evaluate,
    extract_intervals,
    inverse_cdf_sample,
    quantile,
    spec_from_dict,
    spec_to_dict,
)
from .pwl import (
    MAJORIZATION_TOL,
    GeometryError,
    corner_gaps,
    ecdf_corners,
    hull_vertices,
)
from .stats import StatisticResult, exact_gap_pow_integral, lp_stat
from .streams import Stream, generator, seed_sequence, substream
