"""Concavity tests for distribution functions on the unit interval.

The test statistic is the scaled L^p distance between the empirical CDF and
its least concave majorant; critical values come from simulating the limit
law under the uniform distribution, which stochastically dominates the limit
under every other concave CDF.
"""

# Set before the submodules import it.
__version__ = "0.1.0"

from .limits import (
    COUPLING_TOL,
    DEFAULT_GRID,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    ENGINE,
    CouplingIdentity,
    CriticalValueTable,
    DominanceCheck,
    QuantileEstimate,
    SimConfig,
    build_critical_table,
    estimate_quantiles,
    limit_draw_general,
    limit_draw_uniform,
    p_key,
    parse_p,
    sample_wiener,
    simulate_draws,
    uniform_grid,
    verify_dominance_coupling,
    verify_rescaling_identity,
)
from .models import (
    ConcaveCdf,
    IntervalStructure,
    PiecewiseAffineCdf,
    PowerCdf,
    UniformCdf,
    coupling_lengths,
    evaluate,
    extract_intervals,
    inverse_cdf_sample,
    pack_intervals,
    pit_transform,
    quantile,
    spec_from_dict,
    spec_to_dict,
    x_bar,
)
from .pwl import (
    MAJORIZATION_TOL,
    GeometryError,
    corner_gaps,
    ecdf_corners,
    gap_pow_integral,
    hull_vertices,
    lcm_gap_on_grid,
)
from .stats import StatisticResult, exact_gap_pow_integral, lp_stat
from .streams import Stream, generator, seed_sequence, substream
