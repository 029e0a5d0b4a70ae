"""Finite-blocklength rate bounds for block-fading AWGN channels.

The library models a channel whose amplitude gain is drawn from a finite
set once per coherence block, with the gain known at both ends of the
link. It solves the water-filling power allocation, evaluates capacity
and dispersion constants, computes closed-form achievability and
converse bounds on the maximal coding rate under per-codeword and
average power constraints, and cross-checks the analytic machinery by
Monte Carlo simulation.
"""

from .bounds import (
    BoundPoint,
    DispersionStats,
    bound_columns,
    bound_point,
    dispersion_stats,
    dispersion_v_bf,
    dispersion_v_bf_prime,
    nocsit_stats,
    sweep_dispersion_stats,
)
from .errors import (
    BlockfadeError,
    DomainError,
    InvalidParameterError,
)
from .fading import (
    ChannelSpec,
    FadingDistribution,
    discretize_rayleigh,
    make_distribution,
)
from .montecarlo import (
    DensityStats,
    SimConfig,
    ViolationReport,
    delta_b,
    density_block_moments,
    hoeffding_violation_bound,
    min_blocks_for_backoff,
    simulate_information_density,
    simulate_st_controller,
)
from .specfun import std_normal_cdf, std_normal_inv_cdf, std_normal_pdf
from .waterfill import (
    PowerAllocation,
    capacity,
    link_l,
    link_terms,
    solve_waterfill,
    water_levels,
)

__version__ = "0.1.0"

__all__ = [
    "BlockfadeError",
    "BoundPoint",
    "ChannelSpec",
    "DensityStats",
    "DispersionStats",
    "DomainError",
    "FadingDistribution",
    "InvalidParameterError",
    "PowerAllocation",
    "SimConfig",
    "ViolationReport",
    "bound_columns",
    "bound_point",
    "capacity",
    "delta_b",
    "density_block_moments",
    "discretize_rayleigh",
    "dispersion_stats",
    "dispersion_v_bf",
    "dispersion_v_bf_prime",
    "hoeffding_violation_bound",
    "link_l",
    "link_terms",
    "make_distribution",
    "min_blocks_for_backoff",
    "nocsit_stats",
    "simulate_information_density",
    "simulate_st_controller",
    "solve_waterfill",
    "sweep_dispersion_stats",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "std_normal_pdf",
    "water_levels",
]
