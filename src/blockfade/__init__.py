"""Finite-blocklength rate bounds for block-fading AWGN channels.

The library models a channel whose amplitude gain is drawn from a finite
set once per coherence block, with the gain known at both ends of the
link. It solves the water-filling power allocation, evaluates capacity
and dispersion constants, computes closed-form achievability and
converse bounds on the maximal coding rate under per-codeword and
average power constraints, and cross-checks the analytic machinery by
Monte Carlo simulation.
"""

from .bounds import bound_columns, sweep_dispersion_stats
from .errors import InvalidParameterError
from .fading import ChannelSpec, FadingDistribution, discretize_rayleigh, make_distribution
from .montecarlo import SimConfig, simulate_information_density, simulate_st_controller
from .waterfill import link_terms, water_fill

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "FadingDistribution",
    "InvalidParameterError",
    "SimConfig",
    "bound_columns",
    "discretize_rayleigh",
    "link_terms",
    "make_distribution",
    "simulate_information_density",
    "simulate_st_controller",
    "sweep_dispersion_stats",
    "water_fill",
]
