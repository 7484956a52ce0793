"""Mobility-aware uplink interference toolkit.

Analytic chain: crossing probabilities of a disk under power-law flights
with antipodal boundary re-entry -> binomial occupancy of the in-cell
count -> per-interferer and total interference MGFs -> SINR success
probability and average rate.  Every prediction has a seeded Monte Carlo
counterpart in :mod:`hetnet_uplink.montecarlo`, and the CLI reproduces
the standard experiment grids as data tables.
"""

from .config import (
    CellType,
    ChannelConfig,
    ConfigError,
    NetworkConfig,
    db_to_linear,
    dbm_to_watts,
    load_config,
    validate,
    watts_to_dbm,
)
from .crossing import (
    CrossingProbabilities,
    crossing_probabilities,
    exit_distance,
    return_correction,
)
from .interference import (
    InterfererMoments,
    csg_interferer_moments,
    interferer_mgf,
    osg_interferer_moments,
    total_mgf,
    total_moments,
)
from .mobility import (
    advance,
    sample_direction,
    sample_flight_length,
    uniformity_test,
)
from .montecarlo import (
    EstimateWithError,
    ExperimentPlan,
    run_crossing,
    run_interference,
    run_occupancy,
    run_sinr,
)
from .occupancy import (
    OccupancyMoments,
    occupancy_moments,
    occupancy_pgf,
    stationary_distribution,
    transition_matrix,
)
from .performance import MetricResult, PerformanceQuery, success_probability

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
