import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hetnet_uplink import (ChannelConfig, ExperimentPlan, NetworkConfig, crossing_probabilities,
                           run_occupancy)


@pytest.fixture(scope="session")
def desk_cfg() -> NetworkConfig:
    """Reference geometry with the reduced desk-scale population."""
    return NetworkConfig(N=2000, delta=30.0)


@pytest.fixture(scope="session")
def channel() -> ChannelConfig:
    return ChannelConfig()


@pytest.fixture(scope="session")
def probs_at_R(desk_cfg):
    """Crossing probabilities of the cell disk at the default delta."""
    return crossing_probabilities(desk_cfg, desk_cfg.R)


@pytest.fixture(scope="session")
def probs_at_RI(desk_cfg):
    """Crossing probabilities of the interfering disk at the default delta."""
    return crossing_probabilities(desk_cfg, desk_cfg.R_I)


@pytest.fixture(scope="session")
def strided_occupancy_counts(desk_cfg, probs_at_R):
    """Histogram of the in-cell count at every stride-th step of one live
    occupancy run at desk scale (4 x 26,000 steps, seed 12), the stride
    about five relaxation times 1/(p_in + p_out) of the count chain, so the
    counts are nearly independent draws.  One run serves every check of the
    stationary occupancy law."""
    stride = math.ceil(5.0 / (probs_at_R.p_in + probs_at_R.p_out))
    plan = ExperimentPlan("occupancy", replications=4, steps_per_replication=26_000,
                          warmup_steps=1_000, seed=12)
    counts = np.zeros(desk_cfg.N + 1, dtype=np.int64)

    def every_stride(step, x, y):
        if step % stride == 0:      # one row of x and y per replication
            np.add.at(counts, np.count_nonzero(x * x + y * y < desk_cfg.R**2, axis=1), 1)

    run_occupancy(plan, desk_cfg, trace_hook=every_stride)
    counts.setflags(write=False)
    return counts
