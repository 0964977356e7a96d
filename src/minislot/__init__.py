"""Two-tier 360-degree video delivery on a multi-numerology mini-slot grid.

A simulator and scheduling library: resource-grid geometry, millimetre-wave
link budget, logarithmic QoE, an episodic allocation environment, a
self-contained deep-Q allocator, equal-split baselines and an exhaustive
search reference, plus a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .grid import (
    BwpAllocation,
    BwpShape,
    ConfigError,
    GridDims,
    GridSpec,
    Occupancy,
    Tier,
    bwp_shape,
    derive_grid,
    validate_allocation_set,
)
from .qoe import QoeParams, QoeReport, combined_qoe, effective_rate, qoe_fn
from .radio import LinkParams, LinkState, path_gain, snr
from .scenario import (
    FovModel,
    ScenarioConfig,
    UeProfile,
    default_config,
    sample_fov_prob,
    sample_scenario,
    scenario_for_trial,
    tiny_config,
)
from .env import RewardParams, SchedulingEnv, serving_order
from .baselines import (
    AllocationPlan,
    equal_bandwidth_plan,
    equal_time_frequency_plan,
)
from .net import NetConfig, QNetwork, default_net_config
from .agent import (
    TrainConfig,
    TrainResult,
    greedy_rollout,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .oracle import OracleResult, SearchSizeError, oracle_best_plan
from .config import (
    ExperimentConfig,
    apply_env_overrides,
    default_experiment,
    load_config,
    save_config,
    tiny_experiment,
)
from .runner import run_eval, run_train
