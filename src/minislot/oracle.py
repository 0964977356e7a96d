"""Exhaustive search for the best reachable schedule on small instances.

The oracle plays the same environment protocol as the learned policy: it
explores feasible action sequences by depth-first search over cloned
environments and returns the terminal state with the highest total QoE.
Two sequences often reach the same state (the same occupied cells, bits,
counts and cursor), and what can follow a state depends on nothing else,
so a table of exact state keys expands each reachable state once.  A
node budget turns pathological instances into a clean error instead of
an open-ended search.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .baselines import AllocationPlan
from .env import SchedulingEnv
from .grid import Tier
# perfbench/spans.py counts calls through these module globals
from .qoe import combined_qoe, effective_rate  # noqa: F401
from .scenario import ScenarioConfig, UeProfile


class SearchSizeError(RuntimeError):
    """The instance is too large for exhaustive search."""


@dataclass(frozen=True)
class OracleCaps:
    max_ues: int = 3
    max_grid_cells: int = 256
    max_actions: int = 8
    max_bwps_per_ue_tier: int = 4
    node_budget: int = 500_000


@dataclass(frozen=True)
class OracleResult:
    plan: AllocationPlan
    actions: tuple[int, ...]
    # every expanded child, repeated states included; the node budget thus
    # bounds both the work and the size of the table of seen states
    nodes: int


def _check_size(config: ScenarioConfig, n_actions: int, caps: OracleCaps) -> None:
    dims = config.dims()
    cells = dims.total_units
    if config.n_ues > caps.max_ues:
        raise SearchSizeError(f"{config.n_ues} users exceeds oracle cap {caps.max_ues}")
    if cells > caps.max_grid_cells:
        raise SearchSizeError(f"{cells} grid cells exceeds oracle cap {caps.max_grid_cells}")
    if n_actions > caps.max_actions:
        raise SearchSizeError(f"{n_actions} actions exceeds oracle cap {caps.max_actions}")
    if config.max_bwps_per_ue_tier is None or config.max_bwps_per_ue_tier > caps.max_bwps_per_ue_tier:
        raise SearchSizeError(
            f"per-tier budget {config.max_bwps_per_ue_tier!r} exceeds oracle cap"
            f" {caps.max_bwps_per_ue_tier} (unbounded search)"
        )


# The SchedulingEnv attributes that decide what can follow a live state.
# Everything else reset() sets is fixed per trial, derived from these, or
# a record of the past (tests/test_oracle_table.py checks the split).
KEY_FIELDS = (
    "occupancy", "bt_bits", "et_bits", "bt_count", "et_count", "served",
    "bt_excluded", "phase", "_bt_queue", "_et_rotation", "_active",
)


def state_key(env: SchedulingEnv) -> bytes:
    """Exact key of a live state over ``KEY_FIELDS``.

    Cells count only as occupied or free, the bits enter as their float64
    bytes, unrounded, and the flags one byte each.  Every part but the two
    queues has a fixed length per trial, and the first queue is
    length-prefixed.
    """
    queue = env._bt_queue
    active = len(env.profiles) if env._active is None else env._active
    cursor = [env.phase == Tier.ET, active, len(queue), *queue, *env._et_rotation]
    return b"".join((
        np.packbits(env.occupancy.code).tobytes(),  # one bit per non-zero code
        array("d", env.bt_bits).tobytes(),
        array("d", env.et_bits).tobytes(),
        array("q", env.bt_count).tobytes(),
        array("q", env.et_count).tobytes(),
        bytes(env.served),
        bytes(env.bt_excluded),
        array("q", cursor).tobytes(),
    ))


class _Search:
    def __init__(self, env: SchedulingEnv, caps: OracleCaps):
        self.caps = caps
        self.nodes = 0
        self.seen: set[bytes] = set()
        self.best_qoe = -1.0
        self.best_actions: tuple[int, ...] = ()
        self.best_env: SchedulingEnv | None = None  # the incumbent's leaf
        # actions sorted by descending area so good solutions appear early
        self.action_order = sorted(
            range(env.n_actions),
            key=lambda a: -env.shapes[a].area_units,
        )

    def run(self, env: SchedulingEnv, prefix: tuple[int, ...]) -> None:
        """Search below ``env``, which this call owns: its last child is
        ``env`` itself, stepped in place once every other child has been
        cloned from it.  A done env is never stepped again, so the
        incumbent's leaf stays as it was found."""
        if env.done:
            qoe = env.total_qoe()
            if qoe > self.best_qoe:
                self.best_qoe = qoe
                self.best_actions = prefix
                self.best_env = env
            return
        key = state_key(env)
        if key in self.seen:
            return
        self.seen.add(key)
        mask = env.feasible_actions()
        actions = [a for a in self.action_order if mask[a]]
        last = len(actions) - 1
        for i, action in enumerate(actions):
            self.nodes += 1
            if self.nodes > self.caps.node_budget:
                raise SearchSizeError(
                    f"search exceeded node budget {self.caps.node_budget}"
                )
            child = env if i == last else env.clone()
            child.step(action)
            self.run(child, prefix + (action,))


def oracle_best_plan(
    config: ScenarioConfig,
    profiles: tuple[UeProfile, ...],
    caps: OracleCaps | None = None,
) -> OracleResult:
    """Best total QoE reachable through the environment protocol.

    Each reachable state is expanded once.  Ties between action sequences
    with equal QoE resolve toward the sequence found first in
    large-shape-first order, which is fixed, so results are deterministic.
    The table does not change that answer: the incumbent moves only on a
    strict gain, and a repeated state's subtree holds the same leaf values
    as its first copy, which came earlier in that order and reached them.
    """
    caps = caps or OracleCaps()
    env = SchedulingEnv(config)
    _check_size(config, env.n_actions, caps)
    env.reset(profiles=profiles)
    search = _Search(env, caps)
    search.run(env.clone(), ())
    return OracleResult(
        plan=search.best_env.plan(),
        actions=search.best_actions,
        nodes=search.nodes,
    )
