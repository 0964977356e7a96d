"""Exhaustive search for the best reachable schedule on small instances.

The oracle plays the same environment protocol as the learned policy: it
explores every feasible action sequence by depth-first search over cloned
environments and returns the terminal state with the highest total QoE.
An admissible bound (every user optimistically gets all remaining free
cells in both tiers) prunes subtrees that cannot beat the incumbent, and
a node budget turns pathological instances into a clean error instead of
an open-ended search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import AllocationPlan
from .env import SchedulingEnv
# perfbench/spans.py counts calls through these module globals
from .qoe import combined_qoe, effective_rate  # noqa: F401
from .qoe import ue_rates, ue_scores
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
    total_qoe: float
    served: tuple[bool, ...]
    actions: tuple[int, ...]
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


class _Search:
    def __init__(self, env: SchedulingEnv, caps: OracleCaps):
        self.env = env
        self.caps = caps
        self.nodes = 0
        self.best_qoe = -1.0
        self.best_actions: tuple[int, ...] = ()
        cfg = env.config
        rb = env.dims.rb_size_shz
        self.bits_per_cell = np.array(
            [rb * p.link.spectral_efficiency for p in env.profiles]
        )
        self.frame_s = cfg.frame_duration_s
        # actions sorted by descending area so good solutions appear early
        self.action_order = sorted(
            range(env.n_actions),
            key=lambda a: -env.shapes[a].area_units,
        )

    def upper_bound(self, env: SchedulingEnv) -> float:
        """Total QoE if every user got every free cell in both tiers."""
        free = float(env.occupancy.free_units())
        total = 0.0
        for ue, profile in enumerate(env.profiles):
            grab = free * self.bits_per_cell[ue]
            bt = env.bt_bits[ue] + (0.0 if env.served[ue] else grab)
            et = env.et_bits[ue] + grab
            if bt <= 0.0:
                continue
            qp = profile.qoe
            q_bt, q_combined = ue_scores(*ue_rates(bt, et, self.frame_s, qp), qp)
            if q_bt >= qp.min_qoe:
                total += q_combined
        return total

    def run(self, env: SchedulingEnv, prefix: tuple[int, ...]) -> None:
        if env.done:
            qoe = env.total_qoe()
            if qoe > self.best_qoe:
                self.best_qoe = qoe
                self.best_actions = prefix
            return
        if self.upper_bound(env) <= self.best_qoe:
            return
        mask = env.feasible_actions()
        for action in self.action_order:
            if not mask[action]:
                continue
            self.nodes += 1
            if self.nodes > self.caps.node_budget:
                raise SearchSizeError(
                    f"search exceeded node budget {self.caps.node_budget}"
                )
            child = env.clone()
            child.step(action)
            self.run(child, prefix + (action,))


def oracle_best_plan(
    config: ScenarioConfig,
    profiles: tuple[UeProfile, ...],
    caps: OracleCaps | None = None,
) -> OracleResult:
    """Best total QoE reachable through the environment protocol.

    Ties between action sequences with equal QoE resolve toward the
    sequence found first in large-shape-first order, which is fixed, so
    results are deterministic.
    """
    caps = caps or OracleCaps()
    env = SchedulingEnv(config)
    _check_size(config, env.n_actions, caps)
    env.reset(profiles=profiles)
    search = _Search(env, caps)
    search.run(env.clone(), ())

    final = SchedulingEnv(config)
    final.reset(profiles=profiles)
    for action in search.best_actions:
        final.step(action)
    plan = AllocationPlan(
        allocations=tuple(final.allocations),
        reports=tuple(final.reports()),
    )
    return OracleResult(
        plan=plan,
        total_qoe=final.total_qoe(),
        served=tuple(bool(s) for s in final.served),
        actions=search.best_actions,
        nodes=search.nodes,
    )
