"""Exhaustive search for the best reachable schedule on small instances.

The oracle plays the same environment protocol as the learned policy: it
explores feasible action sequences by depth-first search over cloned
environments and returns the terminal state with the highest total QoE.
Two sequences often reach states with the same future: the same live
cells (the free cells some shape could still use), free-cell count, bits,
counts and enhancement-tier rotation.  The serving flags and the cursor
follow from these: a user is served exactly when its base-tier bits reach
its minimum QoE, the rotation is empty until the enhancement tier starts
and names its active user there, and in the base tier the active user is
the last in serving order with a base-tier placement.  So the environment
keys each child from its parent and action before it is made
(``SchedulingEnv.child_keys``), and only a
child whose key is new can be cloned, stepped and searched: a repeated
child costs no clone and no step.  The environment also bounds each new
child's total from its parent before it is made
(``SchedulingEnv.child_bounds``), and a child whose optimistic bound cannot
beat the best total found so far is not made either.  The search reads the
environment only through these calls and ``feasible_actions``, ``clone``,
``step``, ``done``, ``total_qoe`` and ``plan``; the best leaf's plan, whose
allocations name each placed shape, is its answer.  It searches the
episode the policy plays, reward parameters and their step limit included.
A node budget turns pathological instances into a clean error instead of
an open-ended search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .baselines import AllocationPlan
from .env import RewardParams, SchedulingEnv
# perfbench/spans.py counts calls through these module globals
from .qoe import combined_qoe, effective_rate  # noqa: F401
from .scenario import ScenarioConfig, UeProfile


class SearchSizeError(RuntimeError):
    """The instance is too large for exhaustive search."""


# the largest instance exhaustive search accepts, and its node budget
MAX_UES = 3
MAX_GRID_CELLS = 256
MAX_ACTIONS = 8
MAX_BWPS_PER_UE_TIER = 4
NODE_BUDGET = 500_000


@dataclass(frozen=True)
class OracleResult:
    plan: AllocationPlan
    # every expanded child, repeated states included; the node budget thus
    # bounds both the work and the size of the table of seen states
    nodes: int
    # the children skipped unmade: by a key seen before, and by a bound at
    # or below the incumbent; the rest of ``nodes`` were made
    repeats: int
    prunes: int


def _check_size(config: ScenarioConfig, n_actions: int) -> None:
    dims = config.dims()
    cells = dims.total_units
    if config.n_ues > MAX_UES:
        raise SearchSizeError(f"{config.n_ues} users exceeds oracle cap {MAX_UES}")
    if cells > MAX_GRID_CELLS:
        raise SearchSizeError(f"{cells} grid cells exceeds oracle cap {MAX_GRID_CELLS}")
    if n_actions > MAX_ACTIONS:
        raise SearchSizeError(f"{n_actions} actions exceeds oracle cap {MAX_ACTIONS}")
    if config.max_bwps_per_ue_tier is None or config.max_bwps_per_ue_tier > MAX_BWPS_PER_UE_TIER:
        raise SearchSizeError(
            f"per-tier budget {config.max_bwps_per_ue_tier!r} exceeds oracle cap"
            f" {MAX_BWPS_PER_UE_TIER} (unbounded search)"
        )


class _Search:
    def __init__(self, env: SchedulingEnv):
        self.nodes = self.repeats = self.prunes = 0
        self.seen: set[bytes] = set()
        self.best_qoe = -math.inf
        self.best_env: SchedulingEnv | None = None  # the incumbent's leaf
        # actions sorted by descending area so good solutions appear early
        self.action_order = sorted(
            range(env.n_actions),
            key=lambda a: -env.shapes[a].area_units,
        )

    def run(self, env: SchedulingEnv) -> None:
        """Search below ``env``, which this call owns.  Every feasible child
        is keyed first, then each with an unseen key is bounded; a child is
        made only if its bound still beats the incumbent when its turn
        comes, by a clone of ``env`` unless no later sibling can be made,
        in which case by stepping ``env`` itself.  A done env is never
        stepped again, so the incumbent's leaf stays as it was found.

        All siblings' keys enter the table before any sibling is searched.
        That blocks nothing the search would otherwise reach: a key only
        matches a state of its own depth, and below an earlier sibling the
        only state of that depth is the sibling itself.  Skipping a child by
        its bound skips no better leaf: below a live child there is none,
        and a terminal child's own total is at most its bound, while the
        incumbent moves only on a strict gain."""
        if env.done:
            qoe = env.total_qoe()
            if qoe > self.best_qoe:
                self.best_qoe = qoe
                self.best_env = env
            return
        mask = env.feasible_actions()
        actions = [a for a in self.action_order if mask[a]]
        self.nodes += len(actions)
        if self.nodes > NODE_BUDGET:
            raise SearchSizeError(f"search exceeded node budget {NODE_BUDGET}")
        seen = self.seen
        fresh = []
        for action, key in zip(actions, env.child_keys(actions)):
            if key not in seen:
                seen.add(key)
                fresh.append(action)
        self.repeats += len(actions) - len(fresh)
        bounds = env.child_bounds(fresh)
        for i, action in enumerate(fresh):
            if bounds[i] <= self.best_qoe:
                self.prunes += 1
                continue
            # the incumbent only rises, so a later sibling bounded at or
            # below it now is never made, and ``env`` is not needed again
            last = all(bound <= self.best_qoe for bound in bounds[i + 1 :])
            child = env if last else env.clone()
            child.step(action)
            self.run(child)


def oracle_best_plan(
    config: ScenarioConfig,
    profiles: tuple[UeProfile, ...],
    reward: RewardParams | None = None,
) -> OracleResult:
    """Best total QoE reachable through the environment protocol, in the
    episodes of an environment with ``reward``'s parameters (by default
    ``RewardParams()``), whose step limit ends them as in training.

    A child whose key was seen before, leaf or not, is neither made nor
    searched again.  Ties between action sequences with equal QoE resolve
    toward the sequence found first in large-shape-first order, which is
    fixed, so results are deterministic.  The table does not change that
    answer: the incumbent moves only on a strict gain, and a repeated
    child's subtree holds the same leaf values as its first copy, which
    came earlier in that order and reached them.  Nor does the bound: it
    skips only children with no leaf above the incumbent.
    """
    env = SchedulingEnv(config, reward)
    _check_size(config, env.n_actions)
    env.reset(profiles)
    search = _Search(env)
    search.run(env)
    return OracleResult(
        plan=search.best_env.plan(),
        nodes=search.nodes,
        repeats=search.repeats,
        prunes=search.prunes,
    )
