"""Exhaustive search for the best reachable schedule on small instances.

The oracle plays the same environment protocol as the learned policy: it
explores feasible action sequences by depth-first search over cloned
environments and returns the terminal state with the highest total QoE.
Two sequences often reach the same state (the same occupied cells, bits,
counts and cursor), and what can follow a state depends on nothing else.
So each child is keyed exactly from its parent and action before it is
made, and only a child whose key is new is cloned, stepped and searched:
a repeated child costs no clone and no step.  A node budget turns pathological
instances into a clean error instead of an open-ended search.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from struct import Struct

from .baselines import AllocationPlan
from .env import SchedulingEnv
from .grid import Tier, _cells
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
    actions: tuple[int, ...]
    # every expanded child, repeated states included; the node budget thus
    # bounds both the work and the size of the table of seen states
    nodes: int


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


# The SchedulingEnv attributes that decide what can follow a live state.
# Everything else reset() sets is fixed per trial, derived from these, or
# a record of the past (tests/test_oracle_table.py checks the split).
KEY_FIELDS = (
    "occupancy", "bt_bits", "et_bits", "bt_count", "et_count", "served",
    "bt_excluded", "phase", "_bt_queue", "_et_rotation", "_active",
)


_DOUBLE = Struct("d")  # array("d")'s native float64 layout


def child_keys(env: SchedulingEnv, actions: list[int]) -> list[bytes]:
    """Exact keys over ``KEY_FIELDS`` of the children that stepping the live
    ``env`` by each of ``actions`` would make, computed without a step.

    A step marks the action's stored first fit, adds its bits to the
    active user's tier and counts it; the rest of what it changes (the
    served flag, the queues, the next active user) follows from those
    fields and the trial's constants.  So a key holds the fields just after
    that add, with the cursor as the parent holds it, and equal keys mean
    equal children.  The counts sum to the depth, so children of different
    depths never share a key.  Cells count only as free or occupied, the
    bits enter as their float64 bytes, unrounded, and the flags one byte
    each.  Every part but the two queues has a fixed length per trial, and
    the first queue is length-prefixed.
    """
    ue = env._active
    et = env.phase == Tier.ET
    grid = env.occupancy
    n_freq, n_time = grid.code.shape
    n_bytes = (n_freq * n_time + 7) // 8
    free = grid.free
    queue = env._bt_queue
    ints = [*env.bt_count, *env.et_count, et, ue, len(queue), *queue, *env._et_rotation]
    slot = ue + et * len(env.bt_count)  # the acting user's entry in its tier
    ints[slot] += 1
    shared = b"".join((
        array("d", env.bt_bits + env.et_bits).tobytes(),
        bytes(env.served + env.bt_excluded),
        array("q", ints).tobytes(),
    ))
    # each child's own bits for the acting user go in the gap
    before, after = shared[: 8 * slot], shared[8 * slot + 8 :]
    bits = (env.et_bits if et else env.bt_bits)[ue]
    added = env._added_bits[ue]
    keys = []
    for action in actions:
        shape = env.shapes[action]
        t, f = env._fits[action]
        cells = _cells(n_freq, t, f, shape.freq_width_units, shape.time_len_units)
        keys.append(b"".join((
            (free ^ cells).to_bytes(n_bytes, "little"),
            before,
            _DOUBLE.pack(bits + added[action]),  # the float add step() makes
            after,
        )))
    return keys


class _Search:
    def __init__(self, env: SchedulingEnv):
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
        """Search below ``env``, which this call owns.  Every feasible child
        is keyed first; only those with an unseen key are made, each by a
        clone of ``env`` but the last, which is ``env`` itself stepped in
        place.  A done env is never stepped again, so the incumbent's leaf
        stays as it was found.

        All siblings' keys enter the table before any sibling is searched.
        That blocks nothing the search would otherwise reach: a key only
        matches a state of its own depth, and below an earlier sibling the
        only state of that depth is the sibling itself."""
        if env.done:
            qoe = env.total_qoe()
            if qoe > self.best_qoe:
                self.best_qoe = qoe
                self.best_actions = prefix
                self.best_env = env
            return
        mask = env.feasible_actions()
        actions = [a for a in self.action_order if mask[a]]
        self.nodes += len(actions)
        if self.nodes > NODE_BUDGET:
            raise SearchSizeError(f"search exceeded node budget {NODE_BUDGET}")
        seen = self.seen
        fresh = []
        for action, key in zip(actions, child_keys(env, actions)):
            if key not in seen:
                seen.add(key)
                fresh.append(action)
        last = len(fresh) - 1
        for i, action in enumerate(fresh):
            child = env if i == last else env.clone()
            child.step(action)
            self.run(child, prefix + (action,))


def oracle_best_plan(config: ScenarioConfig, profiles: tuple[UeProfile, ...]) -> OracleResult:
    """Best total QoE reachable through the environment protocol.

    A child whose key was seen before, leaf or not, is neither made nor
    searched again.  Ties between action sequences with equal QoE resolve
    toward the sequence found first in large-shape-first order, which is
    fixed, so results are deterministic.  The table does not change that
    answer: the incumbent moves only on a strict gain, and a repeated
    child's subtree holds the same leaf values as its first copy, which
    came earlier in that order and reached them.
    """
    env = SchedulingEnv(config)
    _check_size(config, env.n_actions)
    env.reset(profiles)
    search = _Search(env)
    search.run(env.clone(), ())
    return OracleResult(
        plan=search.best_env.plan(),
        actions=search.best_actions,
        nodes=search.nodes,
    )
