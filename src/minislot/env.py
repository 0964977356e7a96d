"""Episodic scheduling environment over the mini-slot resource grid.

One agent serves all users of a trial.  An episode walks a fixed protocol:
users are ordered by their QoE under an equal time-frequency split, each in
turn receives base-tier BWPs until its minimum QoE is met (actions that
would push base-tier QoE past the peak cap are masked; if only such actions
remain the user is excluded from the base tier), then enhancement-tier BWPs
are handed out round-robin while any still fit.  Every step places exactly
one BWP chosen by a (numerology, mini-slot length) action; placement itself
is deterministic first-fit, so the process is an MDP over action indices.

Rewards follow a three-branch rule: a weighted mix of the active user's QoE
gain and a constant per-step time penalty mid-episode, a terminal bonus
when every user ends up served, and a violation penalty that ends the
episode as soon as some user provably cannot reach its minimum QoE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import AllocationPlan, equal_time_frequency_plan
from .grid import BwpAllocation, BwpShape, Occupancy, Tier, bwp_shape
from .qoe import base_tier_qoe, evaluate_ue, ue_rates, ue_scores
# perfbench/spans.py counts calls through these module globals
from .qoe import combined_qoe, effective_rate, qoe_fn  # noqa: F401
from .scenario import ScenarioConfig, UeProfile


@dataclass(frozen=True)
class RewardParams:
    """Reward shaping constants."""

    qoe_weight: float = 0.5  # mix between QoE gain and time penalty
    time_penalty: float = -0.01
    success_bonus: float = 500.0
    violation_penalty: float = -2.0
    discount: float = 0.99
    max_steps: int = 1000

    def __post_init__(self) -> None:
        # NaN fails the comparison too; max_steps is checked where an
        # environment is built
        for name in (
            "qoe_weight", "time_penalty", "success_bonus", "violation_penalty", "discount"
        ):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ValueError(f"reward {name} must be finite, got {getattr(self, name)}")


def serving_order(qoe_values: list[float]) -> list[int]:
    """User indices by descending QoE value; ties broken by lower index.
    NaN (no rate) sorts last."""
    keyed = [
        (-(v if not math.isnan(v) else -math.inf), i)
        for i, v in enumerate(qoe_values)
    ]
    return [i for _, i in sorted(keyed)]


def expand_cells(
    cell_code: np.ndarray, n_ues: int, out: np.ndarray | None = None
) -> np.ndarray:
    """uint8 cell codes -> float32 observation channels.

    Channel 0: occupancy, 1: owner index scaled to (0, 1], 2: enhancement
    tier flag.  Works on a single (F, T) grid or a batch (B, F, T).  Given
    ``out``, a float32 array of at least B rows of (3, F, T), a batch is
    written into the leading rows, which are returned.
    """
    code = np.asarray(cell_code)
    if out is None:
        out = np.empty(code.shape[:-2] + (3,) + code.shape[-2:], np.float32)
    else:
        out = out[: code.shape[0]]
    occupied, owner, tier_et = (out[..., c, :, :] for c in range(3))
    # a free cell is 0; user u's cells are 1 + 2u (base tier), 2 + 2u (ET)
    np.greater(code, 0, out=occupied)
    np.add(code, 1, out=tier_et, dtype=np.float32)
    np.multiply(tier_et, 0.5, out=owner)
    np.floor(owner, out=owner)  # u + 1, or 0 when free
    tier_et -= owner
    tier_et -= owner  # (code + 1) mod 2: 1 for ET and free cells
    tier_et *= occupied
    owner /= n_ues  # rounded to float32, not computed in float64
    return out


# attribute types clone() copies instead of sharing (tuples, the per-trial
# constants, are shared); an exact-type set lookup keeps the copy cheap (the
# oracle clones once per search node)
_COPIED_TYPES = frozenset((np.ndarray, list, Occupancy))

# (base-tier QoE, combined QoE) of a user with no base-tier bits: 0 stands
# in for the undefined combined QoE so QoE deltas are well defined from the
# first allocation on
_NO_SCORES = (-math.inf, 0.0)


class SchedulingEnv:
    """Stateful environment; reset() then alternate feasible_actions()/step()."""

    def __init__(
        self,
        config: ScenarioConfig,
        reward: RewardParams | None = None,
    ):
        self.config = config
        self.reward_params = reward or RewardParams()
        if self.reward_params.max_steps < 1:
            raise ValueError(
                f"reward max_steps must be at least 1, got {self.reward_params.max_steps}"
            )
        self.dims = config.dims()
        self.action_set: tuple[tuple[int, int], ...] = tuple(
            (mu, eta) for mu in config.numerology_set for eta in config.minislot_set
        )
        self.shapes: tuple[BwpShape, ...] = tuple(
            bwp_shape(mu, eta, config.grid) for mu, eta in self.action_set
        )
        self.n_actions = len(self.action_set)
        self.aux_dim = 5 * config.n_ues + 2
        self.profiles: list[UeProfile] = []
        self.done = True
        self.outcome: str | None = None

    # ---------- lifecycle ----------

    def reset(self, profiles: list[UeProfile]) -> None:
        """Start a new episode on the trial whose users are ``profiles``."""
        cfg = self.config
        if len(profiles) != cfg.n_ues:
            raise ValueError(
                f"scenario has {len(profiles)} users, config expects {cfg.n_ues}"
            )
        self.profiles = profiles
        n = cfg.n_ues

        self.occupancy = Occupancy(self.dims)
        self.bt_bits = [0.0] * n
        self.et_bits = [0.0] * n
        self.served = [False] * n
        self.bt_excluded = [False] * n
        self.bt_count = [0] * n
        self.et_count = [0] * n
        # each user's scores, recomputed only when its bits change
        self._scores = [_NO_SCORES] * n
        # the bits per frame each action adds, per user
        self._added_bits = tuple(
            tuple(shape.area_shz(self.dims) * p.link.spectral_efficiency for shape in self.shapes)
            for p in profiles
        )
        self.allocations: list[BwpAllocation] = []
        self.step_count = 0
        self.done = False
        self.outcome = None

        equal_split = equal_time_frequency_plan(cfg, profiles)
        self.order = tuple(serving_order([r.q_combined for r in equal_split.reports]))
        self.phase = Tier.BT
        self._bt_queue = list(self.order)
        self._et_rotation: list[int] = []
        self._active: int | None = None
        self._mask = np.zeros(self.n_actions, dtype=bool)
        # each action's first fit on the grid the mask was built on
        self._fits: tuple[tuple[int, int] | None, ...] = ()

        terminal = self._resolve_cursor()
        if terminal is not None:
            # stillborn episode: constraints unsatisfiable before any action
            self.done = True
            self.outcome = terminal

    @property
    def active_ue(self) -> int | None:
        return self._active if not self.done else None

    def feasible_actions(self) -> np.ndarray:
        """Boolean mask over the action set for the current cursor."""
        if self.done:
            raise RuntimeError("episode already terminated")
        return self._mask.copy()

    def step(self, action_index: int) -> tuple[float, bool]:
        """Place one BWP for the active user; returns (reward, done)."""
        if self.done:
            raise RuntimeError("episode already terminated")
        if not 0 <= action_index < self.n_actions:
            raise ValueError(f"action index {action_index} out of range")
        if not self._mask[action_index]:
            raise ValueError(f"action {action_index} is masked in this state")

        ue = self._active
        tier = self.phase
        shape = self.shapes[action_index]
        # the grid has not changed since the mask found this fit
        t, f = self._fits[action_index]
        # cell code layout: see expand_cells
        self.occupancy.mark(t, f, shape, 1 + 2 * ue + (tier == Tier.ET))
        self.allocations.append(BwpAllocation(ue, tier, shape, t, f))

        q_before = self._scores[ue][1]
        added_bits = self._added_bits[ue][action_index]
        if tier == Tier.BT:
            self.bt_bits[ue] += added_bits
            self.bt_count[ue] += 1
        else:
            self.et_bits[ue] += added_bits
            self.et_count[ue] += 1
        qp = self.profiles[ue].qoe
        if self.bt_bits[ue] > 0.0:
            rates = ue_rates(
                self.bt_bits[ue], self.et_bits[ue], self.config.frame_duration_s, qp
            )
            self._scores[ue] = ue_scores(*rates, qp)
        q_bt, q_combined = self._scores[ue]
        delta = q_combined - q_before
        self.step_count += 1

        if tier == Tier.BT and q_bt >= qp.min_qoe:
            self.served[ue] = True
            self._bt_queue.pop(0)
        elif tier == Tier.ET:
            self._et_rotation.append(self._et_rotation.pop(0))

        terminal = self._resolve_cursor()
        if terminal is None and self.step_count >= self.reward_params.max_steps:
            terminal = "success" if all(self.served) else "violation"

        rp = self.reward_params
        if terminal is not None:
            self.done = True
            self.outcome = terminal
            reward = (
                rp.success_bonus if terminal == "success" else rp.violation_penalty
            )
        else:
            reward = rp.qoe_weight * delta + (1.0 - rp.qoe_weight) * rp.time_penalty
        return reward, self.done

    # ---------- cursor resolution ----------

    def _resolve_cursor(self) -> str | None:
        """Advance the cursor to the next user with a feasible action.

        Returns "violation" when some pending user provably cannot reach its
        minimum QoE (or only peak-cap-breaching allocations remain, which
        excludes it from the base tier), "success" when every user has been
        processed for both tiers, and None when the episode continues.
        """
        if self.phase == Tier.BT:
            if self._bt_queue:  # its head is the next unserved user
                ue = self._bt_queue[0]
                if self._bt_hopeless(ue):
                    return "violation"
                mask, fits, placeable, feasible = self._mask_detail(ue, Tier.BT)
                if not feasible:
                    if placeable:
                        # every remaining placement would breach the peak cap
                        self.bt_excluded[ue] = True
                    return "violation"
                self._active = ue
                self._mask, self._fits = mask, fits
                return None
            # base tier complete for everyone (all served, else we'd have
            # terminated above); hand out enhancement tier round-robin
            self.phase = Tier.ET
            self._et_rotation = list(self.order)
        while self._et_rotation:
            ue = self._et_rotation[0]
            mask, fits, _, feasible = self._mask_detail(ue, Tier.ET)
            if feasible:
                self._active = ue
                self._mask, self._fits = mask, fits
                return None
            self._et_rotation.pop(0)  # occupancy only grows: drop for good
        self._active = None
        return "success"

    def _mask_detail(
        self, ue: int, tier: Tier
    ) -> tuple[np.ndarray, tuple[tuple[int, int] | None, ...], bool, bool]:
        """(feasible mask, each action's first fit, whether anything is
        placeable ignoring the cap on base-tier QoE, whether anything is
        feasible) for one user and tier."""
        mask = np.zeros(self.n_actions, dtype=bool)
        cap = self.config.max_bwps_per_ue_tier
        if cap is not None:
            count = self.bt_count[ue] if tier == Tier.BT else self.et_count[ue]
            if count >= cap:
                return mask, (), False, False
        find_first_fit = self.occupancy.find_first_fit
        fits = tuple(find_first_fit(shape) for shape in self.shapes)
        qp = self.profiles[ue].qoe
        added_bits = self._added_bits[ue]
        placeable = feasible = False
        for i, pos in enumerate(fits):
            if pos is None:
                continue
            placeable = True
            if tier == Tier.BT:
                bits = self.bt_bits[ue] + added_bits[i]
                q_after = base_tier_qoe(bits, self.config.frame_duration_s, qp)
                if q_after > qp.peak_qoe:
                    continue
            mask[i] = feasible = True
        return mask, fits, placeable, feasible

    def _bt_hopeless(self, ue: int) -> bool:
        """Optimistic bound: could this user reach its minimum QoE given every
        free cell at its own spectral efficiency?"""
        profile = self.profiles[ue]
        potential = self.bt_bits[ue] + (
            self.occupancy.free_units()
            * self.dims.rb_size_shz
            * profile.link.spectral_efficiency
        )
        return (
            potential <= 0.0
            or base_tier_qoe(potential, self.config.frame_duration_s, profile.qoe)
            < profile.qoe.min_qoe
        )

    # ---------- observations and results ----------

    def compact_observation(self) -> tuple[np.ndarray, np.ndarray]:
        """(uint8 cell grid, float32 aux vector); cheap enough to store."""
        n = self.config.n_ues
        aux = np.zeros(self.aux_dim, dtype=np.float32)
        for ue in range(n):
            base = 4 * ue
            if self.bt_bits[ue] > 0.0:
                q_bt, q_combined = self._scores[ue]
                min_qoe = self.profiles[ue].qoe.min_qoe
                aux[base] = q_bt / min_qoe
                aux[base + 1] = q_combined / min_qoe
            aux[base + 2] = 1.0 if self.served[ue] else 0.0
            aux[base + 3] = 1.0 if self.bt_excluded[ue] else 0.0
        if self._active is not None and not self.done:
            aux[4 * n + self._active] = 1.0
        aux[5 * n] = 1.0 if self.phase == Tier.ET else 0.0
        aux[5 * n + 1] = self.step_count / self.reward_params.max_steps
        return self.occupancy.code.copy(), aux

    def total_qoe(self) -> float:
        """Sum of combined QoE over served users only."""
        return float(sum(q for (_, q), served in zip(self._scores, self.served) if served))

    def plan(self) -> AllocationPlan:
        """The episode's placements with per-user QoE reports recomputed from
        the accumulated bits (the serving flags must agree with the
        protocol's own bookkeeping)."""
        reports = tuple(
            evaluate_ue(
                self.bt_bits[ue],
                self.et_bits[ue],
                self.config.frame_duration_s,
                self.profiles[ue].qoe,
            )
            for ue in range(self.config.n_ues)
        )
        return AllocationPlan(tuple(self.allocations), reports)

    def clone(self) -> "SchedulingEnv":
        """Independent copy of the live episode (used by exhaustive search).

        Every array, list and grid attribute is copied, whatever ``reset()``
        set.
        """
        other = SchedulingEnv.__new__(SchedulingEnv)
        state = other.__dict__ = self.__dict__.copy()
        for name, value in state.items():
            if type(value) in _COPIED_TYPES:
                state[name] = value.copy()
        return other
