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

import json
import math
from dataclasses import dataclass

import numpy as np

from .baselines import equal_time_frequency_plan
from .grid import BwpAllocation, BwpShape, Occupancy, Tier, bwp_shape
from .qoe import base_tier_qoe, evaluate_ue, ue_rates, ue_scores
# perfbench/spans.py counts calls through these module globals
from .qoe import combined_qoe, effective_rate, qoe_fn  # noqa: F401
from .scenario import (
    STREAM_SCENARIO,
    ScenarioConfig,
    UeProfile,
    sample_scenario,
    stream_rng,
)


@dataclass(frozen=True)
class RewardParams:
    """Reward shaping constants."""

    qoe_weight: float = 0.5  # mix between QoE gain and time penalty
    time_penalty: float = -0.01
    success_bonus: float = 500.0
    violation_penalty: float = -2.0
    discount: float = 0.99
    max_steps: int = 1000


def serving_order(qoe_values: list[float]) -> list[int]:
    """User indices by descending QoE value; ties broken by lower index.
    NaN (no rate) sorts last."""
    keyed = [
        (-(v if not math.isnan(v) else -math.inf), i)
        for i, v in enumerate(qoe_values)
    ]
    return [i for _, i in sorted(keyed)]


def expand_cells(cell_code: np.ndarray, n_ues: int) -> np.ndarray:
    """uint8 cell codes -> float32 observation channels.

    Channel 0: occupancy, 1: owner index scaled to (0, 1], 2: enhancement
    tier flag.  Works on a single (F, T) grid or a batch (B, F, T).
    """
    code = np.asarray(cell_code)
    occupied = code > 0
    owner = np.where(occupied, ((code.astype(np.int16) - 1) >> 1) + 1, 0)
    tier_et = occupied & (((code - 1) & 1) == 1)
    channels = np.stack(
        [
            occupied.astype(np.float32),
            owner.astype(np.float32) / float(n_ues),
            tier_et.astype(np.float32),
        ],
        axis=-3,
    )
    return channels


# attribute types clone() copies instead of sharing; an exact-type set
# lookup keeps the copy cheap (the oracle clones once per search node)
_COPIED_TYPES = frozenset((np.ndarray, list, Occupancy))


class SchedulingEnv:
    """Stateful environment; reset() then alternate feasible_actions()/step()."""

    def __init__(
        self,
        config: ScenarioConfig,
        reward: RewardParams | None = None,
        record_trace: bool = False,
    ):
        self.config = config
        self.reward_params = reward or RewardParams()
        self.record_trace = record_trace
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

    def reset(
        self,
        rng: np.random.Generator | None = None,
        profiles: list[UeProfile] | None = None,
    ) -> None:
        """Start a new episode.

        Scenario comes from ``profiles`` when given, else is sampled with
        ``rng`` (default: the config's own scenario stream, i.e. a fixed
        instance).
        """
        cfg = self.config
        if profiles is None:
            if rng is None:
                rng = stream_rng(cfg.rng_seed, STREAM_SCENARIO)
            profiles = sample_scenario(cfg, rng)
        if len(profiles) != cfg.n_ues:
            raise ValueError(
                f"scenario has {len(profiles)} users, config expects {cfg.n_ues}"
            )
        self.profiles = profiles
        n = cfg.n_ues

        self.occupancy = Occupancy(self.dims)
        self.bt_bits = np.zeros(n)
        self.et_bits = np.zeros(n)
        self.served = np.zeros(n, dtype=bool)
        self.bt_excluded = np.zeros(n, dtype=bool)
        self.bt_count = np.zeros(n, dtype=np.int64)
        self.et_count = np.zeros(n, dtype=np.int64)
        self.allocations: list[BwpAllocation] = []
        self.step_count = 0
        self.done = False
        self.outcome = None
        self.trace: list[dict] = []

        equal_split = equal_time_frequency_plan(cfg, profiles)
        self.order = serving_order([r.q_combined for r in equal_split.reports])
        self.phase = Tier.BT
        self._bt_queue = list(self.order)
        self._et_rotation: list[int] = []
        self._active: int | None = None
        self._mask = np.zeros(self.n_actions, dtype=bool)

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
        # cell code layout: see expand_cells
        pos = self.occupancy.place(shape, 1 + 2 * ue + (tier == Tier.ET))
        assert pos is not None  # guaranteed by the mask
        self.allocations.append(BwpAllocation(ue, tier, shape, *pos))

        q_before = self._q_tilde_or_zero(ue)
        profile = self.profiles[ue]
        added_bits = shape.area_shz(self.dims) * profile.link.spectral_efficiency
        if tier == Tier.BT:
            self.bt_bits[ue] += added_bits
            self.bt_count[ue] += 1
        else:
            self.et_bits[ue] += added_bits
            self.et_count[ue] += 1
        delta = self._q_tilde_or_zero(ue) - q_before
        self.step_count += 1

        if tier == Tier.BT and self._q_bt(ue) >= profile.qoe.min_qoe:
            self.served[ue] = True
            self._bt_queue.pop(0)
        elif tier == Tier.ET:
            self._et_rotation.append(self._et_rotation.pop(0))

        terminal = self._resolve_cursor()
        if terminal is None and self.step_count >= self.reward_params.max_steps:
            terminal = "success" if self.served.all() else "violation"

        rp = self.reward_params
        if terminal is not None:
            self.done = True
            self.outcome = terminal
            reward = (
                rp.success_bonus if terminal == "success" else rp.violation_penalty
            )
            branch = terminal
        else:
            reward = rp.qoe_weight * delta + (1.0 - rp.qoe_weight) * rp.time_penalty
            branch = "delta"

        if self.record_trace:
            self.trace.append(
                {
                    "t": self.step_count - 1,
                    "ue": ue,
                    "tier": tier.value,
                    "action": {"mu": shape.mu, "eta": shape.eta},
                    "placement": {
                        "time_offset": pos[0],
                        "freq_offset": pos[1],
                        "time_len": shape.time_len_units,
                        "freq_width": shape.freq_width_units,
                    },
                    "reward": reward,
                    "branch": branch,
                    "q_tilde": [self._q_tilde_or_zero(i) for i in range(len(self.profiles))],
                }
            )
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
            while self._bt_queue:
                ue = self._bt_queue[0]
                if self.served[ue]:
                    self._bt_queue.pop(0)
                    continue
                if self._bt_hopeless(ue):
                    return "violation"
                mask, any_placeable = self._mask_detail(ue, Tier.BT)
                if not mask.any():
                    if any_placeable:
                        # every remaining placement would breach the peak cap
                        self.bt_excluded[ue] = True
                    return "violation"
                self._active = ue
                self._mask = mask
                return None
            # base tier complete for everyone (all served, else we'd have
            # terminated above); hand out enhancement tier round-robin
            self.phase = Tier.ET
            self._et_rotation = list(self.order)
        while self._et_rotation:
            ue = self._et_rotation[0]
            mask, _ = self._mask_detail(ue, Tier.ET)
            if mask.any():
                self._active = ue
                self._mask = mask
                return None
            self._et_rotation.pop(0)  # occupancy only grows: drop for good
        self._active = None
        return "success"

    def _mask_detail(self, ue: int, tier: Tier) -> tuple[np.ndarray, bool]:
        """(feasible mask, whether anything is placeable ignoring the cap on
        base-tier QoE) for one user and tier."""
        mask = np.zeros(self.n_actions, dtype=bool)
        cap = self.config.max_bwps_per_ue_tier
        if cap is not None:
            count = self.bt_count[ue] if tier == Tier.BT else self.et_count[ue]
            if count >= cap:
                return mask, False
        profile = self.profiles[ue]
        any_placeable = False
        for i, shape in enumerate(self.shapes):
            if self.occupancy.find_first_fit(shape) is None:
                continue
            any_placeable = True
            if tier == Tier.BT:
                bits = (
                    self.bt_bits[ue]
                    + shape.area_shz(self.dims) * profile.link.spectral_efficiency
                )
                q_after = base_tier_qoe(bits, self.config.frame_duration_s, profile.qoe)
                if q_after > profile.qoe.peak_qoe:
                    continue
            mask[i] = True
        return mask, any_placeable

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

    # ---------- per-user QoE bookkeeping ----------

    def _q_bt(self, ue: int) -> float:
        if self.bt_bits[ue] <= 0.0:
            return -math.inf
        return base_tier_qoe(
            self.bt_bits[ue], self.config.frame_duration_s, self.profiles[ue].qoe
        )

    def _q_tilde_or_zero(self, ue: int) -> float:
        """Combined QoE, with 0 standing in for the undefined zero-rate case
        so QoE deltas are well defined from the first allocation on."""
        if self.bt_bits[ue] <= 0.0:
            return 0.0
        qp = self.profiles[ue].qoe
        rates = ue_rates(self.bt_bits[ue], self.et_bits[ue], self.config.frame_duration_s, qp)
        return ue_scores(*rates, qp)[1]

    # ---------- observations and results ----------

    def compact_observation(self) -> tuple[np.ndarray, np.ndarray]:
        """(uint8 cell grid, float32 aux vector); cheap enough to store."""
        n = self.config.n_ues
        aux = np.zeros(self.aux_dim, dtype=np.float32)
        for ue in range(n):
            profile = self.profiles[ue]
            base = 4 * ue
            if self.bt_bits[ue] > 0.0:
                aux[base] = self._q_bt(ue) / profile.qoe.min_qoe
                aux[base + 1] = self._q_tilde_or_zero(ue) / profile.qoe.min_qoe
            aux[base + 2] = 1.0 if self.served[ue] else 0.0
            aux[base + 3] = 1.0 if self.bt_excluded[ue] else 0.0
        if self._active is not None and not self.done:
            aux[4 * n + self._active] = 1.0
        aux[5 * n] = 1.0 if self.phase == Tier.ET else 0.0
        aux[5 * n + 1] = self.step_count / self.reward_params.max_steps
        return self.occupancy.code.copy(), aux

    def encode(self) -> tuple[np.ndarray, np.ndarray]:
        """(float32 channels (3, F, T), float32 aux vector) for the network."""
        code, aux = self.compact_observation()
        return expand_cells(code, self.config.n_ues), aux

    def per_ue_qoe(self) -> list[float]:
        """Combined QoE per user, counting unserved users as zero."""
        return [
            self._q_tilde_or_zero(ue) if self.served[ue] else 0.0
            for ue in range(self.config.n_ues)
        ]

    def total_qoe(self) -> float:
        """Sum of combined QoE over served users only."""
        return float(
            sum(self._q_tilde_or_zero(ue) for ue in range(self.config.n_ues) if self.served[ue])
        )

    def reports(self):
        """Recompute per-user QoE reports from accumulated bits (the serving
        flags must agree with the protocol's own bookkeeping)."""
        return [
            evaluate_ue(
                self.bt_bits[ue],
                self.et_bits[ue],
                self.config.frame_duration_s,
                self.profiles[ue].qoe,
            )
            for ue in range(self.config.n_ues)
        ]

    def export_trace(self, fileobj) -> None:
        """Write the recorded episode trace as JSON lines."""
        for record in self.trace:
            fileobj.write(json.dumps(record) + "\n")

    def clone(self) -> "SchedulingEnv":
        """Independent copy of the live episode (used by exhaustive search).

        Every array, list and grid attribute is copied, whatever ``reset()``
        set; the copy records no trace.
        """
        other = SchedulingEnv.__new__(SchedulingEnv)
        state = other.__dict__ = self.__dict__.copy()
        for name, value in state.items():
            if type(value) in _COPIED_TYPES:
                state[name] = value.copy()
        other.record_trace = False
        other.trace = []
        return other
