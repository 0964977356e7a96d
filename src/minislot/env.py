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
from array import array
from dataclasses import dataclass
from struct import Struct

import numpy as np

from .baselines import AllocationPlan, equal_time_frequency_plan
from .grid import (
    BwpAllocation, BwpShape, Occupancy, Tier, _cells, bwp_shape, live_cells, live_plans,
)
from .qoe import base_tier_qoe, evaluate_ue, ue_scores
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


# a cell's uint8 code is 0 when free, else 1 + 2u for user u's base tier
# and 2 + 2u for its enhancement tier, so at most 127 users fit in 255
MAX_CODED_UES = 127


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
    # (code + 1) >> 1 is u + 1, or 0 when free; divided in float32, as
    # float64 would round twice
    np.divide((code + 1) >> 1, n_ues, out=owner, dtype=np.float32)
    np.equal(code & 1, 0, out=tier_et)  # even codes: ET and free cells
    tier_et *= occupied
    return out


# attribute types clone() copies instead of sharing (tuples, the per-trial
# constants and the mask, are shared); an exact-type set lookup keeps the
# copy cheap (the oracle clones once per search node)
_COPIED_TYPES = frozenset((list, Occupancy))

# relative slack on _bound, far above the rounding of its few float ops
BOUND_SLACK = 1e-9

_DOUBLE = Struct("d")  # array("d")'s native float64 layout
_COUNT = Struct("I")  # a free-cell count: lattices hold under 2**32 cells


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
        if config.n_ues > MAX_CODED_UES:
            raise ValueError(f"n_ues {config.n_ues} exceeds {MAX_CODED_UES}, the cell codes' limit")
        self.dims = config.dims()
        self.shapes: tuple[BwpShape, ...] = tuple(
            bwp_shape(mu, eta, config.grid)
            for mu in config.numerology_set
            for eta in config.minislot_set
        )
        self.n_actions = len(self.shapes)
        self._largest_area = max(shape.area_units for shape in self.shapes)
        self._frame_s = config.frame_duration_s
        self._live_plans = live_plans(
            self.dims.n_freq_units, self.dims.n_time_units, self.shapes
        )
        self.aux_dim = 5 * config.n_ues + 2
        self.profiles: tuple[UeProfile, ...] = ()
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
        self.profiles = profiles = tuple(profiles)  # clones share it; callers cannot edit it
        n = cfg.n_ues

        self.occupancy = Occupancy(self.dims)
        # bits and placement counts per (user, tier): user u's base tier is
        # slot u, its enhancement tier slot n + u
        self.bits = [0.0] * (2 * n)
        self.counts = [0] * (2 * n)
        self.bt_excluded = [False] * n
        # each user's QoE report, recomputed only when its bits change
        self.reports = [evaluate_ue(0.0, 0.0, self._frame_s, p.qoe) for p in profiles]
        # the bits per frame each action adds, per user
        self._added_bits = tuple(
            tuple(shape.area_shz(self.dims) * p.link.spectral_efficiency for shape in self.shapes)
            for p in profiles
        )
        # the bits per frame one cell gives each user, for the bound
        self._cell_bits = tuple(
            self.dims.rb_size_shz * p.link.spectral_efficiency for p in profiles
        )
        self.allocations: list[BwpAllocation] = []
        self.done = False
        self.outcome = None

        equal_split = equal_time_frequency_plan(cfg, profiles)
        self.order = tuple(serving_order([r.q_combined for r in equal_split.reports]))
        self.phase = Tier.BT
        self._et_rotation: list[int] = []
        self._active: int | None = None
        self._mask = (False,) * self.n_actions
        # each action's first fit on the grid the mask was built on
        self._fits: tuple[tuple[int, int] | None, ...] = ()

        terminal = self._resolve_cursor()
        if terminal is not None:
            # stillborn episode: constraints unsatisfiable before any action
            self.done = True
            self.outcome = terminal

    @property
    def served(self) -> list[bool]:
        """Each user's serving flag, read from its report: a user is served
        once its base-tier QoE reaches its minimum, and its base-tier bits
        never change after that."""
        return [report.served for report in self.reports]

    @property
    def step_count(self) -> int:
        """Steps taken this episode: each placed one allocation."""
        return len(self.allocations)

    def feasible_actions(self) -> tuple[bool, ...]:
        """Boolean mask over the action set for the current cursor: the
        tuple the env holds, which clones share."""
        if self.done:
            raise RuntimeError("episode already terminated")
        return self._mask

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

        # 0 stands in for the undefined combined QoE before the user's first
        # base-tier bits, so QoE deltas are well defined from the first
        # allocation on
        q_before = self.reports[ue].q_combined if self.bits[ue] > 0.0 else 0.0
        n = self.config.n_ues
        slot = self._slot(ue, tier)
        self.bits[slot] += self._added_bits[ue][action_index]
        self.counts[slot] += 1
        # a user acts in the base tier only once _bt_hopeless finds it can
        # gain bits there, and in the enhancement tier only once served, so
        # its base-tier bits are positive here
        report = evaluate_ue(self.bits[ue], self.bits[n + ue], self._frame_s, self.profiles[ue].qoe)
        self.reports[ue] = report
        delta = report.q_combined - q_before

        if tier == Tier.ET:
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

    def child_keys(self, actions: list[int]) -> list[bytes]:
        """Keys of the children that ``step`` would make from this live state
        by each of ``actions``, without a step; equal keys mean children with
        equal futures.  A key holds the four attributes that decide what can
        follow a live state, ``occupancy``, ``bits``, ``counts`` and
        ``_et_rotation``; everything else ``reset`` sets is fixed per trial,
        derived from these, or a record of the past.

        A step marks the action's stored first fit, adds its bits to the
        active user's slot for its tier and counts it there; the rest of
        what it changes (the user's report, the rotation, the next active
        user) follows from those fields, the parent's rotation and the
        trial's constants.  So a key holds the grid, bits and counts just
        after that add, and the rotation as the parent holds it.  The
        reports, with their serving flags, and the parent's cursor are left
        out, since they follow from these too: a user is served exactly
        when its base-tier bits are positive and reach its minimum QoE
        (``step`` sets its report at that step, and those bits never change
        after it); the parent is in the enhancement tier exactly when its
        rotation is non-empty, and acts there for the rotation's head; in
        the base tier it acts for the last user in serving order with a
        base-tier placement in the child's counts, since later users have
        none yet.  The counts sum to
        the depth, so children of different depths never share a key.  Of
        the grid, a key holds the child's live cells (``grid.live_cells``)
        and its free-cell count, which ``_bt_hopeless`` reads.  First fits,
        and so the mask, read only free windows, which lie inside the live
        cells, and a cell that is not live never becomes live again:
        children that differ only in such dead cells, or in who owns a
        cell, have the same future.  The bits enter as their float64 bytes,
        unrounded.  Every part but the rotation, which comes last, has a
        fixed length per trial.
        """
        ue = self._active
        n_freq, n_time = self.occupancy.code.shape
        n_bytes = (n_freq * n_time + 7) // 8
        free = self.occupancy.free
        n_free = free.bit_count()
        plans = self._live_plans
        ints = [*self.counts, *self._et_rotation]
        slot = self._slot(ue, self.phase)
        ints[slot] += 1
        shared = array("d", self.bits).tobytes() + array("q", ints).tobytes()
        # each child's own bits for the acting user go in the gap
        before, after = shared[: 8 * slot], shared[8 * slot + 8 :]
        bits = self.bits[slot]
        added = self._added_bits[ue]
        keys = []
        for action in actions:
            shape = self.shapes[action]
            t, f = self._fits[action]
            cells = _cells(n_freq, t, f, shape.freq_width_units, shape.time_len_units)
            keys.append(b"".join((
                live_cells(free ^ cells, plans).to_bytes(n_bytes, "little"),
                _COUNT.pack(n_free - shape.area_units),
                before,
                _DOUBLE.pack(bits + added[action]),  # the float add step() makes
                after,
            )))
        return keys

    def _slot(self, ue: int, tier: Tier) -> int:
        """User ``ue``'s entry for ``tier`` in ``bits`` and ``counts``."""
        return ue + (tier == Tier.ET) * self.config.n_ues

    # ---------- cursor resolution ----------

    def _resolve_cursor(self) -> str | None:
        """Advance the cursor to the next user with a feasible action.

        Returns "violation" when some pending user provably cannot reach its
        minimum QoE (or only peak-cap-breaching allocations remain, which
        excludes it from the base tier), "success" when every user has been
        processed for both tiers, and None when the episode continues.
        """
        if self.phase == Tier.BT:
            # the base tier serves users in order, each until it is served
            ue = next((ue for ue in self.order if not self.reports[ue].served), None)
            if ue is None:
                # every user is served: hand out the enhancement tier
                # round-robin
                self.phase = Tier.ET
                self._et_rotation = list(self.order)
            elif self._bt_hopeless(ue):
                return "violation"
            else:
                mask, fits = self._mask_detail(ue, Tier.BT)
                if True not in mask:
                    # excluded when shapes fit but each would breach the cap
                    self.bt_excluded[ue] = any(fit is not None for fit in fits)
                    return "violation"
        if self.phase == Tier.ET:
            while self._et_rotation:
                ue = self._et_rotation[0]
                mask, fits = self._mask_detail(ue, Tier.ET)
                if True in mask:
                    break
                self._et_rotation.pop(0)  # occupancy only grows: drop for good
            else:
                # every user is through both tiers: no cursor, nothing feasible
                ue, mask, fits = None, (), ()
        self._active, self._mask, self._fits = ue, mask, fits
        return "success" if ue is None else None

    def _mask_detail(
        self, ue: int, tier: Tier
    ) -> tuple[tuple[bool, ...], tuple[tuple[int, int] | None, ...]]:
        """(feasible mask, each action's first fit) for one user and tier;
        both empty once the user's placements for the tier are capped."""
        cap = self.config.max_bwps_per_ue_tier
        if cap is not None and self.counts[self._slot(ue, tier)] >= cap:
            return (), ()
        find_first_fit = self.occupancy.find_first_fit
        fits = tuple(find_first_fit(shape) for shape in self.shapes)
        base_tier = tier == Tier.BT
        bits = self.bits[ue]
        qp = self.profiles[ue].qoe
        # a base-tier placement must also keep the user within its peak
        mask = tuple(
            pos is not None
            and not (base_tier and base_tier_qoe(bits + added, self._frame_s, qp) > qp.peak_qoe)
            for pos, added in zip(fits, self._added_bits[ue])
        )
        return mask, fits

    def child_bounds(self, actions: list[int]) -> list[float]:
        """The bound (``_bound``) of the child that ``step`` would make from
        this live state by each of ``actions``, without a clone or a step.

        It reads the child's fields just after the step's add, as
        ``child_keys`` does: the acting user's bits with the action's bits
        added (the same float add), its count plus one, the free count less
        the shape's cells and, in the base tier, its served flag from the
        base-tier QoE test ``step`` applies.  The phase is the parent's: a
        step leaves the base tier only once every user is served, and then
        the bound reads no phase.  So a child that stays live has this bound bit for bit, and a
        terminal child, whose fields are the same, a total no higher.
        """
        ue = self._active
        et = self.phase == Tier.ET
        slot = self._slot(ue, self.phase)
        bits, counts, served = self.bits.copy(), self.counts.copy(), self.served
        counts[slot] += 1
        parent_bits = bits[slot]
        added = self._added_bits[ue]
        qp = self.profiles[ue].qoe
        free = self.occupancy.free_units()
        # these fields depend on the action only through its shape's area,
        # which fixes the bits it adds too, so equal areas share a bound
        by_area: dict[int, float] = {}
        for action in actions:
            area = self.shapes[action].area_units
            if area in by_area:
                continue
            bits[slot] = child_bits = parent_bits + added[action]  # the float add step() makes
            if not et:
                # the base tier's active user is unserved until this test
                served[ue] = (
                    child_bits > 0.0
                    and base_tier_qoe(child_bits, self._frame_s, qp) >= qp.min_qoe
                )
            by_area[area] = self._bound(free - area, bits, counts, served)
        return [by_area[self.shapes[action].area_units] for action in actions]

    def _bound(self, free: int, bits, counts, served) -> float:
        """At least the total QoE of every terminal state below a live state
        of this trial and phase with these free-cell count, per-slot bits and
        counts, and serving flags.  Each user gains, per tier it can still be
        given (the base tier only while unserved in phase BT), its remaining
        placements times the largest shape's cells, or every free cell if
        fewer.  It adds 0 if it stays unserved below its minimum even then,
        never less than 0, and a slack for rounding.  That needs more bits
        never to lower a QoE, so with a slope ``b`` below 0, or no cap on
        placements, this is inf."""
        cap = self.config.max_bwps_per_ue_tier
        if cap is None:
            return math.inf
        largest = self._largest_area
        base_tier = self.phase == Tier.BT
        frame_s = self._frame_s
        n = self.config.n_ues
        total = 0.0
        for ue, profile in enumerate(self.profiles):
            qp = profile.qoe
            if qp.b < 0.0:
                return math.inf
            bt, et = bits[ue], bits[n + ue]
            cell_bits = self._cell_bits[ue]
            unserved = not served[ue]
            if base_tier and unserved:
                bt += min(free, (cap - counts[ue]) * largest) * cell_bits
            if bt <= 0.0:
                continue
            et += min(free, (cap - counts[n + ue]) * largest) * cell_bits
            q_bt, q = ue_scores(bt, et, frame_s, qp)
            slack = BOUND_SLACK * (abs(q_bt) + abs(q) + abs(qp.a) + abs(qp.b))
            if unserved and q_bt + slack < qp.min_qoe:
                continue
            total += max(q, 0.0) + slack
        return total

    def _bt_hopeless(self, ue: int) -> bool:
        """Optimistic bound: could this user reach its minimum QoE given every
        free cell at its own spectral efficiency?"""
        profile = self.profiles[ue]
        potential = self.bits[ue] + (
            self.occupancy.free_units()
            * self.dims.rb_size_shz
            * profile.link.spectral_efficiency
        )
        return (
            potential <= 0.0
            or base_tier_qoe(potential, self._frame_s, profile.qoe)
            < profile.qoe.min_qoe
        )

    # ---------- observations and results ----------

    def compact_observation(self) -> tuple[np.ndarray, np.ndarray]:
        """(uint8 cell grid, float32 aux vector); cheap enough to store."""
        n = self.config.n_ues
        aux = np.zeros(self.aux_dim, dtype=np.float32)
        for ue, report in enumerate(self.reports):
            base = 4 * ue
            if self.bits[ue] > 0.0:
                min_qoe = self.profiles[ue].qoe.min_qoe
                aux[base] = report.q_bt / min_qoe
                aux[base + 1] = report.q_combined / min_qoe
            aux[base + 2] = 1.0 if report.served else 0.0
            aux[base + 3] = 1.0 if self.bt_excluded[ue] else 0.0
        if self._active is not None and not self.done:
            aux[4 * n + self._active] = 1.0
        aux[5 * n] = 1.0 if self.phase == Tier.ET else 0.0
        aux[5 * n + 1] = self.step_count / self.reward_params.max_steps
        return self.occupancy.code.copy(), aux

    def total_qoe(self) -> float:
        """Sum of combined QoE over served users only."""
        return float(sum(report.q_combined for report in self.reports if report.served))

    def plan(self) -> AllocationPlan:
        """The episode's placements with each user's QoE report."""
        return AllocationPlan(tuple(self.allocations), tuple(self.reports))

    def clone(self) -> "SchedulingEnv":
        """Independent copy of the live episode (used by exhaustive search).

        Every list and grid attribute is copied, whatever ``reset()`` set;
        tuples, such as the trial's profiles and the mask, are shared.
        """
        other = SchedulingEnv.__new__(SchedulingEnv)
        # dict(), not .copy(): a copy keeps the class's shared-key table,
        # on which CPython 3.11 leaves attribute loads unspecialized, and
        # the oracle calls most env methods on clones
        state = other.__dict__ = dict(self.__dict__)
        for name, value in state.items():
            if type(value) in _COPIED_TYPES:
                state[name] = value.copy()
        return other
