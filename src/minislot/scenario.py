"""Trial scenario sampling: user placement, FoV statistics, link states.

Each trial draws per-user distances uniformly on [min_distance, cell_radius]
and a field-of-view probability from a normal distribution truncated to
[0.6, 1.0] via rejection sampling.  Random streams are split by purpose and
trial index with ``numpy.random.SeedSequence`` spawn keys so any trial is
reproducible in isolation and safe to evaluate in parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import MAX_MINISLOT_SYMBOLS, GridSpec, derive_grid
from .qoe import QoeParams
from .radio import LinkParams, LinkState

# spawn-key stream tags; a tag's number keys its stream's draws, so none
# is renumbered (0 is unused)
STREAM_EPISODE = 1
STREAM_TRIAL = 2
STREAM_WEIGHTS = 3
STREAM_ACTIONS = 4
STREAM_REPLAY = 5


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, purpose, index...) without needing
    to draw the streams in order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class FovModel:
    """Truncated-normal field-of-view probability model."""

    parent_mean: float = 0.8
    parent_var: float = 0.49
    low: float = 0.6
    high: float = 1.0
    max_draws: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0.0 <= self.low < self.high <= 1.0):
            raise ValueError(
                f"FoV support must satisfy 0 <= low < high <= 1, got "
                f"[{self.low}, {self.high}]"
            )
        if self.parent_var <= 0:
            raise ValueError(f"parent_var must be positive, got {self.parent_var}")

    def support_mass(self) -> float:
        """Probability that one draw of the parent normal lands in support."""
        scale = math.sqrt(2.0 * self.parent_var)
        return 0.5 * (
            math.erf((self.high - self.parent_mean) / scale)
            - math.erf((self.low - self.parent_mean) / scale)
        )

    def check_reachable(self) -> None:
        """Refuse a support that all ``max_draws`` draws miss with a chance
        above 1e-9, or fewer than one draw or more than a float holds,
        before any draw is made."""
        if self.max_draws < 1:
            raise ValueError(f"FoV max_draws must be at least 1, got {self.max_draws}")
        if self.max_draws > sys.float_info.max:
            raise ValueError(f"FoV max_draws must be at most {sys.float_info.max:.3g}")
        mass = self.support_mass()
        miss = (1.0 - mass) ** self.max_draws
        if not miss <= 1e-9:  # NaN included
            raise ValueError(
                f"FoV support [{self.low}, {self.high}] holds {mass:.3g} of the "
                f"parent normal's mass: {self.max_draws} draws miss it with "
                f"probability {miss:.3g}"
            )


def sample_fov_prob(rng: np.random.Generator, model: FovModel) -> float:
    """Rejection-sample the parent normal until a draw lands in support.

    The default support keeps about 22% of parent draws.
    ``sample_scenario`` first refuses a support that ``max_draws`` draws
    could miss (``FovModel.check_reachable``), so the retry guard is a
    backstop that turns a degenerate model into an error, not a hang.
    """
    sigma = model.parent_var**0.5
    for _ in range(model.max_draws):
        draw = rng.normal(model.parent_mean, sigma)
        if model.low <= draw <= model.high:
            return float(draw)
    raise RuntimeError(
        f"rejection sampling exhausted {model.max_draws} draws without landing "
        f"in [{model.low}, {model.high}]"
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to sample one trial and build its environment."""

    n_ues: int = 4
    cell_radius_m: float = 200.0
    min_distance_m: float = 1.0
    grid: GridSpec = field(
        default_factory=lambda: GridSpec(
            mu_min=4, mu_max=6, frame_duration_ms=0.0625, system_bandwidth_khz=69120.0
        )
    )
    link: LinkParams = field(default_factory=LinkParams)
    numerology_set: tuple[int, ...] = (4, 5, 6)
    minislot_set: tuple[int, ...] = (2, 4, 7)
    min_qoe: tuple[float, ...] = (4.9, 4.6, 4.8, 4.6)
    peak_factor: float = 5.0
    qoe_a: float = 0.0
    qoe_b: float = 1.0
    bt_coverage_deg2: float = 360.0 * 180.0
    et_coverage_deg2: float = 135.0 * 135.0
    fov: FovModel = field(default_factory=FovModel)
    max_bwps_per_ue_tier: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ues < 1:
            raise ValueError(f"n_ues must be >= 1, got {self.n_ues}")
        if len(self.min_qoe) != self.n_ues:
            raise ValueError(
                f"min_qoe must list one level per user: got {len(self.min_qoe)} "
                f"levels for {self.n_ues} users"
            )
        if not self.numerology_set or not self.minislot_set:
            raise ValueError("numerology_set and minislot_set must be non-empty")
        for mu in self.numerology_set:
            if not self.grid.mu_min <= mu <= self.grid.mu_max:
                raise ValueError(
                    f"numerology_set entry {mu} outside grid range "
                    f"[{self.grid.mu_min}, {self.grid.mu_max}]"
                )
        for eta in self.minislot_set:
            if not 1 <= eta <= MAX_MINISLOT_SYMBOLS:
                raise ValueError(
                    f"minislot_set entry {eta} outside the mini-slot symbol range "
                    f"[1, {MAX_MINISLOT_SYMBOLS}]"
                )
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.max_bwps_per_ue_tier is not None and self.max_bwps_per_ue_tier < 1:
            raise ValueError(
                f"max_bwps_per_ue_tier must be None or at least 1, got "
                f"{self.max_bwps_per_ue_tier}"
            )
        if not 1.0 <= self.min_distance_m <= self.cell_radius_m < math.inf:
            raise ValueError(
                f"need 1 <= min_distance_m <= cell_radius_m < inf, got "
                f"[{self.min_distance_m}, {self.cell_radius_m}]"
            )
        # NaN fails every comparison, so each check below refuses it
        for name in ("qoe_a", "qoe_b", "peak_factor"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(-math.inf < q < math.inf for q in self.min_qoe):
            raise ValueError(f"min_qoe levels must be finite, got {list(self.min_qoe)}")
        for name in ("bt_coverage_deg2", "et_coverage_deg2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )

    @property
    def frame_duration_s(self) -> float:
        return self.grid.frame_duration_ms * 1e-3

    def dims(self):
        return derive_grid(self.grid)

    def qoe_params(self, ue_index: int, fov_prob: float) -> QoeParams:
        return QoeParams(
            a=self.qoe_a,
            b=self.qoe_b,
            fov_prob=fov_prob,
            bt_coverage_deg2=self.bt_coverage_deg2,
            et_coverage_deg2=self.et_coverage_deg2,
            min_qoe=self.min_qoe[ue_index],
            peak_factor=self.peak_factor,
        )


@dataclass(frozen=True)
class UeProfile:
    """One sampled user: geometry, link state and QoE constants."""

    index: int
    distance_m: float
    fov_prob: float
    qoe: QoeParams
    link: LinkState


def sample_scenario(
    config: ScenarioConfig, rng: np.random.Generator
) -> list[UeProfile]:
    """Draw all per-user randomness for one trial.

    Draw order is fixed (distance then FoV probability, user by user) so a
    given generator state always produces the same scenario.
    """
    config.fov.check_reachable()
    config.link.check()
    profiles = []
    for i in range(config.n_ues):
        distance = float(
            rng.uniform(config.min_distance_m, config.cell_radius_m)
        )
        fov_prob = sample_fov_prob(rng, config.fov)
        profiles.append(
            UeProfile(
                index=i,
                distance_m=distance,
                fov_prob=fov_prob,
                qoe=config.qoe_params(i, fov_prob),
                link=LinkState.for_distance(config.link, distance, config.n_ues),
            )
        )
    return profiles


def scenario_for_trial(config: ScenarioConfig, trial: int) -> list[UeProfile]:
    """Scenario for trial ``trial`` under the config's seed, independent of
    any other trial."""
    return sample_scenario(config, stream_rng(config.rng_seed, STREAM_TRIAL, trial))


def default_config(**overrides) -> ScenarioConfig:
    """The four-user millimetre-wave system used throughout the tests."""
    return replace(ScenarioConfig(), **overrides) if overrides else ScenarioConfig()


def tiny_config(**overrides) -> ScenarioConfig:
    """A two-user, 16x8-cell system small enough for exhaustive search.

    Distances are drawn so the base tier needs 34-41 cells for service.
    A half-frame band (32 cells) always falls short, three large mini-slot
    BWPs (42 cells) always suffice, and small shapes (8 cells) burn the
    per-tier placement budget without reaching the threshold — so fixed
    splits fail the serving test, adaptive placement passes, and shape
    choice matters: exactly the regime where search quality is measurable.
    """
    cfg = ScenarioConfig(
        n_ues=2,
        cell_radius_m=100.0,
        min_distance_m=72.0,
        grid=GridSpec(
            mu_min=1,
            mu_max=2,
            frame_duration_ms=2.0 / 7.0,
            system_bandwidth_khz=2880.0,
        ),
        numerology_set=(1, 2),
        minislot_set=(4, 7),
        min_qoe=(4.1, 4.1),
        max_bwps_per_ue_tier=3,
    )
    return replace(cfg, **overrides) if overrides else cfg
