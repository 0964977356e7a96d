"""Fixed equal-allocation benchmarks.

Two non-adaptive references: an equal-bandwidth split, where each user gets
a contiguous horizontal band for the whole frame and everything is sent as
base tier (full sphere, no field-of-view prediction); and an equal
time-frequency split, where each user's band carries base tier in the first
half of the frame and enhancement tier in the second half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .grid import (
    MAX_MINISLOT_SYMBOLS,
    BwpAllocation,
    GridSpec,
    Tier,
    bwp_shape,
    derive_grid,
    validate_allocation_set,
)
from .qoe import QoeReport, evaluate_ue
from .scenario import ScenarioConfig, UeProfile


@dataclass(frozen=True)
class AllocationPlan:
    """A complete allocation with its evaluated outcome."""

    allocations: tuple[BwpAllocation, ...]
    reports: tuple[QoeReport, ...]

    @property
    def total_qoe(self) -> float:
        return sum(r.counted_qoe for r in self.reports)

    @property
    def served_count(self) -> int:
        return sum(1 for r in self.reports if r.served)


def band_rows(n_freq_units: int, n_ues: int) -> list[tuple[int, int]]:
    """Contiguous (first_row, n_rows) bands; widths differ by at most one
    row when the grid does not divide evenly (earlier users get the extra)."""
    base, extra = divmod(n_freq_units, n_ues)
    bands = []
    row = 0
    for i in range(n_ues):
        rows = base + (1 if i < extra else 0)
        bands.append((row, rows))
        row += rows
    return bands


def tile_span(
    spec: GridSpec, ue_index: int, tier: Tier, row: int, col0: int, span: int
) -> list[BwpAllocation]:
    """Tile ``span`` columns of one lattice row with valid BWPs.

    Uses the narrowest numerology (single-row footprint) and the longest
    mini-slot that fits, repeatedly; a remainder shorter than one symbol
    group stays unallocated.
    """
    stride = 2 ** (spec.mu_max - spec.mu_min)  # columns per symbol at mu_min
    allocations = []
    col = col0
    while span - (col - col0) >= stride:
        eta = min(MAX_MINISLOT_SYMBOLS, (span - (col - col0)) // stride)
        shape = bwp_shape(spec.mu_min, eta, spec)
        allocations.append(
            BwpAllocation(
                ue_index=ue_index,
                tier=tier,
                shape=shape,
                time_offset_units=col,
                freq_offset_units=row,
            )
        )
        col += shape.time_len_units
    return allocations


@cache
def _band_tiling(
    spec: GridSpec,
    n_ues: int,
    spans: tuple[tuple[Tier, int, int], ...],
    indices: tuple[int, ...],
) -> tuple[tuple[BwpAllocation, ...], tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]]:
    """The allocations of a band split, and per user the areas (s*Hz) of its
    base-tier and of its enhancement-tier tiles, each in tiling order.

    Every user gets the same per-row column spans inside its own frequency
    band.  The tiling depends on nothing a trial draws, so it is built and
    validated once per key; a split adds each user's spectral efficiency
    times these areas.
    """
    dims = derive_grid(spec)
    allocations: list[BwpAllocation] = []
    areas = []
    for index, (row0, n_rows) in zip(indices, band_rows(dims.n_freq_units, n_ues)):
        tier_areas: dict[Tier, list[float]] = {Tier.BT: [], Tier.ET: []}
        for tier, col0, span in spans:
            for row in range(row0, row0 + n_rows):
                for alloc in tile_span(spec, index, tier, row, col0, span):
                    allocations.append(alloc)
                    tier_areas[tier].append(alloc.shape.area_shz(dims))
        areas.append((tuple(tier_areas[Tier.BT]), tuple(tier_areas[Tier.ET])))
    if not validate_allocation_set(allocations, dims):
        raise RuntimeError(
            f"the band split of {n_ues} users over spans {spans} overlaps or leaves the grid"
        )
    return tuple(allocations), tuple(areas)


def _band_plan(
    config: ScenarioConfig,
    profiles: list[UeProfile],
    spans: tuple[tuple[Tier, int, int], ...],
) -> AllocationPlan:
    """A band split's plan: its cached tiling, and each user's bits summed
    tile by tile in tiling order."""
    allocations, areas = _band_tiling(
        config.grid, config.n_ues, spans, tuple(p.index for p in profiles)
    )
    reports = []
    for profile, (bt_areas, et_areas) in zip(profiles, areas):
        efficiency = profile.link.spectral_efficiency
        reports.append(
            evaluate_ue(
                _tile_bits(bt_areas, efficiency),
                _tile_bits(et_areas, efficiency),
                config.frame_duration_s,
                profile.qoe,
            )
        )
    return AllocationPlan(allocations=allocations, reports=tuple(reports))


def _tile_bits(areas: tuple[float, ...], efficiency: float) -> float:
    """Bits per frame over tiles of the given areas, added in order from 0.0
    (not ``sum``, whose float summation may differ between Python versions)."""
    bits = 0.0
    for area in areas:
        bits += area * efficiency
    return bits


def equal_bandwidth_plan(
    config: ScenarioConfig, profiles: list[UeProfile]
) -> AllocationPlan:
    """Equal bandwidth split, whole frame, all base tier (no FoV prediction,
    so the combined QoE has no enhancement term)."""
    dims = config.dims()
    return _band_plan(config, profiles, ((Tier.BT, 0, dims.n_time_units),))


def equal_time_frequency_plan(
    config: ScenarioConfig, profiles: list[UeProfile]
) -> AllocationPlan:
    """Equal bandwidth split with the frame halved in time: base tier first,
    enhancement tier second."""
    dims = config.dims()
    half = dims.n_time_units // 2
    return _band_plan(
        config,
        profiles,
        ((Tier.BT, 0, half), (Tier.ET, half, dims.n_time_units - half)),
    )
