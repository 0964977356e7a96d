import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minislot.baselines
from minislot.baselines import (
    AllocationPlan,
    band_rows,
    equal_bandwidth_plan,
    equal_time_frequency_plan,
)
from minislot.grid import (
    BwpAllocation,
    GridSpec,
    Tier,
    bwp_shape,
    validate_allocation_set,
)
from minislot.qoe import QoeReport, evaluate_ue
from minislot.radio import LinkState
from minislot.scenario import (
    ScenarioConfig,
    UeProfile,
    default_config,
    scenario_for_trial,
    tiny_config,
)


def _tier_cells(plan, ue, tier):
    return sum(
        a.shape.area_units
        for a in plan.allocations
        if a.ue_index == ue and a.tier == tier
    )


def test_band_rows_divide_evenly():
    assert band_rows(24, 4) == [(0, 6), (6, 6), (12, 6), (18, 6)]


def test_band_rows_remainder_goes_to_earlier_users():
    bands = band_rows(24, 5)
    assert [rows for _, rows in bands] == [5, 5, 5, 5, 4]
    assert bands[0][0] == 0
    assert bands[-1][0] + bands[-1][1] == 24


def test_equal_bandwidth_fills_whole_frame_as_base_tier():
    cfg = default_config()
    profiles = scenario_for_trial(cfg, 0)
    plan = equal_bandwidth_plan(cfg, profiles)
    assert validate_allocation_set(plan.allocations, cfg.dims())
    for ue in range(4):
        assert _tier_cells(plan, ue, Tier.BT) == 6 * 56 == 336
        assert _tier_cells(plan, ue, Tier.ET) == 0


def test_equal_bandwidth_has_no_enhancement_term():
    cfg = default_config()
    plan = equal_bandwidth_plan(cfg, scenario_for_trial(cfg, 1))
    for report in plan.reports:
        assert report.q_combined == pytest.approx(report.q_bt, rel=1e-12)


def test_equal_time_frequency_halves_the_frame():
    cfg = default_config()
    profiles = scenario_for_trial(cfg, 0)
    plan = equal_time_frequency_plan(cfg, profiles)
    assert validate_allocation_set(plan.allocations, cfg.dims())
    for ue in range(4):
        assert _tier_cells(plan, ue, Tier.BT) == 6 * 28 == 168
        assert _tier_cells(plan, ue, Tier.ET) == 6 * 28 == 168
    for a in plan.allocations:
        if a.tier == Tier.BT:
            assert a.time_offset_units + a.shape.time_len_units <= 28
        else:
            assert a.time_offset_units >= 28


def test_single_user_gets_everything():
    cfg = default_config(n_ues=1, min_qoe=(4.9,))
    profiles = scenario_for_trial(cfg, 0)
    bw = equal_bandwidth_plan(cfg, profiles)
    assert _tier_cells(bw, 0, Tier.BT) == 24 * 56
    tf = equal_time_frequency_plan(cfg, profiles)
    assert _tier_cells(tf, 0, Tier.BT) == 24 * 28
    assert _tier_cells(tf, 0, Tier.ET) == 24 * 28


def test_plans_are_deterministic():
    cfg = default_config()
    profiles = scenario_for_trial(cfg, 2)
    a = equal_bandwidth_plan(cfg, profiles)
    b = equal_bandwidth_plan(cfg, profiles)
    assert a.allocations == b.allocations
    assert a.total_qoe == b.total_qoe


def test_total_qoe_counts_served_users_only():
    cfg = tiny_config()
    profiles = scenario_for_trial(cfg, 0)
    tf = equal_time_frequency_plan(cfg, profiles)
    # the tiny geometry's half-frame base tier cannot reach the threshold
    assert tf.served_count == 0
    assert tf.total_qoe == 0.0
    bw = equal_bandwidth_plan(cfg, profiles)
    assert bw.served_count == 2
    assert bw.total_qoe == pytest.approx(
        sum(r.q_combined for r in bw.reports), rel=1e-12
    )
    # so here, unlike at default scale, equal bandwidth ranks higher
    assert bw.total_qoe > tf.total_qoe


def test_time_frequency_minus_bandwidth_matches_closed_form():
    """Per user, Q_tf - Q_bw = b * (-ln 2 + rho * ln(1 + C_bt / C_et)).

    Both splits give a user the same band of B bits.  Equal bandwidth sends
    all of it as base tier; equal time-frequency sends B/2 as base tier and
    B/2 over the viewport.  The scores are computed here by hand from the
    band's bits, not through the QoE module.
    """
    cfg = default_config()
    dims = cfg.dims()
    band_cells = (dims.n_freq_units // cfg.n_ues) * dims.n_time_units
    frame_s = cfg.frame_duration_s
    for trial in range(5):
        profiles = scenario_for_trial(cfg, trial)
        bw = equal_bandwidth_plan(cfg, profiles)
        tf = equal_time_frequency_plan(cfg, profiles)
        assert bw.served_count == tf.served_count == cfg.n_ues
        for profile, r_bw, r_tf in zip(profiles, bw.reports, tf.reports):
            q, rho = profile.qoe, profile.fov_prob
            band_bits = band_cells * dims.rb_size_shz * profile.link.spectral_efficiency
            q_bw = q.a + q.b * math.log(band_bits / (frame_s * q.bt_coverage_deg2))
            bt_rate = band_bits / 2 / (frame_s * q.bt_coverage_deg2)
            total_rate = bt_rate + band_bits / 2 / (frame_s * q.et_coverage_deg2)
            q_tf = (1 - rho) * (q.a + q.b * math.log(bt_rate)) + rho * (
                q.a + q.b * math.log(total_rate)
            )
            assert r_bw.q_combined == pytest.approx(q_bw, rel=1e-12)
            assert r_tf.q_combined == pytest.approx(q_tf, rel=1e-12)

            gap = q.b * (
                -math.log(2.0)
                + rho * math.log(1.0 + q.bt_coverage_deg2 / q.et_coverage_deg2)
            )
            assert gap > 0.0  # rho >= 0.6 here, above the 0.46 crossover
            assert r_tf.q_combined - r_bw.q_combined == pytest.approx(gap, abs=1e-12)
        assert tf.total_qoe > bw.total_qoe


# ---------- the cached tiling against the per-call builder it replaced ----------
#
# reference_tile_span and reference_band_plan are the builder that tiled and
# validated every split on every call, copied unchanged but for their names.


def reference_tile_span(
    config: ScenarioConfig, ue_index: int, tier: Tier, row: int, col0: int, span: int
) -> list[BwpAllocation]:
    spec = config.grid
    stride = 2 ** (spec.mu_max - spec.mu_min)  # columns per symbol at mu_min
    allocations = []
    col = col0
    while span - (col - col0) >= stride:
        eta = min(14, (span - (col - col0)) // stride)
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


def reference_band_plan(
    config: ScenarioConfig,
    profiles: list[UeProfile],
    spans: list[tuple[Tier, int, int]],
) -> AllocationPlan:
    dims = config.dims()
    allocations: list[BwpAllocation] = []
    reports: list[QoeReport] = []
    for profile, (row0, n_rows) in zip(profiles, band_rows(dims.n_freq_units, config.n_ues)):
        bits = {Tier.BT: 0.0, Tier.ET: 0.0}
        for tier, col0, span in spans:
            for row in range(row0, row0 + n_rows):
                for alloc in reference_tile_span(config, profile.index, tier, row, col0, span):
                    allocations.append(alloc)
                    bits[tier] += (
                        alloc.shape.area_shz(dims) * profile.link.spectral_efficiency
                    )
        reports.append(
            evaluate_ue(
                bits[Tier.BT], bits[Tier.ET], config.frame_duration_s, profile.qoe
            )
        )
    assert validate_allocation_set(allocations, dims)
    return AllocationPlan(allocations=tuple(allocations), reports=tuple(reports))


def reference_plans(config, profiles):
    n_time = config.dims().n_time_units
    half = n_time // 2
    return {
        "equal_bandwidth": reference_band_plan(config, profiles, [(Tier.BT, 0, n_time)]),
        "equal_time_frequency": reference_band_plan(
            config, profiles, [(Tier.BT, 0, half), (Tier.ET, half, n_time - half)]
        ),
    }


@st.composite
def split_cases(draw):
    """A grid ``derive_grid`` accepts, with symbol strides of 1 to 4
    columns, 1 to 6 users (bands of unequal, or no, rows included) and
    drawn spectral efficiencies (0 included: a user with no bits).  The
    profiles' indices are shuffled, as the tiling is keyed on them."""
    mu_min = draw(st.integers(0, 4))
    mu_max = mu_min + draw(st.integers(0, 2))
    n_time = draw(st.integers(1, 64))
    n_freq = draw(st.integers(1, 16))
    n_ues = draw(st.integers(1, 6))
    config = tiny_config(
        n_ues=n_ues,
        grid=GridSpec(
            mu_min=mu_min,
            mu_max=mu_max,
            frame_duration_ms=n_time / (14 * 2**mu_max),
            system_bandwidth_khz=n_freq * 180.0 * 2**mu_min,
        ),
        numerology_set=(mu_min,),
        minislot_set=(1,),
        min_qoe=tuple(draw(st.floats(-5.0, 15.0)) for _ in range(n_ues)),
    )
    profiles = []
    for i in draw(st.permutations(range(n_ues))):
        fov_prob = draw(st.floats(0.6, 1.0))
        efficiency = draw(st.one_of(st.just(0.0), st.floats(1e-3, 20.0)))
        profiles.append(
            UeProfile(
                index=i,
                distance_m=100.0,
                fov_prob=fov_prob,
                qoe=config.qoe_params(i, fov_prob),
                link=LinkState(2.0**efficiency - 1.0, efficiency),
            )
        )
    return config, profiles


def _report_bytes(report: QoeReport) -> tuple[bytes, bool]:
    return struct.pack("<2d", report.q_bt, report.q_combined), report.served


@settings(max_examples=200, deadline=None, database=None)
@given(case=split_cases())
@example(case=(default_config(), scenario_for_trial(default_config(), 0)))
def test_cached_tiling_matches_per_call_builder(case):
    config, profiles = case
    reference = reference_plans(config, profiles)
    for name, split in (
        ("equal_bandwidth", equal_bandwidth_plan),
        ("equal_time_frequency", equal_time_frequency_plan),
    ):
        ref = reference[name]
        for plan in (split(config, profiles), split(config, profiles)):  # built, then cached
            assert plan.allocations == ref.allocations
            assert [_report_bytes(r) for r in plan.reports] == [
                _report_bytes(r) for r in ref.reports
            ]
            assert validate_allocation_set(plan.allocations, config.dims())



def test_a_tiling_that_overlaps_is_refused(monkeypatch):
    """The tiling's own check raises, also under ``python -O``: here every
    tile is laid down twice."""
    real = minislot.baselines.tile_span
    monkeypatch.setattr(minislot.baselines, "tile_span", lambda *args: real(*args) * 2)
    config = tiny_config(n_ues=1, min_qoe=(4.1,), rng_seed=12345)
    minislot.baselines._band_tiling.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="overlaps or leaves the grid"):
            equal_bandwidth_plan(config, tuple(scenario_for_trial(config, 0)))
    finally:
        minislot.baselines._band_tiling.cache_clear()
