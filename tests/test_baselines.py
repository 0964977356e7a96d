import math

import pytest

from minislot.baselines import (
    band_rows,
    equal_bandwidth_plan,
    equal_time_frequency_plan,
)
from minislot.grid import Tier, validate_allocation_set
from minislot.scenario import default_config, scenario_for_trial, tiny_config


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
            assert a.time_end <= 28
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
