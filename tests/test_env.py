import copy
import io
import json
import math

import numpy as np
import pytest

from minislot.env import RewardParams, SchedulingEnv, expand_cells, serving_order
from minislot.grid import GridSpec, Occupancy, Tier, validate_allocation_set
from minislot.qoe import combined_qoe, effective_rate
from minislot.scenario import (
    default_config,
    scenario_for_trial,
    stream_rng,
    tiny_config,
)

LARGE = 1  # (mu=1, eta=7): 14-cell shape in the tiny action set
SMALL = 0  # (mu=1, eta=4): 8-cell shape


def make_tiny(reward=None, **overrides):
    env = SchedulingEnv(tiny_config(**overrides), reward=reward)
    env.reset(profiles=scenario_for_trial(env.config, 0))
    return env


def test_serving_order_descends_with_stable_ties():
    assert serving_order([5.1, 4.2, 6.0]) == [2, 0, 1]
    assert serving_order([4.0, 4.0, 3.0]) == [0, 1, 2]
    assert serving_order([math.nan, 3.0]) == [1, 0]


def test_action_set_is_numerology_by_minislot():
    env = SchedulingEnv(default_config())
    assert env.n_actions == 9
    combos = [(s.mu, s.eta) for s in env.shapes]
    assert combos == [(m, e) for m in (4, 5, 6) for e in (2, 4, 7)]


def test_reset_is_deterministic_and_starts_in_base_tier():
    env = SchedulingEnv(default_config())
    env.reset()
    order_one = list(env.order)
    distances = [p.distance_m for p in env.profiles]
    env.reset()
    assert list(env.order) == order_one
    assert [p.distance_m for p in env.profiles] == distances
    assert env.phase == Tier.BT
    assert env.active_ue == order_one[0]
    assert env.feasible_actions().all()  # empty grid: everything fits


def test_step_reward_is_half_qoe_gain_minus_time_cost():
    env = make_tiny()
    ue = env.active_ue
    profile = env.profiles[ue]
    shape = env.shapes[LARGE]
    bits = shape.area_shz(env.dims) * profile.link.spectral_efficiency
    rate = effective_rate(bits, env.config.frame_duration_s, profile.qoe.bt_coverage_deg2)
    q_tilde = combined_qoe(math.log(rate), math.log(rate), profile.fov_prob)
    reward, done = env.step(LARGE)
    assert not done
    assert reward == pytest.approx(0.5 * q_tilde + 0.5 * (-0.01), rel=1e-12)


def test_serving_advances_to_next_user():
    env = make_tiny()
    first = env.active_ue
    while env.active_ue == first and not env.done:
        env.step(LARGE)
    assert env.served[first]
    assert env.active_ue != first
    assert env.phase == Tier.BT  # second user still needs its base tier


def test_full_episode_success_and_bonus():
    env = make_tiny()
    rewards = []
    while not env.done:
        mask = env.feasible_actions()
        action = LARGE if mask[LARGE] else int(np.argmax(mask))
        r, _ = env.step(action)
        rewards.append(r)
    assert env.outcome == "success"
    assert env.served.all()
    assert rewards[-1] == 500.0
    assert validate_allocation_set(env.allocations, env.dims)
    # enhancement tier was actually reached and used
    assert env.et_bits.sum() > 0


def test_small_shapes_waste_the_budget_and_violate():
    env = make_tiny()
    rewards = []
    while not env.done:
        mask = env.feasible_actions()
        action = SMALL if mask[SMALL] else int(np.argmax(mask))
        r, _ = env.step(action)
        rewards.append(r)
    # three 8-cell placements cannot reach the ~34-cell service threshold
    assert env.outcome == "violation"
    assert not env.served[env.order[0]]
    assert rewards[-1] == -2.0


def test_terminal_env_refuses_further_interaction():
    env = make_tiny(reward=RewardParams(max_steps=1))
    env.step(LARGE)
    assert env.done
    with pytest.raises(RuntimeError):
        env.step(LARGE)
    with pytest.raises(RuntimeError):
        env.feasible_actions()


def test_truncation_at_step_limit_is_violation_when_unserved():
    env = make_tiny(reward=RewardParams(max_steps=2))
    env.step(LARGE)
    reward, done = env.step(LARGE)
    assert done and env.outcome == "violation"
    assert reward == -2.0
    assert env.step_count == 2


def test_masked_action_rejected():
    env = make_tiny()
    with pytest.raises(ValueError):
        env.step(99)
    cfg = tiny_config(peak_factor=0.7)  # large shapes breach the cap
    capped = SchedulingEnv(cfg)
    capped.reset(profiles=scenario_for_trial(cfg, 0))
    with pytest.raises(ValueError):
        capped.step(LARGE)


def test_per_tier_budget_masks_out_actions():
    env = make_tiny()
    ue = env.active_ue
    env.step(SMALL)
    env.step(SMALL)
    assert env.active_ue == ue  # 16 cells: still short of service
    env.step(LARGE)  # 30 cells: still short, budget now exhausted
    # with the cap spent and the user unserved, the episode must have ended
    assert env.done and env.outcome == "violation"


def test_peak_cap_masks_large_allocations():
    cfg = tiny_config(peak_factor=0.7)  # cap ~2.87: only 8-cell shapes stay under
    env = SchedulingEnv(cfg)
    env.reset(profiles=scenario_for_trial(cfg, 0))
    mask = env.feasible_actions()
    shapes = env.shapes
    for i, shape in enumerate(shapes):
        assert mask[i] == (shape.area_units == 8)


def test_peak_cap_exclusion_terminates_episode():
    cfg = tiny_config(peak_factor=0.3)  # every first placement would breach
    env = SchedulingEnv(cfg)
    env.reset(profiles=scenario_for_trial(cfg, 0))
    assert env.done
    assert env.outcome == "violation"
    assert env.bt_excluded[env.order[0]]


def test_stillborn_when_nothing_fits():
    cfg = tiny_config(
        grid=GridSpec(1, 2, 2.0 / 56.0, 360.0),  # 2 x 1 lattice
        numerology_set=(1, 2),
    )
    env = SchedulingEnv(cfg)
    env.reset(profiles=scenario_for_trial(cfg, 0))
    assert env.done and env.outcome == "violation"
    assert env.allocations == []


def test_enhancement_round_robin_rotates():
    env = make_tiny()
    while env.phase == Tier.BT and not env.done:
        env.step(LARGE)
    assert env.phase == Tier.ET
    first = env.active_ue
    env.step(SMALL)
    assert env.active_ue != first  # rotation moved to the other user


def test_cell_code_tracks_owner_and_tier():
    env = make_tiny()
    ue = env.active_ue
    env.step(LARGE)
    code, _ = env.compact_observation()
    expected = 1 + 2 * ue  # base tier
    assert (code == expected).sum() == 14
    filled = env.dims.total_units - env.occupancy.free_units()
    assert filled == 14


def test_expand_cells_channels():
    code = np.array([[0, 1, 2, 3]], dtype=np.uint8)  # free, ue0/BT, ue0/ET, ue1/BT
    channels = expand_cells(code, 2)
    assert channels.shape == (3, 1, 4)
    np.testing.assert_allclose(channels[0], [[0, 1, 1, 1]])  # occupancy
    np.testing.assert_allclose(channels[1], [[0, 0.5, 0.5, 1.0]])  # owner
    np.testing.assert_allclose(channels[2], [[0, 0, 1, 0]])  # enhancement flag


def test_aux_vector_layout():
    env = make_tiny()
    n = env.config.n_ues
    _, aux = env.compact_observation()
    assert aux.shape == (5 * n + 2,)
    assert aux[4 * n + env.active_ue] == 1.0  # active one-hot
    assert aux[5 * n] == 0.0  # base-tier phase
    assert aux[5 * n + 1] == 0.0  # no steps taken
    ue = env.active_ue
    env.step(LARGE)
    _, aux = env.compact_observation()
    assert aux[4 * ue] > 0.0  # normalized base-tier QoE now present
    assert aux[5 * n + 1] == pytest.approx(1 / 1000)


def test_qoe_bookkeeping_consistent_with_allocations():
    env = make_tiny()
    while not env.done:
        mask = env.feasible_actions()
        action = LARGE if mask[LARGE] else int(np.argmax(mask))
        env.step(action)
    for ue in range(env.config.n_ues):
        bt = sum(
            a.shape.area_shz(env.dims) * env.profiles[ue].link.spectral_efficiency
            for a in env.allocations
            if a.ue_index == ue and a.tier == Tier.BT
        )
        et = sum(
            a.shape.area_shz(env.dims) * env.profiles[ue].link.spectral_efficiency
            for a in env.allocations
            if a.ue_index == ue and a.tier == Tier.ET
        )
        assert env.bt_bits[ue] == pytest.approx(bt, abs=1e-9)
        assert env.et_bits[ue] == pytest.approx(et, abs=1e-9)
    reports = env.reports()
    for ue, report in enumerate(reports):
        assert report.served == env.served[ue]
    assert env.total_qoe() == pytest.approx(
        sum(r.counted_qoe for r in reports), abs=1e-9
    )


def test_trace_export_round_trips_json():
    env = SchedulingEnv(tiny_config(), record_trace=True)
    env.reset(profiles=scenario_for_trial(env.config, 0))
    while not env.done:
        env.step(int(np.argmax(env.feasible_actions())))
    buffer = io.StringIO()
    env.export_trace(buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert len(lines) == env.step_count
    last = json.loads(lines[-1])
    assert last["branch"] in ("success", "violation")
    assert set(last) >= {"t", "ue", "tier", "action", "placement", "reward", "q_tilde"}


def _assert_same(actual, expected, name):
    if isinstance(expected, Occupancy):
        assert actual.dims == expected.dims, name
        actual, expected = actual.code, expected.code
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)
    else:
        assert actual == expected, name


def test_clone_is_independent():
    env = SchedulingEnv(tiny_config(), record_trace=True)
    env.reset(profiles=scenario_for_trial(env.config, 0))
    env.step(LARGE)
    clone = env.clone()
    # every attribute is copied, except that a clone records no trace
    assert vars(clone).keys() == vars(env).keys()
    for name in vars(env).keys() - {"record_trace", "trace"}:
        _assert_same(getattr(clone, name), getattr(env, name), name)
    assert not clone.record_trace and clone.trace == []
    before = clone.feasible_actions().copy()
    env.step(LARGE)
    np.testing.assert_array_equal(clone.feasible_actions(), before)
    assert clone.step_count == env.step_count - 1
    assert clone.occupancy.free_units() == env.occupancy.free_units() + 14
    # playing a clone to the end leaves the original untouched
    snapshot = copy.deepcopy(vars(env))
    child = env.clone()
    while not child.done:
        child.step(int(np.argmax(child.feasible_actions())))
    assert vars(env).keys() == snapshot.keys()
    for name, value in snapshot.items():
        _assert_same(getattr(env, name), value, name)


def test_fresh_scenarios_come_from_the_given_stream():
    env = SchedulingEnv(tiny_config())
    env.reset(rng=stream_rng(0, 9, 0))
    d1 = [p.distance_m for p in env.profiles]
    env.reset(rng=stream_rng(0, 9, 0))
    assert [p.distance_m for p in env.profiles] == d1
    env.reset(rng=stream_rng(0, 9, 1))
    assert [p.distance_m for p in env.profiles] != d1


def test_wrong_profile_count_rejected():
    env = SchedulingEnv(tiny_config())
    with pytest.raises(ValueError):
        env.reset(profiles=scenario_for_trial(default_config(), 0))
