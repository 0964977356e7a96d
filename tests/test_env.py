import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from minislot.env import RewardParams, SchedulingEnv, expand_cells, serving_order
from minislot.grid import (
    ConfigError,
    GridSpec,
    Occupancy,
    Tier,
    _fit_plan,
    validate_allocation_set,
)
from minislot.qoe import combined_qoe, effective_rate
from minislot.scenario import (
    default_config,
    scenario_for_trial,
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
    env.reset(scenario_for_trial(env.config, 0))
    order_one = list(env.order)
    env.reset(scenario_for_trial(env.config, 0))
    assert list(env.order) == order_one
    assert env.phase == Tier.BT
    assert env._active == order_one[0]
    assert all(env.feasible_actions())  # empty grid: everything fits


def test_step_reward_is_half_qoe_gain_minus_time_cost():
    env = make_tiny()
    ue = env._active
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
    first = env._active
    while env._active == first and not env.done:
        env.step(LARGE)
    assert env.served[first]
    assert env._active != first
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
    assert all(env.served)
    assert rewards[-1] == 500.0
    assert validate_allocation_set(env.allocations, env.dims)
    # enhancement tier was actually reached and used
    assert sum(env.bits[env.config.n_ues :]) > 0


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
    ue = env._active
    env.step(SMALL)
    env.step(SMALL)
    assert env._active == ue  # 16 cells: still short of service
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
    first = env._active
    env.step(SMALL)
    assert env._active != first  # rotation moved to the other user


def test_cell_code_tracks_owner_and_tier():
    env = make_tiny()
    ue = env._active
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


def float_expand_cells(cell_code: np.ndarray, n_ues: int) -> np.ndarray:
    """The channels by the float route expand_cells once took: u + 1 as
    floor((code + 1) / 2), the ET flag as (code + 1) less twice that, and
    the owner divided in float32."""
    code = np.asarray(cell_code)
    out = np.empty(code.shape[:-2] + (3,) + code.shape[-2:], np.float32)
    occupied, owner, tier_et = (out[..., c, :, :] for c in range(3))
    np.greater(code, 0, out=occupied)
    np.add(code, 1, out=tier_et, dtype=np.float32)
    np.multiply(tier_et, 0.5, out=owner)
    np.floor(owner, out=owner)
    tier_et -= owner
    tier_et -= owner
    tier_et *= occupied
    owner /= n_ues
    return out


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_expand_cells_equals_the_float_route_for_every_code(dtype):
    codes = np.arange(255, dtype=dtype).reshape(3, 5, 17)  # every code 0-254
    for n_ues in range(1, 128):
        expected = float_expand_cells(codes, n_ues)
        assert expand_cells(codes, n_ues).tobytes() == expected.tobytes(), n_ues
        assert expand_cells(codes[1], n_ues).tobytes() == expected[1].tobytes(), n_ues


def test_aux_vector_layout():
    env = make_tiny()
    n = env.config.n_ues
    _, aux = env.compact_observation()
    assert aux.shape == (5 * n + 2,)
    assert aux[4 * n + env._active] == 1.0  # active one-hot
    assert aux[5 * n] == 0.0  # base-tier phase
    assert aux[5 * n + 1] == 0.0  # no steps taken
    ue = env._active
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
        assert env.bits[ue] == pytest.approx(bt, abs=1e-9)
        assert env.bits[env.config.n_ues + ue] == pytest.approx(et, abs=1e-9)
    plan = env.plan()
    assert plan.allocations == tuple(env.allocations)
    for ue, report in enumerate(plan.reports):
        assert report.served == env.served[ue]
    assert env.total_qoe() == pytest.approx(plan.total_qoe, abs=1e-9)


def _assert_same(actual, expected, name):
    if isinstance(expected, Occupancy):
        assert actual.free == expected.free, name
        actual, expected = actual.code, expected.code
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)
    else:
        assert actual == expected, name


def test_clone_is_independent():
    env = make_tiny()
    env.step(LARGE)
    clone = env.clone()
    # every attribute is copied
    assert vars(clone).keys() == vars(env).keys()
    for name in vars(env):
        _assert_same(getattr(clone, name), getattr(env, name), name)
    before = clone.feasible_actions()
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


def test_clone_shares_the_profiles_and_mask():
    """The mask is an immutable tuple: clones share it, and
    feasible_actions() hands it out as it is held."""
    env = make_tiny()
    clone = env.clone()
    assert clone.profiles is env.profiles
    assert clone._mask is env._mask
    assert isinstance(env._mask, tuple)
    assert env.feasible_actions() is env._mask
    assert clone.feasible_actions() is env._mask


def test_caller_edits_do_not_reach_a_running_episode():
    profiles = scenario_for_trial(tiny_config(), 0)
    assert profiles[0] != profiles[1]
    kept = list(profiles)
    env = SchedulingEnv(tiny_config())
    env.reset(profiles)
    profiles.reverse()
    untouched = SchedulingEnv(tiny_config())
    untouched.reset(kept)
    assert env.profiles == untouched.profiles == tuple(kept)
    assert env.step(LARGE) == untouched.step(LARGE)
    assert env.plan() == untouched.plan()


def test_wrong_profile_count_rejected():
    env = SchedulingEnv(tiny_config())
    with pytest.raises(ValueError):
        env.reset(profiles=scenario_for_trial(default_config(), 0))


@pytest.mark.parametrize("bandwidth_khz", [2880.0, 720.0])
def test_numpy_integer_config_plays_the_int_config_episode(bandwidth_khz):
    grid = GridSpec(1, 2, 2.0 / 7.0, bandwidth_khz)
    # a minimum both users reach on either grid
    plain = tiny_config(grid=grid, min_qoe=(2.0, 2.0))
    numpy_ints = replace(
        plain,
        grid=GridSpec(np.int64(1), np.int64(2), 2.0 / 7.0, bandwidth_khz),
        numerology_set=tuple(np.arange(1, 3)),
        minislot_set=(np.int64(4), np.int64(7)),
    )
    # numpy ints hash equal to ints: a first-fit plan cached for the int
    # config would hide a plan built from numpy ints
    _fit_plan.cache_clear()
    plans = []
    for config in (numpy_ints, plain):
        env = SchedulingEnv(config)
        env.reset(profiles=scenario_for_trial(plain, 0))
        while not env.done:
            env.step(int(np.argmax(env.feasible_actions())))
        plans.append(env.plan())
    assert plans[0] == plans[1]
    assert len(plans[0].allocations) > 1
    with pytest.raises(ConfigError, match="eta=4.0 is not an integer"):
        SchedulingEnv(tiny_config(grid=grid, minislot_set=(4.0, 7)))
