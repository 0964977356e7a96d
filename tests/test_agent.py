from pathlib import Path

import numpy as np
import pytest

from minislot.agent import (
    ReplayBuffer,
    TrainConfig,
    _td_targets,
    act_epsilon_greedy,
    epsilon_at,
    greedy_rollout,
    load_checkpoint,
    save_checkpoint,
    train,
)
from minislot.env import SchedulingEnv, expand_cells
from minislot.net import QNetwork, default_net_config
from minislot.scenario import scenario_for_trial, tiny_config

CHECKPOINT = Path(__file__).parents[1] / "perfbench" / "checkpoints" / "default-60ep-seed0.npz"

FAST = TrainConfig(
    episodes=24,
    batch_size=16,
    train_start_size=32,
    target_sync_steps=20,
    seed=7,
)


def tiny_env():
    return SchedulingEnv(tiny_config())


def test_epsilon_schedule_endpoints_and_slope():
    cfg = TrainConfig(episodes=100, epsilon_decay_fraction=0.5)
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 25) == pytest.approx(0.525)
    assert epsilon_at(cfg, 50) == pytest.approx(0.05)
    assert epsilon_at(cfg, 99) == pytest.approx(0.05)  # flat after the decay window


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(episodes=-1)
    with pytest.raises(ValueError):
        TrainConfig(epsilon_start=0.2, epsilon_end=0.5)
    with pytest.raises(ValueError):
        TrainConfig(epsilon_decay_fraction=0.0)
    # the values the learner's buffers and schedule are sized from
    for bad, message in (
        (dict(batch_size=0), "batch_size"),
        (dict(target_sync_steps=0), "target_sync_steps"),
        (dict(replay_capacity=8, train_start_size=64), "replay_capacity"),
        (dict(replay_capacity=16, batch_size=32, train_start_size=0), "replay_capacity"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(grad_clip_norm=-1.0), "grad_clip_norm"),
    ):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**bad)
    edge = TrainConfig(batch_size=1, target_sync_steps=1, replay_capacity=64, train_start_size=64)
    assert edge.replay_capacity == 64  # capacity equal to the warm-up is enough


def test_zero_episodes_returns_untouched_initial_params():
    cfg = TrainConfig(episodes=0, seed=5)
    empty = train(tiny_env(), cfg)
    assert empty.metrics == []
    fresh = train(tiny_env(), TrainConfig(episodes=1, seed=5))
    # episode 0 runs before any gradient step at this replay size, so the
    # params of the 1-episode run are still the shared initialisation
    for name in empty.params:
        np.testing.assert_array_equal(empty.params[name], fresh.params[name])


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=4, grid_shape=(2, 3), aux_dim=5, n_actions=3)
    cell = np.zeros((2, 3), np.uint8)
    aux = np.zeros(5)
    mask = np.ones(3, bool)
    for i in range(6):
        buf.add(cell, aux, i % 3, float(i), False, cell, aux, mask)
    assert buf.size == 4
    assert sorted(buf.reward[: buf.size]) == [2.0, 3.0, 4.0, 5.0]


def test_replay_grows_lazily_and_preserves_contents():
    buf = ReplayBuffer(capacity=100_000, grid_shape=(1, 1), aux_dim=1, n_actions=2)
    cell = np.zeros((1, 1), np.uint8)
    mask = np.ones(2, bool)
    buf.add(cell, [0.5], 1, 9.25, True, cell, [0.0], mask)
    assert buf._allocated < buf.capacity  # first add must not allocate 100k slots
    for i in range(3000):
        buf.add(cell, [0.0], 0, float(i), False, cell, [0.0], mask)
    assert buf.size == 3001
    assert buf._allocated >= buf.size
    assert buf.reward[0] == pytest.approx(9.25)  # survived the reallocations
    assert bool(buf.done[0])


def test_replay_sample_shapes():
    buf = ReplayBuffer(capacity=64, grid_shape=(2, 2), aux_dim=3, n_actions=4)
    cell = np.ones((2, 2), np.uint8)
    for i in range(10):
        buf.add(cell, [1, 2, 3], i % 4, 0.0, i % 2 == 0, cell, [0, 0, 0], np.ones(4, bool))
    batch = buf.sample(8, np.random.default_rng(0))
    assert batch["cell"].shape == (8, 2, 2)
    assert batch["aux"].shape == (8, 3)
    assert batch["action"].dtype == np.int64
    assert batch["reward"].dtype == np.float64
    assert batch["next_mask"].shape == (8, 4)


def test_replay_sampling_is_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    k = 16
    buf = ReplayBuffer(capacity=k, grid_shape=(1, 1), aux_dim=1, n_actions=2)
    cell = np.zeros((1, 1), np.uint8)
    for i in range(k):
        buf.add(cell, [0.0], 0, float(i), False, cell, [0.0], np.ones(2, bool))
    rng = np.random.default_rng(42)
    counts = np.zeros(k)
    for _ in range(500):
        batch = buf.sample(32, rng)
        for r in batch["reward"]:
            counts[int(r)] += 1
    _, p_value = scipy_stats.chisquare(counts)
    assert p_value > 1e-6  # uniform sampling over stored transitions


def greedy_fixture():
    env = tiny_env()
    env.reset(profiles=scenario_for_trial(env.config, 0))
    net = QNetwork(
        default_net_config(env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions)
    )
    params = net.init_params(np.random.default_rng(3))
    return env, net, params


def test_greedy_action_matches_masked_argmax():
    env, net, params = greedy_fixture()
    cell, aux = env.compact_observation()
    mask = env.feasible_actions()
    picked = act_epsilon_greedy(
        net, params, cell, aux, mask, 0.0, np.random.default_rng(0), env.config.n_ues
    )
    q = net.forward(params, expand_cells(cell, env.config.n_ues), aux)[0]
    assert picked == int(np.argmax(np.where(mask, q, -np.inf)))


def test_exploration_only_picks_feasible_actions():
    env, net, params = greedy_fixture()
    cell, aux = env.compact_observation()
    mask = np.array([False, True, False, True])
    rng = np.random.default_rng(11)
    picks = {
        act_epsilon_greedy(net, params, cell, aux, mask, 1.0, rng, env.config.n_ues)
        for _ in range(100)
    }
    assert picks == {1, 3}


def test_no_feasible_action_raises():
    env, net, params = greedy_fixture()
    cell, aux = env.compact_observation()
    with pytest.raises(RuntimeError):
        act_epsilon_greedy(
            net, params, cell, aux, np.zeros(4, bool), 0.0,
            np.random.default_rng(0), env.config.n_ues,
        )


def test_td_targets_bootstrap_only_live_rows():
    env, net, params = greedy_fixture()
    cell, aux = env.compact_observation()
    mask = env.feasible_actions()
    batch = {
        "reward": np.array([2.0, -1.0]),
        "done": np.array([True, False]),
        "next_cell": np.stack([cell, cell]),
        "next_aux": np.stack([aux, aux]),
        "next_mask": np.stack([mask, mask]),
    }
    targets = _td_targets(net, params, batch, discount=0.9, n_ues=env.config.n_ues)
    assert targets[0] == 2.0  # terminal: no bootstrap
    q = net.forward(params, expand_cells(cell, env.config.n_ues), aux)[0]
    expected = -1.0 + 0.9 * np.max(np.where(mask, q, -np.inf))
    assert targets[1] == pytest.approx(expected, rel=1e-12)


def test_short_training_run_produces_well_formed_metrics():
    result = train(tiny_env(), FAST)
    assert len(result.metrics) == FAST.episodes
    assert [m.episode for m in result.metrics] == list(range(FAST.episodes))
    eps = [m.epsilon for m in result.metrics]
    assert eps[0] == 1.0 and all(a >= b for a, b in zip(eps, eps[1:]))
    for m in result.metrics:
        assert m.outcome in ("success", "violation")
        assert 0 <= m.served_count <= m.n_ues == 2
        assert m.steps >= 1


def test_training_is_reproducible():
    a = train(tiny_env(), FAST)
    b = train(tiny_env(), FAST)
    np.testing.assert_array_equal(a.rewards(), b.rewards())
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_greedy_rollout_reports_episode_outcome():
    result = train(tiny_env(), FAST)
    env = tiny_env()
    profiles = scenario_for_trial(env.config, 123)
    one = greedy_rollout(env, result.net, result.params, profiles=profiles)
    outcome = env.outcome
    two = greedy_rollout(env, result.net, result.params, profiles=profiles)
    assert one == two  # same policy, same scenario
    assert outcome in ("success", "violation") and env.outcome == outcome
    # the plan is the finished episode the env keeps
    assert one.allocations == tuple(env.allocations)
    assert len(one.reports) == 2
    assert [r.served for r in one.reports] == env.served
    assert one.total_qoe == env.total_qoe()


def test_checkpoint_roundtrip(tmp_path):
    result = train(tiny_env(), FAST)
    path = tmp_path / "policy.npz"
    save_checkpoint(path, result.net, result.params, extra={"episodes": FAST.episodes})
    net, params, extra = load_checkpoint(path)
    assert extra == {"episodes": FAST.episodes}
    assert net.config == result.net.config
    for name in result.params:
        np.testing.assert_array_equal(params[name], result.params[name])
    env = tiny_env()
    profiles = scenario_for_trial(env.config, 5)
    before = greedy_rollout(env, result.net, result.params, profiles=profiles)
    after = greedy_rollout(env, net, params, profiles=profiles)
    assert before == after


def _meta(geometry: str) -> str:
    return (
        '{"version": 1, "net_config": {"grid_channels": 3, ' + geometry + ', "conv": '
        '[{"filters": 8, "kernel": 3, "stride": 2}, {"filters": 16, "kernel": 3, "stride": 2}], '
        '"dense": [64]}, "extra": {"train_seed": 0, "scenario_seed": 0, "episodes": 60}}'
    )


DEFAULT_META = _meta('"grid_height": 24, "grid_width": 56, "aux_dim": 22, "n_actions": 9')
TINY_META = _meta('"grid_height": 8, "grid_width": 16, "aux_dim": 12, "n_actions": 4')


@pytest.mark.parametrize(
    "geometry, literal",
    [((24, 56, 22, 9), DEFAULT_META), ((8, 16, 12, 4), TINY_META)],
    ids=["default", "tiny"],
)
def test_checkpoint_metadata_keeps_its_format(geometry, literal, tmp_path):
    """``__meta__`` holds the geometry and the architecture it gives, in the
    JSON every checkpoint so far was written with."""
    net = QNetwork(default_net_config(*geometry))
    path = tmp_path / "policy.npz"
    extra = {"train_seed": 0, "scenario_seed": 0, "episodes": 60}
    save_checkpoint(path, net, net.init_params(np.random.default_rng(0)), extra=extra)
    with np.load(path) as archive:
        assert bytes(archive["__meta__"]).decode() == literal
    if geometry == (24, 56, 22, 9):
        with np.load(CHECKPOINT) as archive:  # the benchmark's fixed policy
            assert bytes(archive["__meta__"]).decode() == literal


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.arange(3))
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_load_rejects_future_version(tmp_path):
    import json

    result = train(tiny_env(), TrainConfig(episodes=2, seed=1))
    path = tmp_path / "policy.npz"
    save_checkpoint(path, result.net, result.params)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["version"] = 99
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_load_rejects_wrong_parameter_shape(tmp_path):
    env = tiny_env()
    net = QNetwork(
        default_net_config(env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions)
    )
    params = net.init_params(np.random.default_rng(0))
    params["out/b"] = np.zeros(99)  # the architecture needs (n_actions,)
    path = tmp_path / "policy.npz"
    save_checkpoint(path, net, params)
    with pytest.raises(ValueError, match=r"out/b has shape \(99,\)"):
        load_checkpoint(path)


def test_load_rejects_non_finite_parameters(tmp_path):
    # a NaN Q-value wins every argmax, so such a policy would play the
    # first feasible action and still exit 0
    env = tiny_env()
    net = QNetwork(
        default_net_config(env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions)
    )
    params = net.init_params(np.random.default_rng(0))
    params["out/b"][1] = np.nan
    path = tmp_path / "policy.npz"
    save_checkpoint(path, net, params)
    with pytest.raises(ValueError, match="out/b is not finite"):
        load_checkpoint(path)
