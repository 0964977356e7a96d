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
from minislot.net import NetConfig, QNetwork, default_net_config
from minislot.scenario import scenario_for_trial, tiny_config

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
        NetConfig(
            grid_channels=3,
            grid_height=env.dims.n_freq_units,
            grid_width=env.dims.n_time_units,
            aux_dim=env.aux_dim,
            n_actions=env.n_actions,
            conv=(),
            dense=(8,),
        )
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
    two = greedy_rollout(env, result.net, result.params, profiles=profiles)
    assert one == two  # same policy, same scenario
    assert one.outcome in ("success", "violation")
    assert len(one.per_ue_qoe) == 2
    assert one.total_qoe == pytest.approx(sum(one.per_ue_qoe), rel=1e-12)


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
