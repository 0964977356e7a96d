"""The library's entry points: each refuses empty work, oracle workers
with no oracle and a checkpoint with no dqn before it writes anything,
evaluation draws each trial once for every method it runs, and the
oracle starts no more workers than trials."""

import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest

import minislot.runner
from minislot.agent import greedy_rollout, save_checkpoint
from minislot.baselines import equal_bandwidth_plan, equal_time_frequency_plan
from minislot.config import tiny_experiment
from minislot.net import QNetwork, default_net_config
from minislot.oracle import oracle_best_plan
from minislot.runner import (
    DQN,
    EQUAL_BANDWIDTH,
    EQUAL_TIME_FREQUENCY,
    ORACLE,
    _plan_row,
    build_env,
    run_eval,
    run_train,
)
from minislot.scenario import scenario_for_trial


@pytest.mark.parametrize(
    "config, kwargs, message",
    [
        ({}, {"methods": ()}, "no methods"),
        ({"n_eval_trials": 0}, {"methods": (EQUAL_BANDWIDTH,)}, "at least 1 trial, got 0"),
        ({"n_eval_trials": -2}, {"methods": (EQUAL_BANDWIDTH,)}, "at least 1 trial, got -2"),
        # the trial count is refused before the missing checkpoint
        ({"n_eval_trials": 0}, {"methods": (DQN,)}, "at least 1 trial, got 0"),
        ({}, {"methods": (ORACLE,), "jobs": 0}, "at least 1 worker, got 0"),
        ({}, {"methods": (EQUAL_BANDWIDTH,), "jobs": -1}, "at least 1 worker, got -1"),
        # jobs sets the oracle's workers, so no oracle allows only 1
        ({}, {"methods": (EQUAL_BANDWIDTH,), "jobs": 8}, "jobs 8 sets oracle workers, but no"),
        # a checkpoint is read only for dqn, so without dqn it is refused
        (
            {}, {"methods": (EQUAL_BANDWIDTH, ORACLE), "checkpoint": "missing.npz"},
            "checkpoint missing.npz is a dqn policy, but no dqn",
        ),
    ],
)
def test_run_eval_refuses_empty_work(config, kwargs, message, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        run_eval(tiny_experiment(**config), str(out), **kwargs)
    assert not out.exists()


def test_run_train_refuses_zero_episodes(tmp_path):
    """The library call gives the CLI's message, not the one for a run
    whose every episode ended at reset."""
    config = tiny_experiment()
    config = replace(config, train=replace(config.train, episodes=0))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^training needs at least 1 episode, got 0$"):
        run_train(config, str(out))
    assert not out.exists()


def test_run_eval_draws_each_trial_once(monkeypatch, tmp_path):
    """One draw of each trial serves every method, the oracle included."""
    config = tiny_experiment(n_eval_trials=3)
    env = build_env(config)
    net = QNetwork(
        default_net_config(
            env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions
        )
    )
    params = net.init_params(np.random.default_rng(0))
    checkpoint = tmp_path / "init.npz"
    save_checkpoint(checkpoint, net, params)
    drawn = []

    def counted(scenario, trial):
        drawn.append(trial)
        return scenario_for_trial(scenario, trial)

    monkeypatch.setattr(minislot.runner, "scenario_for_trial", counted)
    rows = run_eval(
        config,
        str(tmp_path / "out"),
        methods=(DQN, EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, ORACLE),
        checkpoint=str(checkpoint),
    )
    assert drawn == [0, 1, 2]

    expected = []
    for trial in range(3):
        profiles = scenario_for_trial(config.scenario, trial)
        expected += [
            _plan_row(trial, DQN, greedy_rollout(env, net, params, profiles=profiles)),
            _plan_row(
                trial, EQUAL_BANDWIDTH, equal_bandwidth_plan(config.scenario, profiles)
            ),
            _plan_row(
                trial,
                EQUAL_TIME_FREQUENCY,
                equal_time_frequency_plan(config.scenario, profiles),
            ),
            _plan_row(
                trial, ORACLE, oracle_best_plan(config.scenario, profiles, config.reward).plan
            ),
        ]
    expected.sort(key=lambda r: (r["trial"], r["method"]))
    assert rows == expected


@pytest.mark.parametrize("trials, pools", [(2, [2]), (1, [])])
def test_oracle_workers_never_outnumber_trials(trials, pools, monkeypatch, tmp_path):
    """A pool starts all its workers at once, so ``jobs`` is capped at the
    trial count, and one trial is searched in this process.  The stand-in
    pool records its size and maps here: no process is started."""
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    config = tiny_experiment(n_eval_trials=trials)
    rows = run_eval(config, str(tmp_path / "pooled"), methods=(ORACLE,), jobs=10**6)
    assert made == pools
    assert rows == run_eval(config, str(tmp_path / "serial"), methods=(ORACLE,))
