"""Glue between configs and artifacts: train, evaluate, compare.

Every entry point takes an :class:`ExperimentConfig` and an output
directory and leaves behind CSV files plus a manifest describing exactly
what produced them.  Evaluation methods all see the same per-trial user
profiles, so rows with the same trial index are directly comparable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .agent import TrainResult, greedy_rollout, load_checkpoint, save_checkpoint, train
from .baselines import AllocationPlan, equal_bandwidth_plan, equal_time_frequency_plan
from .config import ExperimentConfig, to_dict
from .env import SchedulingEnv
from .oracle import oracle_best_plan
from .outputs import write_eval_csv, write_manifest, write_training_csv
from .scenario import scenario_for_trial

DQN = "dqn"
EQUAL_BANDWIDTH = "equal_bandwidth"
EQUAL_TIME_FREQUENCY = "equal_time_frequency"
ORACLE = "oracle"
ALL_METHODS = (DQN, EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, ORACLE)


def build_env(config: ExperimentConfig) -> SchedulingEnv:
    return SchedulingEnv(config.scenario, reward=config.reward)


def _manifest(config: ExperimentConfig, command: str) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": config.train.seed,
        "scenario_seed": config.scenario.rng_seed,
        "config": to_dict(config),
    }


def run_train(
    config: ExperimentConfig,
    out_dir: str,
    command: str = "train",
    on_episode=None,
) -> tuple[TrainResult, str]:
    """Train one policy; write training.csv, checkpoint.npz, manifest.json,
    or nothing when a trained parameter is not finite."""
    env = build_env(config)
    result = train(env, config.train, on_episode=on_episode)
    if not all(np.isfinite(value).all() for value in result.params.values()):
        rate = config.train.learning_rate
        raise ValueError(f"training diverged to non-finite parameters at learning_rate {rate}")
    os.makedirs(out_dir, exist_ok=True)
    write_training_csv(os.path.join(out_dir, "training.csv"), result.metrics)
    checkpoint_path = os.path.join(out_dir, "checkpoint.npz")
    save_checkpoint(
        checkpoint_path,
        result.net,
        result.params,
        extra={
            "train_seed": config.train.seed,
            "scenario_seed": config.scenario.rng_seed,
            "episodes": config.train.episodes,
        },
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), _manifest(config, command))
    return result, checkpoint_path


def _plan_row(trial: int, method: str, plan: AllocationPlan) -> dict:
    return {
        "trial": trial,
        "method": method,
        "total_qoe": plan.total_qoe,
        "served_count": plan.served_count,
        "per_ue_qoe": [r.counted_qoe for r in plan.reports],
    }


def _oracle_trial(args) -> dict:
    config, trial = args
    profiles = scenario_for_trial(config.scenario, trial)
    result = oracle_best_plan(config.scenario, profiles)
    return _plan_row(trial, ORACLE, result.plan)


def run_eval(
    config: ExperimentConfig,
    out_dir: str,
    methods=(EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, DQN),
    checkpoint: str | None = None,
    jobs: int = 1,
    command: str = "eval",
    filename: str = "eval.csv",
) -> list[dict]:
    """Evaluate the requested methods on the config's ``n_eval_trials``
    sampled trials, shared by every method."""
    if not methods:
        raise ValueError("no methods to evaluate")
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    n_trials = config.n_eval_trials
    if n_trials < 1:
        raise ValueError(f"evaluation needs at least 1 trial, got {n_trials}")
    if jobs < 1:
        raise ValueError(f"jobs needs at least 1 worker, got {jobs}")

    rows: list[dict] = []
    if DQN in methods:
        if checkpoint is None:
            raise ValueError("dqn evaluation needs a checkpoint")
        net, params, _ = load_checkpoint(checkpoint)
        env = build_env(config)
        c = net.config
        trained = (c.grid_height, c.grid_width, c.aux_dim, c.n_actions)
        needed = (env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions)
        if trained != needed:
            raise ValueError(
                f"checkpoint {checkpoint} fits (grid_height, grid_width, aux_dim, "
                f"n_actions) = {trained}, but this config needs {needed}"
            )
    # every method but the oracle, whose workers draw their own, sees one
    # draw of each trial
    if set(methods) - {ORACLE}:
        for trial in range(n_trials):
            profiles = scenario_for_trial(config.scenario, trial)
            if DQN in methods:
                plan = greedy_rollout(env, net, params, profiles)
                rows.append(_plan_row(trial, DQN, plan))
            if EQUAL_BANDWIDTH in methods:
                plan = equal_bandwidth_plan(config.scenario, profiles)
                rows.append(_plan_row(trial, EQUAL_BANDWIDTH, plan))
            if EQUAL_TIME_FREQUENCY in methods:
                plan = equal_time_frequency_plan(config.scenario, profiles)
                rows.append(_plan_row(trial, EQUAL_TIME_FREQUENCY, plan))
    if ORACLE in methods:
        tasks = [(config, trial) for trial in range(n_trials)]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows.extend(pool.map(_oracle_trial, tasks))
        else:
            rows.extend(_oracle_trial(t) for t in tasks)

    rows.sort(key=lambda r: (r["trial"], r["method"]))
    os.makedirs(out_dir, exist_ok=True)
    write_eval_csv(os.path.join(out_dir, filename), rows)
    write_manifest(os.path.join(out_dir, "manifest.json"), _manifest(config, command))
    return rows
