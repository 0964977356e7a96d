"""Glue between configs and artifacts: train, evaluate, compare.

Every entry point takes an :class:`ExperimentConfig` and an output
directory and leaves behind CSV files plus a manifest describing exactly
what produced them.  Evaluation methods all see the same per-trial user
profiles, so rows with the same trial index are directly comparable.
"""

from __future__ import annotations

import math
import os
import platform
from itertools import repeat

import numpy as np

from . import __version__
from .agent import TrainResult, greedy_rollout, load_checkpoint, save_checkpoint, train
from .baselines import AllocationPlan, equal_bandwidth_plan, equal_time_frequency_plan
from .config import ExperimentConfig, to_dict
from .env import SchedulingEnv
from .oracle import OracleResult, oracle_best_plan
from .outputs import write_eval_csv, write_manifest, write_training_csv
from .scenario import scenario_for_trial

DQN = "dqn"
EQUAL_BANDWIDTH = "equal_bandwidth"
EQUAL_TIME_FREQUENCY = "equal_time_frequency"
ORACLE = "oracle"
ALL_METHODS = (DQN, EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, ORACLE)


def build_env(config: ExperimentConfig) -> SchedulingEnv:
    return SchedulingEnv(config.scenario, reward=config.reward)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numeric_build() -> dict:
    """What trained bits depend on, the Python, numpy and BLAS builds, and
    the BLAS thread variables as read, which they should not depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARIABLES},
    }


def _manifest(config: ExperimentConfig, command: str) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": config.train.seed,
        "scenario_seed": config.scenario.rng_seed,
        "config": to_dict(config),
        "build": _numeric_build(),
    }


def run_train(
    config: ExperimentConfig,
    out_dir: str,
    command: str = "train",
    on_episode=None,
) -> tuple[TrainResult, str]:
    """Train one policy for at least one episode; write training.csv,
    checkpoint.npz, manifest.json, or nothing when no episode took a step
    or a trained parameter is not finite."""
    if config.train.episodes < 1:
        raise ValueError(f"training needs at least 1 episode, got {config.train.episodes}")
    env = build_env(config)
    result = train(env, config.train, on_episode=on_episode)
    if not any(m.steps for m in result.metrics):
        raise ValueError(
            f"none of the {len(result.metrics)} training episodes took a step: "
            "each ended at reset, so nothing was learned"
        )
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


def _oracle_trial(config: ExperimentConfig, profiles) -> OracleResult:
    """The oracle's search of the trial whose users are ``profiles``, in the
    episodes the policy plays."""
    return oracle_best_plan(config.scenario, profiles, config.reward)


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
    sampled trials, shared by every method; write nothing when a total
    QoE is not finite or the policy placed no BWP in any trial.  ``jobs``
    sets the oracle's worker processes and must be 1 without the oracle;
    ``checkpoint`` is the dqn policy and must be None without dqn.  With
    the oracle, the manifest records each trial's search size as
    ``oracle_nodes``, and the children it skipped by key and by bound as
    ``oracle_repeats`` and ``oracle_prunes``, each in trial order."""
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
    if jobs > 1 and ORACLE not in methods:
        raise ValueError(f"jobs {jobs} sets oracle workers, but no oracle method is asked for")
    if checkpoint is not None and DQN not in methods:
        raise ValueError(f"checkpoint {checkpoint} is a dqn policy, but no dqn method is asked for")

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
    # one draw of each trial serves every method
    trials = [scenario_for_trial(config.scenario, trial) for trial in range(n_trials)]
    dqn_placed = False
    for trial, profiles in enumerate(trials):
        if DQN in methods:
            plan = greedy_rollout(env, net, params, profiles)
            dqn_placed = dqn_placed or bool(plan.allocations)
            rows.append(_plan_row(trial, DQN, plan))
        if EQUAL_BANDWIDTH in methods:
            plan = equal_bandwidth_plan(config.scenario, profiles)
            rows.append(_plan_row(trial, EQUAL_BANDWIDTH, plan))
        if EQUAL_TIME_FREQUENCY in methods:
            plan = equal_time_frequency_plan(config.scenario, profiles)
            rows.append(_plan_row(trial, EQUAL_TIME_FREQUENCY, plan))
    if DQN in methods and not dqn_placed:
        raise ValueError(
            f"the dqn policy placed no BWP in any of the {n_trials} trials: "
            "each episode ended at reset"
        )
    manifest = _manifest(config, command)
    if ORACLE in methods:
        # a pool starts all its workers at once: no more than the trials
        workers = min(jobs, n_trials)
        if workers > 1:
            # imported here, or every run would load multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                searched = list(pool.map(_oracle_trial, repeat(config), trials))
        else:
            searched = [_oracle_trial(config, profiles) for profiles in trials]
        rows.extend(_plan_row(trial, ORACLE, r.plan) for trial, r in enumerate(searched))
        manifest["oracle_nodes"] = [r.nodes for r in searched]
        manifest["oracle_repeats"] = [r.repeats for r in searched]
        manifest["oracle_prunes"] = [r.prunes for r in searched]

    for row in rows:
        if not math.isfinite(total := row["total_qoe"]):
            raise ValueError(f"trial {row['trial']} {row['method']} total QoE is {total}")
    rows.sort(key=lambda r: (r["trial"], r["method"]))
    os.makedirs(out_dir, exist_ok=True)
    write_eval_csv(os.path.join(out_dir, filename), rows)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return rows
