import json
from dataclasses import replace

import numpy as np
import pytest

import minislot.oracle
from minislot.baselines import equal_bandwidth_plan, equal_time_frequency_plan
from minislot.config import tiny_experiment
from minislot.env import SchedulingEnv
from minislot.grid import GridSpec, Tier
from minislot.oracle import SearchSizeError, oracle_best_plan
from minislot.runner import ORACLE, build_env, run_eval
from minislot.scenario import default_config, scenario_for_trial, tiny_config


def test_rejects_default_scale():
    config = default_config()
    with pytest.raises(SearchSizeError, match="users"):
        oracle_best_plan(config, tuple(scenario_for_trial(config, 0)))


def test_rejects_unbounded_placement_budget():
    config = tiny_config(max_bwps_per_ue_tier=None)
    with pytest.raises(SearchSizeError, match="unbounded"):
        oracle_best_plan(config, tuple(scenario_for_trial(config, 0)))


def test_rejects_oversized_action_set():
    config = tiny_config(minislot_set=(2, 3, 4, 5, 7))  # 2 numerologies x 5 slots
    with pytest.raises(SearchSizeError, match="actions"):
        oracle_best_plan(config, tuple(scenario_for_trial(config, 0)))


def test_rejects_large_grid():
    config = tiny_config(
        grid=GridSpec(
            mu_min=1, mu_max=2, frame_duration_ms=2.0 / 7.0,
            system_bandwidth_khz=2880.0 * 4,  # 16x32 = 512 cells
        )
    )
    with pytest.raises(SearchSizeError, match="cells"):
        oracle_best_plan(config, tuple(scenario_for_trial(config, 0)))


def served(result):
    return [r.served for r in result.plan.reports]


def test_node_budget_is_enforced(monkeypatch):
    config = tiny_config()
    monkeypatch.setattr(minislot.oracle, "NODE_BUDGET", 3)
    with pytest.raises(SearchSizeError, match="node budget 3"):
        oracle_best_plan(config, tuple(scenario_for_trial(config, 0)))


def test_oracle_dominates_fixed_splits():
    config = tiny_config()
    for trial in (0, 1, 2):
        profiles = tuple(scenario_for_trial(config, trial))
        best = oracle_best_plan(config, profiles)
        bw = equal_bandwidth_plan(config, profiles)
        tf = equal_time_frequency_plan(config, profiles)
        assert best.plan.total_qoe >= bw.total_qoe - 1e-9
        assert best.plan.total_qoe >= tf.total_qoe - 1e-9
        assert best.nodes > 0


def test_oracle_is_deterministic():
    config = tiny_config()
    profiles = tuple(scenario_for_trial(config, 4))
    a = oracle_best_plan(config, profiles)
    b = oracle_best_plan(config, profiles)
    assert a.plan == b.plan
    assert a.nodes == b.nodes


def test_relabeling_users_does_not_change_the_optimum():
    config = tiny_config()
    p0, p1 = scenario_for_trial(config, 6)
    swapped = (replace(p1, index=0), replace(p0, index=1))
    straight = oracle_best_plan(config, (p0, p1))
    mirrored = oracle_best_plan(config, swapped)
    assert mirrored.plan.total_qoe == pytest.approx(straight.plan.total_qoe, rel=1e-12)
    assert served(mirrored) == served(straight)[::-1]


def single_user_corridor():
    # 8x1 lattice with a single 4x1 shape: every step has at most one
    # feasible action, so the whole search tree is one forced path.
    return tiny_config(
        n_ues=1,
        min_qoe=(2.0,),
        cell_radius_m=72.0,
        grid=GridSpec(
            mu_min=1, mu_max=1, frame_duration_ms=2.0 / 7.0,
            system_bandwidth_khz=360.0,
        ),
        numerology_set=(1,),
        minislot_set=(4,),
        max_bwps_per_ue_tier=2,
    )


def test_forced_path_is_found_exactly():
    config = single_user_corridor()
    profiles = tuple(scenario_for_trial(config, 0))
    result = oracle_best_plan(config, profiles)
    # one base placement, one enhancement, each of the only shape
    (shape,) = SchedulingEnv(config).shapes
    assert [(a.shape, a.tier) for a in result.plan.allocations] == [
        (shape, Tier.BT), (shape, Tier.ET),
    ]
    assert served(result) == [True]
    assert result.nodes == 2
    assert result.plan.total_qoe > 0.0


def test_parallel_oracle_matches_serial(tmp_path):
    config = tiny_experiment(n_eval_trials=2)
    serial = run_eval(config, str(tmp_path / "serial"), methods=(ORACLE,), jobs=1)
    parallel = run_eval(config, str(tmp_path / "parallel"), methods=(ORACLE,), jobs=2)
    assert parallel == serial
    a = (tmp_path / "serial" / "eval.csv").read_bytes()
    b = (tmp_path / "parallel" / "eval.csv").read_bytes()
    assert a == b
    # each trial's search counts, in trial order, whichever worker ran it
    manifests = [
        json.loads((tmp_path / side / "manifest.json").read_text())
        for side in ("serial", "parallel")
    ]
    scenario = config.scenario
    expected = [
        oracle_best_plan(scenario, tuple(scenario_for_trial(scenario, trial)), config.reward)
        for trial in range(2)
    ]
    for name in ("nodes", "repeats", "prunes"):
        counts = [getattr(result, name) for result in expected]
        assert [m[f"oracle_{name}"] for m in manifests] == [counts, counts]


def test_oracle_searches_the_episode_the_policy_plays(tmp_path):
    """The step limit of the experiment's reward parameters ends the
    oracle's episodes as it ends the policy's: at one step, a search makes
    only the reset state's children, and its answer is the best of them."""
    config = tiny_experiment(n_eval_trials=2)
    capped = replace(config, reward=replace(config.reward, max_steps=1))
    rows = run_eval(capped, str(tmp_path), methods=(ORACLE,))
    nodes = json.loads((tmp_path / "manifest.json").read_text())["oracle_nodes"]
    env = build_env(capped)
    for row, searched in zip(rows, nodes, strict=True):
        profiles = tuple(scenario_for_trial(capped.scenario, row["trial"]))
        env.reset(profiles)
        actions = [int(a) for a in np.flatnonzero(env.feasible_actions())]
        totals = []
        for action in actions:
            child = env.clone()
            child.step(action)
            assert child.done
            totals.append(child.total_qoe())
        assert searched == len(actions)
        assert row["total_qoe"] == max(totals)
        result = oracle_best_plan(capped.scenario, profiles, capped.reward)
        assert len(result.plan.allocations) == 1


def test_stillborn_grid_yields_empty_plan():
    config = tiny_config(
        grid=GridSpec(
            mu_min=1, mu_max=2, frame_duration_ms=2.0 / 56.0,
            system_bandwidth_khz=360.0,
        )
    )
    profiles = tuple(scenario_for_trial(config, 0))
    result = oracle_best_plan(config, profiles)
    assert served(result) == [False, False]
    assert result.plan.total_qoe == 0.0
    assert result.plan.allocations == ()
    assert len(result.plan.reports) == 2
