"""End-to-end acceptance checks for the full system.

One test per acceptance criterion.  Each prints a single [PASS]/[FAIL]
line with the measured numbers (visible with ``-s`` or on failure) and
then asserts, so a red test carries its own evidence.

The slow shared artifacts — a fully trained default-scale policy, its
200-trial evaluation, and a trained small-scale policy — are module
fixtures, built once.  Expect the module to take several minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from minislot.agent import TrainConfig, greedy_rollout, train
from minislot.baselines import equal_bandwidth_plan, equal_time_frequency_plan
from minislot.config import tiny_experiment
from minislot.env import SchedulingEnv
from minislot.grid import GridSpec, Tier, bwp_shape, derive_grid, validate_allocation_set
from minislot.net import GRID_CHANNELS, QNetwork, default_net_config
from minislot.oracle import oracle_best_plan
from minislot.outputs import moving_average
from minislot.qoe import effective_rate, qoe_fn
from minislot.radio import LinkParams, LinkState
from minislot.runner import DQN, EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, run_eval, run_train
from minislot.scenario import default_config, sample_scenario, scenario_for_trial, tiny_config

from gradcheck import gradient_check

N_EVAL_TRIALS = 200


def check(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------- shared slow artifacts ----------


@pytest.fixture(scope="module")
def default_policy():
    """Full default-scale training run (4 users, 510 episodes)."""
    return train(SchedulingEnv(default_config()), TrainConfig())


def _tf_bw_closed_form(profiles) -> float:
    """Total-QoE gap, equal-time-frequency minus equal-bandwidth, for a trial
    where both splits serve every user.

    Both splits give a user the same band.  Halving its base-tier bits costs
    ``b * ln 2``; sending the other half over the viewport multiplies the
    total rate by ``1 + C_bt / C_et``, which the combined score weights by
    the viewport-match probability ``rho``.
    """
    return sum(
        p.qoe.b
        * (
            -math.log(2.0)
            + p.fov_prob * math.log(1.0 + p.qoe.bt_coverage_deg2 / p.qoe.et_coverage_deg2)
        )
        for p in profiles
    )


@pytest.fixture(scope="module")
def default_eval(default_policy):
    """Greedy policy and both fixed splits on 200 shared trials.

    For trials where both splits serve every user, also records the
    closed-form tf-bw gap (NaN elsewhere).
    """
    config = default_config()
    env = SchedulingEnv(config)
    dqn, bw, tf, served, splits_serve_all, closed_form = [], [], [], [], [], []
    for trial in range(N_EVAL_TRIALS):
        profiles = scenario_for_trial(config, trial)
        roll = greedy_rollout(env, default_policy.net, default_policy.params, profiles=profiles)
        dqn.append(roll.total_qoe)
        served.append(roll.served_count / len(roll.reports))
        bw_plan = equal_bandwidth_plan(config, profiles)
        tf_plan = equal_time_frequency_plan(config, profiles)
        bw.append(bw_plan.total_qoe)
        tf.append(tf_plan.total_qoe)
        both = bw_plan.served_count == tf_plan.served_count == config.n_ues
        splits_serve_all.append(both)
        closed_form.append(_tf_bw_closed_form(profiles) if both else math.nan)
    return {
        "dqn": np.array(dqn),
        "bw": np.array(bw),
        "tf": np.array(tf),
        "served": np.array(served),
        "splits_serve_all": np.array(splits_serve_all),
        "tf_bw_closed_form": np.array(closed_form),
    }


@pytest.fixture(scope="module")
def tiny_policy():
    """Trained policy for the small two-user system used by the oracle."""
    return train(
        SchedulingEnv(tiny_config()),
        TrainConfig(episodes=300, train_start_size=64, seed=3),
    )


# ---------- criteria ----------


def test_criterion_01_grid_derivation():
    spec = GridSpec(mu_min=4, mu_max=6, frame_duration_ms=0.0625, system_bandwidth_khz=69120.0)
    derive_grid(spec)  # warm caches before timing
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        dims = derive_grid(spec)
        best = min(best, time.perf_counter() - start)
    ok = dims.n_time_units == 56 and dims.n_freq_units == 24 and best < 1e-3
    check(
        ok,
        "criterion 1 (grid derivation)",
        f"{dims.n_time_units}x{dims.n_freq_units} lattice in {best*1e6:.1f} us",
    )


def test_criterion_02_bwp_area_invariant():
    spec = GridSpec(mu_min=4, mu_max=6, frame_duration_ms=0.0625, system_bandwidth_khz=69120.0)
    areas = {
        (mu, eta): bwp_shape(mu, eta, spec).area_units
        for mu in (4, 5, 6)
        for eta in (2, 4, 7)
    }
    ok = all(area == 4 * eta for (mu, eta), area in areas.items())
    ok = ok and all(areas[(mu, 2)] == 8 for mu in (4, 5, 6))
    check(
        ok,
        "criterion 2 (numerology-invariant area)",
        f"areas {sorted(set(areas.values()))} cells for eta in (2, 4, 7)",
    )


def test_criterion_03_link_budget():
    # independent hand calculation from the raw constants
    link = LinkParams()
    wavelength = 3.0e8 / 28e9
    channel_gain = (wavelength / (4.0 * math.pi * 200.0)) ** 2
    tx_psd = 10.0 ** ((-47.0 - 30.0 - 30.0) / 10.0) / 4.0  # 30 dB back-off, 4-way split
    noise_psd = 10.0 ** ((-169.0 - 30.0) / 10.0)
    hand_snr = 10.0**1.5 * 10.0**1.0 * channel_gain * tx_psd / noise_psd

    state = LinkState.for_distance(link, 200.0, 4)
    dims = derive_grid(GridSpec(4, 6, 0.0625, 69120.0))
    bits = 8 * dims.rb_size_shz * state.spectral_efficiency

    ok = (
        abs(state.snr_linear - hand_snr) / hand_snr < 1e-12
        and abs(state.snr_linear - 2.277) / 2.277 < 0.005
        and abs(bits - 44.0) / 44.0 < 0.005
    )
    check(
        ok,
        "criterion 3 (link budget)",
        f"SNR {state.snr_linear:.6f} (hand {hand_snr:.6f}, target 2.277), "
        f"8-RB bits {bits:.4f} (target 44.0)",
    )


def test_criterion_04_gradient_check():
    config = default_net_config(24, 56, 22, 9)
    net = QNetwork(config)
    rng = np.random.default_rng(17)
    params = net.init_params(rng)
    grid = rng.random((8, GRID_CHANNELS, 24, 56))
    aux = rng.random((8, config.aux_dim))
    actions = rng.integers(0, config.n_actions, size=8)
    targets = rng.normal(size=8)
    start = time.perf_counter()
    worst, checked = gradient_check(net, params, grid, aux, actions, targets, rng, n_samples=250)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and checked >= 200 and elapsed < 30.0
    check(
        ok,
        "criterion 4 (gradient correctness)",
        f"worst rel err {worst:.3e} over {checked} coordinates in {elapsed:.1f}s",
    )


def test_criterion_05_convergence(default_policy):
    ma = moving_average([m.total_reward for m in default_policy.metrics], 50)
    first = float(np.mean(ma[:100]))
    last = float(np.mean(ma[-100:]))
    final, peak = ma[-1], max(ma)
    ok = last > first and final >= 0.9 * peak
    check(
        ok,
        "criterion 5 (convergence)",
        f"moving-average reward first100 {first:.3f} -> last100 {last:.3f}, "
        f"final {final:.3f} vs peak {peak:.3f} ({100 * final / peak:.2f}%)",
    )


def test_criterion_06_feasibility(default_eval):
    served_pct = 100.0 * float(default_eval["served"].mean())
    ok = served_pct >= 95.0
    check(
        ok,
        "criterion 6 (feasibility)",
        f"served {served_pct:.2f}% over {len(default_eval['served'])} trials",
    )


def _bootstrap_ci(diff: np.ndarray, n_boot: int = 10_000) -> tuple[float, float]:
    rng = np.random.default_rng(12345)
    idx = rng.integers(0, len(diff), size=(n_boot, len(diff)))
    means = diff[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def test_criterion_07_efficiency_ordering(default_eval):
    dqn, bw, tf = default_eval["dqn"], default_eval["bw"], default_eval["tf"]
    m_dqn, m_bw, m_tf = dqn.mean(), bw.mean(), tf.mean()
    ci_dqn_bw = _bootstrap_ci(dqn - bw)
    ci_dqn_tf = _bootstrap_ci(dqn - tf)
    # The split ordering follows from the QoE model, not from the method:
    # on trials where both splits serve every user, tf - bw must equal the
    # closed form, which is positive for every rho >= 0.46.
    qualifying = default_eval["splits_serve_all"]
    n_qualifying = int(qualifying.sum())
    residual = np.abs((tf - bw)[qualifying] - default_eval["tf_bw_closed_form"][qualifying])
    worst = float(residual.max()) if n_qualifying else math.inf
    ok = (
        m_dqn > m_tf > m_bw
        and ci_dqn_bw[0] > 0.0
        and ci_dqn_tf[0] > 0.0
        and n_qualifying >= 1
        and worst <= 1e-9
    )
    check(
        ok,
        "criterion 7 (efficiency ordering)",
        f"mean QoE dqn {m_dqn:.4f}, equal-bandwidth {m_bw:.4f}, "
        f"equal-time-frequency {m_tf:.4f}; 95% CI dqn-bw "
        f"[{ci_dqn_bw[0]:+.4f}, {ci_dqn_bw[1]:+.4f}], dqn-tf "
        f"[{ci_dqn_tf[0]:+.4f}, {ci_dqn_tf[1]:+.4f}]; both splits serve every "
        f"user on {n_qualifying}/{len(tf)} trials, worst tf-bw closed-form "
        f"residual {worst:.1e}; requires dqn > tf > bw, both CI lower bounds "
        f"> 0, >= 1 qualifying trial and residual <= 1e-9",
    )


def test_criterion_08_oracle_near_optimality(tiny_policy):
    config = tiny_config()
    env = SchedulingEnv(config)
    dominated = 0
    near_optimal = 0
    n_trials = 20
    for trial in range(n_trials):
        profiles = tuple(scenario_for_trial(config, trial))
        best = oracle_best_plan(config, profiles).plan.total_qoe
        roll = greedy_rollout(env, tiny_policy.net, tiny_policy.params, profiles=profiles)
        bw = equal_bandwidth_plan(config, profiles).total_qoe
        tf = equal_time_frequency_plan(config, profiles).total_qoe
        if best >= bw - 1e-9 and best >= tf - 1e-9:
            dominated += 1
        ratio = roll.total_qoe / best if best > 0 else 1.0
        if ratio >= 0.9:
            near_optimal += 1
    ok = dominated == n_trials and near_optimal >= 14
    check(
        ok,
        "criterion 8 (oracle near-optimality)",
        f"oracle dominates both splits on {dominated}/{n_trials} instances; "
        f"policy >= 90% of oracle on {near_optimal}/{n_trials} (need >= 14)",
    )


def test_criterion_09_determinism(tmp_path):
    config = tiny_experiment(n_eval_trials=10)
    config = replace(config, train=replace(config.train, episodes=60, seed=11))
    artifacts = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        _, checkpoint = run_train(config, str(out))
        run_eval(
            config,
            str(out),
            methods=(EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, DQN),
            checkpoint=checkpoint,
        )
        artifacts[tag] = (
            (out / "training.csv").read_bytes(),
            (out / "eval.csv").read_bytes(),
        )
    same_train = artifacts["a"][0] == artifacts["b"][0]
    same_eval = artifacts["a"][1] == artifacts["b"][1]
    ok = same_train and same_eval
    check(
        ok,
        "criterion 9 (determinism)",
        f"training.csv identical: {same_train}; eval.csv identical: {same_eval}",
    )


def _soundness_pool():
    tiny = tiny_config()
    return [
        tiny,
        tiny_config(peak_factor=1.2),
        tiny_config(peak_factor=0.7),
        tiny_config(peak_factor=0.3),  # exclusion fires immediately
        tiny_config(max_bwps_per_ue_tier=2),
        tiny_config(max_bwps_per_ue_tier=4),
        tiny_config(max_bwps_per_ue_tier=None),
        tiny_config(min_distance_m=10.0, cell_radius_m=180.0, min_qoe=(3.5, 4.5)),
        tiny_config(n_ues=1, min_qoe=(4.1,)),
        tiny_config(n_ues=3, min_qoe=(4.1, 4.1, 4.1)),
        tiny_config(
            grid=GridSpec(1, 2, 2.0 / 7.0, 5760.0),
            n_ues=3,
            min_qoe=(4.1, 4.1, 4.1),
            max_bwps_per_ue_tier=4,
        ),
    ]


def _check_episode(env) -> list[str]:
    """All protocol invariants that must hold at termination."""
    bad = []
    cfg = env.config
    served = env.served

    if env.outcome == "success" and not all(served):
        bad.append("success without all users served")
    if env.outcome == "violation" and all(served):
        bad.append("violation with all users served")

    # C1: the served flag must match the base-tier QoE threshold
    for ue, profile in enumerate(env.profiles):
        if env.bits[ue] > 0.0:
            rate = effective_rate(
                env.bits[ue], cfg.frame_duration_s, profile.qoe.bt_coverage_deg2
            )
            q_bt = qoe_fn(rate, profile.qoe)
        else:
            q_bt = -math.inf
        if bool(served[ue]) != (q_bt >= profile.qoe.min_qoe):
            bad.append(f"served flag inconsistent for user {ue}")
        # C2: peak cap holds unless the user was explicitly excluded
        if not env.bt_excluded[ue] and q_bt > profile.qoe.peak_qoe + 1e-9:
            bad.append(f"base-tier QoE {q_bt:.3f} above peak for user {ue}")

    # C4: placements in bounds and pairwise disjoint
    if not validate_allocation_set(env.allocations, env.dims):
        bad.append("overlapping or out-of-bounds allocations")

    # C5: every placement uses a configured numerology / mini-slot length
    for alloc in env.allocations:
        if alloc.shape.mu not in cfg.numerology_set:
            bad.append(f"numerology {alloc.shape.mu} outside configured set")
        if alloc.shape.eta not in cfg.minislot_set:
            bad.append(f"mini-slot length {alloc.shape.eta} outside configured set")

    # bookkeeping: bits follow from the placements
    se = np.array([p.link.spectral_efficiency for p in env.profiles])
    bt = np.zeros(cfg.n_ues)
    et = np.zeros(cfg.n_ues)
    for alloc in env.allocations:
        bits = alloc.shape.area_shz(env.dims) * se[alloc.ue_index]
        if alloc.tier is Tier.BT:
            bt[alloc.ue_index] += bits
        else:
            et[alloc.ue_index] += bits
    if not (
        np.allclose(bt, env.bits[: cfg.n_ues], rtol=1e-9, atol=1e-6)
        and np.allclose(et, env.bits[cfg.n_ues :], rtol=1e-9, atol=1e-6)
    ):
        bad.append("bit bookkeeping does not match allocations")

    if env.step_count > env.reward_params.max_steps:
        bad.append(f"episode length {env.step_count} above the cap")
    if len(env.allocations) != env.step_count:
        bad.append("allocation count differs from step count")
    return bad


def test_criterion_10_constraint_soundness():
    n_total = 100_000
    n_default = 500
    n_mid = 2_500

    pool = _soundness_pool()
    mid_config = pool[-1]
    tiny_variants = pool[:-1]
    envs = {id(c): SchedulingEnv(c) for c in pool}
    default_env = SchedulingEnv(default_config())

    rng = np.random.default_rng(20260825)
    failures: list[str] = []
    outcomes = {"success": 0, "violation": 0}
    excluded_episodes = 0

    for i in range(n_total):
        if i < n_default:
            env = default_env
        elif i < n_default + n_mid:
            env = envs[id(mid_config)]
        else:
            env = envs[id(tiny_variants[i % len(tiny_variants)])]
        env.reset(sample_scenario(env.config, rng))
        while not env.done:
            mask = env.feasible_actions()
            env.step(int(rng.choice(np.flatnonzero(mask))))
        outcomes[env.outcome] += 1
        excluded_episodes += any(env.bt_excluded)
        bad = _check_episode(env)
        if bad:
            failures.append(f"rollout {i}: " + "; ".join(bad))
            if len(failures) >= 5:
                break

    ok = not failures and outcomes["success"] > 0 and outcomes["violation"] > 0
    check(
        ok,
        "criterion 10 (constraint soundness)",
        f"{n_total} random rollouts: {outcomes['success']} success, "
        f"{outcomes['violation']} violation, {excluded_episodes} with exclusions, "
        f"{len(failures)} invariant failures"
        + (f"; first: {failures[0]}" if failures else ""),
    )
