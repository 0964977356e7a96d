"""Correctness checks on what each workload's entry point wrote.

Every expected value is computed here, apart from the program: the lattice
from the grid spec, each user's spectral efficiency from the link budget,
QoE from ``a + b*ln(rate)``, placements painted onto this module's own grid.
The program supplies only the inputs (the sampled distances and
field-of-view probabilities).  Each check returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from minislot.agent import load_checkpoint
from minislot.env import SchedulingEnv
from minislot.net import QNetwork
from minislot.outputs import TRAINING_COLUMNS
from minislot.scenario import STREAM_WEIGHTS, scenario_for_trial, stream_rng

REL_TOL = 1e-9
SPEED_OF_LIGHT_M_S = 3.0e8


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------- reference model ----------


def lattice(scenario):
    """(freq rows, time columns, cell area in s*Hz) from the grid spec."""
    g = scenario.grid
    dt_ms = 1.0 / (14 * 2**g.mu_max)
    db_khz = 12 * 15.0 * 2**g.mu_min
    return (
        round(g.system_bandwidth_khz / db_khz),
        round(g.frame_duration_ms / dt_ms),
        dt_ms * db_khz,
    )


def spectral_efficiency(scenario, distance_m: float) -> float:
    """Free-space gain, equal PSD split, Shannon efficiency."""
    link = scenario.link
    gain = (SPEED_OF_LIGHT_M_S / (4 * math.pi * link.carrier_frequency_hz)) ** 2 / distance_m**2
    psd = 10 ** ((link.total_tx_psd_dbm_hz - link.tx_psd_backoff_db - 30) / 10) / scenario.n_ues
    noise = 10 ** ((link.noise_psd_dbm_hz - 30) / 10)
    snr = 10 ** (link.tx_gain_dbi / 10) * 10 ** (link.rx_gain_dbi / 10) * gain * psd / noise
    return math.log2(1 + snr)


def user_qoe(scenario, profile, bt_bits: float, et_bits: float) -> tuple[float, float]:
    """(base-tier QoE, counted combined QoE) for one user's delivered bits."""
    if bt_bits <= 0:
        return -math.inf, 0.0
    frame_s = scenario.grid.frame_duration_ms * 1e-3
    r_bt = bt_bits / (frame_s * scenario.bt_coverage_deg2)
    r_et = et_bits / (frame_s * scenario.et_coverage_deg2)
    a, b, rho = scenario.qoe_a, scenario.qoe_b, profile.fov_prob
    q_bt = a + b * math.log(r_bt)
    q_comb = (1 - rho) * q_bt + rho * (a + b * math.log(r_bt + r_et))
    return q_bt, (q_comb if q_bt >= scenario.min_qoe[profile.index] else 0.0)


def split_qoe(scenario, profiles, halved: bool) -> list[float]:
    """Counted per-user QoE of an equal split: each user owns a band of rows;
    equal bandwidth sends the whole frame as base tier, equal time-frequency
    the first half as base tier and the second as enhancement.  Only whole
    symbol groups of the narrowest numerology are usable."""
    n_freq, n_time, cell = lattice(scenario)
    stride = 2 ** (scenario.grid.mu_max - scenario.grid.mu_min)

    def usable(cols):
        return cols // stride * stride

    spans = (usable(n_time // 2), usable(n_time - n_time // 2)) if halved else (usable(n_time), 0)
    base, extra = divmod(n_freq, scenario.n_ues)
    out = []
    for p in profiles:
        rows = base + (1 if p.index < extra else 0)
        se = spectral_efficiency(scenario, p.distance_m)
        out.append(user_qoe(scenario, p, rows * spans[0] * cell * se, rows * spans[1] * cell * se)[1])
    return out


def paint(scenario, allocations) -> list[str]:
    """Paint placements onto a fresh grid; report out-of-bounds and overlaps."""
    n_freq, n_time, _ = lattice(scenario)
    grid = np.zeros((n_freq, n_time), dtype=np.int64)
    errors = []
    for a in allocations:
        t0, f0 = a.time_offset_units, a.freq_offset_units
        t1, f1 = t0 + a.shape.time_len_units, f0 + a.shape.freq_width_units
        if t0 < 0 or f0 < 0 or t1 > n_time or f1 > n_freq:
            errors.append(f"placement {(t0, f0, t1, f1)} out of bounds")
            continue
        grid[f0:f1, t0:t1] += 1
    if (grid > 1).any():
        errors.append(f"{int((grid > 1).sum())} cells covered twice")
    return errors


def placement_qoe(scenario, profiles, allocations) -> list[tuple[float, float]]:
    """Per-user (base-tier QoE, counted QoE) recomputed from placements."""
    _, _, cell = lattice(scenario)
    bits = {(p.index, t): 0.0 for p in profiles for t in ("BT", "ET")}
    for a in allocations:
        se = spectral_efficiency(scenario, profiles[a.ue_index].distance_m)
        bits[(a.ue_index, a.tier.value)] += a.shape.time_len_units * a.shape.freq_width_units * cell * se
    return [user_qoe(scenario, p, bits[(p.index, "BT")], bits[(p.index, "ET")]) for p in profiles]


def check_row_qoe(row: dict, expected: list[float], label: str) -> list[str]:
    errors = []
    got = list(row["per_ue_qoe"])
    if len(got) != len(expected) or not all(close(g, e) for g, e in zip(got, expected)):
        errors.append(f"{label}: per-user QoE {got} != reference {expected}")
    if not close(row["total_qoe"], sum(expected)):
        errors.append(f"{label}: total {row['total_qoe']} != reference {sum(expected)}")
    return errors


def check_served_users(scenario, row: dict, label: str) -> list[str]:
    """A served user's QoE clears its minimum; an unserved user's is 0."""
    errors = []
    per_ue = row["per_ue_qoe"]
    for i, q in enumerate(per_ue):
        if q != 0.0 and q < scenario.min_qoe[i]:
            errors.append(f"{label}: user {i} QoE {q} below min_qoe {scenario.min_qoe[i]}")
    if row["served_count"] != sum(1 for q in per_ue if q != 0.0):
        errors.append(f"{label}: served_count {row['served_count']} != non-zero users")
    return errors


def check_csv_matches_rows(path, rows: list[dict]) -> list[str]:
    """The CSV holds the returned rows, in order, at 10 significant digits."""
    written = read_csv(path)
    if len(written) != len(rows):
        return [f"{path}: {len(written)} rows, entry point returned {len(rows)}"]
    for w, r in zip(written, rows):
        per_ue = [float(x) for x in w["per_ue_qoe"].split(";")]
        if (
            int(w["trial"]) != r["trial"]
            or w["method"] != r["method"]
            or not close(float(w["total_qoe"]), r["total_qoe"])
            or not all(close(a, b) for a, b in zip(per_ue, r["per_ue_qoe"]))
        ):
            return [f"{path}: row {w} differs from returned {r}"]
    return []


# ---------- train-default ----------


def expected_param_shapes(scenario) -> dict[str, tuple[int, ...]]:
    """Parameter shapes from the conv arithmetic: two 3x3 stride-2 valid convs
    (8 and 16 filters) over 3 channels, one 64-unit dense layer, one Q-value
    per (numerology, mini-slot) action."""
    n_freq, n_time, _ = lattice(scenario)
    h, w = n_freq, n_time
    shapes, in_ch = {}, 3
    for i, filters in enumerate((8, 16)):
        h, w = (h - 3) // 2 + 1, (w - 3) // 2 + 1
        shapes[f"conv{i}/W"] = (in_ch * 9, filters)
        shapes[f"conv{i}/b"] = (filters,)
        in_ch = filters
    aux = 5 * scenario.n_ues + 2
    n_actions = len(scenario.numerology_set) * len(scenario.minislot_set)
    shapes["dense0/W"] = (in_ch * h * w + aux, 64)
    shapes["dense0/b"] = (64,)
    shapes["out/W"] = (64, n_actions)
    shapes["out/b"] = (n_actions,)
    return shapes


def check_train(config, out_dir: str, checkpoint: str) -> list[str]:
    errors = []
    cfg = config.train
    rows = read_csv(f"{out_dir}/training.csv")
    if not rows or tuple(rows[0]) != TRAINING_COLUMNS:
        return [f"training.csv: {len(rows)} rows, columns {tuple(rows[0]) if rows else ()}"]
    if len(rows) != cfg.episodes or [int(r["episode"]) for r in rows] != list(range(cfg.episodes)):
        errors.append(f"training.csv has {len(rows)} rows for {cfg.episodes} episodes")
    horizon = max(1, int(round(cfg.episodes * cfg.epsilon_decay_fraction)))
    rewards = [float(r["total_reward"]) for r in rows]
    scale = max(1.0, max(abs(x) for x in rewards))
    n = config.scenario.n_ues
    for k, r in enumerate(rows):
        eps = cfg.epsilon_start + min(1.0, k / horizon) * (cfg.epsilon_end - cfg.epsilon_start)
        if not close(float(r["epsilon"]), eps):
            errors.append(f"episode {k}: epsilon {r['epsilon']} != schedule {eps}")
        window = rewards[max(0, k - 49) : k + 1]
        if abs(float(r["moving_avg_reward"]) - sum(window) / len(window)) > 1e-8 * scale:
            errors.append(f"episode {k}: moving_avg_reward {r['moving_avg_reward']} != trailing mean")
        served = float(r["served_pct"]) * n / 100.0
        if abs(served - round(served)) > 1e-9 or not 0 <= round(served) <= n:
            errors.append(f"episode {k}: served_pct {r['served_pct']} not a multiple of {100 / n}")
        if int(r["steps"]) < 1 or float(r["total_qoe"]) < 0:
            errors.append(f"episode {k}: steps {r['steps']}, total_qoe {r['total_qoe']}")

    net, params, _ = load_checkpoint(checkpoint)
    shapes = {k: tuple(v.shape) for k, v in params.items()}
    if shapes != expected_param_shapes(config.scenario):
        errors.append(f"checkpoint shapes {shapes} != conv arithmetic")
    if not all(np.isfinite(v).all() for v in params.values()):
        errors.append("checkpoint holds non-finite parameters")
    initial = QNetwork(net.config).init_params(stream_rng(cfg.seed, STREAM_WEIGHTS))
    if all(np.array_equal(initial[k], params[k]) for k in initial):
        errors.append("checkpoint parameters equal the seed's initial ones: nothing was learned")
    return errors


# ---------- eval-default ----------


def check_eval(config, rows: list[dict], methods, dqn_sample: dict[int, list]) -> list[str]:
    """``dqn_sample`` maps a trial to the placements of a greedy rollout of it,
    re-run apart from the rows being checked."""
    scenario = config.scenario
    errors = []
    by_trial: dict[int, dict[str, dict]] = {}
    for r in rows:
        by_trial.setdefault(r["trial"], {})
        if r["method"] in by_trial[r["trial"]]:
            errors.append(f"trial {r['trial']}: two {r['method']} rows")
        by_trial[r["trial"]][r["method"]] = r
    if sorted(by_trial) != list(range(config.n_eval_trials)):
        errors.append(f"trials {sorted(by_trial)[:5]}... != 0..{config.n_eval_trials - 1}")
    ln_ratio = math.log(1 + scenario.bt_coverage_deg2 / scenario.et_coverage_deg2)
    for trial, own in sorted(by_trial.items()):
        if set(own) != set(methods):
            errors.append(f"trial {trial}: methods {sorted(own)} != {sorted(methods)}")
            continue
        profiles = scenario_for_trial(scenario, trial)
        bw = split_qoe(scenario, profiles, halved=False)
        tf = split_qoe(scenario, profiles, halved=True)
        errors += check_row_qoe(own["equal_bandwidth"], bw, f"trial {trial} equal_bandwidth")
        errors += check_row_qoe(own["equal_time_frequency"], tf, f"trial {trial} equal_time_frequency")
        if all(q > 0 for q in bw + tf):
            gap = sum(scenario.qoe_b * (-math.log(2) + p.fov_prob * ln_ratio) for p in profiles)
            got = own["equal_time_frequency"]["total_qoe"] - own["equal_bandwidth"]["total_qoe"]
            if not close(got, gap):
                errors.append(f"trial {trial}: tf-bw {got} != closed form {gap}")
        for method, row in own.items():
            errors += check_served_users(scenario, row, f"trial {trial} {method}")
        if trial in dqn_sample:
            placed = dqn_sample[trial]
            errors += [f"trial {trial} dqn: {e}" for e in paint(scenario, placed)]
            expected = [q for _, q in placement_qoe(scenario, profiles, placed)]
            errors += check_row_qoe(own["dqn"], expected, f"trial {trial} dqn")
    return errors


# ---------- oracle-tiny ----------


def random_rollout_qoe(scenario, profiles, rng: np.random.Generator) -> float:
    env = SchedulingEnv(scenario)
    env.reset(profiles=profiles)
    while not env.done:
        env.step(int(rng.choice(np.flatnonzero(env.feasible_actions()))))
    return env.total_qoe()


def check_oracle(config, rows: list[dict], results: list, seed: int, n_random: int) -> list[str]:
    """``results`` are the OracleResults of the searched trials, in trial order."""
    scenario = config.scenario
    errors = []
    if [r["trial"] for r in rows] != list(range(len(results))) or len(rows) != config.n_eval_trials:
        return [f"oracle rows {[r['trial'] for r in rows]} do not cover 0..{config.n_eval_trials - 1}"]
    for row, res in zip(rows, results):
        trial = row["trial"]
        profiles = scenario_for_trial(scenario, trial)
        errors += [f"trial {trial} oracle: {e}" for e in paint(scenario, res.plan.allocations)]
        recomputed = placement_qoe(scenario, profiles, res.plan.allocations)
        errors += check_row_qoe(row, [q for _, q in recomputed], f"trial {trial} oracle")
        errors += check_served_users(scenario, row, f"trial {trial} oracle")
        for i, (q_bt, q) in enumerate(recomputed):
            if q > 0 and q_bt < scenario.min_qoe[i]:
                errors.append(f"trial {trial}: served user {i} base-tier QoE {q_bt} < min_qoe")
        best = row["total_qoe"]
        rng = np.random.default_rng([seed, trial])
        rivals = [random_rollout_qoe(scenario, profiles, rng) for _ in range(n_random)]
        rivals += [sum(split_qoe(scenario, profiles, halved=h)) for h in (False, True)]
        if max(rivals) > best + 1e-9:
            errors.append(f"trial {trial}: oracle {best} beaten by {max(rivals)}")
    return errors
