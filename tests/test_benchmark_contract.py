"""The benchmark's tracer patches the program's public names by lookup,
and its smoke check runs every workload's correctness checks; a rename or
a fault they depend on should fail here, not in a benchmark run."""

import importlib
import subprocess
import sys
from pathlib import Path

import minislot.env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_smoke_passes():
    """The benchmark's own smoke check (every workload at its smoke size,
    untraced and traced, with its correctness checks) passes on the program
    as it stands, so a change that breaks those checks fails here."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=1800,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    step = minislot.env.SchedulingEnv.__dict__["step"]
    with spans.Tracer().installed():
        assert minislot.env.SchedulingEnv.__dict__["step"] is not step
    assert minislot.env.SchedulingEnv.__dict__["step"] is step


LEARNER_SPANS = (
    "net.forward.train",
    "net.forward.target",
    "net.backward",
    "net.adam_update",
    "net.clip_global_norm",
    "env.expand_cells",
    "agent.replay.sample",
)


def test_tracer_sees_every_learner_call(monkeypatch):
    """A learner that routes around a traced name would read 0 on that
    name's per-layer metrics without any other test failing."""
    from minislot.agent import TrainConfig, train
    from minislot.env import SchedulingEnv
    from minislot.scenario import tiny_config

    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    cfg = TrainConfig(episodes=2, batch_size=8, train_start_size=8, seed=0)
    with spans.Tracer().installed() as tracer:
        train(SchedulingEnv(tiny_config()), cfg)
    for name in LEARNER_SPANS:
        assert tracer.durations(name).size > 0, name


GRID_SPANS = (
    "grid.find_first_fit",
    "env.step",
    "env.clone",
    "baselines.equal_time_frequency_plan",
)


def test_tracer_sees_every_grid_call(monkeypatch, tmp_path):
    """The same for the grid: a placement or clone that skips a traced name
    would read 0 on the grid's per-layer metrics."""
    from minislot.config import tiny_experiment
    from minislot.runner import EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, ORACLE, run_eval

    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    methods = (EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, ORACLE)
    with spans.Tracer().installed() as tracer:
        run_eval(tiny_experiment(n_eval_trials=1), str(tmp_path), methods=methods)
    for name in GRID_SPANS:
        assert tracer.durations(name).size > 0, name


RUNNER_SPANS = (
    "agent.greedy_rollout",
    "agent.load_checkpoint",
    "oracle.oracle_best_plan",
    "baselines.equal_bandwidth_plan",
    "scenario.scenario_for_trial",
    "outputs.write",
)


def test_tracer_sees_every_runner_call(monkeypatch, tmp_path):
    """Every method's trial goes through a runner global the tracer wraps;
    a method that built its result some other way would read 0 there."""
    import numpy as np

    from minislot.agent import save_checkpoint
    from minislot.config import tiny_experiment
    from minislot.net import QNetwork, default_net_config
    from minislot.runner import ALL_METHODS, build_env, run_eval

    config = tiny_experiment(n_eval_trials=1)
    env = build_env(config)
    net = QNetwork(
        default_net_config(
            env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions
        )
    )
    checkpoint = tmp_path / "init.npz"
    save_checkpoint(checkpoint, net, net.init_params(np.random.default_rng(0)))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    with spans.Tracer().installed() as tracer:
        rows = run_eval(
            config, str(tmp_path / "out"), methods=ALL_METHODS, checkpoint=str(checkpoint)
        )
    assert sorted(r["method"] for r in rows) == sorted(ALL_METHODS)
    for name in RUNNER_SPANS:
        assert tracer.durations(name).size > 0, name
