"""Benchmark of minislot's three uses: training, evaluation, exhaustive search.

    python3 perfbench/run.py --workload eval-default --seed 3 --seconds 15 --trace 0

Each workload calls one ``minislot.runner`` entry point, the one the CLI
uses, in whole rounds of identical work (same config, same seed) until
``--seconds`` have passed, with at least two rounds.  Afterwards it checks
what the rounds wrote against computations made apart from the program
(``checks.py``) and that every round wrote the same bytes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
``trials_per_s`` is a round's units over the median round's seconds.
With ``--trace 1`` untraced rounds run for half of ``--seconds`` (again at
least two), then one round runs with every public call wrapped in a span
(``spans.py``); the metrics are the per-layer ones, and the spans go to
``perfbench/out``.
``--smoke`` shrinks every workload so that ``smoke.py`` can run them all in
seconds.  The seed reaches the program only through the config.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# one BLAS thread keeps a run on one CPU; set before numpy loads so that it
# takes effect
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import minislot
except ImportError as exc:
    sys.exit(f"error: cannot import minislot from {SRC}: {exc}")
if not Path(minislot.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: minislot imported from {minislot.__file__}, not from {SRC}")

import minislot.runner as runner  # noqa: E402
from minislot.agent import load_checkpoint  # noqa: E402
from minislot.config import default_experiment, tiny_experiment  # noqa: E402
from minislot.net import QNetwork, default_net_config  # noqa: E402
from minislot.scenario import STREAM_WEIGHTS, scenario_for_trial, stream_rng  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

CHECKPOINT = BENCH_DIR / "checkpoints" / "default-60ep-seed0.npz"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# each repetition imports this module in a fresh interpreter and prints the
# seconds the imports above took
TIME_IMPORTS = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import run; print(time.perf_counter() - t)"
)
MIN_ROUNDS = 2
EVAL_METHODS = (runner.DQN, runner.EQUAL_BANDWIDTH, runner.EQUAL_TIME_FREQUENCY)
ORACLE_BEST_PLAN = runner.oracle_best_plan


def with_seed(config, seed: int, scenario_seed: int):
    return replace(
        config,
        scenario=replace(config.scenario, rng_seed=scenario_seed),
        train=replace(config.train, seed=seed),
    )


class TrainDefault:
    """A fixed, short training run on the default config; unit: an env step.

    A unit is a transition, not an episode: three episodes take 247 to 298
    steps over seeds 1-10, and nearly every step is a learner step.

    Learning starts once the buffer holds one batch, not after the default
    256 transitions: a round of three episodes (~260 steps) would otherwise
    be mostly warm-up, and its learner steps would vary with the seed.
    """

    def __init__(self, seed: int, smoke: bool):
        base = default_experiment()
        train = replace(
            base.train, episodes=2 if smoke else 3, train_start_size=base.train.batch_size
        )
        self.config = with_seed(replace(base, train=train), seed, seed)
        self.units = 0  # env steps of a round; every round takes the same

    def setup(self) -> None:
        env = runner.build_env(self.config)
        net = QNetwork(
            default_net_config(
                env.dims.n_freq_units, env.dims.n_time_units, env.aux_dim, env.n_actions
            )
        )
        net.init_params(stream_rng(self.config.train.seed, STREAM_WEIGHTS))

    def run_round(self, out: Path) -> None:
        result, _ = runner.run_train(self.config, str(out), command="perfbench train-default")
        self.units = sum(m.steps for m in result.metrics)

    def check(self, outs: list[Path], seed: int) -> list[str]:
        last = outs[-1]
        return checks.check_train(
            self.config, str(last), str(last / "checkpoint.npz")
        ) + same_bytes(outs, "training.csv")


class EvalDefault:
    """dqn (fixed checkpoint) and both splits on default trials; unit: a trial."""

    def __init__(self, seed: int, smoke: bool):
        self.units = 12 if smoke else 50
        self.config = replace(with_seed(default_experiment(), seed, seed), n_eval_trials=self.units)
        self.n_sample = 3 if smoke else 8
        self.rows: list[dict] = []

    def setup(self) -> None:
        runner.build_env(self.config)
        load_checkpoint(CHECKPOINT)

    def run_round(self, out: Path) -> None:
        self.rows = runner.run_eval(
            self.config,
            str(out),
            methods=EVAL_METHODS,
            checkpoint=str(CHECKPOINT),
            command="perfbench eval-default",
        )

    def check(self, outs: list[Path], seed: int) -> list[str]:
        net, params, _ = load_checkpoint(CHECKPOINT)
        env = runner.build_env(self.config)
        rng = np.random.default_rng(seed)
        sample = {}
        for trial in sorted(rng.choice(self.config.n_eval_trials, self.n_sample, replace=False)):
            profiles = scenario_for_trial(self.config.scenario, int(trial))
            runner.greedy_rollout(env, net, params, profiles=profiles)
            sample[int(trial)] = list(env.allocations)
        return (
            checks.check_eval(self.config, self.rows, EVAL_METHODS, sample)
            + checks.check_csv_matches_rows(outs[-1] / "eval.csv", self.rows)
            + same_bytes(outs, "eval.csv")
        )


class OracleTiny:
    """Exhaustive search on fixed tiny trials; unit: a searched trial.

    The trial set does not follow --seed: search sizes are heavy-tailed
    (2,354 to 90,398 nodes per trial), so trials drawn per seed would change
    the work per round manyfold.  Scenario seed 1, trials 0-1, holds the two
    common sizes (13,484 and 2,354 nodes); --seed drives the random rollouts
    that the oracle must beat.
    """

    SCENARIO_SEED = 1

    def __init__(self, seed: int, smoke: bool):
        self.units = 1 if smoke else 2
        self.config = replace(
            with_seed(tiny_experiment(), seed, self.SCENARIO_SEED), n_eval_trials=self.units
        )
        self.n_random = 8
        self.rows: list[dict] = []
        self.results: list[list] = []  # OracleResults of each round, trial order
        # runner drops OracleResult.nodes; keep the results to count them
        runner.oracle_best_plan = self._recorded

    def _recorded(self, *args, **kwargs):
        result = ORACLE_BEST_PLAN(*args, **kwargs)
        self.results[-1].append(result)
        return result

    def setup(self) -> None:
        env = runner.build_env(self.config)
        env.reset(profiles=scenario_for_trial(self.config.scenario, 0))
        env.clone()

    def run_round(self, out: Path) -> None:
        self.results.append([])
        self.rows = runner.run_eval(
            self.config,
            str(out),
            methods=(runner.ORACLE,),
            command="perfbench oracle-tiny",
            filename="oracle.csv",
        )

    def nodes(self, round_index: int) -> list[int]:
        return [r.nodes for r in self.results[round_index]]

    def check(self, outs: list[Path], seed: int) -> list[str]:
        errors = checks.check_oracle(
            self.config, self.rows, self.results[-1], seed, self.n_random
        )
        first = self.nodes(0)
        errors += [
            f"round {i}: node counts {self.nodes(i)} != round 0 {first}"
            for i in range(1, len(self.results))
            if self.nodes(i) != first
        ]
        return (
            errors
            + checks.check_csv_matches_rows(outs[-1] / "oracle.csv", self.rows)
            + same_bytes(outs, "oracle.csv")
        )


WORKLOADS = {"train-default": TrainDefault, "eval-default": EvalDefault, "oracle-tiny": OracleTiny}


def same_bytes(outs: list[Path], name: str) -> list[str]:
    first = (outs[0] / name).read_bytes()
    return [f"{o / name} differs from {outs[0] / name}" for o in outs[1:] if (o / name).read_bytes() != first]


def run_rounds(work, out: Path, prefix: str, seconds: float, min_rounds: int, tracer=None):
    """Whole rounds until ``seconds`` have passed; (seconds per round, dirs)."""
    run_round = work.run_round if tracer is None else tracer.wrap(work.run_round, "runner")
    laps: list[float] = []
    dirs: list[Path] = []
    while len(laps) < min_rounds or sum(laps) < seconds:
        dirs.append(out / f"{prefix}{len(dirs)}")
        t0 = time.perf_counter()
        run_round(dirs[-1])
        laps.append(time.perf_counter() - t0)
    print(f"# {prefix} seconds: {[round(x, 3) for x in laps]}")
    return laps, dirs


def layer_metrics(tracer: Tracer, work, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures of the traced round; rates against the median
    untraced round."""

    def calls(name):
        return tracer.durations(name).size

    def pct(name, q, scale):
        d = tracer.durations(name)
        return float(np.percentile(d, q)) * scale if d.size else 0.0

    steps = calls("env.step")
    untraced_rate = work.units / untraced_s
    traced_rate = work.units / traced_s
    all_self_s = float(tracer.arrays()["self_ns"].sum()) * 1e-9
    m = {
        "grid.find_first_fit.calls": calls("grid.find_first_fit"),
        "grid.find_first_fit.us_p50": pct("grid.find_first_fit", 50, 1e6),
        "grid.find_first_fit.self_s": tracer.self_seconds("grid.find_first_fit"),
        "grid.find_first_fit.calls_per_step": calls("grid.find_first_fit") / steps if steps else 0.0,
        "env.step.calls": steps,
        "env.step.us_p50": pct("env.step", 50, 1e6),
        "env.step.self_s": tracer.self_seconds("env.step"),
        "env.reset.us_p50": pct("env.reset", 50, 1e6),
        "env.clone.calls": calls("env.clone"),
        "env.clone.us_p50": pct("env.clone", 50, 1e6),
        "env.compact_observation.us_p50": pct("env.compact_observation", 50, 1e6),
        "env.expand_cells.us_p50": pct("env.expand_cells", 50, 1e6),
        "net.forward.b1.us_p50": pct("net.forward.b1", 50, 1e6),
        "net.forward.b1.self_s": tracer.self_seconds("net.forward.b1"),
        "net.forward.target.us_p50": pct("net.forward.target", 50, 1e6),
        "net.loss_and_grads.ms_p50": pct("net.loss_and_grads", 50, 1e3),
        "net.backward.ms_p50": pct("net.backward", 50, 1e3),
        "net.adam_update.us_p50": pct("net.adam_update", 50, 1e6),
        "net.clip_global_norm.us_p50": pct("net.clip_global_norm", 50, 1e6),
        "net.self_s": tracer.self_seconds("net."),
        "agent.learn_steps": calls("net.loss_and_grads"),
        "agent.replay.sample.us_p50": pct("agent.replay.sample", 50, 1e6),
        "agent.replay.add.us_p50": pct("agent.replay.add", 50, 1e6),
        "agent.replay.bytes_per_transition": replay_bytes(tracer.replay_buffer),
        "agent.train.self_s": tracer.self_seconds("agent.train"),
        "agent.greedy_rollout.ms_p50": pct("agent.greedy_rollout", 50, 1e3),
        "agent.greedy_rollout.ms_p95": pct("agent.greedy_rollout", 95, 1e3),
        "agent.load_checkpoint.ms": pct("agent.load_checkpoint", 50, 1e3),
        "agent.save_checkpoint.ms": pct("agent.save_checkpoint", 50, 1e3),
        "oracle.nodes": 0,
        "oracle.nodes_per_s": 0.0,
        "oracle.oracle_best_plan.s_p50": pct("oracle.oracle_best_plan", 50, 1.0),
        "oracle.search.self_s": tracer.self_seconds("oracle.oracle_best_plan"),
        "baselines.equal_bandwidth_plan.us_p50": pct("baselines.equal_bandwidth_plan", 50, 1e6),
        "baselines.equal_time_frequency_plan.us_p50": pct("baselines.equal_time_frequency_plan", 50, 1e6),
        "baselines.equal_time_frequency_plan.calls": calls("baselines.equal_time_frequency_plan"),
        "qoe.calls_per_step": tracer.qoe_calls / steps if steps else 0.0,
        "scenario.scenario_for_trial.us_p50": pct("scenario.scenario_for_trial", 50, 1e6),
        "outputs.write.ms": float(tracer.durations("outputs.write").sum()) * 1e3,
        "outputs.bytes_written": tracer.bytes_written,
        "runner.self_s": tracer.self_seconds("runner"),
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
        "trace.untraced_trials_per_s": untraced_rate,
        "trace.traced_trials_per_s": traced_rate,
        "trace.self_coverage_pct": 100.0 * (all_self_s - tracer.self_seconds("runner")) / traced_s,
        "trace.spans": len(tracer.arrays()["start_ns"]),
    }
    if isinstance(work, OracleTiny):
        m["oracle.nodes"] = sum(work.nodes(-1))
        m["oracle.nodes_per_s"] = sum(work.nodes(-2)) / untraced_s
    return m


def replay_bytes(buffer) -> int:
    """Bytes one stored transition takes, from the buffer's array layouts."""
    if buffer is None:
        return 0
    names = ("cell", "aux", "action", "reward", "done", "next_cell", "next_aux", "next_mask")
    return sum(getattr(buffer, n).itemsize * int(np.prod(getattr(buffer, n).shape[1:])) for n in names)


def report(values: dict, declared: list[dict]) -> dict:
    """Every declared metric with its unit; a missing or extra name is a bug."""
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(
        f"# {args.workload} seed {args.seed} trace {args.trace}: python {platform.python_version()}, "
        f"numpy {np.__version__}, BLAS threads {BLAS_THREADS}, {os.cpu_count()} CPUs"
    )
    imports = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", TIME_IMPORTS, str(BENCH_DIR)],
            capture_output=True, text=True, check=True,
        )
        imports.append(float(proc.stdout))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work = WORKLOADS[args.workload](args.seed, args.smoke)
        work.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    if args.trace:
        laps, dirs = run_rounds(work, out, "round", args.seconds / 2, MIN_ROUNDS)
        tracer = Tracer()
        with tracer.installed():
            traced_laps, traced_dirs = run_rounds(work, out, "traced", 0, 1, tracer)
        dirs += traced_dirs
        tracer.save(out / "spans.npz")
    else:
        laps, dirs = run_rounds(work, out, "round", args.seconds, MIN_ROUNDS)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = work.units * len(dirs)
    print(f"# {len(dirs)} rounds, {units} units, outputs in {out.relative_to(ROOT)}")
    if isinstance(work, OracleTiny):
        print(f"# oracle nodes per trial: {work.nodes(0)}")

    errors = work.check(dirs, args.seed)
    for e in errors[:20]:
        print(f"# FAILED CHECK: {e}")
    if args.trace:
        metrics = report(
            layer_metrics(tracer, work, traced_laps[0], statistics.median(laps)),
            declared["per_layer"],
        )
    else:
        metrics = report(
            {
                "trials_per_s": work.units / statistics.median(laps),
                "setup_s": setup_s,
                "peak_rss_mib": peak_rss_mib,
            },
            declared["end_to_end"],
        )
    print(json.dumps({"correct": not errors, "attempted": units, "failed": 0, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
