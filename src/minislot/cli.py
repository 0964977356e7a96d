"""Command-line interface.

Subcommands::

    minislot train     train a policy, write training.csv + checkpoint.npz
    minislot eval      compare methods on shared trials, write eval.csv
    minislot baseline  equal-split reference methods only
    minislot oracle    exhaustive search (small instances), write oracle.csv

Config resolution order: built-in defaults (or --tiny), then --config
file, then MINISLOT_* environment overrides, then explicit flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import (
    ExperimentConfig,
    apply_env_overrides,
    default_experiment,
    load_config,
    tiny_experiment,
)
from .oracle import SearchSizeError
from .runner import (
    ALL_METHODS,
    DQN,
    EQUAL_BANDWIDTH,
    EQUAL_TIME_FREQUENCY,
    ORACLE,
    run_eval,
    run_train,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config JSON file")
    parser.add_argument(
        "--tiny", action="store_true", help="start from the small two-user setup"
    )
    parser.add_argument("--out", help="output directory (default from config)")


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.tiny:
        raise ValueError("--config and --tiny are mutually exclusive")
    if args.config:
        config = load_config(args.config)
    elif args.tiny:
        config = tiny_experiment()
    else:
        config = default_experiment()
    config = apply_env_overrides(config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, train=replace(config.train, seed=args.seed))
    if getattr(args, "episodes", None) is not None:
        config = replace(config, train=replace(config.train, episodes=args.episodes))
    if getattr(args, "trials", None) is not None:
        config = replace(config, n_eval_trials=args.trials)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minislot",
        description="Two-tier 360-degree video scheduling on a mini-slot grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a deep-Q scheduling policy")
    _add_common(p_train)
    p_train.add_argument("--seed", type=int, help="override the training seed")
    p_train.add_argument("--episodes", type=int, help="override training episodes")
    p_train.add_argument(
        "--quiet", action="store_true", help="suppress per-episode progress"
    )

    p_eval = sub.add_parser("eval", help="evaluate methods on shared trials")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", help="trained policy (enables dqn rows)")
    p_eval.add_argument("--trials", type=int, help="number of evaluation trials")
    p_eval.add_argument(
        "--methods",
        default=",".join((EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY, DQN)),
        help=f"comma-separated subset of {','.join(ALL_METHODS)}",
    )
    p_eval.add_argument("--jobs", type=int, default=1, help="parallel oracle workers")

    p_base = sub.add_parser("baseline", help="equal-split reference methods only")
    _add_common(p_base)
    p_base.add_argument("--trials", type=int, help="number of evaluation trials")
    p_base.set_defaults(
        methods=",".join((EQUAL_BANDWIDTH, EQUAL_TIME_FREQUENCY)), checkpoint=None, jobs=1
    )

    p_oracle = sub.add_parser("oracle", help="exhaustive search on small instances")
    _add_common(p_oracle)
    p_oracle.add_argument("--trials", type=int, help="number of trials to search")
    p_oracle.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_oracle.add_argument(
        "--checkpoint", help="also evaluate this trained policy on the same trials"
    )
    p_oracle.set_defaults(methods=ORACLE)

    return parser


def _progress(stream):
    def on_episode(m):
        if m.episode % 25 == 0 or m.episode < 3:
            print(
                f"episode {m.episode:5d}  reward {m.total_reward:9.3f}  "
                f"steps {m.steps:4d}  served {m.served_count}/{m.n_ues}  "
                f"eps {m.epsilon:.3f}",
                file=stream,
            )

    return on_episode


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        out = args.out or config.output_dir
        command = " ".join(["minislot"] + (argv if argv is not None else sys.argv[1:]))

        if args.command == "train":
            on_episode = None if args.quiet else _progress(sys.stderr)
            result, checkpoint = run_train(
                config, out, command=command, on_episode=on_episode
            )
            last = result.metrics[-1]
            print(
                f"trained {len(result.metrics)} episodes; "
                f"final reward {last.total_reward:.3f}; checkpoint {checkpoint}"
            )
        else:
            methods = tuple(m for m in args.methods.split(",") if m)
            if not methods:
                raise ValueError(f"--methods names no method: {args.methods!r}")
            if args.command == "oracle" and args.checkpoint:
                methods += (DQN,)
            rows = run_eval(
                config,
                out,
                methods=methods,
                checkpoint=args.checkpoint,
                jobs=args.jobs,
                command=command,
                filename="oracle.csv" if args.command == "oracle" else "eval.csv",
            )
            _print_summary(rows)
    except (ValueError, OSError, MemoryError, SearchSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_summary(rows) -> None:
    methods = sorted({r["method"] for r in rows})
    for method in methods:
        own = [r for r in rows if r["method"] == method]
        qoe = sum(r["total_qoe"] for r in own) / len(own)
        served = sum(r["served_count"] for r in own) / len(own)
        print(f"{method:22s} trials {len(own):3d}  mean QoE {qoe:8.4f}  mean served {served:.2f}")


if __name__ == "__main__":
    sys.exit(main())
