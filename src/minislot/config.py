"""Experiment configuration: JSON round-trip and environment overrides.

One :class:`ExperimentConfig` bundles everything a run needs — the
scenario, the reward shaping, and the training hyper-parameters — so a
single file pins a whole experiment.  Values can be overridden from the
process environment with ``MINISLOT_``-prefixed variables using ``__`` as
a path separator, e.g. ``MINISLOT_TRAIN__EPISODES=100`` or
``MINISLOT_SCENARIO__GRID__MU_MIN=1``.
"""

from __future__ import annotations

import json
import os
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .agent import TrainConfig
from .env import RewardParams
from .scenario import ScenarioConfig, tiny_config

ENV_PREFIX = "MINISLOT_"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    n_eval_trials: int = 20
    output_dir: str = "runs"


def default_experiment(**overrides) -> ExperimentConfig:
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


def tiny_experiment(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scenario=tiny_config(),
        train=TrainConfig(episodes=300, train_start_size=64),
    )
    return replace(cfg, **overrides) if overrides else cfg


def to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


class _Malformed(ValueError):
    """A config value of the wrong shape or type for its field."""


def _typed(hint, value, where: str):
    """``value`` as the field type ``hint`` holds it; _Malformed otherwise.

    Dataclass fields are built from objects, tuple fields from lists; an
    int field takes no float or bool, a float field takes an int.
    """
    if is_dataclass(hint):
        return _build(hint, value, where + ".")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(hint, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(f"{where} must be a list, got {value!r}")
        return tuple(_typed(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    allowed = {int: (int,), float: (int, float), str: (str,)}[hint]
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise _Malformed(f"{where} must be {hint.__name__}, got {value!r}")
    return value


def _build(cls, raw, where: str = ""):
    """``cls`` from its :func:`to_dict` form; its own checks still run."""
    name = where.rstrip(".") or "config"
    if not isinstance(raw, dict):
        raise _Malformed(f"{name} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    missing = [n for n in names if n not in raw]
    unknown = sorted(set(raw) - set(names))
    if missing or unknown:
        raise _Malformed(f"{name} is missing {missing}, has unknown {unknown}")
    return cls(**{n: _typed(hints[n], raw[n], where + n) for n in names})


def from_dict(raw: dict) -> ExperimentConfig:
    """The config that :func:`to_dict` wrote, every value type-checked."""
    try:
        return _build(ExperimentConfig, raw)
    except _Malformed as exc:
        raise ValueError(f"malformed experiment config: {exc}") from exc


def save_config(path, config: ExperimentConfig) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return from_dict(json.load(fh))


def _coerce(text: str, hint):
    """An override's value: its JSON, except that a string field takes the
    raw text unless that is a quoted JSON string ("runs/x" needs no quotes,
    and ``null`` or ``1e5`` stay text)."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return text
    if hint is str and not isinstance(value, str):
        return text
    return value


def apply_env_overrides(
    config: ExperimentConfig, environ: dict[str, str] | None = None
) -> ExperimentConfig:
    """Fold ``MINISLOT_*`` variables into the config; unknown paths raise,
    and so does a value of the wrong type for its field."""
    environ = os.environ if environ is None else environ
    data = to_dict(config)
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower().split("__")
        node, cls = data, ExperimentConfig
        for part in path:
            if not is_dataclass(cls) or part not in node:
                raise ValueError(f"unknown config path in {name}")
            parent, hint = node, typing.get_type_hints(cls)[part]
            node, cls = node[part], hint
        parent[path[-1]] = _coerce(value, hint)
        try:
            _typed(hint, parent[path[-1]], ".".join(path))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return from_dict(data)
