"""Deep Q-learning on the scheduling environment.

The agent interacts with :class:`minislot.env.SchedulingEnv` through its
compact observation (cell-code grid + auxiliary vector) and feasibility
mask.  Transitions go into a ring replay buffer; every environment step
after warm-up draws one minibatch and applies a TD(0) update against a
periodically synced target network.  Infeasible actions are masked out of
both action selection and the bootstrap max.
"""

from __future__ import annotations

import io
import json
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .baselines import AllocationPlan
from .env import SchedulingEnv, expand_cells
from .net import (
    DTYPE,
    GRID_CHANNELS,
    Adam,
    NetConfig,
    QNetwork,
    clip_global_norm,
    default_net_config,
)
from .scenario import (
    STREAM_ACTIONS,
    STREAM_EPISODE,
    STREAM_REPLAY,
    STREAM_WEIGHTS,
    UeProfile,
    sample_scenario,
    stream_rng,
)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 510
    learning_rate: float = 1e-3
    batch_size: int = 32
    replay_capacity: int = 100_000
    train_start_size: int = 256
    target_sync_steps: int = 100
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.5  # of total episodes
    grad_clip_norm: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError("episodes must be non-negative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.target_sync_steps < 1:
            raise ValueError(
                f"target_sync_steps must be at least 1, got {self.target_sync_steps}"
            )
        if self.replay_capacity < max(self.batch_size, self.train_start_size):
            raise ValueError(
                f"replay_capacity {self.replay_capacity} is below the warm-up of "
                f"{max(self.batch_size, self.train_start_size)} transitions "
                "(max of batch_size and train_start_size), so no step would learn"
            )
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not self.grad_clip_norm > 0.0:
            raise ValueError(f"grad_clip_norm must be positive, got {self.grad_clip_norm}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def epsilon_at(cfg: TrainConfig, episode: int) -> float:
    """Linear decay over the first ``epsilon_decay_fraction`` of episodes."""
    horizon = max(1, int(round(cfg.episodes * cfg.epsilon_decay_fraction)))
    frac = min(1.0, episode / horizon)
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


class ReplayBuffer:
    """Ring buffer with compact storage (uint8 grids, float32 aux).

    ``sample`` gathers into arrays the buffer keeps, grown to the largest
    batch drawn, so drawing a minibatch allocates no grids.
    """

    def __init__(self, capacity: int, grid_shape: tuple[int, int], aux_dim: int, n_actions: int):
        self.capacity = capacity
        # each field's array attribute: name -> (per-row shape, dtype), in
        # add's argument order
        self._fields = {
            "cell": (grid_shape, np.uint8),
            "aux": ((aux_dim,), np.float32),
            "action": ((), np.int16),
            "reward": ((), np.float32),
            "done": ((), np.bool_),
            "next_cell": (grid_shape, np.uint8),
            "next_aux": ((aux_dim,), np.float32),
            "next_mask": ((n_actions,), np.bool_),
        }
        self.size = 0
        self.pos = 0
        self._allocated = 0
        self._drawn: dict[str, np.ndarray] = {}

    def _ensure(self, n: int) -> None:
        # grow geometrically so short runs never pay for full capacity
        if n <= self._allocated:
            return
        new = min(self.capacity, max(1024, 2 * self._allocated, n))
        for name, (shape, dtype) in self._fields.items():
            fresh = np.zeros((new, *shape), dtype)
            if self._allocated:
                fresh[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, fresh)
        self._allocated = new

    def add(self, cell, aux, action, reward, done, next_cell, next_aux, next_mask):
        self._ensure(self.pos + 1)
        row = (cell, aux, action, reward, done, next_cell, next_aux, next_mask)
        for name, value in zip(self._fields, row):
            getattr(self, name)[self.pos] = value
        self.pos = (self.pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """``batch`` uniform draws with replacement, each field in the dtype
        it is stored in.

        The arrays are views into the buffer's own storage: the next
        ``sample`` overwrites them.
        """
        idx = rng.integers(0, self.size, size=batch)
        if len(self._drawn.get("cell", ())) < batch:
            self._drawn = {
                name: np.empty((batch, *shape), dtype)
                for name, (shape, dtype) in self._fields.items()
            }
        drawn = {}
        for name, rows in self._drawn.items():
            # idx is in range: "clip" never clips
            drawn[name] = np.take(getattr(self, name), idx, axis=0, out=rows[:batch], mode="clip")
        return drawn


def act_epsilon_greedy(
    net: QNetwork,
    params: dict[str, np.ndarray],
    cell_code: np.ndarray,
    aux: np.ndarray,
    mask: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    n_ues: int,
) -> int:
    feasible = np.flatnonzero(mask)
    if feasible.size == 0:
        raise RuntimeError("no feasible action to select")
    if rng.random() < epsilon:
        return int(rng.choice(feasible))
    return _greedy_action(net, params, cell_code, aux, mask, n_ues)


def _greedy_action(
    net: QNetwork, params: dict[str, np.ndarray], cell_code, aux, mask, n_ues: int
) -> int:
    """The feasible action of highest Q in one observed state."""
    q = net.forward(params, expand_cells(cell_code[None], n_ues), aux[None])[0]
    return int(np.argmax(np.where(mask, q, -np.inf)))  # the lowest index on ties


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    total_reward: float
    steps: int
    served_count: int
    n_ues: int
    total_qoe: float
    epsilon: float
    outcome: str


@dataclass
class TrainResult:
    net: QNetwork
    params: dict[str, np.ndarray]
    metrics: list[EpisodeMetrics] = field(default_factory=list)


def _td_targets(
    net: QNetwork,
    target_params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    discount: float,
    n_ues: int,
    grids: np.ndarray,
) -> np.ndarray:
    """Reward, widened to float64, plus the discounted best feasible
    next-state Q of live rows; a done row gets no add at all.

    ``grids`` (float32, at least B x 3 x F x T) receives the next states'
    observation channels.  The target network runs on every row, as no
    row's Q-values depend on the others (see ``minislot.net``).
    """
    targets = batch["reward"].astype(np.float64)
    live = ~batch["done"]
    q_next = net.forward(
        target_params, expand_cells(batch["next_cell"], n_ues, out=grids), batch["next_aux"]
    )
    best = np.where(batch["next_mask"], q_next, -np.inf).max(axis=1)
    targets[live] += discount * best[live]
    return targets


def _observe(env: SchedulingEnv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uint8 cell grid, float32 aux vector, feasible mask) of the live
    ``env``; all zeros once it is done, as a terminal next state is stored."""
    if env.done:
        return (
            np.zeros_like(env.occupancy.code),
            np.zeros(env.aux_dim, np.float32),
            np.zeros(env.n_actions, bool),
        )
    return (*env.compact_observation(), env.feasible_actions())


def train(env: SchedulingEnv, cfg: TrainConfig, on_episode=None) -> TrainResult:
    """Run the full training loop; one fresh scenario per episode.

    Every stochastic choice draws from a stream keyed on ``cfg.seed`` so a
    repeated call reproduces the run exactly.
    """
    dims = env.dims
    net = QNetwork(
        default_net_config(dims.n_freq_units, dims.n_time_units, env.aux_dim, env.n_actions)
    )
    params = net.init_params(stream_rng(cfg.seed, STREAM_WEIGHTS))
    target_params = {k: v.copy() for k, v in params.items()}

    action_rng = stream_rng(cfg.seed, STREAM_ACTIONS)
    replay_rng = stream_rng(cfg.seed, STREAM_REPLAY)
    buffer = ReplayBuffer(
        cfg.replay_capacity,
        (dims.n_freq_units, dims.n_time_units),
        env.aux_dim,
        env.n_actions,
    )
    optimizer = Adam(learning_rate=cfg.learning_rate)
    discount = env.reward_params.discount
    warmup = max(cfg.batch_size, cfg.train_start_size)
    # one minibatch's observation channels: the next states' for the TD
    # targets, then the states' for the gradient step
    grids = np.empty(
        (cfg.batch_size, GRID_CHANNELS, dims.n_freq_units, dims.n_time_units),
        np.float32,
    )

    result = TrainResult(net=net, params=params)
    grad_steps = 0
    for episode in range(cfg.episodes):
        eps = epsilon_at(cfg, episode)
        env.reset(sample_scenario(env.config, stream_rng(cfg.seed, STREAM_EPISODE, episode)))
        total_reward = 0.0
        state = _observe(env)
        while not env.done:
            cell, aux, mask = state
            action = act_epsilon_greedy(
                net, params, cell, aux, mask, eps, action_rng, env.config.n_ues
            )
            reward, done = env.step(action)
            total_reward += reward
            state = _observe(env)
            buffer.add(cell, aux, action, reward, done, *state)

            if buffer.size >= warmup:
                batch = buffer.sample(cfg.batch_size, replay_rng)
                targets = _td_targets(
                    net, target_params, batch, discount, env.config.n_ues, grids
                )
                _, grads = net.loss_and_grads(
                    params,
                    expand_cells(batch["cell"], env.config.n_ues, out=grids),
                    batch["aux"],
                    batch["action"],
                    targets,
                )
                clip_global_norm(grads, cfg.grad_clip_norm)
                optimizer.update(params, grads)
                grad_steps += 1
                if grad_steps % cfg.target_sync_steps == 0:
                    for name, value in params.items():
                        np.copyto(target_params[name], value)

        metrics = EpisodeMetrics(
            episode=episode,
            total_reward=total_reward,
            steps=env.step_count,
            served_count=int(np.sum(env.served)),
            n_ues=env.config.n_ues,
            total_qoe=env.total_qoe(),
            epsilon=eps,
            outcome=env.outcome or "",
        )
        result.metrics.append(metrics)
        if on_episode is not None:
            on_episode(metrics)
    return result


def greedy_rollout(
    env: SchedulingEnv,
    net: QNetwork,
    params: dict[str, np.ndarray],
    profiles: list[UeProfile],
) -> AllocationPlan:
    """Play one episode on the trial ``profiles`` with the greedy masked
    policy; ``env`` keeps the finished episode (its outcome, steps and
    bookkeeping)."""
    env.reset(profiles)
    while not env.done:
        env.step(_greedy_action(net, params, *_observe(env), env.config.n_ues))
    return env.plan()


# ---------- checkpointing ----------


def save_checkpoint(path, net: QNetwork, params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write parameters plus the network's geometry and the architecture
    it gives; the parameters are stored as float64, which holds every
    float32 exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "net_config": net.config.architecture(),
        "extra": extra or {},
    }
    arrays = {f"param/{k}": v.astype(np.float64) for k, v in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


# what zipfile, zlib and numpy's .npy header parser raise on a truncated
# or damaged archive (NotImplementedError: a flipped compression method)
_DAMAGED_ARCHIVE = (
    ValueError,
    EOFError,
    NotImplementedError,
    zipfile.BadZipFile,
    zlib.error,
    tokenize.TokenError,
)


def load_checkpoint(path) -> tuple[QNetwork, dict[str, np.ndarray], dict]:
    """The network, its parameters rounded to the learner's float32 and
    the checkpoint's extra fields."""
    try:
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
    except _DAMAGED_ARCHIVE as exc:
        raise ValueError(
            f"cannot read checkpoint {str(path)!r}: {type(exc).__name__}: {exc}"
        ) from None
    if "__meta__" not in members:
        raise ValueError(f"{str(path)!r} is not a checkpoint file")
    config, expected, extra = _read_meta(path, members["__meta__"])
    params = {k[len("param/"):]: v for k, v in members.items() if k.startswith("param/")}
    # checked before the network exists, so no size the metadata names is
    # allocated unless the archive holds parameters that big
    if set(params) != set(expected):
        raise ValueError("checkpoint parameter set does not match architecture")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                f"checkpoint parameter {name} has shape {params[name].shape}, "
                f"the architecture needs {shape}"
            )
        if params[name].dtype != np.float64:
            raise ValueError(f"checkpoint parameter {name} is {params[name].dtype}, not float64")
        if not np.isfinite(params[name]).all():
            raise ValueError(f"checkpoint parameter {name} is not finite")
        # checked before rounding, which would make such a value inf
        if (np.abs(params[name]) > np.finfo(DTYPE).max).any():
            raise ValueError(f"checkpoint parameter {name} is beyond the float32 range")
    return QNetwork(config), {k: v.astype(DTYPE) for k, v in params.items()}, extra


def _read_meta(path, raw: np.ndarray) -> tuple[NetConfig, dict[str, tuple[int, ...]], dict]:
    """The geometry, its parameter shapes and the extra fields of a
    checkpoint's ``__meta__``; a ValueError naming ``path`` for anything
    save_checkpoint would not have written, such as an architecture other
    than the one the geometry gives."""
    try:
        meta = json.loads(bytes(raw).decode())
        if not isinstance(meta, dict):
            raise TypeError(f"a JSON {type(meta).__name__}, not an object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        net = dict(meta["net_config"])
        extra = meta["extra"]
        if not isinstance(extra, dict):
            raise TypeError(f"extra is a JSON {type(extra).__name__}, not an object")
        # every other field is the geometry the architecture is derived from
        geometry = {k: v for k, v in net.items() if k not in ("grid_channels", "conv", "dense")}
        config = NetConfig(**geometry)
        derived = config.architecture()
        if net != derived:
            raise ValueError(f"stored architecture {net} differs from {derived}, its geometry's")
        return config, config.param_shapes(), extra
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(
            f"bad metadata in checkpoint {str(path)!r}: {type(exc).__name__}: {exc}"
        ) from None
