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
from dataclasses import dataclass, field, asdict

import numpy as np

from .env import SchedulingEnv, expand_cells
from .net import Adam, ConvSpec, NetConfig, QNetwork, clip_global_norm, default_net_config
from .scenario import (
    STREAM_ACTIONS,
    STREAM_EPISODE,
    STREAM_REPLAY,
    STREAM_WEIGHTS,
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
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must be in (0, 1]")


def epsilon_at(cfg: TrainConfig, episode: int) -> float:
    """Linear decay over the first ``epsilon_decay_fraction`` of episodes."""
    horizon = max(1, int(round(cfg.episodes * cfg.epsilon_decay_fraction)))
    frac = min(1.0, episode / horizon)
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


class ReplayBuffer:
    """Ring buffer with compact storage (uint8 grids, float32 aux)."""

    def __init__(self, capacity: int, grid_shape: tuple[int, int], aux_dim: int, n_actions: int):
        self.capacity = capacity
        self.grid_shape = grid_shape
        self.aux_dim = aux_dim
        self.n_actions = n_actions
        self.size = 0
        self.pos = 0
        self._allocated = 0

    def _ensure(self, n: int) -> None:
        # grow geometrically so short runs never pay for full capacity
        if n <= self._allocated:
            return
        new = min(self.capacity, max(1024, 2 * self._allocated, n))
        def grow(name, shape, dtype):
            fresh = np.zeros((new, *shape), dtype)
            if self._allocated:
                fresh[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, fresh)
        grow("cell", self.grid_shape, np.uint8)
        grow("aux", (self.aux_dim,), np.float32)
        grow("action", (), np.int16)
        grow("reward", (), np.float32)
        grow("done", (), np.bool_)
        grow("next_cell", self.grid_shape, np.uint8)
        grow("next_aux", (self.aux_dim,), np.float32)
        grow("next_mask", (self.n_actions,), np.bool_)
        self._allocated = new

    def add(self, cell, aux, action, reward, done, next_cell, next_aux, next_mask):
        self._ensure(self.pos + 1)
        i = self.pos
        self.cell[i] = cell
        self.aux[i] = aux
        self.action[i] = action
        self.reward[i] = reward
        self.done[i] = done
        self.next_cell[i] = next_cell
        self.next_aux[i] = next_aux
        self.next_mask[i] = next_mask
        self.pos = (self.pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        idx = rng.integers(0, self.size, size=batch)
        return {
            "cell": self.cell[idx],
            "aux": self.aux[idx],
            "action": self.action[idx].astype(np.int64),
            "reward": self.reward[idx].astype(np.float64),
            "done": self.done[idx],
            "next_cell": self.next_cell[idx],
            "next_aux": self.next_aux[idx],
            "next_mask": self.next_mask[idx],
        }


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
    q = net.forward(params, expand_cells(cell_code, n_ues), aux)[0]
    q = np.where(mask, q, -np.inf)
    return int(np.argmax(q))  # argmax takes the lowest index on ties


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

    def rewards(self) -> np.ndarray:
        return np.array([m.total_reward for m in self.metrics])


def _td_targets(
    net: QNetwork,
    target_params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    discount: float,
    n_ues: int,
) -> np.ndarray:
    targets = batch["reward"].copy()
    live = ~batch["done"]
    if live.any():
        q_next = net.forward(
            target_params,
            expand_cells(batch["next_cell"][live], n_ues),
            batch["next_aux"][live],
        )
        q_next = np.where(batch["next_mask"][live], q_next, -np.inf)
        targets[live] += discount * q_next.max(axis=1)
    return targets


def train(
    env: SchedulingEnv,
    cfg: TrainConfig,
    net_config: NetConfig | None = None,
    on_episode=None,
) -> TrainResult:
    """Run the full training loop; one fresh scenario per episode.

    Every stochastic choice draws from a stream keyed on ``cfg.seed`` so a
    repeated call reproduces the run exactly.
    """
    dims = env.dims
    if net_config is None:
        net_config = default_net_config(
            dims.n_freq_units, dims.n_time_units, env.aux_dim, env.n_actions
        )
    net = QNetwork(net_config)
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

    result = TrainResult(net=net, params=params)
    grad_steps = 0
    for episode in range(cfg.episodes):
        eps = epsilon_at(cfg, episode)
        env.reset(rng=stream_rng(cfg.seed, STREAM_EPISODE, episode))
        total_reward = 0.0
        while not env.done:
            cell, aux = env.compact_observation()
            mask = env.feasible_actions()
            action = act_epsilon_greedy(
                net, params, cell, aux, mask, eps, action_rng, env.config.n_ues
            )
            reward, done = env.step(action)
            total_reward += reward
            if done:
                next_cell = np.zeros_like(cell)
                next_aux = np.zeros_like(aux)
                next_mask = np.zeros(env.n_actions, bool)
            else:
                next_cell, next_aux = env.compact_observation()
                next_mask = env.feasible_actions()
            buffer.add(cell, aux, action, reward, done, next_cell, next_aux, next_mask)

            if buffer.size >= warmup:
                batch = buffer.sample(cfg.batch_size, replay_rng)
                targets = _td_targets(net, target_params, batch, discount, env.config.n_ues)
                _, grads = net.loss_and_grads(
                    params,
                    expand_cells(batch["cell"], env.config.n_ues),
                    batch["aux"],
                    batch["action"],
                    targets,
                )
                clip_global_norm(grads, cfg.grad_clip_norm)
                optimizer.update(params, grads)
                grad_steps += 1
                if grad_steps % cfg.target_sync_steps == 0:
                    target_params = {k: v.copy() for k, v in params.items()}

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


@dataclass(frozen=True)
class RolloutResult:
    total_reward: float
    steps: int
    served: tuple[bool, ...]
    total_qoe: float
    per_ue_qoe: tuple[float, ...]
    outcome: str


def greedy_rollout(
    env: SchedulingEnv,
    net: QNetwork,
    params: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
    profiles=None,
) -> RolloutResult:
    """Play one episode with the greedy masked policy."""
    env.reset(rng=rng, profiles=profiles)
    total_reward = 0.0
    while not env.done:
        cell, aux = env.compact_observation()
        mask = env.feasible_actions()
        q = net.forward(params, expand_cells(cell, env.config.n_ues), aux)[0]
        reward, _ = env.step(int(np.argmax(np.where(mask, q, -np.inf))))
        total_reward += reward
    return RolloutResult(
        total_reward=total_reward,
        steps=env.step_count,
        served=tuple(bool(s) for s in env.served),
        total_qoe=env.total_qoe(),
        per_ue_qoe=tuple(env.per_ue_qoe()),
        outcome=env.outcome or "",
    )


# ---------- checkpointing ----------


def save_checkpoint(path, net: QNetwork, params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write parameters plus the architecture needed to rebuild the network."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "net_config": {
            **asdict(net.config),
            "conv": [asdict(c) for c in net.config.conv],
        },
        "extra": extra or {},
    }
    arrays = {f"param/{k}": v for k, v in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def load_checkpoint(path) -> tuple[QNetwork, dict[str, np.ndarray], dict]:
    with np.load(path) as data:
        if "__meta__" not in data:
            raise ValueError(f"{path!r} is not a checkpoint file")
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        raw = dict(meta["net_config"])
        raw["conv"] = tuple(ConvSpec(**c) for c in raw["conv"])
        raw["dense"] = tuple(raw["dense"])
        config = NetConfig(**raw)
        net = QNetwork(config)
        params = {
            k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")
        }
    expected = net.param_shapes()
    if set(params) != set(expected):
        raise ValueError("checkpoint parameter set does not match architecture")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                f"checkpoint parameter {name} has shape {params[name].shape}, "
                f"the architecture needs {shape}"
            )
    return net, params, meta["extra"]
