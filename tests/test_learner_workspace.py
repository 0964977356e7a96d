"""The workspace learner against the allocating learner it replaced.

``ReferenceNetwork`` and ``ReferenceAdam`` below are the forward, backward,
col2im, loss and Adam that allocated every temporary, copied with one
change: the reference reads its layers from the architecture a checkpoint
records, and each layer's sizes from the arrays it makes, never from
``QNetwork``.  Training with the workspace must give the same bits, step
for step: the same gemm operands in the same K order and the same
elementwise order.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from minislot.agent import ReplayBuffer, _td_targets, save_checkpoint
from minislot.env import expand_cells
from minislot.net import (
    Adam,
    QNetwork,
    clip_global_norm,
    default_net_config,
)


class ReferenceNetwork:
    """The layers of a checkpoint's ``net_config``; every pass allocates."""

    def __init__(self, architecture: dict):
        self.conv = architecture["conv"]
        self.dense = architecture["dense"]

    # ---------- forward ----------

    def _conv_forward(self, x, w, b, spec):
        # x: (B, C, H, W) -> patches (B, Ho*Wo, C*k*k) -> matmul
        k, s = spec["kernel"], spec["stride"]
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, :: s]
        b_, c, ho, wo = windows.shape[:4]
        patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b_, ho * wo, c * k * k)
        z = patches @ w + b
        return z.reshape(b_, ho, wo, spec["filters"]).transpose(0, 3, 1, 2), patches

    def forward(
        self,
        params: dict[str, np.ndarray],
        grid: np.ndarray,
        aux: np.ndarray,
        keep_cache: bool = False,
    ):
        """Q-values (B, n_actions); optionally also the backward cache."""
        x = np.ascontiguousarray(grid, dtype=np.float64)
        aux = np.asarray(aux, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
            aux = aux[None]
        cache: dict = {"pre": [], "patches": [], "inputs": []}
        for i, spec in enumerate(self.conv):
            z, patches = self._conv_forward(
                x, params[f"conv{i}/W"], params[f"conv{i}/b"], spec
            )
            if keep_cache:
                cache["patches"].append(patches)
                cache["pre"].append(z)
            x = np.maximum(z, 0.0)
            if keep_cache:
                cache["inputs"].append(x)
        flat = x.reshape(x.shape[0], -1)
        h = np.concatenate([flat, aux], axis=1)
        if keep_cache:
            cache["concat"] = h
            cache["flat_dim"] = flat.shape[1]
        for i in range(len(self.dense)):
            z = h @ params[f"dense{i}/W"] + params[f"dense{i}/b"]
            if keep_cache:
                cache["pre"].append(z)
            h = np.maximum(z, 0.0)
            if keep_cache:
                cache["inputs"].append(h)
        q = h @ params["out/W"] + params["out/b"]
        if keep_cache:
            cache["q"] = q
            return q, cache
        return q

    # ---------- backward ----------

    def backward(
        self,
        params: dict[str, np.ndarray],
        cache: dict,
        dq: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q-values)."""
        grads: dict[str, np.ndarray] = {}
        n_conv = len(self.conv)
        n_dense = len(self.dense)

        h_last = cache["inputs"][-1] if n_dense else cache["concat"]
        grads["out/W"] = h_last.T @ dq
        grads["out/b"] = dq.sum(axis=0)
        dh = dq @ params["out/W"].T

        for i in range(n_dense - 1, -1, -1):
            pre = cache["pre"][n_conv + i]
            dz = dh * (pre > 0.0)
            h_in = cache["inputs"][n_conv + i - 1] if i > 0 else cache["concat"]
            grads[f"dense{i}/W"] = h_in.T @ dz
            grads[f"dense{i}/b"] = dz.sum(axis=0)
            dh = dz @ params[f"dense{i}/W"].T

        dflat = dh[:, : cache["flat_dim"]]
        if not self.conv:
            return grads
        dx = dflat.reshape(cache["pre"][n_conv - 1].shape)
        for i in range(n_conv - 1, -1, -1):
            spec = self.conv[i]
            pre = cache["pre"][i]  # (B, F, Ho, Wo), same layout as dx
            dz = dx * (pre > 0.0)
            dz_flat = dz.transpose(0, 2, 3, 1).reshape(-1, spec["filters"])
            patches = cache["patches"][i].reshape(-1, cache["patches"][i].shape[-1])
            grads[f"conv{i}/W"] = patches.T @ dz_flat
            grads[f"conv{i}/b"] = dz_flat.sum(axis=0)
            if i > 0:
                dpatches = dz_flat @ params[f"conv{i}/W"].T
                dx = self._col2im(dpatches, spec, cache["pre"][i - 1].shape, pre.shape)
        return grads

    def _col2im(self, dpatches: np.ndarray, spec: dict, in_shape, out_shape) -> np.ndarray:
        """Scatter patch gradients back to a conv's (B, C, H, W) input map."""
        batch, in_ch, h_in, w_in = in_shape
        h_out, w_out = out_shape[2:]
        k, s = spec["kernel"], spec["stride"]
        dcols = dpatches.reshape(batch, h_out, w_out, in_ch, k, k)
        dx = np.zeros((batch, in_ch, h_in, w_in))
        for di in range(k):
            for dj in range(k):
                dx[:, :, di : di + h_out * s : s, dj : dj + w_out * s : s] += (
                    dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
                )
        return dx

    # ---------- loss on selected actions ----------

    def loss_and_grads(
        self,
        params: dict[str, np.ndarray],
        grid: np.ndarray,
        aux: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
    ):
        """Mean squared TD error on the chosen actions' Q-values."""
        q, cache = self.forward(params, grid, aux, keep_cache=True)
        batch = q.shape[0]
        picked = q[np.arange(batch), actions]
        err = picked - targets
        loss = float(np.mean(err**2))
        dq = np.zeros_like(q)
        dq[np.arange(batch), actions] = 2.0 * err / batch
        return loss, self.backward(params, cache, dq)


# ---------- optimiser ----------


@dataclass
class ReferenceAdam:
    """Adam with the standard bias correction."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g**2
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            params[name] -= (
                self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            )


def reference_expand_cells(cell_code: np.ndarray, n_ues: int) -> np.ndarray:
    code = np.asarray(cell_code)
    occupied = code > 0
    owner = np.where(occupied, ((code.astype(np.int16) - 1) >> 1) + 1, 0)
    tier_et = occupied & (((code - 1) & 1) == 1)
    channels = np.stack(
        [
            occupied.astype(np.float32),
            owner.astype(np.float32) / float(n_ues),
            tier_et.astype(np.float32),
        ],
        axis=-3,
    )
    return channels


# ---------- tests ----------

# stale rows: a full batch, one short, batch 1, full again, a small one
BATCHES = (32, 31, 1, 32, 5)

GEOMETRIES = {
    "default": default_net_config(24, 56, 22, 9),
    "tiny": default_net_config(8, 16, 12, 4),
    "one-conv": default_net_config(5, 9, 5, 3),  # conv1 cannot fit conv0's 2x4
    "dense-only": default_net_config(2, 2, 5, 3),  # no conv fits a 2x2 grid
}


def recorded_architecture(net: QNetwork, params: dict, tmp_path) -> dict:
    """The ``net_config`` a checkpoint of ``net`` records."""
    path = tmp_path / "policy.npz"
    save_checkpoint(path, net, params)
    with np.load(path) as archive:
        return json.loads(bytes(archive["__meta__"]).decode())["net_config"]


def random_batch(rng, config, batch, n_ues=3, scale=20.0):
    """Observation channels as the agent builds them: float32 from codes."""
    codes = rng.integers(0, 2 * n_ues + 1, size=(batch, config.grid_height, config.grid_width))
    return (
        expand_cells(codes.astype(np.uint8), n_ues),
        rng.random((batch, config.aux_dim)).astype(np.float32),
        rng.integers(0, config.n_actions, size=batch),
        rng.normal(scale=scale, size=batch),
    )


def same_bits(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a
    )


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_workspace_training_matches_the_allocating_learner(name, tmp_path):
    config = GEOMETRIES[name]
    net = QNetwork(config)
    params = net.init_params(np.random.default_rng(1))
    ref = ReferenceNetwork(recorded_architecture(net, params, tmp_path))
    assert len(ref.conv) == {"dense-only": 0, "one-conv": 1}.get(name, 2)
    ref_params = {k: v.copy() for k, v in params.items()}
    opt, ref_opt = Adam(learning_rate=3e-3), ReferenceAdam(learning_rate=3e-3)
    rng = np.random.default_rng(2)
    max_norm = 5.0
    clipped = 0
    for step in range(25):
        batch = BATCHES[step % len(BATCHES)]
        # large targets on even steps, so that the clip scales there
        scale = 20.0 if step % 2 == 0 else 0.01
        grid, aux, actions, targets = random_batch(rng, config, batch, scale=scale)
        loss, grads = net.loss_and_grads(params, grid, aux, actions, targets)
        ref_loss, ref_grads = ref.loss_and_grads(ref_params, grid, aux, actions, targets)
        assert loss == ref_loss, step
        assert same_bits(grads, ref_grads), step  # values and dict order
        norm = clip_global_norm(grads, max_norm)
        assert norm == clip_global_norm(ref_grads, max_norm)
        clipped += norm > max_norm
        opt.update(params, grads)
        ref_opt.update(ref_params, ref_grads)
        assert same_bits(params, ref_params), step
        assert same_bits(opt.m, ref_opt.m) and same_bits(opt.v, ref_opt.v), step
        # acting shares the workspace's first row
        q = net.forward(params, grid[0], aux[0])
        assert q.tobytes() == ref.forward(ref_params, grid[0], aux[0]).tobytes()
    assert 0 < clipped < 25  # both sides of the clip were exercised


def test_returned_q_values_are_not_overwritten():
    config = GEOMETRIES["default"]
    net = QNetwork(config)
    params = net.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    grid, aux, actions, targets = random_batch(rng, config, 32)
    net.loss_and_grads(params, grid, aux, actions, targets)  # full-size workspace
    q = net.forward(params, grid[:7], aux[:7])
    kept = q.copy()
    flipped = grid[::-1].copy(), aux[::-1].copy()
    net.forward(params, *flipped)
    net.forward(params, flipped[0][0], flipped[1][0])
    net.loss_and_grads(params, *flipped, actions, targets)
    assert q.tobytes() == kept.tobytes()


def test_expand_cells_matches_the_allocating_version():
    rng = np.random.default_rng(5)
    for n_ues in range(1, 7):  # 3, 5 and 6 give inexact float32 quotients
        codes = rng.integers(0, 2 * n_ues + 1, size=(9, 24, 56)).astype(np.uint8)
        expected = reference_expand_cells(codes, n_ues)
        assert expand_cells(codes, n_ues).tobytes() == expected.tobytes()
        assert expand_cells(codes[0], n_ues).tobytes() == expected[0].tobytes()
        out = np.full((12, 3, 24, 56), np.nan, np.float32)
        rows = expand_cells(codes, n_ues, out=out)
        assert np.shares_memory(rows, out) and rows.tobytes() == expected.tobytes()


def test_td_targets_are_the_same_with_and_without_a_grid_buffer():
    config = GEOMETRIES["tiny"]
    net = QNetwork(config)
    params = net.init_params(np.random.default_rng(6))
    rng = np.random.default_rng(7)
    buf = ReplayBuffer(64, (config.grid_height, config.grid_width), config.aux_dim, config.n_actions)
    for i in range(40):
        cell = rng.integers(0, 5, size=(config.grid_height, config.grid_width)).astype(np.uint8)
        aux = rng.random(config.aux_dim)
        mask = rng.random(config.n_actions) < 0.7
        buf.add(cell, aux, i % config.n_actions, rng.normal(), i % 4 == 0, cell, aux, mask)
    batch = buf.sample(16, np.random.default_rng(8))
    grids = np.empty((16, 3, config.grid_height, config.grid_width), np.float32)
    with_buffer = _td_targets(net, params, batch, 0.9, 2, grids)
    without = _td_targets(net, params, batch, 0.9, 2)
    assert with_buffer.tobytes() == without.tobytes()


def test_replay_sample_matches_fancy_indexing():
    rng = np.random.default_rng(9)
    buf = ReplayBuffer(50, (3, 4), 5, 6)
    for i in range(30):
        cell = rng.integers(0, 7, size=(3, 4)).astype(np.uint8)
        buf.add(cell, rng.random(5), i % 6, rng.normal(), i % 3 == 0, cell[::-1], rng.random(5), rng.random(6) < 0.5)
    for batch in (8, 3, 8):
        idx = np.random.default_rng(batch).integers(0, buf.size, size=batch)
        drawn = buf.sample(batch, np.random.default_rng(batch))
        expected = {
            "cell": buf.cell[idx], "aux": buf.aux[idx],
            "action": buf.action[idx].astype(np.int64),
            "reward": buf.reward[idx].astype(np.float64),
            "done": buf.done[idx], "next_cell": buf.next_cell[idx],
            "next_aux": buf.next_aux[idx], "next_mask": buf.next_mask[idx],
        }
        assert set(drawn) == set(expected)
        for name, value in expected.items():
            assert drawn[name].dtype == value.dtype and drawn[name].shape == value.shape
            assert drawn[name].tobytes() == value.tobytes(), name
