"""Minimal feed-forward Q-network in plain numpy.

Grid observation channels pass through up to two valid-padding
convolutions, get flattened and concatenated with the auxiliary feature
vector, then through one hidden dense layer to one Q-value per action.
The observation geometry fixes the architecture (``NetConfig``).
Forward, backward, the Adam update and a finite-difference gradient check
are all implemented here so training is self-contained and bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GRID_CHANNELS = 3  # expand_cells: occupancy, owner, enhancement tier
CONV_FILTERS = (8, 16)  # one 3x3 stride-2 conv each, while the map fits
KERNEL = 3
STRIDE = 2
HIDDEN = 64  # units of the one dense layer


@dataclass(frozen=True)
class NetConfig:
    """One observation geometry; the architecture follows from it."""

    grid_height: int
    grid_width: int
    aux_dim: int
    n_actions: int

    def __post_init__(self) -> None:
        # a checkpoint's metadata builds configs, so check every size
        for v in (self.grid_height, self.grid_width, self.aux_dim, self.n_actions):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"network sizes must be positive ints, got {v!r} in {self}")

    def conv_dims(self) -> list[tuple[int, int]]:
        """(height, width) of each conv layer's output: one conv per
        ``CONV_FILTERS`` entry, dropping those the map is too small for."""
        dims, h, w = [], self.grid_height, self.grid_width
        for _ in CONV_FILTERS:
            if h < KERNEL or w < KERNEL:
                break
            h, w = (h - KERNEL) // STRIDE + 1, (w - KERNEL) // STRIDE + 1
            dims.append((h, w))
        return dims

    def architecture(self) -> dict:
        """The layers, as a checkpoint's ``net_config`` records them."""
        return {
            "grid_channels": GRID_CHANNELS,
            **asdict(self),
            "conv": [
                {"filters": f, "kernel": KERNEL, "stride": STRIDE}
                for f, _ in zip(CONV_FILTERS, self.conv_dims())
            ],
            "dense": [HIDDEN],
        }

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, worked out without building the network."""
        shapes: dict[str, tuple[int, ...]] = {}
        in_ch, (h, w) = GRID_CHANNELS, (self.grid_height, self.grid_width)
        for i, (filters, dims) in enumerate(zip(CONV_FILTERS, self.conv_dims())):
            shapes[f"conv{i}/W"] = (in_ch * KERNEL * KERNEL, filters)
            shapes[f"conv{i}/b"] = (filters,)
            in_ch, (h, w) = filters, dims
        shapes["dense0/W"] = (in_ch * h * w + self.aux_dim, HIDDEN)
        shapes["dense0/b"] = (HIDDEN,)
        shapes["out/W"] = (HIDDEN, self.n_actions)
        shapes["out/b"] = (self.n_actions,)
        return shapes


def default_net_config(
    grid_height: int, grid_width: int, aux_dim: int, n_actions: int
) -> NetConfig:
    """The network for one observation geometry."""
    return NetConfig(grid_height, grid_width, aux_dim, n_actions)


class _Workspace:
    """Every array one forward/backward pass writes, for up to ``rows`` samples.

    Batch-shaped arrays have ``rows`` leading rows and a pass of ``b`` samples
    uses the first ``b``; conv arrays keep the (position, filter) layout the
    conv matmul writes.  ``grads`` is in backward order, ``out``, ``dense0``
    and then the conv layers last to first: ``clip_global_norm`` sums the
    squared norms in dict order, so the order is part of the result.
    """

    def __init__(self, net: QNetwork, rows: int):
        cfg = net.config
        n_conv = len(net.layer_dims)
        self.rows = rows
        self.patches, self.pre, self.act, self.mask = [], [], [], []
        self.dz, self.dpatches, self.dx = [], [], []
        in_ch, (h, w) = GRID_CHANNELS, (cfg.grid_height, cfg.grid_width)
        self.grid = np.empty((rows, in_ch, h, w)) if n_conv else None
        for i, (filters, (ho, wo)) in enumerate(zip(net.filters, net.layer_dims)):
            taps = in_ch * KERNEL * KERNEL
            self.patches.append(np.empty((rows, ho * wo, taps)))
            self.pre.append(np.empty((rows, ho * wo, filters)))
            # the last conv's rectifier writes straight into concat
            self.act.append(None if i + 1 == n_conv else np.empty((rows, ho * wo, filters)))
            self.mask.append(np.empty((rows, ho * wo, filters), bool))
            self.dz.append(np.empty((rows, ho * wo, filters)))
            self.dpatches.append(np.empty((rows * ho * wo, taps)) if i else None)
            self.dx.append(np.empty((rows, in_ch, h, w)) if i else None)
            in_ch, (h, w) = filters, (ho, wo)
        self.concat = np.empty((rows, net.dense_in))
        self.dense_pre = np.empty((rows, HIDDEN))
        self.dense_act = np.empty((rows, HIDDEN))
        self.dense_mask = np.empty((rows, HIDDEN), bool)
        self.dconcat = np.empty((rows, net.dense_in))
        self.ddense = np.empty((rows, HIDDEN))
        self.dq = np.empty((rows, cfg.n_actions))
        shapes = net.param_shapes()
        order = ["out", "dense0", *(f"conv{i}" for i in reversed(range(n_conv)))]
        self.grads = {
            f"{layer}/{p}": np.empty(shapes[f"{layer}/{p}"])
            for layer in order
            for p in ("W", "b")
        }


class QNetwork:
    """Parameter container plus forward/backward functions.

    Parameters live in a plain dict of float64 arrays keyed by layer name,
    which keeps the optimiser, checkpointing and the gradient check simple.
    Intermediate arrays live in one workspace, grown to the largest batch
    seen and reused by every later call, so a pass allocates little more
    than the Q-values it returns.
    """

    def __init__(self, config: NetConfig):
        self.config = config
        self.layer_dims = config.conv_dims()  # (h, w) after each conv
        self.filters = CONV_FILTERS[: len(self.layer_dims)]
        h, w = (self.layer_dims or [(config.grid_height, config.grid_width)])[-1]
        channels = self.filters[-1] if self.filters else GRID_CHANNELS
        self.flat_dim = channels * h * w
        self.dense_in = self.flat_dim + config.aux_dim
        self._ws: _Workspace | None = None
        # per sample, where each conv's patches (Ho, Wo, C, k, k) sit in its
        # input as stored: conv0's (C, H, W) grid copy, a later conv's
        # (Ho, Wo, F) rectifier output
        self._taps: list[np.ndarray] = []
        in_ch, h, w = GRID_CHANNELS, config.grid_height, config.grid_width
        for i, (filters, dims) in enumerate(zip(self.filters, self.layer_dims)):
            pos = np.arange(in_ch * h * w)
            if i == 0:
                pos = pos.reshape(in_ch, h, w)
            else:
                pos = pos.reshape(h, w, in_ch).transpose(2, 0, 1)
            windows = sliding_window_view(pos, (KERNEL, KERNEL), axis=(1, 2))
            windows = windows[:, ::STRIDE, ::STRIDE]
            self._taps.append(windows.transpose(1, 2, 0, 3, 4).reshape(-1))
            in_ch, (h, w) = filters, dims

    def _workspace(self, batch: int) -> _Workspace:
        if self._ws is None or self._ws.rows < batch:
            self._ws = None  # let the old arrays go before the new ones exist
            self._ws = _Workspace(self, batch)
        return self._ws

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return self.config.param_shapes()

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Fan-in scaled uniform init, deterministic in the generator state."""
        params = {}
        for name, shape in self.param_shapes().items():
            if name.endswith("/b"):
                params[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform(-bound, bound, size=shape)
        return params

    def n_params(self) -> int:
        return sum(int(np.prod(s)) for s in self.param_shapes().values())

    # ---------- forward ----------

    def forward(
        self,
        params: dict[str, np.ndarray],
        grid: np.ndarray,
        aux: np.ndarray,
        keep_cache: bool = False,
    ):
        """Q-values (B, n_actions); optionally also the backward cache.

        The Q-values are a fresh array.  The cache points into the workspace
        and holds until the next ``forward``.
        """
        grid = np.asarray(grid)
        aux = np.asarray(aux)
        if grid.ndim == 3:
            grid = grid[None]
            aux = aux[None]
        batch = grid.shape[0]
        ws = self._workspace(batch)
        h = ws.concat[:batch]
        flat = h[:, : self.flat_dim]
        if self.filters:
            x = ws.grid[:batch]
            np.copyto(x, grid)
            x = x.reshape(batch, -1)
        else:
            np.copyto(flat.reshape(grid.shape), grid)
        for i, filters in enumerate(self.filters):
            # per-sample input -> patches (B, Ho*Wo, C*k*k) -> matmul; the
            # taps are in range by construction, so "clip" never clips
            patches = ws.patches[i][:batch]
            np.take(x, self._taps[i], axis=1, out=patches.reshape(batch, -1), mode="clip")
            z = ws.pre[i][:batch]
            np.matmul(patches, params[f"conv{i}/W"], out=z)
            z += params[f"conv{i}/b"]
            if ws.act[i] is not None:
                x = ws.act[i][:batch]
                np.maximum(z, 0.0, out=x)
                x = x.reshape(batch, -1)
            else:
                ho, wo = self.layer_dims[i]
                z_maps = z.reshape(batch, ho, wo, filters).transpose(0, 3, 1, 2)
                np.maximum(z_maps, 0.0, out=flat.reshape(batch, filters, ho, wo))
        np.copyto(h[:, self.flat_dim :], aux)
        z = ws.dense_pre[:batch]
        np.matmul(h, params["dense0/W"], out=z)
        z += params["dense0/b"]
        h = ws.dense_act[:batch]
        np.maximum(z, 0.0, out=h)
        q = h @ params["out/W"]
        q += params["out/b"]
        if keep_cache:
            return q, {"batch": batch}
        return q

    # ---------- backward ----------

    def backward(
        self,
        params: dict[str, np.ndarray],
        cache: dict,
        dq: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q-values).

        ``cache`` comes from the latest ``forward(..., keep_cache=True)``.
        The returned arrays belong to the workspace.
        """
        ws = self._ws
        batch = cache["batch"]
        grads = ws.grads

        np.matmul(ws.dense_act[:batch].T, dq, out=grads["out/W"])
        np.sum(dq, axis=0, out=grads["out/b"])
        dh = ws.ddense[:batch]
        np.matmul(dq, params["out/W"].T, out=dh)

        mask = ws.dense_mask[:batch]
        np.greater(ws.dense_pre[:batch], 0.0, out=mask)
        dz = np.multiply(dh, mask, out=dh)
        np.matmul(ws.concat[:batch].T, dz, out=grads["dense0/W"])
        np.sum(dz, axis=0, out=grads["dense0/b"])
        dh = ws.dconcat[:batch]
        np.matmul(dz, params["dense0/W"].T, out=dh)

        if not self.filters:
            return dict(grads)
        h_out, w_out = self.layer_dims[-1]
        dx = dh[:, : self.flat_dim].reshape(batch, self.filters[-1], h_out, w_out)
        for i in range(len(self.filters) - 1, -1, -1):
            filters = self.filters[i]
            ho, wo = self.layer_dims[i]
            # dz_flat is (B*Ho*Wo, F), row-major except for one sample,
            # which is filter-major.  The bias sum's order follows the
            # layout (row by row, or pairwise down each column), and these
            # are the layouts every trained result so far was made with
            dz = ws.dz[i][:batch]
            if batch == 1:
                dz_flat = dz.reshape(filters, ho * wo).T
            else:
                dz_flat = dz.reshape(-1, filters)
            mask = ws.mask[i][:batch]
            np.greater(ws.pre[i][:batch], 0.0, out=mask)
            np.multiply(
                dx.transpose(0, 2, 3, 1),
                mask.reshape(batch, ho, wo, filters),
                out=dz_flat.reshape(batch, ho, wo, filters),
            )
            patches = ws.patches[i][:batch].reshape(-1, ws.patches[i].shape[-1])
            np.matmul(patches.T, dz_flat, out=grads[f"conv{i}/W"])
            np.sum(dz_flat, axis=0, out=grads[f"conv{i}/b"])
            if i > 0:
                dpatches = ws.dpatches[i][: batch * ho * wo]
                np.matmul(dz_flat, params[f"conv{i}/W"].T, out=dpatches)
                dx = self._col2im(dpatches, i)
        return dict(grads)

    def _col2im(self, dpatches: np.ndarray, layer: int) -> np.ndarray:
        """Scatter patch gradients back to the input map of conv ``layer``."""
        in_ch = self.filters[layer - 1]
        h_out, w_out = self.layer_dims[layer]
        batch = dpatches.shape[0] // (h_out * w_out)
        k, s = KERNEL, STRIDE
        dcols = dpatches.reshape(batch, h_out, w_out, in_ch, k, k)
        dx = self._ws.dx[layer][:batch]
        dx.fill(0.0)
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
        """Mean squared TD error on the chosen actions' Q-values.

        The gradient arrays belong to the network's workspace: they hold
        until the next ``loss_and_grads`` call, which overwrites them.
        """
        q, cache = self.forward(params, grid, aux, keep_cache=True)
        batch = q.shape[0]
        rows = np.arange(batch)
        err = q[rows, actions] - targets
        loss = float(np.mean(err**2))
        dq = self._ws.dq[:batch]
        dq.fill(0.0)
        dq[rows, actions] = 2.0 * err / batch
        return loss, self.backward(params, cache, dq)


# ---------- optimiser ----------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with the standard bias correction, updating in place."""

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.t = 0  # updates so far
        self.m: dict[str, np.ndarray] = {}  # first moments
        self.v: dict[str, np.ndarray] = {}  # second moments
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        c1 = 1 - BETA1**self.t
        c2 = 1 - BETA2**self.t
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
                self._scratch[name] = (np.empty_like(g), np.empty_like(g))
            m, v = self.m[name], self.v[name]
            step, tmp = self._scratch[name]
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
            m *= BETA1
            np.multiply(g, 1 - BETA1, out=tmp)
            m += tmp
            v *= BETA2
            np.square(g, out=tmp)
            tmp *= 1 - BETA2
            v += tmp
            # params -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, c1, out=step)
            step *= self.learning_rate
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            step /= tmp
            params[name] -= step


# room for the float64 squares of the largest gradient, kept across calls
_squares = np.empty(0)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of ``max_norm``."""
    global _squares
    largest = max((g.size for g in grads.values()), default=0)
    if _squares.size < largest:
        _squares = np.empty(largest)
    total = 0.0
    for g in grads.values():
        # (g * g).sum() in kept memory: the gradients are C-ordered float64,
        # as g**2 would be, so the sum adds in the same order
        square = _squares[: g.size].reshape(g.shape)
        np.multiply(g, g, out=square)
        total += float(square.sum())
    total = float(np.sqrt(total))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------- gradient check ----------


def _relu_signs(net: QNetwork, params, grid, aux) -> np.ndarray:
    _, cache = net.forward(params, grid, aux, keep_cache=True)
    pre = [z[: cache["batch"]] for z in [*net._ws.pre, net._ws.dense_pre]]
    return np.concatenate([(z > 0).ravel() for z in pre])


def gradient_check(
    net: QNetwork,
    params: dict[str, np.ndarray],
    grid: np.ndarray,
    aux: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    n_samples: int = 200,
    step: float = 1e-5,
) -> tuple[float, int]:
    """Compare analytic gradients with central finite differences.

    Randomly sampled parameter coordinates are perturbed by +-step; samples
    whose perturbation flips the sign of any rectifier pre-activation are
    skipped (the loss is not differentiable across those kinks), as are
    coordinates where both gradient estimates vanish.  Sampling continues
    until ``n_samples`` coordinates have actually been compared or the
    parameter pool is exhausted.  Returns the max relative error over the
    checked coordinates and how many were checked.
    """
    _, analytic = net.loss_and_grads(params, grid, aux, actions, targets)

    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    picks = rng.permutation(total)

    worst = 0.0
    checked = 0
    for flat_index in picks:
        if checked >= n_samples:
            break
        layer = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        name = names[layer]
        local = int(flat_index - offsets[layer])
        index = np.unravel_index(local, params[name].shape)

        original = params[name][index]
        params[name][index] = original + step
        q_plus = net.forward(params, grid, aux)
        signs_plus = _relu_signs(net, params, grid, aux)
        params[name][index] = original - step
        q_minus = net.forward(params, grid, aux)
        signs_minus = _relu_signs(net, params, grid, aux)
        params[name][index] = original

        if (signs_plus != signs_minus).any():
            continue  # kink crossed: finite difference is meaningless here
        batch = q_plus.shape[0]
        rows = np.arange(batch)
        loss_plus = float(np.mean((q_plus[rows, actions] - targets) ** 2))
        loss_minus = float(np.mean((q_minus[rows, actions] - targets) ** 2))
        numeric = (loss_plus - loss_minus) / (2 * step)
        exact = analytic[name][index]
        denom = max(abs(numeric), abs(exact))
        if denom < 1e-10:
            continue
        worst = max(worst, abs(numeric - exact) / denom)
        checked += 1
    return worst, checked
