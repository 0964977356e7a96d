"""Finite-difference check of the network's analytic gradients, shared by
criterion 4 and ``test_net.py``."""

import numpy as np

from minislot.net import QNetwork


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

    The check runs the network on float64 copies of ``params``: float32
    rounding would swamp a central difference of ``step``.
    """
    params = {name: value.astype(np.float64) for name, value in params.items()}
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
