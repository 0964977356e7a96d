import numpy as np
import pytest

from minislot.net import (
    GRID_CHANNELS,
    Adam,
    NetConfig,
    QNetwork,
    clip_global_norm,
    default_net_config,
    gradient_check,
)


def small_net(rng):
    net = QNetwork(default_net_config(8, 16, 12, 4))
    return net, net.init_params(rng)


def batch(rng, net, n=6):
    c = net.config
    return (
        rng.random((n, GRID_CHANNELS, c.grid_height, c.grid_width)),
        rng.random((n, c.aux_dim)),
        rng.integers(0, c.n_actions, size=n),
        rng.normal(size=n),
    )


def test_default_config_keeps_fitting_convs():
    assert len(default_net_config(24, 56, 22, 9).conv_dims()) == 2
    assert len(default_net_config(8, 16, 12, 4).conv_dims()) == 2
    assert default_net_config(5, 9, 5, 3).conv_dims() == [(2, 4)]  # conv1 cannot fit 2x4
    assert default_net_config(2, 2, 5, 3).conv_dims() == []  # a 3x3 kernel cannot fit 2x2


def test_architecture_records_only_the_convs_that_fit():
    assert NetConfig(5, 9, 5, 3).architecture() == {
        "grid_channels": 3, "grid_height": 5, "grid_width": 9, "aux_dim": 5, "n_actions": 3,
        "conv": [{"filters": 8, "kernel": 3, "stride": 2}], "dense": [64],
    }


def test_conv_output_geometry():
    net = QNetwork(default_net_config(24, 56, 22, 9))
    # valid padding, stride 2, kernel 3: 24x56 -> 11x27 -> 5x13
    assert net.layer_dims == [(11, 27), (5, 13)]
    assert net.flat_dim == 16 * 5 * 13
    assert net.dense_in == net.flat_dim + 22


def test_param_shapes_and_count():
    net, params = small_net(np.random.default_rng(0))
    shapes = net.param_shapes()
    assert shapes["conv0/W"] == (3 * 9, 8)
    assert shapes["conv1/W"] == (8 * 9, 16)
    # 8x16 -> 3x7 -> 1x3, 16 filters, plus the 12 aux entries
    assert shapes["dense0/W"] == (16 * 1 * 3 + 12, 64)
    assert shapes["out/W"] == (64, 4)
    assert net.n_params() == sum(p.size for p in params.values())
    for name, param in params.items():
        assert param.shape == shapes[name]
        if name.endswith("/b"):
            assert (param == 0).all()


def test_init_is_deterministic_in_the_generator():
    net = QNetwork(default_net_config(8, 16, 12, 4))
    a = net.init_params(np.random.default_rng(5))
    b = net.init_params(np.random.default_rng(5))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_forward_shapes_and_single_sample():
    rng = np.random.default_rng(1)
    net, params = small_net(rng)
    grid, aux, _, _ = batch(rng, net)
    q = net.forward(params, grid, aux)
    assert q.shape == (6, 4)
    single = net.forward(params, grid[0], aux[0])
    np.testing.assert_allclose(single[0], q[0], rtol=1e-12)


def test_conv_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    net, params = small_net(rng)
    grid, aux, actions, targets = batch(rng, net)
    worst, checked = gradient_check(
        net, params, grid, aux, actions, targets, rng, n_samples=250
    )
    assert checked >= 200
    assert worst < 1e-4


def test_identical_batch_loss_degenerates_to_single_pair():
    rng = np.random.default_rng(4)
    net, params = small_net(rng)
    grid, aux, actions, targets = batch(rng, net, n=1)
    rep = 8
    loss_one, _ = net.loss_and_grads(params, grid, aux, actions, targets)
    loss_rep, _ = net.loss_and_grads(
        params,
        np.repeat(grid, rep, axis=0),
        np.repeat(aux, rep, axis=0),
        np.repeat(actions, rep),
        np.repeat(targets, rep),
    )
    q = net.forward(params, grid, aux)
    direct = float((q[0, actions[0]] - targets[0]) ** 2)
    assert loss_one == pytest.approx(direct, rel=1e-12)
    assert loss_rep == pytest.approx(direct, rel=1e-12)


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0, rel=1e-12)
    total = np.sqrt(sum((g**2).sum() for g in grads.values()))
    assert total == pytest.approx(1.0, rel=1e-12)
    small = {"a": np.array([0.3])}
    clip_global_norm(small, 1.0)
    np.testing.assert_allclose(small["a"], [0.3])  # untouched below the ceiling


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected first step is lr * g / (|g| + eps), i.e. ~lr in magnitude
    opt = Adam(learning_rate=0.01)
    params = {"w": np.array([1.0, -2.0])}
    opt.update(params, {"w": np.array([1e-3, -5.0])})
    np.testing.assert_allclose(params["w"], [1.0 - 0.01, -2.0 + 0.01], rtol=1e-4)
    assert opt.t == 1


def test_training_overfits_a_fixed_batch():
    rng = np.random.default_rng(6)
    net, params = small_net(rng)
    grid, aux, actions, targets = batch(rng, net)
    opt = Adam(learning_rate=1e-2)
    first, _ = net.loss_and_grads(params, grid, aux, actions, targets)
    for _ in range(150):
        _, grads = net.loss_and_grads(params, grid, aux, actions, targets)
        clip_global_norm(grads, 10.0)
        opt.update(params, grads)
    final, _ = net.loss_and_grads(params, grid, aux, actions, targets)
    assert final < 0.01 * first


def test_zero_final_layer_gives_zero_action_values():
    rng = np.random.default_rng(7)
    net, params = small_net(rng)
    params["out/W"][:] = 0.0
    params["out/b"][:] = 0.0
    grid, aux, _, _ = batch(rng, net)
    np.testing.assert_array_equal(net.forward(params, grid, aux), 0.0)


def test_aux_permutation_keeps_output_shape():
    rng = np.random.default_rng(8)
    net, params = small_net(rng)
    grid, aux, _, _ = batch(rng, net)
    # aux is 12 wide = 2 UEs x 6 entries in this toy layout; swap the rows
    swapped = np.concatenate([aux[:, 6:], aux[:, :6]], axis=1)
    assert net.forward(params, grid, swapped).shape == (6, 4)


def test_forward_is_finite_on_random_inputs():
    rng = np.random.default_rng(9)
    net, params = small_net(rng)
    c = net.config
    for _ in range(100):  # 100 batches x 100 samples = 1e4 draws
        grid = rng.normal(scale=3.0, size=(100, GRID_CHANNELS, c.grid_height, c.grid_width))
        aux = rng.normal(scale=3.0, size=(100, c.aux_dim))
        assert np.isfinite(net.forward(params, grid, aux)).all()
