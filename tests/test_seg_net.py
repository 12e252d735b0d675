import numpy as np
import pytest

from oracles import central_diff_grad, max_rel_err
from scanseg.seg_net import (
    BACKBONE_PRESETS,
    NetworkConfig,
    build,
    config_from_preset,
    count_params,
    load_weights,
    save_weights,
)
from scanseg.neural_core import glorot_uniform


def small_config(**kw):
    kw.setdefault("stage_channels", (8, 8, 8, 8, 8, 8))
    kw.setdefault("blocks_per_stage", (1, 1, 1, 1, 1, 1))
    kw.setdefault("n_classes", 5)
    return NetworkConfig(**kw)


def test_forward_shape_contract():
    net = build(config_from_preset("a", n_classes=20), seed=0)
    x = np.random.default_rng(0).standard_normal((1, 64, 2048, 3)).astype(np.float32)
    logits = net.forward(x)
    assert logits.shape == (1, 64, 2048, 20)
    assert np.isfinite(logits).all()


def test_all_presets_finite_on_small_input():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 16, 64, 3)).astype(np.float32)
    for name in BACKBONE_PRESETS:
        net = build(config_from_preset(name, n_classes=6), seed=1)
        logits = net.forward(x)
        assert logits.shape == (1, 16, 64, 6)
        assert np.isfinite(logits).all(), name


def test_same_seed_bit_identical():
    cfg = small_config()
    a = build(cfg, seed=3).parameters()
    b = build(cfg, seed=3).parameters()
    assert sorted(a) == sorted(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    c = build(cfg, seed=4).parameters()
    assert any((a[n] != c[n]).any() for n in a)


def test_width_must_fit_strides():
    net = build(small_config(), seed=0)
    with pytest.raises(ValueError, match="multiple of 32"):
        net.forward(np.zeros((1, 8, 48, 3), dtype=np.float32))


def test_channel_mismatch():
    net = build(small_config(), seed=0)
    with pytest.raises(ValueError, match="channels"):
        net.forward(np.zeros((1, 8, 64, 4), dtype=np.float32))


def test_config_validation():
    with pytest.raises(ValueError, match="6 stage"):
        NetworkConfig(stage_channels=(32, 32))
    with pytest.raises(ValueError, match="positive"):
        NetworkConfig(stage_channels=(32, 32, 32, 0, 32, 32))
    with pytest.raises(ValueError, match="alpha"):
        NetworkConfig(alpha_default=0)
    with pytest.raises(ValueError, match="padding"):
        NetworkConfig(padding="reflect")
    with pytest.raises(ValueError, match="preset"):
        config_from_preset("z")


def test_single_layer_param_count_closed_form():
    k = glorot_uniform(np.random.default_rng(0), 3, 3, 2, 4, alpha=2)
    assert k.param_count == 3 * 3 * 2 * 4 * 2 + 4 * 2 == 152


def test_preset_counts_strictly_increase():
    counts = [count_params(build(config_from_preset(n), seed=0)) for n in ("a", "b", "c", "d", "rstar")]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_rstar_count_order_of_magnitude():
    count = count_params(build(config_from_preset("rstar"), seed=0))
    assert 0.5 * 50.4e6 <= count <= 1.5 * 50.4e6


def test_alpha_two_roughly_doubles_conv_params():
    base = build(small_config(), seed=0)
    doubled = build(small_config(alpha_default=2), seed=0)
    conv_params = sum(
        p.size for name, p in base.parameters().items() if name.endswith((".weights", ".bias"))
    )
    assert count_params(doubled) - count_params(base) == conv_params


def test_alpha_override_targets_named_layer():
    cfg = small_config(alpha_overrides={"head": 4})
    net = build(cfg, seed=0)
    assert net.layers["head"].kernel.alpha == 4
    assert net.layers["stem.conv"].kernel.alpha == 1
    assert cfg.alpha_for("head") == 4
    assert cfg.alpha_for("enc1.down") == 1
    prefix_cfg = small_config(alpha_overrides={"enc1": 2, "enc1.down": 3})
    assert prefix_cfg.alpha_for("enc1.down") == 3
    assert prefix_cfg.alpha_for("enc1.block0.conv1") == 2


def test_stride_aligned_cyclic_shift_equivariance():
    # width strides total 32; shifting by a multiple keeps every stage aligned
    cfg = small_config(padding="cyclic")
    net = build(cfg, seed=5)
    x = np.random.default_rng(6).standard_normal((1, 8, 128, 3)).astype(np.float32)
    shift = 32
    a = net.forward(np.roll(x, shift, axis=2), training=True)
    b = np.roll(net.forward(x, training=True), shift, axis=2)
    assert np.abs(a - b).max() < 1e-5

    zero_net = build(small_config(padding="zeros"), seed=5)
    za = zero_net.forward(np.roll(x, shift, axis=2), training=True)
    zb = np.roll(zero_net.forward(x, training=True), shift, axis=2)
    assert np.abs(za - zb).max() > 1e-3


def test_backward_produces_all_grads():
    net = build(small_config(), seed=7)
    x = np.random.default_rng(8).standard_normal((2, 8, 64, 3)).astype(np.float32)
    logits = net.forward(x, training=True)
    net.backward(np.ones_like(logits))
    grads = net.grads()
    params = net.parameters()
    assert sorted(grads) == sorted(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert np.isfinite(g).all(), name


def test_save_load_roundtrip(tmp_path):
    net = build(small_config(), seed=9)
    x = np.random.default_rng(10).standard_normal((1, 8, 64, 3)).astype(np.float32)
    before = net.forward(x)
    path = tmp_path / "weights.npz"
    save_weights(net, path)

    other = build(small_config(), seed=99)
    assert np.abs(other.forward(x) - before).max() > 0
    load_weights(other, path)
    np.testing.assert_array_equal(other.forward(x), before)


def test_load_shape_mismatch_names_offenders(tmp_path):
    net = build(small_config(), seed=11)
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    bigger = build(small_config(stage_channels=(8, 16, 16, 16, 16, 16)), seed=11)
    with pytest.raises(ValueError, match="enc1.down.conv.weights"):
        load_weights(bigger, path)


def test_load_truncated_file(tmp_path):
    net = build(small_config(), seed=12)
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="unreadable"):
        load_weights(net, path)


def test_input_stats_buffers_serialized(tmp_path):
    net = build(small_config(), seed=13)
    net.input_mean[:] = [1.0, 2.0, 3.0]
    net.input_std[:] = [4.0, 5.0, 6.0]
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    other = build(small_config(), seed=14)
    load_weights(other, path)
    np.testing.assert_array_equal(other.input_mean, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(other.input_std, [4.0, 5.0, 6.0])


def test_layer_registry_is_parameter_order():
    net = build(small_config(), seed=0)
    names = list(net.layers)
    assert names[:3] == ["stem.conv", "stem.norm", "stem.block0.conv1.conv"]
    assert names[names.index("enc1.down.conv") + 1] == "enc1.down.norm"
    assert names[-1] == "head"
    assert list(net.parameters()) == [k for layer in net.layers.values() for k in layer.params]
    assert list(net.buffers())[:2] == ["input_mean", "input_std"]


def _as_float64(net):
    """Recast every registered parameter and buffer to float64."""
    for layer in net.layers.values():
        for arrays in (layer.params, layer.buffers):
            for name in list(arrays):
                arrays[name] = arrays[name].astype(np.float64)
    return net


# sampled parameter entries (basic-slice views, so probes write through)
# from the stem, one encoder stage, one decoder stage and the head; conv
# biases in front of a norm are left out, their gradient is exactly zero
GRAD_PROBES = {
    "stem.conv.weights": np.s_[:, :, 0, 1],
    "stem.norm.gamma": np.s_[:],
    "enc2.down.conv.weights": np.s_[1, :, 2, 0],
    "enc2.block0.conv2.norm.beta": np.s_[:],
    "dec3.proj.conv.weights": np.s_[0, 0, :, 1],
    "dec3.refine.norm.gamma": np.s_[:],
    "head.weights": np.s_[0, 0, :, 1],
    "head.bias": np.s_[:],
}


@pytest.mark.parametrize("padding", ["cyclic", "zeros"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_network_backward_matches_central_differences(padding, alpha):
    cfg = NetworkConfig(
        stage_channels=(4,) * 6, blocks_per_stage=(1,) * 6, n_classes=3, padding=padding, alpha_default=alpha
    )
    net = _as_float64(build(cfg, seed=21))
    net.input_mean[:] = [0.2, -0.1, 0.3]
    net.input_std[:] = [1.5, 0.8, 1.2]
    rng = np.random.default_rng(22)
    x = rng.standard_normal((2, 4, 32, 3))
    up = rng.standard_normal((2, 4, 32, 3))

    def loss():
        return float((net.forward(x, training=True) * up).sum())

    net.forward(x, training=True)
    gx = net.backward(up)
    grads = net.grads()
    assert all(g.dtype == np.float64 for g in grads.values())

    # both wrapped edges of the cylinder and a column in between
    for cols in (np.s_[:2], np.s_[15:17], np.s_[-2:]):
        num = central_diff_grad(loss, x[:, :, cols], 1e-6)
        assert max_rel_err(gx[:, :, cols], num) < 1e-5, cols
    params = net.parameters()
    for name, probe in GRAD_PROBES.items():
        num = central_diff_grad(loss, params[name][probe], 1e-6)
        assert max_rel_err(grads[name][probe], num) < 1e-5, name
