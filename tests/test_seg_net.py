import json
import re
import tracemalloc
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import central_diff_grad, max_rel_err
from scanseg import seg_net
from scanseg.seg_net import (
    BACKBONE_PRESETS,
    ConvUnit,
    DecoderStage,
    Network,
    NetworkConfig,
    ResBlock,
    SlcLayer,
    build,
    config_from_preset,
    count_params,
    load_network,
    save_weights,
)
from scanseg.neural_core import (
    SlcKernel,
    glorot_uniform,
    norm_inference,
    relu,
    slc_forward,
    upsample_width,
    upsample_width_backward,
)
from scanseg.seg_objectives import objective, softmax
from scanseg.trainer import Adam, evaluate, make_synthetic_dataset


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
    with pytest.raises(ValueError, match="positive multiple of 32"):
        net.forward(np.zeros((1, 8, 0, 3), dtype=np.float32))


def test_input_of_another_rank_is_rejected():
    net = build(small_config(), seed=0)
    with pytest.raises(ValueError, match=r"^input must be a \[B, H, W, C\] tensor, got shape \(8, 64, 3\)$"):
        net.forward(np.zeros((8, 64, 3), dtype=np.float32))


def test_empty_training_batch_is_rejected_before_the_running_statistics_move():
    # batch statistics of no sample are 0/0: they wrote NaN into every
    # running statistic, and every later eval forward returned NaN logits
    net = build(small_config(), seed=54)
    x = np.random.default_rng(55).standard_normal((2, 8, 64, 3)).astype(np.float32)
    net.forward(x, training=True)
    before = {name: buffer.copy() for name, buffer in net.buffers().items()}
    with pytest.raises(ValueError, match=r"^a training forward needs at least one sample, got an empty batch$"):
        net.forward(x[:0], training=True)
    for name, buffer in net.buffers().items():
        np.testing.assert_array_equal(buffer, before[name], err_msg=name)
    # an empty eval batch has nothing to normalize by batch, so it still runs
    assert net.forward(x[:0]).shape == (0, 8, 64, 5)
    assert np.isfinite(net.forward(x)).all()


def test_channel_mismatch():
    net = build(small_config(), seed=0)
    with pytest.raises(ValueError, match="channels"):
        net.forward(np.zeros((1, 8, 64, 4), dtype=np.float32))


def test_config_validation():
    with pytest.raises(ValueError, match="6 stage"):
        NetworkConfig(stage_channels=(32, 32))
    with pytest.raises(ValueError, match="positive"):
        NetworkConfig(stage_channels=(32, 32, 32, 0, 32, 32))
    with pytest.raises(ValueError, match="non-negative"):
        NetworkConfig(blocks_per_stage=(1, 1, 2, 2, 2, -1))
    with pytest.raises(ValueError, match="n_classes"):
        NetworkConfig(n_classes=0)
    with pytest.raises(ValueError, match="alpha_overrides"):
        NetworkConfig(alpha_overrides=(("head", 2),))
    with pytest.raises(ValueError, match="alpha"):
        NetworkConfig(alpha_default=0)
    with pytest.raises(ValueError, match="padding"):
        NetworkConfig(padding="reflect")
    with pytest.raises(ValueError, match="preset"):
        config_from_preset("z")


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"alpha_default": True}, "NetworkConfig.alpha_default must be int, got True"),
        # fails here by name, not inside build
        ({"n_classes": 2.5}, "NetworkConfig.n_classes must be int, got 2.5"),
    ],
)
def test_config_rejects_a_value_of_the_wrong_kind(kw, message):
    with pytest.raises(ValueError, match=message):
        NetworkConfig(**kw)


def test_single_layer_param_count_closed_form():
    k = glorot_uniform(np.random.default_rng(0), 3, 3, 2, 4, alpha=2)
    assert k.weights.size + k.bias.size == 3 * 3 * 2 * 4 * 2 + 4 * 2 == 152


def test_preset_counts_strictly_increase():
    counts = [count_params(build(config_from_preset(n), seed=0)) for n in ("a", "b", "c", "d", "rstar")]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_rstar_count_order_of_magnitude():
    count = count_params(build(config_from_preset("rstar"), seed=0))
    assert 0.5 * 50.4e6 <= count <= 1.5 * 50.4e6


def test_alpha_two_roughly_doubles_conv_params():
    # alpha 2 adds every conv weight once, the head bias once, and c_out * 2
    # bias scalars per conv unit, whose conv has no bias at alpha 1
    base = build(small_config(), seed=0)
    doubled = build(small_config(alpha_default=2), seed=0)
    params = base.parameters()
    weights = sum(p.size for name, p in params.items() if name.endswith(".weights"))
    unit_convs = [name.removesuffix(".weights") for name in params if name.endswith(".conv.weights")]
    unit_biases = sum(params[f"{conv}.weights"].shape[3] * 2 for conv in unit_convs)
    assert count_params(doubled) - count_params(base) == weights + params["head.bias"].size + unit_biases
    assert sorted(doubled.parameters()) == sorted([*params, *(f"{conv}.bias" for conv in unit_convs)])


def test_alpha_override_targets_named_layer():
    cfg = small_config(alpha_overrides={"head": 4})
    net = build(cfg, seed=0)
    assert net.layers["head"].alpha == 4
    assert net.layers["stem"].alpha == 1
    assert cfg.alpha_for("head") == 4
    assert cfg.alpha_for("enc1.down") == 1
    prefix_cfg = small_config(alpha_overrides={"enc1": 2, "enc1.down": 3})
    assert prefix_cfg.alpha_for("enc1.down") == 3
    assert prefix_cfg.alpha_for("enc1.block0.conv1") == 2


def test_alpha_override_that_names_no_conv_is_rejected():
    # a key is a prefix of conv names, a unit's conv name (enc1.down.conv) included
    net = build(small_config(alpha_overrides={"enc1.down.conv": 2, "enc2.block": 3}), seed=0)
    assert net.layers["enc1.down"].alpha == 2
    assert net.layers["enc2.block0.conv2"].alpha == 3
    assert net.layers["enc2.down"].alpha == 1
    with pytest.raises(ValueError, match=r"^alpha_overrides name no conv layer: 'hed', 'enc1\.down\.norm'$"):
        build(NetworkConfig(alpha_overrides={"hed": 2, "enc1.down.norm": 3}))
    with pytest.raises(ValueError, match=r"^alpha_overrides name no conv layer: 'enc1\.block0'$"):
        build(small_config(blocks_per_stage=(1, 0, 1, 1, 1, 1), alpha_overrides={"enc1.block0": 2}))


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

    assert np.abs(build(small_config(), seed=0).forward(x) - before).max() > 0  # the seed load_network builds at
    other = load_network(path)
    assert other.config == net.config
    np.testing.assert_array_equal(other.forward(x), before)


def test_load_shape_mismatch_names_offenders(tmp_path):
    net = build(small_config(), seed=11)
    net.config = small_config(stage_channels=(8, 16, 16, 16, 16, 16))  # the stored config, not the tensors
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    with pytest.raises(ValueError, match=re.escape(f"{path} does not fit its config") + ".*enc1.down.conv.weights"):
        load_network(path)


def test_load_rejects_conv_bias_the_norm_cancels(tmp_path):
    # a conv unit has no bias at alpha 1, so an archive that holds one does not fit
    net = build(small_config(), seed=14)
    path = tmp_path / "weights.npz"
    stale = {"stem.conv.bias": np.zeros((8, 1), dtype=np.float32)}
    np.savez(path, config=json.dumps(asdict(net.config)), **net.parameters(), **net.buffers(), **stale)
    with pytest.raises(ValueError, match=r"does not fit its config: unexpected stem\.conv\.bias$"):
        load_network(path)


def _write_archive(path, net, config):
    """``net``'s tensors under a hand-made ``config`` entry, none if ``config`` is None."""
    entries = net.parameters() | net.buffers()
    if config is not None:
        entries["config"] = json.dumps(config)
    np.savez(path, **entries)


BAD_CONFIGS = {
    "no config entry": lambda c: None,
    "unknown key 'dropout'": lambda c: c | {"dropout": 0.1},
    "missing key 'padding'": lambda c: {k: v for k, v in c.items() if k != "padding"},
    "alpha must be >= 1": lambda c: c | {"alpha_default": 0},
    "unknown padding mode 'reflect'": lambda c: c | {"padding": "reflect"},
    "n_classes must be >= 1": lambda c: c | {"n_classes": 0},
    "NetworkConfig.alpha_overrides must be dict": lambda c: c | {"alpha_overrides": {"head": 1.5}},
    # JSON true must not load as alpha 1
    "NetworkConfig.alpha_default must be int, got True": lambda c: c | {"alpha_default": True},
    "bad config: alpha_overrides name no conv layer: 'hed'": lambda c: c | {"alpha_overrides": {"hed": 2}},
    "not a JSON object": lambda c: [c],
}


@pytest.mark.parametrize("problem", sorted(BAD_CONFIGS))
def test_load_rejects_bad_config(tmp_path, problem):
    net = build(small_config(), seed=33)
    path = tmp_path / "weights.npz"
    _write_archive(path, net, BAD_CONFIGS[problem](asdict(net.config)))
    with pytest.raises(ValueError, match=problem) as info:
        load_network(path)
    assert str(path) in str(info.value)


def test_load_truncated_file(tmp_path):
    net = build(small_config(), seed=12)
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="unreadable"):
        load_network(path)


def test_input_stats_buffers_serialized(tmp_path):
    net = build(small_config(), seed=13)
    net.input_mean[:] = [1.0, 2.0, 3.0]
    net.input_std[:] = [4.0, 5.0, 6.0]
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    other = load_network(path)
    np.testing.assert_array_equal(other.input_mean, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(other.input_std, [4.0, 5.0, 6.0])


def _leaves(module):
    """The leaves a chain module owns, in the order it runs them."""
    if isinstance(module, (SlcLayer, ConvUnit)):
        return [module]
    units = (module.u1, module.u2) if isinstance(module, ResBlock) else (module.proj, module.refine)
    return [leaf for unit in units for leaf in _leaves(unit)]


def test_layer_registry_is_parameter_order():
    net = build(small_config(), seed=0)
    names = list(net.layers)
    assert names[:3] == ["stem", "stem.block0.conv1", "stem.block0.conv2"]
    assert names[names.index("enc1.down") + 1] == "enc1.block0.conv1"
    assert names[-1] == "head"
    assert list(net.parameters()) == [k for layer in net.layers.values() for k in layer.params]
    assert list(net.buffers())[:2] == ["input_mean", "input_std"]

    # the chain owns every leaf, in registry order, and each decoder stage's
    # skip is the last module of the encoder stage of its width, the entry
    # unit of a stage with no block
    blocks = (1, 0, 1, 2, 0, 1)
    net = build(small_config(blocks_per_stage=blocks), seed=0)
    chain = net.encoder + net.decoder + [net.head]
    assert [leaf for module in chain for leaf in _leaves(module)] == list(net.layers.values())
    stages = ["stem"] + [f"enc{k}" for k in range(1, 6)]
    entries = ["stem"] + [f"{stage}.down" for stage in stages[1:]]
    assert [m.name for m in net.encoder if isinstance(m, ConvUnit)] == entries
    ends = [f"{stage}.block{n - 1}" if n else entry for stage, entry, n in zip(stages, entries, blocks)]
    assert [stage.skip_src.name for stage in net.decoder] == ends[4::-1]
    for stage in net.decoder:
        after = net.encoder[net.encoder.index(stage.skip_src) + 1]
        assert isinstance(after, ConvUnit) and after.name.endswith(".down")


def test_archive_names_and_their_order():
    # each conv unit gives its conv's weights (and bias, at alpha > 1), then
    # its norm's gamma and beta, in registry order, then the head; archives
    # keep the names and order they had when conv and norm were two leaves
    net = build(small_config(alpha_overrides={"enc2.block0.conv2.conv": 3}), seed=0)
    units = []
    for stage in ["stem"] + [f"enc{k}" for k in range(1, 6)]:
        units += [stage if stage == "stem" else f"{stage}.down", f"{stage}.block0.conv1", f"{stage}.block0.conv2"]
    units += [f"dec{k}.{part}" for k in range(5, 0, -1) for part in ("proj", "refine")]
    assert list(net.layers) == [*units, "head"]
    params = []
    for unit in units:
        params.append(f"{unit}.conv.weights")
        if unit == "enc2.block0.conv2":
            params.append(f"{unit}.conv.bias")
        params += [f"{unit}.norm.gamma", f"{unit}.norm.beta"]
    params += ["head.weights", "head.bias"]
    buffers = ["input_mean", "input_std"] + [f"{unit}.norm.{stat}" for unit in units for stat in ("running_mean", "running_var")]
    assert list(net.parameters()) == params
    assert list(net.buffers()) == buffers
    assert net.layers["enc2.block0.conv2"].alpha == 3
    assert {layer.alpha for name, layer in net.layers.items() if name != "enc2.block0.conv2"} == {1}
    # an override key prefixes conv names, so a norm's name is none
    with pytest.raises(ValueError, match=r"^alpha_overrides name no conv layer: 'stem\.norm'$"):
        build(small_config(alpha_overrides={"stem.norm": 2}))


def _as_float64(net):
    """Recast every registered parameter and buffer to float64."""
    for layer in net.layers.values():
        for arrays in (layer.params, layer.buffers):
            for name in list(arrays):
                arrays[name] = arrays[name].astype(np.float64)
    return net


# sampled parameter entries (basic-slice views, so probes write through)
# from the stem, one encoder stage, one decoder stage and the head; a conv
# unit's bias is a parameter only at alpha > 1, so it is probed only there
GRAD_PROBES = {
    "stem.conv.weights": np.s_[:, :, 0, 1],
    "stem.norm.gamma": np.s_[:],
    "enc2.down.conv.weights": np.s_[1, :, 2, 0],
    "enc2.down.conv.bias": np.s_[:],
    "enc2.block0.conv2.norm.beta": np.s_[:],
    "dec3.proj.conv.weights": np.s_[0, 0, :, 1],
    "dec3.refine.norm.gamma": np.s_[:],
    "head.weights": np.s_[0, 0, :, 1],
    "head.bias": np.s_[:],
}


def _tiny_float64_net(padding, alpha, blocks_per_stage=(1,) * 6):
    """A seeded 4-channel float64 network with a non-trivial input normalization."""
    cfg = NetworkConfig(
        stage_channels=(4,) * 6, blocks_per_stage=blocks_per_stage, n_classes=3, padding=padding, alpha_default=alpha
    )
    net = _as_float64(build(cfg, seed=21))
    net.input_mean[:] = [0.2, -0.1, 0.3]
    net.input_std[:] = [1.5, 0.8, 1.2]
    return net


@pytest.mark.parametrize("padding", ["cyclic", "zeros"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_every_parameter_has_a_live_gradient(padding, alpha):
    # a parameter whose gradient is only rounding noise, like a conv bias
    # that the next norm cancels, would still take Adam steps of about lr
    net = _tiny_float64_net(padding, alpha)
    rng = np.random.default_rng(23)
    net.forward(rng.standard_normal((2, 4, 32, 3)), training=True)
    net.backward(rng.standard_normal((2, 4, 32, 3)))
    peaks = {name: np.abs(g).max() for name, g in net.grads().items()}
    assert sorted(peaks) == sorted(net.parameters())
    largest = max(peaks.values())
    assert [name for name, peak in peaks.items() if peak <= 1e-8 * largest] == []


@pytest.mark.parametrize("padding", ["cyclic", "zeros"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_network_backward_matches_central_differences(padding, alpha):
    _check_network_backward(_tiny_float64_net(padding, alpha), alpha, {})


def test_network_backward_matches_central_differences_across_empty_and_chained_stages():
    # enc1 and enc4 have no block, so their skips are rebuilt entry units
    # rather than cached block outputs, and enc3 chains two blocks
    alpha = 2
    net = _tiny_float64_net("cyclic", alpha, blocks_per_stage=(1, 0, 1, 2, 0, 1))
    edge_probes = {
        "enc1.down.norm.gamma": np.s_[:],
        "enc3.block1.conv1.conv.weights": np.s_[1, :, 2, 0],
        "enc4.down.norm.beta": np.s_[:],
    }
    _check_network_backward(net, alpha, edge_probes)


def _check_network_backward(net, alpha, extra_probes):
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
    probes = {name: probe for name, probe in (GRAD_PROBES | extra_probes).items() if name in params}
    assert set(GRAD_PROBES | extra_probes) - set(probes) == ({"enc2.down.conv.bias"} if alpha == 1 else set())
    for name, probe in probes.items():
        num = central_diff_grad(loss, params[name][probe], 1e-6)
        assert max_rel_err(grads[name][probe], num) < 1e-5, name
    if alpha > 1:
        # each band's bias is live; the norm cancels only their per-channel sum
        band_grads = grads["enc2.down.conv.bias"]
        assert np.abs(band_grads.sum(axis=1)).max() < 1e-9 * np.abs(band_grads).max()


def test_load_dtype_mismatch_rejected_before_any_write(tmp_path):
    net = build(small_config(), seed=15)
    tensors = net.parameters() | net.buffers()
    archive = {name: arr.astype(np.float64) for name, arr in tensors.items()}
    archive["head.bias"][:] = 1e300  # beyond float32 range
    path = tmp_path / "weights.npz"
    np.savez(path, config=json.dumps(asdict(net.config)), **archive)
    with pytest.raises(ValueError, match=r"head\.bias: archive dtype float64 vs network float32"):
        load_network(path)


BAD_TENSORS = {
    "head.weights: non-finite values": ("head.weights", np.nan),
    "enc1.down.norm.running_var: variance below 0": ("enc1.down.norm.running_var", -1e-3),
    "input_std: not above 0": ("input_std", 0.0),
}


@pytest.mark.parametrize("problem", sorted(BAD_TENSORS))
def test_load_rejects_bad_values_before_any_write(tmp_path, monkeypatch, problem):
    net = build(small_config(), seed=16)
    name, value = BAD_TENSORS[problem]
    (net.parameters() | net.buffers())[name].flat[0] = value
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    built = []
    monkeypatch.setattr(seg_net, "build", lambda config: built.append(build(config)) or built[0])
    with pytest.raises(ValueError, match=re.escape(f"does not fit its config: {problem}")):
        load_network(path)
    # the network load_network built still holds its initial tensors
    fresh = build(small_config())
    for key, arr in (fresh.parameters() | fresh.buffers()).items():
        np.testing.assert_array_equal((built[0].parameters() | built[0].buffers())[key], arr)


def _randomize_norms(net, seed):
    """Non-trivial scale, shift and running statistics in every conv unit's norm."""
    rng = np.random.default_rng(seed)
    for layer in net.layers.values():
        if isinstance(layer, ConvUnit):
            *_, gamma, beta = layer.params.values()
            mean, var = layer.buffers.values()
            c = gamma.size
            gamma[:] = rng.uniform(0.5, 1.5, c)
            beta[:] = rng.normal(0.0, 0.3, c)
            mean[:] = rng.normal(0.0, 0.5, c)
            var[:] = rng.uniform(0.3, 3.0, c)
    return net


def _unfolded_unit_forward(unit, x, training=False):
    """Eval forward of a conv unit without the fold: its conv (a zero bias
    where it has none), then ``norm_inference`` over its own norm's params and
    buffers, then relu."""
    assert not training
    weights, *bias, gamma, beta = unit.params.values()
    kernel = SlcKernel(weights, bias[0] if bias else np.zeros(weights.shape[3:], weights.dtype))
    y = slc_forward(x, kernel, unit.pad_spec, unit.stride_w)
    y = norm_inference(y, gamma, beta, *unit.buffers.values())
    return relu(y) if unit.activated else y


def _unfolded_logits(net, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConvUnit, "forward", _unfolded_unit_forward)
        return net.forward(x, training=False)


FOLD_CONFIGS = {
    "cyclic": dict(padding="cyclic", alpha_overrides={"enc1": 2, "dec2.refine": 3, "head": 2}),
    "zeros": dict(padding="zeros", alpha_default=2, alpha_overrides={"stem": 1, "enc3.down": 4}),
}


@pytest.mark.parametrize("case", sorted(FOLD_CONFIGS))
def test_eval_fold_matches_unfolded_composition(case):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 8, 64, 3)).astype(np.float32)
    net = _randomize_norms(build(small_config(**FOLD_CONFIGS[case]), seed=16), seed=18)
    net.input_mean[:] = [0.2, -0.1, 0.3]
    net.input_std[:] = [1.5, 0.8, 1.2]
    got, want = net.forward(x), _unfolded_logits(net, x)
    assert got.dtype == np.float32
    assert max_rel_err(got, want) < 1e-5

    net64 = _as_float64(net)
    got, want = net64.forward(x.astype(np.float64)), _unfolded_logits(net64, x.astype(np.float64))
    assert max_rel_err(got, want) < 1e-12


def test_eval_miou_folded_equals_unfolded(monkeypatch):
    train_set, _ = make_synthetic_dataset(n_scans=4, h=16, w=64, n_object_classes=3, seed=5)
    net = _randomize_norms(build(small_config(n_classes=4), seed=19), seed=20)
    folded = evaluate(net, train_set).miou
    monkeypatch.setattr(ConvUnit, "forward", _unfolded_unit_forward)
    unfolded = evaluate(net, train_set).miou
    assert abs(folded - unfolded) <= 1e-6


def test_eval_fold_follows_loaded_and_stepped_weights(tmp_path):
    cfg = small_config()
    x = np.random.default_rng(21).standard_normal((1, 8, 64, 3)).astype(np.float32)
    before = build(cfg, seed=22).forward(x)
    source = _randomize_norms(build(cfg, seed=23), seed=24)
    path = tmp_path / "weights.npz"
    save_weights(source, path)
    net = load_network(path)
    loaded = net.forward(x)
    assert np.abs(loaded - before).max() > 1e-3
    np.testing.assert_array_equal(loaded, source.forward(x))

    logits = net.forward(x, training=True)  # also moves the running statistics
    net.backward(np.ones_like(logits))
    pre_step = net.forward(x)
    Adam(net.parameters(), lr=1e-2).step(net.grads())
    stepped = net.forward(x)
    assert np.abs(stepped - pre_step).max() > 1e-3
    assert max_rel_err(stepped, _unfolded_logits(net, x)) < 1e-5


def _modules(net):
    """The network, its head and every decoder stage, conv unit and
    residual block of it, each once."""
    units = [unit for stage in net.decoder for unit in (stage, stage.proj, stage.refine)]
    for module in net.encoder:
        units += [module, module.u1, module.u2] if isinstance(module, ResBlock) else [module]
    return [net, net.head] + units


# the one cache each kind of module keeps in training; every other module
# keeps no activation, since backward takes its input from its parent
ACTIVATION_CACHES = {ConvUnit: "_cache", ResBlock: "_out", Network: "_x"}
# a conv unit also keeps the array its conv wrote, in which its norm built
# x_hat, from step to step
KEPT = "kept"


def _held_activations(module):
    return [attr for attr, value in vars(module).items() if isinstance(value, (np.ndarray, tuple))]


def test_eval_forward_keeps_no_activations():
    net = build(small_config(), seed=25)
    x = np.random.default_rng(26).standard_normal((1, 8, 64, 3)).astype(np.float32)
    net.forward(x, training=False)
    modules = _modules(net)
    keepers = [m for m in modules if isinstance(m, ConvUnit)]

    def assert_released():
        for module in modules:
            for attr in [*ACTIVATION_CACHES.values(), KEPT]:
                assert getattr(module, attr, None) is None, (type(module).__name__, attr)

    assert_released()
    net.forward(x, training=True)
    for module in modules:
        cache = ACTIVATION_CACHES.get(type(module))
        if cache is not None:
            assert getattr(module, cache) is not None, (type(module).__name__, cache)
        held = [cache] if cache is not None else []
        held += [KEPT] if module in keepers else ["input_mean", "input_std"] if module is net else []
        assert sorted(_held_activations(module)) == sorted(held), type(module).__name__

    # an eval forward drops every cache and kept array a training forward left
    net.forward(x, training=False)
    assert_released()

    # a finished training step holds no activations: backward released
    # every cache once it had read it, so beyond the parameter gradients
    # and each unit's kept array the step leaves almost nothing traced behind
    x2 = np.random.default_rng(27).standard_normal((2, 16, 128, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        logits = net.forward(x2, training=True)
        gx = net.backward(np.ones_like(logits))
        del logits, gx
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    for module in modules:
        for attr in ACTIVATION_CACHES.values():
            assert getattr(module, attr, None) is None, (type(module).__name__, attr)
        expected = [KEPT] if module in keepers else ["input_mean", "input_std"] if module is net else []
        assert sorted(_held_activations(module)) == expected, type(module).__name__
    held -= sum(g.nbytes for g in net.grads().values())
    held -= sum(unit.kept.nbytes for unit in keepers)
    stem_bytes = 2 * 16 * 128 * net.config.stage_channels[0] * 4
    assert held < stem_bytes

    # and an eval forward releases the kept arrays
    net.forward(x2, training=False)
    assert_released()


def test_eval_forward_peak_memory():
    # each activation is freed once its last reader has run; keeping dead
    # skips, padded conv inputs or the upsample-first decoder's full-width
    # tensor reached 8.5x the stem output
    net = build(config_from_preset("a"), seed=28)
    x = np.random.default_rng(29).standard_normal((1, 64, 256, 3)).astype(np.float32)
    net.forward(x)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stem_bytes = 64 * 256 * net.config.stage_channels[0] * 4
    assert peak <= 5 * stem_bytes


def test_training_step_peak_memory():
    # a training forward caches only norm x_hats, residual block outputs and
    # the normalized input, and backward rebuilds the rest; caching every
    # conv input and relu output as well peaked at 25.9x the stem output,
    # against 19.1x without them; the norm building x_hat in the conv output
    # and its input gradient in its upstream took it from 18.7x to 17.8x.
    # The units' kept arrays (9.75x) are held from the step before, and the
    # step allocates 8.06x beyond them; without the conv input gradients
    # written into the spent kept arrays it was 8.93x
    net = build(config_from_preset("a"), seed=41)
    x = np.random.default_rng(42).standard_normal((2, 64, 256, 3)).astype(np.float32)
    logits = net.forward(x, training=True)
    net.backward(np.ones_like(logits))
    del logits
    kept = sum(layer.kept.nbytes for layer in net.layers.values() if isinstance(layer, ConvUnit))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits = net.forward(x, training=True)
        net.backward(np.ones_like(logits))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stem_bytes = 2 * 64 * 256 * net.config.stage_channels[0] * 4
    assert peak <= 8.5 * stem_bytes
    assert peak + kept <= 18.5 * stem_bytes


@pytest.mark.blas_bits
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", ["cyclic", "zeros"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_output_rebuilds_each_training_forward_result(monkeypatch, dtype, padding, alpha):
    # backward feeds each module the rebuilt output of the one before it, so
    # the rebuild must be the forward's result bit for bit; the stages with
    # no block cover a skip taken from an entry unit
    cfg = small_config(padding=padding, alpha_default=alpha, blocks_per_stage=(1, 0, 1, 2, 0, 1))
    net = _randomize_norms(build(cfg, seed=43), seed=44)
    if dtype == np.float64:
        _as_float64(net)
    returned = {}
    for cls in (ConvUnit, ResBlock, DecoderStage):

        def recorded(module, *args, _forward=cls.forward):
            y = _forward(module, *args)
            returned[id(module)] = y.copy()  # a residual block adds its shortcut in place
            return y

        monkeypatch.setattr(cls, "forward", recorded)
    x = np.random.default_rng(45).standard_normal((2, 8, 64, 3)).astype(dtype)
    net.forward(x, training=True)

    modules = [m for m in _modules(net) if isinstance(m, (ConvUnit, ResBlock, DecoderStage))]
    assert sorted(returned) == sorted(map(id, modules))
    assert {m.activated for m in modules if isinstance(m, ConvUnit)} == {False, True}
    for module in modules:
        got, want = module.output(), returned[id(module)]
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), getattr(module, "name", type(module).__name__)


@pytest.mark.blas_bits
def test_kept_arrays_keep_the_training_bits(monkeypatch):
    # a seeded run whose conv units keep their arrays from step to step,
    # against one whose eval forward between steps releases them and one
    # whose units keep nothing, so that every conv writes into a fresh array
    cfg = config_from_preset("a", n_classes=4, alpha_overrides={"enc2": 2})
    rng = np.random.default_rng(46)
    xs = rng.standard_normal((4, 2, 16, 64, 3)).astype(np.float32)
    ys = rng.integers(0, 4, size=(4, 2, 16, 64))

    def run(eval_between):
        net = build(cfg, seed=47)
        opt = Adam(net.parameters(), 2e-3)
        keepers = [layer for layer in net.layers.values() if isinstance(layer, ConvUnit)]
        losses, kept = [], []
        for x, y in zip(xs, ys):
            if eval_between:
                net.forward(x[:1])
            loss = objective("ce+dice", softmax(net.forward(x, training=True)), y)
            net.backward(loss.grad.astype(np.float32))
            opt.step(net.grads())
            losses.append(loss.value)
            kept.append([unit.kept for unit in keepers])
        state = {n: a.tobytes() for n, a in (net.parameters() | net.buffers()).items()}
        return (losses, state), kept

    want, kept = run(eval_between=False)
    assert all(a is b for a, b in zip(kept[0], kept[-1]))
    got, kept = run(eval_between=True)
    assert not any(a is b for a, b in zip(kept[0], kept[-1]))
    assert got == want
    monkeypatch.setattr(ConvUnit, KEPT, property(lambda unit: None, lambda unit, value: None), raising=False)
    got, kept = run(eval_between=False)
    assert kept[-1] == [None] * len(kept[-1])
    assert got == want


def test_training_logits_outlive_later_steps():
    # the head keeps no array, so no later training forward or backward
    # writes over the logits a training forward returned
    net = build(small_config(), seed=48)
    xs = np.random.default_rng(49).standard_normal((3, 2, 8, 64, 3)).astype(np.float32)
    returned = []
    for x in xs:
        logits = net.forward(x, training=True)
        returned.append((logits, logits.tobytes()))
        net.backward(np.ones_like(logits))
    assert [logits.tobytes() for logits, _ in returned] == [bits for _, bits in returned]


def test_backward_after_eval_forward_names_the_layer():
    net = build(small_config(), seed=33)
    logits = net.forward(np.ones((1, 8, 64, 3), np.float32))
    with pytest.raises(RuntimeError, match=r"^dec1\.refine: backward needs a training forward first$"):
        net.backward(np.ones_like(logits))
    # after a training forward, the eval forward that follows it wins
    net.forward(np.ones((1, 8, 64, 3), np.float32), training=True)
    logits = net.forward(np.ones((1, 8, 64, 3), np.float32))
    with pytest.raises(RuntimeError, match=r"^dec1\.refine: backward needs a training forward first$"):
        net.backward(np.ones_like(logits))
    # the head's input is rebuilt from the last decoder unit, which is the first to be missed
    with pytest.raises(RuntimeError, match=r"^dec1\.refine: backward needs a training forward first$"):
        net.decoder[-1].output()
    stem = net.encoder[0]
    with pytest.raises(RuntimeError, match=r"^stem: backward needs a training forward first$"):
        stem.backward(np.ones((1, 8, 64, 8), np.float32), np.ones((1, 8, 64, 3), np.float32), np.ones((1, 8, 64, 8), np.float32))


def test_train_and_eval_run_the_same_conv_leaves(monkeypatch):
    # every leaf, each conv unit and the head, runs once and one convolution
    # in each mode: at eval a unit's norm is folded into its conv
    net = build(small_config(alpha_overrides={"enc2": 2}), seed=38)
    calls = []
    for cls in (ConvUnit, SlcLayer):

        def recorded(layer, x, training=False, _forward=cls.forward):
            calls.append(layer.name)
            return _forward(layer, x, training)

        monkeypatch.setattr(cls, "forward", recorded)
    convs = []
    conv = seg_net.slc_forward
    monkeypatch.setattr(seg_net, "slc_forward", lambda *args, **kw: convs.append(args[1].weights.shape[4]) or conv(*args, **kw))
    x = np.random.default_rng(39).standard_normal((1, 8, 64, 3)).astype(np.float32)
    net.forward(x, training=True)
    train_calls, calls[:] = calls[:], []
    train_convs, convs[:] = convs[:], []
    net.forward(x)
    assert train_calls == calls == list(net.layers)
    assert train_convs == convs == [layer.alpha for layer in net.layers.values()]


def test_every_activation_runs_through_relu(monkeypatch):
    # one relu per activated conv unit and per residual block in each
    # forward, and one per rebuild of an activated unit's output in backward
    net = build(small_config(blocks_per_stage=(1, 0, 1, 2, 0, 1)), seed=50)
    calls = {"relu": 0, "rebuilds": 0}
    seg_relu, unit_output = seg_net.relu, ConvUnit.output

    def counted_relu(x):
        calls["relu"] += 1
        return seg_relu(x)

    def counted_output(unit):
        calls["rebuilds"] += unit.activated
        return unit_output(unit)

    monkeypatch.setattr(seg_net, "relu", counted_relu)
    monkeypatch.setattr(ConvUnit, "output", counted_output)
    modules = _modules(net)
    activated = sum(isinstance(m, ConvUnit) and m.activated for m in modules)
    blocks = sum(isinstance(m, ResBlock) for m in modules)
    x = np.random.default_rng(51).standard_normal((2, 8, 64, 3)).astype(np.float32)

    logits = net.forward(x, training=True)
    assert calls == {"relu": activated + blocks, "rebuilds": 0}
    calls["relu"] = 0
    net.backward(np.ones_like(logits))
    assert calls["rebuilds"] > activated and calls["relu"] == calls["rebuilds"]
    calls["relu"] = 0
    net.forward(x)
    assert calls["relu"] == activated + blocks


def test_res_block_backward_hands_the_plain_unit_its_spent_upstream(monkeypatch):
    net = build(small_config(), seed=52)
    handed = {}
    for cls in (ConvUnit, ResBlock):

        def recorded(module, upstream, *args, _backward=cls.backward):
            handed[id(module)] = upstream
            return _backward(module, upstream, *args)

        monkeypatch.setattr(cls, "backward", recorded)
    x = np.random.default_rng(53).standard_normal((2, 8, 64, 3)).astype(np.float32)
    logits = net.forward(x, training=True)
    net.backward(np.ones_like(logits))
    blocks = [m for m in net.encoder if isinstance(m, ResBlock)]
    assert blocks
    for block in blocks:
        assert np.shares_memory(handed[id(block.u2)], handed[id(block)]), block.name


@pytest.mark.parametrize("training", [False, True])
def test_alpha_above_input_height_names_the_layer_before_any_conv_runs(monkeypatch, training):
    net = build(small_config(alpha_overrides={"enc3": 4}), seed=40)
    monkeypatch.setattr(seg_net, "slc_forward", lambda *args, **kw: pytest.fail("a conv ran"))
    with pytest.raises(ValueError, match=r"^enc3\.down: alpha 4 exceeds input height 2$"):
        net.forward(np.ones((1, 2, 64, 3), np.float32), training)
    with pytest.raises(ValueError, match=r"^stem: alpha 1 exceeds input height 0$"):
        net.forward(np.ones((1, 0, 64, 3), np.float32), training)


def test_second_backward_names_the_layer():
    net = build(small_config(), seed=34)
    logits = net.forward(np.ones((1, 8, 64, 3), np.float32), training=True)
    net.backward(np.ones_like(logits))
    with pytest.raises(RuntimeError, match=r"^dec1\.refine: backward needs a training forward first$"):
        net.backward(np.ones_like(logits))
    up = np.ones((1, 8, 64, 8), np.float32)
    for name in ("dec1.refine", "stem"):
        # the unit fails before it writes into any array it is handed
        y = up.copy()
        with pytest.raises(RuntimeError, match=rf"^{re.escape(name)}: backward needs a training forward first$"):
            net.layers[name].backward(up, up, y)
        np.testing.assert_array_equal(y, up)
    # a parent takes a block's spent output from the block, which names itself
    block = net.encoder[1]
    with pytest.raises(RuntimeError, match=r"^stem\.block0: backward needs a training forward first$"):
        block.output()
    with pytest.raises(RuntimeError, match=r"^stem\.block0\.conv1: backward needs a training forward first$"):
        block.backward(up, up, up.copy())


def _upsample_first_forward(stage, x, skip, training):
    """A decoder stage in the order it replaced: upsample, 1x1 matcher at
    full width, skip add, refine."""
    p = stage.proj.forward(upsample_width(x, 2), training)
    return stage.refine.forward(p + skip, training)


def _upsample_first_backward(stage, upstream, x, y, skip):
    gs = stage.refine.backward(upstream, stage.proj.output() + skip, y)
    return upsample_width_backward(stage.proj.backward(gs, upsample_width(x, 2), stage.proj.output()), 2), gs


@pytest.mark.parametrize("alpha", [1, 2])
def test_decoder_matcher_before_upsample_matches_upsample_first(alpha):
    # nearest width repetition commutes with the per-pixel matcher, and a
    # norm's batch statistics ignore repeating every value twice
    cfg = NetworkConfig(stage_channels=(4,) * 6, blocks_per_stage=(1,) * 6, n_classes=3, alpha_default=alpha)
    layers = {}
    stage = DecoderStage(layers, np.random.default_rng(35), cfg, "dec1", 6, 4, skip_src=None)
    _randomize_norms(_as_float64(SimpleNamespace(layers=layers)), seed=36)
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 4, 16, 6))
    skip = rng.standard_normal((2, 4, 32, 4))
    up = rng.standard_normal((2, 4, 32, 4))

    got, want = stage.forward(x, skip), _upsample_first_forward(stage, x, skip, False)
    assert max_rel_err(got, want) < 1e-12

    def state():
        """Copies of the stage's gradients and running statistics."""
        return {k: v.copy() for layer in layers.values() for k, v in (layer.grads | layer.buffers).items()}

    start = state()
    got = [stage.forward(x, skip, training=True), *stage.backward(up, x, stage.output(), skip)]
    got_state = state()
    for layer in layers.values():
        for name, buffer in layer.buffers.items():
            buffer[...] = start[name]
    want = [_upsample_first_forward(stage, x, skip, True), *_upsample_first_backward(stage, up, x, stage.output(), skip)]
    want_state = state()
    for g, w in zip(got, want):  # output, then input and skip gradients
        assert max_rel_err(g, w) < 1e-12
    assert got_state.keys() == want_state.keys()
    for name in want_state:
        assert max_rel_err(got_state[name], want_state[name]) < 1e-12, name


@pytest.mark.parametrize("case", sorted(FOLD_CONFIGS))
def test_load_network_reproduces_eval_logits(tmp_path, case):
    net = _randomize_norms(build(small_config(**FOLD_CONFIGS[case]), seed=30), seed=31)
    net.input_mean[:] = [0.2, -0.1, 0.3]
    net.input_std[:] = [1.5, 0.8, 1.2]
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    loaded = load_network(path)
    assert loaded.config == net.config
    x = np.random.default_rng(32).standard_normal((2, 8, 64, 3)).astype(np.float32)
    np.testing.assert_array_equal(loaded.forward(x), net.forward(x))
