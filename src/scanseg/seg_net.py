"""Configurable encoder-decoder segmentation backbones.

The family is generated from a six-entry table of encoder channel counts.
Topology: six encoder stages, each a conv unit followed by residual blocks;
stage 0 is the full-resolution stem, and the other five halve the width
(height is never strided; range images are short and wide). A decoder
mirrors the strides with nearest-neighbor width upsampling and additive skip
connections behind channel-matching 1x1 convolutions, and a 1x1 head maps to
the class logits. Every convolution is a semi-local convolution whose
component count alpha can be scheduled per layer (default 1 everywhere, i.e.
plain convolutions), and every width padding follows the configured mode, so
a cyclic network is cyclic end to end.

Every conv and norm leaf registers itself at construction in
``Network.layers``, keyed by layer name (``"stem.conv"``, ``"head"``) in
parameter order, and owns ``params``, ``buffers`` and ``grads`` dicts keyed
by archive name (``"head.weights"``). Networks are deterministic: the same
config and seed yield bit-identical parameters. Weights serialize to
``.npz`` archives of exactly those names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .neural_core import (
    PadSpec,
    SlcKernel,
    glorot_uniform,
    norm_backward,
    norm_forward,
    norm_inference,
    relu,
    relu_backward,
    slc_backward,
    slc_forward,
    upsample_width,
    upsample_width_backward,
)

N_ENCODER_STAGES = 5  # width-halving stages after the stem
NORM_MOMENTUM = 0.1  # running-statistics update rate
NORM_EPS = 1e-5

#: Encoder channel tables of the sized backbones, smallest to largest.
BACKBONE_PRESETS: dict[str, tuple[int, ...]] = {
    "A": (32, 32, 32, 32, 32, 32),
    "B": (32, 48, 64, 64, 64, 64),
    "C": (32, 48, 64, 96, 128, 256),
    "D": (32, 48, 64, 128, 256, 512),
    "R*": (32, 64, 128, 256, 512, 1024),
}


@dataclass
class NetworkConfig:
    """Everything needed to rebuild a network deterministically."""

    stage_channels: tuple[int, ...] = BACKBONE_PRESETS["A"]
    blocks_per_stage: tuple[int, ...] = (1, 1, 2, 2, 2, 2)
    alpha_default: int = 1
    alpha_overrides: dict[str, int] = field(default_factory=dict)
    padding: str = "cyclic"  # width padding mode: "cyclic" | "zeros"
    in_channels: int = 3  # depth, reflectance, mask
    n_classes: int = 20

    def __post_init__(self):
        if len(self.stage_channels) != 6:
            raise ValueError(f"expected 6 stage channel counts, got {len(self.stage_channels)}")
        if len(self.blocks_per_stage) != 6:
            raise ValueError(f"expected 6 block counts, got {len(self.blocks_per_stage)}")
        if any(c <= 0 for c in self.stage_channels):
            raise ValueError("channel counts must be positive")
        if self.alpha_default < 1 or any(a < 1 for a in self.alpha_overrides.values()):
            raise ValueError("alpha must be >= 1")
        if self.padding not in ("cyclic", "zeros"):
            raise ValueError(f"unknown padding mode {self.padding!r}")

    def alpha_for(self, layer_name: str) -> int:
        """Component count for a named layer: the longest key of
        ``alpha_overrides`` that prefixes the name (an exact match being the
        longest), else the default."""
        best = None
        for key in self.alpha_overrides:
            if layer_name.startswith(key) and (best is None or len(key) > len(best)):
                best = key
        return self.alpha_overrides[best] if best is not None else self.alpha_default


def preset_key(name: str) -> str:
    """The ``BACKBONE_PRESETS`` key of a preset name given in any case, with
    ``rstar`` spelling ``R*``."""
    key = name.upper().replace("RSTAR", "R*")
    if key not in BACKBONE_PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(BACKBONE_PRESETS)}")
    return key


def config_from_preset(name: str, **overrides) -> NetworkConfig:
    return NetworkConfig(stage_channels=BACKBONE_PRESETS[preset_key(name)], **overrides)


class SlcLayer:
    """One semi-local convolution; its kernel lives in ``params`` and its
    last input is cached for the backward pass."""

    def __init__(self, layers, name, rng, i, j, c_in, c_out, alpha, pad_mode, stride_w=1):
        kernel = glorot_uniform(rng, i, j, c_in, c_out, alpha)
        self.params = {f"{name}.weights": kernel.weights, f"{name}.bias": kernel.bias}
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.pad_spec = PadSpec.same(i, j, pad_mode)
        self.stride_w = stride_w
        self._x = None
        layers[name] = self

    @property
    def kernel(self) -> SlcKernel:
        return SlcKernel(*self.params.values())

    def forward(self, x, training=False):
        self._x = x
        return slc_forward(x, self.kernel, self.pad_spec, self.stride_w)

    def backward(self, upstream):
        gx, gw, gb = slc_backward(self._x, self.kernel, self.pad_spec, upstream, self.stride_w)
        self.grads = dict(zip(self.params, (gw, gb)))
        return gx


class NormLayer:
    """Batch-statistics normalization with running statistics for inference.

    ``params`` holds (gamma, beta) and ``buffers`` (running mean, running
    variance), in that order.
    """

    def __init__(self, layers, name, channels):
        self.params = {
            f"{name}.gamma": np.ones(channels, dtype=np.float32),
            f"{name}.beta": np.zeros(channels, dtype=np.float32),
        }
        self.buffers = {
            f"{name}.running_mean": np.zeros(channels, dtype=np.float32),
            f"{name}.running_var": np.ones(channels, dtype=np.float32),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None
        layers[name] = self

    def forward(self, x, training=False):
        gamma, beta = self.params.values()
        running_mean, running_var = self.buffers.values()
        if not training:
            return norm_inference(x, gamma, beta, running_mean, running_var, NORM_EPS)
        y, cache = norm_forward(x, gamma, beta, NORM_EPS)
        self._cache = cache
        _, _, mean, var = cache
        m = NORM_MOMENTUM
        running_mean[:] = (1 - m) * running_mean + m * mean
        running_var[:] = (1 - m) * running_var + m * var
        return y

    def backward(self, upstream):
        gamma, _ = self.params.values()
        gx, d_gamma, d_beta = norm_backward(upstream, self._cache, gamma)
        self.grads = dict(zip(self.params, (d_gamma, d_beta)))
        return gx


class ConvUnit:
    """conv + norm [+ relu], the repeated building element; alpha and
    padding come from the config."""

    def __init__(self, layers, rng, config, name, i, j, c_in, c_out, stride_w=1, activated=True):
        alpha = config.alpha_for(name)
        self.conv = SlcLayer(layers, f"{name}.conv", rng, i, j, c_in, c_out, alpha, config.padding, stride_w)
        self.norm = NormLayer(layers, f"{name}.norm", c_out)
        self.activated = activated
        self._pre_relu = None

    def forward(self, x, training=False):
        y = self.conv.forward(x, training)
        y = self.norm.forward(y, training)
        if self.activated:
            self._pre_relu = y
            y = relu(y)
        return y

    def backward(self, upstream):
        g = relu_backward(self._pre_relu, upstream) if self.activated else upstream
        g = self.norm.backward(g)  # rebound, so the relu gradient is freed here
        return self.conv.backward(g)


class ResBlock:
    """Two 3x3 conv units with an additive shortcut."""

    def __init__(self, layers, rng, config, name, channels):
        self.u1 = ConvUnit(layers, rng, config, f"{name}.conv1", 3, 3, channels, channels)
        self.u2 = ConvUnit(layers, rng, config, f"{name}.conv2", 3, 3, channels, channels, activated=False)
        self._sum = None

    def forward(self, x, training=False):
        r = self.u2.forward(self.u1.forward(x, training), training)
        s = x + r
        self._sum = s
        return relu(s)

    def backward(self, upstream):
        gs = relu_backward(self._sum, upstream)
        gx_branch = self.u1.backward(self.u2.backward(gs))
        return gs + gx_branch


class EncoderStage:
    """Entry conv unit followed by residual blocks.

    The entry unit of a width-stride-2 stage is named ``<name>.down``; the
    stride-1 stem stage's entry unit is named ``<name>`` itself.
    """

    def __init__(self, layers, rng, config, name, c_in, c_out, n_blocks, stride_w=2):
        entry = f"{name}.down" if stride_w > 1 else name
        self.down = ConvUnit(layers, rng, config, entry, 3, 3, c_in, c_out, stride_w=stride_w)
        self.blocks = [ResBlock(layers, rng, config, f"{name}.block{k}", c_out) for k in range(n_blocks)]

    def forward(self, x, training=False):
        y = self.down.forward(x, training)
        for b in self.blocks:
            y = b.forward(y, training)
        return y

    def backward(self, g):
        for b in reversed(self.blocks):
            g = b.backward(g)
        return self.down.backward(g)


class DecoderStage:
    """Width upsample, 1x1 channel matcher, additive skip, 3x3 refine."""

    def __init__(self, layers, rng, config, name, c_in, c_out):
        self.proj = ConvUnit(layers, rng, config, f"{name}.proj", 1, 1, c_in, c_out)
        self.refine = ConvUnit(layers, rng, config, f"{name}.refine", 3, 3, c_out, c_out)

    def forward(self, x, skip, training=False):
        u = upsample_width(x, 2)
        p = self.proj.forward(u, training)
        return self.refine.forward(p + skip, training)

    def backward(self, upstream):
        gs = self.refine.backward(upstream)
        gu = self.proj.backward(gs)
        gx = upsample_width_backward(gu, 2)
        return gx, gs


class Network:
    """A built backbone: the name-keyed layer registry and the explicit
    forward/backward wiring of the encoder-decoder topology."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        ch = config.stage_channels
        #: every conv and norm leaf by layer name, in parameter order
        self.layers: dict = {}

        names = ["stem"] + [f"enc{i}" for i in range(1, N_ENCODER_STAGES + 1)]
        c_ins = (config.in_channels,) + ch[:-1]
        self.encoder = [
            EncoderStage(self.layers, rng, config, name, c_in, c_out, n_blocks, stride_w=1 if k == 0 else 2)
            for k, (name, c_in, c_out, n_blocks) in enumerate(zip(names, c_ins, ch, config.blocks_per_stage))
        ]
        self.decoder = [
            DecoderStage(self.layers, rng, config, f"dec{i}", ch[i], ch[i - 1]) for i in range(N_ENCODER_STAGES, 0, -1)
        ]
        alpha = config.alpha_for("head")
        self.head = SlcLayer(self.layers, "head", rng, 1, 1, ch[0], config.n_classes, alpha, config.padding)

        # per-channel input normalization, set from data by the trainer
        self.input_mean = np.zeros(config.in_channels, dtype=np.float32)
        self.input_std = np.ones(config.in_channels, dtype=np.float32)

    def parameters(self) -> dict[str, np.ndarray]:
        return {k: v for layer in self.layers.values() for k, v in layer.params.items()}

    def buffers(self) -> dict[str, np.ndarray]:
        inputs = {"input_mean": self.input_mean, "input_std": self.input_std}
        return inputs | {k: v for layer in self.layers.values() for k, v in layer.buffers.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {k: v for layer in self.layers.values() for k, v in layer.grads.items()}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        b, h, w, c = x.shape
        if c != self.config.in_channels:
            raise ValueError(f"input has {c} channels, config expects {self.config.in_channels}")
        stride_total = 2**N_ENCODER_STAGES
        if h < 1 or w % stride_total != 0:
            raise ValueError(f"input width {w} must be a positive multiple of {stride_total}")
        x = (x - self.input_mean) / self.input_std

        skips = []
        for stage in self.encoder:
            x = stage.forward(x, training)
            skips.append(x)
        # decoder[k] consumes skips[-(k + 2)]: the deepest stage's output is
        # the decoder input, not a skip
        for stage, skip in zip(self.decoder, reversed(skips[:-1])):
            x = stage.forward(x, skip, training)
        return self.head.forward(x, training)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Gradients of the last ``forward(x, training=True)``: parameter
        gradients go to each leaf's ``grads``; returns the gradient wrt ``x``."""
        g = self.head.backward(grad_logits)
        # reversed(decoder)[k] is the stage whose skip is encoder[k]'s output
        skip_grads = []
        for stage in reversed(self.decoder):
            g, gs = stage.backward(g)
            skip_grads.append(gs)
        for k in range(N_ENCODER_STAGES, -1, -1):
            if k < N_ENCODER_STAGES:
                g = g + skip_grads[k]
            g = self.encoder[k].backward(g)
        # through the input normalization, so the gradient is wrt ``x``
        return g / self.input_std


def build(config: NetworkConfig, seed: int = 0) -> Network:
    """Build a network with deterministic, seeded initialization."""
    return Network(config, seed)


def count_params(net: Network) -> int:
    """Exact number of trainable scalars (buffers excluded)."""
    return int(sum(p.size for p in net.parameters().values()))


def save_weights(net: Network, path) -> None:
    """Write all parameters and buffers to a flat ``.npz`` archive."""
    with open(path, "wb") as f:
        np.savez(f, **net.parameters(), **net.buffers())


def load_weights(net: Network, path) -> None:
    """Load a weight archive into a built network.

    Every archive entry must match an existing tensor in name and shape; the
    error lists all offending names at once.
    """
    try:
        with np.load(path) as archive:
            stored = {k: archive[k] for k in archive.files}
    except Exception as exc:
        raise ValueError(f"unreadable weight archive {path}: {exc}") from exc

    target = net.parameters() | net.buffers()
    problems = []
    for name, arr in target.items():
        if name not in stored:
            problems.append(f"missing {name}")
        elif stored[name].shape != arr.shape:
            problems.append(f"{name}: archive {stored[name].shape} vs network {arr.shape}")
    for name in stored:
        if name not in target:
            problems.append(f"unexpected {name}")
    if problems:
        raise ValueError("weight archive does not fit the network: " + "; ".join(sorted(problems)))
    for name, arr in target.items():
        arr[...] = stored[name]
