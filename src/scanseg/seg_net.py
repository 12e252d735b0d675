"""Configurable encoder-decoder segmentation backbones.

The family is generated from a six-entry table of encoder channel counts.
Topology: six encoder stages, each a conv unit followed by residual blocks;
stage 0 is the full-resolution stem, and the other five halve the width
(height is never strided; range images are short and wide). A decoder
mirrors the strides with nearest-neighbor width upsampling and additive skip
connections behind channel-matching 1x1 convolutions, and a 1x1 head maps to
the class logits. Every convolution is a semi-local convolution whose
component count alpha can be scheduled per layer (default 1 everywhere, i.e.
plain convolutions; an override key is a prefix of conv layer names, and a
key that prefixes none is rejected), and every width padding follows the
configured mode, so a cyclic network is cyclic end to end.

Every leaf, each conv + norm unit and the 1x1 head, registers itself at
construction in ``Network.layers``, keyed by its name (``"stem"``,
``"enc1.down"``, ``"head"``) in parameter order, and owns ``params``,
``buffers`` and ``grads`` dicts keyed by archive name (``"stem.conv.weights"``,
``"stem.norm.gamma"``, ``"head.weights"``). Networks are deterministic: the same
config and seed yield bit-identical parameters. Weights serialize to
``.npz`` archives of exactly those names plus the config, which rebuilds the
network on load.

Training and eval run the same leaf calls, and a leaf's forward is the only
place its ops run. At eval a unit convolves with its norm folded into the
kernel (Jacob et al. 2018, arXiv:1712.05877), made on every call, so each
conv + norm pair costs one convolution.
Every forward assigns each cache its module owns: the tensor in training,
``None`` at eval, so an eval forward leaves no activation behind and
inference holds nothing extra.

A training forward caches three kinds of tensor: each norm's x_hat, each
residual block's output, and the network's normalized input. Every other
activation is rebuilt in backward from what is cached (Chen et al. 2016,
arXiv:1604.06174; the norm-plus-activation case of Rota Bulo et al. 2018,
arXiv:1712.02616): a conv unit's output is its norm's ``norm_output`` of
x_hat, relu applied where the unit is activated, with the forward's own
float ops, so the rebuild has the forward's bits. Every element-wise pass
works in arrays that are already spent, as in the same paper: relu writes
into its input, the norm's forward builds x_hat in place in the conv output
it is handed, and its backward spends x_hat and writes the input gradient
into its upstream, the relu gradient, so none allocates a full-size result.
A residual block copies the gradient its shortcut also reads into its own
spent upstream for its plain unit. Each unit keeps the array its conv
wrote, in which its norm built x_hat, from one training step to the next
(``ConvUnit.kept``): once the norm's backward has spent x_hat, the unit
hands the array to the conv engine for its input gradient, and the next
training forward for its output, and the engine writes there where the
result fits. So a step reuses the last step's largest arrays, and the heap
they live in, instead of allocating and faulting them in again.

The wiring is one list, ``encoder + decoder``: each encoder stage's entry
conv unit followed by its residual blocks, then the decoder stages. Each
module reads the output of the one before it (the first reads the
normalized input), and a decoder stage also adds its ``skip_src``'s output,
that of the last module of the encoder stage of its width, given when the
stage is built. The backward of each conv unit, block and decoder stage,
``backward(upstream, x, y)``, takes its forward input ``x`` and its output
``y`` from its parent (the head's takes only ``x``). The parent rebuilds
``x`` through its producer's ``output()`` just before the call, and once
the call has read it hands it on as the producer's ``y``, into which a relu
backward writes its gradient. The forward pops each skip as its decoder
stage consumes it and adds shortcuts and skips in place on fresh outputs.
Backward releases every cache once it is done with it, so a finished step
holds no activations, only the units' kept arrays, and a backward with
nothing to read names the layer that lacks its cache. A decoder stage runs
its 1x1 matcher before the width upsample, at half the width, and this
order gives the same result as upsampling first: nearest repetition along
the width commutes with every per-pixel op (a 1x1 conv, a folded norm,
relu), and a norm's biased batch mean and variance do not change when every
value is repeated the same number of times. Eval logits are bit-identical to
the upsample-first order; training gradients differ from it only by rounding.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cloud_io import check_fields
from .neural_core import (
    PADDING_MODES,
    PadSpec,
    SlcKernel,
    fold_norm,
    glorot_uniform,
    norm_backward,
    norm_forward,
    norm_output,
    relu,
    relu_backward,
    slc_backward,
    slc_forward,
    upsample_width,
    upsample_width_backward,
)

N_ENCODER_STAGES = 5  # width-halving stages after the stem
NORM_MOMENTUM = 0.1  # running-statistics update rate
IN_CHANNELS = 3  # depth, reflectance, mask

#: Encoder channel tables of the sized backbones, smallest to largest.
BACKBONE_PRESETS: dict[str, tuple[int, ...]] = {
    "A": (32, 32, 32, 32, 32, 32),
    "B": (32, 48, 64, 64, 64, 64),
    "C": (32, 48, 64, 96, 128, 256),
    "D": (32, 48, 64, 128, 256, 512),
    "R*": (32, 64, 128, 256, 512, 1024),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to rebuild a network deterministically."""

    stage_channels: tuple[int, ...] = BACKBONE_PRESETS["A"]
    blocks_per_stage: tuple[int, ...] = (1, 1, 2, 2, 2, 2)
    alpha_default: int = 1
    alpha_overrides: dict[str, int] = field(default_factory=dict)
    padding: str = "cyclic"  # width padding mode, one of PADDING_MODES
    n_classes: int = 20

    def __post_init__(self):
        check_fields(self)
        counts = len(self.stage_channels), len(self.blocks_per_stage)
        if counts != (6, 6):
            raise ValueError(f"expected 6 stage channel counts and 6 block counts, got {counts} in stage_channels, blocks_per_stage")
        if any(c <= 0 for c in self.stage_channels) or any(b < 0 for b in self.blocks_per_stage):
            raise ValueError("stage_channels must be positive and blocks_per_stage non-negative")
        if self.alpha_default < 1 or any(a < 1 for a in self.alpha_overrides.values()):
            raise ValueError(f"alpha must be >= 1: alpha_default {self.alpha_default}, alpha_overrides {self.alpha_overrides}")
        if self.padding not in PADDING_MODES:
            raise ValueError(f"unknown padding mode {self.padding!r}")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")

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


def _peek(module, attr: str):
    """A cache of the last training forward; a module without one (after an
    eval forward, or once backward has released it) names itself."""
    value = getattr(module, attr)
    if value is None:
        raise RuntimeError(f"{module.name}: backward needs a training forward first")
    return value


def _take(module, attr: str):
    """``_peek``, releasing the cache, so it is freed once backward is done with it."""
    value = _peek(module, attr)
    setattr(module, attr, None)
    return value


class SlcLayer:
    """The 1x1 head: a semi-local convolution with a bias and no norm after
    it. It caches nothing, since backward takes its input, and keeps no
    array, so the logits a training forward returns are never written over."""

    def __init__(self, layers, name, rng, c_in, c_out, alpha):
        self.name = name
        self.alpha = alpha
        kernel = glorot_uniform(rng, 1, 1, c_in, c_out, alpha)
        self.params = {f"{name}.weights": kernel.weights, f"{name}.bias": kernel.bias}
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.pad_spec = PadSpec(0, 0)
        layers[name] = self

    def forward(self, x, training=False):
        return slc_forward(x, SlcKernel(*self.params.values()), self.pad_spec)

    def backward(self, upstream, x):
        gx, gw, gb = slc_backward(x, SlcKernel(*self.params.values()), self.pad_spec, upstream)
        self.grads = dict(zip(self.params, (gw, gb)))
        return gx


class ConvUnit:
    """conv + norm [+ relu], the repeated building element and a registry
    leaf; alpha and padding come from the config. The norm cancels a conv
    bias that is the same in every row, so the conv has one only at alpha > 1.

    ``params`` holds the conv's weights [and bias] (``<unit>.conv.*``), then
    the norm's gamma and beta (``<unit>.norm.*``); ``buffers`` the norm's
    running mean and variance. An eval forward convolves with the norm folded
    in (``fold_norm``), made on every call so it follows the current weights
    and statistics. A training forward convolves with the kernel itself,
    normalizes by the batch, updates the running statistics and caches x_hat,
    from which ``output`` rebuilds the unit's result; ``relu`` writes into the
    norm's output.

    ``kept`` is the array the last training forward's conv wrote and the norm
    built x_hat in. Forward and backward hand it to the conv engine, which
    writes their result there where it fits, so a training step reuses the
    last step's arrays. An eval forward drops it.
    """

    def __init__(self, layers, rng, config, name, i, j, c_in, c_out, stride_w=1, activated=True):
        self.name = name
        self.alpha = config.alpha_for(f"{name}.conv")
        kernel = glorot_uniform(rng, i, j, c_in, c_out, self.alpha)
        self.params = {f"{name}.conv.weights": kernel.weights}
        if self.alpha > 1:
            self.params[f"{name}.conv.bias"] = kernel.bias
        self.params |= {
            f"{name}.norm.gamma": np.ones(c_out, dtype=np.float32),
            f"{name}.norm.beta": np.zeros(c_out, dtype=np.float32),
        }
        self.buffers = {
            f"{name}.norm.running_mean": np.zeros(c_out, dtype=np.float32),
            f"{name}.norm.running_var": np.ones(c_out, dtype=np.float32),
        }
        self.grads: dict[str, np.ndarray] = {}
        self.pad_spec = PadSpec.same(i, j, config.padding)
        self.stride_w = stride_w
        self.activated = activated
        self.kept = None
        self._cache = None
        layers[name] = self

    def _parts(self):
        """The conv's kernel, with a zero bias where the conv has none (the
        engine always adds one), and the norm's gamma and beta."""
        weights, *bias, gamma, beta = self.params.values()
        return SlcKernel(weights, bias[0] if bias else np.zeros(weights.shape[3:], weights.dtype)), gamma, beta

    def forward(self, x, training=False):
        kernel, gamma, beta = self._parts()
        if not training:
            kernel = fold_norm(kernel, gamma, beta, *self.buffers.values())
        y = slc_forward(x, kernel, self.pad_spec, self.stride_w, out=self.kept)
        self.kept = self._cache = None
        if training:
            self.kept = y
            y, self._cache = norm_forward(y, gamma, beta)
            _, _, mean, var = self._cache
            running_mean, running_var = self.buffers.values()
            m = NORM_MOMENTUM
            running_mean[:] = (1 - m) * running_mean + m * mean
            running_var[:] = (1 - m) * running_var + m * var
        return relu(y) if self.activated else y

    def output(self):
        """The last training forward's result, rebuilt bit for bit."""
        *_, gamma, beta = self.params.values()
        y = norm_output(_peek(self, "_cache")[0], gamma, beta)
        return relu(y) if self.activated else y

    def backward(self, upstream, x, y):
        """``x`` is the unit's forward input and ``y`` its ``output()``, both
        spent by the caller: an activated unit writes its relu gradient into
        ``y``, and the norm its input gradient over that. A plain unit reads
        no ``y`` and its norm writes into ``upstream``, which is so spent.
        The input gradient may be the kept array, which the caller must be
        done with before the next forward."""
        cache = _take(self, "_cache")
        kernel, gamma, _ = self._parts()
        g = relu_backward(y, upstream) if self.activated else upstream
        g, d_gamma, d_beta = norm_backward(g, cache, gamma)
        gx, gw, gb = slc_backward(x, kernel, self.pad_spec, g, self.stride_w, out=self.kept)
        grads = (gw, gb, d_gamma, d_beta) if self.alpha > 1 else (gw, d_gamma, d_beta)
        self.grads = dict(zip(self.params, grads, strict=True))
        return gx


class ResBlock:
    """Two 3x3 conv units with an additive shortcut.

    The shortcut add and the relu run in place on the second unit's output,
    which is fresh: its norm caches x_hat, not its output. Training caches
    the block's output, which the next module reads as its input and the
    relu backward then overwrites with its gradient.
    """

    def __init__(self, layers, rng, config, name, channels):
        self.name = name
        self.u1 = ConvUnit(layers, rng, config, f"{name}.conv1", 3, 3, channels, channels)
        self.u2 = ConvUnit(layers, rng, config, f"{name}.conv2", 3, 3, channels, channels, activated=False)
        self._out = None

    def forward(self, x, training=False):
        y = self.u2.forward(self.u1.forward(x, training), training)
        y += x
        relu(y)
        self._out = y if training else None
        return y

    def output(self):
        return _peek(self, "_out")

    def backward(self, upstream, x, y):
        """``y`` is this block's cached ``output()``; backward releases it
        and writes the relu gradient into it. ``upstream`` is spent too: it
        is the next module's returned gradient, never ``y``."""
        self._out = None
        gs = relu_backward(y, upstream)
        y1 = self.u1.output()
        # the plain unit's norm writes into its upstream, and the shortcut reads gs
        np.copyto(upstream, gs)
        g = self.u1.backward(self.u2.backward(upstream, y1, None), x, y1)
        g += gs
        return g


class DecoderStage:
    """1x1 channel matcher, width upsample, additive skip, 3x3 refine.

    The matcher runs before the upsample, at half the width; the two commute
    (see the module docstring). The skip is added in place on the fresh
    upsample output. ``skip_src`` is the module whose output is the skip.
    """

    def __init__(self, layers, rng, config, name, c_in, c_out, skip_src):
        self.proj = ConvUnit(layers, rng, config, f"{name}.proj", 1, 1, c_in, c_out)
        self.refine = ConvUnit(layers, rng, config, f"{name}.refine", 3, 3, c_out, c_out)
        self.skip_src = skip_src

    def forward(self, x, skip, training=False):
        u = upsample_width(self.proj.forward(x, training), 2)
        u += skip
        del skip  # the caller popped it, so it is freed before the refine
        return self.refine.forward(u, training)

    def output(self):
        return self.refine.output()

    def backward(self, upstream, x, y, skip):
        matched = self.proj.output()
        u = upsample_width(matched, 2)
        u += skip
        gs = self.refine.backward(upstream, u, y)
        del u  # freed before the matcher's backward
        gx = self.proj.backward(upsample_width_backward(gs, 2), x, matched)
        return gx, gs


class Network:
    """A built backbone: the name-keyed layer registry and the module lists
    ``encoder`` and ``decoder``, whose order is the forward/backward wiring
    (see the module docstring)."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        ch = config.stage_channels
        #: every leaf, each conv unit and the head, by name, in parameter order
        self.layers: dict = {}

        # each encoder stage is its entry unit (the stem's is ``stem``, a
        # width-halving stage's ``enc<k>.down``) followed by its blocks; the
        # last module of each stage is the skip of the decoder stage of its width
        names = ["stem"] + [f"enc{i}" for i in range(1, N_ENCODER_STAGES + 1)]
        c_ins = (IN_CHANNELS,) + ch[:-1]
        self.encoder, stage_ends = [], []
        for k, (name, c_in, c_out, n_blocks) in enumerate(zip(names, c_ins, ch, config.blocks_per_stage)):
            entry, stride_w = (f"{name}.down", 2) if k else (name, 1)
            self.encoder.append(ConvUnit(self.layers, rng, config, entry, 3, 3, c_in, c_out, stride_w=stride_w))
            self.encoder += [ResBlock(self.layers, rng, config, f"{name}.block{b}", c_out) for b in range(n_blocks)]
            stage_ends.append(self.encoder[-1])
        self.decoder = [
            DecoderStage(self.layers, rng, config, f"dec{i}", ch[i], ch[i - 1], stage_ends[i - 1])
            for i in range(N_ENCODER_STAGES, 0, -1)
        ]
        self.head = SlcLayer(self.layers, "head", rng, ch[0], config.n_classes, config.alpha_for("head"))
        convs = [name.removesuffix(".weights") for name in self.parameters() if name.endswith(".weights")]
        unused = [key for key in config.alpha_overrides if not any(name.startswith(key) for name in convs)]
        if unused:
            raise ValueError(f"alpha_overrides name no conv layer: {', '.join(map(repr, unused))}")

        # per-channel input normalization, set from data by the trainer
        self.input_mean = np.zeros(IN_CHANNELS, dtype=np.float32)
        self.input_std = np.ones(IN_CHANNELS, dtype=np.float32)
        self._x = None  # the normalized input of the last training forward

    def parameters(self) -> dict[str, np.ndarray]:
        return {k: v for layer in self.layers.values() for k, v in layer.params.items()}

    def buffers(self) -> dict[str, np.ndarray]:
        inputs = {"input_mean": self.input_mean, "input_std": self.input_std}
        return inputs | {k: v for layer in self.layers.values() for k, v in layer.buffers.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {k: v for layer in self.layers.values() for k, v in layer.grads.items()}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"input must be a [B, H, W, C] tensor, got shape {x.shape}")
        b, h, w, c = x.shape
        if c != IN_CHANNELS:
            raise ValueError(f"input has {c} channels, expected {IN_CHANNELS}")
        stride_total = 2**N_ENCODER_STAGES
        if w < 1 or w % stride_total != 0:
            raise ValueError(f"input width {w} must be a positive multiple of {stride_total}")
        # batch statistics of no sample are 0/0, which would poison the running ones
        if training and b == 0:
            raise ValueError("a training forward needs at least one sample, got an empty batch")
        # height is never strided, so every conv's output is h rows high
        for name, layer in self.layers.items():
            if layer.alpha > h:
                raise ValueError(f"{name}: alpha {layer.alpha} exceeds input height {h}")
        x = (x - self.input_mean) / self.input_std
        self._x = x if training else None

        # of the encoder's outputs only the skips outlive their next reader;
        # each decoder stage pops the skip it consumes, so none outlives it
        skips = dict.fromkeys(stage.skip_src for stage in self.decoder)
        for module in self.encoder:
            x = module.forward(x, training)
            if module in skips:
                skips[module] = x
        for stage in self.decoder:
            x = stage.forward(x, skips.pop(stage.skip_src), training)
        return self.head.forward(x, training)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Gradients of the last ``forward(x, training=True)``: parameter
        gradients go to each leaf's ``grads``; returns the gradient wrt ``x``.
        It releases the forward's caches, so a second call raises.

        The modules run in reverse list order over ``encoder + decoder``.
        Each one's input ``x`` is the output of the module before it,
        rebuilt through its ``output()`` just before the call (the normalized
        input for the first), and once read is handed on as that module's
        spent output ``y``. A decoder stage's skip gradient is added to the
        upstream gradient of its ``skip_src`` just before that module's
        backward. The rebuilds read caches no backward has released yet:
        each module runs after every module that reads its output."""
        chain = self.encoder + self.decoder
        y = chain[-1].output()
        g = self.head.backward(grad_logits, y)
        skip_grads = {}
        for k in reversed(range(len(chain))):
            module = chain[k]
            if module in skip_grads:
                g += skip_grads.pop(module)
            x = chain[k - 1].output() if k else self._x
            if isinstance(module, DecoderStage):
                g, skip_grads[module.skip_src] = module.backward(g, x, y, module.skip_src.output())
            else:
                g = module.backward(g, x, y)
            y = x
        self._x = None
        # through the input normalization, so the gradient is wrt ``x``
        return g / self.input_std


def build(config: NetworkConfig, seed: int = 0) -> Network:
    """Build a network with deterministic, seeded initialization."""
    return Network(config, seed)


def count_params(net: Network) -> int:
    """Exact number of trainable scalars (buffers excluded)."""
    return int(sum(p.size for p in net.parameters().values()))


def save_weights(net: Network, path) -> None:
    """Write all parameters and buffers, and ``net.config`` as the JSON
    entry ``config``, to a flat ``.npz`` archive."""
    with open(path, "wb") as f:
        np.savez(f, config=json.dumps(asdict(net.config)), **net.parameters(), **net.buffers())


def load_network(path) -> Network:
    """Build the network a weight archive was saved from and load its tensors.

    The ``config`` entry must give every ``NetworkConfig`` field and no
    other, with valid values. Every other entry must match a tensor of the
    network so built in name, shape and dtype, hold only finite values, and
    keep every ``*.running_var`` at or above 0 and ``input_std`` above 0; the
    error lists all offending names at once, and no tensor is written unless
    every entry fits.
    """
    try:
        with np.load(path) as archive:
            stored = {k: archive[k] for k in archive.files}
    except Exception as exc:
        raise ValueError(f"unreadable weight archive {path}: {exc}") from exc
    if "config" not in stored:
        raise ValueError(f"weight archive {path} has no config entry")
    try:
        values = json.loads(str(stored.pop("config")))
        if not isinstance(values, dict):
            raise ValueError("not a JSON object")
        names = {f.name for f in fields(NetworkConfig)}
        wrong = [f"unknown key {k!r}" for k in sorted(set(values) - names)]
        wrong += [f"missing key {k!r}" for k in sorted(names - set(values))]
        if wrong:
            raise ValueError("; ".join(wrong))
        net = build(NetworkConfig(**values))
    except ValueError as exc:
        raise ValueError(f"weight archive {path} has a bad config: {exc}") from exc
    target = net.parameters() | net.buffers()
    problems = []
    for name, arr in target.items():
        if name not in stored:
            problems.append(f"missing {name}")
        elif stored[name].shape != arr.shape:
            problems.append(f"{name}: archive {stored[name].shape} vs network {arr.shape}")
        elif stored[name].dtype != arr.dtype:
            problems.append(f"{name}: archive dtype {stored[name].dtype} vs network {arr.dtype}")
        elif not np.isfinite(stored[name]).all():
            problems.append(f"{name}: non-finite values")
        elif name.endswith(".running_var") and (stored[name] < 0).any():
            problems.append(f"{name}: variance below 0")
        elif name == "input_std" and not (stored[name] > 0).all():
            problems.append(f"{name}: not above 0")
    for name in stored:
        if name not in target:
            problems.append(f"unexpected {name}")
    if problems:
        raise ValueError(f"weight archive {path} does not fit its config: " + "; ".join(sorted(problems)))
    for name, arr in target.items():
        arr[...] = stored[name]
    return net
