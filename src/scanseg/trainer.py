"""Deterministic training and evaluation loops over projected scans.

The desk-scale workflow: generate synthetic scans, project them to range
images, train a backbone on the (depth, reflectance, mask) channels, and
score per-pixel as well as per-point mIoU, the latter by back-projecting
pixel predictions onto the original points. Everything is seeded; two runs
with the same config produce bit-identical loss traces and metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cloud_io import RangeImage, check_fields
from .projection import IndexMap, backproject_labels
from .seg_net import IN_CHANNELS, Network, NetworkConfig, build, config_from_preset, count_params
from .seg_objectives import LOSSES, ConfusionMatrix, accumulate_confusion, miou, objective, softmax
from .synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, generate_scan, project_scan

class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class Adam:
    """Adaptive-moment optimizer; parameter order is fixed by sorted names."""

    def __init__(self, params: dict[str, np.ndarray], lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.names = sorted(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(params[k]) for k in self.names}
        self.v = {k: np.zeros_like(params[k]) for k in self.names}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name in self.names:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            self.params[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    net: NetworkConfig = field(default_factory=NetworkConfig)
    loss: str = "ce+dice"
    lr: float = 2e-3
    steps: int = 200
    batch_size: int = 2
    seed: int = 0

    # not fields: train always steps Adam (arXiv:1412.6980) at its defaults; scanbench reads these
    optimizer = "adam"
    beta1, beta2, adam_eps = Adam.__init__.__defaults__

    def __post_init__(self):
        check_fields(self)
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, choose from {LOSSES}")
        # lr = 0 is allowed on purpose: a frozen run is the no-op baseline
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def network_config(self) -> NetworkConfig:
        """``net``; the accessor stays for ``scanbench``, which calls it."""
        return self.net


@dataclass
class Sample:
    """One projected scan; the index map and point labels enable per-point
    scoring and are optional for purely per-pixel datasets."""

    image: RangeImage
    index_map: IndexMap | None = None
    point_labels: np.ndarray | None = None


@dataclass
class RunReport:
    per_class_iou: np.ndarray
    miou: float
    param_count: int
    n_samples: int
    loss_trace: list[float] = field(default_factory=list)  # set by train
    sec_per_forward: float = float("nan")  # set by train
    config: dict = field(default_factory=dict)  # set by train
    point_per_class_iou: np.ndarray | None = None
    point_miou: float | None = None


def sample_tensors(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Input tensor [H, W, 3] float32 (depth, reflectance, mask), built in
    one pass, and the int32 target ids, which are ``image.label`` itself:
    every caller stacks them or only reads them."""
    img = sample.image
    return np.stack([img.depth, img.reflectance, img.mask], axis=-1, dtype=np.float32), img.label


def _stack_dataset(dataset: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    pairs = [sample_tensors(s) for s in dataset]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def fit_input_stats(net: Network, xs: np.ndarray) -> None:
    """Set the network's input normalization from dataset channel statistics."""
    mean = xs.astype(np.float64).mean(axis=(0, 1, 2))
    std = xs.astype(np.float64).std(axis=(0, 1, 2))
    net.input_mean[:] = mean.astype(np.float32)
    net.input_std[:] = np.maximum(std, 1e-3).astype(np.float32)


def _config_echo(config: TrainConfig) -> dict:
    """Every config field by name, the network's under ``net.``; tuples are
    comma-joined."""
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "net"}
    for f in fields(config.net):
        value = getattr(config.net, f.name)
        echo[f"net.{f.name}"] = ",".join(str(v) for v in value) if isinstance(value, tuple) else value
    return echo


def train(config: TrainConfig, dataset: list[Sample]) -> tuple[Network, RunReport]:
    """Run the seeded loop and report metrics on the training data."""
    if not dataset:
        raise ValueError("dataset is empty")
    net = build(config.net, seed=config.seed)
    xs, ys = _stack_dataset(dataset)
    fit_input_stats(net, xs)

    opt = Adam(net.parameters(), config.lr)

    rng = np.random.default_rng(config.seed + 1)
    queue: list[int] = []
    trace: list[float] = []
    for step in range(config.steps):
        while len(queue) < config.batch_size:
            queue.extend(rng.permutation(len(dataset)).tolist())
        idx = [queue.pop(0) for _ in range(config.batch_size)]
        logits = net.forward(xs[idx], training=True)
        probs = softmax(logits)
        loss = objective(config.loss, probs, ys[idx])
        if not math.isfinite(loss.value):
            raise TrainingDiverged(step)
        net.backward(loss.grad)
        opt.step(net.grads())
        trace.append(float(loss.value))

    (sec_forward,) = _fastest_forwards([net], xs[: min(len(dataset), config.batch_size)], repeats=3)
    report = evaluate(net, dataset)
    return net, replace(report, loss_trace=trace, sec_per_forward=sec_forward, config=_config_echo(config))


def predict(net: Network, image: RangeImage) -> np.ndarray:
    """The int32 class id of every pixel of ``image``, by one eval forward."""
    x, _ = sample_tensors(Sample(image=image))
    return np.argmax(net.forward(x[None], training=False)[0], axis=-1).astype(np.int32)


def evaluate(net: Network, dataset: list[Sample]) -> RunReport:
    """Accumulate per-pixel confusion over the dataset, and per-point confusion
    over the samples that carry an index map and point labels (their pixel
    predictions back-projected), and report IoU metrics."""
    if not dataset:
        raise ValueError("dataset is empty")
    n_classes = net.config.n_classes
    cm_pixel = ConfusionMatrix.empty(n_classes)
    cm_point = ConfusionMatrix.empty(n_classes)
    scored_points = False

    for sample in dataset:
        preds = predict(net, sample.image)
        accumulate_confusion(preds, sample.image.label, cm_pixel)
        if sample.index_map is None or sample.point_labels is None:
            continue
        point_preds = backproject_labels(sample.index_map, preds, len(sample.point_labels))
        accumulate_confusion(point_preds, sample.point_labels, cm_point)
        scored_points = True

    iou, mean = miou(cm_pixel)
    report = RunReport(per_class_iou=iou, miou=mean, param_count=count_params(net), n_samples=len(dataset))
    if scored_points:
        report.point_per_class_iou, report.point_miou = miou(cm_point)
    return report


def _metric(v: float) -> str:
    """A reported float with six decimals, or ``undefined`` where it is NaN."""
    return "undefined" if np.isnan(v) else f"{v:.6f}"


def write_run_report(report: RunReport, path) -> None:
    """Emit the report as stable ``key = value`` lines. Every float goes
    through ``_metric``, so a NaN (an IoU with an empty union, a mean with no
    defined class, the forward time of a report ``train`` did not fill) reads
    ``undefined``."""
    lines = []
    for key, val in sorted(report.config.items()):
        lines.append(f"config.{key} = {val}")
    lines.append(f"n_samples = {report.n_samples}")
    lines.append(f"param_count = {report.param_count}")
    lines.append(f"sec_per_forward = {_metric(report.sec_per_forward)}")
    if report.loss_trace:
        lines.append(f"final_loss = {_metric(report.loss_trace[-1])}")
        lines.append("loss_trace = " + ",".join(_metric(v) for v in report.loss_trace))
    for c, v in enumerate(report.per_class_iou):
        lines.append(f"iou_class_{c} = {_metric(v)}")
    lines.append(f"miou = {_metric(report.miou)}")
    if report.point_miou is not None:
        for c, v in enumerate(report.point_per_class_iou):
            lines.append(f"point_iou_class_{c} = {_metric(v)}")
        lines.append(f"point_miou = {_metric(report.point_miou)}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- synthetic datasets ------------------------------------------------------


def _random_scene(rng: np.random.Generator, seed: int, n_object_classes: int, ego_velocity: float) -> SceneConfig:
    prims: list = []
    for _ in range(rng.integers(2, 5)):
        ang = rng.uniform(-np.pi, np.pi)
        dist = rng.uniform(7.0, 25.0)
        size = rng.uniform(2.0, 6.0, size=3)
        center = (dist * np.cos(ang), dist * np.sin(ang), size[2] / 2.0)
        prims.append(Box(center=tuple(center), size=tuple(size), class_id=2, reflectance=float(rng.uniform(0.5, 0.6))))
    for _ in range(rng.integers(1, 4)):
        ang = rng.uniform(-np.pi, np.pi)
        dist = rng.uniform(5.0, 18.0)
        radius = rng.uniform(0.9, 2.0)
        prims.append(
            Sphere(center=(dist * np.cos(ang), dist * np.sin(ang), radius), radius=radius, class_id=3, reflectance=float(rng.uniform(0.75, 0.85)))
        )
    if n_object_classes >= 4:
        for _ in range(rng.integers(1, 4)):
            ang = rng.uniform(-np.pi, np.pi)
            dist = rng.uniform(4.0, 15.0)
            height = rng.uniform(2.0, 4.0)
            prims.append(
                Cylinder(
                    center=(dist * np.cos(ang), dist * np.sin(ang), height / 2.0),
                    radius=float(rng.uniform(0.2, 0.5)),
                    height=height,
                    class_id=4,
                    reflectance=float(rng.uniform(0.62, 0.7)),
                )
            )
    enclosure = n_object_classes >= 5
    return SceneConfig(
        ground_z=0.0,
        ground_class=1,
        ground_reflectance=float(rng.uniform(0.2, 0.28)),
        primitives=tuple(prims),
        enclosure_radius=float(rng.uniform(30.0, 40.0)) if enclosure else None,
        enclosure_class=5,
        enclosure_reflectance=0.4,
        seed=seed,
        ego_velocity=ego_velocity,
        n_classes=n_object_classes + 1,
    )


def make_synthetic_dataset(
    n_scans: int = 40,
    h: int = 64,
    w: int = 512,
    n_object_classes: int = 3,
    seed: int = 0,
    projection: str = "unfold",
    ego_velocity: float = 0.0,
) -> tuple[list[Sample], list[Sample]]:
    """Generate projected scans split into train/val by scene seed parity."""
    # every scene places class 2 boxes and class 3 spheres
    if n_object_classes < 3:
        raise ValueError(f"n_object_classes must be >= 3, got {n_object_classes}")
    sensor = SensorModel(n_beams=h, azimuth_step=360.0 / w)
    train_set: list[Sample] = []
    val_set: list[Sample] = []
    for i in range(n_scans):
        scene_seed = seed + i
        rng = np.random.default_rng(scene_seed)
        scene = _random_scene(rng, scene_seed, n_object_classes, ego_velocity)
        scan = generate_scan(sensor, scene)
        img, index_map = project_scan(sensor, scan, projection)
        sample = Sample(image=img, index_map=index_map, point_labels=scan.labels.semantic.astype(np.int32))
        (train_set if scene_seed % 2 == 0 else val_set).append(sample)
    return train_set, val_set


def bench_forward(
    preset_names: list[str],
    h: int = 64,
    w: int = 2048,
    repeats: int = 3,
    seed: int = 0,
) -> dict[str, tuple[float, int]]:
    """Fastest of ``repeats`` forward-pass seconds, and the parameter count,
    per config (default class count), timed on a random input by
    ``_fastest_forwards``."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, h, w, IN_CHANNELS)).astype(np.float32)
    nets = {name: build(config_from_preset(name), seed=seed) for name in preset_names}
    seconds = _fastest_forwards(list(nets.values()), x, repeats)
    return {name: (sec, count_params(net)) for (name, net), sec in zip(nets.items(), seconds)}


def _fastest_forwards(nets: list[Network], x: np.ndarray, repeats: int) -> list[float]:
    """Fastest of ``repeats`` eval forwards of ``x`` per net, after one warm-up
    forward each.

    Each repeat runs every net's forward once, so a load that comes or goes
    during the run reaches all nets alike and their ratios hold.
    """
    for net in nets:
        net.forward(x, training=False)  # warmup
    times = [[] for _ in nets]
    for _ in range(repeats):
        for net, net_times in zip(nets, times):
            t0 = time.perf_counter()
            net.forward(x, training=False)
            net_times.append(time.perf_counter() - t0)
    return [min(net_times) for net_times in times]
