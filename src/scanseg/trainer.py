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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cloud_io import RangeImage
from .projection import IndexMap, backproject_labels, project_ego_corrected, unfold_scan
from .seg_net import Network, NetworkConfig, build, config_from_preset, count_params
from .seg_objectives import (
    ConfusionMatrix,
    accumulate_confusion,
    cross_entropy,
    dice_loss_on_logits,
    miou,
    softmax,
)
from .synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, generate_scan

LOSSES = ("ce", "dice", "ce+dice")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    net: NetworkConfig = field(default_factory=NetworkConfig)
    loss: str = "ce+dice"
    optimizer: str = "adam"  # "adam" | "sgd"
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 200
    batch_size: int = 2
    seed: int = 0
    projection: str = "unfold"  # data side: "unfold" | "ego"

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, choose from {LOSSES}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
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
    loss_trace: list[float]
    per_class_iou: np.ndarray
    miou: float
    param_count: int
    sec_per_forward: float
    config: dict
    n_samples: int
    point_per_class_iou: np.ndarray | None = None
    point_miou: float | None = None


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


class Sgd:
    def __init__(self, params: dict[str, np.ndarray], lr):
        self.params = params
        self.names = sorted(params)
        self.lr = lr

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name in self.names:
            self.params[name] -= self.lr * grads[name]


def sample_tensors(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Input tensor [H, W, 3] (depth, reflectance, mask) and target ids."""
    img = sample.image
    x = np.stack([img.depth, img.reflectance, img.mask.astype(np.float32)], axis=-1)
    return x.astype(np.float32), img.label.astype(np.int32)


def _stack_dataset(dataset: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    pairs = [sample_tensors(s) for s in dataset]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def fit_input_stats(net: Network, xs: np.ndarray) -> None:
    """Set the network's input normalization from dataset channel statistics."""
    mean = xs.astype(np.float64).mean(axis=(0, 1, 2))
    std = xs.astype(np.float64).std(axis=(0, 1, 2))
    net.input_mean[:] = mean.astype(np.float32)
    net.input_std[:] = np.maximum(std, 1e-3).astype(np.float32)


def _loss_and_grad(kind: str, probs: np.ndarray, targets: np.ndarray):
    if kind == "ce":
        res = cross_entropy(probs, targets)
        return res.value, res.grad
    if kind == "dice":
        res = dice_loss_on_logits(probs, targets)
        return res.value, res.grad
    ce = cross_entropy(probs, targets)
    dice = dice_loss_on_logits(probs, targets)
    return ce.value + dice.value, ce.grad + dice.grad


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

    params = net.parameters()
    if config.optimizer == "adam":
        opt = Adam(params, config.lr, config.beta1, config.beta2, config.adam_eps)
    else:
        opt = Sgd(params, config.lr)

    rng = np.random.default_rng(config.seed + 1)
    queue: list[int] = []
    trace: list[float] = []
    for step in range(config.steps):
        while len(queue) < config.batch_size:
            queue.extend(rng.permutation(len(dataset)).tolist())
        idx = [queue.pop(0) for _ in range(config.batch_size)]
        logits = net.forward(xs[idx], training=True)
        probs = softmax(logits)
        loss_val, grad = _loss_and_grad(config.loss, probs, ys[idx])
        if not math.isfinite(loss_val):
            raise TrainingDiverged(step)
        net.backward(grad.astype(np.float32))
        opt.step(net.grads())
        trace.append(float(loss_val))

    sec_forward = _time_forward(net, xs[: min(len(dataset), config.batch_size)])
    eval_report = evaluate(net, dataset, backproject=True)
    return net, RunReport(
        loss_trace=trace,
        per_class_iou=eval_report.per_class_iou,
        miou=eval_report.miou,
        param_count=count_params(net),
        sec_per_forward=sec_forward,
        config=_config_echo(config),
        n_samples=len(dataset),
        point_per_class_iou=eval_report.point_per_class_iou,
        point_miou=eval_report.point_miou,
    )


def _time_forward(net: Network, x: np.ndarray, repeats: int = 3) -> float:
    net.forward(x, training=False)  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        net.forward(x, training=False)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def evaluate(
    net: Network,
    dataset: list[Sample],
    backproject: bool = False,
    batch_size: int = 4,
) -> RunReport:
    """Accumulate per-pixel (and optionally back-projected per-point)
    confusion over the dataset and report IoU metrics."""
    n_classes = net.config.n_classes
    cm_pixel = ConfusionMatrix.empty(n_classes)
    cm_point = ConfusionMatrix.empty(n_classes)
    scored_points = False

    for start in range(0, len(dataset), batch_size):
        chunk = dataset[start : start + batch_size]
        xs, ys = _stack_dataset(chunk)
        logits = net.forward(xs, training=False)
        preds = np.argmax(logits, axis=-1).astype(np.int32)
        accumulate_confusion(preds, ys, cm_pixel)
        if backproject:
            for k, sample in enumerate(chunk):
                if sample.index_map is None or sample.point_labels is None:
                    continue
                point_preds = backproject_labels(sample.index_map, preds[k], len(sample.point_labels))
                accumulate_confusion(point_preds, sample.point_labels, cm_point)
                scored_points = True

    iou, mean = miou(cm_pixel)
    report = RunReport(
        loss_trace=[],
        per_class_iou=iou,
        miou=mean,
        param_count=count_params(net),
        sec_per_forward=float("nan"),
        config={},
        n_samples=len(dataset),
    )
    if scored_points:
        report.point_per_class_iou, report.point_miou = miou(cm_point)
    return report


def _metric(v: float) -> str:
    return "undefined" if np.isnan(v) else f"{v:.6f}"


def write_run_report(report: RunReport, path) -> None:
    """Emit the report as stable ``key = value`` lines; an IoU that is NaN
    (empty union, or no defined class for a mean) reads ``undefined``."""
    lines = []
    for key, val in sorted(report.config.items()):
        lines.append(f"config.{key} = {val}")
    lines.append(f"n_samples = {report.n_samples}")
    lines.append(f"param_count = {report.param_count}")
    lines.append(f"sec_per_forward = {report.sec_per_forward:.6f}")
    if report.loss_trace:
        lines.append(f"final_loss = {report.loss_trace[-1]:.6f}")
        lines.append("loss_trace = " + ",".join(f"{v:.6f}" for v in report.loss_trace))
    for c, v in enumerate(report.per_class_iou):
        lines.append(f"iou_class_{c} = {_metric(v)}")
    lines.append(f"miou = {_metric(report.miou)}")
    if report.point_miou is not None:
        for c, v in enumerate(report.point_per_class_iou):
            lines.append(f"point_iou_class_{c} = {_metric(v)}")
        lines.append(f"point_miou = {_metric(report.point_miou)}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- synthetic datasets ------------------------------------------------------


def _random_scene(rng: np.random.Generator, seed: int, n_object_classes: int, noise_deg: float, ego_velocity: float) -> SceneConfig:
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
        angular_noise=noise_deg,
        ego_velocity=ego_velocity,
        n_classes=n_object_classes + 1,
    )


def desk_sensor(h: int = 64, w: int = 512) -> SensorModel:
    """A narrow sensor for fast desk-scale runs: h beams, w firings."""
    return SensorModel(n_beams=h, azimuth_step=360.0 / w)


def make_synthetic_dataset(
    n_scans: int = 40,
    h: int = 64,
    w: int = 512,
    n_object_classes: int = 3,
    seed: int = 0,
    projection: str = "unfold",
    ego_velocity: float = 0.0,
    angular_noise: float = 0.0,
) -> tuple[list[Sample], list[Sample]]:
    """Generate projected scans split into train/val by scene seed parity."""
    if projection not in ("unfold", "ego"):
        raise ValueError(f"unknown projection {projection!r}")
    sensor = desk_sensor(h, w)
    threshold = 1.7 * math.radians(sensor.azimuth_step)
    train_set: list[Sample] = []
    val_set: list[Sample] = []
    for i in range(n_scans):
        scene_seed = seed + i
        rng = np.random.default_rng(scene_seed)
        scene = _random_scene(rng, scene_seed, n_object_classes, angular_noise, ego_velocity)
        scan = generate_scan(sensor, scene)
        if projection == "unfold":
            # robust jump detection: open scenes have wide dropped-return gaps
            # inside upper scan lines, which would fake line breaks otherwise
            img, index_map = unfold_scan(scan.cloud, scan.labels, h, w, threshold, mode="robust")
        else:
            img, index_map = project_ego_corrected(
                scan.cloud_ego_corrected, scan.labels, h, w, sensor.fov_up, sensor.fov_down
            )
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
    """Median forward-pass seconds and parameter count per config (default
    class count), timed on a random input."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, h, w, 3)).astype(np.float32)
    out = {}
    for name in preset_names:
        net = build(config_from_preset(name), seed=seed)
        out[name] = (_time_forward(net, x, repeats), count_params(net))
    return out
