"""The three workloads and their correctness checks.

Every workload builds its inputs in ``setup`` from the workload seed alone;
the program sees only the generated inputs. ``run_op`` is one closed-loop
operation, ``check`` validates its outputs, and ``finish`` runs the checks
that need the whole run. A failed check raises ``CheckFailed``; the runner
counts it against the operation instead of stopping.

The checks compare against values the benchmark computes itself,
independently of the code under test, and use tolerances that a change of
summation order or other rounding does not break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scanseg import cloud_io, projection, seg_net, seg_objectives, synth_lidar, trainer

from .spans import TRAIN_STEP_SPAN, accounting

# scene mix of one input cycle: (enclosed, moving, angular noise). Three dense
# enclosed scans to one sparse open scan keeps the median scan inside the
# dense mode, so the run's p50 does not jump between the two modes.
SCENE_CYCLE = (
    (True, False, False),
    (True, True, False),
    (True, False, True),
    (False, False, True),
    (True, True, True),
    (True, False, False),
    (True, True, False),
    (False, True, False),
)
OPEN_MAX_RANGE = 7.0  # meters; an open scene returns ground and objects only up to here
EGO_SPEED = 10.0  # m/s, about
ANGULAR_NOISE = 0.05  # degrees
DEPTH_RTOL = 1e-5  # nearest-wins slack for depths that tie up to rounding
LOGIT_RTOL = 1e-3  # float32 vs float64 forward, relative to the largest logit
PREP_SCENES = 8 * len(SCENE_CYCLE)  # distinct scenes a prep run cycles through
TRAIN_PRESET = "a"  # the end-to-end training test's network: preset A, 3 object classes + background
TRAIN_OBJECT_CLASSES = 3


class CheckFailed(Exception):
    """An operation produced a wrong output."""


def scene_for(seed: int, i: int) -> synth_lidar.SceneConfig:
    """Scene ``i`` of a run: its kind from the cycle, its content from
    (seed, i)."""
    enclosed, moving, noisy = SCENE_CYCLE[i % len(SCENE_CYCLE)]
    rng = np.random.default_rng((seed, i))
    prims: list = []
    # fixed primitive counts: the simulator's cost grows with them, and a
    # seed must change the scene's content, not the amount of work
    for _ in range(3):
        ang, dist = rng.uniform(-np.pi, np.pi), rng.uniform(3.0, 12.0)
        size = rng.uniform(1.5, 4.0, size=3)
        center = (dist * np.cos(ang), dist * np.sin(ang), size[2] / 2.0)
        prims.append(synth_lidar.Box(center=tuple(center), size=tuple(size), class_id=2, reflectance=0.55))
    for _ in range(2):
        ang, dist = rng.uniform(-np.pi, np.pi), rng.uniform(3.0, 12.0)
        radius = rng.uniform(0.6, 1.5)
        center = (dist * np.cos(ang), dist * np.sin(ang), radius)
        prims.append(synth_lidar.Sphere(center=center, radius=radius, class_id=3, reflectance=0.8))
    for _ in range(2):
        ang, dist = rng.uniform(-np.pi, np.pi), rng.uniform(2.5, 10.0)
        height = rng.uniform(2.0, 4.0)
        center = (dist * np.cos(ang), dist * np.sin(ang), height / 2.0)
        prims.append(
            synth_lidar.Cylinder(center=center, radius=float(rng.uniform(0.2, 0.5)), height=height, class_id=4, reflectance=0.65)
        )
    return synth_lidar.SceneConfig(
        ground_z=0.0,
        primitives=tuple(prims),
        enclosure_radius=float(rng.uniform(30.0, 40.0)) if enclosed else None,
        enclosure_class=5,
        max_range=None if enclosed else OPEN_MAX_RANGE,
        seed=int(rng.integers(2**31)),
        angular_noise=ANGULAR_NOISE if noisy else 0.0,
        ego_velocity=float(rng.uniform(0.9, 1.1) * EGO_SPEED) if moving else 0.0,
        n_classes=6,
    )


def input_tensor(image: cloud_io.RangeImage) -> np.ndarray:
    return trainer.sample_tensors(trainer.Sample(image=image))[0]


def check_accounting(what: str, index_map: projection.IndexMap, n: int) -> tuple[int, int, int]:
    counts = accounting(index_map)
    if sum(counts) != n:
        raise CheckFailed(f"{what}: projected + occluded + out of range = {sum(counts)}, not {n}")
    return counts


def check_nearest_wins(what: str, cloud: cloud_io.PointCloud, index_map: projection.IndexMap) -> None:
    occluded = index_map.occluded
    if occluded.size == 0:
        return
    rows, cols = index_map.point_to_pixel[occluded].T
    winners = index_map.pixel_to_point[rows, cols]
    if (winners < 0).any():
        raise CheckFailed(f"{what}: an occluded point's pixel has no winner")
    depth = np.linalg.norm(cloud.points.astype(np.float64), axis=1)
    farther = depth[winners] > depth[occluded] * (1.0 + DEPTH_RTOL)
    if farther.any():
        k = int(np.flatnonzero(farther)[0])
        raise CheckFailed(f"{what}: point {int(winners[k])} won a pixel over the nearer point {int(occluded[k])}")


def check_same_bits(what: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or got.dtype != want.dtype or got.tobytes() != want.tobytes():
        raise CheckFailed(f"{what}: round trip is not bit-exact")


@dataclass
class OpResult:
    scans: int
    points: int
    payload: object = None


class Workload:
    name = ""
    op_label = ""  # latency metric name in the table under the workload's own names
    # that table's throughput: its name, the OpResult field it counts, its unit
    throughput = ("", "", "")
    op_span: str | None = None  # a span the runner opens around each traced op

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, i: int, result: OpResult) -> None:
        raise NotImplementedError

    def finish(self) -> list[tuple[int, str]]:
        """Run-level checks: (index of the op blamed, message) per failure."""
        return []

    def inputs(self) -> dict:
        """Sizes of the generated inputs, for the environment record."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """Seeded training steps in the shape of the end-to-end training test.

    ``run_op`` is one step of ``trainer.train`` with the ``ce+dice`` loss:
    the same batch order, forward, loss, backward and Adam update.
    """

    name = "train"
    op_label = "train_step_s"
    throughput = ("train_samples_per_s", "scans", "samples/s")
    op_span = TRAIN_STEP_SPAN

    def __init__(self, seed: int, n_scans: int = 16, h: int = 64, w: int = 256):
        super().__init__(seed)
        self.n_scans, self.h, self.w = n_scans, h, w
        self.config = trainer.TrainConfig(
            net=seg_net.config_from_preset(TRAIN_PRESET, n_classes=TRAIN_OBJECT_CLASSES + 1),
            loss="ce+dice",
            lr=2e-3,
            batch_size=2,
            seed=seed,
        )
        self.losses: list[float] = []

    def setup(self) -> None:
        self.dataset, _ = trainer.make_synthetic_dataset(
            n_scans=self.n_scans, h=self.h, w=self.w, n_object_classes=TRAIN_OBJECT_CLASSES, seed=self.seed
        )
        pairs = [trainer.sample_tensors(s) for s in self.dataset]
        self.xs = np.stack([p[0] for p in pairs])
        self.ys = np.stack([p[1] for p in pairs])
        self.sample_points = [len(s.point_labels) for s in self.dataset]
        cfg = self.config
        self.net = seg_net.build(cfg.network_config(), seed=cfg.seed)
        trainer.fit_input_stats(self.net, self.xs)
        self.opt = trainer.Adam(self.net.parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        self.rng = np.random.default_rng(cfg.seed + 1)
        self.queue: list[int] = []

    def run_op(self, i: int) -> OpResult:
        batch = self.config.batch_size
        while len(self.queue) < batch:
            self.queue.extend(self.rng.permutation(len(self.dataset)).tolist())
        idx = [self.queue.pop(0) for _ in range(batch)]
        logits = self.net.forward(self.xs[idx], training=True)
        probs = seg_objectives.softmax(logits)
        ce = seg_objectives.cross_entropy(probs, self.ys[idx])
        dice = seg_objectives.dice_loss_on_logits(probs, self.ys[idx])
        loss = ce.value + dice.value
        self.net.backward((ce.grad + dice.grad).astype(np.float32))
        self.opt.step(self.net.grads())
        return OpResult(scans=batch, points=sum(self.sample_points[k] for k in idx), payload=loss)

    def check(self, i: int, result: OpResult) -> None:
        loss = result.payload
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise CheckFailed(f"non-finite loss {loss} at step {i}")

    def finish(self) -> list[tuple[int, str]]:
        if len(self.losses) < 2:
            return []
        k = max(1, len(self.losses) // 4)
        first, last = np.mean(self.losses[:k]), np.mean(self.losses[-k:])
        if not last < first:
            return [(len(self.losses) - 1, f"loss did not fall: first {k} steps {first:.4f}, last {k} {last:.4f}")]
        return []

    def inputs(self) -> dict:
        return {
            "preset": TRAIN_PRESET.upper(),
            "h": self.h,
            "w": self.w,
            "batch": self.config.batch_size,
            "classes": self.config.net.n_classes,
            "dataset_scans": self.n_scans,
            "train_scans": len(self.dataset),
            "loss": self.config.loss,
            "optimizer": f"{self.config.optimizer} lr={self.config.lr}",
        }


class InferWorkload(Workload):
    """One paper-resolution scan per op, from ``.bin`` bytes to per-point
    labels scored against the true point labels."""

    name = "infer"
    op_label = "infer_scan_s"
    throughput = ("infer_points_per_s", "points", "points/s")

    def __init__(self, seed: int, h: int = 64, w: int = 2048, preset: str = "d", n_classes: int = 20, pool_scans: int = len(SCENE_CYCLE)):
        super().__init__(seed)
        self.h, self.w, self.preset, self.n_classes, self.pool_scans = h, w, preset, n_classes, pool_scans
        self.first: tuple[np.ndarray, np.ndarray] | None = None

    def setup(self) -> None:
        sensor = synth_lidar.SensorModel(n_beams=self.h, azimuth_step=360.0 / self.w)
        self.pool = []
        for i in range(self.pool_scans):
            scan = synth_lidar.generate_scan(sensor, scene_for(self.seed, i))
            self.pool.append((cloud_io.write_point_cloud(scan.cloud), scan.labels.semantic.astype(np.int32)))
        self.net = seg_net.build(seg_net.config_from_preset(self.preset, n_classes=self.n_classes), seed=self.seed)
        images = [projection.unfold_scan(cloud_io.read_point_cloud(raw), None, self.h, self.w, mode="robust")[0] for raw, _ in self.pool]
        trainer.fit_input_stats(self.net, np.stack([input_tensor(img) for img in images]))
        self.confusion = seg_objectives.ConfusionMatrix.empty(self.n_classes)

    def run_op(self, i: int) -> OpResult:
        raw, truth = self.pool[i % len(self.pool)]
        cloud = cloud_io.read_point_cloud(raw)
        image, index_map = projection.unfold_scan(cloud, None, self.h, self.w, mode="robust")
        x = input_tensor(image)[None]
        logits = self.net.forward(x, training=False)
        pred_image = np.argmax(logits[0], axis=-1).astype(np.int32)
        point_preds = projection.backproject_labels(index_map, pred_image, len(cloud))
        seg_objectives.accumulate_confusion(point_preds, truth, self.confusion)
        return OpResult(scans=1, points=len(cloud), payload=(index_map, point_preds, x, logits))

    def check(self, i: int, result: OpResult) -> None:
        index_map, point_preds, x, logits = result.payload
        check_accounting("unfold_scan", index_map, result.points)
        if point_preds.shape != (result.points,):
            raise CheckFailed(f"{point_preds.shape[0]} labels for {result.points} points")
        if point_preds.size and (point_preds.min() < 0 or point_preds.max() >= self.n_classes):
            raise CheckFailed(f"per-point label outside [0, {self.n_classes})")
        if self.first is None:
            self.first = (x, logits)

    def finish(self) -> list[tuple[int, str]]:
        """The first scan's float32 logits against a float64 forward of the
        same network (every op follows the input dtype)."""
        if self.first is None:
            return []
        x, logits = self.first
        reference = self.net.forward(x.astype(np.float64), training=False)
        scale = max(1.0, float(np.abs(reference).max()))
        err = float(np.abs(logits.astype(np.float64) - reference).max()) if logits.shape == reference.shape else math.inf
        if not err <= LOGIT_RTOL * scale:
            return [(0, f"float32 logits differ from float64 by {err:.3g} (bound {LOGIT_RTOL * scale:.3g})")]
        return []

    def inputs(self) -> dict:
        return {
            "preset": self.preset.upper(),
            "h": self.h,
            "w": self.w,
            "batch": 1,
            "classes": self.n_classes,
            "pool_scans": len(self.pool),
            "pool_points": [len(raw) // 16 for raw, _ in self.pool],
        }


class PrepWorkload(Workload):
    """One scan per op through the data side: simulate, write and read the
    ``.bin``/``.label`` bytes, project both ways, write and read both range
    images, and count the occlusions."""

    name = "prep"
    op_label = "prep_scan_s"
    throughput = ("prep_points_per_s", "points", "points/s")

    def __init__(self, seed: int, h: int = 64, w: int = 2048):
        super().__init__(seed)
        self.h, self.w = h, w

    def setup(self) -> None:
        self.sensor = synth_lidar.SensorModel(n_beams=self.h, azimuth_step=360.0 / self.w)
        self.scenes = [scene_for(self.seed, i) for i in range(PREP_SCENES)]

    def run_op(self, i: int) -> OpResult:
        scene = self.scenes[i % len(self.scenes)]
        scan = synth_lidar.generate_scan(self.sensor, scene)
        cloud = cloud_io.read_point_cloud(cloud_io.write_point_cloud(scan.cloud))
        labels = cloud_io.read_labels(cloud_io.write_labels(scan.labels))
        unfolded = projection.unfold_scan(cloud, labels, self.h, self.w, mode="robust")
        corrected = projection.project_ego_corrected(
            scan.cloud_ego_corrected, labels, self.h, self.w, self.sensor.fov_up, self.sensor.fov_down
        )
        images = [cloud_io.read_range_image_bytes(cloud_io.write_range_image_bytes(img)) for img, _ in (unfolded, corrected)]
        stats = [projection.occlusion_stats(index_map) for _, index_map in (unfolded, corrected)]
        return OpResult(scans=1, points=len(scan), payload=(scan, cloud, labels, unfolded, corrected, images, stats))

    def check(self, i: int, result: OpResult) -> None:
        scan, cloud, labels, unfolded, corrected, images, stats = result.payload
        check_same_bits(".bin points", cloud.points, scan.cloud.points)
        check_same_bits(".bin reflectance", cloud.reflectance, scan.cloud.reflectance)
        check_same_bits(".label semantic", labels.semantic, scan.labels.semantic)
        check_same_bits(".label instance", labels.instance, scan.labels.instance)
        projections = (("unfold_scan", cloud, unfolded), ("project_ego_corrected", scan.cloud_ego_corrected, corrected))
        for (what, source, (image, index_map)), back, stat in zip(projections, images, stats):
            counts = check_accounting(what, index_map, len(scan))
            if (stat.n_points, stat.n_projected, stat.n_occluded, stat.n_out_of_range) != (len(scan), *counts):
                raise CheckFailed(f"occlusion_stats of {what} disagrees with the index map: {stat}")
            check_nearest_wins(what, source, index_map)
            for plane in ("depth", "reflectance", "label", "mask"):
                check_same_bits(f"RIMG {what} {plane}", getattr(back, plane), getattr(image, plane))

    def inputs(self) -> dict:
        return {
            "h": self.h,
            "w": self.w,
            "scene_cycle": [
                {"enclosed": e, "moving": m, "angular_noise": n} for e, m, n in SCENE_CYCLE
            ],
        }


WORKLOADS = {cls.name: cls for cls in (TrainWorkload, InferWorkload, PrepWorkload)}
