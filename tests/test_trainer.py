import math

import numpy as np
import pytest

from oracles import brute_force_iou
from scanseg.cloud_io import RangeImage
from scanseg.projection import occlusion_stats, project_ego_corrected
from scanseg.seg_net import NetworkConfig, build
from scanseg.seg_objectives import ConfusionMatrix, accumulate_confusion, miou
from scanseg.synth_lidar import SceneConfig, SensorModel, generate_scan
from scanseg.trainer import (
    Adam,
    RunReport,
    Sample,
    Sgd,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    make_synthetic_dataset,
    train,
    write_run_report,
)

TINY_NET = NetworkConfig(
    stage_channels=(8, 8, 8, 8, 8, 8),
    blocks_per_stage=(1, 1, 1, 1, 1, 1),
    n_classes=4,
)


def tiny_dataset(n_scans=4, w=64, seed=0, **kw):
    train_set, val_set = make_synthetic_dataset(n_scans=n_scans, h=16, w=w, seed=seed, **kw)
    return train_set, val_set


class TestOptimizers:
    def test_adam_moves_toward_minimum(self):
        p = {"x": np.array([5.0], dtype=np.float32)}
        opt = Adam(p, lr=0.1)
        for _ in range(200):
            opt.step({"x": 2.0 * p["x"]})
        assert abs(float(p["x"][0])) < 0.1

    def test_sgd_step(self):
        p = {"x": np.array([1.0], dtype=np.float32)}
        Sgd(p, lr=0.5).step({"x": np.array([2.0], dtype=np.float32)})
        assert p["x"][0] == pytest.approx(0.0)

    def test_adam_in_place(self):
        arr = np.array([1.0], dtype=np.float32)
        opt = Adam({"x": arr}, lr=0.1)
        opt.step({"x": np.array([1.0], dtype=np.float32)})
        assert arr[0] != 1.0  # the registered array itself moved


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="mse")
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="lion")
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=0)


class TestTraining:
    def test_loss_decreases_on_smoke_set(self):
        train_set, _ = tiny_dataset()
        cfg = TrainConfig(net=TINY_NET, steps=12, batch_size=2, seed=0, lr=3e-3)
        _, report = train(cfg, train_set)
        assert len(report.loss_trace) == 12
        assert report.loss_trace[-1] < report.loss_trace[0]
        assert report.param_count > 0
        assert math.isfinite(report.sec_per_forward)

    def test_seed_repetition_identical_trace(self):
        train_set, _ = tiny_dataset()
        cfg = TrainConfig(net=TINY_NET, steps=6, batch_size=2, seed=3, lr=1e-3)
        _, r1 = train(cfg, train_set)
        _, r2 = train(cfg, train_set)
        assert r1.loss_trace == r2.loss_trace
        assert r1.miou == r2.miou

    def test_zero_lr_constant_trace_on_fixed_batch(self):
        train_set, _ = tiny_dataset(n_scans=2)  # parity split leaves one train scan
        assert len(train_set) == 1
        cfg = TrainConfig(net=TINY_NET, steps=5, batch_size=1, seed=0, lr=0.0)
        _, report = train(cfg, train_set)
        assert len(set(report.loss_trace)) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step(self):
        # corrupted depth turns the input statistics non-finite on the first
        # forward pass; the loop must stop with the step index, not loop on
        train_set, _ = tiny_dataset(n_scans=2)
        train_set[0].image.depth[3, 5] = np.inf
        cfg = TrainConfig(net=TINY_NET, steps=5, batch_size=1, seed=0)
        with pytest.raises(TrainingDiverged, match="step 0") as err:
            train(cfg, train_set)
        assert err.value.step == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(TrainConfig(net=TINY_NET), [])

    def test_evaluate_reproduces_training_miou(self):
        train_set, _ = tiny_dataset()
        cfg = TrainConfig(net=TINY_NET, steps=8, batch_size=2, seed=1, lr=3e-3)
        net, report = train(cfg, train_set)
        again = evaluate(net, train_set, backproject=True)
        assert again.miou == pytest.approx(report.miou, abs=1e-12)
        assert again.point_miou == pytest.approx(report.point_miou, abs=1e-12)


class TestEvaluation:
    def test_untrained_net_scores_at_chance(self):
        # balanced random labels; the chance level comes from simulating
        # uniform random predictions on the same targets
        rng = np.random.default_rng(5)
        h, w, c = 16, 64, 4
        samples = []
        for _ in range(4):
            labels = rng.integers(1, c, size=(h, w)).astype(np.int32)
            img = RangeImage(
                depth=rng.uniform(2, 50, (h, w)).astype(np.float32),
                reflectance=rng.random((h, w)).astype(np.float32),
                label=labels,
                mask=np.ones((h, w), bool),
            )
            samples.append(Sample(image=img))
        net = build(TINY_NET, seed=11)
        report = evaluate(net, samples)

        cm = ConfusionMatrix.empty(c)
        for s in samples:
            fake_preds = rng.integers(1, c, size=(h, w))
            accumulate_confusion(fake_preds, s.image.label, cm)
        _, chance = miou(cm)
        assert abs(report.miou - chance) <= 0.1

    def test_point_miou_not_above_pixel_miou_under_occlusion(self):
        # perfect per-pixel predictions; occluded points inherit the wrong
        # label wherever their occluder differs, so per-point can only drop.
        # Boxes near the rear cut make occluders cross class boundaries.
        from scanseg.synth_lidar import Box

        sensor = SensorModel(n_beams=16, azimuth_step=360.0 / 128.0)
        boxes = tuple(
            Box(center=(-d * math.cos(a), d * math.sin(a), 1.5), size=(2.5, 2.5, 3.0), class_id=3)
            for d, a in [(7, 0.0), (9, 0.35), (8, -0.3)]
        )
        scene = SceneConfig(seed=9, ego_velocity=12.0, enclosure_radius=18.0, primitives=boxes)
        scan = generate_scan(sensor, scene)
        img, index_map = project_ego_corrected(
            scan.cloud_ego_corrected, scan.labels, sensor.n_beams, sensor.firings_per_rev
        )
        assert occlusion_stats(index_map).n_occluded > 0

        from scanseg.projection import backproject_labels

        n_classes = int(scan.labels.semantic.max()) + 1
        pixel_cm = accumulate_confusion(img.label, img.label, ConfusionMatrix.empty(n_classes))
        point_preds = backproject_labels(index_map, img.label, len(scan))
        point_cm = accumulate_confusion(
            point_preds, scan.labels.semantic.astype(np.int32), ConfusionMatrix.empty(n_classes)
        )
        _, pixel_miou = miou(pixel_cm)
        _, point_miou = miou(point_cm)
        assert pixel_miou == pytest.approx(1.0)
        assert point_miou < pixel_miou

    def test_unfold_point_scores_match_brute_force(self):
        train_set, _ = tiny_dataset(n_scans=2)
        net = build(TINY_NET, seed=2)
        report = evaluate(net, train_set, backproject=True)
        assert report.point_miou is not None

        sample = train_set[0]
        from scanseg.projection import backproject_labels

        logits = net.forward(
            np.stack([np.stack(
                [sample.image.depth, sample.image.reflectance, sample.image.mask.astype(np.float32)], axis=-1
            )]),
            training=False,
        )
        preds = np.argmax(logits[0], axis=-1).astype(np.int32)
        point_preds = backproject_labels(sample.index_map, preds, len(sample.point_labels))
        ref_iou, ref_miou = brute_force_iou(point_preds, sample.point_labels, 4)
        cm = accumulate_confusion(point_preds, sample.point_labels, ConfusionMatrix.empty(4))
        got_iou, got_miou = miou(cm)
        np.testing.assert_allclose(got_iou, ref_iou, atol=1e-12, equal_nan=True)


class TestDatasets:
    def test_parity_split(self):
        train_set, val_set = tiny_dataset(n_scans=6, seed=0)
        assert len(train_set) == 3 and len(val_set) == 3

    def test_determinism(self):
        a_train, _ = tiny_dataset(n_scans=2, seed=4)
        b_train, _ = tiny_dataset(n_scans=2, seed=4)
        np.testing.assert_array_equal(a_train[0].image.depth, b_train[0].image.depth)
        np.testing.assert_array_equal(a_train[0].point_labels, b_train[0].point_labels)

    def test_labels_present_and_in_range(self):
        train_set, _ = tiny_dataset(n_scans=2, n_object_classes=4)
        labels = train_set[0].image.label
        assert labels.max() <= 4
        assert (np.unique(labels) >= 0).all()

    def test_ego_projection_mode(self):
        train_set, _ = tiny_dataset(n_scans=2, projection="ego", ego_velocity=8.0)
        assert train_set[0].image.mask.any()

    def test_unknown_projection(self):
        with pytest.raises(ValueError, match="projection"):
            make_synthetic_dataset(n_scans=2, projection="bird")


def test_report_file_roundtrip(tmp_path):
    report = RunReport(
        loss_trace=[1.0, 0.5],
        per_class_iou=np.array([np.nan, 1.0]),
        miou=1.0,
        param_count=123,
        sec_per_forward=0.001,
        config={"loss": "ce", "lr": 0.001},
        n_samples=2,
    )
    path = tmp_path / "report.txt"
    write_run_report(report, path)
    text = path.read_text()
    assert "config.loss = ce" in text
    assert "loss_trace = 1.000000,0.500000" in text
    assert "iou_class_0 = undefined" in text
    assert "miou = 1.000000" in text
