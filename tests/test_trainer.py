import math
import tracemalloc

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
    TrainConfig,
    TrainingDiverged,
    bench_forward,
    evaluate,
    make_synthetic_dataset,
    sample_tensors,
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

    def test_adam_in_place(self):
        arr = np.array([1.0], dtype=np.float32)
        opt = Adam({"x": arr}, lr=0.1)
        opt.step({"x": np.array([1.0], dtype=np.float32)})
        assert arr[0] != 1.0  # the registered array itself moved


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="mse")
        with pytest.raises(TypeError, match="projection"):
            TrainConfig(projection="bird")  # the dataset owns its projection
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"lr": math.nan}, "TrainConfig.lr must be float, got nan"),
            ({"lr": math.inf}, "TrainConfig.lr must be float, got inf"),
            ({"steps": 2.5}, "TrainConfig.steps must be int, got 2.5"),
            ({"batch_size": True}, "TrainConfig.batch_size must be int, got True"),
            ({"net": None}, "TrainConfig.net must be NetworkConfig, got None"),
        ],
    )
    def test_wrong_kind_named(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kw)

    @pytest.mark.parametrize("name", ["optimizer", "beta1", "beta2", "adam_eps"])
    def test_optimizer_is_fixed(self, name):
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: getattr(TrainConfig, name)})

    def test_optimizer_constants_are_adams_defaults(self):
        opt = Adam({}, lr=1e-3)
        assert TrainConfig.optimizer == "adam"
        assert (TrainConfig.beta1, TrainConfig.beta2, TrainConfig.adam_eps) == (opt.beta1, opt.beta2, opt.eps)


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
        again = evaluate(net, train_set)
        assert again.miou == pytest.approx(report.miou, abs=1e-12)
        assert again.point_miou == pytest.approx(report.point_miou, abs=1e-12)
        np.testing.assert_array_equal(again.per_class_iou, report.per_class_iou)
        assert (again.param_count, again.n_samples) == (report.param_count, report.n_samples)
        # evaluate reports only what it measures; train adds the rest
        assert again.loss_trace == [] and math.isnan(again.sec_per_forward) and again.config == {}
        assert len(report.loss_trace) == 8 and report.config["loss"] == "ce+dice"

    def test_traced_step_records_each_loss_term(self):
        # the benchmark's tracer swaps module attributes, so the objective
        # must call its terms through seg_objectives' globals to be seen
        from scanbench.spans import Instrumentation, Tracer

        train_set, _ = tiny_dataset(n_scans=2)
        cfg = TrainConfig(net=TINY_NET, steps=1, batch_size=1, seed=0)
        tracer = Tracer()
        with Instrumentation(tracer):
            _, traced = train(cfg, train_set)
        names = [s[0] for s in tracer.spans]
        assert names.count("seg_objectives.cross_entropy") == 1
        assert names.count("seg_objectives.dice_loss_on_logits") == 1
        assert traced.loss_trace == train(cfg, train_set)[1].loss_trace


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
        report = evaluate(net, train_set)
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

    def test_sample_tensors_builds_the_input_once_and_keeps_the_labels(self):
        rng = np.random.default_rng(5)
        mask = rng.random((64, 2048)) < 0.8
        image = RangeImage(
            depth=np.where(mask, rng.uniform(1.0, 80.0, mask.shape), 0.0),
            reflectance=np.where(mask, rng.random(mask.shape), 0.0),
            label=np.where(mask, rng.integers(1, 6, mask.shape), 0),
            mask=mask,
        )
        tracemalloc.start()
        try:
            x, y = sample_tensors(Sample(image=image))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float32 tensor, not a float32 stack and its cast copy
        assert x.dtype == np.float32 and x.shape == (64, 2048, 3)
        assert peak <= 1.1 * x.nbytes
        want = np.stack([image.depth, image.reflectance, image.mask.astype(np.float32)], axis=-1)
        assert x.tobytes() == want.tobytes()
        assert y.dtype == np.int32 and np.shares_memory(y, image.label)

    @pytest.mark.parametrize("n_object_classes", [2, 0, -1])
    def test_too_few_object_classes_named(self, n_object_classes):
        # every scene places class 2 and class 3 objects
        with pytest.raises(ValueError, match=f"n_object_classes must be >= 3, got {n_object_classes}"):
            make_synthetic_dataset(n_scans=2, n_object_classes=n_object_classes)


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


@pytest.mark.parametrize("repeats", [0, -1])
def test_bench_forward_rejects_no_repeats(repeats):
    with pytest.raises(ValueError, match=f"repeats must be >= 1, got {repeats}"):
        bench_forward(["a"], h=16, w=64, repeats=repeats)
