import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from scanseg import cloud_io, projection, trainer

from scanbench import runner
from scanbench.run import named_metrics
from scanbench.workloads import WORKLOADS, InferWorkload, PrepWorkload, TrainWorkload

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)


def test_train_op_is_one_step_of_trainer_train():
    workload = TrainWorkload(seed=2, n_scans=4, h=8, w=64)
    workload.setup()
    losses = [workload.run_op(i).payload for i in range(3)]
    _, report = trainer.train(replace(workload.config, steps=3), workload.dataset)
    assert losses == report.loss_trace


def test_small_runs_pass_every_check():
    for make in (
        lambda: TrainWorkload(seed=1, n_scans=4, h=8, w=64),
        lambda: InferWorkload(seed=1, h=8, w=64, preset="a", n_classes=6, pool_scans=2),
        lambda: PrepWorkload(seed=1, h=16, w=64),
    ):
        result = runner.run(make, seconds=0.0, trace=True)
        assert result.failures == {}
        assert result.traced == [False, True]  # the first input, untraced then traced


def test_corrupted_range_image_counts_as_a_failed_op(monkeypatch):
    real = cloud_io.read_range_image_bytes

    def corrupted(data):
        img = real(data)
        img.depth[0, 0] += 1.0
        return img

    monkeypatch.setattr(cloud_io, "read_range_image_bytes", corrupted)
    result = runner.run(lambda: PrepWorkload(seed=0, h=16, w=64), seconds=0.0, trace=False)
    assert result.attempted == 1
    assert "not bit-exact" in result.failures[0]
    values, _ = runner.end_to_end(result)
    assert values["success_rate"] == 0.0


def test_output_that_breaks_a_check_counts_as_failed(monkeypatch):
    real = cloud_io.read_range_image_bytes

    def without_mask(data):
        img = real(data)
        return SimpleNamespace(depth=img.depth, reflectance=img.reflectance, label=img.label)

    monkeypatch.setattr(cloud_io, "read_range_image_bytes", without_mask)
    result = runner.run(lambda: PrepWorkload(seed=0, h=16, w=64), seconds=0.0, trace=False)
    assert result.attempted == 1
    assert result.failures[0].startswith("check: AttributeError")


def test_out_of_range_labels_and_raising_ops_count_as_failed(monkeypatch):
    real = projection.backproject_labels
    calls = []

    def wrong(index_map, label_image, n):
        calls.append(1)
        if len(calls) == 1:  # the warm-up op in set-up
            return real(index_map, label_image, n)
        if len(calls) == 2:
            raise RuntimeError("lost the scan")
        return real(index_map, label_image, n) + 99

    monkeypatch.setattr(projection, "backproject_labels", wrong)
    make = lambda: InferWorkload(seed=0, h=8, w=64, preset="a", n_classes=6, pool_scans=2)
    result = runner.run(make, seconds=0.0, trace=True)
    assert result.attempted == 2
    assert set(result.failures) == {0, 1}
    assert "RuntimeError: lost the scan" in result.failures[0]
    assert "outside [0, 6)" in result.failures[1]


def test_loss_that_does_not_fall_fails_the_run_check():
    workload = TrainWorkload(seed=1, n_scans=4, h=8, w=64)
    workload.losses = [1.0, 1.0, 2.0, 3.0]
    assert workload.finish()[0][0] == 3
    workload.losses = [3.0, 2.0, 1.5, float("nan")]
    assert workload.finish()
    workload.losses = [3.0, 2.0, 1.5, 1.0]
    assert workload.finish() == []


def test_benchmark_json_describes_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in runner.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == runner.per_layer_table()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_named_metrics_use_the_workload_names():
    values = {"setup_s": 1.0, "scans_per_s": 2.0, "points_per_s": 3.0, "op_s.p50": 4.0, "op_s.tail": 5.0, "peak_rss_mb": 6.0}
    train = named_metrics(TrainWorkload, values, attempted=4, failed=1)
    assert {name: m["value"] for name, m in train.items()} == {
        "setup_s": 1.0,
        "train_samples_per_s": 2.0,
        "train_step_s.p50": 4.0,
        "train_step_s.tail": 5.0,
        "peak_rss_mb": 6.0,
        "error_rate": 0.25,
    }
    infer = named_metrics(InferWorkload, values, attempted=4, failed=0)
    assert infer["infer_points_per_s"] == {"value": 3.0, "unit": "points/s"}
    assert infer["infer_scan_s.tail"]["value"] == 5.0
