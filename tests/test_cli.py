import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from scanseg import cli
from scanseg.cli import build_parser, main, write_pgm, write_ppm
from scanseg.cloud_io import load_range_image
from scanseg.neural_core import PADDING_MODES
from scanseg.projection import PROJECTIONS
from scanseg.seg_net import BACKBONE_PRESETS, preset_key
from scanseg.seg_objectives import LOSSES
from scanseg.trainer import RunReport


@pytest.fixture()
def scene_config(tmp_path):
    path = tmp_path / "setup.yaml"
    path.write_text(
        """
sensor:
  n_beams: 16
  fov_up_deg: 3.0
  fov_down_deg: -25.0
  azimuth_step_deg: 2.8125   # 128 firings
  rev_period_s: 0.1
scene:
  seed: 3
  ground_z: 0.0
  angular_noise_deg: 0.0
  ego_velocity_mps: 8.0
  enclosure: {radius: 20.0, class_id: 2}
  primitives:
    - {kind: box, center: [10.0, 2.0, 1.0], size: [3.0, 3.0, 2.0], class_id: 3}
"""
    )
    return path


def test_synth_init_writes_example(tmp_path, capsys):
    target = tmp_path / "example.yaml"
    assert main(["synth", "--init", str(target)]) == 0
    assert target.exists()
    assert "sensor:" in target.read_text()
    capsys.readouterr()
    # the example scene unfolds every point into its beam's row
    assert main(["stats", "--config", str(target)]) == 0
    assert "rows_recovered = 1.000000" in capsys.readouterr().out


def test_synth_project_stats_pipeline(tmp_path, scene_config, capsys):
    out_dir = tmp_path / "scan"
    assert main(["synth", "--config", str(scene_config), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "raw.bin").exists()
    assert (out_dir / "ego.bin").exists()
    assert (out_dir / "scan.label").exists()
    capsys.readouterr()

    rimg = tmp_path / "scan.rimg"
    preview = tmp_path / "scan.pgm"
    code = main(
        [
            "project",
            str(out_dir / "raw.bin"),
            "--labels",
            str(out_dir / "scan.label"),
            "--out",
            str(rimg),
            "--preview",
            str(preview),
            "--mode",
            "unfold",
            "--height",
            "16",
            "--width",
            "128",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # noise-free unfolding loses nothing at any width
    assert "occluded=0 out_of_range=0" in out
    img = load_range_image(rimg)
    assert img.shape == (16, 128)
    assert preview.read_bytes().startswith(b"P5\n128 16\n255\n")

    assert main(["stats", "--config", str(scene_config)]) == 0
    out = capsys.readouterr().out
    assert "occluded(ego) > occluded(unfold): True" in out


def test_project_missing_file(tmp_path, capsys):
    code = main(["project", str(tmp_path / "nope.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope.bin" in err


def test_project_rejects_zero_width(tmp_path, scene_config, capsys):
    out_dir = tmp_path / "scan"
    assert main(["synth", "--config", str(scene_config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["project", str(out_dir / "raw.bin"), "--width", "0"]) == 1
    assert "grid size w must be at least 1, got 0" in capsys.readouterr().err
    assert not (out_dir / "raw.rimg").exists()


@pytest.mark.parametrize("classes", ["2", "0"])
def test_train_rejects_too_few_classes(tmp_path, capsys, classes):
    argv = ["train", "--scans", "2", "--height", "16", "--width", "64", "--classes", classes, "--steps", "1"]
    assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 1
    assert f"n_object_classes must be >= 3, got {classes}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_usage_error_exit_code(capsys):
    assert main(["project", "x.bin", "--no-such-flag"]) == 2
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["train", "--optimizer", "sgd"]) == 2  # Adam is the only optimizer
    assert main(["eval", "--weights", "w.npz", "--padding", "zeros"]) == 2  # the archive names its network
    for argv in (["train", "--preset", "q"], ["bench", "--presets", "a", "q"]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown preset 'q'" in err and "R*" in err  # the message lists the valid presets


def _option(command, dest):
    """The argparse action of one subcommand option."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


@pytest.mark.parametrize(
    ("command", "dest", "choices"),
    [
        ("train", "loss", LOSSES),
        ("train", "padding", PADDING_MODES),
        ("project", "mode", PROJECTIONS),
        ("train", "projection", PROJECTIONS),
        ("eval", "projection", PROJECTIONS),
    ],
)
def test_choices_are_the_library_tuples(command, dest, choices):
    assert _option(command, dest).choices is choices


def test_bench_defaults_to_every_preset():
    assert _option("bench", "presets").default == list(BACKBONE_PRESETS)


@pytest.mark.parametrize(("command", "dest"), [("train", "preset"), ("bench", "presets")])
def test_preset_options_take_the_table_keys(command, dest):
    option = _option(command, dest)
    assert [option.type(key.lower()) for key in BACKBONE_PRESETS] == list(BACKBONE_PRESETS)
    assert option.type("rstar") == preset_key("rstar") == "R*"
    with pytest.raises(argparse.ArgumentTypeError, match=re.escape(str(sorted(BACKBONE_PRESETS)))):
        option.type("q")
    assert all(key in option.help for key in BACKBONE_PRESETS)


def test_readme_walkthrough_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("scanseg ")]
    assert {argv[0] for argv in commands} == {"synth", "project", "stats", "train", "eval", "bench"}
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error exits


def test_train_eval_roundtrip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(
        [
            "train",
            "--scans", "2",
            "--height", "16",
            "--width", "64",
            "--classes", "3",
            "--steps", "3",
            "--batch", "1",
            "--preset", "a",
            "--padding", "zeros",
            "--alpha", "2",
            "--out-dir", str(run_dir),
        ]
    )
    assert code == 0
    train_miou = capsys.readouterr().out.split("miou = ")[1].splitlines()[0]
    report = (run_dir / "report.txt").read_text()
    assert "config.loss = ce+dice" in report
    assert "miou =" in report
    assert (run_dir / "weights.npz").exists()
    assert (run_dir / "depth_preview.pgm").exists()
    assert (run_dir / "pred_preview.ppm").exists()
    assert (run_dir / "label_preview.ppm").exists()

    # the archive brings its padding and alpha: eval on the training split
    # reproduces the training report's mIoU
    common = ["--weights", str(run_dir / "weights.npz"), "--scans", "2", "--height", "16", "--width", "64", "--classes", "3"]
    assert main(["eval", *common, "--split", "train"]) == 0
    assert f"miou = {train_miou}" in capsys.readouterr().out

    code = main(
        [
            "eval",
            *common,
            "--split", "val",
            "--out", str(tmp_path / "eval.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "miou =" in out
    assert "point_miou =" in out
    assert "sec_per_forward = undefined" in (tmp_path / "eval.txt").read_text()


def test_nan_metrics_read_undefined_in_file_and_on_stdout(tmp_path, capsys, monkeypatch):
    # no class ever seen: every IoU, both means and the untimed forward are NaN
    def no_class_seen(net, dataset):
        nan = np.full(2, np.nan)
        return RunReport(
            per_class_iou=nan, miou=np.nan, param_count=1, n_samples=0, point_per_class_iou=nan, point_miou=np.nan
        )

    monkeypatch.setattr(cli, "load_network", lambda path: None)
    monkeypatch.setattr(cli, "evaluate", no_class_seen)
    report = tmp_path / "eval.txt"
    code = main(
        [
            "eval",
            "--weights", "unused.npz", "--scans", "2", "--height", "16", "--width", "64",
            "--out", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "miou = undefined" in out and "point_miou = undefined" in out
    text = report.read_text()
    for key in ("sec_per_forward", "iou_class_1", "miou", "point_miou"):
        assert f"\n{key} = undefined\n" in text


def test_eval_weight_mismatch_is_runtime_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    main(
        [
            "train",
            "--scans", "2", "--height", "16", "--width", "64", "--classes", "3",
            "--steps", "1", "--batch", "1", "--preset", "a", "--out-dir", str(run_dir),
        ]
    )
    capsys.readouterr()
    path = run_dir / "weights.npz"
    with np.load(path) as archive:
        entries = {k: archive[k] for k in archive.files}
    config = json.loads(str(entries["config"]))
    entries["config"] = json.dumps(config | {"stage_channels": BACKBONE_PRESETS["B"]})  # not the stored tensors
    np.savez(path, **entries)
    code = main(["eval", "--weights", str(path), "--scans", "2", "--height", "16", "--width", "64", "--classes", "3"])
    assert code == 1
    assert "does not fit" in capsys.readouterr().err


def test_bench_reports_ratio(capsys):
    code = main(["bench", "--presets", "d", "rstar", "--height", "16", "--width", "64", "--repeats", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "time(D) / time(R*)" in out
    assert "params=" in out
    assert "channels=32,48,64,128,256,512 " in out
    assert "channels=32,64,128,256,512,1024 " in out


def test_bench_rejects_zero_repeats(capsys):
    code = main(["bench", "--presets", "a", "--height", "16", "--width", "64", "--repeats", "0"])
    assert code == 1
    assert "repeats must be >= 1, got 0" in capsys.readouterr().err


def test_preview_writers(tmp_path):
    depth = np.random.default_rng(0).uniform(0, 50, (4, 8)).astype(np.float32)
    labels = np.random.default_rng(1).integers(0, 5, (4, 8)).astype(np.int32)
    pgm, ppm = tmp_path / "d.pgm", tmp_path / "l.ppm"
    write_pgm(pgm, depth)
    write_ppm(ppm, labels)
    assert pgm.read_bytes().startswith(b"P5\n8 4\n255\n")
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n8 4\n255\n")
    assert len(data) == len(b"P6\n8 4\n255\n") + 4 * 8 * 3
