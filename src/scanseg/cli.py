"""Command line surface.

Subcommands: ``synth`` (scene config to scan files), ``project`` (scan file
to range image container plus preview), ``stats`` (occlusion comparison of
the two projections), ``train``, ``eval``, and ``bench`` (forward timing
across the sized configs). Exit codes: 0 success, 2 usage error, 1 runtime
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import cloud_io, projection, synth_lidar
from .seg_net import build, config_from_preset, load_weights, preset_key, save_weights
from .trainer import (
    TrainConfig,
    bench_forward,
    evaluate,
    make_synthetic_dataset,
    train,
    write_run_report,
)

_PALETTE = np.array(
    [
        (0, 0, 0),
        (70, 70, 70),
        (230, 120, 40),
        (60, 170, 220),
        (160, 220, 60),
        (220, 60, 160),
        (240, 220, 80),
        (120, 80, 200),
    ],
    dtype=np.uint8,
)


def write_pgm(path, depth: np.ndarray) -> None:
    """8-bit grayscale preview of a depth plane."""
    top = float(depth.max()) or 1.0
    gray = np.round(255.0 * depth / top).astype(np.uint8)
    header = f"P5\n{depth.shape[1]} {depth.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + gray.tobytes())


def write_ppm(path, labels: np.ndarray) -> None:
    """Color preview of a class id plane."""
    rgb = _PALETTE[labels % len(_PALETTE)]
    header = f"P6\n{labels.shape[1]} {labels.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + rgb.tobytes())


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scans", type=int, default=40, help="number of synthetic scans (split 50/50 train/val)")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--classes", type=int, default=3, help="object classes (plus unlabeled 0)")
    p.add_argument("--projection", choices=("unfold", "ego"), default="unfold")
    p.add_argument("--ego-velocity", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def _dataset(args):
    """(train, val) synthetic splits from the ``_add_dataset_args`` flags."""
    return make_synthetic_dataset(
        n_scans=args.scans,
        h=args.height,
        w=args.width,
        n_object_classes=args.classes,
        seed=args.seed,
        projection=args.projection,
        ego_velocity=args.ego_velocity,
    )


def _add_net_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="a", help="backbone size: a, b, c, d, rstar")
    p.add_argument("--padding", choices=("cyclic", "zeros"), default="cyclic")
    p.add_argument("--alpha", type=int, default=1, help="vertical kernel components in every conv")
    p.add_argument("--head-alpha", type=int, default=None, help="override alpha for the output head")


def _net_config(args, n_classes: int):
    overrides = {}
    if args.head_alpha is not None:
        overrides["head"] = args.head_alpha
    return config_from_preset(
        args.preset,
        padding=args.padding,
        alpha_default=args.alpha,
        alpha_overrides=overrides,
        n_classes=n_classes,
    )


def _cmd_synth(args) -> int:
    if args.init:
        synth_lidar.write_example_config(args.init)
        print(f"wrote example config to {args.init}")
        return 0
    if args.config is None:
        print("error: synth needs --config (or --init to create one)", file=sys.stderr)
        return 1
    sensor, scene = synth_lidar.load_scan_setup(args.config)
    scan = synth_lidar.generate_scan(sensor, scene)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud_io.save_point_cloud(scan.cloud, out / "raw.bin")
    cloud_io.save_point_cloud(scan.cloud_ego_corrected, out / "ego.bin")
    cloud_io.save_labels(scan.labels, out / "scan.label")
    print(f"wrote {len(scan)} points to {out}/raw.bin, {out}/ego.bin, {out}/scan.label")
    return 0


def _cmd_project(args) -> int:
    cloud = cloud_io.load_point_cloud(args.input)
    labels = cloud_io.load_labels(args.labels) if args.labels else None
    if args.mode == "unfold":
        img, index_map = projection.unfold_scan(
            cloud, labels, args.height, args.width, math.radians(args.threshold_deg)
        )
    else:
        img, index_map = projection.project_ego_corrected(
            cloud, labels, args.height, args.width, args.fov_up, args.fov_down
        )
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".rimg")
    cloud_io.save_range_image(img, out)
    if args.preview:
        write_pgm(args.preview, img.depth)
    stats = projection.occlusion_stats(index_map)
    print(
        f"mode={args.mode} points={stats.n_points} projected={stats.n_projected} "
        f"occluded={stats.n_occluded} out_of_range={stats.n_out_of_range}"
    )
    print(f"wrote {out}")
    return 0


def _cmd_stats(args) -> int:
    sensor, scene = synth_lidar.load_scan_setup(args.config)
    scan = synth_lidar.generate_scan(sensor, scene)
    h, w = sensor.n_beams, sensor.firings_per_rev
    threshold = max(math.radians(args.threshold_deg), 1.5 * math.radians(sensor.azimuth_step))
    _, map_unfold = projection.unfold_scan(scan.cloud, scan.labels, h, w, threshold)
    _, map_ego = projection.project_ego_corrected(
        scan.cloud_ego_corrected, scan.labels, h, w, sensor.fov_up, sensor.fov_down
    )
    s_u = projection.occlusion_stats(map_unfold)
    s_e = projection.occlusion_stats(map_ego)
    print(f"points = {s_u.n_points}")
    print(f"unfold: projected={s_u.n_projected} occluded={s_u.n_occluded} out_of_range={s_u.n_out_of_range}")
    print(f"ego:    projected={s_e.n_projected} occluded={s_e.n_occluded} out_of_range={s_e.n_out_of_range}")
    print(f"occluded(ego) > occluded(unfold): {s_e.n_occluded > s_u.n_occluded}")
    return 0


def _cmd_train(args) -> int:
    train_set, _ = _dataset(args)
    config = TrainConfig(
        net=_net_config(args, n_classes=args.classes + 1),
        loss=args.loss,
        optimizer=args.optimizer,
        lr=args.lr,
        steps=args.steps,
        batch_size=args.batch,
        seed=args.seed,
        projection=args.projection,
    )
    net, report = train(config, train_set)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_report(report, out / "report.txt")
    save_weights(net, out / "weights.npz")
    _write_previews(net, train_set[0], out)
    print(f"params = {report.param_count}")
    print(f"final_loss = {report.loss_trace[-1]:.6f}")
    print(f"miou = {report.miou:.6f}")
    print(f"wrote {out}/report.txt and {out}/weights.npz")
    return 0


def _write_previews(net, sample, out: Path) -> None:
    """Depth PGM plus predicted/true class-color PPMs of one sample."""
    from .trainer import sample_tensors

    x, y = sample_tensors(sample)
    logits = net.forward(x[None], training=False)
    preds = np.argmax(logits[0], axis=-1).astype(np.int32)
    write_pgm(out / "depth_preview.pgm", sample.image.depth)
    write_ppm(out / "pred_preview.ppm", preds)
    write_ppm(out / "label_preview.ppm", y)


def _cmd_eval(args) -> int:
    train_set, val_set = _dataset(args)
    dataset = train_set if args.split == "train" else val_set
    net = build(_net_config(args, n_classes=args.classes + 1), seed=args.seed)
    load_weights(net, args.weights)
    report = evaluate(net, dataset, backproject=args.backproject)
    if args.out:
        write_run_report(report, args.out)
        print(f"wrote {args.out}")
    print(f"miou = {report.miou:.6f}")
    if report.point_miou is not None:
        print(f"point_miou = {report.point_miou:.6f}")
    return 0


def _cmd_bench(args) -> int:
    results = bench_forward(args.presets, h=args.height, w=args.width, repeats=args.repeats, seed=args.seed)
    times = {}
    for name, (sec, n_params) in results.items():
        key = preset_key(name)
        times[key] = sec
        print(f"{key:3s} params={n_params:>10d} forward={sec * 1e3:9.2f} ms")
    if "D" in times and "R*" in times:
        print(f"time(D) / time(R*) = {times['D'] / times['R*']:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate scan files from a scene config")
    p.add_argument("--config", default=None, help="sensor+scene YAML file")
    p.add_argument("--out-dir", default="synth_out")
    p.add_argument("--init", default=None, metavar="PATH", help="write an example config and exit")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("project", help="project a .bin scan to a range image")
    p.add_argument("input", help="point cloud .bin file")
    p.add_argument("--labels", default=None, help=".label file")
    p.add_argument("--out", default=None, help="output .rimg path")
    p.add_argument("--preview", default=None, help="optional depth preview .pgm path")
    p.add_argument("--mode", choices=("unfold", "ego"), default="unfold")
    p.add_argument("--height", type=int, default=projection.DEFAULT_H)
    p.add_argument("--width", type=int, default=projection.DEFAULT_W)
    p.add_argument("--threshold-deg", type=float, default=0.3)
    p.add_argument("--fov-up", type=float, default=3.0)
    p.add_argument("--fov-down", type=float, default=-25.0)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("stats", help="occlusion report comparing both projections")
    p.add_argument("--config", required=True, help="sensor+scene YAML file")
    p.add_argument("--threshold-deg", type=float, default=0.3)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train on synthetic scans")
    _add_dataset_args(p)
    _add_net_args(p)
    p.add_argument("--loss", choices=("ce", "dice", "ce+dice"), default="ce+dice")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--out-dir", default="run_out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a synthetic split")
    _add_dataset_args(p)
    _add_net_args(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--backproject", action="store_true", help="also score per point via the index map")
    p.add_argument("--out", default=None, help="optional report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="forward-pass timing across configs")
    p.add_argument("--presets", nargs="+", default=["a", "b", "c", "d", "rstar"])
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=2048)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
