"""Command line surface.

Subcommands: ``synth`` (scene config to scan files), ``project`` (scan file
to range image container plus preview), ``stats`` (occlusion comparison of
the two projections), ``train``, ``eval``, and ``bench`` (size and forward
timing of the sized configs). Exit codes: 0 success, 2 usage error, 1 runtime
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cloud_io, projection, synth_lidar
from .neural_core import PADDING_MODES
from .seg_net import BACKBONE_PRESETS, config_from_preset, load_network, preset_key, save_weights
from .seg_objectives import LOSSES
from .trainer import (
    TrainConfig,
    _metric,
    bench_forward,
    evaluate,
    make_synthetic_dataset,
    predict,
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
    p.add_argument("--classes", type=int, default=3, help="object classes, at least 3 (plus unlabeled 0)")
    p.add_argument("--projection", choices=projection.PROJECTIONS, default="unfold")
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
    (out / "raw.bin").write_bytes(cloud_io.write_point_cloud(scan.cloud))
    (out / "ego.bin").write_bytes(cloud_io.write_point_cloud(scan.cloud_ego_corrected))
    (out / "scan.label").write_bytes(cloud_io.write_labels(scan.labels))
    print(f"wrote {len(scan)} points to {out}/raw.bin, {out}/ego.bin, {out}/scan.label")
    return 0


def _accounting(stats: projection.OcclusionStats) -> str:
    """Where a scan's points went, as ``scanseg project`` and ``stats`` print it."""
    return f"projected={stats.n_projected} occluded={stats.n_occluded} out_of_range={stats.n_out_of_range}"


def _cmd_project(args) -> int:
    cloud = cloud_io.read_point_cloud(Path(args.input).read_bytes())
    labels = cloud_io.read_labels(Path(args.labels).read_bytes()) if args.labels else None
    if args.mode == "unfold":
        img, index_map = projection.unfold_scan(cloud, labels, args.height, args.width)
    else:
        img, index_map = projection.project_ego_corrected(
            cloud, labels, args.height, args.width, args.fov_up, args.fov_down
        )
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".rimg")
    out.write_bytes(cloud_io.write_range_image_bytes(img))
    if args.preview:
        write_pgm(args.preview, img.depth)
    stats = projection.occlusion_stats(index_map)
    print(f"mode={args.mode} points={stats.n_points} {_accounting(stats)}")
    print(f"wrote {out}")
    return 0


def _cmd_stats(args) -> int:
    sensor, scene = synth_lidar.load_scan_setup(args.config)
    scan = synth_lidar.generate_scan(sensor, scene)
    _, map_unfold = synth_lidar.project_scan(sensor, scan, "unfold")
    _, map_ego = synth_lidar.project_scan(sensor, scan, "ego")
    s_u = projection.occlusion_stats(map_unfold)
    s_e = projection.occlusion_stats(map_ego)
    print(f"points = {s_u.n_points}")
    print(f"unfold: {_accounting(s_u)}")
    print(f"ego:    {_accounting(s_e)}")
    print(f"occluded(ego) > occluded(unfold): {s_e.n_occluded > s_u.n_occluded}")
    print(f"rows_recovered = {(map_unfold.point_to_pixel[:, 0] == scan.true_rows).mean():.6f}")
    return 0


def _cmd_train(args) -> int:
    train_set, _ = _dataset(args)
    overrides = {} if args.head_alpha is None else {"head": args.head_alpha}
    net_config = config_from_preset(
        args.preset, padding=args.padding, alpha_default=args.alpha, alpha_overrides=overrides, n_classes=args.classes + 1
    )
    config = TrainConfig(
        net=net_config, loss=args.loss, lr=args.lr, steps=args.steps, batch_size=args.batch, seed=args.seed
    )
    net, report = train(config, train_set)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_report(report, out / "report.txt")
    save_weights(net, out / "weights.npz")
    _write_previews(net, train_set[0], out)
    print(f"params = {report.param_count}")
    print(f"final_loss = {_metric(report.loss_trace[-1])}")
    print(f"miou = {_metric(report.miou)}")
    print(f"wrote {out}/report.txt and {out}/weights.npz")
    return 0


def _write_previews(net, sample, out: Path) -> None:
    """Depth PGM plus predicted/true class-color PPMs of one sample."""
    write_pgm(out / "depth_preview.pgm", sample.image.depth)
    write_ppm(out / "pred_preview.ppm", predict(net, sample.image))
    write_ppm(out / "label_preview.ppm", sample.image.label)


def _cmd_eval(args) -> int:
    train_set, val_set = _dataset(args)
    dataset = train_set if args.split == "train" else val_set
    net = load_network(args.weights)
    report = evaluate(net, dataset)
    if args.out:
        write_run_report(report, args.out)
        print(f"wrote {args.out}")
    print(f"miou = {_metric(report.miou)}")
    if report.point_miou is not None:
        print(f"point_miou = {_metric(report.point_miou)}")
    return 0


def _cmd_bench(args) -> int:
    results = bench_forward(args.presets, h=args.height, w=args.width, repeats=args.repeats, seed=args.seed)
    for key, (sec, n_params) in results.items():
        channels = ",".join(str(c) for c in BACKBONE_PRESETS[key])
        print(f"{key:3s} params={n_params:>10d} channels={channels:<24s} forward={sec * 1e3:9.2f} ms")
    if "D" in results and "R*" in results:
        print(f"time(D) / time(R*) = {results['D'][0] / results['R*'][0]:.3f}")
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
    p.add_argument("--mode", choices=projection.PROJECTIONS, default="unfold")
    p.add_argument("--height", type=int, default=projection.DEFAULT_H)
    p.add_argument("--width", type=int, default=projection.DEFAULT_W)
    p.add_argument("--fov-up", type=float, default=projection.DEFAULT_FOV_UP)
    p.add_argument("--fov-down", type=float, default=projection.DEFAULT_FOV_DOWN)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("stats", help="occlusion report comparing both projections")
    p.add_argument("--config", required=True, help="sensor+scene YAML file")
    p.set_defaults(func=_cmd_stats)

    def preset(name):  # argparse prints the message of an ArgumentTypeError only
        try:
            return preset_key(name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    presets = f"one of {', '.join(BACKBONE_PRESETS)} in any case, rstar spelling R*"
    p = sub.add_parser("train", help="train on synthetic scans")
    _add_dataset_args(p)
    p.add_argument("--preset", type=preset, default="A", help=f"backbone size, {presets}")
    p.add_argument("--padding", choices=PADDING_MODES, default="cyclic")
    p.add_argument("--alpha", type=int, default=1, help="vertical kernel components in every conv")
    p.add_argument("--head-alpha", type=int, default=None, help="override alpha for the output head")
    p.add_argument("--loss", choices=LOSSES, default="ce+dice")
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--out-dir", default="run_out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a synthetic split")
    _add_dataset_args(p)
    p.add_argument("--weights", required=True, help="archive written by train; it names its own network")
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--out", default=None, help="optional report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="forward-pass timing across configs")
    p.add_argument("--presets", nargs="+", type=preset, default=list(BACKBONE_PRESETS), help=presets)
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
