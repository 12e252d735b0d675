#!/usr/bin/env python3
"""Train the same small backbone under different loss functions and compare.

Desk-scale counterpart of the loss ablation: cross-entropy, soft Dice, and
their sum, each trained with identical seeds and data, reporting final mIoU
per loss. Dice optimizes the evaluation metric directly and tends to win or
tie on the mIoU column even when its cross-entropy is worse.
"""

import argparse

from scanseg.seg_net import config_from_preset
from scanseg.seg_objectives import LOSSES
from scanseg.trainer import TrainConfig, make_synthetic_dataset, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=120)
    ap.add_argument("--scans", type=int, default=12)
    ap.add_argument("--width", type=int, default=256)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    train_set, _ = make_synthetic_dataset(
        n_scans=args.scans, h=64, w=args.width, n_object_classes=args.classes, seed=args.seed
    )
    print(f"{len(train_set)} training scans, {args.steps} steps each")
    for loss in LOSSES:
        config = TrainConfig(
            net=config_from_preset("a", n_classes=args.classes + 1),
            loss=loss,
            steps=args.steps,
            batch_size=2,
            seed=args.seed,
        )
        _, report = train(config, train_set)
        print(f"loss={loss:8s} final_train_loss={report.loss_trace[-1]:.4f} miou={report.miou:.4f}")


if __name__ == "__main__":
    main()
