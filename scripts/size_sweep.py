#!/usr/bin/env python3
"""Parameter count and forward time across the sized backbone configs.

Prints one row per config so the accuracy/latency tradeoff of shrinking the
encoder channel table is visible at a glance.
"""

import argparse

from scanseg.seg_net import BACKBONE_PRESETS, preset_key
from scanseg.trainer import bench_forward


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--height", type=int, default=64)
    ap.add_argument("--width", type=int, default=1024)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    names = ["a", "b", "c", "d", "rstar"]
    results = bench_forward(names, h=args.height, w=args.width, repeats=args.repeats)
    print(f"input {args.height}x{args.width}, median of {args.repeats} forward passes")
    print(f"{'config':>7} {'params':>12} {'channels':>28} {'forward [ms]':>13}")
    for name, (sec, n_params) in results.items():
        key = preset_key(name)
        channels = ",".join(str(c) for c in BACKBONE_PRESETS[key])
        print(f"{key:>7} {n_params:>12,} {channels:>28} {sec * 1e3:>13.1f}")
    print(f"time(D) / time(R*) = {results['d'][0] / results['rstar'][0]:.3f}")


if __name__ == "__main__":
    main()
