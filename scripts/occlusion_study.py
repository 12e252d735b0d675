#!/usr/bin/env python3
"""Occlusion comparison of the two projections across ego velocities.

Generates one synthetic scene per velocity, projects the raw cloud with scan
unfolding and the motion-corrected cloud with the spherical proxy, and prints
a table of occluded point counts. The unfolding column stays at zero on
noise-free scenes; the corrected projection loses more points the faster the
vehicle moves.
"""

import argparse

import numpy as np

from scanseg.projection import occlusion_stats
from scanseg.synth_lidar import Box, SceneConfig, SensorModel, generate_scan, project_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beams", type=int, default=32)
    ap.add_argument("--width", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sensor = SensorModel(n_beams=args.beams, azimuth_step=360.0 / args.width)

    print(f"{'v [m/s]':>8} {'points':>8} {'occ(unfold)':>12} {'occ(ego)':>10} {'lost [%]':>9}")
    for velocity in (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0):
        rng = np.random.default_rng(args.seed)
        boxes = tuple(
            Box(
                center=(d * np.cos(a), d * np.sin(a), 1.5),
                size=(3.0, 3.0, 3.0),
                class_id=3,
            )
            for d, a in zip(rng.uniform(6, 18, 4), rng.uniform(-np.pi, np.pi, 4))
        )
        scene = SceneConfig(seed=args.seed, primitives=boxes, enclosure_radius=25.0, ego_velocity=velocity)
        scan = generate_scan(sensor, scene)
        s_u, s_e = (occlusion_stats(project_scan(sensor, scan, p)[1]) for p in ("unfold", "ego"))
        lost = 100.0 * s_e.n_occluded / max(s_e.n_points, 1)
        print(f"{velocity:8.1f} {s_e.n_points:8d} {s_u.n_occluded:12d} {s_e.n_occluded:10d} {lost:9.2f}")


if __name__ == "__main__":
    main()
