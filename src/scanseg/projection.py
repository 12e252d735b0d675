"""Point list to range image projections.

Two projections are provided. ``unfold_scan`` reconstructs the sensor's
native row-major image from the acquisition order alone: consecutive points
belong to the same scan line until the azimuth jumps at the rear cut, so the
row index is a cumulative sum of jump flags. ``project_ego_corrected`` is the
spherical proxy used for motion-compensated clouds, binning rows by elevation;
it trades the native layout for mutual occlusions whenever the cloud was
captured from more than one pose.

Both scatter points in decreasing-depth order so the nearest point wins each
pixel; displaced points are recorded as occluded, and points whose row falls
outside the grid as out of range. The IndexMap keeps the full point/pixel
correspondence either way so per-point labels can be recovered from per-pixel
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud_io import LabelArray, PointCloud, RangeImage

DEFAULT_H = 64
DEFAULT_W = 2048
DEFAULT_JUMP_THRESHOLD = math.radians(0.3)


@dataclass
class IndexMap:
    """Correspondence between points and pixels for one projection.

    ``pixel_to_point`` holds the winning point index per pixel (-1 where the
    pixel is empty). ``point_to_pixel`` holds (row, col) per point, including
    occluded points, which keep the pixel they lost; out-of-range points hold
    (-1, -1). ``occluded`` lists in-range points that were displaced by a
    nearer point.
    """

    pixel_to_point: np.ndarray
    point_to_pixel: np.ndarray
    occluded: np.ndarray

    @property
    def n_points(self) -> int:
        return self.point_to_pixel.shape[0]


@dataclass(frozen=True)
class OcclusionStats:
    n_points: int
    n_projected: int
    n_occluded: int
    n_out_of_range: int


def _azimuth(points: np.ndarray) -> np.ndarray:
    on_axis = (points[:, 0] == 0.0) & (points[:, 1] == 0.0)
    if on_axis.any():
        raise ValueError(
            f"azimuth undefined for point {int(np.flatnonzero(on_axis)[0])} on the z axis"
        )
    return np.arctan2(points[:, 1].astype(np.float64), points[:, 0].astype(np.float64))


def get_columns(cloud: PointCloud, w: int = DEFAULT_W) -> np.ndarray:
    """Column index per point: floor(W * (pi - azimuth) / 2pi), wrapped into [0, W)."""
    phi = _azimuth(cloud.points)
    cols = np.floor(w * (np.pi - phi) / (2.0 * np.pi)).astype(np.int64)
    return (cols % w).astype(np.int32)


def get_rows(
    cloud: PointCloud,
    threshold: float = DEFAULT_JUMP_THRESHOLD,
    mode: str = "literal",
) -> np.ndarray:
    """Scan line index per point, recovered from azimuth jumps.

    ``literal`` flags a new line whenever |delta azimuth| between consecutive
    points exceeds ``threshold`` (radians; must exceed the sensor's azimuth
    step). ``robust`` flags one only when the azimuth wraps by more than pi,
    which dropped-return gaps inside a line cannot fake.
    """
    phi = _azimuth(cloud.points)
    delta = np.abs(phi[1:] - phi[:-1])
    if mode == "literal":
        jump = delta > threshold
    elif mode == "robust":
        jump = delta > np.pi
    else:
        raise ValueError(f"unknown row recovery mode {mode!r}")
    rows = np.zeros(len(cloud), dtype=np.int32)
    np.cumsum(jump, out=rows[1:])
    return rows


def _scatter_nearest(
    cloud: PointCloud,
    labels: LabelArray | None,
    rows: np.ndarray,
    cols: np.ndarray,
    in_range: np.ndarray,
    h: int,
    w: int,
) -> tuple[RangeImage, IndexMap]:
    """Nearest-wins scatter shared by both projections.

    Points are written in decreasing depth order (stable, so equal depths are
    resolved by original index); the last write per pixel is the winner.
    """
    n = len(cloud)
    depth = np.linalg.norm(cloud.points.astype(np.float64), axis=1).astype(np.float32)

    point_to_pixel = np.full((n, 2), -1, dtype=np.int32)
    point_to_pixel[in_range, 0] = rows[in_range]
    point_to_pixel[in_range, 1] = cols[in_range]

    order = np.argsort(-depth, kind="stable")
    ordered = order[in_range[order]]

    # the winner of a pixel is the last ordered point that lands on it
    lin = rows[ordered].astype(np.int64) * w + cols[ordered]
    rev = lin[::-1]
    _, first_rev = np.unique(rev, return_index=True)
    winners = ordered[::-1][first_rev]

    pixel_to_point = np.full((h, w), -1, dtype=np.int32)
    pixel_to_point[rows[winners], cols[winners]] = winners

    is_winner = np.zeros(n, dtype=bool)
    is_winner[winners] = True
    occluded = np.flatnonzero(in_range & ~is_winner).astype(np.int32)

    img = RangeImage(
        depth=np.zeros((h, w), dtype=np.float32),
        reflectance=np.zeros((h, w), dtype=np.float32),
        label=np.zeros((h, w), dtype=np.int32),
        mask=np.zeros((h, w), dtype=bool),
    )
    r, c = rows[winners], cols[winners]
    img.depth[r, c] = depth[winners]
    img.reflectance[r, c] = cloud.reflectance[winners]
    img.mask[r, c] = True
    if labels is not None:
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} points")
        img.label[r, c] = labels.semantic[winners]
    return img, IndexMap(pixel_to_point=pixel_to_point, point_to_pixel=point_to_pixel, occluded=occluded)


def unfold_scan(
    cloud: PointCloud,
    labels: LabelArray | None = None,
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
    threshold: float = DEFAULT_JUMP_THRESHOLD,
    mode: str = "literal",
) -> tuple[RangeImage, IndexMap]:
    """Project an acquisition-ordered cloud by unfolding its scan lines.

    Rows come from ``get_rows``; rows past ``h - 1`` mark their points out of
    range rather than clipping into the image.
    """
    rows = get_rows(cloud, threshold, mode)
    cols = get_columns(cloud, w)
    in_range = rows < h
    return _scatter_nearest(cloud, labels, rows, cols, in_range, h, w)


def project_ego_corrected(
    cloud: PointCloud,
    labels: LabelArray | None = None,
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
    fov_up: float = 3.0,
    fov_down: float = -25.0,
) -> tuple[RangeImage, IndexMap]:
    """Spherical projection binning rows by elevation (degrees, up > down).

    Rows are clamped into the grid, so no point is out of range here; the
    price of projecting a motion-corrected cloud is paid in occlusions
    instead.
    """
    if not fov_down < fov_up:
        raise ValueError("fov_down must be below fov_up")
    pts = cloud.points.astype(np.float64)
    depth = np.linalg.norm(pts, axis=1)
    if (depth == 0).any():
        raise ValueError("point at the sensor origin cannot be projected")
    elev = np.degrees(np.arcsin(np.clip(pts[:, 2] / depth, -1.0, 1.0)))
    rows_f = np.floor(h * (1.0 - (elev - fov_down) / (fov_up - fov_down)))
    rows = np.clip(rows_f, 0, h - 1).astype(np.int32)
    cols = get_columns(cloud, w)
    in_range = np.ones(len(cloud), dtype=bool)
    return _scatter_nearest(cloud, labels, rows, cols, in_range, h, w)


def occlusion_stats(index_map: IndexMap) -> OcclusionStats:
    """Count winners, occluded, and out-of-range points of one projection."""
    n = index_map.n_points
    n_projected = int((index_map.pixel_to_point >= 0).sum())
    n_occluded = int(index_map.occluded.shape[0])
    n_out = int((index_map.point_to_pixel[:, 0] < 0).sum())
    if n_projected + n_occluded + n_out != n:
        raise ValueError(
            f"inconsistent index map: projected {n_projected} + occluded {n_occluded} "
            f"+ out_of_range {n_out} != {n} points"
        )
    return OcclusionStats(n, n_projected, n_occluded, n_out)


def backproject_labels(index_map: IndexMap, label_image: np.ndarray, n: int) -> np.ndarray:
    """Per-point class ids from a per-pixel label image.

    Every in-range point takes the label of its pixel, occluded points
    included (they inherit whatever their occluder's pixel says); out-of-range
    points get 0.
    """
    if n != index_map.n_points:
        raise ValueError(f"expected {index_map.n_points} points, got {n}")
    if label_image.shape != index_map.pixel_to_point.shape:
        raise ValueError(
            f"label image {label_image.shape} does not match grid {index_map.pixel_to_point.shape}"
        )
    out = np.zeros(n, dtype=np.int32)
    valid = index_map.point_to_pixel[:, 0] >= 0
    r = index_map.point_to_pixel[valid, 0]
    c = index_map.point_to_pixel[valid, 1]
    out[valid] = label_image[r, c]
    return out
