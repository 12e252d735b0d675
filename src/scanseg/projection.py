"""Point list to range image projections.

Two projections are provided. ``unfold_scan`` reconstructs the sensor's
native row-major image from the acquisition order alone, so it has no
systematic occlusions. ``project_ego_corrected`` is the spherical proxy used
for motion-compensated clouds, binning rows by elevation; it trades the
native layout for mutual occlusions whenever the cloud was captured from more
than one pose.

Unfolding has one row rule, with no parameter: a new scan line starts where
the azimuth rises. The cloud lists the lines one after another, each in
firing order. Within a line the head turns clockwise from the rear cut at +pi
(the origin of the columns too), so the azimuth falls strictly from one
return to the next, however many returns a gap drops. Each line starts again
after the rear cut, so from one line's last return to the next line's first
the azimuth rises, as long as the next line's first return fires before the
last one. That is the rule's one blind spot: a line whose returns all come
before the next line's first return, in firing order, merges with it. A line
with no returns at all leaves no trace in the order, and the lines after it
move up one row.

Both let the nearest point win each pixel in two linear passes over the
in-range points, with no sort: a scatter-min (``np.minimum.at``) of the
float32 depth over flat pixel ids finds each pixel's nearest depth, and a
scatter-max (``np.maximum.at``) of the point index over the points at that
depth picks the winner, so an exact depth tie goes to the later index.
Displaced points are recorded as occluded, and points whose row falls outside
the grid as out of range. The IndexMap keeps the full point/pixel
correspondence either way so per-point labels can be recovered from
per-pixel predictions.

Both reject a grid height ``h`` or width ``w`` below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud_io import LabelArray, PointCloud, RangeImage

DEFAULT_H = 64
DEFAULT_W = 2048
PROJECTIONS = ("unfold", "ego")  # unfold_scan, project_ego_corrected


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
    return _columns(_azimuth(cloud.points), w)


def _columns(phi: np.ndarray, w: int) -> np.ndarray:
    cols = np.floor(w * (np.pi - phi) / (2.0 * np.pi)).astype(np.int64)
    return (cols % w).astype(np.int32)


def get_rows(cloud: PointCloud) -> np.ndarray:
    """Scan line index per point: a new line starts where the azimuth rises."""
    return _rows(_azimuth(cloud.points))


def _rows(phi: np.ndarray) -> np.ndarray:
    rows = np.zeros(len(phi), dtype=np.int32)
    np.cumsum(phi[1:] > phi[:-1], out=rows[1:])
    return rows


def _ranges(cloud: PointCloud) -> np.ndarray:
    """Float64 distance of each point from the sensor origin.

    ``sqrt(x*x + y*y + z*z)`` over float64 columns sums in the order
    ``np.linalg.norm(axis=1)`` does, so the bits are the same.
    """
    x, y, z = cloud.points.astype(np.float64).T
    return np.sqrt(x * x + y * y + z * z)


def _check_grid(h: int, w: int) -> None:
    for name, size in (("h", h), ("w", w)):
        if size < 1:
            raise ValueError(f"grid size {name} must be at least 1, got {size}")


def _scatter_nearest(
    cloud: PointCloud,
    labels: LabelArray | None,
    ranges: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    in_range: np.ndarray,
    h: int,
    w: int,
) -> tuple[RangeImage, IndexMap]:
    """Nearest-wins scatter shared by both projections.

    Each pixel goes to the in-range point of least float32 depth landing on
    it, and among equal depths to the one of largest index.
    """
    n = len(cloud)
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    depth = ranges.astype(np.float32)

    point_to_pixel = np.empty((n, 2), dtype=np.int32)
    point_to_pixel[:, 0] = np.where(in_range, rows, -1)
    point_to_pixel[:, 1] = np.where(in_range, cols, -1)

    ids = np.flatnonzero(in_range)
    pixels = rows[ids].astype(np.int64) * w + cols[ids]
    id_depth = depth[ids]
    nearest = np.full(h * w, np.inf, dtype=np.float32)
    np.minimum.at(nearest, pixels, id_depth)
    # flat pixel id -> largest index among its nearest points; winners in
    # pixel-id order
    at_nearest = id_depth == nearest[pixels]
    top = np.full(h * w, -1, dtype=np.int64)
    np.maximum.at(top, pixels[at_nearest], ids[at_nearest])
    taken = top >= 0
    winners = top[taken]

    is_winner = np.zeros(n, dtype=bool)
    is_winner[winners] = True
    occluded = np.flatnonzero(in_range & ~is_winner).astype(np.int32)

    def plane(fill, values, dtype):
        out = np.full(h * w, fill, dtype=dtype)
        out[taken] = values
        return out.reshape(h, w)

    img = RangeImage(
        depth=plane(0, depth[winners], np.float32),
        reflectance=plane(0, cloud.reflectance[winners], np.float32),
        label=plane(0, 0 if labels is None else labels.semantic[winners], np.int32),
        mask=taken.reshape(h, w),
    )
    index_map = IndexMap(pixel_to_point=plane(-1, winners, np.int32), point_to_pixel=point_to_pixel, occluded=occluded)
    return img, index_map


def unfold_scan(
    cloud: PointCloud,
    labels: LabelArray | None = None,
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
    mode: str = "robust",
) -> tuple[RangeImage, IndexMap]:
    """Project an acquisition-ordered cloud by unfolding its scan lines.

    Rows come from ``get_rows``; rows past ``h - 1`` mark their points out of
    range rather than clipping into the image. ``mode`` stays only for
    ``scanbench``, which passes ``mode="robust"``; no other value is accepted.
    """
    if mode != "robust":
        raise ValueError(f"unfold_scan has one row rule: mode must be 'robust', got {mode!r}")
    _check_grid(h, w)
    phi = _azimuth(cloud.points)  # once for both rows and columns
    rows = _rows(phi)
    cols = _columns(phi, w)
    in_range = rows < h
    return _scatter_nearest(cloud, labels, _ranges(cloud), rows, cols, in_range, h, w)


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
    _check_grid(h, w)
    if not fov_down < fov_up:
        raise ValueError("fov_down must be below fov_up")
    ranges = _ranges(cloud)
    if (ranges == 0).any():
        raise ValueError("point at the sensor origin cannot be projected")
    elev = np.degrees(np.arcsin(np.clip(cloud.points[:, 2].astype(np.float64) / ranges, -1.0, 1.0)))
    rows_f = np.floor(h * (1.0 - (elev - fov_down) / (fov_up - fov_down)))
    rows = np.clip(rows_f, 0, h - 1).astype(np.int32)
    cols = get_columns(cloud, w)
    in_range = np.ones(len(cloud), dtype=bool)
    return _scatter_nearest(cloud, labels, ranges, rows, cols, in_range, h, w)


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
