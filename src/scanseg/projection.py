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

Both let the nearest point win each pixel in one linear pass, with no sort:
each point's key packs the complement of its float32 depth's bits above its
index, and a scatter-max (``np.maximum.at``) of the keys over flat pixel ids
leaves each pixel its nearest point, the later index on an exact depth tie.
Each point's azimuth and range come from one pass over its float64 columns,
and every intermediate is computed in place where it can be, so a
projection allocates few full-length arrays beyond its outputs. Displaced
points are recorded as occluded, and points whose row falls outside
the grid as out of range. The IndexMap keeps the full point/pixel
correspondence either way so per-point labels can be recovered from
per-pixel predictions.

Both reject a grid height ``h`` or width ``w`` but an int of at least 1,
and a cloud with a point on the z axis, a NaN or inf, or a range that
rounds past float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud_io import RANGE_LIMIT, LabelArray, PointCloud, RangeImage, is_finite_real, is_int

DEFAULT_H = 64
DEFAULT_W = 2048
DEFAULT_FOV_UP = 3.0  # degrees, the top of the vertical field of view
DEFAULT_FOV_DOWN = -25.0  # degrees, its bottom
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


def _polar(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and float64 distance from the sensor origin of each point.

    The range is ``sqrt(x*x + y*y + z*z)`` over float64 columns, which sums
    in the order ``np.linalg.norm(axis=1)`` does, so the bits are the same.
    The squares reuse the buffers of the columns they square. A point on the
    z axis, or one whose range is NaN or past the float32 range (a cloud
    edited in place after ``PointCloud`` checked it), is rejected.
    """
    x = points[:, 0].astype(np.float64)
    y = points[:, 1].astype(np.float64)
    phi = np.arctan2(y, x)
    ranges = np.multiply(x, x, out=x)
    ranges += np.multiply(y, y, out=y)
    # a float32 square never underflows in float64, so x*x + y*y is 0
    # exactly on the z axis
    if not ranges.all():
        raise ValueError(f"azimuth undefined for point {int(np.flatnonzero(ranges == 0.0)[0])} on the z axis")
    z = y
    np.copyto(z, points[:, 2])
    ranges += np.multiply(z, z, out=z)
    np.sqrt(ranges, out=ranges)
    # NaN fails the test too
    if ranges.size and not ranges.max() < RANGE_LIMIT:
        raise ValueError(f"range of point {int(np.flatnonzero(~(ranges < RANGE_LIMIT))[0])} is not a finite float32")
    return phi, ranges


def _columns(phi: np.ndarray, w: int) -> np.ndarray:
    """Columns of the azimuths ``phi``, which this overwrites. The floor lies
    in [0, w]; w, reached only at phi = -pi or within rounding of it, wraps
    to 0."""
    cols = np.subtract(np.pi, phi, out=phi)
    cols *= w
    cols /= 2.0 * np.pi
    cols = np.floor(cols, out=cols).astype(np.int32)
    cols[cols == w] = 0
    return cols


def _rows(phi: np.ndarray) -> np.ndarray:
    starts = np.flatnonzero(phi[1:] > phi[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=phi.size)
    return np.repeat(np.arange(lengths.size, dtype=np.int32), lengths)


def _check_grid(h: int, w: int) -> None:
    for name, size in (("h", h), ("w", w)):
        if not is_int(size):
            raise ValueError(f"grid size {name} must be an int, got {size!r}")
        if size < 1:
            raise ValueError(f"grid size {name} must be at least 1, got {size}")


def _pixel_winners(depth: np.ndarray, rows: np.ndarray, cols: np.ndarray, out_of_range: np.ndarray, h: int, w: int) -> np.ndarray:
    """Winning point per flat pixel id, -1 where no in-range point lands.

    Each point gets one uint64 key, the complement of its float32 depth's
    bits above its index. A depth is never negative, so its bits order as it
    does: the largest key landing on a pixel is that of its nearest point,
    and on an exact depth tie that of the later point. An empty pixel keeps
    2**32 - 1, below every key, whose low 32 bits read as int32 are -1, as a
    winner's read as its index.
    """
    pixels = np.multiply(rows, w, dtype=np.intp)
    pixels += cols
    pixels[out_of_range] = h * w  # one extra slot, dropped below
    key = np.left_shift(np.invert(depth.view(np.uint32)), 32, dtype=np.uint64)
    key |= np.arange(depth.size, dtype=np.uint32)
    top = np.full(h * w + 1, 2**32 - 1, dtype=np.uint64)
    np.maximum.at(top, pixels, key)
    return top[:-1].astype(np.uint32).view(np.int32)


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
    it, and among equal depths to the one of largest index. ``ranges`` are
    the points' distances, in float32 already or rounded to it here.
    """
    n = len(cloud)
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    if not np.isfinite(cloud.reflectance).all():
        raise ValueError(f"non-finite reflectance of point {int(np.flatnonzero(~np.isfinite(cloud.reflectance))[0])}")
    depth = ranges.astype(np.float32, copy=False)
    out_of_range = ~in_range

    point_to_pixel = np.empty((n, 2), dtype=np.int32)
    point_to_pixel[:, 0] = rows
    point_to_pixel[:, 1] = cols
    point_to_pixel[out_of_range] = -1

    pixel_to_point = _pixel_winners(depth, rows, cols, out_of_range, h, w)
    empty = pixel_to_point < 0
    out_of_range[pixel_to_point[~empty]] = True  # now marks every point but the occluded
    occluded = np.flatnonzero(~out_of_range).astype(np.int32)

    def plane(values, dtype):
        if n == 0:
            return np.zeros((h, w), dtype)
        # an empty pixel's -1 takes the last point's value: zeroed after
        out = values.take(pixel_to_point, mode="wrap").astype(dtype, copy=False)
        out[empty] = 0
        return out.reshape(h, w)

    img = RangeImage(
        depth=plane(depth, np.float32),
        reflectance=plane(cloud.reflectance, np.float32),
        label=np.zeros((h, w), np.int32) if labels is None else plane(labels.semantic, np.int32),
        mask=~empty.reshape(h, w),
    )
    index_map = IndexMap(pixel_to_point=pixel_to_point.reshape(h, w), point_to_pixel=point_to_pixel, occluded=occluded)
    return img, index_map


def unfold_scan(
    cloud: PointCloud,
    labels: LabelArray | None = None,
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
    mode: str = "robust",
) -> tuple[RangeImage, IndexMap]:
    """Project an acquisition-ordered cloud by unfolding its scan lines.

    A point's row is its scan line: a new line starts where the azimuth
    rises. Its column is floor(w * (pi - azimuth) / 2pi), wrapped into
    [0, w). Rows past ``h - 1`` mark their points out of range rather than
    clipping into the image. ``mode`` stays only for ``scanbench``, which
    passes ``mode="robust"``; no other value is accepted.
    """
    if mode != "robust":
        raise ValueError(f"unfold_scan has one row rule: mode must be 'robust', got {mode!r}")
    _check_grid(h, w)
    phi, ranges = _polar(cloud.points)
    rows = _rows(phi)
    cols = _columns(phi, w)
    depth = ranges.astype(np.float32)
    del phi, ranges  # the float64 columns are done with before the scatter
    return _scatter_nearest(cloud, labels, depth, rows, cols, rows < h, h, w)


def _elevation_rows(z: np.ndarray, ranges: np.ndarray, h: int, fov_up: float, fov_down: float) -> np.ndarray:
    """Row of each point's elevation, floor(h * (1 - (elev - fov_down) /
    (fov_up - fov_down))) with elev in degrees, clamped into [0, h)."""
    rows = z.astype(np.float64)
    rows /= ranges
    np.clip(rows, -1.0, 1.0, out=rows)
    np.degrees(np.arcsin(rows, out=rows), out=rows)
    rows -= fov_down
    rows /= fov_up - fov_down
    np.subtract(1.0, rows, out=rows)
    rows *= h
    np.floor(rows, out=rows)
    return np.clip(rows, 0, h - 1, out=rows).astype(np.int32)


def project_ego_corrected(
    cloud: PointCloud,
    labels: LabelArray | None = None,
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
    fov_up: float = DEFAULT_FOV_UP,
    fov_down: float = DEFAULT_FOV_DOWN,
) -> tuple[RangeImage, IndexMap]:
    """Spherical projection binning rows by elevation (degrees, up > down).

    Rows are clamped into the grid, so no point is out of range here; the
    price of projecting a motion-corrected cloud is paid in occlusions
    instead. A point on the z axis, the sensor origin included, has no
    azimuth and is rejected.
    """
    _check_grid(h, w)
    if not (is_finite_real(fov_up) and is_finite_real(fov_down)):
        raise ValueError(f"fov_up and fov_down must be finite reals, got {fov_up!r} and {fov_down!r}")
    if not fov_down < fov_up:
        raise ValueError("fov_down must be below fov_up")
    phi, ranges = _polar(cloud.points)
    rows = _elevation_rows(cloud.points[:, 2], ranges, h, fov_up, fov_down)
    cols = _columns(phi, w)
    depth = ranges.astype(np.float32)
    del phi, ranges  # the float64 columns are done with before the scatter
    in_range = np.ones(len(cloud), dtype=bool)
    return _scatter_nearest(cloud, labels, depth, rows, cols, in_range, h, w)


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
