"""Point cloud, label, and range image file formats.

Three on-disk formats are handled here:

* ``.bin``   -- packed little-endian float32 quadruplets ``(x, y, z, reflectance)``,
  one quadruplet per point, in acquisition order.
* ``.label`` -- packed little-endian uint32 words, one per point; the low 16 bits
  hold the semantic class id, the high 16 bits an instance id.
* ``.rimg``  -- range image container with one fixed layout: a 16-byte header
  (magic ``RIMG``, version, height, width as little-endian uint32), the constant
  37-byte channel directory ``RIMG_DIRECTORY``, then the depth, reflectance and
  label planes as little-endian float32 and the validity mask as one byte per
  pixel, each row-major. A container is exactly ``53 + 13 * h * w`` bytes long.
  Round-trips are bit-exact.

All parsers take raw ``bytes`` so they stay pure; ``load_*``/``save_*`` helpers
wrap them for paths.

``check_fields`` is the config dataclasses' one kind check, here because
every module that defines one imports this one.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# a float64 below this rounds to a finite float32: float32's largest value
# is 2**128 - 2**104, and from half an ulp above it a value rounds to inf
RANGE_LIMIT = 2.0**128 - 2.0**103
RIMG_MAGIC = b"RIMG"
RIMG_VERSION = 1
# channel count, then per channel: name length, kind (0 float32, 1 uint8), name
RIMG_DIRECTORY = struct.pack("<I", 4) + b"\x05\x00depth\x0b\x00reflectance\x05\x00label\x04\x01mask"
_RIMG_HEADER = 16 + len(RIMG_DIRECTORY)


class FormatError(ValueError):
    """Raised when an input byte stream violates one of the file formats."""


def is_int(value) -> bool:
    """An integral value that is not a bool; an int skips the ABC check."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real, not a bool, finite as a float (an int included); a float skips the ABC check."""
    try:
        return (isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _accepts(hint):
    """A predicate for the values of the annotation ``hint`` (see ``check_fields``)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    members = [_accepts(a) for a in args if a is not Ellipsis]
    if hint in (int, float):
        return is_int if hint is int else is_finite_real
    if origin in (typing.Union, types.UnionType):
        return lambda v: any(m(v) for m in members)
    if origin is tuple and args[-1] is Ellipsis:
        return lambda v: isinstance(v, tuple) and all(map(members[0], v))
    if origin is tuple:
        return lambda v: isinstance(v, tuple) and len(v) == len(members) and all(m(x) for m, x in zip(members, v))
    if origin is dict:
        return lambda v: isinstance(v, dict) and all(members[0](k) and members[1](x) for k, x in v.items())
    return lambda v: isinstance(v, hint)


@functools.cache
def _field_checks(cls) -> list:
    """(name, annotation as written, predicate) per field of ``cls``, once per class."""
    hints = typing.get_type_hints(cls)
    return [(f.name, f.type, _accepts(hints[f.name])) for f in fields(cls)]


def check_fields(obj) -> None:
    """Check each field of the dataclass ``obj`` against its annotation; a
    wrong kind raises a ValueError naming class and field. ``int`` takes an
    integral non-bool, ``float`` a finite real non-bool (an int included),
    ``tuple[X, ...]`` and ``tuple[X, Y, Z]`` tuples item by item, ``dict[K,
    V]`` dicts key and value alike, a union what any member takes, and any
    other class its instances. A list whose tuple passes is stored as that
    tuple, the one conversion made."""
    for name, kind, accepts in _field_checks(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, list) and accepts(tuple(value)):
            object.__setattr__(obj, name, tuple(value))
        elif not accepts(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be {kind}, got {value!r}")


@dataclass
class PointCloud:
    """An ordered list of LiDAR returns in the sensor frame.

    ``points`` has shape (N, 3) and ``reflectance`` shape (N,), all finite,
    and each point's float64 range ``sqrt(x*x + y*y + z*z)`` rounds to a
    finite float32, as the projections need; a point that breaks either is
    named by index. The order is the acquisition order of the sensor and
    must never be shuffled, since the scan unfolding projection relies on it.
    """

    points: np.ndarray
    reflectance: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32).reshape(-1, 3)
        self.reflectance = np.asarray(self.reflectance, dtype=np.float32).reshape(-1)
        if self.points.shape[0] != self.reflectance.shape[0]:
            raise ValueError(
                f"point/reflectance length mismatch: {self.points.shape[0]} vs "
                f"{self.reflectance.shape[0]}"
            )
        # a min and a max per array screen an ordinary cloud without a
        # temporary: no coordinate at half the limit or above in magnitude
        # puts every range below it (sqrt(3) < 2), and NaN fails the test too
        points, reflectance, half = self.points, self.reflectance, RANGE_LIMIT / 2
        if points.size and not (
            -half < points.min() and points.max() < half and np.isfinite(reflectance.min()) and np.isfinite(reflectance.max())
        ):
            finite = np.isfinite(points).all(axis=1) & np.isfinite(reflectance)
            if not finite.all():
                raise ValueError(f"non-finite value in point {int(np.flatnonzero(~finite)[0])}")
            x, y, z = points.T.astype(np.float64)
            # the projections' float64 range, summed in their order
            far = ~(np.sqrt(x * x + y * y + z * z) < RANGE_LIMIT)
            if far.any():
                raise ValueError(f"range of point {int(np.flatnonzero(far)[0])} rounds past float32")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class LabelArray:
    """Per-point semantic and instance ids (instance ids are carried, unused)."""

    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self):
        self.semantic = np.asarray(self.semantic, dtype=np.uint16).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.uint16).reshape(-1)
        if self.semantic.shape != self.instance.shape:
            raise ValueError("semantic/instance length mismatch")

    def __len__(self) -> int:
        return self.semantic.shape[0]


@dataclass
class RangeImage:
    """H x W grid of projected returns.

    Invariants: ``depth > 0`` wherever ``mask`` is true; where the mask is
    false, depth is 0 and label is 0 (unlabeled). Labels are class ids, never
    negative.
    """

    depth: np.ndarray
    reflectance: np.ndarray
    label: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float32)
        self.reflectance = np.asarray(self.reflectance, dtype=np.float32)
        self.label = np.asarray(self.label, dtype=np.int32)
        self.mask = np.asarray(self.mask, dtype=bool)
        shapes = {a.shape for a in (self.depth, self.reflectance, self.label, self.mask)}
        if len(shapes) != 1 or self.depth.ndim != 2:
            raise ValueError(f"inconsistent plane shapes: {shapes}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def read_point_cloud(data: bytes) -> PointCloud:
    """Decode a ``.bin`` byte stream into a PointCloud.

    The stream length must be divisible by 16 (four float32 per point), all
    values must be finite and every point's range must round to a finite
    float32.
    """
    if len(data) % 16 != 0:
        raise FormatError(f"point stream length {len(data)} not divisible by 16")
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    try:
        return PointCloud(points=raw[:, :3].copy(), reflectance=raw[:, 3].copy())
    except ValueError as exc:  # a non-finite value or range, named by PointCloud
        raise FormatError(str(exc)) from exc


def write_point_cloud(cloud: PointCloud) -> bytes:
    raw = np.empty((len(cloud), 4), dtype="<f4")
    raw[:, :3] = cloud.points
    raw[:, 3] = cloud.reflectance
    return raw.tobytes()


def read_labels(data: bytes) -> LabelArray:
    """Decode a ``.label`` byte stream; low 16 bits semantic, high 16 instance."""
    if len(data) % 4 != 0:
        raise FormatError(f"label stream length {len(data)} not divisible by 4")
    words = np.frombuffer(data, dtype="<u4")
    return LabelArray(
        semantic=(words & 0xFFFF).astype(np.uint16),
        instance=(words >> 16).astype(np.uint16),
    )


def write_labels(labels: LabelArray) -> bytes:
    words = labels.instance.astype("<u4") << 16 | labels.semantic.astype("<u4")
    return words.astype("<u4", copy=False).tobytes()


def write_range_image_bytes(img: RangeImage) -> bytes:
    h, w = img.shape
    # bytes.join reads each contiguous plane through the buffer protocol
    planes = [np.ascontiguousarray(p, dtype="<f4") for p in (img.depth, img.reflectance, img.label)]
    mask = np.ascontiguousarray(img.mask, dtype=np.uint8)
    return b"".join([RIMG_MAGIC, struct.pack("<III", RIMG_VERSION, h, w), RIMG_DIRECTORY, *planes, mask])


def _reject_pixels(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise FormatError(f"{what} at pixel {int(np.flatnonzero(bad)[0])} (row-major)")


def read_range_image_bytes(data: bytes) -> RangeImage:
    """Decode a ``RIMG`` container; raises FormatError on bad magic, version or
    channel directory, on any length but ``53 + 13 * h * w``, and on planes
    that break the ``RangeImage`` invariants: a label that is not an int32
    integer or is negative, a mask byte other than 0 or 1, a masked depth
    not above 0, a masked reflectance not finite, or a nonzero depth, label
    or reflectance off the mask."""
    if len(data) < _RIMG_HEADER:
        raise FormatError("truncated range image: header incomplete")
    if data[:4] != RIMG_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {RIMG_MAGIC!r}")
    version, h, w = struct.unpack("<III", data[4:16])
    if version != RIMG_VERSION:
        raise FormatError(f"unsupported container version {version}")
    if data[16:_RIMG_HEADER] != RIMG_DIRECTORY:
        raise FormatError("channel directory is not depth, reflectance, label (float32), mask (uint8)")
    n = h * w
    expected = _RIMG_HEADER + 13 * n
    if len(data) != expected:
        what = "truncated range image" if len(data) < expected else "trailing bytes after range image"
        raise FormatError(f"{what}: {len(data)} bytes, {h}x{w} needs {expected}")
    depth, reflectance, label = np.frombuffer(data, dtype="<f4", count=3 * n, offset=_RIMG_HEADER).reshape(3, h, w)
    mask = np.frombuffer(data, dtype=np.uint8, count=n, offset=_RIMG_HEADER + 12 * n).reshape(h, w)
    # NaN fails every comparison, so each test is written to pass only good values
    _reject_pixels(mask > 1, "mask byte other than 0 or 1")
    on = mask.view(bool)
    int32_label = (label >= -(2.0**31)) & (label < 2.0**31) & (np.trunc(label) == label)
    _reject_pixels(~int32_label, "label not an int32 integer")
    _reject_pixels(label < 0, "negative label")
    _reject_pixels(on & ~(depth > 0), "masked depth not above 0")
    _reject_pixels(~on & ((depth != 0) | (label != 0)), "nonzero depth or label off the mask")
    _reject_pixels(on & ~np.isfinite(reflectance), "masked reflectance not finite")
    _reject_pixels(~on & (reflectance != 0), "nonzero reflectance off the mask")
    return RangeImage(depth=depth.copy(), reflectance=reflectance.copy(), label=label.astype(np.int32), mask=on.copy())


def load_point_cloud(path) -> PointCloud:
    return read_point_cloud(Path(path).read_bytes())


def save_point_cloud(cloud: PointCloud, path) -> None:
    Path(path).write_bytes(write_point_cloud(cloud))


def load_labels(path) -> LabelArray:
    return read_labels(Path(path).read_bytes())


def save_labels(labels: LabelArray, path) -> None:
    Path(path).write_bytes(write_labels(labels))


def load_range_image(path) -> RangeImage:
    return read_range_image_bytes(Path(path).read_bytes())


def save_range_image(img: RangeImage, path) -> None:
    Path(path).write_bytes(write_range_image_bytes(img))
