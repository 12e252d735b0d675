"""Point cloud, label, and range image file formats.

Three on-disk formats are handled here:

* ``.bin``   -- packed little-endian float32 quadruplets ``(x, y, z, reflectance)``,
  one quadruplet per point, in acquisition order.
* ``.label`` -- packed little-endian uint32 words, one per point; the low 16 bits
  hold the semantic class id, the high 16 bits an instance id.
* ``.rimg``  -- range image container: a 16-byte header (magic ``RIMG``, version,
  height, width as little-endian uint32), a channel directory, then one plane per
  channel. Float channels are stored as little-endian float32 planes, the validity
  mask as one byte per pixel. Round-trips are bit-exact.

All parsers take raw ``bytes`` so they stay pure; ``load_*``/``save_*`` helpers
wrap them for paths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RIMG_MAGIC = b"RIMG"
RIMG_VERSION = 1

# channel directory entry kinds
_KIND_F32 = 0
_KIND_U8 = 1


class FormatError(ValueError):
    """Raised when an input byte stream violates one of the file formats."""


@dataclass
class PointCloud:
    """An ordered list of LiDAR returns in the sensor frame.

    ``points`` has shape (N, 3) and ``reflectance`` shape (N,), all finite;
    the order is the acquisition order of the sensor and must never be
    shuffled, since the scan unfolding projection relies on it.
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
        finite = np.isfinite(self.points).all(axis=1) & np.isfinite(self.reflectance)
        if not finite.all():
            raise ValueError(f"non-finite value in point {int(np.flatnonzero(~finite)[0])}")

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
    false, depth is 0 and label is 0 (unlabeled). Labels are small class ids.
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

    The stream length must be divisible by 16 (four float32 per point) and all
    values must be finite.
    """
    if len(data) % 16 != 0:
        raise FormatError(f"point stream length {len(data)} not divisible by 16")
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    try:
        return PointCloud(points=raw[:, :3].copy(), reflectance=raw[:, 3].copy())
    except ValueError as exc:  # non-finite values, named by PointCloud
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
    return words.astype("<u4").tobytes()


def _channel_planes(img: RangeImage):
    return [
        ("depth", _KIND_F32, img.depth),
        ("reflectance", _KIND_F32, img.reflectance),
        ("label", _KIND_F32, img.label.astype("<f4")),
        ("mask", _KIND_U8, img.mask.astype(np.uint8)),
    ]


def write_range_image_bytes(img: RangeImage) -> bytes:
    h, w = img.shape
    out = [RIMG_MAGIC, struct.pack("<III", RIMG_VERSION, h, w)]
    planes = _channel_planes(img)
    out.append(struct.pack("<I", len(planes)))
    for name, kind, _ in planes:
        enc = name.encode("ascii")
        out.append(struct.pack("<BB", len(enc), kind))
        out.append(enc)
    for _, kind, plane in planes:
        if kind == _KIND_F32:
            out.append(np.ascontiguousarray(plane, dtype="<f4").tobytes())
        else:
            out.append(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    return b"".join(out)


def read_range_image_bytes(data: bytes) -> RangeImage:
    """Decode a ``RIMG`` container; raises FormatError on bad magic/version
    or truncation."""
    if len(data) < 16:
        raise FormatError("truncated range image: header incomplete")
    if data[:4] != RIMG_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {RIMG_MAGIC!r}")
    version, h, w = struct.unpack("<III", data[4:16])
    if version != RIMG_VERSION:
        raise FormatError(f"unsupported container version {version}")
    off = 16
    try:
        (n_channels,) = struct.unpack_from("<I", data, off)
        off += 4
        directory = []
        for _ in range(n_channels):
            name_len, kind = struct.unpack_from("<BB", data, off)
            off += 2
            name = data[off : off + name_len].decode("ascii")
            if len(name) != name_len:
                raise struct.error
            off += name_len
            directory.append((name, kind))
    except struct.error:
        raise FormatError("truncated range image: channel directory incomplete")

    planes = {}
    for name, kind in directory:
        if kind == _KIND_F32:
            nbytes = h * w * 4
            dtype = "<f4"
        elif kind == _KIND_U8:
            nbytes = h * w
            dtype = np.uint8
        else:
            raise FormatError(f"unknown channel kind {kind} for {name!r}")
        if off + nbytes > len(data):
            raise FormatError(f"truncated range image: plane {name!r} incomplete")
        planes[name] = np.frombuffer(data, dtype=dtype, count=h * w, offset=off).reshape(h, w)
        off += nbytes

    missing = {"depth", "reflectance", "label", "mask"} - planes.keys()
    if missing:
        raise FormatError(f"container is missing channels: {sorted(missing)}")
    return RangeImage(
        depth=planes["depth"].copy(),
        reflectance=planes["reflectance"].copy(),
        label=planes["label"].astype(np.int32),
        mask=planes["mask"].astype(bool),
    )


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
