import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseg.cloud_io import (
    FormatError,
    LabelArray,
    PointCloud,
    RangeImage,
    read_labels,
    read_point_cloud,
    read_range_image_bytes,
    write_labels,
    write_point_cloud,
    write_range_image_bytes,
)


def test_read_two_points():
    data = struct.pack("<8f", 1, 0, 0, 0.5, 0, 1, 0, 0.2)
    cloud = read_point_cloud(data)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.points, [[1, 0, 0], [0, 1, 0]])
    np.testing.assert_allclose(cloud.reflectance, [0.5, 0.2])


def test_read_empty_stream():
    assert len(read_point_cloud(b"")) == 0


def test_bad_length_rejected():
    with pytest.raises(FormatError, match="divisible by 16"):
        read_point_cloud(b"\x00" * 17)


def test_non_finite_rejected_with_index():
    data = struct.pack("<8f", 1, 0, 0, 0.5, float("nan"), 1, 0, 0.2)
    with pytest.raises(FormatError, match="point 1"):
        read_point_cloud(data)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_direct_construction_rejects_non_finite(bad):
    points = np.ones((3, 3), dtype=np.float32)
    points[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite value in point 2"):
        PointCloud(points=points, reflectance=np.zeros(3))
    with pytest.raises(ValueError, match="non-finite value in point 1"):
        PointCloud(points=np.ones((3, 3)), reflectance=[0.0, bad, 0.0])


def test_label_bit_split():
    labels = read_labels(struct.pack("<I", 0x00010009))
    assert labels.semantic[0] == 9
    assert labels.instance[0] == 1


def test_labels_empty():
    assert len(read_labels(b"")) == 0


def test_labels_sequence():
    labels = read_labels(struct.pack("<3I", 10, 10, 40))
    np.testing.assert_array_equal(labels.semantic, [10, 10, 40])


def test_labels_bad_length():
    with pytest.raises(FormatError):
        read_labels(b"\x00" * 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_label_roundtrip_word(word):
    labels = read_labels(struct.pack("<I", word))
    assert labels.semantic[0] == (word & 0xFFFF)
    assert labels.instance[0] == (word >> 16)
    assert write_labels(labels) == struct.pack("<I", word)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 200))
def test_point_cloud_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(
        points=rng.uniform(-50, 50, size=(n, 3)).astype(np.float32),
        reflectance=rng.uniform(0, 1, size=n).astype(np.float32),
    )
    back = read_point_cloud(write_point_cloud(cloud))
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.reflectance, cloud.reflectance)


def _random_image(rng, h, w):
    mask = rng.random((h, w)) < 0.8
    depth = np.where(mask, rng.uniform(1, 80, (h, w)), 0).astype(np.float32)
    return RangeImage(
        depth=depth,
        reflectance=np.where(mask, rng.random((h, w)), 0).astype(np.float32),
        label=np.where(mask, rng.integers(0, 20, (h, w)), 0).astype(np.int32),
        mask=mask,
    )


def test_range_image_roundtrip_bit_exact():
    img = _random_image(np.random.default_rng(3), 16, 64)
    back = read_range_image_bytes(write_range_image_bytes(img))
    np.testing.assert_array_equal(back.depth, img.depth)
    np.testing.assert_array_equal(back.reflectance, img.reflectance)
    np.testing.assert_array_equal(back.label, img.label)
    np.testing.assert_array_equal(back.mask, img.mask)


def test_range_image_full_size_header():
    img = _random_image(np.random.default_rng(4), 64, 2048)
    data = write_range_image_bytes(img)
    assert data[:4] == b"RIMG"
    version, h, w = struct.unpack("<III", data[4:16])
    assert (version, h, w) == (1, 64, 2048)
    back = read_range_image_bytes(data)
    assert back.shape == (64, 2048)


def test_range_image_truncated():
    data = write_range_image_bytes(_random_image(np.random.default_rng(5), 8, 16))
    with pytest.raises(FormatError, match="truncated"):
        read_range_image_bytes(data[:-7])
    with pytest.raises(FormatError):
        read_range_image_bytes(data[:10])


def test_range_image_bad_magic_and_version():
    data = write_range_image_bytes(_random_image(np.random.default_rng(6), 4, 8))
    with pytest.raises(FormatError, match="magic"):
        read_range_image_bytes(b"XIMG" + data[4:])
    bad_version = data[:4] + struct.pack("<I", 9) + data[8:]
    with pytest.raises(FormatError, match="version"):
        read_range_image_bytes(bad_version)


def test_parsing_preserves_order():
    n = 100
    pts = np.zeros((n, 3), dtype=np.float32)
    pts[:, 0] = np.arange(n)
    pts[:, 2] = 1.0
    cloud = PointCloud(points=pts, reflectance=np.zeros(n, dtype=np.float32))
    back = read_point_cloud(write_point_cloud(cloud))
    np.testing.assert_array_equal(back.points[:, 0], np.arange(n))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        PointCloud(points=np.zeros((3, 3)), reflectance=np.zeros(2))
    with pytest.raises(ValueError, match="mismatch"):
        LabelArray(semantic=np.zeros(3, np.uint16), instance=np.zeros(2, np.uint16))
