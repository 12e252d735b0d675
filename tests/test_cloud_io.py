import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseg.cloud_io import (
    RIMG_DIRECTORY,
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


def test_range_past_float32_rejected_with_index():
    # float32's largest value alone is a finite float32 range, and two
    # coordinates of 2**127, past the screen, are exactly checked and kept;
    # three of 2e38 give a range of 3.46e38, which rounds to inf
    big = float(np.finfo(np.float32).max)
    kept = np.array([[1, 2, 3], [big, 0, 0], [0, -big, 0], [2.0**127, 2.0**127, 0]], np.float32)
    assert len(PointCloud(points=kept, reflectance=np.zeros(4))) == 4
    points = np.vstack([kept, [[2e38, -2e38, 2e38], [1, 1, 1]]]).astype(np.float32)
    with pytest.raises(ValueError, match=r"^range of point 4 rounds past float32$"):
        PointCloud(points=points, reflectance=np.zeros(6))
    data = write_point_cloud(PointCloud(points=kept, reflectance=np.zeros(4)))
    data += struct.pack("<4f", 2e38, 2e38, 2e38, 0.5)
    with pytest.raises(FormatError, match=r"^range of point 4 rounds past float32$"):
        read_point_cloud(data)


def test_point_checks_allocate_no_full_size_temporary():
    # a min and a max per array screen an ordinary cloud; a finite-mask per
    # value would be a quarter of the points' bytes
    rng = np.random.default_rng(12)
    points = rng.normal(0.0, 30.0, (65536, 3)).astype(np.float32)
    reflectance = rng.uniform(0.0, 1.0, 65536).astype(np.float32)
    tracemalloc.start()
    try:
        PointCloud(points=points, reflectance=reflectance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * points.nbytes


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


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_label_roundtrip_word(word):
    labels = read_labels(struct.pack("<I", word))
    assert labels.semantic[0] == (word & 0xFFFF)
    assert labels.instance[0] == (word >> 16)
    assert write_labels(labels) == struct.pack("<I", word)


@settings(max_examples=25)
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


def test_range_image_bytes_pinned():
    # sha256 of the bytes the general channel-directory writer produced, so
    # containers written before the layout became fixed still read; the
    # planes are exact float32 values, so no random stream is involved
    k = np.arange(24).reshape(4, 6)
    mask = k % 5 != 0
    img = RangeImage(
        depth=np.where(mask, 1.5 + 0.75 * k, 0),
        reflectance=np.where(mask, k / 32, 0),
        label=np.where(mask, k % 7, 0),
        mask=mask,
    )
    data = write_range_image_bytes(img)
    assert len(data) == 53 + 13 * 24
    assert hashlib.sha256(data).hexdigest() == "506e62087a70e913d869a0acda466a7be1ac8725828de11095154af15c19de13"


def _container_by_formula(img):
    """The RIMG layout written plane by plane through ``tobytes``."""
    h, w = img.shape
    planes = [np.asarray(p, dtype="<f4").tobytes() for p in (img.depth, img.reflectance, img.label)]
    head = b"RIMG" + struct.pack("<III", 1, h, w) + RIMG_DIRECTORY
    return head + b"".join(planes) + np.asarray(img.mask, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_writers_match_the_layout_formula(seed):
    rng = np.random.default_rng(seed)
    img = _random_image(rng, 12, 40)
    img.mask[-1, -1] = True
    img.depth[-1, -1] = 9.5
    img.label[-1, -1] = 17  # a label at the last pixel ends the label plane
    transposed = _random_image(rng, 40, 12)
    views = RangeImage(  # int64 labels and non-contiguous planes
        depth=transposed.depth.T,
        reflectance=transposed.reflectance.T,
        label=transposed.label.T.astype(np.int64),
        mask=transposed.mask.T,
    )
    assert not views.depth.flags.c_contiguous
    for image in (img, views):
        assert write_range_image_bytes(image) == _container_by_formula(image)
        back = read_range_image_bytes(write_range_image_bytes(image))
        np.testing.assert_array_equal(back.label, image.label)

    semantic = rng.integers(0, 2**16, 300).astype(np.uint16)
    instance = rng.integers(0, 2**16, 300).astype(np.uint16)
    semantic[-1] = 65535  # a label at the last point
    for sem, inst in ((semantic, instance), (semantic[::-2], instance[::-2])):
        labels = LabelArray(sem, inst)
        want = struct.pack(f"<{len(sem)}I", *(int(i) << 16 | int(s) for s, i in zip(sem, inst)))
        assert write_labels(labels) == want


def test_range_image_write_holds_no_plane_copies():
    # bytes.join reads the float32 planes in place; only the int32 label
    # plane and the bool mask are converted before the container is built
    img = _random_image(np.random.default_rng(11), 64, 2048)
    tracemalloc.start()
    try:
        data = write_range_image_bytes(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(data)


def test_range_image_rejects_reordered_directory_and_trailing_bytes():
    data = write_range_image_bytes(_random_image(np.random.default_rng(7), 4, 8))
    swapped = data.replace(b"\x05\x00depth\x0b\x00reflectance", b"\x0b\x00reflectance\x05\x00depth")
    assert len(swapped) == len(data) and swapped != data
    with pytest.raises(FormatError, match="directory"):
        read_range_image_bytes(swapped)
    with pytest.raises(FormatError, match="trailing"):
        read_range_image_bytes(data + b"\x00")


def _patched(img, plane, pixel, value):
    """The container of ``img`` with one pixel of one plane overwritten:
    ``plane`` 0-2 are the float32 depth, reflectance and label planes, 3 the
    mask bytes."""
    data = bytearray(write_range_image_bytes(img))
    n = img.depth.size
    if plane == 3:
        data[53 + 12 * n + pixel] = value
    else:
        struct.pack_into("<f", data, 53 + 4 * (plane * n + pixel), value)
    return bytes(data)


@pytest.mark.parametrize(
    ("plane", "on_mask", "value", "message"),
    [
        (2, True, float("nan"), "label not an int32 integer"),
        (2, True, float("inf"), "label not an int32 integer"),
        (2, True, 2.5, "label not an int32 integer"),
        (2, True, 2.0**31, "label not an int32 integer"),
        (2, True, -(2.0**32), "label not an int32 integer"),
        (2, True, -3.0, "negative label"),
        (2, True, -(2.0**31), "negative label"),
        (3, True, 7, "mask byte other than 0 or 1"),
        (3, False, 2, "mask byte other than 0 or 1"),
        (0, True, 0.0, "masked depth not above 0"),
        (0, True, -1.0, "masked depth not above 0"),
        (0, True, float("nan"), "masked depth not above 0"),
        (0, False, 3.0, "nonzero depth or label off the mask"),
        (2, False, 4.0, "nonzero depth or label off the mask"),
        (1, True, float("nan"), "masked reflectance not finite"),
        (1, False, 5.0, "nonzero reflectance off the mask"),
    ],
)
def test_range_image_rejects_bad_planes(plane, on_mask, value, message):
    img = _random_image(np.random.default_rng(8), 4, 8)
    pixel = int(np.flatnonzero(img.mask.ravel() == on_mask)[1])
    with pytest.raises(FormatError, match=f"{message} at pixel {pixel} "):
        read_range_image_bytes(_patched(img, plane, pixel, value))


def test_range_image_accepts_int32_label_extremes():
    # labels are class ids: 0 is the least, and the largest int32 a float32
    # holds exactly is 2**31 - 128
    img = _random_image(np.random.default_rng(9), 4, 8)
    on = np.flatnonzero(img.mask.ravel())[:2]
    img.label.ravel()[on] = [0, 2**31 - 128]
    assert img.label.min() == 0 and img.label.max() == 2**31 - 128
    back = read_range_image_bytes(write_range_image_bytes(img))
    np.testing.assert_array_equal(back.label, img.label)


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
