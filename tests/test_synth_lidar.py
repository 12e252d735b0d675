import math

import numpy as np
import pytest

from scanseg.cloud_io import PointCloud
from scanseg.projection import _azimuth
from scanseg.synth_lidar import (
    Box,
    Cylinder,
    SceneConfig,
    SensorModel,
    Sphere,
    default_beam_elevations,
    generate_scan,
    load_scan_setup,
    write_example_config,
)

SMALL = SensorModel(n_beams=8, azimuth_step=360.0 / 64.0)


def test_ground_plane_full_rings():
    scene = SceneConfig(seed=0)
    scan = generate_scan(SMALL, scene)
    elevations = np.asarray(SMALL.beam_elevations)
    for b in range(SMALL.n_beams):
        count = int((scan.true_rows == b).sum())
        if elevations[b] < 0:
            assert count == SMALL.firings_per_rev
        else:
            assert count == 0


def test_beam_major_acquisition_order():
    scan = generate_scan(SMALL, SceneConfig(seed=0))
    assert (np.diff(scan.true_rows) >= 0).all()
    for b in np.unique(scan.true_rows):
        cols = scan.true_cols[scan.true_rows == b]
        assert (np.diff(cols) > 0).all()


def test_zero_velocity_clouds_identical():
    scan = generate_scan(SMALL, SceneConfig(seed=1, ego_velocity=0.0))
    np.testing.assert_array_equal(scan.cloud.points, scan.cloud_ego_corrected.points)


def test_ego_origin_separation_closed_form():
    # raw - corrected = origin(end) - origin(firing); the difference between
    # the first and last firing corrections is v * rev * (F - 1) / F along x
    sensor = SensorModel(n_beams=8, azimuth_step=360.0 / 128.0, rev_period=0.1)
    scene = SceneConfig(seed=2, ego_velocity=10.0, enclosure_radius=25.0)
    scan = generate_scan(sensor, scene)
    shift = scan.cloud.points[:, 0].astype(np.float64) - scan.cloud_ego_corrected.points[:, 0].astype(np.float64)
    first = shift[scan.true_cols == 0]
    last = shift[scan.true_cols == sensor.firings_per_rev - 1]
    assert first.size and last.size
    expected = 10.0 * 0.1 * (sensor.firings_per_rev - 1) / sensor.firings_per_rev
    np.testing.assert_allclose(first.mean() - last.mean(), expected, atol=1e-5)
    np.testing.assert_allclose(first, first.mean(), atol=1e-5)


def test_determinism_bit_identical():
    scene = SceneConfig(
        seed=7,
        angular_noise=0.05,
        ego_velocity=4.0,
        primitives=(Box(center=(10, 0, 1), size=(2, 2, 2), class_id=2),),
    )
    a = generate_scan(SMALL, scene)
    b = generate_scan(SMALL, scene)
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(a.labels.semantic, b.labels.semantic)
    np.testing.assert_array_equal(a.true_cols, b.true_cols)


def test_azimuth_deltas_bounded_within_beam():
    noise = 0.05
    scene = SceneConfig(seed=3, angular_noise=noise, enclosure_radius=20.0)
    scan = generate_scan(SMALL, scene)
    phi = _azimuth(scan.cloud.points)
    step = math.radians(SMALL.azimuth_step)
    bound = step + 4.0 * math.radians(noise)
    for b in range(SMALL.n_beams):
        deltas = np.abs(np.diff(phi[scan.true_rows == b]))
        assert (deltas <= bound).all()


def test_empty_scene_gives_empty_scan():
    scan = generate_scan(SMALL, SceneConfig(seed=0, ground_z=None))
    assert len(scan) == 0
    assert len(scan.labels) == 0


def test_primitive_labels_and_reflectance():
    scene = SceneConfig(
        seed=5,
        primitives=(
            Box(center=(10, 0, 1), size=(4, 4, 2), class_id=2, reflectance=0.9),
            Sphere(center=(-10, 0, 1), radius=2.0, class_id=3, reflectance=0.7),
            Cylinder(center=(0, 10, 1.5), radius=0.5, height=3.0, class_id=4, reflectance=0.6),
        ),
    )
    scan = generate_scan(SMALL, scene)
    for cid, refl in ((2, 0.9), (3, 0.7), (4, 0.6)):
        sel = scan.labels.semantic == cid
        assert sel.any(), f"class {cid} never hit"
        np.testing.assert_allclose(scan.cloud.reflectance[sel], refl, atol=1e-6)


def test_scene_validation():
    with pytest.raises(ValueError, match="extent"):
        SceneConfig(primitives=(Box(center=(0, 0, 0), size=(1, -1, 1), class_id=2),))
    with pytest.raises(ValueError, match="class id"):
        SceneConfig(primitives=(Sphere(center=(5, 0, 0), radius=1, class_id=0),))
    with pytest.raises(ValueError, match="fov_down"):
        SensorModel(fov_up=-30.0, fov_down=3.0)
    with pytest.raises(ValueError, match="elevations"):
        SensorModel(n_beams=4, beam_elevations=(0.0, -1.0))


def test_default_beam_elevations_descend_within_fov():
    elev = np.asarray(default_beam_elevations(64, 3.0, -25.0))
    assert (np.diff(elev) < 0).all()
    assert elev.max() < 3.0 and elev.min() > -25.0


def test_azimuth_trace_fixtures():
    pts = np.array([[-1, 0, 0], [0, 1, 0], [1, -1e-9, 0]], dtype=np.float64)
    cloud = PointCloud(points=pts, reflectance=np.zeros(3))
    phi = _azimuth(cloud.points)
    assert phi[0] == pytest.approx(math.pi)
    assert phi[1] == pytest.approx(math.pi / 2)
    assert -1e-6 < phi[2] < 0


def test_azimuth_trace_origin_rejected():
    cloud = PointCloud(points=np.array([[0.0, 0.0, 1.0]]), reflectance=np.zeros(1))
    with pytest.raises(ValueError, match="azimuth undefined"):
        _azimuth(cloud.points)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "setup.yaml"
    write_example_config(path)
    sensor, scene = load_scan_setup(path)
    assert sensor.n_beams == 64
    assert sensor.firings_per_rev == 2048
    assert scene.enclosure_radius == 40.0
    kinds = {type(p).__name__ for p in scene.primitives}
    assert kinds == {"Box", "Sphere", "Cylinder"}
    scan = generate_scan(SensorModel(n_beams=8, azimuth_step=360 / 64), scene)
    assert len(scan) > 0
