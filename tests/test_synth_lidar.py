import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import brute_force_hits, ray_grid, reference_ray_box

from scanseg.cloud_io import PointCloud
from scanseg import synth_lidar
from scanseg.projection import _polar
from scanseg.synth_lidar import (
    MIN_RANGE,
    Box,
    Cylinder,
    SceneConfig,
    SensorModel,
    Sphere,
    _BLOCK_RAYS,
    _candidate_firings,
    _firings,
    _ray_box,
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
    phi = _polar(scan.cloud.points)[0]
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
    with pytest.raises(ValueError, match=r"\[-90, 90\]"):
        SensorModel(n_beams=2, beam_elevations=(95.0, -1.0))
    for n_beams in (0, -1):
        with pytest.raises(ValueError, match="n_beams must be >= 1"):
            SensorModel(n_beams=n_beams)
    for step in (0.0, 400.0, math.nan):
        with pytest.raises(ValueError, match="azimuth_step"):
            SensorModel(azimuth_step=step)
    # the ground's and the enclosure's classes lie in [1, n_classes) when
    # the surface is present, and are not checked when it is absent
    with pytest.raises(ValueError, match=r"ground_class 0 outside \[1, 3\)"):
        SceneConfig(n_classes=3, ground_class=0)
    with pytest.raises(ValueError, match=r"enclosure_class 9 outside \[1, 3\)"):
        SceneConfig(n_classes=3, enclosure_radius=20.0, enclosure_class=9)
    with pytest.raises(ValueError, match=r"enclosure_class 3 outside \[1, 3\)"):
        SceneConfig(n_classes=3, enclosure_radius=20.0, enclosure_class=3)
    SceneConfig(n_classes=3, ground_z=None, ground_class=0, enclosure_class=9)
    scan = generate_scan(SMALL, SceneConfig(n_classes=3, ground_class=2, enclosure_radius=20.0, enclosure_class=1))
    assert set(np.unique(scan.labels.semantic)) == {1, 2}


NAN, INF = math.nan, math.inf
FLOAT3 = r"tuple\[float, float, float\]"


# each case builds its config in the test: a bad primitive raises where it
# is built, so it cannot sit in a parametrize list. In this and the next
# three lists the ids keep the names the cases had before their messages
# took the ``Class.field`` form, so runs stay comparable case by case
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Box(center=(NAN, 0, 1), size=(1, 1, 1), class_id=2), rf"Box.center must be {FLOAT3}, got \(nan, 0, 1\)", id='scene_kw0-non-finite center in Box'),
        pytest.param(lambda: Box(center=(5, 0, 1), size=(1, NAN, 1), class_id=2), rf"Box.size must be {FLOAT3}, got \(1, nan, 1\)", id='scene_kw1-non-finite size in Box'),
        pytest.param(lambda: Sphere(center=(5, 0, INF), radius=1, class_id=3), rf"Sphere.center must be {FLOAT3}, got \(5, 0, inf\)", id='scene_kw2-non-finite center in Sphere'),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius=NAN, class_id=3), "Sphere.radius must be float, got nan", id='scene_kw3-non-finite radius in Sphere'),
        pytest.param(lambda: Cylinder(center=(5, 0, 1), radius=INF, height=2, class_id=4), "Cylinder.radius must be float, got inf", id='scene_kw4-non-finite radius in Cylinder'),
        pytest.param(lambda: Cylinder(center=(5, 0, 1), radius=0.5, height=NAN, class_id=4), "Cylinder.height must be float, got nan", id='scene_kw5-non-finite height in Cylinder'),
        pytest.param(lambda: SceneConfig(ground_z=NAN), r"SceneConfig.ground_z must be float \| None, got nan", id='scene_kw6-ground_z must be finite'),
        pytest.param(lambda: SceneConfig(enclosure_radius=INF), r"SceneConfig.enclosure_radius must be float \| None, got inf", id='scene_kw7-enclosure_radius must be finite'),
        pytest.param(lambda: SceneConfig(ego_velocity=NAN), "SceneConfig.ego_velocity must be float, got nan", id='scene_kw8-ego_velocity must be finite'),
        pytest.param(lambda: SceneConfig(max_range=NAN), r"SceneConfig.max_range must be float \| None, got nan", id='scene_kw9-max_range must be finite'),
        pytest.param(lambda: SceneConfig(angular_noise=INF), "SceneConfig.angular_noise must be float, got inf", id='scene_kw10-angular_noise must be finite'),
        pytest.param(lambda: SceneConfig(ground_reflectance=NAN), "SceneConfig.ground_reflectance must be float, got nan", id='scene_kw11-ground_reflectance must be finite'),
        pytest.param(lambda: SceneConfig(enclosure_reflectance=INF), "SceneConfig.enclosure_reflectance must be float, got inf", id='scene_kw12-enclosure_reflectance must be finite'),
        pytest.param(lambda: Box(center=(5, 0, 1), size=(1, 1, 1), class_id=2, reflectance=NAN), "Box.reflectance must be float, got nan", id='scene_kw13-non-finite reflectance in Box'),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius=1, class_id=3, reflectance=-INF), "Sphere.reflectance must be float, got -inf", id='scene_kw14-non-finite reflectance in Sphere'),
        pytest.param(lambda: Cylinder(center=(5, 0, 1), radius=0.5, height=2, class_id=4, reflectance=NAN), "Cylinder.reflectance must be float, got nan", id='scene_kw15-non-finite reflectance in Cylinder'),
        # a scalar of the wrong type is named the same way
        pytest.param(lambda: SceneConfig(ground_z="0"), r"SceneConfig.ground_z must be float \| None, got '0'", id="scene_kw16-ground_z must be finite, got '0'"),
        pytest.param(lambda: SceneConfig(seed=1.5), "SceneConfig.seed must be int, got 1.5", id='scene_kw17-seed must be an integer, got 1.5'),
        pytest.param(lambda: SceneConfig(n_classes="8"), "SceneConfig.n_classes must be int, got '8'", id="scene_kw18-n_classes must be an integer, got '8'"),
        pytest.param(lambda: SceneConfig(ground_z=None, ground_class=1.0), "SceneConfig.ground_class must be int, got 1.0", id='scene_kw19-ground_class must be an integer, got 1.0'),
    ],
)
def test_scene_rejects_non_finite_geometry(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Box(center=(12.0, 3.0), size=(1, 1, 1), class_id=2), rf"Box.center must be {FLOAT3}, got \(12.0, 3.0\)", id='primitive0-center must be three numbers in Box\\(center=\\(12.0, 3.0\\)'),
        pytest.param(lambda: Sphere(center=(5, 0, 1, 7), radius=1, class_id=3), rf"Sphere.center must be {FLOAT3}, got \(5, 0, 1, 7\)", id='primitive1-center must be three numbers in Sphere'),
        pytest.param(lambda: Cylinder(center=(5, "0", 1), radius=0.5, height=2, class_id=4), rf"Cylinder.center must be {FLOAT3}, got \(5, '0', 1\)", id='primitive2-center must be three numbers in Cylinder'),
        pytest.param(lambda: Box(center=(5, 0, 1), size=(1, 1), class_id=2), rf"Box.size must be {FLOAT3}, got \(1, 1\)", id='primitive3-size must be three numbers in Box'),
        pytest.param(lambda: Box(center=(5, 0, 1), size="111", class_id=2), rf"Box.size must be {FLOAT3}, got '111'", id='primitive4-size must be three numbers in Box'),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius="1", class_id=3), "Sphere.radius must be float, got '1'", id='primitive5-radius must be a number in Sphere'),
        pytest.param(lambda: Cylinder(center=(5, 0, 1), radius=0.5, height=None, class_id=4), "Cylinder.height must be float, got None", id='primitive6-height must be a number in Cylinder'),
        pytest.param(lambda: Box(center=(5, 0, 1), size=(1, 1, 1), class_id=2, reflectance="x"), "Box.reflectance must be float, got 'x'", id='primitive7-reflectance must be a number in Box'),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius=1, class_id="3"), "Sphere.class_id must be int, got '3'", id="primitive8-class_id must be an integer, got '3' in Sphere"),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius=1, class_id=3.5), "Sphere.class_id must be int, got 3.5", id='primitive9-class_id must be an integer, got 3.5 in Sphere'),
        pytest.param(lambda: Sphere(center=(5, 0, 1), radius=0.0, class_id=3), r"non-positive extent radius in Sphere", id='primitive10-non-positive extent radius in Sphere'),
        pytest.param(lambda: Cylinder(center=(5, 0, 1), radius=0.5, height=-2.0, class_id=4), r"non-positive extent height in Cylinder", id='primitive11-non-positive extent height in Cylinder'),
    ],
)
def test_scene_rejects_misshapen_primitive(build, message):
    with pytest.raises(ValueError, match=message):
        SceneConfig(primitives=(build(),))


def test_scene_rejects_primitives_not_a_tuple():
    with pytest.raises(ValueError, match=r"SceneConfig.primitives must be tuple\[Primitive, ...\], got Sphere\("):
        SceneConfig(primitives=Sphere(center=(5, 0, 1), radius=1, class_id=3))


def test_scene_rejects_a_primitive_of_another_type():
    with pytest.raises(ValueError, match=r"SceneConfig.primitives must be tuple\[Primitive, ...\], got \(<object"):
        SceneConfig(primitives=(object(),))


@pytest.mark.parametrize(
    "sensor_kw, message",
    [
        pytest.param({"fov_up": INF}, "SensorModel.fov_up must be float, got inf", id='sensor_kw0-fov_up must be a finite number, got inf'),
        pytest.param({"fov_down": NAN}, "SensorModel.fov_down must be float, got nan", id='sensor_kw1-fov_down must be a finite number, got nan'),
        pytest.param({"mount_height": NAN}, "SensorModel.mount_height must be float, got nan", id='sensor_kw2-mount_height must be a finite number, got nan'),
        pytest.param({"rev_period": NAN}, "SensorModel.rev_period must be float, got nan", id='sensor_kw3-rev_period must be a finite number, got nan'),
        pytest.param({"rev_period": INF}, "SensorModel.rev_period must be float, got inf", id='sensor_kw4-rev_period must be a finite number, got inf'),
        pytest.param({"rev_period": 0.0}, "rev_period must be above 0, got 0.0", id='sensor_kw5-rev_period must be above 0, got 0.0'),
        pytest.param({"n_beams": 2, "beam_elevations": ("up", -1.0)}, r"SensorModel.beam_elevations must be tuple\[float, ...\] \| None, got \('up', -1.0\)", id='sensor_kw6-beam elevations must be numbers in \\[-90, 90\\]'),
        pytest.param({"n_beams": 2.5}, "SensorModel.n_beams must be int, got 2.5", id='sensor_kw7-n_beams must be an integer, got 2.5'),
        pytest.param({"n_beams": "4"}, "SensorModel.n_beams must be int, got '4'", id="sensor_kw8-n_beams must be an integer, got '4'"),
        pytest.param({"azimuth_step": "1"}, "SensorModel.azimuth_step must be float, got '1'", id="sensor_kw9-azimuth_step must be a finite number, got '1'"),
        pytest.param({"beam_elevations": 5.0}, r"SensorModel.beam_elevations must be tuple\[float, ...\] \| None, got 5.0", id='sensor_kw10-beam_elevations must be a sequence of numbers, got 5.0'),
    ],
)
def test_sensor_rejects_bad_field(sensor_kw, message):
    with pytest.raises(ValueError, match=message):
        SensorModel(**sensor_kw)


def test_sensor_rejects_a_bool_beam_count():
    with pytest.raises(ValueError, match="SensorModel.n_beams must be int, got True"):
        SensorModel(n_beams=True)


def test_box_rejects_a_scalar_center():
    with pytest.raises(ValueError, match=rf"Box.center must be {FLOAT3}, got 5"):
        Box(center=5, size=(1, 1, 1), class_id=2)


def _assert_matches_brute_force(sensor, scene):
    """``generate_scan`` against every ray cast at every surface: the same
    arrays bit for bit, and no primitive reached from outside its window."""
    scan = generate_scan(sensor, scene)
    azimuth, origin_x = _firings(sensor, scene)
    origins, dirs = ray_grid(sensor, scene)
    t, semantic, reflectance = brute_force_hits(origins, dirs, scene)
    hit = np.isfinite(t) & (t >= MIN_RANGE)
    if scene.max_range is not None:
        hit &= t <= scene.max_range
    idx = np.flatnonzero(hit)
    raw = t[idx, None] * dirs[idx]
    corrected = raw.copy()
    corrected[:, 0] += origins[idx, 0] - scene.ego_velocity * sensor.rev_period
    want = {
        "points": raw.astype(np.float32),
        "corrected": corrected.astype(np.float32),
        "reflectance": reflectance[idx],
        "rows": (idx // sensor.firings_per_rev).astype(np.int32),
        "cols": (idx % sensor.firings_per_rev).astype(np.int32),
        "semantic": semantic[idx],
    }
    got = {
        "points": scan.cloud.points,
        "corrected": scan.cloud_ego_corrected.points,
        "reflectance": scan.cloud.reflectance,
        "rows": scan.true_rows,
        "cols": scan.true_cols,
        "semantic": scan.labels.semantic,
    }
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].tobytes() == array.tobytes(), name
    for prim in scene.primitives:
        firings = _candidate_firings(prim, azimuth, origin_x)
        if firings is None:
            continue
        alone, _, _ = brute_force_hits(origins, dirs, SceneConfig(ground_z=None, primitives=(prim,)))
        reached = np.flatnonzero(np.isfinite(alone)) % sensor.firings_per_rev
        assert np.isin(reached, firings).all(), f"{prim} reached outside its window"


WINDOW_SENSOR = SensorModel(n_beams=8, azimuth_step=360.0 / 1024.0)
REAR_BOX = Box(center=(-9.0, 0.2, 1.0), size=(2.0, 3.0, 2.0), class_id=2)


@pytest.mark.parametrize(
    "scene",
    [
        # the sensor path inside the grown footprint: every firing is cast
        SceneConfig(seed=1, ego_velocity=15.0, primitives=(Box(center=(1.0, 0.4, 1.0), size=(1.0, 1.2, 2.0), class_id=2), REAR_BOX)),
        SceneConfig(seed=2, ego_velocity=-12.0, angular_noise=0.3, enclosure_radius=30.0, primitives=(REAR_BOX,)),
        SceneConfig(
            seed=3,
            max_range=9.0,
            ego_velocity=9.0,
            primitives=(
                Sphere(center=(6.0, -3.0, 1.0), radius=1.0, class_id=3),
                Cylinder(center=(-2.0, -6.0, 1.5), radius=0.3, height=3.0, class_id=4),
                Sphere(center=(-7.0, -0.01, 1.73), radius=0.8, class_id=3),
            ),
        ),
        # coincident surfaces tie exactly: the one listed first keeps the ray
        SceneConfig(
            seed=4,
            ego_velocity=6.0,
            primitives=(
                Sphere(center=(5.0, 5.0, 1.0), radius=1.0, class_id=3),
                Sphere(center=(5.0, 5.0, 1.0), radius=1.0, class_id=4),
                Box(center=(-6.0, 2.0, 1.0), size=(2.0, 2.0, 2.0), class_id=2),
                Box(center=(-6.0, 2.0, 1.0), size=(2.0, 2.0, 2.0), class_id=5),
            ),
        ),
    ],
    ids=["inside-grown-circle", "rear-cut-reversing-noisy", "max-range-objects", "coincident-tie"],
)
def test_culled_scan_matches_brute_force(scene):
    _assert_matches_brute_force(WINDOW_SENSOR, scene)


NEAR_BOX = Box(center=(1.0, 0.4, 1.0), size=(1.0, 1.2, 2.0), class_id=2)  # inside its grown circle


def test_beam_blocks_match_brute_force():
    # 4096 firings make blocks of 4 beams, so 7 beams end in a short block;
    # the enclosure and the near box are cast at every firing, in both blocks
    sensor = SensorModel(n_beams=7, azimuth_step=360.0 / 4096.0)
    assert _BLOCK_RAYS // sensor.firings_per_rev == 4
    scene = SceneConfig(
        seed=9,
        angular_noise=0.05,
        ego_velocity=7.0,
        enclosure_radius=28.0,
        primitives=(REAR_BOX, Sphere(center=(5.0, 3.0, 1.2), radius=1.0, class_id=3), NEAR_BOX),
    )
    assert _candidate_firings(NEAR_BOX, *_firings(sensor, scene)) is None
    _assert_matches_brute_force(sensor, scene)


# 16 beams share one call only while a window is at most 1024 firings wide
WIDE_SENSOR = SensorModel(n_beams=16, azimuth_step=360.0 / 4096.0)
WIDE_SPHERE = Sphere(center=(-1.6, 0.3, 1.2), radius=1.2, class_id=3)
# at 8 firings a revolution no firing heads within a degree of this sphere
FAR_SPHERE = Sphere(center=(20.0, 0.0, 1.0), radius=0.2, class_id=3)
EIGHT_FIRINGS = SensorModel(n_beams=4, azimuth_step=45.0)


@pytest.mark.parametrize(
    "sensor, scene",
    [
        (WIDE_SENSOR, SceneConfig(seed=5, angular_noise=0.05, ego_velocity=3.0, primitives=(REAR_BOX, WIDE_SPHERE))),
        (EIGHT_FIRINGS, SceneConfig(seed=6, primitives=(FAR_SPHERE, Box(center=(-6.0, 0.0, 1.0), size=(2.0, 2.0, 2.0), class_id=2)))),
        (WIDE_SENSOR, SceneConfig(seed=7, ground_z=None, enclosure_radius=25.0, ego_velocity=-5.0, primitives=(WIDE_SPHERE, NEAR_BOX))),
        (WIDE_SENSOR, SceneConfig(seed=8, angular_noise=0.05, ego_velocity=9.0, max_range=12.0)),
    ],
    ids=["window-wider-than-a-call", "empty-window", "no-ground", "ground-only"],
)
def test_cast_loop_matches_brute_force(sensor, scene):
    windows = [_candidate_firings(p, *_firings(sensor, scene)) for p in scene.primitives]
    if scene.primitives == (REAR_BOX, WIDE_SPHERE):
        assert windows[1].size > _BLOCK_RAYS // sensor.n_beams
    if FAR_SPHERE in scene.primitives:
        assert windows[0].size == 0
    _assert_matches_brute_force(sensor, scene)


def test_no_cast_call_exceeds_block_rays(monkeypatch):
    # every call covers at most max(_BLOCK_RAYS, window width) rays, the
    # calls of one surface cover every beam once, and the ground is cast once
    calls, ground_calls = [], []

    def recording(cast):
        def wrapped(origin, direction, target):
            width = np.size(origin[0])
            calls.append((id(target), width, np.broadcast(*direction).size, np.shape(direction[2])[0]))
            return cast(origin, direction, target)

        return wrapped

    def ground(height, dz, z0):
        ground_calls.append(np.shape(dz))
        return ground_cast(height, dz, z0)

    ground_cast = synth_lidar._ray_ground
    monkeypatch.setattr(synth_lidar, "_ray_ground", ground)
    monkeypatch.setattr(synth_lidar, "_ray_enclosure", recording(synth_lidar._ray_enclosure))
    for kind, cast in list(synth_lidar._RAY_CASTERS.items()):
        monkeypatch.setitem(synth_lidar._RAY_CASTERS, kind, recording(cast))
    scene = SceneConfig(
        seed=3,
        ego_velocity=4.0,
        enclosure_radius=30.0,
        primitives=(REAR_BOX, WIDE_SPHERE, NEAR_BOX, Cylinder(center=(4.0, -3.0, 1.5), radius=0.4, height=3.0, class_id=4)),
    )
    generate_scan(WIDE_SENSOR, scene)
    assert ground_calls == [(WIDE_SENSOR.n_beams, 1)]
    surfaces = {}
    for surface, width, rays, beams in calls:
        assert rays <= max(_BLOCK_RAYS, width)
        surfaces.setdefault(surface, []).append(beams)
    assert len(surfaces) == len(scene.primitives) + 1
    assert all(sum(beams) == WIDE_SENSOR.n_beams for beams in surfaces.values())
    # the enclosure, the near box and the wide sphere each take several calls
    assert sum(len(beams) > 1 for beams in surfaces.values()) == 3


def test_candidate_window_narrow_and_across_rear_cut():
    azimuth, origin_x = _firings(WINDOW_SENSOR, SceneConfig(ego_velocity=10.0))
    far = _candidate_firings(Sphere(center=(0.5, 20.0, 1.0), radius=1.0, class_id=3), azimuth, origin_x)
    assert 0 < far.size < WINDOW_SENSOR.firings_per_rev // 10
    rear = _candidate_firings(REAR_BOX, azimuth, origin_x)
    assert rear.min() == 0 and rear.max() == WINDOW_SENSOR.firings_per_rev - 1
    assert rear.size < WINDOW_SENSOR.firings_per_rev // 4
    near = Box(center=(0.8, 0.0, 1.0), size=(1.0, 1.0, 2.0), class_id=2)
    assert _candidate_firings(near, azimuth, origin_x) is None


@st.composite
def _window_cases(draw):
    sensor = SensorModel(
        n_beams=draw(st.sampled_from([4, 8])),
        azimuth_step=360.0 / draw(st.sampled_from([90, 512, 1024])),
    )
    n_firings = sensor.firings_per_rev
    ego_velocity = draw(st.sampled_from([0.0, 12.0, -12.0]) | st.floats(-25.0, 25.0))
    prims = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["box", "sphere", "cylinder", "grazing sphere"]))
        bearing = draw(st.sampled_from([math.pi, -math.pi, math.pi - 0.02]) | st.floats(-math.pi, math.pi))
        dist = draw(st.floats(0.0, 16.0))
        x, y = dist * math.cos(bearing), dist * math.sin(bearing)
        if kind == "box":
            size = tuple(draw(st.floats(0.2, 4.0)) for _ in range(3))
            prims.append(Box(center=(x, y, size[2] / 2), size=size, class_id=2))
        elif kind == "sphere":
            radius = draw(st.floats(0.2, 2.0))
            prims.append(Sphere(center=(x, y, radius), radius=radius, class_id=3))
        elif kind == "cylinder":
            prims.append(Cylinder(center=(x, y, 1.5), radius=draw(st.floats(0.1, 1.0)), height=3.0, class_id=4))
        else:
            # tangent in xy to the horizontal heading of one firing, seen
            # from that firing's own origin, at sensor height
            f = draw(st.integers(0, n_firings - 1))
            radius = draw(st.floats(0.2, 2.0))
            dist = draw(st.floats(radius + 1.0, 16.0))
            side = draw(st.sampled_from([-1.0, 1.0]))
            heading = math.pi - (f + 0.5) * math.radians(sensor.azimuth_step) + side * math.asin(radius / dist)
            origin = ego_velocity * f * sensor.rev_period / n_firings
            center = (origin + dist * math.cos(heading), dist * math.sin(heading), sensor.mount_height)
            prims.append(Sphere(center=center, radius=radius, class_id=3))
    scene = SceneConfig(
        ground_z=draw(st.sampled_from([None, 0.0])),
        primitives=tuple(prims),
        enclosure_radius=draw(st.sampled_from([None, 30.0])),
        seed=draw(st.integers(0, 2**16)),
        angular_noise=draw(st.sampled_from([0.0, 0.05, 0.5])),
        ego_velocity=ego_velocity,
        max_range=draw(st.sampled_from([None, 6.0, 12.0])),
    )
    return sensor, scene


@settings(max_examples=60)
@given(_window_cases())
def test_culled_scan_matches_brute_force_property(case):
    _assert_matches_brute_force(*case)


@st.composite
def _box_rays(draw):
    """A box and rays at it from origins outside it or inside it, each aimed
    at a point of the box or in a random direction, often with a component
    set to +-0. Half the origins and aim points move onto the plane of one
    face, so the ray runs along that plane: there the slab test divides 0 by
    0."""
    center = draw(hnp.arrays(np.float64, 3, elements=st.floats(-4.0, 4.0)))
    size = draw(hnp.arrays(np.float64, 3, elements=st.floats(0.25, 4.0)))
    lo, hi = center - size / 2.0, center + size / 2.0
    n = draw(st.integers(1, 24))
    unit = hnp.arrays(np.float64, 3, elements=st.floats(0.0, 1.0))
    origins, dirs = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        if draw(st.booleans()):
            origin = draw(hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
        else:
            origin = lo + draw(unit) * (hi - lo)
        target = lo + draw(unit) * (hi - lo)
        if draw(st.booleans()):
            axis = draw(st.integers(0, 2))
            origin[axis] = target[axis] = draw(st.sampled_from([lo[axis], hi[axis]]))
        if draw(st.integers(0, 3)) == 0:
            target = origin + draw(hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)))
        origins[i], dirs[i] = origin, target - origin
        for k in range(3):
            if draw(st.integers(0, 3)) == 0:
                dirs[i, k] = draw(st.sampled_from([0.0, -0.0]))
    return origins, dirs, Box(center=tuple(center), size=tuple(size), class_id=2)


@settings(max_examples=150)
@given(_box_rays())
def test_ray_box_matches_all_axes_slab_test(case):
    origins, dirs, box = case
    with np.errstate(over="ignore"):  # a tiny component puts a slab at +-inf in both
        got, want = _ray_box(origins.T, dirs.T, box), reference_ray_box(origins, dirs, box)
    assert got.tobytes() == want.tobytes()


def test_default_beam_elevations_descend_within_fov():
    elev = np.asarray(default_beam_elevations(64, 3.0, -25.0))
    assert (np.diff(elev) < 0).all()
    assert elev.max() < 3.0 and elev.min() > -25.0


def test_azimuth_trace_fixtures():
    pts = np.array([[-1, 0, 0], [0, 1, 0], [1, -1e-9, 0]], dtype=np.float64)
    cloud = PointCloud(points=pts, reflectance=np.zeros(3))
    phi = _polar(cloud.points)[0]
    assert phi[0] == pytest.approx(math.pi)
    assert phi[1] == pytest.approx(math.pi / 2)
    assert -1e-6 < phi[2] < 0


def test_azimuth_trace_origin_rejected():
    cloud = PointCloud(points=np.array([[0.0, 0.0, 1.0]]), reflectance=np.zeros(1))
    with pytest.raises(ValueError, match="azimuth undefined"):
        _polar(cloud.points)


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


@pytest.mark.parametrize(
    "sensor, scene, section, key",
    [
        ("{n_beam: 16}", "{}", "sensor", "n_beam"),
        ("{}", "{ego_velocity: 8.0}", "scene", "ego_velocity"),
        ("{}", "{enclosure: {radius: 30, class: 4}}", "enclosure", "class"),
        ("{}", "{primitives: [{kind: box, center: [9, 0, 1], sise: [1, 1, 1], class_id: 2}]}", "box", "sise"),
        ("{}", "{primitives: [{kind: sphere, center: [9, 0, 1], radius: 1, class: 2}]}", "sphere", "class"),
        ("{}", "{primitives: [{kind: cylinder, center: [9, 0, 1], radius: 1, hight: 2, class_id: 2}]}", "cylinder", "hight"),
    ],
)
def test_config_file_rejects_misspelled_key(tmp_path, sensor, scene, section, key):
    path = tmp_path / "setup.yaml"
    path.write_text(f"sensor: {sensor}\nscene: {scene}\n")
    with pytest.raises(ValueError, match=f"section '{section}': unknown key '{key}'"):
        load_scan_setup(path)


@pytest.mark.parametrize(
    "sensor, scene, message",
    [
        pytest.param("{mount_height_m: .nan}", "{}", "SensorModel.mount_height must be float, got nan", id='{mount_height_m: .nan}-{}-mount_height must be a finite number, got nan'),
        pytest.param("{rev_period_s: .nan}", "{}", "SensorModel.rev_period must be float, got nan", id='{rev_period_s: .nan}-{}-rev_period must be a finite number, got nan'),
        pytest.param("{fov_up_deg: .inf}", "{}", "SensorModel.fov_up must be float, got inf", id='{fov_up_deg: .inf}-{}-fov_up must be a finite number, got inf'),
        pytest.param("{}", "{primitives: [{kind: box, center: [12.0, 3.0], size: [1, 1, 1], class_id: 2}]}", rf"Box.center must be {FLOAT3}, got \[12.0, 3.0\]", id='{}-{primitives: [{kind: box, center: [12.0, 3.0], size: [1, 1, 1], class_id: 2}]}-center must be three numbers in Box'),
        pytest.param("{}", "{primitives: [{kind: sphere, center: [9, 0, 1, 2], radius: 1, class_id: 2}]}", rf"Sphere.center must be {FLOAT3}, got \[9, 0, 1, 2\]", id='{}-{primitives: [{kind: sphere, center: [9, 0, 1, 2], radius: 1, class_id: 2}]}-center must be three numbers in Sphere'),
    ],
)
def test_config_file_rejects_bad_geometry_by_name(tmp_path, sensor, scene, message):
    path = tmp_path / "setup.yaml"
    path.write_text(f"sensor: {sensor}\nscene: {scene}\n")
    with pytest.raises(ValueError, match=message):
        load_scan_setup(path)


# a cast would load each as another experiment (2 beams, seed 7, class 3,
# radius 1.0); the values must fail by class and field instead
@pytest.mark.parametrize(
    "sensor, scene, message",
    [
        ("{n_beams: 2.5}", "{}", "SensorModel.n_beams must be int, got 2.5"),
        ("{}", "{seed: '7'}", "SceneConfig.seed must be int, got '7'"),
        ("{}", "{primitives: [{kind: sphere, center: [9, 0, 1], radius: 1, class_id: 3.7}]}", "Sphere.class_id must be int, got 3.7"),
        ("{}", "{enclosure: {radius: 30, class_id: 3.7}}", "SceneConfig.enclosure_class must be int, got 3.7"),
        ("{}", "{primitives: [{kind: sphere, center: [9, 0, 1], radius: true, class_id: 3}]}", "Sphere.radius must be float, got True"),
        ("{}", "{enclosure: {radius: true}}", r"SceneConfig.enclosure_radius must be float \| None, got True"),
        ("{}", "{primitives: [{kind: box, center: 5, size: [1, 1, 1], class_id: 2}]}", rf"Box.center must be {FLOAT3}, got 5"),
    ],
)
def test_config_file_rejects_a_value_of_the_wrong_kind(tmp_path, sensor, scene, message):
    path = tmp_path / "setup.yaml"
    path.write_text(f"sensor: {sensor}\nscene: {scene}\n")
    with pytest.raises(ValueError, match=message):
        load_scan_setup(path)


def test_config_file_defaults_and_required_keys(tmp_path):
    path = tmp_path / "setup.yaml"
    path.write_text("sensor: {}\nscene: {ground_z: null}\n")
    sensor, scene = load_scan_setup(path)
    assert (sensor, scene) == (SensorModel(), SceneConfig(ground_z=None))
    path.write_text("sensor: {}\nscene: {enclosure: {class_id: 4}}\n")
    with pytest.raises(ValueError, match="'enclosure': missing key 'radius'"):
        load_scan_setup(path)
