import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import sorted_scatter_nearest

from scanseg.cloud_io import LabelArray, PointCloud
from scanseg.projection import (
    IndexMap,
    _polar,
    _scatter_nearest,
    backproject_labels,
    get_columns,
    get_rows,
    occlusion_stats,
    project_ego_corrected,
    unfold_scan,
)
from scanseg.synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, generate_scan
from scanseg.trainer import _random_scene

SMALL = SensorModel(n_beams=8, azimuth_step=360.0 / 64.0)


def _cloud(points):
    pts = np.asarray(points, dtype=np.float64)
    return PointCloud(points=pts, reflectance=np.zeros(len(pts), dtype=np.float32))


def _covered_scan(sensor=SMALL, **scene_kw):
    scene_kw.setdefault("enclosure_radius", 25.0)
    scene = SceneConfig(**scene_kw)
    return generate_scan(sensor, scene)


class TestColumns:
    def test_cardinal_directions(self):
        cloud = _cloud([[-1, 0, 0], [0, 1, 0], [1, 0, 0]])
        np.testing.assert_array_equal(get_columns(cloud, 2048), [0, 512, 1024])

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="azimuth undefined"):
            get_columns(_cloud([[0, 0, 1]]), 64)

    @settings(max_examples=50)
    @given(st.integers(0, 2**31), st.integers(1, 4096))
    def test_totality(self, seed, w):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-100, 100, size=(50, 3))
        cols = get_columns(_cloud(pts), w)
        assert cols.min() >= 0 and cols.max() < w


def _line_cloud(*lines_deg):
    """Points 10 m out at the given azimuths (degrees), one list per scan line,
    listed line by line."""
    az = np.radians(np.concatenate(lines_deg))
    return _cloud(10.0 * np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1))


def _line_rows(*lines_deg):
    return np.concatenate([np.full(len(line), i) for i, line in enumerate(lines_deg)])


class TestRows:
    def test_hand_trace(self):
        az = np.radians([170.0, 169.8, 169.6, 170.0, 169.8, 169.6])
        pts = np.stack([np.cos(az), np.sin(az), np.zeros(6)], axis=1)
        rows = get_rows(_cloud(pts))
        np.testing.assert_array_equal(rows, [0, 0, 0, 1, 1, 1])

    def test_single_point(self):
        np.testing.assert_array_equal(get_rows(_cloud([[1, 0, 0]])), [0])

    def test_empty(self):
        assert get_rows(_cloud(np.zeros((0, 3)))).size == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            unfold_scan(_cloud([[1, 0, 0]]), mode="literal")

    def test_recovers_true_rows_noise_free(self):
        scan = _covered_scan(seed=11)
        np.testing.assert_array_equal(get_rows(scan.cloud), scan.true_rows)

    def test_dropped_return_gap_wider_than_pi_stays_one_row(self):
        # a line that skips from 152.5 to -76.4 degrees: the gap crosses
        # +-180 degrees in scan order, yet the azimuth only falls
        step = 360.0 / 2048.0
        line0 = np.concatenate([np.arange(179.9, 152.5, -step), np.arange(-76.4, -180.0, -step)])
        line1 = np.arange(179.9, -180.0, -step)
        np.testing.assert_array_equal(get_rows(_line_cloud(line0, line1)), _line_rows(line0, line1))

    def test_line_change_rising_less_than_pi_is_a_break(self):
        # sparse lines (every eighth return kept): the last return of one line
        # at -105.4 degrees, the first of the next at 70.9
        step = 8 * 360.0 / 2048.0
        line0 = np.append(np.arange(179.9, -105.4, -step), -105.4)
        line1 = np.arange(70.9, -180.0, -step)
        np.testing.assert_array_equal(get_rows(_line_cloud(line0, line1)), _line_rows(line0, line1))

    def test_line_wholly_before_the_next_merges_with_it(self):
        # the rule's blind spot: line 0 ends before line 1's first return in
        # firing order, so the azimuth never rises between them
        line0 = np.arange(170.0, 100.0, -1.0)
        line1 = np.arange(90.0, -170.0, -1.0)
        np.testing.assert_array_equal(get_rows(_line_cloud(line0, line1)), 0)

    def test_smooth_jitter_keeps_recovery(self):
        # realistic geometry: 2048 firings per revolution, jitter stddev
        # 0.075 degrees, 0.43 of a firing step
        sensor = SensorModel(n_beams=64)
        scene = SceneConfig(seed=12, enclosure_radius=30.0, angular_noise=0.075)
        scan = generate_scan(sensor, scene)
        np.testing.assert_array_equal(get_rows(scan.cloud), scan.true_rows)


def _open_scene(rng, seed, ego_velocity):
    """A scene without enclosure returning only up to 7 m: ground, and boxes,
    spheres and cylinders 2.5-12 m out."""
    prims = []
    for _ in range(3):
        ang, dist = rng.uniform(-np.pi, np.pi), rng.uniform(3.0, 12.0)
        size = rng.uniform(1.5, 4.0, size=3)
        prims.append(Box(center=(dist * np.cos(ang), dist * np.sin(ang), size[2] / 2), size=tuple(size), class_id=2))
    for _ in range(2):
        ang, dist, r = rng.uniform(-np.pi, np.pi), rng.uniform(3.0, 12.0), rng.uniform(0.6, 1.5)
        prims.append(Sphere(center=(dist * np.cos(ang), dist * np.sin(ang), r), radius=r, class_id=3))
    for _ in range(2):
        ang, dist, height = rng.uniform(-np.pi, np.pi), rng.uniform(2.5, 10.0), rng.uniform(2.0, 4.0)
        center = (dist * np.cos(ang), dist * np.sin(ang), height / 2)
        prims.append(Cylinder(center=center, radius=float(rng.uniform(0.2, 0.5)), height=height, class_id=4))
    return SceneConfig(primitives=tuple(prims), max_range=7.0, seed=seed, ego_velocity=ego_velocity)


_SCENE_KINDS = {
    "random3": lambda rng, seed, v: _random_scene(rng, seed, 3, v),  # open
    "random5": lambda rng, seed, v: _random_scene(rng, seed, 5, v),  # enclosed
    "open7m": _open_scene,
}


@pytest.mark.parametrize("kind", sorted(_SCENE_KINDS))
@pytest.mark.parametrize(("h", "w"), [(16, 128), (32, 512), (64, 256), (64, 1024)])
def test_rows_equal_true_rows_on_simulated_scans(kind, h, w):
    sensor = SensorModel(n_beams=h, azimuth_step=360.0 / w)
    wrong = []
    for seed in range(8):
        for ego_velocity in (0.0, 10.0, -8.0):
            scene = _SCENE_KINDS[kind](np.random.default_rng(seed), seed, ego_velocity)
            for angular_noise in (0.0, 0.05):
                scan = generate_scan(sensor, dataclasses.replace(scene, angular_noise=angular_noise))
                rate = float((get_rows(scan.cloud) == scan.true_rows).mean())
                if rate < 1.0:
                    wrong.append((seed, ego_velocity, angular_noise, rate))
    assert wrong == []


class TestUnfold:
    def test_two_point_collision(self):
        # same pixel, the nearer point wins, the farther lands in occluded
        pts = [[10, 0.01, 0], [5, 0.005, 0]]
        labels = LabelArray(semantic=np.array([3, 4], np.uint16), instance=np.zeros(2, np.uint16))
        img, index_map = unfold_scan(_cloud(pts), labels, h=4, w=64)
        stats = occlusion_stats(index_map)
        assert (stats.n_points, stats.n_projected, stats.n_occluded, stats.n_out_of_range) == (2, 1, 1, 0)
        r, c = index_map.point_to_pixel[1]
        assert img.depth[r, c] == pytest.approx(5.0, rel=1e-5)
        assert img.label[r, c] == 4
        assert list(index_map.occluded) == [0]
        assert tuple(index_map.point_to_pixel[0]) == (r, c)

    def test_empty_cloud(self):
        img, index_map = unfold_scan(_cloud(np.zeros((0, 3))), None, h=4, w=8)
        assert not img.mask.any()
        assert occlusion_stats(index_map).n_points == 0

    def test_noise_free_scan_dense_and_collision_free(self):
        scan = _covered_scan(seed=13)
        img, index_map = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev)
        stats = occlusion_stats(index_map)
        assert stats.n_occluded == 0
        assert stats.n_projected == len(scan)
        assert img.mask.sum() == len(scan)
        np.testing.assert_array_equal(img.label[img.mask] > 0, True)

    @pytest.mark.parametrize("w", [128, 512, 1024, 2048])
    def test_default_threshold_recovers_true_rows_at_any_width(self, w):
        sensor = SensorModel(n_beams=16, azimuth_step=360.0 / w)
        scan = _covered_scan(sensor, seed=15)
        _, index_map = unfold_scan(scan.cloud, scan.labels, sensor.n_beams, w)
        np.testing.assert_array_equal(index_map.point_to_pixel[:, 0], scan.true_rows)

    def test_rows_beyond_grid_marked_out_of_range(self):
        scan = _covered_scan(seed=13)
        h = 4  # fewer rows than beams
        _, index_map = unfold_scan(scan.cloud, scan.labels, h, SMALL.firings_per_rev)
        stats = occlusion_stats(index_map)
        expected_out = int((scan.true_rows >= h).sum())
        assert stats.n_out_of_range == expected_out

    def test_index_map_consistency_and_winner_minimality(self):
        scan = _covered_scan(seed=14, ego_velocity=8.0)
        img, index_map = project_ego_corrected(
            scan.cloud_ego_corrected, scan.labels, SMALL.n_beams, SMALL.firings_per_rev
        )
        p2p = index_map.pixel_to_point
        for r, c in zip(*np.nonzero(p2p >= 0)):
            i = p2p[r, c]
            assert tuple(index_map.point_to_pixel[i]) == (r, c)
        # brute force: every point mapped to a pixel is at least as far as the winner
        depth = np.linalg.norm(scan.cloud_ego_corrected.points.astype(np.float64), axis=1)
        rows_cols = index_map.point_to_pixel
        for i in index_map.occluded:
            r, c = rows_cols[i]
            winner = p2p[r, c]
            assert depth[winner] <= depth[i] + 1e-9
        winners = p2p[p2p >= 0]
        occluded = set(index_map.occluded.tolist())
        assert occluded.isdisjoint(winners.tolist())
        out_of_range = {int(i) for i in np.flatnonzero(rows_cols[:, 0] < 0)}
        assert len(occluded) + len(winners) + len(out_of_range) == len(scan)


class TestEgoProjection:
    def test_fov_endpoint_rows(self):
        h = 16
        up, down = 3.0, -25.0
        d_up = math.radians(up)
        d_down = math.radians(down)
        pts = [
            [math.cos(d_up), 0, math.sin(d_up)],
            [math.cos(d_down), 0, math.sin(d_down)],
        ]
        _, index_map = project_ego_corrected(_cloud(pts), None, h, 64, up, down)
        assert index_map.point_to_pixel[0][0] == 0
        assert index_map.point_to_pixel[1][0] == h - 1

    def test_rows_match_truth_without_motion(self):
        scan = _covered_scan(seed=15)
        _, index_map = project_ego_corrected(
            scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev, SMALL.fov_up, SMALL.fov_down
        )
        rows = index_map.point_to_pixel[:, 0]
        assert (rows == scan.true_rows).all()

    def test_motion_creates_occlusions(self):
        scan = _covered_scan(seed=16, ego_velocity=10.0)
        _, index_map = project_ego_corrected(
            scan.cloud_ego_corrected, scan.labels, SMALL.n_beams, SMALL.firings_per_rev
        )
        assert occlusion_stats(index_map).n_occluded > 0

    def test_invalid_fov(self):
        with pytest.raises(ValueError, match="fov_down"):
            project_ego_corrected(_cloud([[1, 0, 0]]), None, 4, 8, fov_up=-25.0, fov_down=3.0)


class TestOcclusionAccounting:
    def test_empty(self):
        for project in (unfold_scan, project_ego_corrected):
            _, index_map = project(_cloud(np.zeros((0, 3))), None, 2, 2)
            stats = occlusion_stats(index_map)
            assert (stats.n_points, stats.n_projected, stats.n_occluded, stats.n_out_of_range) == (0, 0, 0, 0)

    @pytest.mark.parametrize("project", [unfold_scan, project_ego_corrected])
    @pytest.mark.parametrize(("h", "w", "name"), [(0, 8, "h"), (-1, 8, "h"), (4, 0, "w"), (4, -2, "w")])
    def test_grid_below_one_rejected(self, project, h, w, name):
        with pytest.raises(ValueError, match=f"grid size {name} must be at least 1, got {min(h, w)}"):
            project(_cloud([[1, 0, 0], [0, 1, 0]]), None, h, w)

    @pytest.mark.parametrize("project", [unfold_scan, project_ego_corrected])
    @pytest.mark.parametrize(("h", "w", "name", "value"), [(2.5, 8, "h", "2.5"), (4, 64.0, "w", "64.0"), (True, 8, "h", "True")])
    def test_grid_size_not_an_int_rejected(self, project, h, w, name, value):
        with pytest.raises(ValueError, match=f"grid size {name} must be an int, got {value}"):
            project(_cloud([[1, 0, 0], [0, 1, 0]]), None, h, w)

    @pytest.mark.parametrize("fov", [{"fov_up": np.inf}, {"fov_down": -np.inf}, {"fov_up": np.nan}, {"fov_down": True}])
    def test_fov_not_finite_rejected(self, fov):
        with pytest.raises(ValueError, match=f"fov_up and fov_down must be finite reals, got {fov.get('fov_up', 3.0)} and {fov.get('fov_down', -25.0)}"):
            project_ego_corrected(_cloud([[1, 0, 0], [0, 1, 0]]), None, 4, 8, **fov)

    def test_inconsistent_index_map_rejected(self):
        # three points, one pixel won, nothing occluded or out of range
        index_map = IndexMap(
            pixel_to_point=np.array([[0, -1]], dtype=np.int32),
            point_to_pixel=np.array([[0, 0], [0, 1], [0, 1]], dtype=np.int32),
            occluded=np.zeros(0, dtype=np.int32),
        )
        with pytest.raises(ValueError, match=r"projected 1 \+ occluded 0 \+ out_of_range 0 != 3 points"):
            occlusion_stats(index_map)

    def test_ego_exceeds_unfold_on_moving_scenes(self):
        for seed in range(3):
            scan = _covered_scan(seed=20 + seed, ego_velocity=7.0)
            _, m_unfold = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev)
            _, m_ego = project_ego_corrected(
                scan.cloud_ego_corrected, scan.labels, SMALL.n_beams, SMALL.firings_per_rev
            )
            assert occlusion_stats(m_unfold).n_occluded == 0
            assert occlusion_stats(m_ego).n_occluded > 0


class TestBackprojection:
    def test_roundtrip_identity_for_winners(self):
        scan = _covered_scan(seed=17)
        img, index_map = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev)
        back = backproject_labels(index_map, img.label, len(scan))
        np.testing.assert_array_equal(back, scan.labels.semantic)

    def test_occluded_point_takes_occluder_label(self):
        pts = [[10, 0.01, 0], [5, 0.005, 0]]
        labels = LabelArray(semantic=np.array([3, 4], np.uint16), instance=np.zeros(2, np.uint16))
        img, index_map = unfold_scan(_cloud(pts), labels, h=4, w=64)
        back = backproject_labels(index_map, img.label, 2)
        np.testing.assert_array_equal(back, [4, 4])

    def test_out_of_range_gets_zero(self):
        # the azimuth rises from the first point to the second, which starts
        # row 1, outside the single-row grid
        pts = [[10, 0.01, 0], [5, 1.0, 0]]
        img, index_map = unfold_scan(_cloud(pts), None, h=1, w=64)
        assert occlusion_stats(index_map).n_out_of_range == 1
        back = backproject_labels(index_map, img.label, 2)
        assert back[1] == 0
        assert tuple(index_map.point_to_pixel[1]) == (-1, -1)

    def test_size_mismatch_rejected(self):
        img, index_map = unfold_scan(_cloud([[1, 0, 0]]), None, 4, 8)
        with pytest.raises(ValueError, match="points"):
            backproject_labels(index_map, img.label, 5)
        with pytest.raises(ValueError, match="grid"):
            backproject_labels(index_map, np.zeros((2, 2), np.int32), 1)


@st.composite
def _crowded_clouds(draw):
    """Random clouds where several points share a pixel: copies scaled along
    one ray (same azimuth and elevation) and exact duplicates (a depth tie),
    each inserted right after its source so unfolding keeps it on the
    source's scan line, or at a random index."""
    n = draw(st.integers(1, 24))
    # no subnormals: half of one would round to 0 and put a scaled copy on the z axis
    coord = st.floats(-40.0, 40.0, allow_nan=False, allow_subnormal=False, width=32)
    pts = draw(hnp.arrays(np.float32, (n, 3), elements=coord))
    pts[(pts[:, 0] == 0) & (pts[:, 1] == 0), 0] = 1.0  # azimuth is undefined on the z axis
    pts = list(pts)
    for _ in range(draw(st.integers(0, 12))):
        src = draw(st.integers(0, len(pts) - 1))
        scale = draw(st.sampled_from([1.0, 1.0, 0.5, 2.0, 3.0]))  # 1.0: exact tie
        at = draw(st.sampled_from([src + 1, draw(st.integers(0, len(pts)))]))
        pts.insert(at, pts[src] * np.float32(scale))
    return _cloud(np.array(pts))


def _project(cloud, projection, h, w):
    if projection == "unfold":
        return unfold_scan(cloud, None, h, w)
    return project_ego_corrected(cloud, None, h, w)


class TestProjectionProperties:
    @settings(max_examples=150)
    @given(_crowded_clouds(), st.sampled_from(["unfold", "ego"]), st.integers(1, 6), st.integers(1, 12))
    def test_accounting_nearest_wins_and_backprojection(self, cloud, projection, h, w):
        img, index_map = _project(cloud, projection, h, w)
        n = len(cloud)
        stats = occlusion_stats(index_map)
        assert stats.n_projected + stats.n_occluded + stats.n_out_of_range == n

        depth = np.linalg.norm(cloud.points.astype(np.float64), axis=1).astype(np.float32)
        in_range = np.flatnonzero(index_map.point_to_pixel[:, 0] >= 0)
        r, c = index_map.point_to_pixel[in_range].T
        winner = index_map.pixel_to_point[r, c]
        assert (winner >= 0).all()
        np.testing.assert_array_equal(index_map.point_to_pixel[winner], index_map.point_to_pixel[in_range])
        # the winner is at least as near as every point on its pixel; on an
        # exact depth tie the later index wins
        assert (depth[winner] <= depth[in_range]).all()
        tie = depth[winner] == depth[in_range]
        assert (winner[tie] >= in_range[tie]).all()
        np.testing.assert_array_equal(img.depth[r, c], depth[winner])

        # back-projecting an image of winner ids hands each in-range point
        # its pixel's winner, and each out-of-range point 0
        back = backproject_labels(index_map, index_map.pixel_to_point, n)
        np.testing.assert_array_equal(back[in_range], winner)
        assert (back[index_map.point_to_pixel[:, 0] < 0] == 0).all()
        if projection == "ego":
            assert stats.n_out_of_range == 0


@st.composite
def _scatter_inputs(draw):
    """Pixel coordinates on a small grid (rows past ``h - 1`` out of range)
    and depths from a short list, so pixels are shared and depths tie: 1.0
    and 1.0 + 1e-12 differ in float64 but not in float32, and 1e39 is past
    float32's range."""
    h, w, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(0, 40))
    rows = draw(hnp.arrays(np.int32, n, elements=st.integers(0, h + 1)))
    cols = draw(hnp.arrays(np.int32, n, elements=st.integers(0, w - 1)))
    ranges = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 2.0, 7.25, 1e39])))
    reflectance = draw(hnp.arrays(np.float32, n, elements=st.floats(0.0, 1.0, width=32)))
    semantic = draw(hnp.arrays(np.uint16, n, elements=st.integers(0, 19)))
    labels = draw(st.sampled_from([None, LabelArray(semantic=semantic, instance=np.zeros(n, np.uint16))]))
    cloud = PointCloud(points=np.ones((n, 3)), reflectance=reflectance)
    return cloud, labels, ranges, rows, cols, rows < h, h, w


def _arrays(image, index_map):
    planes = {plane: getattr(image, plane) for plane in ("depth", "reflectance", "label", "mask")}
    return planes | {field: getattr(index_map, field) for field in ("pixel_to_point", "point_to_pixel", "occluded")}


@settings(max_examples=200)
@given(_scatter_inputs())
def test_scatter_matches_sorted_scatter_bit_for_bit(inputs):
    with np.errstate(over="ignore"):  # 1e39 overflows the float32 depth to inf
        got = _arrays(*_scatter_nearest(*inputs))
        want = _arrays(*sorted_scatter_nearest(*inputs))
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].tobytes() == array.tobytes(), name


def _assert_ranges_are_norm(cloud):
    want = np.linalg.norm(cloud.points.astype(np.float64), axis=1)
    assert _polar(cloud.points)[1].tobytes() == want.tobytes()


@settings(max_examples=50)
@given(st.integers(0, 2**31), st.integers(0, 300), st.sampled_from([1e-3, 1.0, 80.0, 1e30]))
def test_ranges_bit_equal_to_norm(seed, n, scale):
    rng = np.random.default_rng(seed)
    _assert_ranges_are_norm(_cloud(rng.normal(0.0, scale, size=(n, 3))))


# Three paper-resolution scenes and the sha256 of every array the simulator and
# both projections return for them (numpy 2.4, x86-64). Any change to the
# cast points, their order or the pixel winners shows here.
PINNED_SCENES = {
    "enclosed_moving_noisy": SceneConfig(
        seed=21,
        primitives=(
            Box(center=(-9.0, 0.4, 1.0), size=(2.5, 3.0, 2.0), class_id=2),
            Box(center=(1.2, -0.9, 0.8), size=(1.0, 1.5, 1.6), class_id=2),
            Sphere(center=(4.0, 6.0, 1.1), radius=1.1, class_id=3),
            Cylinder(center=(-3.0, -5.0, 1.5), radius=0.3, height=3.0, class_id=4),
        ),
        enclosure_radius=32.0,
        angular_noise=0.05,
        ego_velocity=10.0,
    ),
    "open_reversing": SceneConfig(
        seed=5,
        primitives=(
            Box(center=(5.0, 2.0, 1.0), size=(3.0, 2.0, 2.0), class_id=2),
            Sphere(center=(-6.0, -0.2, 0.9), radius=0.9, class_id=3),
            Cylinder(center=(2.0, -4.0, 1.2), radius=0.4, height=2.4, class_id=4),
        ),
        max_range=7.0,
        ego_velocity=-8.0,
    ),
    # static and without ground: every firing casts from the origin, and only
    # the enclosure and the two primitives return
    "enclosed_static_groundless": SceneConfig(
        seed=13,
        ground_z=None,
        primitives=(
            Sphere(center=(6.5, -2.5, 0.8), radius=1.3, class_id=3),
            Cylinder(center=(-3.5, 4.0, 1.2), radius=0.45, height=3.5, class_id=4),
        ),
        enclosure_radius=24.0,
    ),
}
PINNED_DIGESTS = {
    "enclosed_moving_noisy": {
        "cloud.points": "0d69046bfb907744ea5619568e255409f0e4e45dca00d06b9471fbdb7d80fb49",
        "cloud.reflectance": "135becd947b604fc52274b818ef9db62cf35246fe300ba1812cad0094a9e343b",
        "ego.points": "7480b9c96f089c33c2801cb584dfec976d408e30a8ce79585b5a3211e0eff946",
        "ego.reflectance": "135becd947b604fc52274b818ef9db62cf35246fe300ba1812cad0094a9e343b",
        "true_rows": "e3ff9596450ad39f8c0997d92dc0c54249b18ba66f569fcdb8d6783594253073",
        "true_cols": "e6779aee76b6b4bcfc4456dea1b781c99b8a800accdd996e325bb33eeb8e02e6",
        "semantic": "f101a1ba6aa21f0274528fff202c0a3d42532f2c967e709ff24ae01578ea79cf",
        "instance": "2f0cc01b6f98593908d5b117abda85dca03321daef6e17e9a9d80616f746f43b",
        "unfold.depth": "da2e2059e8ef54365aea53b903629773cd9b9dfc0ede5f1148060d090d7d5e65",
        "unfold.reflectance": "7541205349853d150e33fe41d36e9c71bcfcf1cc0896cdf0448f39ab85662d9f",
        "unfold.label": "b21db2f21bb8d2817affb42fba794c971a907dd713db29b85e6e6f4eab8d7998",
        "unfold.mask": "eade19342d611caca7a13d798f383db7cad7562332500aecb97b24d34dd66d1f",
        "unfold.pixel_to_point": "106295ab5556da6db15242ac2aac276b681335a289835ded5e2ac04ef4d793b9",
        "unfold.point_to_pixel": "1998031c8c1a25d0ccec8c13d81d6219fe1bc8fc87c383b6e6ca9dd7b43cb7da",
        "unfold.occluded": "382a458d3d4efd47ba254e889d720b722c76aead35b576d81b32d2e4a7c62c23",
        "corrected.depth": "96219f9c9b3bc74c123b9763def0d70620a46da0c74e0fcaaa3b0724f4dfe630",
        "corrected.reflectance": "770786fc852047095e1e293ef3da8815b45bbba82c04c7a337c6975fda6be730",
        "corrected.label": "e6b4d2d76383a1a1b6b94bd667b570967e54987ff49cef99787b73431f3f7d2c",
        "corrected.mask": "92d6a1bec2cc276f489a67dfb3579038d6f85378651c1c128e6a4f22a0671df9",
        "corrected.pixel_to_point": "25f7de32b05f3d2fdd6287515fe32daab727c843f264cbab61322a999c247f46",
        "corrected.point_to_pixel": "cd439f153b37a7247b5e621b27050febe48ead5a7a7f46512cf9dd4506b85f93",
        "corrected.occluded": "5a1a259204575386aa1113fd72b89261da00e731e92cb27fcdfd96083a3e8103",
    },
    "open_reversing": {
        "cloud.points": "424831b552e454055362aa8795e6ec76c3a86f32260ced873321d6f834bc7351",
        "cloud.reflectance": "03bbcb1f763b73d5fe89031042089620de675210d16e41473ab1f625181868a1",
        "ego.points": "8057c889d4cf10822e2423cc7fe5005f9c1ea5738634f8e9167ba2f5c4ec8d61",
        "ego.reflectance": "03bbcb1f763b73d5fe89031042089620de675210d16e41473ab1f625181868a1",
        "true_rows": "c01ab9c0557118ab1ecb80193d0d75ec9169907d468e366cc1b8fdf0cc6cd832",
        "true_cols": "e9fc2be0361e54e661d39311255889b27d225b82d24abebdf3127ae7aebdc322",
        "semantic": "66415fd4793a6a6138a5682388a9c9281cb73790fa2b25efe97d5fdc158158ab",
        "instance": "041e66e10e651b2d9c852dba3ef756c827010e625dd337bdd09a39f90869327d",
        "unfold.depth": "2ab0d0b84d59b449565fddedd22a00f30a83a60c501af46ab19276ae1d4070a1",
        "unfold.reflectance": "e34d3e8f538bca3b34a3daa813c132eda088cd247ae25eb04a6729c5962886ab",
        "unfold.label": "7a47aa0a9da7aeeb785bbddccd26796e2cc1eeaf0c30a5f2e99127ee8fc22aac",
        "unfold.mask": "6c2dfffdaee6f6730212ba2a3ce0389828026826237bcdad9a4a4980dc7b2581",
        "unfold.pixel_to_point": "a1bd54b0434287654087892872614b215d5c672bb1227253c1d77cafc38279c8",
        "unfold.point_to_pixel": "d89d8cabf8361f58f6f7dacbf78e31d75aa1ef8595b4573ed0f1661d15fe957f",
        "unfold.occluded": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "corrected.depth": "898532c760934c4bcd0ac76a14f4db8083e28497406d709b33731d3b6ee5e4d5",
        "corrected.reflectance": "fe3f70ae8d053336aa46a3733a6d8fb89a83e7888b7e1c2a64ed689f81956fa0",
        "corrected.label": "31e1bee92a0141cfca151b7d58197272cb9f4eb24c2bea4bebcac641b781cd00",
        "corrected.mask": "a4cec1deb2a389a002f9b6ff322ec4cf2aa51a7fb6d05a5c503bf68ae36474b4",
        "corrected.pixel_to_point": "ff55d3df23c2de79eaf7b6f7c56c36307678e099d5c7a2c6f00763a5598c223a",
        "corrected.point_to_pixel": "c8138a51bcb2a35221a5e6ce6896fdfb3243dbf6f5bd4cb79d39769feeec50d2",
        "corrected.occluded": "d313bae9ec688e4a72d2da9f567d4dbb1888bcad3e5b5e473c801be49e0354eb",
    },
    "enclosed_static_groundless": {
        "cloud.points": "ce92853350e130e44537e6c175b72edca13c48964a15c1267581bba141d1da46",
        "cloud.reflectance": "c13920227d8786b1697112cae897eef9e4d8f2fef946cdafd31e2dddc06ce97c",
        "ego.points": "ce92853350e130e44537e6c175b72edca13c48964a15c1267581bba141d1da46",
        "ego.reflectance": "c13920227d8786b1697112cae897eef9e4d8f2fef946cdafd31e2dddc06ce97c",
        "true_rows": "3154b4ac33491e417c242b27fa490ab320b3c078b386f346ae2aa959848f6b43",
        "true_cols": "4104c62fa2c8fb9643ef86ec80ac4b1c72ca799bb74e35f737296e0e86da010e",
        "semantic": "8a98e2c09cb7f9f443686a53e6e529cb4e67c7f57bcea6727cbeb7ae60703931",
        "instance": "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
        "unfold.depth": "c676ef311a7f805572a5c73f7dbd8eb080d4e483076f1d2a5ff3a8cf9ea9b83d",
        "unfold.reflectance": "c13920227d8786b1697112cae897eef9e4d8f2fef946cdafd31e2dddc06ce97c",
        "unfold.label": "c899f27d73d61cc1aa138c38bb4d1eff799e99e6d851c7787bdf88e42613fcda",
        "unfold.mask": "4017b7a27f5d49ed213ab864b83f7d1f706ecc1039001dadcffed8df6bccddd1",
        "unfold.pixel_to_point": "061e694cd62753aa1a6eb0432029ac8c62b8ad5fb97e0dcb9764a9dc6344af35",
        "unfold.point_to_pixel": "dd02369ea7dfe002e157714eb65874c1a918a906bff975b6d325e3b4453eb062",
        "unfold.occluded": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "corrected.depth": "c676ef311a7f805572a5c73f7dbd8eb080d4e483076f1d2a5ff3a8cf9ea9b83d",
        "corrected.reflectance": "c13920227d8786b1697112cae897eef9e4d8f2fef946cdafd31e2dddc06ce97c",
        "corrected.label": "c899f27d73d61cc1aa138c38bb4d1eff799e99e6d851c7787bdf88e42613fcda",
        "corrected.mask": "4017b7a27f5d49ed213ab864b83f7d1f706ecc1039001dadcffed8df6bccddd1",
        "corrected.pixel_to_point": "061e694cd62753aa1a6eb0432029ac8c62b8ad5fb97e0dcb9764a9dc6344af35",
        "corrected.point_to_pixel": "dd02369ea7dfe002e157714eb65874c1a918a906bff975b6d325e3b4453eb062",
        "corrected.occluded": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENES))
def test_pinned_scan_and_projections_bit_exact(name):
    scan = generate_scan(SensorModel(), PINNED_SCENES[name])
    arrays = {
        "cloud.points": scan.cloud.points,
        "cloud.reflectance": scan.cloud.reflectance,
        "ego.points": scan.cloud_ego_corrected.points,
        "ego.reflectance": scan.cloud_ego_corrected.reflectance,
        "true_rows": scan.true_rows,
        "true_cols": scan.true_cols,
        "semantic": scan.labels.semantic,
        "instance": scan.labels.instance,
    }
    projections = {
        "unfold": unfold_scan(scan.cloud, scan.labels),
        "corrected": project_ego_corrected(scan.cloud_ego_corrected, scan.labels),
    }
    for projection, (image, index_map) in projections.items():
        for plane in ("depth", "reflectance", "label", "mask"):
            arrays[f"{projection}.{plane}"] = getattr(image, plane)
        for field in ("pixel_to_point", "point_to_pixel", "occluded"):
            arrays[f"{projection}.{field}"] = getattr(index_map, field)
    digests = {key: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for key, a in arrays.items()}
    assert digests == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED_SCENES))
def test_ranges_bit_equal_to_norm_on_pinned_scenes(name):
    scan = generate_scan(SensorModel(), PINNED_SCENES[name])
    _assert_ranges_are_norm(scan.cloud)
    _assert_ranges_are_norm(scan.cloud_ego_corrected)
