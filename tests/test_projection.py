import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scanseg.cloud_io import LabelArray, PointCloud
from scanseg.projection import (
    IndexMap,
    backproject_labels,
    get_columns,
    get_rows,
    occlusion_stats,
    project_ego_corrected,
    unfold_scan,
)
from scanseg.synth_lidar import SceneConfig, SensorModel, generate_scan

SMALL = SensorModel(n_beams=8, azimuth_step=360.0 / 64.0)
THRESHOLD = 1.7 * math.radians(SMALL.azimuth_step)


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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 4096))
    def test_totality(self, seed, w):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-100, 100, size=(50, 3))
        cols = get_columns(_cloud(pts), w)
        assert cols.min() >= 0 and cols.max() < w


class TestRows:
    def test_hand_trace(self):
        az = np.radians([170.0, 169.8, 169.6, 170.0, 169.8, 169.6])
        pts = np.stack([np.cos(az), np.sin(az), np.zeros(6)], axis=1)
        rows = get_rows(_cloud(pts), math.radians(0.3))
        np.testing.assert_array_equal(rows, [0, 0, 0, 1, 1, 1])

    def test_single_point(self):
        np.testing.assert_array_equal(get_rows(_cloud([[1, 0, 0]])), [0])

    def test_empty(self):
        assert get_rows(_cloud(np.zeros((0, 3)))).size == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            get_rows(_cloud([[1, 0, 0]]), mode="magic")

    def test_recovers_true_rows_noise_free(self):
        scan = _covered_scan(seed=11)
        for mode in ("literal", "robust"):
            rows = get_rows(scan.cloud, THRESHOLD, mode=mode)
            assert (rows == scan.true_rows).all()

    def test_dropped_return_gap_splits_literal_rows_only(self):
        # a dropped-return notch inside one line: the literal recurrence sees
        # the widened delta as a line break, the wrap-only test does not
        step = math.radians(SMALL.azimuth_step)
        az_full = np.pi - (np.arange(64) + 0.5) * step
        keep = np.ones(64, dtype=bool)
        keep[20:23] = False
        az = np.concatenate([az_full[keep], az_full])
        true_rows = np.concatenate([np.zeros(int(keep.sum()), int), np.ones(64, int)])
        pts = 10.0 * np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)
        literal = get_rows(_cloud(pts), THRESHOLD, mode="literal")
        robust = get_rows(_cloud(pts), THRESHOLD, mode="robust")
        np.testing.assert_array_equal(robust, true_rows)
        assert not (literal == true_rows).all()
        assert literal.max() == 2

    def test_smooth_jitter_keeps_recovery(self):
        # realistic geometry: 2048 firings per revolution, 0.3 deg threshold,
        # jitter stddev a quarter of the threshold
        sensor = SensorModel(n_beams=64)
        threshold = math.radians(0.3)
        scene = SceneConfig(seed=12, enclosure_radius=30.0, angular_noise=math.degrees(threshold) / 4.0)
        scan = generate_scan(sensor, scene)
        for mode in ("literal", "robust"):
            rows = get_rows(scan.cloud, threshold, mode=mode)
            assert (rows == scan.true_rows).mean() >= 0.999


class TestUnfold:
    def test_two_point_collision(self):
        # same pixel, the nearer point wins, the farther lands in occluded
        pts = [[10, 0.01, 0], [5, 0.005, 0]]
        labels = LabelArray(semantic=np.array([3, 4], np.uint16), instance=np.zeros(2, np.uint16))
        img, index_map = unfold_scan(_cloud(pts), labels, h=4, w=64, threshold=math.radians(0.3))
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
        img, index_map = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev, THRESHOLD)
        stats = occlusion_stats(index_map)
        assert stats.n_occluded == 0
        assert stats.n_projected == len(scan)
        assert img.mask.sum() == len(scan)
        np.testing.assert_array_equal(img.label[img.mask] > 0, True)

    def test_rows_beyond_grid_marked_out_of_range(self):
        scan = _covered_scan(seed=13)
        h = 4  # fewer rows than beams
        _, index_map = unfold_scan(scan.cloud, scan.labels, h, SMALL.firings_per_rev, THRESHOLD)
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
            _, m_unfold = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev, THRESHOLD)
            _, m_ego = project_ego_corrected(
                scan.cloud_ego_corrected, scan.labels, SMALL.n_beams, SMALL.firings_per_rev
            )
            assert occlusion_stats(m_unfold).n_occluded == 0
            assert occlusion_stats(m_ego).n_occluded > 0


class TestBackprojection:
    def test_roundtrip_identity_for_winners(self):
        scan = _covered_scan(seed=17)
        img, index_map = unfold_scan(scan.cloud, scan.labels, SMALL.n_beams, SMALL.firings_per_rev, THRESHOLD)
        back = backproject_labels(index_map, img.label, len(scan))
        np.testing.assert_array_equal(back, scan.labels.semantic)

    def test_occluded_point_takes_occluder_label(self):
        pts = [[10, 0.01, 0], [5, 0.005, 0]]
        labels = LabelArray(semantic=np.array([3, 4], np.uint16), instance=np.zeros(2, np.uint16))
        img, index_map = unfold_scan(_cloud(pts), labels, h=4, w=64, threshold=math.radians(0.3))
        back = backproject_labels(index_map, img.label, 2)
        np.testing.assert_array_equal(back, [4, 4])

    def test_out_of_range_gets_zero(self):
        # azimuths far apart with a tiny threshold: the second point jumps to
        # row 1, outside the single-row grid
        pts = [[10, 0.01, 0], [5, 1.0, 0]]
        img, index_map = unfold_scan(_cloud(pts), None, h=1, w=64, threshold=1e-6)
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
    coord = st.floats(-40.0, 40.0, allow_nan=False, width=32)
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
    @settings(max_examples=150, deadline=None)
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
