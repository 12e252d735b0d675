import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_iou, central_diff_grad, direct_dice, max_rel_err
from scanseg.seg_objectives import (
    ConfusionMatrix,
    accumulate_confusion,
    cross_entropy,
    dice_loss,
    dice_loss_on_logits,
    miou,
    softmax,
    softmax_backward,
)
from scanseg.trainer import RunReport, write_run_report

GRAD_TOL = 1e-3
EPS = 1e-3


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((3, 4, 5)) * 10
        p = softmax(logits)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-5)
        assert (p >= 0).all()

    def test_vjp_matches_central_difference(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((2, 3, 4))
        up = rng.standard_normal((2, 3, 4))

        def loss():
            return float((softmax(z) * up).sum())

        analytic = softmax_backward(softmax(z), up)
        assert max_rel_err(analytic, central_diff_grad(loss, z, EPS)) < GRAD_TOL


class TestCrossEntropy:
    def test_perfect_prediction_zero(self):
        probs = np.zeros((2, 2, 3))
        targets = np.array([[1, 2], [2, 1]], dtype=np.int32)
        for i in range(2):
            for j in range(2):
                probs[i, j, targets[i, j]] = 1.0
        res = cross_entropy(probs, targets)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_log4(self):
        probs = np.full((1, 1, 4), 0.25)
        res = cross_entropy(probs, np.array([[2]]), ignore_id=None)
        assert res.value == pytest.approx(math.log(4.0), abs=1e-6)

    def test_weighted_two_pixel_hand_sum(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]]).reshape(1, 2, 3)
        targets = np.array([[0, 1]], dtype=np.int32)
        weights = np.array([2.0, 0.5, 1.0])
        # direct evaluation of the weighted mean of -w log p
        expected = -(2.0 * math.log(0.7) + 0.5 * math.log(0.6)) / 2.0
        res = cross_entropy(probs, targets, weights=weights, ignore_id=None)
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_all_ignored_flagged(self):
        probs = np.full((1, 2, 3), 1 / 3)
        res = cross_entropy(probs, np.zeros((1, 2), dtype=np.int32))
        assert res.all_ignored
        assert res.value == 0.0
        assert not res.grad.any()

    def test_ignored_pixels_skipped(self):
        probs = np.full((1, 2, 2), 0.5)
        targets = np.array([[0, 1]], dtype=np.int32)
        scored = cross_entropy(probs, targets)
        assert scored.value == pytest.approx(math.log(2.0))
        assert not scored.grad[0, 0].any()

    def test_gradient_wrt_logits(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3)).astype(np.int32)
        weights = rng.uniform(0.5, 2.0, size=4)

        def loss():
            return cross_entropy(softmax(z), targets, weights=weights).value

        analytic = cross_entropy(softmax(z), targets, weights=weights).grad
        assert max_rel_err(analytic, central_diff_grad(loss, z, EPS)) < GRAD_TOL

    def test_monotone_toward_target(self):
        targets = np.array([[1]], dtype=np.int32)
        lo = cross_entropy(np.array([[[0.4, 0.6]]]), targets).value
        hi = cross_entropy(np.array([[[0.2, 0.8]]]), targets).value
        assert hi < lo

    def test_bad_target_id(self):
        with pytest.raises(ValueError, match=">="):
            cross_entropy(np.full((1, 1, 2), 0.5), np.array([[7]]))


class TestDice:
    def test_exact_match_zero(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(1, 4, size=(3, 5)).astype(np.int32)
        probs = np.zeros((3, 5, 4))
        for i in range(3):
            for j in range(5):
                probs[i, j, targets[i, j]] = 1.0
        res = dice_loss(probs, targets)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_one_pixel_is_one(self):
        probs = np.array([[[0.0, 1.0]]])
        targets = np.array([[0]], dtype=np.int32)
        res = dice_loss(probs, targets, ignore_id=None)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_half_half_fixture(self):
        probs = np.array([[[0.5, 0.5]]])
        targets = np.array([[0]], dtype=np.int32)
        res = dice_loss(probs, targets, ignore_id=None)
        oracle = direct_dice(probs, targets, 2, ignore_id=None)
        assert oracle == pytest.approx(0.6, abs=1e-12)
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_matches_direct_formula_on_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.standard_normal((2, 6, 5))
            targets = rng.integers(0, 5, size=(2, 6)).astype(np.int32)
            probs = softmax(logits)
            res = dice_loss(probs, targets, ignore_id=0)
            assert res.value == pytest.approx(direct_dice(probs, targets, 5, ignore_id=0), abs=1e-10)

    def test_all_ignored_flagged(self):
        res = dice_loss(np.full((1, 1, 2), 0.5), np.zeros((1, 1), dtype=np.int32))
        assert res.all_ignored and res.value == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_bounded_zero_one(self, seed):
        rng = np.random.default_rng(seed)
        probs = softmax(rng.standard_normal((2, 5, 4)) * 3)
        targets = rng.integers(0, 4, size=(2, 5)).astype(np.int32)
        res = dice_loss(probs, targets)
        assert -1e-12 <= res.value <= 1.0 + 1e-12

    def test_gradient_wrt_probs(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, 1.0, size=(1, 6, 3))
        probs /= probs.sum(axis=-1, keepdims=True)
        targets = rng.integers(0, 3, size=(1, 6)).astype(np.int32)

        def loss():
            return dice_loss(probs, targets, ignore_id=None).value

        analytic = dice_loss(probs, targets, ignore_id=None).grad
        assert max_rel_err(analytic, central_diff_grad(loss, probs, EPS)) < GRAD_TOL

    def test_gradient_wrt_logits(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((2, 4, 3))
        targets = rng.integers(0, 3, size=(2, 4)).astype(np.int32)

        def loss():
            return dice_loss_on_logits(softmax(z), targets).value

        analytic = dice_loss_on_logits(softmax(z), targets).grad
        assert max_rel_err(analytic, central_diff_grad(loss, z, EPS)) < GRAD_TOL

    def test_smooth_variant(self):
        probs = np.array([[[0.5, 0.5]]])
        targets = np.array([[0]], dtype=np.int32)
        plain = dice_loss(probs, targets, ignore_id=None).value
        smoothed = dice_loss(probs, targets, ignore_id=None, smooth=1.0).value
        assert smoothed != pytest.approx(plain)
        assert 0.0 <= smoothed <= 1.0


class TestConfusion:
    def test_diagonal_fixture(self):
        cm = ConfusionMatrix.empty(3)
        accumulate_confusion(np.array([1, 2, 1]), np.array([1, 2, 1]), cm, ignore_id=None)
        np.testing.assert_array_equal(np.diag(cm.counts), [0, 2, 1])
        assert cm.counts.sum() == 3

    def test_ignore_rule(self):
        cm = ConfusionMatrix.empty(3)
        accumulate_confusion(np.array([1, 1]), np.array([0, 1]), cm)
        assert cm.counts.sum() == 1

    def test_out_of_range_id(self):
        cm = ConfusionMatrix.empty(3)
        with pytest.raises(ValueError, match="class id"):
            accumulate_confusion(np.array([5]), np.array([1]), cm)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 60))
    def test_chunked_equals_oneshot(self, seed, n):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 5, size=n)
        targets = rng.integers(0, 5, size=n)
        whole = accumulate_confusion(preds, targets, ConfusionMatrix.empty(5))
        split = ConfusionMatrix.empty(5)
        cut = n // 2
        accumulate_confusion(preds[:cut], targets[:cut], split)
        accumulate_confusion(preds[cut:], targets[cut:], split)
        np.testing.assert_array_equal(whole.counts, split.counts)


class TestMiou:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([0, 4, 9, 2]).astype(np.int64))
        iou, mean = miou(cm)
        np.testing.assert_allclose(iou[1:], 1.0)
        assert mean == pytest.approx(1.0)

    def test_two_class_example_no_ignore(self):
        preds = np.array([0, 0, 1, 1])
        targets = np.array([0, 1, 1, 1])
        cm = accumulate_confusion(preds, targets, ConfusionMatrix.empty(2), ignore_id=None)
        iou, mean = miou(cm, ignore_id=None)
        assert iou[0] == pytest.approx(1 / 2)
        assert iou[1] == pytest.approx(2 / 3)
        assert mean == pytest.approx(7 / 12, abs=1e-12)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(np.diag([0, 3, 0, 5]).astype(np.int64))
        iou, mean = miou(cm)
        assert np.isnan(iou[2])
        assert mean == pytest.approx(1.0)

    def test_empty_matrix_flagged(self):
        _, mean = miou(ConfusionMatrix.empty(4))
        assert math.isnan(mean)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            c = int(rng.integers(2, 7))
            preds = rng.integers(0, c, size=n)
            targets = rng.integers(0, c, size=n)
            cm = accumulate_confusion(preds, targets, ConfusionMatrix.empty(c))
            iou, mean = miou(cm)
            ref_iou, ref_mean = brute_force_iou(preds, targets, c)
            np.testing.assert_allclose(iou, ref_iou, atol=1e-12, equal_nan=True)
            if math.isnan(ref_mean):
                assert math.isnan(mean)
            else:
                assert mean == pytest.approx(ref_mean, abs=1e-12)


def _metric_report(cm):
    iou, mean = miou(cm)
    return RunReport(
        loss_trace=[],
        per_class_iou=iou,
        miou=mean,
        param_count=0,
        sec_per_forward=float("nan"),
        config={},
        n_samples=int(cm.counts.sum()),
        point_per_class_iou=iou,
        point_miou=mean,
    )


def test_metric_report_file(tmp_path):
    cm = accumulate_confusion(np.array([1, 2, 2]), np.array([1, 2, 1]), ConfusionMatrix.empty(3))
    path = tmp_path / "metrics.txt"
    write_run_report(_metric_report(cm), path)
    text = path.read_text()
    assert "\nmiou = 0.500000" in text
    assert "iou_class_0 = undefined" in text
    assert "iou_class_1 = 0.500000" in text
    assert "n_samples = 3" in text

    # an empty matrix has no defined class: both means read undefined
    write_run_report(_metric_report(ConfusionMatrix.empty(3)), path)
    text = path.read_text()
    assert "\nmiou = undefined" in text
    assert "point_miou = undefined" in text
