import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_iou, central_diff_grad, direct_dice, max_rel_err
from scanseg.seg_objectives import (
    LOSSES,
    ConfusionMatrix,
    accumulate_confusion,
    cross_entropy,
    dice_loss_on_logits,
    miou,
    objective,
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

    @settings(max_examples=30)
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
        res = cross_entropy(probs, np.array([[2]]))
        assert res.value == pytest.approx(math.log(4.0), abs=1e-6)

    def test_all_ignored_flagged(self):
        probs = np.full((1, 2, 3), 1 / 3)
        res = cross_entropy(probs, np.zeros((1, 2), dtype=np.int32))
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

        def loss():
            return cross_entropy(softmax(z), targets).value

        analytic = cross_entropy(softmax(z), targets).grad
        assert max_rel_err(analytic, central_diff_grad(loss, z, EPS)) < GRAD_TOL

    def test_monotone_toward_target(self):
        targets = np.array([[1]], dtype=np.int32)
        lo = cross_entropy(np.array([[[0.4, 0.6]]]), targets).value
        hi = cross_entropy(np.array([[[0.2, 0.8]]]), targets).value
        assert hi < lo

    def test_bad_target_id(self):
        with pytest.raises(ValueError, match=">="):
            cross_entropy(np.full((1, 1, 2), 0.5), np.array([[7]]))


@pytest.mark.parametrize("loss", [cross_entropy, dice_loss_on_logits])
class TestTargetChecks:
    def test_shape_mismatch_names_both_shapes(self, loss):
        with pytest.raises(ValueError, match=r"targets shape \(1, 3\).*probs shape \(1, 2, 3\)"):
            loss(np.full((1, 2, 3), 1 / 3), np.ones((1, 3), dtype=np.int32))

    def test_negative_target_id_named(self, loss):
        with pytest.raises(ValueError, match="negative target id -1"):
            loss(np.full((1, 2, 3), 1 / 3), np.array([[1, -1]], dtype=np.int32))


class TestDice:
    def test_exact_match_zero(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(1, 4, size=(3, 5)).astype(np.int32)
        probs = np.zeros((3, 5, 4))
        for i in range(3):
            for j in range(5):
                probs[i, j, targets[i, j]] = 1.0
        res = dice_loss_on_logits(probs, targets)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_one_pixel_is_one(self):
        probs = np.array([[[0.0, 0.0, 1.0]]])
        targets = np.array([[1]], dtype=np.int32)
        res = dice_loss_on_logits(probs, targets)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_half_half_fixture(self):
        probs = np.array([[[0.0, 0.5, 0.5]]])
        targets = np.array([[1]], dtype=np.int32)
        res = dice_loss_on_logits(probs, targets)
        oracle = direct_dice(probs, targets, 3, ignore_id=0)
        assert oracle == pytest.approx(0.6, abs=1e-12)
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_matches_direct_formula_on_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.standard_normal((2, 6, 5))
            targets = rng.integers(0, 5, size=(2, 6)).astype(np.int32)
            probs = softmax(logits)
            res = dice_loss_on_logits(probs, targets)
            assert res.value == pytest.approx(direct_dice(probs, targets, 5, ignore_id=0), abs=1e-10)

    def test_all_ignored_flagged(self):
        res = dice_loss_on_logits(np.full((1, 1, 2), 0.5), np.zeros((1, 1), dtype=np.int32))
        assert res.value == 0.0
        assert not res.grad.any()

    @settings(max_examples=40)
    @given(st.integers(0, 2**31))
    def test_bounded_zero_one(self, seed):
        rng = np.random.default_rng(seed)
        probs = softmax(rng.standard_normal((2, 5, 4)) * 3)
        targets = rng.integers(0, 4, size=(2, 5)).astype(np.int32)
        res = dice_loss_on_logits(probs, targets)
        assert -1e-12 <= res.value <= 1.0 + 1e-12

    def test_gradient_wrt_logits(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((2, 4, 3))
        targets = rng.integers(0, 3, size=(2, 4)).astype(np.int32)

        def loss():
            return dice_loss_on_logits(softmax(z), targets).value

        analytic = dice_loss_on_logits(softmax(z), targets).grad
        assert max_rel_err(analytic, central_diff_grad(loss, z, EPS)) < GRAD_TOL

    @pytest.mark.parametrize("gap", [190, 250, 310, 370])
    def test_absent_class_with_underflowing_mass_has_zero_gradient(self, gap):
        # class 3 is absent and its probability ~exp(-gap): its B_c is
        # positive but B_c**2 underflows to 0 in float64
        targets = np.array([2, 2, 1, 2])
        logits = np.zeros((4, 4))
        logits[2, 1] = 1.0
        logits[:, 3] = -float(gap)
        probs = softmax(logits)
        assert (probs[:, 3] ** 2).sum() > 0 and (probs[:, 3] ** 2).sum() ** 2 == 0
        res = dice_loss_on_logits(probs, targets)
        assert np.isfinite(res.value) and np.isfinite(res.grad).all()
        # its probability gradient is 0; the softmax leaves a logit gradient
        # of about exp(-gap), far below the other classes'
        assert np.abs(res.grad[:, 3]).max() < 1e-80 < np.abs(res.grad[:, :3]).max()


class TestObjective:
    def test_sums_terms_in_order(self):
        rng = np.random.default_rng(10)
        probs = softmax(rng.standard_normal((2, 3, 4))).astype(np.float32)
        targets = rng.integers(0, 4, size=(2, 3)).astype(np.int32)
        ce, dice = cross_entropy(probs, targets), dice_loss_on_logits(probs, targets)
        cases = [("ce", ce.value, ce.grad), ("dice", dice.value, dice.grad), ("ce+dice", ce.value + dice.value, ce.grad + dice.grad)]
        assert tuple(kind for kind, _, _ in cases) == LOSSES
        for kind, value, grad in cases:
            res = objective(kind, probs, targets)
            assert res.value == value and np.array_equal(res.grad, grad)

    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match=r"unknown loss 'dice\+ce'"):
            objective("dice+ce", np.full((1, 1, 2), 0.5), np.ones((1, 1), dtype=np.int32))


class TestConfusion:
    def test_diagonal_fixture(self):
        cm = ConfusionMatrix.empty(4)
        accumulate_confusion(np.array([2, 3, 2]), np.array([2, 3, 2]), cm)
        np.testing.assert_array_equal(np.diag(cm.counts), [0, 0, 2, 1])
        assert cm.counts.sum() == 3

    def test_ignore_rule(self):
        cm = ConfusionMatrix.empty(3)
        accumulate_confusion(np.array([1, 1]), np.array([0, 1]), cm)
        assert cm.counts.sum() == 1

    def test_out_of_range_id(self):
        cm = ConfusionMatrix.empty(3)
        with pytest.raises(ValueError, match="class id"):
            accumulate_confusion(np.array([5]), np.array([1]), cm)

    def test_shape_mismatch_names_both_shapes(self):
        # same size, different shape: flattening would pair the wrong pixels
        cm = ConfusionMatrix.empty(3)
        preds, targets = np.arange(6).reshape(2, 3) % 3, np.arange(6).reshape(3, 2) % 3
        with pytest.raises(ValueError, match=r"preds \(2, 3\) vs targets \(3, 2\)"):
            accumulate_confusion(preds, targets, cm)
        assert cm.counts.sum() == 0

    def test_prediction_id_checked_at_unlabeled_pixels(self):
        cm = ConfusionMatrix.empty(3)
        with pytest.raises(ValueError, match=r"prediction class id outside \[0, 3\)"):
            accumulate_confusion(np.array([7, 1]), np.array([0, 1]), cm)
        assert cm.counts.sum() == 0

    @settings(max_examples=30)
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


@settings(max_examples=40)
@given(st.integers(0, 2**31), st.integers(2, 6), st.integers(1, 40), st.sampled_from([np.float32, np.float64]))
def test_unlabeled_pixels_change_nothing(seed, n_classes, n, dtype):
    # whatever is predicted at a class-0 pixel, no loss, gradient or count moves
    rng = np.random.default_rng(seed)
    probs = softmax(rng.standard_normal((1, n, n_classes)) * 3).astype(dtype)
    targets = rng.integers(0, n_classes, size=(1, n))
    unlabeled = targets == 0
    k = int(unlabeled.sum())
    other = probs.copy()
    other[unlabeled] = rng.uniform(0.0, 1.0, size=(k, n_classes)) * 10.0 ** rng.integers(-30, 30, size=(k, n_classes))
    for loss in (cross_entropy, dice_loss_on_logits):
        base, moved = loss(probs, targets), loss(other, targets)
        assert moved.value == base.value
        assert np.array_equal(moved.grad, base.grad)
        assert not moved.grad[unlabeled].any()
    preds = probs.argmax(axis=-1)
    other_preds = preds.copy()
    other_preds[unlabeled] = rng.integers(0, n_classes, size=k)
    base_cm = accumulate_confusion(preds, targets, ConfusionMatrix.empty(n_classes))
    moved_cm = accumulate_confusion(other_preds, targets, ConfusionMatrix.empty(n_classes))
    np.testing.assert_array_equal(moved_cm.counts, base_cm.counts)


class TestMiou:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([0, 4, 9, 2]).astype(np.int64))
        iou, mean = miou(cm)
        np.testing.assert_allclose(iou[1:], 1.0)
        assert mean == pytest.approx(1.0)

    def test_two_class_example_no_ignore(self):
        preds = np.array([1, 1, 2, 2])
        targets = np.array([1, 2, 2, 2])
        cm = accumulate_confusion(preds, targets, ConfusionMatrix.empty(3))
        iou, mean = miou(cm)
        assert iou[1] == pytest.approx(1 / 2)
        assert iou[2] == pytest.approx(2 / 3)
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
        per_class_iou=iou, miou=mean, param_count=0, n_samples=int(cm.counts.sum()), point_per_class_iou=iou, point_miou=mean
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
