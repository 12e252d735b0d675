"""Segmentation losses and the mean-IoU evaluation stack.

Every loss takes softmax probabilities and returns its gradient with respect
to the logits that produced them; ``objective`` sums the terms of each
training objective in ``LOSSES``.

Class id ``UNLABELED`` (0) is never scored: its pixels add nothing to either
loss or its gradient, and its class is left out of the Dice and mIoU class
means, as in the benchmark tables.

Cross-entropy is the mean over scored pixels of -log y_c. The soft Dice loss
of V-Net (arXiv:1606.04797) is one minus the mean per-class overlap ratio

    2 sum_i t y / (sum_i t^2 + sum_i y^2)

over classes whose denominator is nonzero (a class absent from both targets
and predictions carries no information and is excluded rather than smoothed,
so an exact match yields exactly zero loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12
UNLABELED = 0


@dataclass
class LossResult:
    """Scalar loss plus its gradient. A loss with no scored pixel is 0 with a
    zero gradient."""

    value: float
    grad: np.ndarray


@dataclass
class ConfusionMatrix:
    """C x C counts, rows = ground truth, cols = prediction."""

    counts: np.ndarray

    @classmethod
    def empty(cls, n_classes: int) -> "ConfusionMatrix":
        return cls(counts=np.zeros((n_classes, n_classes), dtype=np.int64))

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Channel-axis softmax, max-shifted for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient wrt softmax outputs back to the logits."""
    inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def _check_targets(probs: np.ndarray, targets: np.ndarray) -> None:
    """Reject targets that are not one class id in [0, C) per pixel of ``probs``."""
    if targets.shape != probs.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match probs shape {probs.shape} less its class axis")
    if targets.min(initial=0) < 0:
        raise ValueError(f"negative target id {int(targets.min())}")
    if targets.max(initial=0) >= probs.shape[-1]:
        raise ValueError(f"target id {int(targets.max())} >= {probs.shape[-1]} classes")


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> LossResult:
    """Cross-entropy over scored pixels."""
    _check_targets(probs, targets)
    scored = targets != UNLABELED
    n = int(scored.sum())
    if n == 0:
        return LossResult(0.0, np.zeros_like(probs))

    t = targets[scored]
    q = probs[scored].astype(np.float64)  # (n, C)
    value = float(-np.log(np.maximum(q[np.arange(n), t], LOG_CLAMP)).sum() / n)

    q[np.arange(n), t] -= 1.0  # through the softmax: d/dz = y - onehot(t)
    grad = np.zeros(probs.shape, dtype=probs.dtype)
    grad[scored] = q / n
    return LossResult(value, grad)


def dice_loss_on_logits(probs: np.ndarray, targets: np.ndarray) -> LossResult:
    """Soft Dice loss. Classes whose target and prediction mass are both zero
    on the scored pixels are excluded from the class mean."""
    _check_targets(probs, targets)
    scored = targets != UNLABELED
    y = probs[scored].astype(np.float64)  # (n, C)
    t = targets[scored]
    one_hot = np.zeros_like(y)
    one_hot[np.arange(y.shape[0]), t] = 1.0

    class_ids = np.arange(UNLABELED + 1, probs.shape[-1])
    t_c, y_c = one_hot[:, class_ids], y[:, class_ids]
    inter = 2.0 * (t_c * y_c).sum(axis=0)
    denom = (t_c**2).sum(axis=0) + (y_c**2).sum(axis=0)
    included = denom > 0
    n_included = int(included.sum())
    if n_included == 0:
        return LossResult(0.0, np.zeros_like(probs))
    value = float(1.0 - (inter[included] / denom[included]).sum() / n_included)

    # d/dy of -(1/C') * 2 A_c / B_c with A, B the class sums above
    a, b = inter[included], denom[included]
    # B_c^2 as float64 scalar powers; an array square can differ in the last bit
    b_sq = np.array([b_c**2 for b_c in b])
    # B_c^2 underflows to 0 for an absent class with a tiny predicted mass;
    # there t and A_c are exactly 0, so the column's true gradient is 0
    num = -(2.0 * t_c[:, included] * b - a * 2.0 * y_c[:, included])
    grad_scored = np.zeros_like(y)
    grad_scored[:, class_ids[included]] = np.divide(num, b_sq * n_included, out=np.zeros_like(num), where=b_sq > 0)
    grad_probs = np.zeros(probs.shape, dtype=probs.dtype)
    grad_probs[scored] = grad_scored
    return LossResult(value, softmax_backward(probs, grad_probs))


# a loss name is its terms joined by "+", summed in that order; each term's
# function is looked up in this module when it runs, so a wrapped one is called
_TERMS = {"ce": "cross_entropy", "dice": "dice_loss_on_logits"}
LOSSES = ("ce", "dice", "ce+dice")


def objective(kind: str, probs: np.ndarray, targets: np.ndarray) -> LossResult:
    """The training objective ``kind``, one of ``LOSSES``: the sum of its
    terms' values and logit gradients."""
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}, choose from {LOSSES}")
    total, *rest = (globals()[_TERMS[term]](probs, targets) for term in kind.split("+"))
    for res in rest:
        total = LossResult(total.value + res.value, total.grad + res.grad)
    return total


def accumulate_confusion(preds: np.ndarray, targets: np.ndarray, cm: ConfusionMatrix) -> ConfusionMatrix:
    """Count (target, prediction) pairs into ``cm`` in place; ``UNLABELED``
    targets are skipped. Accumulation is associative across batches.

    ``preds`` and ``targets`` must have the same shape, and every id in
    either, at unlabeled pixels too, must lie in ``[0, n_classes)``.
    """
    preds, targets = np.asarray(preds), np.asarray(targets)
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs targets {targets.shape}")
    c = cm.n_classes
    for name, ids in (("prediction", preds), ("target", targets)):
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= c:
            raise ValueError(f"{name} class id outside [0, {c})")
    scored = targets != UNLABELED
    p, t = preds[scored], targets[scored]
    lin = t.astype(np.int64) * c + p
    cm.counts += np.bincount(lin, minlength=c * c).reshape(c, c)
    return cm


def miou(cm: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class IoU and their mean.

    IoU_c = TP / (TP + FP + FN). Classes with an empty union are undefined
    (NaN in the per-class list) and excluded from the mean, as is
    ``UNLABELED``; an all-undefined matrix yields a NaN mean.
    """
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    union = counts.sum(axis=0) + counts.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, tp / union, np.nan)
    iou[UNLABELED] = np.nan
    defined = ~np.isnan(iou)
    mean = float(iou[defined].mean()) if defined.any() else float("nan")
    return iou, mean

