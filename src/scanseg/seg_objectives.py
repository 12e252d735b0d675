"""Segmentation losses and the mean-IoU evaluation stack.

Class id 0 is "unlabeled": by default it is skipped in both losses and the
metric mean, which is the convention the benchmark tables use. Pass
``ignore_id=None`` to score every class, e.g. in small hand-built fixtures.

Cross-entropy is the mean over scored pixels of -w_c log y_c. The soft Dice
loss is one minus the mean per-class overlap ratio

    2 sum_i t y / (sum_i t^2 + sum_i y^2)

over classes whose denominator is nonzero (a class absent from both targets
and predictions carries no information and is excluded rather than smoothed,
so an exact match yields exactly zero loss). An optional ``smooth`` term is
available for the conventional smoothed variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12


@dataclass
class LossResult:
    """Scalar loss plus its gradient; ``all_ignored`` flags a loss that was
    defined as 0 because no pixel was scored."""

    value: float
    grad: np.ndarray
    all_ignored: bool = False


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


def _scored_mask(targets: np.ndarray, ignore_id: int | None) -> np.ndarray:
    if ignore_id is None:
        return np.ones(targets.shape, dtype=bool)
    return targets != ignore_id


def cross_entropy(
    probs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    ignore_id: int | None = 0,
) -> LossResult:
    """Weighted cross-entropy over scored pixels; gradient is wrt the logits
    that produced ``probs`` through softmax."""
    n_classes = probs.shape[-1]
    if targets.max(initial=0) >= n_classes:
        raise ValueError(f"target id {int(targets.max())} >= {n_classes} classes")
    scored = _scored_mask(targets, ignore_id)
    n = int(scored.sum())
    if n == 0:
        return LossResult(0.0, np.zeros_like(probs), all_ignored=True)
    if weights is None:
        weights = np.ones(n_classes)

    t = targets[scored]
    p = probs[scored, t].astype(np.float64)
    w = weights[t]
    value = float(-(w * np.log(np.maximum(p, LOG_CLAMP))).sum() / n)

    one_hot = np.zeros(probs[scored].shape, dtype=np.float64)
    one_hot[np.arange(n), t] = 1.0
    grad = np.zeros(probs.shape, dtype=probs.dtype)
    grad[scored] = (w[:, None] * (probs[scored] - one_hot)) / n
    return LossResult(value, grad)


def dice_loss(
    probs: np.ndarray,
    targets: np.ndarray,
    ignore_id: int | None = 0,
    smooth: float = 0.0,
) -> LossResult:
    """Soft Dice loss; gradient is wrt ``probs``.

    Chain it to logits with ``softmax_backward``. Classes whose target and
    prediction mass are both zero on the scored pixels are excluded from the
    class mean (with ``smooth > 0`` nothing needs excluding).
    """
    n_classes = probs.shape[-1]
    if targets.max(initial=0) >= n_classes:
        raise ValueError(f"target id {int(targets.max())} >= {n_classes} classes")
    scored = _scored_mask(targets, ignore_id)
    if not scored.any():
        return LossResult(0.0, np.zeros_like(probs), all_ignored=True)

    y = probs[scored].astype(np.float64)  # (n, C)
    t = targets[scored]
    one_hot = np.zeros_like(y)
    one_hot[np.arange(y.shape[0]), t] = 1.0

    class_ids = [c for c in range(n_classes) if ignore_id is None or c != ignore_id]
    inter = 2.0 * (one_hot[:, class_ids] * y[:, class_ids]).sum(axis=0) + smooth
    denom = (one_hot[:, class_ids] ** 2).sum(axis=0) + (y[:, class_ids] ** 2).sum(axis=0) + smooth
    included = denom > 0
    n_included = int(included.sum())
    if n_included == 0:
        return LossResult(0.0, np.zeros_like(probs), all_ignored=True)
    value = float(1.0 - (inter[included] / denom[included]).sum() / n_included)

    # d/dy of -(1/C') * 2 A_c / B_c with A, B the class sums above
    grad_scored = np.zeros_like(y)
    for k, c in enumerate(class_ids):
        if not included[k]:
            continue
        grad_scored[:, c] = -(2.0 * one_hot[:, c] * denom[k] - inter[k] * 2.0 * y[:, c]) / (
            denom[k] ** 2 * n_included
        )
    grad = np.zeros(probs.shape, dtype=probs.dtype)
    grad[scored] = grad_scored
    return LossResult(value, grad)


def dice_loss_on_logits(
    probs: np.ndarray,
    targets: np.ndarray,
    ignore_id: int | None = 0,
    smooth: float = 0.0,
) -> LossResult:
    """Dice loss with the gradient already pulled back to the logits."""
    res = dice_loss(probs, targets, ignore_id, smooth)
    return LossResult(res.value, softmax_backward(probs, res.grad), res.all_ignored)


def accumulate_confusion(
    preds: np.ndarray,
    targets: np.ndarray,
    cm: ConfusionMatrix,
    ignore_id: int | None = 0,
) -> ConfusionMatrix:
    """Count (target, prediction) pairs into ``cm`` in place; targets equal to
    ``ignore_id`` are skipped. Accumulation is associative across batches."""
    preds = np.asarray(preds).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    if preds.shape != targets.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {targets.shape}")
    c = cm.n_classes
    scored = _scored_mask(targets, ignore_id)
    p, t = preds[scored], targets[scored]
    if p.size and (int(p.max()) >= c or int(t.max()) >= c or int(p.min()) < 0 or int(t.min()) < 0):
        raise ValueError(f"class id outside [0, {c})")
    lin = t.astype(np.int64) * c + p
    cm.counts += np.bincount(lin, minlength=c * c).reshape(c, c)
    return cm


def miou(cm: ConfusionMatrix, ignore_id: int | None = 0) -> tuple[np.ndarray, float]:
    """Per-class IoU and their mean.

    IoU_c = TP / (TP + FP + FN). Classes with an empty union are undefined
    (NaN in the per-class list) and excluded from the mean, as is the ignore
    class; an all-undefined matrix yields a NaN mean.
    """
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    union = counts.sum(axis=0) + counts.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, tp / union, np.nan)
    if ignore_id is not None:
        iou[ignore_id] = np.nan
    defined = ~np.isnan(iou)
    mean = float(iou[defined].mean()) if defined.any() else float("nan")
    return iou, mean

