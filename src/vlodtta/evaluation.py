"""Average-precision evaluation: greedy matching, 101-point interpolation,
IoU thresholds 0.50 to 0.95 in steps of 0.05, classes pooled across images."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GroundTruth
from .geometry import Detection, iou

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
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    matched = [False] * len(gts)
    flags = np.zeros(len(dets), dtype=bool)
    for rank, di in enumerate(order):
        det = dets[di]
        best, best_iou = -1, -1.0
        for gi, gt in enumerate(gts):
            if matched[gi] or gt.class_id != det.class_id:
                continue
            overlap = iou(det.box, gt.box)
            if overlap >= iou_thresh and overlap > best_iou:
                best, best_iou = gi, overlap
        if best >= 0:
            matched[best] = True
            flags[rank] = True
    return flags, len(gts)


def average_precision(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from TP/FP flags sorted by descending score."""
    if n_gt < 0:
        raise ValueError(f"n_gt must be >= 0: {n_gt}")
    if n_gt == 0:
        return 0.0
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    vals = np.where(idx < envelope.size, envelope[np.minimum(idx, envelope.size - 1)], 0.0)
    return float(vals.mean())


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
    classes = sorted({gt.class_id for gts in ground_truths for gt in gts})
    if not classes:
        raise ValueError("no ground-truth objects at all")
    ap = np.zeros((len(classes), IOU_THRESHOLDS.size))
    for ci, cls in enumerate(classes):
        per_image = []
        keys = []  # (-score, image, index) of each detection, in match_detections' visiting order
        n_gt = 0
        for img, (dets, gts) in enumerate(zip(detections, ground_truths)):
            dc = [d for d in dets if d.class_id == cls]
            gc = [gt for gt in gts if gt.class_id == cls]
            order = sorted(range(len(dc)), key=lambda i: (-dc[i].score, i))
            keys.extend((-dc[di].score, img, di) for di in order)
            per_image.append((dc, gc))
            n_gt += len(gc)
        # the pooled ranking does not depend on the IoU threshold
        ranking = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=int)
        for ti, thresh in enumerate(IOU_THRESHOLDS):
            flags = [match_detections(dc, gc, float(thresh))[0] for dc, gc in per_image]
            ap[ci, ti] = average_precision(np.concatenate(flags)[ranking], n_gt)
    per_class = {cls: float(ap[ci].mean()) for ci, cls in enumerate(classes)}
    return APReport(
        mean_ap=float(ap.mean()),
        ap50=float(ap[:, 0].mean()),
        ap75=float(ap[:, 5].mean()),
        per_class=per_class,
    )
