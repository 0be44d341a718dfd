"""Axis-aligned box arithmetic: IoU, same-class overlap pairs, greedy NMS, and top-M filtering."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "Detection", "iou", "iou_matrix", "overlap_pairs", "nms", "top_m_filter"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in pixel coordinates with strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite: {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"box needs x1 < x2 and y1 < y2: {coords}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class Detection:
    """A classified box with a confidence score."""

    box: Box
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite: {self.score}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative: {self.class_id}")


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0.0 when they are disjoint."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def _box_array(boxes) -> np.ndarray:
    """An (N, 4) x1, y1, x2, y2 float array from an array or a Box list."""
    if len(boxes) and isinstance(boxes[0], Box):
        boxes = [[b.x1, b.y1, b.x2, b.y2] for b in boxes]
    return np.asarray(boxes, dtype=float).reshape(-1, 4)


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of two broadcastable (..., 4) box arrays.

    iou_matrix and overlap_pairs both go through these operations, so a
    pair gets the same bits from either.
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.where(inter > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def iou_matrix(boxes) -> np.ndarray:
    """Pairwise IoU of boxes given as an (N, 4) x1, y1, x2, y2 array or Box list."""
    boxes = _box_array(boxes)
    return _pair_iou(boxes[:, None, :], boxes[None, :, :])


def overlap_pairs(boxes, classes, thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the same class whose IoU is at least thresh.

    Every same-class pair is listed and tested, disjoint ones included, so
    thresh 0 links each class completely. Only same-class pairs get an
    IoU; pairs come back grouped by class, in row-major order within one.
    """
    boxes = _box_array(boxes)
    classes = np.asarray(classes)
    n = boxes.shape[0]
    if classes.shape != (n,):
        raise ValueError(f"{n} boxes vs {classes.shape} classes")
    order = np.argsort(classes, kind="stable")
    ranked = classes[order]
    # a stable sort keeps indices ascending within a class, so each sorted
    # position pairs with the later positions up to the end of its class
    later = np.searchsorted(ranked, ranked, side="right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), later)
    offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    ii, jj = order[first], order[first + 1 + offset]
    keep = _pair_iou(boxes[ii], boxes[jj]) >= thresh
    return ii[keep], jj[keep]


def nms(boxes, scores: np.ndarray, classes: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy non-maximum suppression; kept indices in descending score order.

    Box i is dropped iff an already-kept box of the same class overlaps it
    with IoU >= iou_thresh. Score ties are broken by lower input index.
    Class-agnostic suppression is one class for every box. The suppressing
    pairs come from overlap_pairs as a neighbour list (CSR: each box's
    neighbours are dst[ptr[i]:ptr[i + 1]]), so no N x N matrix is built.
    """
    if not (0.0 <= iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in [0, 1]: {iou_thresh}")
    boxes = _box_array(boxes)
    scores = np.asarray(scores, dtype=float)
    classes = np.asarray(classes)
    if not (scores.shape == classes.shape == boxes.shape[:1]):
        raise ValueError(f"{boxes.shape[0]} boxes vs {scores.shape} scores vs {classes.shape} classes")
    ii, jj = overlap_pairs(boxes, classes, iou_thresh)
    src = np.concatenate([ii, jj])
    by_src = np.argsort(src, kind="stable")
    dst = np.concatenate([jj, ii])[by_src]
    ptr = np.searchsorted(src[by_src], np.arange(scores.size + 1)).tolist()
    order = np.lexsort((np.arange(scores.size), -scores))
    blocked = np.zeros(scores.size, dtype=bool)
    kept: list[int] = []
    for i in order.tolist():
        if not blocked[i]:
            kept.append(i)
            blocked[dst[ptr[i]:ptr[i + 1]]] = True
    return np.array(kept, dtype=int)


def top_m_filter(scores: np.ndarray, m: int) -> list[int]:
    """Indices of the min(N, m) rows with the largest row maximum.

    Returned in descending order of the row maximum; ties keep the lower
    row index first.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1: {m}")
    scores = np.asarray(scores, dtype=float)
    row_max = scores.max(axis=-1)
    order = np.lexsort((np.arange(row_max.size), -row_max))
    return [int(i) for i in order[: min(row_max.size, m)]]
