"""Axis-aligned box arithmetic: IoU, greedy NMS, and top-M score filtering."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "Detection", "iou", "iou_matrix", "nms", "top_m_filter"]


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


def iou_matrix(boxes) -> np.ndarray:
    """Pairwise IoU of boxes given as an (N, 4) x1, y1, x2, y2 array or Box list."""
    if len(boxes) and isinstance(boxes[0], Box):
        boxes = [[b.x1, b.y1, b.x2, b.y2] for b in boxes]
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    x1, y1, x2, y2 = boxes.T
    iw = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ih = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    areas = (x2 - x1) * (y2 - y1)
    union = areas[:, None] + areas[None, :] - inter
    return np.where(inter > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def nms(boxes, scores: np.ndarray, classes: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy non-maximum suppression; kept indices in descending score order.

    Box i is dropped iff an already-kept box of the same class overlaps it
    with IoU >= iou_thresh. Score ties are broken by lower input index.
    Class-agnostic suppression is one class for every box.
    """
    if not (0.0 <= iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in [0, 1]: {iou_thresh}")
    overlap = iou_matrix(boxes)
    scores = np.asarray(scores, dtype=float)
    classes = np.asarray(classes)
    if not (scores.shape == classes.shape == overlap.shape[:1]):
        raise ValueError(f"{overlap.shape[0]} boxes vs {scores.shape} scores vs {classes.shape} classes")
    order = np.lexsort((np.arange(scores.size), -scores))
    blocks = (overlap >= iou_thresh) & (classes[:, None] == classes[None, :])
    blocked = np.zeros(scores.size, dtype=bool)
    kept: list[int] = []
    for i in order.tolist():
        if not blocked[i]:
            kept.append(i)
            blocked |= blocks[i]
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
