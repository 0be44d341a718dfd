"""Axis-aligned box arithmetic: IoU, same-class overlap pairs and the list that
shares them, greedy NMS, top-M filtering, and the struct-of-arrays detection record."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box", "Detection", "Detections", "OverlapList", "iou", "iou_matrix", "overlap_list", "nms", "top_m_filter",
]


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
        if not isinstance(self.box, Box):
            raise ValueError(f"box must be a Box, not {type(self.box).__name__}")
        if not isinstance(self.class_id, int) or isinstance(self.class_id, bool):
            raise ValueError(f"class_id must be an integer: {self.class_id!r}")
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite: {self.score}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative: {self.class_id}")


def _check_kind(name: str, value, kinds: str = "iuf") -> None:
    """Raise ValueError naming `name` unless `value` is an ndarray of integers or floats (of integers for "iu")."""
    if not isinstance(value, np.ndarray) or value.dtype.kind not in kinds:
        got = f"{value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
        raise ValueError(f"{name} must be {'an integer' if kinds == 'iu' else 'an integer or float'} array, not {got}")


def _check_finite(name: str, value: np.ndarray) -> None:
    """Raise ValueError naming `name` unless every entry of `value` is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


def _check_box_order(boxes: np.ndarray) -> None:
    """Raise ValueError unless every (x1, y1, x2, y2) row has x1 < x2 and y1 < y2."""
    if not (boxes[:, :2] < boxes[:, 2:]).all():
        raise ValueError("boxes must have x1 < x2 and y1 < y2 in every row")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as read-only arrays: `boxes (n, 4)`, `scores (n,)` and `classes (n,)`.

    The record reads as the `Detection` list it stands for: `len`, indexing
    and iteration build the same `Detection(Box(*floats), int, float)`
    objects, and it equals another record or a `Detection` list or tuple
    holding the same detections in the same order. No object is built
    until the record is indexed or iterated.
    """

    boxes: np.ndarray
    scores: np.ndarray
    classes: np.ndarray

    def __post_init__(self) -> None:
        for name, kinds in (("boxes", "iuf"), ("scores", "iuf"), ("classes", "iu")):
            _check_kind(name, getattr(self, name), kinds)
        n = self.scores.size
        if self.boxes.shape != (n, 4) or self.scores.shape != (n,) or self.classes.shape != (n,):
            raise ValueError(f"{self.boxes.shape} boxes vs {self.scores.shape} scores vs {self.classes.shape} classes")
        _check_finite("boxes", self.boxes)
        _check_finite("scores", self.scores)
        _check_box_order(self.boxes)
        if (self.classes < 0).any():
            raise ValueError("classes must be non-negative")
        for name in ("boxes", "scores", "classes"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def empty(cls) -> "Detections":
        return cls(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=int))

    def __len__(self) -> int:
        return self.scores.size

    def __getitem__(self, i: int) -> Detection:
        return Detection(Box(*self.boxes[i].tolist()), int(self.classes[i]), float(self.scores[i]))

    def __iter__(self):
        for box, class_id, score in zip(self.boxes.tolist(), self.classes.tolist(), self.scores.tolist()):
            yield Detection(Box(*box), class_id, score)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Detections, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


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


def _columns(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous (4, ...) x1, y1, x2, y2 columns of (..., 4) boxes, and their areas."""
    c = np.ascontiguousarray(np.moveaxis(boxes, -1, 0))
    return c, (c[2] - c[0]) * (c[3] - c[1])


def _column_iou(a, area_a: np.ndarray, b, area_b: np.ndarray) -> np.ndarray:
    """Elementwise IoU from broadcastable x1, y1, x2, y2 columns and their areas.

    Every array IoU goes through these operations, which are `iou`'s, so a
    pair gets the same bits from iou_matrix, overlap_list and `iou`.
    """
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = area_a + area_b - inter
    return np.where(inter > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of two broadcastable (..., 4) box arrays."""
    return _column_iou(*_columns(a), *_columns(b))


def iou_matrix(boxes) -> np.ndarray:
    """Pairwise IoU of boxes given as an (N, 4) x1, y1, x2, y2 array or Box list."""
    boxes = _box_array(boxes)
    return _pair_iou(boxes[:, None, :], boxes[None, :, :])


@dataclass(frozen=True, eq=False)
class OverlapList:
    """One image's same-class overlaps, listed once and queried by every consumer.

    `overlap_list(boxes, labels, t0)` lists the pairs i < j whose reference
    labels match and whose IoU is at least t0, with those IoUs. `rows`
    are the boxes a query reads, in order (all of them at first); `take`
    narrows them. `pairs` answers for those rows what a fresh listing of
    their boxes would, under the query's own labels, at any threshold from
    t0 up.
    """

    columns: np.ndarray  # (4, N) x1, y1, x2, y2 columns of the image's N boxes
    areas: np.ndarray    # (N,)
    labels: np.ndarray   # (N,) reference label per box
    t0: float
    first: np.ndarray    # (P,) i of each listed pair
    second: np.ndarray   # (P,) j of each listed pair, i < j
    ious: np.ndarray     # (P,)
    rows: np.ndarray     # (m,) distinct box indices a query reads

    def __len__(self) -> int:
        return self.rows.size

    def take(self, idx) -> "OverlapList":
        """The same list, read at rows[idx]."""
        # built directly: dataclasses.replace costs more than the queries it serves
        return OverlapList(
            self.columns, self.areas, self.labels, self.t0, self.first, self.second, self.ious, self.rows[idx]
        )

    def pairs(self, labels, thresh: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ii, jj, ious): the pairs overlap_list(boxes[rows], labels, thresh) lists, and their IoUs.

        The pair set is the same, not its order; ii < jj are positions in
        `rows`. A row whose label is its reference label reads its pairs
        from the list. A relabelled row is paired directly with every row
        of its new label, through the same IoU operations, so every pair
        gets the same bits either way.
        """
        if not thresh >= self.t0:
            raise ValueError(f"query threshold {thresh} is below the list's t0 = {self.t0}")
        labels = np.asarray(labels)
        rows, m = self.rows, self.rows.size
        if labels.shape != (m,):
            raise ValueError(f"{m} rows vs {labels.shape} labels")
        # slot[box]: the box's position among the rows while its label is unchanged, else -1
        slot = np.full(self.labels.size, -1)
        slot[rows] = np.arange(m)
        if not np.array_equal(slot[rows], np.arange(m)):
            raise ValueError("query rows must be distinct")
        moved = labels != self.labels[rows]
        slot[rows[moved]] = -1
        a, b = slot[self.first], slot[self.second]
        hit = (a >= 0) & (b >= 0) & (self.ious >= thresh)
        a, b, ious = a[hit], b[hit], self.ious[hit]
        changed = np.flatnonzero(moved)
        if changed.size:
            # each relabelled row against every other row of its new label; two relabelled rows once
            k, q = np.nonzero(labels[changed, None] == labels[None, :])
            p = changed[k]
            fresh = (q != p) & ~(moved[q] & (q < p))
            p, q = p[fresh], q[fresh]
            rp, rq = rows[p], rows[q]
            v = _column_iou(self.columns[:, rp], self.areas[rp], self.columns[:, rq], self.areas[rq])
            hit = v >= thresh
            a, b, ious = np.concatenate([a, p[hit]]), np.concatenate([b, q[hit]]), np.concatenate([ious, v[hit]])
        return np.minimum(a, b), np.maximum(a, b), ious


def overlap_list(boxes, labels, t0: float) -> OverlapList:
    """The pairs i < j of boxes with the same label and IoU >= t0, read at every box.

    Every same-label pair is listed and tested, disjoint ones included (so
    t0 = 0 links each label completely), and its IoU kept. The pairs come
    grouped by label, in row-major order within one.
    """
    boxes = _box_array(boxes)
    labels = np.asarray(labels)
    n = boxes.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"{n} boxes vs {labels.shape} classes")
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    # a stable sort keeps indices ascending within a label, so each sorted
    # position pairs with the later positions up to the end of its label
    later = np.searchsorted(ranked, ranked, side="right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), later)
    offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    ii, jj = order[first], order[first + 1 + offset]
    cols, area = _columns(boxes)  # gather 1-D columns and areas, not (P, 4) rows
    ious = _column_iou([c[ii] for c in cols], area[ii], [c[jj] for c in cols], area[jj])
    keep = ious >= t0
    return OverlapList(cols, area, labels, t0, ii[keep], jj[keep], ious[keep], np.arange(n))


def nms(
    boxes, scores: np.ndarray, classes: np.ndarray, iou_thresh: float, overlaps: OverlapList | None = None
) -> np.ndarray:
    """Greedy non-maximum suppression; kept indices in descending score order.

    Box i is dropped iff an already-kept box of the same class overlaps it
    with IoU >= iou_thresh. Score ties are broken by lower input index.
    Class-agnostic suppression is one class for every box. `overlaps` is
    an image's overlap list read at these boxes (`OverlapList.take`); with
    none, one is listed from the arguments. The list is read in rank
    order, so in each pair (i < j) box i outranks box j and only i can
    suppress j. The pairs become a neighbour list of lower-ranked boxes
    (CSR: rank r's are dst[ptr[r]:ptr[r + 1]]), so no N x N matrix is built.
    """
    if not (0.0 <= iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in [0, 1]: {iou_thresh}")
    boxes = _box_array(boxes)
    scores = np.asarray(scores, dtype=float)
    classes = np.asarray(classes)
    if not (scores.shape == classes.shape == boxes.shape[:1]):
        raise ValueError(f"{boxes.shape[0]} boxes vs {scores.shape} scores vs {classes.shape} classes")
    if overlaps is None:
        overlaps = overlap_list(boxes, classes, iou_thresh)
    elif len(overlaps) != scores.size:
        raise ValueError(f"an overlap list read at {len(overlaps)} rows for {scores.size} boxes")
    order = np.lexsort((np.arange(scores.size), -scores))
    ii, jj, _ = overlaps.take(order).pairs(classes[order], iou_thresh)
    # blocking is a set update, so the order of one source's neighbours does not matter
    dst = jj[np.argsort(ii)]
    ptr = [0, *np.cumsum(np.bincount(ii, minlength=scores.size)).tolist()]
    blocked = np.zeros(scores.size, dtype=bool)
    kept: list[int] = []
    for r in range(scores.size):
        if not blocked[r]:
            kept.append(r)
            blocked[dst[ptr[r]:ptr[r + 1]]] = True
    return order[kept]


def top_m_filter(scores: np.ndarray, m: int) -> np.ndarray:
    """Int array of the indices of the min(N, m) rows with the largest row maximum.

    Returned in descending order of the row maximum; ties keep the lower
    row index first.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1: {m}")
    scores = np.asarray(scores, dtype=float)
    row_max = scores.max(axis=-1)
    order = np.lexsort((np.arange(row_max.size), -row_max))
    return order[:m]
