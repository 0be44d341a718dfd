"""Box/IoU/NMS/top-M tests, anchored by a unit-cell counting oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlodtta.checks import nms_detections, reference_nms
from vlodtta.geometry import Box, Detection, iou, iou_matrix, nms, overlap_pairs, top_m_filter


def _cell_count_iou(a: Box, b: Box) -> float:
    """IoU for integer-coordinate boxes by counting unit grid cells.

    Independent of the analytic intersection formula: a cell (i, j) covers
    [i, i+1) x [j, j+1) and belongs to a box iff its corner lies inside.
    """
    xs = range(int(min(a.x1, b.x1)), int(max(a.x2, b.x2)))
    ys = range(int(min(a.y1, b.y1)), int(max(a.y2, b.y2)))
    in_a = in_b = in_both = 0
    for i in xs:
        for j in ys:
            hit_a = a.x1 <= i < a.x2 and a.y1 <= j < a.y2
            hit_b = b.x1 <= i < b.x2 and b.y1 <= j < b.y2
            in_a += hit_a
            in_b += hit_b
            in_both += hit_a and hit_b
    union = in_a + in_b - in_both
    return in_both / union if union else 0.0


def _boxes(n: int, rng: np.random.Generator) -> list[Box]:
    xy = rng.uniform(0, 500, size=(n, 2))
    wh = rng.uniform(1, 200, size=(n, 2))
    return [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(xy, wh)]


coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
span = st.floats(min_value=0.5, max_value=300.0, allow_nan=False, allow_infinity=False)


@st.composite
def box_strategy(draw):
    x1, y1 = draw(coord), draw(coord)
    return Box(x1, y1, x1 + draw(span), y1 + draw(span))


def test_box_area():
    assert Box(0, 0, 4, 3).area == 12.0


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(0, 5, 1, 5)
    with pytest.raises(ValueError):
        Box(3, 0, 1, 1)
    with pytest.raises(ValueError):
        Box(0, 0, float("nan"), 1)
    with pytest.raises(ValueError):
        Box(0, 0, float("inf"), 1)


def test_detection_rejects_bad_fields():
    box = Box(0, 0, 1, 1)
    with pytest.raises(ValueError):
        Detection(box, -1, 0.5)
    with pytest.raises(ValueError):
        Detection(box, 0, float("nan"))


def test_iou_identical_box_is_one():
    b = Box(10, 20, 30, 40)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0


def test_iou_touching_edge_is_zero():
    assert iou(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0


def test_iou_overlap_one_seventh():
    a, b = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
    expected = _cell_count_iou(a, b)
    assert expected == pytest.approx(1.0 / 7.0, rel=0, abs=0)
    assert iou(a, b) == pytest.approx(expected, rel=1e-12)


def test_iou_matches_cell_counting_on_integer_boxes():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x1, y1, x3, y3 = rng.integers(0, 20, size=4)
        a = Box(x1, y1, x1 + rng.integers(1, 15), y1 + rng.integers(1, 15))
        b = Box(x3, y3, x3 + rng.integers(1, 15), y3 + rng.integers(1, 15))
        assert iou(a, b) == pytest.approx(_cell_count_iou(a, b), rel=1e-12, abs=1e-15)


@given(box_strategy(), box_strategy())
@settings(max_examples=200, deadline=None)
def test_iou_symmetric_and_bounded(a, b):
    ab, ba = iou(a, b), iou(b, a)
    assert ab == ba
    assert 0.0 <= ab <= 1.0


@given(box_strategy(), box_strategy(), coord, coord)
@settings(max_examples=100, deadline=None)
def test_iou_translation_invariant(a, b, dx, dy):
    shifted = iou(
        Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy),
        Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy),
    )
    assert shifted == pytest.approx(iou(a, b), rel=0, abs=1e-9)


@given(box_strategy(), box_strategy(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_iou_scale_invariant(a, b, s):
    scaled = iou(
        Box(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s),
        Box(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s),
    )
    assert scaled == pytest.approx(iou(a, b), rel=0, abs=1e-9)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(5)
    boxes = _boxes(25, rng)
    mat = iou_matrix(boxes)
    assert mat.shape == (25, 25)
    for i in range(25):
        for j in range(25):
            assert mat[i, j] == iou(boxes[i], boxes[j])


def test_iou_matrix_empty():
    assert iou_matrix([]).shape == (0, 0)


def _rows(boxes: list[Box]) -> np.ndarray:
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes]).reshape(-1, 4)


def test_overlap_pairs_matches_dense_oracle():
    rng = np.random.default_rng(29)
    one_class = _rows(_boxes(600, rng))
    one_class[1::2] = one_class[::2]  # exact duplicates: IoU 1
    # edge-sharing boxes overlap with IoU exactly 0
    touching = np.array([[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 2, 4], [2, 2, 4, 4], [0, 0, 2, 2]], float)
    cases = [
        (np.zeros((0, 4)), np.zeros(0, int)),
        (np.array([[0.0, 0.0, 1.0, 1.0]]), np.zeros(1, int)),
        (_boxes(30, rng), rng.integers(0, 3, 30)),
        (one_class, np.zeros(600, int)),
        (_rows(_boxes(800, rng)), rng.integers(0, 80, 800)),
        (touching, np.array([0, 0, 0, 0, 0])),
        (touching, np.array([1, 0, 1, 0, 1])),
    ]
    for case, (boxes, classes) in enumerate(cases):
        same_class = classes[:, None] == classes[None, :]
        for thresh in (0.0, 0.5, 1.0):
            want_i, want_j = np.nonzero(np.triu(same_class & (iou_matrix(boxes) >= thresh), 1))
            ii, jj = overlap_pairs(boxes, classes, thresh)
            order = np.lexsort((jj, ii))
            np.testing.assert_array_equal(ii[order], want_i, err_msg=f"case {case} at {thresh}")
            np.testing.assert_array_equal(jj[order], want_j, err_msg=f"case {case} at {thresh}")


def test_overlap_pairs_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        overlap_pairs(np.zeros((2, 4)), np.zeros(3, int), 0.5)


def test_nms_matches_reference():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 60))
        boxes = _boxes(n, rng)
        dets = [
            Detection(b, int(rng.integers(0, 4)), float(rng.uniform(0, 1)))
            for b in boxes
        ]
        thresh = float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
        class_wise = bool(rng.integers(0, 2))
        got = nms_detections(dets, thresh, None if class_wise else np.zeros(n, int))
        want = reference_nms(dets, thresh, class_wise=class_wise)
        assert got == want, f"trial {trial}"


def test_nms_keeps_all_when_disjoint():
    dets = [
        Detection(Box(0, 0, 1, 1), 0, 0.9),
        Detection(Box(10, 10, 11, 11), 0, 0.8),
        Detection(Box(20, 20, 21, 21), 0, 0.7),
    ]
    assert len(nms_detections(dets, 0.5)) == 3


def test_nms_classwise_never_suppresses_across_classes():
    b = Box(0, 0, 10, 10)
    dets = [Detection(b, 0, 0.9), Detection(b, 1, 0.8)]
    assert len(nms_detections(dets, 0.5)) == 2
    assert len(nms_detections(dets, 0.5, np.zeros(2, int))) == 1


def test_nms_tie_break_keeps_lower_index():
    b = Box(0, 0, 10, 10)
    dets = [Detection(b, 0, 0.5), Detection(b, 0, 0.5)]
    kept = nms_detections(dets, 0.5)
    assert kept == [dets[0]]


def test_nms_output_sorted_by_score():
    rng = np.random.default_rng(31)
    dets = [
        Detection(b, int(rng.integers(0, 3)), float(rng.uniform(0, 1)))
        for b in _boxes(40, rng)
    ]
    kept = nms_detections(dets, 0.4)
    scores = [d.score for d in kept]
    assert scores == sorted(scores, reverse=True)


def test_nms_rejects_bad_threshold():
    with pytest.raises(ValueError):
        nms_detections([], -0.1)
    with pytest.raises(ValueError):
        nms_detections([], 1.5)


def test_nms_rejects_mismatched_lengths():
    boxes = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]])
    with pytest.raises(ValueError):
        nms(boxes, np.ones(2), np.zeros(1, int), 0.5)
    with pytest.raises(ValueError):
        nms(boxes, np.ones(3), np.zeros(3, int), 0.5)


def test_top_m_returns_best_rows():
    scores = np.array([
        [0.1, 0.9],
        [0.5, 0.2],
        [0.8, 0.3],
        [0.05, 0.01],
    ])
    assert top_m_filter(scores, 2) == [0, 2]
    assert top_m_filter(scores, 10) == [0, 2, 1, 3]


def test_top_m_tie_break_by_index():
    scores = np.array([[0.5], [0.5], [0.5]])
    assert top_m_filter(scores, 2) == [0, 1]


def test_top_m_selected_dominate_unselected():
    rng = np.random.default_rng(7)
    scores = rng.uniform(size=(50, 6))
    picked = top_m_filter(scores, 12)
    assert len(picked) == 12
    assert len(set(picked)) == 12
    worst_kept = min(scores[i].max() for i in picked)
    rest = [scores[i].max() for i in range(50) if i not in set(picked)]
    assert worst_kept >= max(rest)
