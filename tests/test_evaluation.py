"""Evaluator tests: matching rules, AP fixtures with closed-form values, a
3-scene fixture checked against an independent loop-based reference, and the
array evaluator checked bit for bit against the scalar loops it replaced."""

from __future__ import annotations

import numpy as np
import pytest

from vlodtta.checks import reference_average_precision
from vlodtta.data import GroundTruth
from vlodtta.evaluation import (
    IOU_THRESHOLDS,
    RECALL_GRID,
    APReport,
    average_precision,
    evaluate,
    match_detections,
)
from vlodtta.geometry import Box, Detection, iou

# frozen from the reference implementation below (agreement was ~4e-16)
FIXTURE_MEAN_AP = 0.5481848184818481
FIXTURE_AP50 = 0.7095709570957096
FIXTURE_AP75 = 0.585808580858086


def test_grids():
    assert IOU_THRESHOLDS.shape == (10,)
    assert IOU_THRESHOLDS[0] == 0.5 and IOU_THRESHOLDS[-1] == pytest.approx(0.95)
    assert RECALL_GRID.shape == (101,)


# -- matching ----------------------------------------------------------------- #

def test_match_perfect_detection():
    gts = [GroundTruth(Box(0, 0, 10, 10), 0)]
    dets = [Detection(Box(0, 0, 10, 10), 0, 0.9)]
    flags, n_gt = match_detections(dets, gts, 0.5)
    assert n_gt == 1
    np.testing.assert_array_equal(flags, [True])


def test_match_duplicate_is_fp():
    gts = [GroundTruth(Box(0, 0, 10, 10), 0)]
    dets = [
        Detection(Box(0, 0, 10, 10), 0, 0.9),
        Detection(Box(0, 0, 10, 10), 0, 0.8),
    ]
    flags, _ = match_detections(dets, gts, 0.5)
    np.testing.assert_array_equal(flags, [True, False])


def test_match_visits_by_score_not_input_order():
    gts = [GroundTruth(Box(0, 0, 10, 10), 0)]
    dets = [
        Detection(Box(0, 0, 10, 10), 0, 0.2),  # low score, listed first
        Detection(Box(0, 0, 10, 10), 0, 0.9),
    ]
    flags, _ = match_detections(dets, gts, 0.5)
    # visiting order is descending score: the 0.9 one wins the ground truth
    np.testing.assert_array_equal(flags, [True, False])


def test_match_prefers_highest_iou_gt():
    gts = [
        GroundTruth(Box(0, 0, 10, 10), 0),
        GroundTruth(Box(2, 2, 12, 12), 0),
    ]
    det = Detection(Box(2, 2, 12, 12), 0, 0.9)
    flags, _ = match_detections([det, Detection(Box(0, 0, 10, 10), 0, 0.8)], gts, 0.5)
    np.testing.assert_array_equal(flags, [True, True])  # each takes its own gt


def test_match_respects_class():
    gts = [GroundTruth(Box(0, 0, 10, 10), 1)]
    dets = [Detection(Box(0, 0, 10, 10), 0, 0.9)]
    flags, _ = match_detections(dets, gts, 0.5)
    np.testing.assert_array_equal(flags, [False])


def test_match_threshold_boundary_inclusive():
    # IoU exactly at the threshold must count as a match
    gts = [GroundTruth(Box(0, 0, 10, 10), 0)]
    det = Detection(Box(0, 5, 10, 15), 0, 0.9)  # IoU = 50 / 150 = 1/3
    flags_hit, _ = match_detections([det], gts, 1.0 / 3.0)
    flags_miss, _ = match_detections([det], gts, 1.0 / 3.0 + 1e-9)
    np.testing.assert_array_equal(flags_hit, [True])
    np.testing.assert_array_equal(flags_miss, [False])


# -- average precision --------------------------------------------------------- #

def test_ap_single_tp_is_one():
    assert average_precision(np.array([True]), 1) == pytest.approx(1.0, abs=1e-9)


def test_ap_fp_then_tp_closed_form():
    # one FP above one TP with two ground truths: precision 0.5 out to
    # recall 0.5, giving (51 / 101) * 0.5 on the 101-point grid
    ap = average_precision(np.array([False, True]), 2)
    assert ap == pytest.approx((51.0 / 101.0) * 0.5, abs=1e-9)


def test_ap_all_tps_is_one():
    assert average_precision(np.array([True] * 5), 5) == pytest.approx(1.0, abs=1e-12)


def test_ap_empty_cases():
    assert average_precision(np.zeros(0, dtype=bool), 3) == 0.0
    assert average_precision(np.array([True]), 0) == 0.0
    assert average_precision(np.array([False, False]), 2) == 0.0


def test_ap_monotone_in_prefix_tps():
    # turning the first flag from FP to TP can only raise AP
    flags = np.array([False, True, False, True])
    better = flags.copy()
    better[0] = True
    assert average_precision(better, 4) > average_precision(flags, 4)


# -- the 3-scene fixture --------------------------------------------------------- #

def _fixture():
    scenes_gt = [
        [GroundTruth(Box(0, 0, 10, 10), 0), GroundTruth(Box(20, 20, 40, 40), 1)],
        [GroundTruth(Box(5, 5, 15, 15), 0)],
        [GroundTruth(Box(0, 0, 30, 30), 1)],
    ]
    scenes_det = [
        [
            Detection(Box(0, 0, 10, 10), 0, 0.95),    # perfect TP
            Detection(Box(1, 1, 11, 11), 0, 0.90),    # duplicate -> FP
            Detection(Box(21, 21, 39, 39), 1, 0.70),  # IoU 0.81 TP
        ],
        [
            Detection(Box(6, 6, 14, 14), 0, 0.50),    # IoU 0.64: TP at low thresholds
            Detection(Box(5, 5, 15, 15), 1, 0.80),    # class with no gt here -> FP
        ],
        [
            Detection(Box(0, 0, 30, 30), 1, 0.30),    # perfect TP, lowest score
            Detection(Box(50, 50, 60, 60), 0, 0.85),  # background FP
        ],
    ]
    return scenes_det, scenes_gt


def _ref_iou(a, b):
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union


def _reference_eval(scenes_det, scenes_gt):
    """Pooled evaluation in plain dict-and-loop form, shared code avoided."""
    classes = sorted({g.class_id for scene in scenes_gt for g in scene})
    thresholds = [0.5 + 0.05 * i for i in range(10)]
    grid = [i / 100.0 for i in range(101)]
    per_class_curve = {}
    for cls in classes:
        aps = []
        for thr in thresholds:
            rows = []
            for img, (dets, gts) in enumerate(zip(scenes_det, scenes_gt)):
                cls_dets = sorted(
                    ((i, d) for i, d in enumerate(dets) if d.class_id == cls),
                    key=lambda p: (-p[1].score, p[0]),
                )
                cls_gts = [g for g in gts if g.class_id == cls]
                used = [False] * len(cls_gts)
                for i, d in cls_dets:
                    best, best_iou = -1, -1.0
                    for j, g in enumerate(cls_gts):
                        if not used[j]:
                            ov = _ref_iou(d.box, g.box)
                            if ov >= thr and ov > best_iou:
                                best, best_iou = j, ov
                    if best >= 0:
                        used[best] = True
                    rows.append((-d.score, img, i, best >= 0))
            rows.sort()
            n_gt = sum(1 for scene in scenes_gt for g in scene if g.class_id == cls)
            tp = fp = 0
            points = []
            for _, _, _, flag in rows:
                tp, fp = tp + flag, fp + (not flag)
                points.append((tp / n_gt, tp / (tp + fp)))
            total = 0.0
            for r in grid:
                total += max((p for rec, p in points if rec >= r), default=0.0)
            aps.append(total / 101.0)
        per_class_curve[cls] = aps
    mean_ap = float(np.mean([np.mean(per_class_curve[c]) for c in classes]))
    ap50 = float(np.mean([per_class_curve[c][0] for c in classes]))
    ap75 = float(np.mean([per_class_curve[c][5] for c in classes]))
    return mean_ap, ap50, ap75


def test_three_scene_fixture_matches_reference():
    scenes_det, scenes_gt = _fixture()
    report = evaluate(scenes_det, scenes_gt)
    ref_mean, ref_50, ref_75 = _reference_eval(scenes_det, scenes_gt)
    assert report.mean_ap == pytest.approx(ref_mean, abs=1e-6)
    assert report.ap50 == pytest.approx(ref_50, abs=1e-6)
    assert report.ap75 == pytest.approx(ref_75, abs=1e-6)
    assert report.mean_ap == pytest.approx(FIXTURE_MEAN_AP, abs=1e-9)
    assert report.ap50 == pytest.approx(FIXTURE_AP50, abs=1e-9)
    assert report.ap75 == pytest.approx(FIXTURE_AP75, abs=1e-9)


def test_fixture_per_class_keys():
    scenes_det, scenes_gt = _fixture()
    report = evaluate(scenes_det, scenes_gt)
    assert set(report.per_class) == {0, 1}
    assert report.mean_ap == pytest.approx(
        (report.per_class[0] + report.per_class[1]) / 2.0, abs=1e-12
    )


# -- dataset-level properties ----------------------------------------------------- #

def test_monotone_score_transform_preserves_ap():
    scenes_det, scenes_gt = _fixture()
    transformed = [
        [Detection(d.box, d.class_id, 0.1 + 0.5 * d.score) for d in dets]
        for dets in scenes_det
    ]
    a = evaluate(scenes_det, scenes_gt)
    b = evaluate(transformed, scenes_gt)
    assert a.mean_ap == pytest.approx(b.mean_ap, abs=1e-12)
    assert a.ap50 == pytest.approx(b.ap50, abs=1e-12)


def test_duplicating_detections_cannot_help():
    scenes_det, scenes_gt = _fixture()
    doubled = [list(dets) + list(dets) for dets in scenes_det]
    assert evaluate(doubled, scenes_gt).mean_ap <= evaluate(scenes_det, scenes_gt).mean_ap


def test_detections_of_classes_without_gt_are_ignored():
    scenes_det, scenes_gt = _fixture()
    noisy = [list(dets) for dets in scenes_det]
    noisy[0].append(Detection(Box(0, 0, 5, 5), 7, 0.99))
    a = evaluate(scenes_det, scenes_gt)
    b = evaluate(noisy, scenes_gt)
    assert a.mean_ap == b.mean_ap
    assert 7 not in b.per_class


def test_evaluate_validates_input():
    with pytest.raises(ValueError):
        evaluate([[]], [[]])  # no ground truth anywhere
    with pytest.raises(ValueError):
        evaluate([[], []], [[GroundTruth(Box(0, 0, 1, 1), 0)]])  # length mismatch


def test_perfect_detector_scores_one():
    scenes_gt = [
        [GroundTruth(Box(0, 0, 10, 10), 0), GroundTruth(Box(30, 30, 50, 50), 1)],
        [GroundTruth(Box(5, 5, 25, 25), 1)],
    ]
    scenes_det = [
        [Detection(g.box, g.class_id, 0.9) for g in scene] for scene in scenes_gt
    ]
    report = evaluate(scenes_det, scenes_gt)
    assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
    assert report.ap50 == pytest.approx(1.0, abs=1e-12)
    assert report.ap75 == pytest.approx(1.0, abs=1e-12)


# -- the scalar-loop oracle --------------------------------------------------------- #
# The evaluator before it went to per-image IoU matrices: the scalar iou for
# every det/GT pair at each threshold, one AP call per class and threshold.

def _oracle_match(dets, gts, iou_thresh):
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


def _oracle_ap(flags, n_gt):
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


def _oracle_evaluate(detections, ground_truths):
    classes = sorted({gt.class_id for gts in ground_truths for gt in gts})
    ap = np.zeros((len(classes), IOU_THRESHOLDS.size))
    for ci, cls in enumerate(classes):
        per_image = []
        keys = []
        n_gt = 0
        for img, (dets, gts) in enumerate(zip(detections, ground_truths)):
            dc = [d for d in dets if d.class_id == cls]
            gc = [gt for gt in gts if gt.class_id == cls]
            order = sorted(range(len(dc)), key=lambda i: (-dc[i].score, i))
            keys.extend((-dc[di].score, img, di) for di in order)
            per_image.append((dc, gc))
            n_gt += len(gc)
        ranking = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=int)
        for ti, thresh in enumerate(IOU_THRESHOLDS):
            flags = [_oracle_match(dc, gc, float(thresh))[0] for dc, gc in per_image]
            ap[ci, ti] = _oracle_ap(np.concatenate(flags)[ranking], n_gt)
    return APReport(
        mean_ap=float(ap.mean()),
        ap50=float(ap[:, 0].mean()),
        ap75=float(ap[:, 5].mean()),
        per_class={cls: float(ap[ci].mean()) for ci, cls in enumerate(classes)},
    )


def _bits(report):
    """Every float of a report as its exact hex form, so -0.0 and 0.0 differ too."""
    return (
        report.mean_ap.hex(), report.ap50.hex(), report.ap75.hex(),
        [(k, v.hex()) for k, v in report.per_class.items()],
    )


def _random_instance(seed):
    """A few images on a coarse grid, so score ties, duplicate boxes and exact IoU ties are common."""
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xE7))))
    n_images, n_classes = int(g.integers(1, 5)), int(g.integers(1, 5))

    def box():
        x, y = g.integers(0, 6, size=2) * 5.0
        w, h = g.integers(1, 5, size=2) * 5.0
        return Box(float(x), float(y), float(x + w), float(y + h))

    dets, gts = [], []
    for _ in range(n_images):
        image_gts = [GroundTruth(box(), int(g.integers(n_classes))) for _ in range(int(g.integers(0, 6)))]
        image_dets = []
        for _ in range(int(g.integers(0, 12))):
            if image_gts and g.random() < 0.5:  # near a ground truth, maybe a copy of one
                gt = image_gts[int(g.integers(len(image_gts)))]
                b = gt.box if g.random() < 0.3 else Box(
                    gt.box.x1 + float(g.integers(-2, 3)), gt.box.y1 + float(g.integers(-2, 3)),
                    gt.box.x2 + float(g.integers(-2, 3)), gt.box.y2 + float(g.integers(-2, 3)),
                )
            else:
                b = box()
            # one class more than any ground truth has, and a few score levels
            image_dets.append(Detection(b, int(g.integers(n_classes + 1)), float(g.integers(1, 5)) / 4.0))
        if image_dets and g.random() < 0.3:
            image_dets.append(image_dets[int(g.integers(len(image_dets)))])  # an exact duplicate
        dets.append(image_dets)
        gts.append(image_gts)
    if not any(gts):
        gts[0].append(GroundTruth(box(), 0))
    return dets, gts


def _edge_instance():
    """Score ties within and across images, duplicates, IoU exactly 0.5 and 0.95,
    an image with no detections, one with no ground truth, and a class (3) with
    detections but no ground truth."""
    unit = Box(0.0, 0.0, 100.0, 100.0)
    half = Box(0.0, 0.0, 100.0, 50.0)     # IoU 0.5 with unit
    most = Box(0.0, 0.0, 100.0, 95.0)     # IoU 0.95 with unit
    assert iou(half, unit) == 0.5 and iou(most, unit) == 0.95
    gts = [
        [GroundTruth(unit, 0), GroundTruth(Box(200.0, 0.0, 300.0, 100.0), 1)],
        [GroundTruth(unit, 0), GroundTruth(unit, 0)],
        [],
        [GroundTruth(unit, 1)],
    ]
    dets = [
        [Detection(half, 0, 0.5), Detection(most, 0, 0.5), Detection(unit, 3, 0.9),
         Detection(Box(200.0, 0.0, 300.0, 100.0), 1, 0.5)],
        [Detection(unit, 0, 0.5), Detection(unit, 0, 0.5), Detection(unit, 0, 0.5),
         Detection(half, 0, 0.7)],
        [Detection(unit, 0, 0.5), Detection(unit, 1, 0.9)],
        [],
    ]
    return dets, gts


def test_evaluate_matches_the_scalar_oracle_bit_for_bit():
    instances = [_random_instance(seed) for seed in range(300)] + [_edge_instance()]
    for dets, gts in instances:
        assert _bits(evaluate(dets, gts)) == _bits(_oracle_evaluate(dets, gts))


@pytest.mark.parametrize("thresh", [0.0, 0.5, 0.95, 1.0])
def test_match_and_ap_match_the_scalar_oracle(thresh):
    for seed in range(100):
        dets, gts = _random_instance(seed)
        for image_dets, image_gts in zip(dets, gts):
            flags, n_gt = match_detections(image_dets, image_gts, thresh)
            want, want_n = _oracle_match(image_dets, image_gts, thresh)
            np.testing.assert_array_equal(flags, want)
            assert flags.dtype == bool and n_gt == want_n
            ap = average_precision(flags, n_gt)
            assert ap.hex() == _oracle_ap(want, want_n).hex()
            assert abs(ap - reference_average_precision(flags.tolist(), n_gt)) <= 1e-12


def test_match_at_the_threshold_extremes():
    unit = Box(0.0, 0.0, 10.0, 10.0)
    gts = [GroundTruth(unit, 0)]
    far = Detection(Box(50.0, 50.0, 60.0, 60.0), 0, 0.9)
    # at 0.0 a disjoint same-class box matches; another class never does
    assert match_detections([far], gts, 0.0)[0].tolist() == [True]
    assert match_detections([Detection(far.box, 1, 0.9)], gts, 0.0)[0].tolist() == [False]
    # at 1.0 only an exact copy matches
    near = Detection(Box(0.0, 0.0, 10.0, 9.0), 0, 0.9)
    assert match_detections([near, Detection(unit, 0, 0.5)], gts, 1.0)[0].tolist() == [False, True]
