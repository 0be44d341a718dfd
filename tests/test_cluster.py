"""Overlap-graph component tests, cross-checked against a brute-force DFS."""

from __future__ import annotations

import numpy as np
import pytest

from vlodtta.checks import reference_components
from vlodtta.cluster import (
    DegenerateWeights,
    build_class_graphs,
    cluster_weights,
    iwe_loss,
    predicted_classes,
)
from vlodtta.geometry import Box, iou, overlap_list


def _random_instance(rng, n):
    xy = rng.uniform(0, 100, size=(n, 2))
    wh = rng.uniform(2, 40, size=(n, 2))
    boxes = np.concatenate([xy, xy + wh], axis=1)
    classes = rng.integers(0, 4, size=n)
    return boxes, classes


def test_predicted_classes_argmax_with_tie():
    scores = np.array([[0.2, 0.9, 0.1], [0.5, 0.5, 0.1]])
    np.testing.assert_array_equal(predicted_classes(scores), [1, 0])


def test_chain_is_transitive():
    # a-b and b-c overlap above threshold, a-c only at IoU 1/3: still one
    # component, because connectivity is transitive.
    a = Box(0, 0, 10, 10)
    b = Box(0, 2.5, 10, 12.5)
    c = Box(0, 5, 10, 15)
    assert iou(a, b) == pytest.approx(0.6, abs=1e-12)
    assert iou(b, c) == pytest.approx(0.6, abs=1e-12)
    assert iou(a, c) == pytest.approx(1.0 / 3.0, abs=1e-12)
    out = build_class_graphs([a, b, c], np.zeros(3, int), theta=0.5)
    assert len(set(out.component_id.tolist())) == 1
    np.testing.assert_array_equal(out.component_size, [3, 3, 3])


def test_classes_never_mix():
    a = Box(0, 0, 10, 10)
    out = build_class_graphs([a, a, a], np.array([0, 1, 0]), theta=0.5)
    assert out.component_id[0] == out.component_id[2]
    assert out.component_id[1] != out.component_id[0]
    np.testing.assert_array_equal(out.component_size, [2, 1, 2])


def test_component_id_is_smallest_member():
    a = Box(0, 0, 10, 10)
    far = Box(50, 50, 60, 60)
    out = build_class_graphs([far, a, a], np.zeros(3, int), theta=0.5)
    np.testing.assert_array_equal(out.component_id, [0, 1, 1])


def test_theta_zero_one_component_per_class():
    rng = np.random.default_rng(41)
    boxes, classes = _random_instance(rng, 30)
    out = build_class_graphs(boxes, classes, theta=0.0)
    for c in np.unique(classes):
        ids = set(out.component_id[classes == c].tolist())
        assert len(ids) == 1


def test_theta_one_only_exact_duplicates_merge():
    a = Box(0, 0, 10, 10)
    b = Box(0, 0, 10, 10.0001)
    out = build_class_graphs([a, a, b], np.zeros(3, int), theta=1.0)
    assert out.component_id[0] == out.component_id[1]
    assert out.component_id[2] != out.component_id[0]


def _shuffled_chain(rng, n):
    # equal boxes 1 px apart: IoU 9/11 with each neighbour, 8/12 two apart,
    # so at theta 0.8 one path through n boxes listed in random order
    x = rng.permutation(n).astype(float)[:, None]
    boxes = np.concatenate([x, np.zeros((n, 1)), x + 10.0, np.full((n, 1), 10.0)], axis=1)
    return boxes, np.zeros(n, dtype=int)


def test_components_match_dfs_reference():
    rng = np.random.default_rng(42)
    cases = []
    for trial in range(60):
        n = int(rng.integers(1, 50))
        boxes, classes = _random_instance(rng, n)
        cases.append((boxes, classes, float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]))))
    # the slowest input for label propagation, and one instance at top_m scale
    cases.append((*_shuffled_chain(rng, 600), 0.8))
    cases.append((*_random_instance(rng, 600), 0.5))
    for trial, (boxes, classes, theta) in enumerate(cases):
        n = len(boxes)
        got = build_class_graphs(boxes, classes, theta)
        box_objs = [Box(*row) for row in boxes]
        want_id = np.empty(n, dtype=int)
        want_size = np.empty(n, dtype=int)
        for members in reference_components(box_objs, classes, theta):
            for i in members:
                want_id[i] = min(members)
                want_size[i] = len(members)
        np.testing.assert_array_equal(got.component_id, want_id, err_msg=f"trial {trial}")
        np.testing.assert_array_equal(got.component_size, want_size, err_msg=f"trial {trial}")
        # along an overlap list of other labels (a tenth of the rows) at a lower t0
        other = np.where(rng.uniform(size=n) < 0.1, (classes + 1) % 4, classes)
        shared = build_class_graphs(boxes, classes, theta, overlaps=overlap_list(boxes, other, theta / 2))
        np.testing.assert_array_equal(shared.component_id, want_id, err_msg=f"shared trial {trial}")


def test_raising_theta_refines_partition():
    # Every component at a higher threshold must sit inside one component
    # from a lower threshold.
    rng = np.random.default_rng(43)
    boxes, classes = _random_instance(rng, 40)
    coarse = build_class_graphs(boxes, classes, theta=0.3)
    fine = build_class_graphs(boxes, classes, theta=0.6)
    for comp in set(fine.component_id.tolist()):
        members = np.flatnonzero(fine.component_id == comp)
        assert len(set(coarse.component_id[members].tolist())) == 1


def test_empty_and_singleton():
    out = build_class_graphs(np.zeros((0, 4)), np.zeros(0, int), theta=0.5)
    assert out.component_id.shape == (0,)
    single = build_class_graphs([Box(0, 0, 1, 1)], np.zeros(1, int), theta=0.5)
    np.testing.assert_array_equal(single.component_size, [1])


def test_build_rejects_bad_theta_and_shapes():
    with pytest.raises(ValueError):
        build_class_graphs([Box(0, 0, 1, 1)], np.zeros(1, int), theta=-0.1)
    with pytest.raises(ValueError):
        build_class_graphs([Box(0, 0, 1, 1)], np.zeros(2, int), theta=0.5)


def test_cluster_weights_power():
    a = Box(0, 0, 10, 10)
    out = build_class_graphs([a, a, a, a, Box(50, 50, 51, 51)], np.zeros(5, int), theta=0.5)
    w = cluster_weights(out, gamma=1.1)
    assert w[0] == pytest.approx(4.0 ** 1.1, rel=1e-12)
    assert w[4] == 1.0
    np.testing.assert_array_equal(cluster_weights(out, gamma=0.0), np.ones(5))
    with pytest.raises(ValueError):
        cluster_weights(out, float("inf"))
    # 4 ** 600 overflows, and so does the sum of four finite 4 ** 511 = 2 ** 1022:
    # that was a RuntimeWarning, or an episode that ran on with an infinite weight
    assert np.isfinite(cluster_weights(out, gamma=500.0).sum())
    for gamma in (511.0, 600.0):
        with pytest.raises(DegenerateWeights, match=rf"^gamma={gamma} overflows"):
            cluster_weights(out, gamma=gamma)


def test_iwe_loss_hand_value():
    # (w, h) pairs (1, 0.2) and (3, 0.6): (0.2 + 1.8) / 4 = 0.5
    assert iwe_loss(np.array([0.2, 0.6]), np.array([1.0, 3.0])) == pytest.approx(0.5, abs=1e-15)


def test_iwe_loss_gamma_zero_is_plain_mean():
    rng = np.random.default_rng(44)
    h = rng.uniform(0, 2, size=30)
    assert iwe_loss(h, np.ones(30)) == pytest.approx(float(np.mean(h)), abs=1e-12)


def test_iwe_loss_weight_scale_invariant():
    rng = np.random.default_rng(45)
    h = rng.uniform(0, 2, size=12)
    w = rng.uniform(0.1, 5, size=12)
    assert iwe_loss(h, w) == pytest.approx(iwe_loss(h, 7.0 * w), rel=1e-12)


def test_iwe_loss_rejects_degenerate():
    with pytest.raises(DegenerateWeights):
        iwe_loss(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        iwe_loss(np.array([1.0, 2.0]), np.array([1.0]))
