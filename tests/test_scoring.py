"""Score/posterior/entropy/selection tests with hand-computed expected values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vlodtta.scoring import (
    NearZeroRow,
    NonFiniteRow,
    aggregate_selected,
    detector_scores,
    entropy,
    fuse,
    normalize_rows,
    norms_from_squares,
    posterior,
    prompt_compat,
    prompt_scores,
    select_prompts,
)
from vlodtta.sim import SEED_SCALE, ShiftSpec, SimConfig, gen_scene_proposals, gen_world


def test_normalize_rows_unit_norm():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 8))
    out = normalize_rows(m)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)


def test_normalize_rows_rejects_zero_row():
    with pytest.raises(NearZeroRow):
        normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_normalize_rows_names_first_bad_row():
    with pytest.raises(NearZeroRow, match=r"row 2 "):
        normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    bank = np.ones((3, 4, 2))
    bank[1, 2] = 0.0
    with pytest.raises(NearZeroRow, match=r"row \(1, 2\) "):
        normalize_rows(bank)


def test_norms_from_squares_rejects_a_square_that_is_not_finite():
    # an overflowing pass reaches here as an infinite or NaN square; its row's scores would all be NaN
    for bad in (math.inf, math.nan):
        with pytest.raises(NonFiniteRow, match=rf"^row 1 has squared norm {bad}; cannot normalize$"):
            norms_from_squares(np.array([4.0, bad, 9.0]))
    # a zero row is named first wherever it stands; squares of any shape name the row by its index
    for sq in ([0.0, math.inf], [math.inf, 0.0]):
        with pytest.raises(NearZeroRow, match=rf"^row {sq.index(0.0)} "):
            norms_from_squares(np.array(sq))
    with pytest.raises(NonFiniteRow, match=r"^class 1 prompt 0 has squared norm nan; "):
        norms_from_squares(np.array([[1.0, 1.0], [math.nan, 1.0]]), lambda k, t: f"class {k} prompt {t}")
    np.testing.assert_array_equal(norms_from_squares(np.array([4.0, 9.0, 1e300])), [[2.0], [3.0], [1e150]])


def test_normalize_rows_3d():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 5, 7))
    out = normalize_rows(m)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)


def test_detector_scores_axis_aligned():
    # feature (0.6, 0.8) is already unit; cosine against the two axes reads
    # off the components.
    features = np.array([[0.6, 0.8]])
    embeddings = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = detector_scores(features, embeddings)
    np.testing.assert_allclose(s, [[0.6, 0.8]], atol=1e-15)


def test_detector_scores_scale_invariant():
    rng = np.random.default_rng(9)
    v = rng.normal(size=(6, 5))
    t = rng.normal(size=(3, 5))
    np.testing.assert_allclose(
        detector_scores(v, t), detector_scores(10.0 * v, 0.01 * t), atol=1e-12
    )


def test_detector_scores_diagonal_of_identical_vectors():
    rng = np.random.default_rng(10)
    v = rng.normal(size=(4, 6))
    s = detector_scores(v, v)
    np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)


def test_posterior_two_class_hand_value():
    # kappa=1, scores (1, 0): p0 = e / (e + 1), worked out independently here.
    p = posterior(np.array([[1.0, 0.0]]), kappa=1.0)
    e = math.exp(1.0)
    assert p[0, 0] == pytest.approx(e / (e + 1.0), abs=1e-12)
    assert p[0, 1] == pytest.approx(1.0 / (e + 1.0), abs=1e-12)


def test_posterior_rows_sum_to_one():
    rng = np.random.default_rng(12)
    p = posterior(rng.normal(size=(40, 7)), kappa=20.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p > 0.0)


def test_posterior_shift_invariant():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(10, 4))
    np.testing.assert_allclose(
        posterior(s, 20.0), posterior(s + 123.456, 20.0), atol=1e-12
    )


def test_posterior_survives_extreme_kappa():
    p = posterior(np.array([[1.0, -1.0]]), kappa=1e6)
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_posterior_rejects_bad_kappa():
    for kappa in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            posterior(np.zeros((1, 2)), kappa)


def test_entropy_uniform_is_log_k():
    for k in (2, 3, 5, 8):
        h = entropy(np.full((1, k), 1.0 / k))
        assert h[0] == pytest.approx(math.log(k), abs=1e-12)


def test_entropy_one_hot_is_zero():
    h = entropy(np.array([[0.0, 1.0, 0.0]]))
    assert h[0] == 0.0


def test_entropy_two_class_hand_value():
    # Same distribution as the posterior hand value; entropy worked out from
    # scratch with math.log so the two implementations cannot share a bug.
    e = math.exp(1.0)
    p0, p1 = e / (e + 1.0), 1.0 / (e + 1.0)
    expected = -(p0 * math.log(p0) + p1 * math.log(p1))
    h = entropy(posterior(np.array([[1.0, 0.0]]), kappa=1.0))
    assert h[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.582203108888, abs=1e-9)


@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 8), st.integers(2, 6)),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
@settings(max_examples=150, deadline=None)
def test_entropy_bounds(scores):
    p = posterior(scores, kappa=5.0)
    h = entropy(p)
    assert np.all(h >= -1e-12)
    assert np.all(h <= math.log(scores.shape[-1]) + 1e-12)


def test_prompt_scores_manual_entry():
    rng = np.random.default_rng(21)
    features = rng.normal(size=(5, 6))
    pool = rng.normal(size=(3, 4, 6))
    delta = rng.normal(size=6) * 0.1
    z = prompt_scores(features, pool, delta)
    assert z.shape == (5, 3, 4)
    v = features[2] / np.linalg.norm(features[2])
    e = pool[1, 3] + delta
    e = e / np.linalg.norm(e)
    assert z[2, 1, 3] == pytest.approx(float(v @ e), abs=1e-12)


def test_prompt_scores_rejects_bad_shapes():
    with pytest.raises(ValueError):
        prompt_scores(np.zeros((2, 3)), np.zeros((2, 2, 4)), np.zeros(4))
    with pytest.raises(ValueError):
        prompt_scores(np.ones((2, 4)), np.ones((2, 2, 4)), np.ones(3))


def test_prompt_compat_is_proposal_mean_of_prompt_scores():
    # the bank against the image's mean unit row is the proposal mean of the dense scores at a zero residual
    coco = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)
    for sim, n_scenes in ((SimConfig(), 5), (coco, 2)):
        world = gen_world(0, sim, ShiftSpec(magnitude=0.5))
        pool = world.pool.embeddings
        for seed in range(n_scenes):
            features = gen_scene_proposals(seed * SEED_SCALE, world)[0].features
            compat = prompt_compat(normalize_rows(features).mean(axis=0), pool)
            assert compat.shape == pool.shape[:2]
            dense = prompt_scores(features, pool, np.zeros(sim.d)).mean(axis=0)
            assert np.max(np.abs(compat - dense)) <= 1e-12


def test_prompt_compat_rejects_bad_shapes_and_empty():
    # the mean over proposals is the caller's, so the empty case left here is a prompt row with nothing in it
    for mean_unit, pool in (
        (np.ones(3), np.ones((2, 2, 4))), (np.ones((1, 4)), np.ones((2, 2, 4))), (np.ones(4), np.ones((2, 4))),
    ):
        with pytest.raises(ValueError, match="incompatible shapes"):
            prompt_compat(mean_unit, pool)
    with pytest.raises(NearZeroRow):
        prompt_compat(np.ones(4), np.zeros((2, 2, 4)))


def test_select_prompts_counts():
    rng = np.random.default_rng(23)
    r = rng.normal(size=(4, 16))
    assert select_prompts(r, 0.25).shape == (4, 4)  # ceil(0.25 * 16)
    assert select_prompts(r, 1.0).shape == (4, 16)
    assert select_prompts(r, 1e-9).shape == (4, 1)
    assert select_prompts(np.zeros((2, 3)), 0.5).shape == (2, 2)  # ceil(1.5)


def test_select_prompts_picks_argmax_first():
    r = np.array([[0.1, 0.9, 0.3, 0.2]])
    sel = select_prompts(r, 0.5)
    assert sel.tolist() == [[1, 2]]


def test_select_prompts_tie_break_by_index():
    r = np.array([[0.5, 0.5, 0.5, 0.1]])
    assert select_prompts(r, 0.5).tolist() == [[0, 1]]


def test_select_prompts_are_top_set():
    rng = np.random.default_rng(24)
    r = rng.normal(size=(5, 12))
    sel = select_prompts(r, 0.4)
    for k in range(5):
        chosen = set(sel[k].tolist())
        worst = min(r[k, t] for t in chosen)
        rest = [r[k, t] for t in range(12) if t not in chosen]
        assert worst >= max(rest)


def test_select_prompts_rejects_bad_rho():
    with pytest.raises(ValueError):
        select_prompts(np.zeros((2, 3)), 0.0)
    with pytest.raises(ValueError):
        select_prompts(np.zeros((2, 3)), 1.5)


def test_aggregate_full_selection_equals_plain_mean():
    rng = np.random.default_rng(25)
    z = rng.normal(size=(9, 4, 6))
    sel = select_prompts(z.mean(axis=0), 1.0)
    np.testing.assert_array_equal(aggregate_selected(z, sel), z.mean(axis=-1))


def test_aggregate_selected_subset():
    z = np.arange(24, dtype=float).reshape(2, 2, 6)
    sel = np.array([[0, 2], [1, 5]])
    out = aggregate_selected(z, sel)
    assert out[0, 0] == (z[0, 0, 0] + z[0, 0, 2]) / 2
    assert out[1, 1] == (z[1, 1, 1] + z[1, 1, 5]) / 2


def test_aggregate_selected_matches_per_class_loop_in_c_order():
    # the pooled scores feed row-wise softmax sums, which round differently
    # on a transposed array, so the layout is part of the result
    rng = np.random.default_rng(28)
    z = rng.normal(size=(40, 7, 9))
    sel = np.stack([rng.permutation(9)[:3] for _ in range(7)])
    out = aggregate_selected(z, sel)
    assert out.flags["C_CONTIGUOUS"]
    for k in range(7):
        np.testing.assert_array_equal(out[:, k], z[:, k, np.sort(sel[k])].mean(axis=-1))


def test_aggregate_rejects_duplicates_and_range():
    z = np.zeros((2, 2, 3))
    with pytest.raises(ValueError):
        aggregate_selected(z, np.array([[0, 0], [1, 2]]))
    with pytest.raises(ValueError, match="class 1"):
        aggregate_selected(z, np.array([[0, 1], [2, 2]]))
    with pytest.raises(ValueError):
        aggregate_selected(z, np.array([[0, 3], [1, 2]]))


def test_aggregate_rejects_out_of_range_naming_the_class():
    z = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="class 2"):
        aggregate_selected(z, np.array([[0, 1], [2, 3], [-1, 0]]))
    with pytest.raises(ValueError):
        aggregate_selected(z, np.array([[0, 1], [2, 3]]))  # one class short


def test_selected_prompts_pooled_equals_aggregate_of_full_tensor():
    rng = np.random.default_rng(30)
    features = rng.normal(size=(40, 6))
    pool = rng.normal(size=(7, 9, 6))
    delta = rng.normal(size=6) * 0.1
    sel = np.stack([rng.permutation(9)[:3] for _ in range(7)])
    chosen = pool[np.arange(7)[:, None], np.sort(sel, axis=1)]  # each class's selection, ascending
    pooled = prompt_scores(features, chosen, delta).mean(axis=-1)
    assert pooled.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(
        pooled, aggregate_selected(prompt_scores(features, pool, delta), sel)
    )


def test_fuse_endpoints_exact():
    rng = np.random.default_rng(26)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(fuse(a, b, 0.0), b)
    np.testing.assert_array_equal(fuse(a, b, 1.0), a)


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_fuse_stays_between_inputs(lam):
    rng = np.random.default_rng(27)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    g = fuse(a, b, lam)
    assert np.all(g <= np.maximum(a, b) + 1e-12)
    assert np.all(g >= np.minimum(a, b) - 1e-12)


def test_fuse_rejects_bad_lam_and_shape():
    with pytest.raises(ValueError):
        fuse(np.zeros(3), np.zeros(3), -0.1)
    with pytest.raises(ValueError):
        fuse(np.zeros(3), np.zeros(3), 1.1)
    with pytest.raises(ValueError):
        fuse(np.zeros(3), np.zeros(4), 0.5)


def test_cosine_euclidean_identity():
    # mean squared distance between unit vectors = 2 - 2 * mean cosine
    rng = np.random.default_rng(28)
    for _ in range(20):
        v = normalize_rows(rng.normal(size=(50, 16)))
        e = normalize_rows(rng.normal(size=(50, 16)))
        lhs = np.mean(np.sum((v - e) ** 2, axis=-1))
        rhs = 2.0 - 2.0 * np.mean(np.sum(v * e, axis=-1))
        assert abs(lhs - rhs) <= 1e-10
