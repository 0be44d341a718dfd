"""Simulator tests: determinism, shift identity at magnitude 0, profile
bounds, selection recoverability, and the shift-actually-hurts property."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from vlodtta.adapt import AdaptState, EpisodeConfig, fused_scores, run_baseline
from vlodtta.evaluation import evaluate
from vlodtta.geometry import Box, iou
from vlodtta.sim import (
    _OBJ_SIZE_FRAC,
    SEED_SCALE,
    ShiftSpec,
    SimConfig,
    _clamp,
    _jittered_boxes,
    _random_boxes,
    gen_scene_proposals,
    gen_world,
    make_suite,
)

SIM = SimConfig()


def test_world_is_deterministic():
    shift = ShiftSpec(magnitude=0.5)
    a = gen_world(3, SIM, shift)
    b = gen_world(3, SIM, shift)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    np.testing.assert_array_equal(a.pool.embeddings, b.pool.embeddings)
    np.testing.assert_array_equal(a.aligned, b.aligned)
    c = gen_world(4, SIM, shift)
    assert not np.array_equal(a.prototypes, c.prototypes)


def test_scene_is_deterministic():
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, SIM, shift)
    pa, gta = gen_scene_proposals(7, SIM, world, shift)
    pb, gtb = gen_scene_proposals(7, SIM, world, shift)
    np.testing.assert_array_equal(pa.boxes, pb.boxes)
    np.testing.assert_array_equal(pa.features, pb.features)
    assert gta == gtb
    pc, _ = gen_scene_proposals(8, SIM, world, shift)
    assert not np.array_equal(pa.boxes, pc.boxes)


def test_world_and_scene_rows_are_unit():
    shift = ShiftSpec(magnitude=0.7)
    world = gen_world(1, SIM, shift)
    np.testing.assert_allclose(np.linalg.norm(world.prototypes, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(world.pool.embeddings, axis=-1), 1.0, atol=1e-12
    )
    proposals, _ = gen_scene_proposals(2, SIM, world, shift)
    np.testing.assert_allclose(np.linalg.norm(proposals.features, axis=-1), 1.0, atol=1e-12)


def test_magnitude_zero_is_identity_regardless_of_noise_amp():
    # with magnitude 0 the noise amplification multiplies by exactly 1 and
    # the rotation short-circuits, so the amp knob must leave no trace
    for seed in (0, 5):
        a = make_suite(seed, 3, SIM, ShiftSpec(magnitude=0.0, noise_amp=2.0))
        b = make_suite(seed, 3, SIM, ShiftSpec(magnitude=0.0, noise_amp=9.0))
        np.testing.assert_array_equal(a.world.pool.embeddings, b.world.pool.embeddings)
        for (pa, _), (pb, _) in zip(a.scenes, b.scenes):
            np.testing.assert_array_equal(pa.boxes, pb.boxes)
            np.testing.assert_array_equal(pa.features, pb.features)


def test_quality_spread_zero_collapses_pool_to_prototypes():
    sim = SimConfig(quality_spread=0.0)
    world = gen_world(2, sim, ShiftSpec(magnitude=0.5))
    for k in range(sim.num_classes):
        for t in range(1, sim.pool_size):
            np.testing.assert_array_equal(world.pool.embeddings[k, t], world.pool.embeddings[k, 0])
        np.testing.assert_allclose(
            world.pool.embeddings[k, 0], world.prototypes[k], atol=1e-12
        )


def test_aligned_slots_count_and_range():
    world = gen_world(0, SIM, ShiftSpec(magnitude=0.5))
    expected = math.ceil(SIM.aligned_fraction * SIM.pool_size)
    assert world.aligned.shape == (SIM.num_classes, expected)
    for k in range(SIM.num_classes):
        row = world.aligned[k]
        assert len(set(row.tolist())) == expected
        assert row.min() >= 0 and row.max() < SIM.pool_size
        assert np.all(np.diff(row) > 0)


def test_aligned_slots_point_along_shift_direction():
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, SIM, shift)
    direction = shift.direction(SIM.d)
    # reconstructing an aligned slot from the documented recipe must match
    for k in range(SIM.num_classes):
        for t in world.aligned[k]:
            expected = world.prototypes[k] + world.qualities[t] * direction
            expected = expected / np.linalg.norm(expected)
            np.testing.assert_allclose(world.pool.embeddings[k, t], expected, atol=1e-12)


def test_default_profile_seed0_bounds_and_coverage():
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, SIM, shift)
    proposals, gts = gen_scene_proposals(0, SIM, world, shift)
    n_obj = len(gts)
    assert SIM.objects_min <= n_obj <= SIM.objects_max
    lo = n_obj * SIM.proposals_min + SIM.background
    hi = n_obj * (SIM.proposals_max + SIM.distractor_max) + SIM.background
    assert lo <= proposals.n <= hi
    assert np.all(proposals.boxes[:, 0] >= 0) and np.all(proposals.boxes[:, 1] >= 0)
    assert np.all(proposals.boxes[:, 2] <= SIM.extent[0])
    assert np.all(proposals.boxes[:, 3] <= SIM.extent[1])
    box_objs = [Box(*row) for row in proposals.boxes.tolist()]
    for gt in gts:
        best = max(iou(gt.box, b) for b in box_objs)
        assert best >= 0.5, f"object {gt} has no proposal above IoU 0.5"


def test_make_suite_seed_derivation():
    shift = ShiftSpec(magnitude=0.5)
    suite = make_suite(3, 4, SIM, shift)
    assert len(suite.scenes) == 4
    direct, _ = gen_scene_proposals(3 * SEED_SCALE + 2, SIM, suite.world, shift)
    np.testing.assert_array_equal(suite.scenes[2][0].features, direct.features)


def test_suite_generation_under_one_second():
    start = time.perf_counter()
    make_suite(0, 20, SIM, ShiftSpec(magnitude=0.5))
    assert time.perf_counter() - start < 1.0


def test_shift_spec_validation():
    with pytest.raises(ValueError):
        ShiftSpec(magnitude=-0.1)
    with pytest.raises(ValueError):
        ShiftSpec(magnitude=1.5)
    with pytest.raises(ValueError):
        ShiftSpec(noise_amp=0.5)


def test_sim_config_validation():
    bad = [
        {"d": 1}, {"num_classes": 1}, {"pool_size": 0}, {"extent": (8, 480)},
        {"objects_min": 0}, {"objects_min": 6, "objects_max": 5},
        {"proposals_min": 0}, {"distractor_prob": 1.5}, {"distractor_min": 0},
        {"background": -1}, {"jitter": -0.1}, {"feature_noise": -1.0},
        {"quality_spread": -0.5}, {"aligned_fraction": 0.0}, {"aligned_fraction": 1.1},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            SimConfig(**kwargs).validate()
    SimConfig().validate()


def test_selection_recovers_aligned_prompts_under_shift():
    # averaged over classes and seeds, zero-init selection at the default
    # rho must recover at least half of the constructed aligned subset
    cfg = EpisodeConfig()
    for magnitude in (0.3, 0.5):
        shift = ShiftSpec(magnitude=magnitude)
        fractions = []
        for seed in range(20):
            world = gen_world(seed, SIM, shift)
            proposals, _ = gen_scene_proposals(seed * SEED_SCALE, SIM, world, shift)
            state = AdaptState.zero_init(proposals.d, cfg.reduction)
            scores = fused_scores(proposals, world.pool, state.phi, state.delta, cfg)
            for k in range(SIM.num_classes):
                hit = len(set(scores.selections[k].tolist()) & set(world.aligned[k].tolist()))
                fractions.append(hit / world.aligned.shape[1])
        mean_recovery = float(np.mean(fractions))
        assert mean_recovery >= 0.5, f"magnitude {magnitude}: recovery {mean_recovery:.3f}"


def test_shift_degrades_zero_shot_map():
    cfg = EpisodeConfig()
    reports = {}
    for magnitude in (0.0, 0.5):
        suite = make_suite(0, 20, SIM, ShiftSpec(magnitude=magnitude))
        dets = [
            run_baseline("zero_shot", proposals, suite.world.pool, cfg)
            for proposals, _ in suite.scenes
        ]
        gts = [list(g) for _, g in suite.scenes]
        reports[magnitude] = evaluate(dets, gts)
    assert reports[0.5].mean_ap < reports[0.0].mean_ap


# -- array box draws against the scalar loops they replaced ---------------------- #

def _scalar_random_box(g, width, height):
    bw = g.uniform(*_OBJ_SIZE_FRAC) * width
    bh = g.uniform(*_OBJ_SIZE_FRAC) * height
    cx = g.uniform(bw / 2.0, width - bw / 2.0)
    cy = g.uniform(bh / 2.0, height - bh / 2.0)
    return Box(cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0)


def _scalar_clamped(x1, y1, x2, y2, width, height):
    x1, x2 = max(0.0, x1), min(width, x2)
    y1, y2 = max(0.0, y1), min(height, y2)
    if x2 - x1 < 1.0:
        mid = min(max((x1 + x2) / 2.0, 0.5), width - 0.5)
        x1, x2 = mid - 0.5, mid + 0.5
    if y2 - y1 < 1.0:
        mid = min(max((y1 + y2) / 2.0, 0.5), height - 0.5)
        y1, y2 = mid - 0.5, mid + 0.5
    return [x1, y1, x2, y2]


def _scalar_jittered_boxes(g, base, n, jitter, width, height):
    bw, bh = base.x2 - base.x1, base.y2 - base.y1
    cx, cy = (base.x1 + base.x2) / 2.0, (base.y1 + base.y2) / 2.0
    dx = g.normal(0.0, jitter * bw, n)
    dy = g.normal(0.0, jitter * bh, n)
    sw = bw * np.exp(g.normal(0.0, jitter, n))
    sh = bh * np.exp(g.normal(0.0, jitter, n))
    out = np.empty((n, 4))
    for i in range(n):
        out[i] = _scalar_clamped(
            cx + dx[i] - sw[i] / 2.0, cy + dy[i] - sh[i] / 2.0,
            cx + dx[i] + sw[i] / 2.0, cy + dy[i] + sh[i] / 2.0, width, height,
        )
    return out


def _stream(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x5A))))


@pytest.mark.parametrize("extent", [(640.0, 480.0), (17.0, 16.0)])
def test_array_box_draws_equal_the_scalar_loops_on_one_stream(extent):
    # the scene generator's pattern: a one-row draw, integer and normal draws
    # in between, jittered clusters, then a block of background boxes
    width, height = extent
    slivers = np.zeros(2, dtype=int)
    for seed in range(20):
        old, new = _stream(seed), _stream(seed)
        for jitter in (0.1, 3.0):
            want = _scalar_random_box(old, width, height)
            got = _random_boxes(new, 1, width, height)[0].tolist()
            assert got == [want.x1, want.y1, want.x2, want.y2]
            assert old.integers(5, 60) == new.integers(5, 60)
            n = int(old.integers(1, 40))
            assert n == new.integers(1, 40)
            boxes = _jittered_boxes(new, want, n, jitter, width, height)
            np.testing.assert_array_equal(boxes, _scalar_jittered_boxes(old, want, n, jitter, width, height))
            slivers += np.isclose(boxes[:, 2:] - boxes[:, :2], 1.0, rtol=0.0, atol=1e-9).sum(axis=0)
        background = np.array([
            [b.x1, b.y1, b.x2, b.y2] for b in (_scalar_random_box(old, width, height) for _ in range(37))
        ])
        np.testing.assert_array_equal(_random_boxes(new, 37, width, height), background)
        assert old.random() == new.random()  # both streams are at the same point
    assert np.all(slivers > 0)  # high jitter took the 1px sliver branch on both axes


def test_array_clamp_equals_the_scalar_clamp_including_slivers():
    width, height = 640.0, 480.0
    g = _stream(99)
    raw = np.sort(g.uniform(-200.0, 900.0, size=(4000, 4)).reshape(4000, 2, 2), axis=1)
    raw = raw.transpose(0, 2, 1).reshape(4000, 4)  # x1 <= x2 and y1 <= y2, often off the extent
    got = _clamp(raw, width, height)
    want = np.array([_scalar_clamped(*row, width, height) for row in raw.tolist()])
    np.testing.assert_array_equal(got, want)
    # both axes took the 1px sliver branch somewhere, at the edges too
    for lo, hi, limit in ((0, 2, width), (1, 3, height)):
        thin = np.minimum(limit, raw[:, hi]) - np.maximum(0.0, raw[:, lo]) < 1.0
        assert thin.sum() > 100
        assert np.any(got[thin, lo] == 0.0) and np.any(got[thin, hi] == limit)


def test_ground_truth_boxes_hold_python_floats():
    sim = SimConfig(jitter=3.0, distractor_prob=1.0)
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, sim, shift)
    _, gts = gen_scene_proposals(5, sim, world, shift)
    for gt in gts:
        coords = (gt.box.x1, gt.box.y1, gt.box.x2, gt.box.y2)
        assert all(type(c) is float for c in coords)
