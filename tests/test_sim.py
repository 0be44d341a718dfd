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
    SEED_SCALE,
    ShiftSpec,
    SimConfig,
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
