"""Simulator tests: determinism, shift identity at magnitude 0, profile
bounds, selection recoverability, and the shift-actually-hurts property."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from vlodtta.adapt import EpisodeConfig, run_baseline
from vlodtta.evaluation import evaluate
from vlodtta.geometry import Box, iou
from vlodtta.scoring import normalize_rows, prompt_compat, select_prompts
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
    pa, gta = gen_scene_proposals(7, world)
    pb, gtb = gen_scene_proposals(7, world)
    np.testing.assert_array_equal(pa.boxes, pb.boxes)
    np.testing.assert_array_equal(pa.features, pb.features)
    assert gta == gtb
    pc, _ = gen_scene_proposals(8, world)
    assert not np.array_equal(pa.boxes, pc.boxes)


def test_world_and_scene_rows_are_unit():
    shift = ShiftSpec(magnitude=0.7)
    world = gen_world(1, SIM, shift)
    np.testing.assert_allclose(np.linalg.norm(world.prototypes, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(world.pool.embeddings, axis=-1), 1.0, atol=1e-12
    )
    proposals, _ = gen_scene_proposals(2, world)
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
    proposals, gts = gen_scene_proposals(0, world)
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


def test_world_carries_its_profile_shift_and_shifted_prototypes():
    sim = SimConfig(d=16, num_classes=4)
    still = gen_world(6, sim, ShiftSpec(magnitude=0.0))
    assert still.cfg is sim and still.shift == ShiftSpec(magnitude=0.0)
    np.testing.assert_array_equal(still.shifted, still.prototypes)
    moved = gen_world(6, sim, ShiftSpec(magnitude=1.0))
    np.testing.assert_array_equal(moved.prototypes, still.prototypes)
    target = ShiftSpec().direction(sim.d)
    np.testing.assert_allclose(moved.shifted, np.broadcast_to(target, moved.shifted.shape), atol=1e-12)


def test_make_suite_seed_derivation():
    shift = ShiftSpec(magnitude=0.5)
    suite = make_suite(3, 4, SIM, shift)
    assert len(suite.scenes) == 4
    direct, _ = gen_scene_proposals(3 * SEED_SCALE + 2, suite.world)
    np.testing.assert_array_equal(suite.scenes[2][0].features, direct.features)


@pytest.mark.parametrize("seed", [1.5, True, -1, "1"], ids=["float", "bool", "negative", "str"])
def test_generators_reject_a_seed_that_is_not_a_non_negative_int(seed):
    world = gen_world(0, SIM, ShiftSpec())
    with pytest.raises(ValueError, match="^seed must be"):
        gen_world(seed, SIM, ShiftSpec())
    with pytest.raises(ValueError, match="^seed must be"):
        gen_scene_proposals(seed, world)
    with pytest.raises(ValueError, match="^base_seed must be"):
        make_suite(seed, 2, SIM, ShiftSpec())


@pytest.mark.parametrize("n_scenes", [True, 2.0], ids=["bool", "float"])
def test_make_suite_rejects_a_scene_count_that_is_not_an_int(n_scenes):
    with pytest.raises(ValueError, match="^n_scenes must be an integer"):
        make_suite(0, n_scenes, SIM, ShiftSpec())


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ShiftSpec(seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        replace(ShiftSpec(), seed=-1)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="noise_amp must be a finite number"):
            ShiftSpec(noise_amp=value)
        with pytest.raises(ValueError, match="noise_amp must be a finite number"):
            replace(ShiftSpec(), noise_amp=value)


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
            SimConfig(**kwargs)
        with pytest.raises(ValueError):
            replace(SIM, **kwargs)
    for name in ("jitter", "feature_noise", "quality_spread"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                SimConfig(**{name: value})
    SimConfig()


def test_selection_recovers_aligned_prompts_under_shift():
    # averaged over classes and seeds, zero-init selection at the default
    # rho must recover at least half of the constructed aligned subset
    cfg = EpisodeConfig()
    for magnitude in (0.3, 0.5):
        shift = ShiftSpec(magnitude=magnitude)
        fractions = []
        for seed in range(20):
            world = gen_world(seed, SIM, shift)
            proposals, _ = gen_scene_proposals(seed * SEED_SCALE, world)
            mean_unit = normalize_rows(proposals.features).mean(axis=0)
            selections = select_prompts(prompt_compat(mean_unit, world.pool.embeddings), cfg.rho)
            for k in range(SIM.num_classes):
                hit = len(set(selections[k].tolist()) & set(world.aligned[k].tolist()))
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
    column = np.array([[width], [height]])
    slivers = np.zeros(2, dtype=int)
    for seed in range(20):
        old, new = _stream(seed), _stream(seed)
        for jitter in (0.1, 3.0):
            want = _scalar_random_box(old, width, height)
            got = _random_boxes(new.random((1, 4)), column)[:, 0].tolist()
            assert got == [want.x1, want.y1, want.x2, want.y2]
            assert old.integers(5, 60) == new.integers(5, 60)
            n = int(old.integers(1, 40))
            assert n == new.integers(1, 40)
            bases = np.repeat(np.array(got)[:, None], n, axis=1)
            boxes = _jittered_boxes(bases, np.full(n, jitter), new.standard_normal((4, n)), column).T
            np.testing.assert_array_equal(boxes, _scalar_jittered_boxes(old, want, n, jitter, width, height))
            slivers += np.isclose(boxes[:, 2:] - boxes[:, :2], 1.0, rtol=0.0, atol=1e-9).sum(axis=0)
        background = np.array([
            [b.x1, b.y1, b.x2, b.y2] for b in (_scalar_random_box(old, width, height) for _ in range(37))
        ])
        np.testing.assert_array_equal(_random_boxes(new.random((37, 4)), column).T, background)
        assert old.random() == new.random()  # both streams are at the same point
    assert np.all(slivers > 0)  # high jitter took the 1px sliver branch on both axes


def test_array_clamp_equals_the_scalar_clamp_including_slivers():
    width, height = 640.0, 480.0
    g = _stream(99)
    raw = np.sort(g.uniform(-200.0, 900.0, size=(4000, 4)).reshape(4000, 2, 2), axis=1)
    raw = raw.transpose(0, 2, 1).reshape(4000, 4)  # x1 <= x2 and y1 <= y2, often off the extent
    got = _clamp(raw.T, np.array([[width], [height]])).T
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
    _, gts = gen_scene_proposals(5, world)
    for gt in gts:
        coords = (gt.box.x1, gt.box.y1, gt.box.x2, gt.box.y2)
        assert all(type(c) is float for c in coords)


def _suite_digest(suite) -> str:
    """sha256 over a suite's world arrays and every scene's boxes, features and ground truth."""
    h = hashlib.sha256()
    world = suite.world
    for arr in (world.prototypes, world.class_embeddings, world.pool.embeddings, world.aligned, world.qualities):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for proposals, gts in suite.scenes:
        for arr in (proposals.boxes, proposals.features, proposals.class_embeddings):
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr([(gt.box.x1, gt.box.y1, gt.box.x2, gt.box.y2, gt.class_id) for gt in gts]).encode())
    return h.hexdigest()


COCO_SIM = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)
TINY_SIM = SimConfig(d=8, num_classes=3, pool_size=1, distractor_prob=1.0)

# recorded when every prompt slot had its own draw and every scene rotated the
# prototypes itself; a change to any draw, its order or a rounding step moves them
SUITE_SHA256 = {
    ("desk", 0.0): "da1eb500e03b9e0a0a174c6e11f3426ed1f09699e116e46539505ce4e76ac723",
    ("desk", 0.5): "4afc9281c7462f987330334fd9e9458a6ec7d23824ad471df1dba3c882dc114f",
    ("desk", 1.0): "9fe098b7aee13f8217c930d682cad1d1ed262d92c05ecea0a2b2dfd27f219cf6",
    ("coco", 0.5): "37ecb808c12cdfac7f7e63d369d8bb63a67a7035f5a5a82a1033234e0cee11fa",
    ("tiny", 1.0): "8f506483da300d398a4efa2935378974af277f36ea27130d34cfe9fb9482cf0d",
}


@pytest.mark.parametrize("profile, magnitude", sorted(SUITE_SHA256))
def test_make_suite_matches_recorded_digests(profile, magnitude):
    sim, base_seed, n_scenes = {"desk": (SIM, 3, 6), "coco": (COCO_SIM, 1, 2), "tiny": (TINY_SIM, 5, 4)}[profile]
    suite = make_suite(base_seed, n_scenes, sim, ShiftSpec(magnitude=magnitude, noise_amp=2.5, seed=2))
    assert _suite_digest(suite) == SUITE_SHA256[profile, magnitude]


# -- the two-phase generator against the per-object one it replaced ------------- #

def _reference_features(g, prototype, alphas, noise_scale):
    noise = normalize_rows(g.standard_normal((alphas.size, prototype.size)))
    return normalize_rows(alphas[:, None] * prototype + (1.0 - alphas)[:, None] * noise_scale * noise)


def _reference_scene(seed, world):
    """One scene made object by object, each object's draws and arithmetic in turn, with the scalar box loops."""
    cfg, shifted = world.cfg, world.shifted
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x5C))))
    width, height = float(cfg.extent[0]), float(cfg.extent[1])
    noise_scale = cfg.feature_noise * world.shift.noise_factor()
    gts, box_chunks, feat_chunks = [], [], []
    distractors = 0
    for _ in range(int(g.integers(cfg.objects_min, cfg.objects_max + 1))):
        cls = int(g.integers(cfg.num_classes))
        gt_box = _scalar_random_box(g, width, height)
        gts.append((gt_box.x1, gt_box.y1, gt_box.x2, gt_box.y2, cls))
        n_prop = int(g.integers(cfg.proposals_min, cfg.proposals_max + 1))
        boxes = _scalar_jittered_boxes(g, gt_box, n_prop, cfg.jitter, width, height)
        alphas = np.array([max(0.2, min(iou(gt_box, Box(*row)), 1.0)) for row in boxes.tolist()])
        box_chunks.append(boxes)
        feat_chunks.append(_reference_features(g, shifted[cls], alphas, noise_scale))
        if g.random() < cfg.distractor_prob:
            distractors += 1
            wrong = (cls + 1 + int(g.integers(cfg.num_classes - 1))) % cfg.num_classes
            n_dis = int(g.integers(cfg.distractor_min, cfg.distractor_max + 1))
            bw, bh = gt_box.x2 - gt_box.x1, gt_box.y2 - gt_box.y1
            side = g.choice(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
            anchor = Box(*_scalar_clamped(
                gt_box.x1 + side[0] * 0.9 * bw,
                gt_box.y1 + side[1] * 0.9 * bh,
                gt_box.x2 + side[0] * 0.9 * bw - side[0] * 0.3 * bw,
                gt_box.y2 + side[1] * 0.9 * bh - side[1] * 0.3 * bh,
                width, height,
            ))
            box_chunks.append(_scalar_jittered_boxes(g, anchor, n_dis, cfg.jitter * 0.7, width, height))
            feat_chunks.append(_reference_features(g, shifted[wrong], np.full(n_dis, 0.4), noise_scale))
    if cfg.background:
        box_chunks.append(np.array([
            [b.x1, b.y1, b.x2, b.y2] for b in (_scalar_random_box(g, width, height) for _ in range(cfg.background))
        ]))
        feat_chunks.append(normalize_rows(g.standard_normal((cfg.background, cfg.d))))
    return np.concatenate(box_chunks), np.concatenate(feat_chunks), gts, distractors


EDGE_PROFILES = {
    "desk": SIM,
    "slivers": SimConfig(jitter=3.0),
    "distractors": SimConfig(distractor_prob=1.0),
    "small_extent": SimConfig(extent=(17, 16), distractor_prob=0.5),
    "no_background": SimConfig(background=0),
    "one_proposal": SimConfig(
        proposals_min=1, proposals_max=1, distractor_min=1, distractor_max=1, distractor_prob=0.5
    ),
    "still": SimConfig(feature_noise=0.0, jitter=0.0, distractor_prob=0.5),
    "coco": COCO_SIM,
}


@pytest.mark.parametrize("profile", sorted(EDGE_PROFILES))
def test_scenes_equal_the_per_object_reference_byte_for_byte(profile):
    sim = EDGE_PROFILES[profile]
    world = gen_world(4, sim, ShiftSpec(magnitude=0.5, noise_amp=2.5, seed=2))
    distractors = 0
    for seed in range(8 if profile == "coco" else 48):
        proposals, gts = gen_scene_proposals(seed, world)
        boxes, features, want, n_distractors = _reference_scene(seed, world)
        for got, ref in ((proposals.boxes, boxes), (proposals.features, features)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        got = [(gt.box.x1, gt.box.y1, gt.box.x2, gt.box.y2, gt.class_id) for gt in gts]
        assert got == want and all(type(c) is float for row in got for c in row[:4])
        distractors += n_distractors
    assert distractors > 0  # the anchor arithmetic ran
