"""Episode-loop contract tests: zero-init transparency, reset, frozen
constants, lr=0 bit-identity, baselines, and single-step descent."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import vlodtta.cluster
import vlodtta.geometry
import vlodtta.scoring
from vlodtta.adapt import (
    AdapterParams,
    AdaptState,
    EpisodeConfig,
    adapt_episode,
    adapter_param_count,
    apply_adapter,
    fused_scores,
    run_baseline,
)
from vlodtta.checks import nms_detections, reference_components, reference_nms
from vlodtta.data import ProposalSet
from vlodtta.grad import Gradients, ObjectiveConstants, backward, forward_objective
from vlodtta.scoring import (
    aggregate_selected,
    image_prompt_compat,
    posterior,
    prompt_compat,
    prompt_scores,
    select_prompts,
)
from vlodtta.sim import ShiftSpec, SimConfig, gen_scene_proposals, gen_world

CFG = EpisodeConfig()
COCO_SIM = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)


def _scene(seed=0, magnitude=0.5, sim=SimConfig()):
    shift = ShiftSpec(magnitude=magnitude)
    world = gen_world(seed, sim, shift)
    proposals, gts = gen_scene_proposals(seed * 1_000_003, sim, world, shift)
    return world, proposals, gts


def _predict_with_public_api(fused, boxes, cfg):
    """Reimplementation of the prediction rule using only public pieces."""
    probs = posterior(fused, cfg.kappa)
    conf = probs.max(axis=-1)
    labels = probs.argmax(axis=-1)
    dets = [
        vlodtta.geometry.Detection(
            box=vlodtta.geometry.Box(*boxes[i]), class_id=int(labels[i]), score=float(conf[i])
        )
        for i in np.flatnonzero(conf >= cfg.score_thresh)
    ]
    return nms_detections(dets, cfg.nms_iou)


# -- adapter ---------------------------------------------------------------- #

def test_zero_init_adapter_is_bitwise_identity():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(20, 32))
    params = AdapterParams.zero_init(32, reduction=16)
    np.testing.assert_array_equal(apply_adapter(v, params), v)


def test_apply_adapter_matches_loop_oracle():
    w_down = (((np.arange(8).reshape(4, 2) * 9) % 5) - 2.0) * 0.21
    b_down = np.array([0.05, -0.1])
    w_up = (((np.arange(8).reshape(2, 4) * 11) % 6) - 2.5) * 0.13
    b_up = np.array([0.02, -0.03, 0.04, -0.01])
    params = AdapterParams(w_down, b_down, w_up, b_up, reduction=2)
    v = (((np.arange(12).reshape(3, 4) * 7) % 11) - 5.0) * 0.23
    got = apply_adapter(v, params)
    for i in range(3):
        hidden = []
        for j in range(2):
            s = sum(v[i, a] * w_down[a, j] for a in range(4)) + b_down[j]
            hidden.append(0.5 * s * (1.0 + math.erf(s / math.sqrt(2.0))))
        for j in range(4):
            out = v[i, j] + sum(hidden[a] * w_up[a, j] for a in range(2)) + b_up[j]
            assert got[i, j] == pytest.approx(out, abs=1e-12)


def test_adapter_param_counts():
    assert adapter_param_count(64, 16) == (512, 512 + 4 + 64)
    assert adapter_param_count(32, 16) == (2 * 32 * 2, 128 + 2 + 32)
    with pytest.raises(ValueError):
        adapter_param_count(30, 16)


def test_adapter_params_validate_shapes():
    with pytest.raises(ValueError):
        AdapterParams(np.zeros((4, 2)), np.zeros(3), np.zeros((2, 4)), np.zeros(4), 2)
    with pytest.raises(ValueError):
        AdapterParams(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4), 2)
    with pytest.raises(ValueError):
        AdapterParams.zero_init(30, 16)


def test_zero_init_is_seed_deterministic():
    a = AdapterParams.zero_init(32, 16, seed=0)
    b = AdapterParams.zero_init(32, 16, seed=0)
    c = AdapterParams.zero_init(32, 16, seed=1)
    np.testing.assert_array_equal(a.w_down, b.w_down)
    assert not np.array_equal(a.w_down, c.w_down)


def test_state_step_and_reset():
    state = AdaptState.zero_init(8, reduction=2)
    before = state.phi.copy()
    ones = Gradients(
        w_down=np.ones((8, 4)), b_down=np.ones(4),
        w_up=np.ones((4, 8)), b_up=np.ones(8), delta=np.ones(8),
    )
    state.step(ones, lr=0.5)
    np.testing.assert_array_equal(state.phi.w_down, before.w_down - 0.5)
    np.testing.assert_array_equal(state.phi.w_up, -0.5 * np.ones((4, 8)))
    np.testing.assert_array_equal(state.delta, -0.5 * np.ones(8))
    state.reset()
    np.testing.assert_array_equal(state.phi.w_down, before.w_down)
    np.testing.assert_array_equal(state.phi.w_up, np.zeros((4, 8)))
    np.testing.assert_array_equal(state.delta, np.zeros(8))


# -- episode contract --------------------------------------------------------- #

def test_episode_resets_parameters_exactly():
    world, proposals, _ = _scene()
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    w_down0 = state.phi.w_down.copy()
    _, trace = adapt_episode(proposals, world.pool, CFG, state=state)
    assert any(v > 0 for v in trace.grad_norms.values())  # a step really happened
    np.testing.assert_array_equal(state.phi.w_down, w_down0)
    np.testing.assert_array_equal(state.phi.b_down, np.zeros_like(state.phi.b_down))
    np.testing.assert_array_equal(state.phi.w_up, np.zeros_like(state.phi.w_up))
    np.testing.assert_array_equal(state.phi.b_up, np.zeros_like(state.phi.b_up))
    np.testing.assert_array_equal(state.delta, np.zeros_like(state.delta))


def test_lr_zero_episode_is_bit_identical_to_no_adaptation():
    world, proposals, _ = _scene(seed=1)
    cfg = EpisodeConfig(lr=0.0)
    dets, trace = adapt_episode(proposals, world.pool, cfg)
    state = AdaptState.zero_init(proposals.d, cfg.reduction)
    pre = fused_scores(proposals, world.pool, state.phi, state.delta, cfg)
    expected = _predict_with_public_api(pre.fused, proposals.boxes, cfg)
    assert dets == expected
    assert trace.pre_score_range == trace.post_score_range


def test_episode_is_deterministic():
    world, proposals, _ = _scene(seed=2)
    dets_a, trace_a = adapt_episode(proposals, world.pool, CFG)
    dets_b, trace_b = adapt_episode(proposals, world.pool, CFG)
    assert dets_a == dets_b
    assert trace_a.loss == trace_b.loss
    assert trace_a.grad_norms == trace_b.grad_norms


def test_constants_frozen_one_call_each(monkeypatch):
    calls = {"select": 0, "top_m": 0, "graphs": 0}
    real_select = vlodtta.scoring.select_prompts
    real_top_m = vlodtta.geometry.top_m_filter
    real_graphs = vlodtta.cluster.build_class_graphs

    def counting_select(*a, **k):
        calls["select"] += 1
        return real_select(*a, **k)

    def counting_top_m(*a, **k):
        calls["top_m"] += 1
        return real_top_m(*a, **k)

    def counting_graphs(*a, **k):
        calls["graphs"] += 1
        return real_graphs(*a, **k)

    monkeypatch.setattr(vlodtta.scoring, "select_prompts", counting_select)
    monkeypatch.setattr(vlodtta.geometry, "top_m_filter", counting_top_m)
    monkeypatch.setattr(vlodtta.cluster, "build_class_graphs", counting_graphs)
    world, proposals, _ = _scene(seed=3)
    adapt_episode(proposals, world.pool, CFG)
    assert calls == {"select": 1, "top_m": 1, "graphs": 1}


def test_episode_trace_contents():
    world, proposals, _ = _scene(seed=4)
    dets, trace = adapt_episode(proposals, world.pool, CFG)
    k, t = world.pool.num_classes, world.pool.pool_size
    assert len(trace.selections) == k
    assert all(len(row) == math.ceil(CFG.rho * t) for row in trace.selections)
    assert sum(trace.cluster_sizes.values()) == trace.cluster_count
    assert trace.pre_score_range[0] <= trace.pre_score_range[1]
    assert len(trace.detections) == len(dets)
    json.dumps(trace.to_dict())  # must be wire-ready


def test_episode_details_dict():
    world, proposals, _ = _scene(seed=5)
    details = {}
    adapt_episode(proposals, world.pool, CFG, details=details)
    assert set(details) == {"pre", "post", "kept", "assignment", "weights", "grads", "components"}
    assert details["pre"].fused.shape == (proposals.n, world.pool.num_classes)
    assert details["weights"].shape == details["kept"].shape
    sizes = [row["size"] for row in details["components"]]
    assert sizes == sorted(sizes, reverse=True)
    assert all(set(row) == {"class_id", "size", "max_score"} for row in details["components"])


def test_coco_scale_components_and_nms_match_references():
    # 80 classes, and top_m cuts the proposals to 600: clustering and NMS
    # at the scale where most proposal pairs differ in class
    world, proposals, _ = _scene(sim=COCO_SIM)
    details = {}
    dets, _ = adapt_episode(proposals, world.pool, CFG, details=details)
    kept, assignment = details["kept"], details["assignment"]
    assert kept.size == CFG.top_m < proposals.n
    want_id = np.empty(kept.size, dtype=int)
    want_size = np.empty(kept.size, dtype=int)
    box_objs = [vlodtta.geometry.Box(*row) for row in proposals.boxes[kept]]
    for members in reference_components(box_objs, assignment.classes, CFG.theta):
        want_id[list(members)] = min(members)
        want_size[list(members)] = len(members)
    np.testing.assert_array_equal(assignment.component_id, want_id)
    np.testing.assert_array_equal(assignment.component_size, want_size)
    assert len(set(assignment.classes.tolist())) > 4

    probs = posterior(details["post"].fused, CFG.kappa)
    conf, labels = probs.max(axis=-1), probs.argmax(axis=-1)
    candidates = [
        vlodtta.geometry.Detection(
            box=vlodtta.geometry.Box(*proposals.boxes[i]), class_id=int(labels[i]), score=float(conf[i])
        )
        for i in np.flatnonzero(conf >= CFG.score_thresh)
    ]
    want = reference_nms(candidates, CFG.nms_iou)
    assert nms_detections(candidates, CFG.nms_iou) == want
    assert dets == want


def _stepped_states(world, proposals):
    """The zero-init state and the state after the episode's single step."""
    details = {}
    adapt_episode(proposals, world.pool, CFG, details=details)
    stepped = AdaptState.zero_init(proposals.d, CFG.reduction)
    stepped.step(details["grads"], CFG.lr)
    return AdaptState.zero_init(proposals.d, CFG.reduction), stepped


@pytest.mark.parametrize("sim,n_scenes", [(SimConfig(), 20), (COCO_SIM, 10)], ids=["desk", "coco"])
def test_compat_and_selected_scoring_match_the_dense_tensor(sim, n_scenes):
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, sim, shift)
    pool = world.pool.embeddings
    full = EpisodeConfig(rho=1.0)
    for seed in range(n_scenes):
        proposals, _ = gen_scene_proposals(seed * 1_000_003, sim, world, shift)
        for state in _stepped_states(world, proposals):
            adapted = apply_adapter(proposals.features, state.phi)
            z = prompt_scores(adapted, pool, state.delta)
            dense = image_prompt_compat(z)
            compat = prompt_compat(adapted, pool, state.delta)
            assert np.max(np.abs(compat - dense)) <= 1e-12
            sel = select_prompts(compat, CFG.rho)
            np.testing.assert_array_equal(sel, select_prompts(dense, CFG.rho))
            scores = fused_scores(proposals, world.pool, state.phi, state.delta, CFG)
            np.testing.assert_array_equal(scores.selections, sel)
            np.testing.assert_array_equal(scores.pooled, aggregate_selected(z, sel))
            all_prompts = fused_scores(proposals, world.pool, state.phi, state.delta, full)
            np.testing.assert_array_equal(all_prompts.pooled, z.mean(axis=-1))


def test_lazy_prompt_tensor_matches_dense_scores():
    world, proposals, _ = _scene(seed=11)
    details = {}
    adapt_episode(proposals, world.pool, CFG, details=details)
    zero, stepped = _stepped_states(world, proposals)
    for name, state in (("pre", zero), ("post", stepped)):
        scores = details[name]
        want = prompt_scores(scores.adapted, world.pool.embeddings, state.delta)
        np.testing.assert_array_equal(scores.prompts, want)
    assert not np.array_equal(details["pre"].prompts, details["post"].prompts)


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_episode_scores_only_the_selected_prompts(monkeypatch, sim):
    # both passes together score 2 * N * K * n_sel cosines; the (N, K, T)
    # tensor over the whole bank is built only when every prompt is selected,
    # and a zero-step episode (prompt_average has lr = 0) scores it once
    cosines = []
    real = vlodtta.scoring.prompt_scores

    def counting(*a, **k):
        out = real(*a, **k)
        cosines.append(out.size)
        return out

    monkeypatch.setattr(vlodtta.scoring, "prompt_scores", counting)
    world, proposals, _ = _scene(seed=12, sim=sim)
    n, k, t = proposals.n, world.pool.num_classes, world.pool.pool_size
    adapt_episode(proposals, world.pool, CFG)
    assert sum(cosines) == 2 * n * k * math.ceil(CFG.rho * t) < 2 * n * k * t
    cosines.clear()
    run_baseline("entropy_adapter", proposals, world.pool, CFG)
    assert sum(cosines) == 2 * n * k * math.ceil(CFG.rho * t)
    cosines.clear()
    run_baseline("prompt_average", proposals, world.pool, CFG)
    assert sum(cosines) == n * k * t


def test_zero_step_episode_reuses_the_pre_pass():
    world, proposals, _ = _scene(seed=4)
    details = {}
    _, frozen = adapt_episode(proposals, world.pool, replace(CFG, lr=0.0), details=details)
    assert details["post"] is details["pre"]
    _, stepped = adapt_episode(proposals, world.pool, CFG, details=details)
    assert details["post"] is not details["pre"]
    # the objective and its gradient come before the step, so they are still
    # computed, and do not depend on the step size
    assert frozen.loss == stepped.loss > 0.0
    assert frozen.grad_norms == stepped.grad_norms and frozen.grad_norms["w_up"] > 0.0


def test_post_pass_reuses_frozen_selection():
    world, proposals, _ = _scene(seed=6)
    details = {}
    adapt_episode(proposals, world.pool, CFG, details=details)
    np.testing.assert_array_equal(details["pre"].selections, details["post"].selections)


def test_empty_proposals_no_update():
    world, proposals, _ = _scene()
    empty = ProposalSet(
        boxes=np.zeros((0, 4)),
        features=np.zeros((0, proposals.d)),
        class_embeddings=proposals.class_embeddings,
    )
    dets, trace = adapt_episode(empty, world.pool, CFG)
    assert dets == []
    assert trace.loss == 0.0
    assert trace.cluster_count == 0


def test_single_step_descends_for_small_enough_lr():
    # plain GD on a smooth objective must descend once the step is small;
    # allow halving from the default a bounded number of times
    world, proposals, _ = _scene(seed=7)
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    pre = fused_scores(proposals, world.pool, state.phi, state.delta, CFG)
    kept = np.asarray(vlodtta.geometry.top_m_filter(pre.fused, CFG.top_m), dtype=int)
    classes = vlodtta.cluster.predicted_classes(pre.fused[kept])
    assignment = vlodtta.cluster.build_class_graphs(proposals.boxes[kept], classes, CFG.theta)
    weights = vlodtta.cluster.cluster_weights(assignment, CFG.gamma)
    constants = ObjectiveConstants(
        weights=weights, selections=pre.selections, kept=kept, lam=CFG.lam, kappa=CFG.kappa
    )
    loss0, saved = forward_objective(proposals, world.pool, state, constants)
    grads = backward(saved)
    lr = CFG.lr
    for _ in range(20):
        trial = AdaptState.zero_init(proposals.d, CFG.reduction)
        trial.step(grads, lr)
        loss1, _ = forward_objective(proposals, world.pool, trial, constants)
        if loss1 < loss0:
            return
        lr *= 0.5
    pytest.fail(f"no descent found down to lr={lr}")


def test_config_validation():
    bad = [
        {"gamma": -0.1}, {"theta": 1.5}, {"rho": 0.0}, {"rho": 1.2},
        {"lam": -0.2}, {"lam": 1.01}, {"top_m": 0}, {"kappa": 0.0},
        {"lr": -1e-3}, {"nms_iou": 2.0}, {"score_thresh": -0.5}, {"reduction": 0},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            EpisodeConfig(**kwargs).validate()
    EpisodeConfig().validate()


def test_incompatible_reduction_raises():
    world, proposals, _ = _scene()
    cfg = EpisodeConfig(reduction=5)  # 32 % 5 != 0
    with pytest.raises(ValueError):
        adapt_episode(proposals, world.pool, cfg)


# -- baselines ---------------------------------------------------------------- #

def test_zero_shot_matches_manual_pipeline():
    world, proposals, _ = _scene(seed=8)
    dets = run_baseline("zero_shot", proposals, world.pool, CFG)
    base = vlodtta.scoring.detector_scores(proposals.features, proposals.class_embeddings)
    expected = _predict_with_public_api(base, proposals.boxes, CFG)
    assert dets == expected


def test_prompt_average_uses_all_prompts():
    world, proposals, _ = _scene(seed=9)
    dets = run_baseline("prompt_average", proposals, world.pool, CFG)
    z = vlodtta.scoring.prompt_scores(
        proposals.features, world.pool.embeddings, np.zeros(proposals.d)
    )
    base = vlodtta.scoring.detector_scores(proposals.features, proposals.class_embeddings)
    fused = vlodtta.scoring.fuse(z.mean(axis=-1), base, CFG.lam)
    expected = _predict_with_public_api(fused, proposals.boxes, CFG)
    assert dets == expected


def test_entropy_adapter_differs_from_zero_shot_by_step_only():
    world, proposals, _ = _scene(seed=10)
    dets = run_baseline("entropy_adapter", proposals, world.pool, CFG)
    cfg = EpisodeConfig(gamma=0.0, lam=0.0)
    expected, _ = adapt_episode(proposals, world.pool, cfg)
    assert dets == expected


def test_unknown_baseline_rejected():
    world, proposals, _ = _scene()
    with pytest.raises(ValueError):
        run_baseline("oracle", proposals, world.pool, CFG)
