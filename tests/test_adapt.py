"""Episode-loop contract tests: zero-init transparency, untouched parameters,
frozen constants, lr=0 bit-identity, baselines, and single-step descent."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NearZeroRow,
    aggregate_selected,
    image_prompt_compat,
    normalize_rows,
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
    params = AdapterParams(w_down, b_down, w_up, b_up)
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
        AdapterParams(np.zeros((4, 2)), np.zeros(3), np.zeros((2, 4)), np.zeros(4))
    with pytest.raises(ValueError):
        AdapterParams.zero_init(30, 16)


def test_zero_init_is_seed_deterministic():
    a = AdapterParams.zero_init(32, 16, seed=0)
    b = AdapterParams.zero_init(32, 16, seed=0)
    c = AdapterParams.zero_init(32, 16, seed=1)
    np.testing.assert_array_equal(a.w_down, b.w_down)
    assert not np.array_equal(a.w_down, c.w_down)


def _state_bytes(state):
    """Every tensor of an AdaptState as bytes, for bitwise comparison."""
    tensors = {name: getattr(state.phi, name) for name in ("w_down", "b_down", "w_up", "b_up")}
    return {name: a.tobytes() for name, a in {**tensors, "delta": state.delta}.items()}


def test_state_stepped_returns_new_parameters():
    state = AdaptState.zero_init(8, reduction=2)
    before = _state_bytes(state)
    ones = Gradients(
        w_down=np.ones((8, 4)), b_down=np.ones(4),
        w_up=np.ones((4, 8)), b_up=np.ones(8), delta=np.ones(8),
    )
    stepped = state.stepped(ones, lr=0.5)
    np.testing.assert_array_equal(stepped.phi.w_down, state.phi.w_down - 0.5)
    np.testing.assert_array_equal(stepped.phi.b_down, -0.5 * np.ones(4))
    np.testing.assert_array_equal(stepped.phi.w_up, -0.5 * np.ones((4, 8)))
    np.testing.assert_array_equal(stepped.phi.b_up, -0.5 * np.ones(8))
    np.testing.assert_array_equal(stepped.delta, -0.5 * np.ones(8))
    assert _state_bytes(state) == before


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


def test_failed_episode_leaves_the_passed_state_unchanged(monkeypatch):
    # prediction runs after the step: an episode that raises there must not
    # leave the caller's parameters stepped
    def failing(*a, **k):
        raise RuntimeError("injected nms failure")

    world, proposals, _ = _scene()
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    snapshot = _state_bytes(state)
    monkeypatch.setattr(vlodtta.geometry, "nms", failing)
    with pytest.raises(RuntimeError, match="injected"):
        adapt_episode(proposals, world.pool, CFG, state=state)
    assert _state_bytes(state) == snapshot


@st.composite
def _small_scenes(draw):
    """A small random world with two of its scenes and an episode config."""
    sim = SimConfig(
        d=draw(st.sampled_from([8, 16, 32])),
        num_classes=draw(st.integers(2, 6)),
        pool_size=draw(st.integers(1, 6)),
        objects_min=1,
        objects_max=draw(st.integers(1, 4)),
        proposals_min=1,
        proposals_max=draw(st.integers(1, 12)),
        background=draw(st.integers(0, 20)),
        distractor_prob=draw(st.sampled_from([0.0, 0.5])),
    )
    shift = ShiftSpec(magnitude=draw(st.sampled_from([0.0, 0.5])))
    world = gen_world(draw(st.integers(0, 2**16)), sim, shift)
    scene_a, scene_b = (
        gen_scene_proposals(draw(st.integers(0, 2**16)), sim, world, shift)[0] for _ in range(2)
    )
    cfg = EpisodeConfig(
        reduction=draw(st.sampled_from([2, 4])),
        top_m=draw(st.integers(1, 80)),
        lr=draw(st.sampled_from([CFG.lr, 0.1])),
    )
    return world, scene_a, scene_b, cfg, draw(st.integers(0, 3))


@given(_small_scenes())
@settings(max_examples=25, deadline=None)
def test_episode_contract_on_random_scenes(case):
    world, scene_a, scene_b, cfg, init_seed = case
    k = world.pool.num_classes
    fresh = AdaptState.zero_init(scene_b.d, cfg.reduction, seed=init_seed)
    alone = adapt_episode(scene_b, world.pool, cfg, state=fresh)
    state = AdaptState.zero_init(scene_b.d, cfg.reduction, seed=init_seed)
    snapshot = _state_bytes(state)
    for proposals in (scene_a, scene_b):
        dets, trace = adapt_episode(proposals, world.pool, cfg, state=state)
        rows = {tuple(row) for row in proposals.boxes.tolist()}
        for det in dets:
            assert (det.box.x1, det.box.y1, det.box.x2, det.box.y2) in rows
            assert math.isfinite(det.score)
            assert 0 <= det.class_id < k
        assert math.isfinite(trace.loss)
        assert _state_bytes(state) == snapshot
    # scene B after scene A, through the same state object, as B alone
    assert (dets, trace) == alone


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
    zero = AdaptState.zero_init(proposals.d, CFG.reduction)
    return zero, zero.stepped(details["grads"], CFG.lr)


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
            compat = prompt_compat(normalize_rows(adapted), pool, state.delta)
            assert np.max(np.abs(compat - dense)) <= 1e-12
            sel = select_prompts(compat, CFG.rho)
            np.testing.assert_array_equal(sel, select_prompts(dense, CFG.rho))
            scores = fused_scores(proposals, world.pool, state.phi, state.delta, CFG)
            np.testing.assert_array_equal(scores.selections, sel)
            # pooled is one cosine against each class's mean unit prompt, so
            # it matches the mean of the dense scores up to rounding
            assert np.max(np.abs(scores.pooled - aggregate_selected(z, sel))) <= 1e-12
            all_prompts = fused_scores(proposals, world.pool, state.phi, state.delta, full)
            assert np.max(np.abs(all_prompts.pooled - z.mean(axis=-1))) <= 1e-12


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
    # a stepped episode runs the fused-score forward twice (pre and post
    # pass; the objective reads the pre pass), a zero-step episode
    # (prompt_average has lr = 0) once; each pass multiplies the unit
    # features by K mean prompt directions and by K class directions, so
    # it does 2 * N * K products whatever the number of selected prompts
    sizes = []

    class CountedRows(np.ndarray):
        """Unit rows that record the output size of each matrix product they enter."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            if ufunc is np.matmul:
                sizes.append(out.size)
            return out

    real_unit_rows = vlodtta.scoring.unit_rows

    def counted_unit_rows(m):
        unit, norms = real_unit_rows(m)
        return unit.view(CountedRows), norms

    passes = []
    real = vlodtta.grad.forward

    def counting(*a, **k):
        start = len(sizes)
        out = real(*a, **k)
        passes.append(sum(sizes[start:]))
        return out

    monkeypatch.setattr(vlodtta.scoring, "unit_rows", counted_unit_rows)
    monkeypatch.setattr(vlodtta.grad, "forward", counting)
    world, proposals, _ = _scene(seed=12, sim=sim)
    n, k = proposals.n, world.pool.num_classes
    adapt_episode(proposals, world.pool, CFG)
    assert passes == [2 * n * k] * 2
    passes.clear()
    run_baseline("entropy_adapter", proposals, world.pool, CFG)
    assert passes == [2 * n * k] * 2
    passes.clear()
    run_baseline("prompt_average", proposals, world.pool, CFG)
    assert passes == [2 * n * k]


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_episode_objective_matches_forward_objective(sim):
    # the episode takes its loss and gradient from the pre pass, while
    # forward_objective runs a forward of its own over the same constants
    world, proposals, _ = _scene(seed=13, sim=sim)
    details = {}
    _, trace = adapt_episode(proposals, world.pool, CFG, details=details)
    constants = ObjectiveConstants(
        weights=details["weights"], selections=details["pre"].selections,
        kept=details["kept"], lam=CFG.lam, kappa=CFG.kappa,
    )
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    loss, saved = forward_objective(proposals, world.pool, state, constants)
    assert abs(trace.loss - loss) <= 1e-15
    want = backward(saved)
    for name in ("w_down", "b_down", "w_up", "b_up", "delta"):
        got, ref = getattr(details["grads"], name), getattr(want, name)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_a_delta_that_cancels_a_prompt_names_its_class_and_prompt():
    world, proposals, _ = _scene(seed=14)
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    pre = fused_scores(proposals, world.pool, state.phi, state.delta, CFG)
    k = 2
    for t in pre.selections[k].tolist():
        delta = -world.pool.embeddings[k, t]
        message = rf"^class {k} prompt {t} plus delta has norm"
        # a pass that selects finds it while scoring the whole bank's compatibility
        with pytest.raises(NearZeroRow, match=message):
            fused_scores(proposals, world.pool, state.phi, delta, CFG)
        # a pass with frozen selections finds it among the selected prompts,
        # whatever order the selection lists them in
        for sel in (pre.selections, pre.selections[:, ::-1]):
            with pytest.raises(NearZeroRow, match=message):
                fused_scores(proposals, world.pool, state.phi, delta, CFG, selections=sel)


@pytest.mark.parametrize("sim,seeds", [(SimConfig(), (0, 1, 2)), (COCO_SIM, (0,))], ids=["desk", "coco"])
def test_zero_step_detections_ignore_power_of_two_feature_scaling(sim, seeds):
    # cosine scores do not see a feature row's length; a power-of-two
    # factor scales a row, its norm and the zero-init adapter's output
    # exactly, so the unit rows keep their bits and no NMS tie can flip
    for seed in seeds:
        world, proposals, _ = _scene(seed=seed, sim=sim)
        for kind in ("zero_shot", "prompt_average"):
            want = run_baseline(kind, proposals, world.pool, CFG)
            for factor in (0.5, 2.0, 1024.0, 2.0 ** -20):
                scaled = replace(proposals, features=proposals.features * factor)
                assert run_baseline(kind, scaled, world.pool, CFG) == want, (kind, factor)


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
        loss1, _ = forward_objective(proposals, world.pool, state.stepped(grads, lr), constants)
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
    # the mean over every prompt, as a cosine against each class's mean unit prompt
    mean_dirs = normalize_rows(world.pool.embeddings).mean(axis=1)
    pooled = normalize_rows(proposals.features) @ mean_dirs.T
    assert np.max(np.abs(pooled - z.mean(axis=-1))) <= 1e-12
    base = vlodtta.scoring.detector_scores(proposals.features, proposals.class_embeddings)
    fused = vlodtta.scoring.fuse(pooled, base, CFG.lam)
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
