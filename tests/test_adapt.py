"""Episode-loop contract tests: zero-init transparency, untouched parameters,
frozen constants, lr=0 bit-identity, baselines, and single-step descent."""

from __future__ import annotations

import json
import math
import pickle
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlodtta.adapt
import vlodtta.cli
import vlodtta.cluster
import vlodtta.geometry
import vlodtta.grad
import vlodtta.scoring
from vlodtta.adapt import (
    AdapterParams,
    AdaptState,
    EpisodeConfig,
    SceneWork,
    adapt_episode,
    adapter_param_count,
    apply_adapter,
    baseline_config,
    fused_scores,
    run_baseline,
)
from vlodtta.checks import nms_detections, reference_components, reference_nms
from vlodtta.data import PromptPool, ProposalSet
from vlodtta.evaluation import evaluate
from vlodtta.grad import Gradients, ObjectiveConstants, backward, forward_objective
from vlodtta.scoring import (
    NearZeroRow,
    aggregate_selected,
    normalize_rows,
    posterior,
    prompt_compat,
    prompt_scores,
    select_prompts,
)
from vlodtta.sim import SEED_SCALE, ShiftSpec, SimConfig, gen_scene_proposals, gen_world, make_suite

CFG = EpisodeConfig()
COCO_SIM = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)


def _scene(seed=0, magnitude=0.5, sim=SimConfig()):
    shift = ShiftSpec(magnitude=magnitude)
    world = gen_world(seed, sim, shift)
    proposals, gts = gen_scene_proposals(seed * SEED_SCALE, world)
    return world, proposals, gts


def _fresh_selection(proposals, pool, rho):
    """The prompts an episode scores: each class's ceil(rho * T) best fits to the image's unit rows."""
    return select_prompts(prompt_compat(normalize_rows(proposals.features).mean(axis=0), pool.embeddings), rho)


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
    a = AdapterParams.zero_init(32, 16)
    b = AdapterParams.zero_init(32, 16)
    assert a is not b
    for name in ("w_down", "b_down", "w_up", "b_up"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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
    fresh = vlodtta.adapt._fresh_state(proposals.d, CFG.reduction)
    before = _state_bytes(fresh)
    assert before == _state_bytes(AdaptState.zero_init(proposals.d, CFG.reduction))
    _, trace = adapt_episode(proposals, world.pool, CFG)
    assert any(v > 0 for v in trace.to_dict()["grad_norms"].values())  # a step really happened
    assert _state_bytes(fresh) == before


def test_failed_episode_leaves_the_passed_state_unchanged(monkeypatch):
    # prediction runs after the step: an episode that raises there must not
    # leave the parameters every episode starts from stepped
    def failing(*a, **k):
        raise RuntimeError("injected nms failure")

    world, proposals, _ = _scene()
    fresh = vlodtta.adapt._fresh_state(proposals.d, CFG.reduction)
    snapshot = _state_bytes(fresh)
    monkeypatch.setattr(vlodtta.geometry, "nms", failing)
    with pytest.raises(RuntimeError, match="injected"):
        adapt_episode(proposals, world.pool, CFG)
    assert _state_bytes(fresh) == snapshot


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
        gen_scene_proposals(draw(st.integers(0, 2**16)), world)[0] for _ in range(2)
    )
    cfg = EpisodeConfig(
        reduction=draw(st.sampled_from([2, 4])),
        top_m=draw(st.integers(1, 80)),
        lr=draw(st.sampled_from([0.0, CFG.lr, 0.1])),
    )
    return world, scene_a, scene_b, cfg


@given(_small_scenes())
@settings(max_examples=25, deadline=None)
def test_episode_contract_on_random_scenes(case):
    world, scene_a, scene_b, cfg = case
    k = world.pool.num_classes
    alone = adapt_episode(scene_b, world.pool, cfg)
    fresh = vlodtta.adapt._fresh_state(scene_b.d, cfg.reduction)
    snapshot = _state_bytes(fresh)
    for proposals in (scene_a, scene_b):
        dets, trace = adapt_episode(proposals, world.pool, cfg)
        rows = {tuple(row) for row in proposals.boxes.tolist()}
        for det in dets:
            assert (det.box.x1, det.box.y1, det.box.x2, det.box.y2) in rows
            assert math.isfinite(det.score)
            assert 0 <= det.class_id < k
        assert math.isfinite(trace.loss)
        assert _state_bytes(fresh) == snapshot
    # scene B after scene A as B alone
    assert (dets, trace) == alone


# any correct episode is blind to the order of the proposal rows, the class
# ids and the order of each class's prompts: reordering them leaves the
# detections as they are, up to the relabelling. Each property runs at the
# default config and the limit configs of acceptance criterion 3.
LIMIT_CFGS = (CFG, replace(CFG, gamma=0.0), replace(CFG, theta=0.0), replace(CFG, lam=0.0), replace(CFG, rho=1.0))


@st.composite
def _symmetry_cases(draw):
    """A small scene with a permutation of its rows, of its classes, and of each class's prompts."""
    sim = SimConfig(
        d=draw(st.sampled_from([16, 32, 64])),  # the default reduction, 16, divides each
        num_classes=draw(st.integers(2, 6)),
        pool_size=draw(st.integers(1, 8)),
        objects_min=1,
        objects_max=draw(st.integers(1, 5)),
        proposals_min=1,
        proposals_max=draw(st.integers(1, 20)),
        background=draw(st.integers(0, 30)),
    )
    world = gen_world(draw(st.integers(0, 2**16)), sim, ShiftSpec(magnitude=draw(st.sampled_from([0.0, 0.5]))))
    proposals, _ = gen_scene_proposals(draw(st.integers(0, 2**16)), world)
    rows = np.array(draw(st.permutations(range(proposals.n))), dtype=int)
    classes = np.array(draw(st.permutations(range(sim.num_classes))), dtype=int)
    prompts = np.array([draw(st.permutations(range(sim.pool_size))) for _ in range(sim.num_classes)], dtype=int)
    return world.pool, proposals, rows, classes, prompts


def _detection_set(dets, class_of=None):
    """Detections as a set of (box, class, score) at 9 decimals; class_of maps each class id first."""
    classes = dets.classes if class_of is None else class_of[dets.classes]
    return {
        (tuple(np.round(box, 9).tolist()), int(c), round(score, 9))
        for box, c, score in zip(dets.boxes, classes, dets.scores.tolist())
    }


@given(_symmetry_cases())
@settings(max_examples=25, deadline=None)
def test_permuting_proposal_rows_keeps_the_detections(case):
    pool, proposals, rows, _, _ = case
    permuted = replace(proposals, boxes=proposals.boxes[rows], features=proposals.features[rows])
    for cfg in LIMIT_CFGS:
        want = _detection_set(adapt_episode(proposals, pool, cfg)[0])
        assert _detection_set(adapt_episode(permuted, pool, cfg)[0]) == want, cfg


@given(_symmetry_cases())
@settings(max_examples=25, deadline=None)
def test_relabelling_classes_relabels_the_detections(case):
    pool, proposals, _, classes, _ = case
    relabelled = replace(proposals, class_embeddings=proposals.class_embeddings[classes])
    relabelled_pool = PromptPool(pool.embeddings[classes])
    for cfg in LIMIT_CFGS:
        want = _detection_set(adapt_episode(proposals, pool, cfg)[0])
        # new class i is old class classes[i]
        assert _detection_set(adapt_episode(relabelled, relabelled_pool, cfg)[0], classes) == want, cfg


@given(_symmetry_cases())
@settings(max_examples=25, deadline=None)
def test_permuting_each_class_prompts_keeps_the_detections(case):
    pool, proposals, _, _, prompts = case
    shuffled = PromptPool(np.take_along_axis(pool.embeddings, prompts[:, :, None], axis=1))
    for cfg in LIMIT_CFGS:
        want = _detection_set(adapt_episode(proposals, pool, cfg)[0])
        assert _detection_set(adapt_episode(proposals, shuffled, cfg)[0]) == want, cfg


_OFFSETS = st.floats(-1e4, 1e4, allow_nan=False)


@given(_symmetry_cases(), _OFFSETS, _OFFSETS)
@settings(max_examples=25, deadline=None)
def test_translating_every_box_translates_the_detections(case, dx, dy):
    # clustering and NMS read the boxes only through IoUs, which a uniform
    # translation keeps up to rounding; a pair at exactly theta or nms_iou
    # could flip, and would show here
    pool, proposals, _, _, _ = case
    offset = np.array([dx, dy, dx, dy])
    moved = replace(proposals, boxes=proposals.boxes + offset)
    for cfg in LIMIT_CFGS:
        dets = adapt_episode(proposals, pool, cfg)[0]
        want = _detection_set(replace(dets, boxes=dets.boxes + offset))
        assert _detection_set(adapt_episode(moved, pool, cfg)[0]) == want, cfg


def test_lr_zero_episode_is_bit_identical_to_no_adaptation():
    world, proposals, _ = _scene(seed=1)
    cfg = EpisodeConfig(lr=0.0)
    dets, trace = adapt_episode(proposals, world.pool, cfg)
    state = AdaptState.zero_init(proposals.d, cfg.reduction)
    sel = _fresh_selection(proposals, world.pool, cfg.rho)
    pre = fused_scores(proposals, world.pool, state.phi, state.delta, cfg, sel)
    expected = _predict_with_public_api(pre.fused, proposals.boxes, cfg)
    assert dets == expected
    dump = trace.to_dict()
    assert dump["post_fused"] == dump["pre_fused"]


def test_episode_is_deterministic():
    world, proposals, _ = _scene(seed=2)
    dets_a, trace_a = adapt_episode(proposals, world.pool, CFG)
    dets_b, trace_b = adapt_episode(proposals, world.pool, CFG)
    assert dets_a == dets_b
    assert trace_a == trace_b  # loss, gradient norms, selections, both score arrays and the clusters


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


@pytest.mark.parametrize(
    "method, calls",
    [("zero_shot", 0), ("prompt_average", 0), ("lr_zero", 0), ("entropy_adapter", 1), ("full", 1)],
)
def test_zero_step_episodes_stop_after_scoring(monkeypatch, method, calls):
    # a zero-step episode needs the pre pass, the score threshold and NMS
    # only: it never filters, clusters or differentiates. At gamma = 0
    # (entropy_adapter) every weight is 1, so the step builds no graph either
    counts = {}
    for module, name in (
        (vlodtta.geometry, "top_m_filter"),
        (vlodtta.cluster, "build_class_graphs"),
        (vlodtta.grad, "objective"),
        (vlodtta.grad, "backward"),
    ):
        def counting(*a, _real=getattr(module, name), _name=name, **k):
            counts[_name] += 1
            return _real(*a, **k)

        counts[name] = 0
        monkeypatch.setattr(module, name, counting)
    world, proposals, _ = _scene(seed=11)
    if method == "lr_zero":
        adapt_episode(proposals, world.pool, replace(CFG, lr=0.0))
    elif method == "full":
        adapt_episode(proposals, world.pool, CFG)
    else:
        run_baseline(method, proposals, world.pool, CFG)
    assert counts == {**dict.fromkeys(counts, calls), "build_class_graphs": calls if method == "full" else 0}


def test_a_gamma_zero_trace_builds_the_graph_once_when_read(monkeypatch):
    built = []
    real = vlodtta.cluster.build_class_graphs

    def counting(*a, **k):
        built.append(real(*a, **k))
        return built[-1]

    monkeypatch.setattr(vlodtta.cluster, "build_class_graphs", counting)
    world, proposals, _ = _scene(seed=11)
    cfg = baseline_config("entropy_adapter", CFG)
    _, read = adapt_episode(proposals, world.pool, cfg)
    read.components
    assert len(built) == 1 and read.assignment is built[0]  # one graph for both cluster fields
    built.clear()
    _, trace = adapt_episode(proposals, world.pool, cfg)
    assert built == []
    clusters = trace.to_dict()["clusters"]
    assert len(built) == 1
    assert trace.to_dict()["clusters"] == clusters and len(built) == 1
    kept = trace.kept
    want = real(proposals.boxes[kept], vlodtta.cluster.predicted_classes(trace.pre.fused[kept]), cfg.theta)
    roots = np.unique(want.component_id)
    assert sorted(row["size"] for row in clusters) == sorted(want.component_size[roots].tolist())
    assert trace == read


def test_trace_fields_are_computed_on_read(monkeypatch):
    # gradient norms are computed only by `to_dict`, and the overlap graph of
    # a gamma = 0 episode only by a cluster read: a caller that drops the
    # trace pays for neither
    reads, built, traces = [], [], []
    real_to_dict, real_graphs = vlodtta.adapt.EpisodeTrace.to_dict, vlodtta.cluster.build_class_graphs
    monkeypatch.setattr(vlodtta.adapt.EpisodeTrace, "to_dict", lambda self: reads.append(self) or real_to_dict(self))
    monkeypatch.setattr(vlodtta.cluster, "build_class_graphs", lambda *a, **k: built.append(a) or real_graphs(*a, **k))
    world, proposals, _ = _scene(seed=5)
    _, trace = adapt_episode(proposals, world.pool, baseline_config("entropy_adapter", CFG))
    assert reads == [] and built == [] and trace.grads is not None
    assert set(trace.to_dict()["grad_norms"]) == {"w_down", "b_down", "w_up", "b_up", "delta"}
    assert len(built) == 1  # the dump's clusters
    reads.clear()
    built.clear()

    def keeping(*a, **k):
        traces.append(adapt_episode(*a, **k)[1])
        return traces[-1].detections, traces[-1]

    monkeypatch.setattr(vlodtta.cli, "adapt_episode", keeping)
    suite = make_suite(2, 3, SimConfig(), ShiftSpec(magnitude=0.5))
    cfgs = [CFG, *(baseline_config(kind, CFG) for kind in ("zero_shot", "entropy_adapter", "prompt_average"))]
    reports = vlodtta.cli._suite_reports(cfgs, suite, measure_time=False)
    assert len(reports) == 4 and len(traces) == 4 * len(suite.scenes) and reads == []
    # one graph per full-method episode, for its weights; none for a cluster read
    assert len(built) == len(suite.scenes)
    assert not any("components" in vars(t) for t in traces)


@pytest.mark.parametrize("kind", ["full", "entropy_adapter", "zero_shot", "empty"])
def test_traces_survive_a_pickle_round_trip_without_building_a_graph(kind, monkeypatch):
    built = []
    real = vlodtta.cluster.build_class_graphs
    monkeypatch.setattr(vlodtta.cluster, "build_class_graphs", lambda *a, **k: built.append(a) or real(*a, **k))
    world, proposals, _ = _scene(seed=11)
    if kind == "empty":
        proposals = ProposalSet(
            boxes=np.zeros((0, 4)), features=np.zeros((0, proposals.d)), class_embeddings=proposals.class_embeddings
        )
    _, trace = adapt_episode(proposals, world.pool, CFG if kind in ("full", "empty") else baseline_config(kind, CFG))
    episode = len(built)
    copy = pickle.loads(pickle.dumps(trace))
    assert len(built) == episode  # pickling neither builds nor drops a graph
    assert copy == trace  # compares by to_dict, which reads every cluster field
    # each side builds at most one graph in all: the episode's, or its first cluster read's
    assert len(built) == {"full": 1, "entropy_adapter": 2}.get(kind, 0)


def test_episode_trace_contents():
    world, proposals, _ = _scene(seed=4)
    dets, trace = adapt_episode(proposals, world.pool, CFG)
    k, t = world.pool.num_classes, world.pool.pool_size
    dump = trace.to_dict()
    assert dump["selections"] == trace.pre.selections.tolist() and len(dump["selections"]) == k
    assert all(len(row) == math.ceil(CFG.rho * t) for row in dump["selections"])
    assert dump["clusters"] == trace.components and sum(row["size"] for row in dump["clusters"]) == trace.kept.size
    assert dump["pre_fused"] == trace.pre.fused.tolist() and dump["post_fused"] == trace.post.fused.tolist()
    assert len(dump["detections"]) == len(trace.detections) == len(dets)
    json.dumps(dump)  # must be wire-ready


def test_episode_detections_are_one_record_and_dump_as_their_objects():
    world, proposals, _ = _scene(seed=4)
    dets, trace = adapt_episode(proposals, world.pool, CFG)
    assert isinstance(dets, vlodtta.geometry.Detections) and not isinstance(dets, tuple)
    assert trace.detections is dets
    want = [
        {"box": [d.box.x1, d.box.y1, d.box.x2, d.box.y2], "class_id": d.class_id, "score": d.score}
        for d in dets
    ]
    # json.dumps writes floats by repr and rejects NumPy scalars
    assert json.dumps(trace.to_dict()["detections"]) == json.dumps(want)
    assert isinstance(run_baseline("zero_shot", proposals, world.pool, CFG), vlodtta.geometry.Detections)


def test_evaluate_on_episode_records_matches_their_lists():
    suite = make_suite(0, 5, SimConfig(), ShiftSpec(magnitude=0.5))
    records = [adapt_episode(p, suite.world.pool, CFG)[0] for p, _ in suite.scenes]
    gts = [list(g) for _, g in suite.scenes]
    got, want = evaluate(records, gts), evaluate([list(r) for r in records], gts)
    assert got.mean_ap.hex() == want.mean_ap.hex()
    assert {k: v.hex() for k, v in got.per_class.items()} == {k: v.hex() for k, v in want.per_class.items()}


def test_default_state_is_drawn_once_and_read_only():
    world, proposals, _ = _scene(seed=12)
    state = vlodtta.adapt._fresh_state(proposals.d, CFG.reduction)
    assert vlodtta.adapt._fresh_state(proposals.d, CFG.reduction) is state
    want = AdaptState.zero_init(proposals.d, CFG.reduction)
    pairs = [(getattr(state.phi, name), getattr(want.phi, name)) for name in ("w_down", "b_down", "w_up", "b_up")]
    for got, ref in pairs + [(state.delta, want.delta)]:
        assert not got.flags.writeable
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        state.phi.w_down[0, 0] = 1.0
    # every episode starts from it, stepped or not
    for cfg in (CFG, replace(CFG, lr=0.0)):
        _, trace = adapt_episode(proposals, world.pool, cfg)
        assert trace.pre.phi is state.phi
        assert trace.pre.delta.tobytes() == state.delta.tobytes()


def test_episode_trace_holds_every_intermediate():
    world, proposals, _ = _scene(seed=5)
    _, trace = adapt_episode(proposals, world.pool, CFG)
    for name in ("pre", "post", "kept", "assignment", "weights", "grads", "components"):
        assert getattr(trace, name) is not None, name
    assert trace.pre.fused.shape == (proposals.n, world.pool.num_classes)
    assert trace.weights.shape == trace.kept.shape
    sizes = [row["size"] for row in trace.components]
    assert sizes == sorted(sizes, reverse=True)
    assert all(set(row) == {"class_id", "size", "max_score"} for row in trace.components)


def test_coco_scale_components_and_nms_match_references():
    # 80 classes, and top_m cuts the proposals to 600: clustering and NMS
    # at the scale where most proposal pairs differ in class
    world, proposals, _ = _scene(sim=COCO_SIM)
    dets, trace = adapt_episode(proposals, world.pool, CFG)
    kept, assignment = trace.kept, trace.assignment
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

    probs = posterior(trace.post.fused, CFG.kappa)
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
    _, trace = adapt_episode(proposals, world.pool, CFG)
    zero = AdaptState.zero_init(proposals.d, CFG.reduction)
    return zero, zero.stepped(trace.grads, CFG.lr)


@pytest.mark.parametrize("sim,n_scenes", [(SimConfig(), 20), (COCO_SIM, 10)], ids=["desk", "coco"])
def test_compat_and_selected_scoring_match_the_dense_tensor(sim, n_scenes):
    shift = ShiftSpec(magnitude=0.5)
    world = gen_world(0, sim, shift)
    pool = world.pool.embeddings
    full = EpisodeConfig(rho=1.0)
    for seed in range(n_scenes):
        proposals, _ = gen_scene_proposals(seed * SEED_SCALE, world)
        zero, stepped = _stepped_states(world, proposals)
        for state in (zero, stepped):
            adapted = apply_adapter(proposals.features, state.phi)
            z = prompt_scores(adapted, pool, state.delta)
            dense = z.mean(axis=0)
            sel = select_prompts(dense, CFG.rho)
            if state is zero:  # the episode selects at the fresh adapter, from the mean unit row
                compat = prompt_compat(normalize_rows(adapted).mean(axis=0), pool)
                assert np.max(np.abs(compat - dense)) <= 1e-12
                np.testing.assert_array_equal(select_prompts(compat, CFG.rho), sel)
                np.testing.assert_array_equal(adapt_episode(proposals, world.pool, CFG)[1].pre.selections, sel)
            scores = fused_scores(proposals, world.pool, state.phi, state.delta, CFG, sel)
            # pooled is one cosine against each class's mean unit prompt, so
            # it matches the mean of the dense scores up to rounding
            assert np.max(np.abs(scores.pooled - aggregate_selected(z, sel))) <= 1e-12
            every = select_prompts(dense, 1.0)
            all_prompts = fused_scores(proposals, world.pool, state.phi, state.delta, full, every)
            assert np.max(np.abs(all_prompts.pooled - z.mean(axis=-1))) <= 1e-12


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_episode_scores_only_the_selected_prompts(monkeypatch, sim):
    # a stepped episode runs the fused-score forward twice (pre and post
    # pass; the objective reads the pre pass), a zero-step episode
    # (prompt_average has lr = 0) once. Every product taken with the (N, d)
    # features is recorded by its output size. Outside the passes the
    # episode takes one, the mean unit row for the selection (d). From a
    # fresh adapter the pre pass takes the down-projection (N * h) and the
    # class and mean prompt directions (N * K each);
    # the post pass keeps the first and the class products and adds the
    # up-projection [W_up; b_up] (N * (h + 1)); the backward takes one
    # product with a row matrix of K + h + 1 columns. None of this depends
    # on rho, and nothing of size N * K * n_sel or N * K * T appears.
    sizes = []

    class CountedRows(np.ndarray):
        """Features that record the output size of each matrix product they enter."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            if ufunc is np.matmul:
                sizes.append(out.size)
            return out

    calls = []

    def counted(name, real):
        def call(*a, **k):
            start = len(sizes)
            out = real(*a, **k)
            calls.append((name, sorted(sizes[start:])))
            return out
        return call

    monkeypatch.setattr(vlodtta.grad, "forward", counted("forward", vlodtta.grad.forward))
    monkeypatch.setattr(vlodtta.grad, "backward", counted("backward", vlodtta.grad.backward))
    world, proposals, _ = _scene(seed=12, sim=sim)
    proposals = replace(proposals, features=proposals.features.view(CountedRows))
    n, d, k = proposals.n, proposals.d, world.pool.num_classes
    h, pool_size = d // CFG.reduction, world.pool.pool_size
    pre = ("forward", sorted([n * h, n * k, n * k]))
    stepped = [pre, ("backward", [d * (k + h + 1)]), ("forward", sorted([n * (h + 1), n * k]))]

    def outside_the_passes(run):
        """The product sizes an episode takes outside `forward` and `backward`."""
        start = len(sizes)
        run()
        rest = sizes[start:]
        for size in (s for _, taken in calls for s in taken):
            rest.remove(size)
        return rest

    for rho in (CFG.rho, 0.5, 1.0):
        cfg = replace(CFG, rho=rho)
        assert outside_the_passes(lambda: adapt_episode(proposals, world.pool, cfg)) == [d], rho
        assert calls == stepped, rho
        calls.clear()
        assert outside_the_passes(lambda: run_baseline("entropy_adapter", proposals, world.pool, cfg)) == [d], rho
        assert calls == stepped, rho
        calls.clear()
        assert outside_the_passes(lambda: run_baseline("prompt_average", proposals, world.pool, cfg)) == [d], rho
        assert calls == [pre], rho
        calls.clear()
    dense = {n * k * math.ceil(rho * pool_size) for rho in (CFG.rho, 0.5)} | {n * k * pool_size}
    assert not dense & set(sizes)


def test_a_stepped_episode_allocates_less_than_one_feature_array():
    # neither scoring pass nor the backward builds an (N, d) array: on a wide
    # profile (d = 2048, h = 16) the episode's allocation peak, which its
    # O(N^2) same-class box pairs then set, stays below the features' size
    sim = SimConfig(d=2048, background=400)
    cfg = EpisodeConfig(reduction=128)
    world = gen_world(0, sim, ShiftSpec(magnitude=0.5))
    for seed in range(3):
        proposals, _ = gen_scene_proposals(seed * SEED_SCALE, world)
        adapt_episode(proposals, world.pool, cfg)  # draws the cached fresh state
        tracemalloc.start()
        try:
            _, trace = adapt_episode(proposals, world.pool, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.to_dict()["grad_norms"]["w_up"] > 0.0
        assert peak < proposals.features.nbytes, (seed, peak, proposals.features.nbytes)
        for name in ("pre", "post"):
            record = getattr(trace, name)
            shapes = {f.name: np.shape(getattr(record, f.name)) for f in fields(record)}
            wide = [name for name, shape in shapes.items() if shape == proposals.features.shape]
            assert wide == ["features"], (name, wide)


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_episode_objective_matches_forward_objective(sim):
    # the episode takes its loss and gradient from the pre pass, while
    # forward_objective runs a forward of its own over the same constants
    world, proposals, _ = _scene(seed=13, sim=sim)
    _, trace = adapt_episode(proposals, world.pool, CFG)
    constants = ObjectiveConstants(
        weights=trace.weights, selections=trace.pre.selections,
        kept=trace.kept, lam=CFG.lam, kappa=CFG.kappa,
    )
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    loss, saved = forward_objective(proposals, world.pool, state, constants)
    assert abs(trace.loss - loss) <= 1e-15
    want = backward(saved)
    for name in ("w_down", "b_down", "w_up", "b_up", "delta"):
        got, ref = getattr(trace.grads, name), getattr(want, name)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_a_delta_that_cancels_a_prompt_names_its_class_and_prompt():
    world, proposals, _ = _scene(seed=14)
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    selections = _fresh_selection(proposals, world.pool, CFG.rho)
    k = 2
    for t in selections[k].tolist():
        delta = -world.pool.embeddings[k, t]
        message = rf"^class {k} prompt {t} plus delta has norm"
        # a pass finds it among the selected prompts, whatever order the selection lists them in
        for sel in (selections, selections[:, ::-1]):
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


def test_an_episode_whose_cluster_weights_overflow_names_gamma():
    # gamma = 300 and 400 are valid configs, but component size ** gamma overflows on this
    # scene: the episode died on a RuntimeWarning, or returned a NaN loss and no detections
    world, proposals, _ = _scene(seed=0)
    for gamma in (300.0, 400.0):
        with pytest.raises(vlodtta.cluster.DegenerateWeights, match=f"gamma={gamma}"):
            adapt_episode(proposals, world.pool, replace(CFG, gamma=gamma))
    assert math.isfinite(adapt_episode(proposals, world.pool, replace(CFG, gamma=100.0))[1].loss)


def test_a_step_that_overflows_the_post_pass_names_lr():
    # from lr = 1e155 the post pass's squared norms overflow, and the rows whose scores turned
    # NaN were dropped before NMS: 29 and 17 detections at 1e155 and 1e160 against 47 at 1e150
    suite = make_suite(0, 1, SimConfig(), ShiftSpec(magnitude=0.5))
    (proposals, _), pool = suite.scenes[0], suite.world.pool
    with np.errstate(over="ignore", invalid="ignore"):
        assert len(adapt_episode(proposals, pool, replace(CFG, lr=1e150))[0]) == 47
        for lr in (1e155, 1e160):
            message = "^" + re.escape(f"lr={lr} overflows the post pass: row ")
            with pytest.raises(vlodtta.scoring.NonFiniteRow, match=message):
                adapt_episode(proposals, pool, replace(CFG, lr=lr))


def test_zero_step_episode_reuses_the_pre_pass():
    world, proposals, _ = _scene(seed=4)
    _, frozen = adapt_episode(proposals, world.pool, replace(CFG, lr=0.0))
    assert frozen.post is frozen.pre
    assert all(getattr(frozen, name) is None for name in ("kept", "assignment", "weights", "grads"))
    assert frozen.components == []
    _, stepped = adapt_episode(proposals, world.pool, CFG)
    assert stepped.post is not stepped.pre
    # a zero-size step ends after the pre pass: no objective, no gradient and
    # no clusters, reported as an empty episode reports them
    frozen_dump, stepped_dump = frozen.to_dict(), stepped.to_dict()
    assert frozen.loss == 0.0 and frozen_dump["grad_norms"] == {} and frozen_dump["clusters"] == []
    assert stepped.loss > 0.0 and stepped_dump["grad_norms"]["w_up"] > 0.0
    assert frozen_dump["selections"] == stepped_dump["selections"]
    assert frozen_dump["post_fused"] == frozen_dump["pre_fused"] == stepped_dump["pre_fused"]


def test_post_pass_reuses_frozen_selection():
    world, proposals, _ = _scene(seed=6)
    _, trace = adapt_episode(proposals, world.pool, CFG)
    np.testing.assert_array_equal(trace.pre.selections, trace.post.selections)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_post_pass_reuses_the_unchanged_down_projection(sim):
    # from a zero W_up the step gives W_down and b_down exact zero gradients,
    # so the post pass takes the pre pass's pre-GELU, hidden and class
    # directions; they must be the bits a fresh computation gives
    world, proposals, _ = _scene(seed=8, sim=sim)
    _, trace = adapt_episode(proposals, world.pool, CFG)
    pre, post = trace.pre, trace.post
    assert post.pre is pre.pre and post.hidden is pre.hidden and post.class_dirs is pre.class_dirs
    new = AdaptState.zero_init(proposals.d, CFG.reduction).stepped(trace.grads, CFG.lr)
    fresh_pre, fresh_hidden, fresh_adapted = vlodtta.grad.adapter(proposals.features, new.phi)
    assert np.array_equal(_bits(post.pre), _bits(fresh_pre))
    assert np.array_equal(_bits(post.hidden), _bits(fresh_hidden))
    assert np.array_equal(_bits(post.adapted), _bits(fresh_adapted))
    assert np.array_equal(_bits(post.class_dirs), _bits(normalize_rows(proposals.class_embeddings)))


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
    assert trace.to_dict() == {
        "loss": 0.0, "grad_norms": {}, "selections": [], "pre_fused": [], "post_fused": [], "clusters": [],
        "detections": [],
    }


def test_single_step_descends_for_small_enough_lr():
    # plain GD on a smooth objective must descend once the step is small;
    # allow halving from the default a bounded number of times
    world, proposals, _ = _scene(seed=7)
    state = AdaptState.zero_init(proposals.d, CFG.reduction)
    pre = fused_scores(proposals, world.pool, state.phi, state.delta, CFG, _fresh_selection(proposals, world.pool, CFG.rho))
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
            EpisodeConfig(**kwargs)
        with pytest.raises(ValueError):
            replace(CFG, **kwargs)
    EpisodeConfig()


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
    # the mean over every prompt, as a cosine against each class's mean unit prompt: the
    # features times the mean directions, scaled by each feature's reciprocal norm
    mean_dirs = normalize_rows(world.pool.embeddings).mean(axis=1)
    v = proposals.features
    pooled = (v @ mean_dirs.T) * (1.0 / np.sqrt(np.einsum("ij,ij->i", v, v))[:, None])
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


# -- work shared by the episodes on one image ------------------------------------ #

# the configs of `vlodtta bench`'s four methods
METHOD_CFGS = {
    "zs": baseline_config("zero_shot", CFG),
    "entropy": baseline_config("entropy_adapter", CFG),
    "pa": baseline_config("prompt_average", CFG),
    "vlodtta": CFG,
}


def _episode_bits(proposals, pool, cfg, **kwargs):
    """Everything an episode returns and scores, as comparable bits."""
    dets, trace = adapt_episode(proposals, pool, cfg, **kwargs)
    arrays = [dets.boxes, dets.scores, dets.classes, trace.pre.fused, trace.post.fused]
    return [_bits(a).tolist() if a.dtype.kind == "f" else a.tolist() for a in arrays], trace.to_dict()


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_shared_scene_work_matches_each_episode_alone(sim):
    world = gen_world(5, sim, ShiftSpec(magnitude=0.5))
    for scene in range(2):
        proposals, _ = gen_scene_proposals(scene * SEED_SCALE + 5, world)
        alone = {name: _episode_bits(proposals, world.pool, cfg) for name, cfg in METHOD_CFGS.items()}
        # whichever episode comes first computes a part; the others read it
        for order in (list(METHOD_CFGS), list(METHOD_CFGS)[::-1], ["pa", "zs"]):
            shared = SceneWork(proposals, world.pool)
            for name in order:
                assert _episode_bits(proposals, world.pool, METHOD_CFGS[name], shared=shared) == alone[name]


def test_shared_scene_work_rejects_another_image():
    world, proposals, _ = _scene(seed=12)
    other, _ = gen_scene_proposals(12 * SEED_SCALE + 1, world)
    shared = SceneWork(proposals, world.pool)
    with pytest.raises(ValueError, match="another image"):
        adapt_episode(other, world.pool, CFG, shared=shared)
    assert _episode_bits(proposals, world.pool, CFG, shared=shared) == _episode_bits(proposals, world.pool, CFG)


@pytest.mark.parametrize("bank", ["K+2", "K-2", "d/2"])
def test_a_prompt_bank_of_another_shape_fails_before_any_pass(monkeypatch, bank):
    # a bank of another class count used to fail in `scoring.fuse` after the pre pass's
    # products, and one of another d inside the lazy prompt compatibility
    passes = []
    real = vlodtta.grad.forward
    monkeypatch.setattr(vlodtta.grad, "forward", lambda *a, **k: passes.append(a) or real(*a, **k))
    world, proposals, gts = _scene(seed=0)
    e = world.pool.embeddings
    pool = PromptPool({"K+2": np.concatenate([e, e[:2]]), "K-2": e[:-2], "d/2": e[..., : e.shape[2] // 2]}[bank])
    message = r"^prompt pool does not match the proposal set: \(K, T, d\) = "
    for call in (
        lambda: SceneWork(proposals, pool),
        lambda: adapt_episode(proposals, pool, CFG),
        lambda: run_baseline("prompt_average", proposals, pool, CFG),
        lambda: vlodtta.data.scene_to_json(proposals, pool, list(gts)),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert passes == []


def test_one_scene_work_serves_two_reductions_and_a_lower_threshold(monkeypatch):
    # the work keys its pre passes by (reduction, rho, lam) and lists the
    # overlaps again only for an episode below the list's threshold
    world, proposals, _ = _scene(seed=12)
    cfgs = [
        CFG, replace(CFG, reduction=8), replace(CFG, theta=0.3), replace(CFG, reduction=8, rho=0.5, lam=0.6),
        replace(CFG, nms_iou=0.2, lr=0.0), replace(CFG, reduction=8, theta=0.4),
    ]
    alone = [_episode_bits(proposals, world.pool, cfg) for cfg in cfgs]
    listed = []
    real = vlodtta.geometry.overlap_list
    monkeypatch.setattr(vlodtta.geometry, "overlap_list", lambda *a, **k: listed.append(a[2]) or real(*a, **k))
    shared = SceneWork(proposals, world.pool)
    assert [_episode_bits(proposals, world.pool, cfg, shared=shared) for cfg in cfgs] == alone
    assert listed == [0.5, 0.3, 0.2]


def test_one_listing_per_image_and_none_inside_nms_or_clustering(monkeypatch):
    calls = {"overlap_list": 0, "forward": 0}
    real_list, real_forward = vlodtta.geometry.overlap_list, vlodtta.grad.forward

    def counting_list(*a, **k):
        calls["overlap_list"] += 1
        return real_list(*a, **k)

    def counting_forward(*a, **k):
        calls["forward"] += 1
        return real_forward(*a, **k)

    monkeypatch.setattr(vlodtta.geometry, "overlap_list", counting_list)
    monkeypatch.setattr(vlodtta.grad, "forward", counting_forward)
    world, proposals, _ = _scene(seed=13)
    for cfg in METHOD_CFGS.values():
        calls.update(overlap_list=0, forward=0)
        adapt_episode(proposals, world.pool, cfg)
        assert calls == {"overlap_list": 1, "forward": 1 if cfg.lr == 0.0 else 2}
    # four methods on one image: one listing, and four forwards where they ran six alone
    calls.update(overlap_list=0, forward=0)
    shared = SceneWork(proposals, world.pool)
    for cfg in METHOD_CFGS.values():
        adapt_episode(proposals, world.pool, cfg, shared=shared)
    assert calls == {"overlap_list": 1, "forward": 4}
    listed = real_list(proposals.boxes, np.zeros(proposals.n, int), 0.5)
    calls.update(overlap_list=0)
    vlodtta.geometry.nms(proposals.boxes, np.ones(proposals.n), np.zeros(proposals.n, int), 0.5, overlaps=listed)
    vlodtta.cluster.build_class_graphs(proposals.boxes, np.zeros(proposals.n, int), 0.6, overlaps=listed)
    assert calls["overlap_list"] == 0
    vlodtta.geometry.nms(proposals.boxes, np.ones(proposals.n), np.zeros(proposals.n, int), 0.5)
    vlodtta.cluster.build_class_graphs(proposals.boxes, np.zeros(proposals.n, int), 0.6)
    assert calls["overlap_list"] == 2
