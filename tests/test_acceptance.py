"""Acceptance tests. One test per criterion; each prints a single summary line.

The heavy pieces (the 20-seed benchmark and the knob sweeps) are computed once
in module-scope fixtures and shared, so the whole module stays within its
runtime budget.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from vlodtta import checks, scoring
from vlodtta.adapt import AdaptState, EpisodeConfig, adapt_episode, run_baseline
from vlodtta.cli import cmd_bench
from vlodtta.cluster import build_class_graphs
from vlodtta.evaluation import average_precision, evaluate
from vlodtta.geometry import Box, Detection
from vlodtta.grad import fd_check
from vlodtta.sim import ShiftSpec, SimConfig, make_suite

from test_cli import _cli_env
from test_evaluation import _fixture as eval_fixture
from test_evaluation import _reference_eval

N_SEEDS = 20
N_SCENES = 20
SHIFT = 0.5

METHODS = ("zero_shot", "entropy_adapter", "prompt_average", "vlodtta")

GAMMA_GRID = (0.6, 1.0, 1.2, 1.6)
THETA_GRID = (0.5, 0.6, 0.7)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _suite_map(suite, method: str, ecfg: EpisodeConfig) -> tuple[float, float]:
    dets_all, gts_all = [], []
    for proposals, gts in suite.scenes:
        if method == "vlodtta":
            dets = adapt_episode(proposals, suite.world.pool, ecfg)[0]
        else:
            dets = run_baseline(method, proposals, suite.world.pool, ecfg)
        dets_all.append(dets)
        gts_all.append(list(gts))
    report = evaluate(dets_all, gts_all)
    return report.mean_ap, report.ap50


@pytest.fixture(scope="module")
def suites():
    return [
        make_suite(seed, N_SCENES, SimConfig(), ShiftSpec(magnitude=SHIFT))
        for seed in range(N_SEEDS)
    ]


@pytest.fixture(scope="module")
def bench(suites):
    """Per-seed mAP and AP50 for every method at shift 0.5, plus wall time."""
    start = time.perf_counter()
    ecfg = EpisodeConfig()
    maps = {m: [] for m in METHODS}
    ap50s = {m: [] for m in METHODS}
    for suite in suites:
        for method in METHODS:
            mean_ap, ap50 = _suite_map(suite, method, ecfg)
            maps[method].append(mean_ap)
            ap50s[method].append(ap50)
    return maps, ap50s, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweeps(suites):
    """Mean mAP over seeds for each gamma and theta setting, plus wall time."""
    start = time.perf_counter()

    def swept(**knob):
        ecfg = replace(EpisodeConfig(), **knob)
        return float(np.mean([_suite_map(s, "vlodtta", ecfg)[0] for s in suites]))

    gamma = {value: swept(gamma=value) for value in (0.0, *GAMMA_GRID)}
    theta = {value: swept(theta=value) for value in (0.0, *THETA_GRID)}
    return gamma, theta, time.perf_counter() - start


# -------------------------------------------------------------------------- #

def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        proposals, pool, state, constants = checks.random_objective_instance(seed, max_n=50)
        worst = max(worst, fd_check(proposals, pool, state, constants, eps=1e-5))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _line(1, ok, f"max relative gradient error {worst:.3e} over 50 instances in {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_02_cosine_matches_euclidean_form():
    worst = 0.0
    for seed in range(1000):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xACC2))))
        n, k, d = int(g.integers(1, 21)), int(g.integers(2, 7)), int(g.integers(2, 33))
        feats = scoring.normalize_rows(g.standard_normal((n, d)))
        embs = scoring.normalize_rows(g.standard_normal((k, d)))
        cos = scoring.detector_scores(feats, embs)
        sq_dist = ((feats[:, None, :] - embs[None, :, :]) ** 2).sum(axis=-1)
        worst = max(worst, float(np.max(np.abs(cos - (1.0 - 0.5 * sq_dist)))))
    ok = worst <= 1e-10
    _line(2, ok, f"max cosine/Euclidean gap {worst:.3e} over 1000 sets")
    assert worst <= 1e-10


def test_criterion_03_limit_settings_collapse_as_claimed(suites):
    suite = suites[0]
    proposals = suite.scenes[0][0]
    pool = suite.world.pool

    # gamma = 0: the objective is the plain mean entropy of the kept set
    _, trace = adapt_episode(proposals, pool, replace(EpisodeConfig(), gamma=0.0))
    kept = trace.kept
    probs = scoring.posterior(trace.pre.fused[kept], EpisodeConfig().kappa)
    gamma_gap = abs(trace.loss - float(scoring.entropy(probs).mean()))

    # theta = 0: within a predicted class everything joins one component
    assignment = build_class_graphs(
        proposals.boxes[kept], trace.assignment.classes, 0.0
    )
    theta_ok = len(set(assignment.component_id.tolist())) == len(
        set(assignment.classes.tolist())
    )

    # lambda = 0: fusion returns the detector scores untouched
    _, lam_trace = adapt_episode(proposals, pool, replace(EpisodeConfig(), lam=0.0))
    lam_ok = np.array_equal(lam_trace.pre.fused, lam_trace.pre.base)

    # rho = 1: aggregation over the full selection is the all-prompt mean
    z = scoring.prompt_scores(trace.pre.adapted, pool.embeddings, trace.pre.delta)
    selections = scoring.select_prompts(z.mean(axis=0), 1.0)
    rho_ok = np.array_equal(scoring.aggregate_selected(z, selections), z.mean(axis=-1))

    ok = gamma_gap <= 1e-12 and theta_ok and lam_ok and rho_ok
    _line(3, ok, f"gamma gap {gamma_gap:.2e}; theta/lambda/rho collapses {theta_ok}/{lam_ok}/{rho_ok}")
    assert gamma_gap <= 1e-12
    assert theta_ok and lam_ok and rho_ok


def test_criterion_04_components_and_nms_match_references():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0xC4)))
    comp_ok = nms_ok = 0
    for _ in range(200):
        n = int(rng.integers(1, 101))
        xy = rng.uniform(0, 80, size=(n, 2))
        wh = rng.uniform(2, 40, size=(n, 2))
        boxes = [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(xy, wh)]
        classes = rng.integers(0, 4, size=n)
        theta = float(rng.uniform(0.2, 0.8))
        got = build_class_graphs(boxes, classes, theta)
        members: dict[int, list[int]] = {}
        for i, cid in enumerate(got.component_id.tolist()):
            members.setdefault(cid, []).append(i)
        got_sets = {frozenset(v) for v in members.values()}
        want_sets = set(checks.reference_components(boxes, classes, theta))
        sizes_ok = all(
            got.component_size[i] == len(members[cid])
            for cid, group in members.items()
            for i in group
        )
        ids_ok = all(cid == min(group) for cid, group in members.items())
        comp_ok += got_sets == want_sets and sizes_ok and ids_ok

        m = int(rng.integers(1, 101))
        dets = [
            Detection(
                Box(x, y, x + w, y + h),
                int(rng.integers(0, 4)),
                float(rng.uniform(0.05, 1.0)),
            )
            for (x, y), (w, h) in zip(
                rng.uniform(0, 80, size=(m, 2)), rng.uniform(2, 40, size=(m, 2))
            )
        ]
        thresh = float(rng.uniform(0.2, 0.8))
        nms_ok += checks.nms_detections(dets, thresh) == checks.reference_nms(dets, thresh)

    ok = comp_ok == 200 and nms_ok == 200
    _line(4, ok, f"components {comp_ok}/200, nms {nms_ok}/200 instances match")
    assert comp_ok == 200
    assert nms_ok == 200


def test_criterion_05_evaluator_fixtures():
    single = abs(average_precision(np.array([True]), 1) - 1.0)
    pair = abs(average_precision(np.array([False, True]), 2) - (51.0 / 101.0) * 0.5)
    scenes_det, scenes_gt = eval_fixture()
    report = evaluate(scenes_det, scenes_gt)
    ref_mean, ref_50, ref_75 = _reference_eval(scenes_det, scenes_gt)
    gaps = (
        abs(report.mean_ap - ref_mean),
        abs(report.ap50 - ref_50),
        abs(report.ap75 - ref_75),
    )
    ok = single <= 1e-9 and pair <= 1e-9 and max(gaps) <= 1e-6
    _line(5, ok, f"closed-form gaps {single:.1e}/{pair:.1e}, fixture gap {max(gaps):.1e}")
    assert single <= 1e-9
    assert pair <= 1e-9
    assert max(gaps) <= 1e-6


def test_criterion_06_reset_and_reproducibility(suites, tmp_path):
    # adaptation never leaks across episodes: every scene's episode, run
    # after the ones before it, starts from the zero-init parameters
    suite = suites[0]
    ecfg = EpisodeConfig()
    state = AdaptState.zero_init(SimConfig().d, ecfg.reduction)
    snapshot = {
        "w_down": state.phi.w_down.tobytes(),
        "b_down": state.phi.b_down.tobytes(),
        "w_up": state.phi.w_up.tobytes(),
        "b_up": state.phi.b_up.tobytes(),
        "delta": state.delta.tobytes(),
    }
    resets = 0
    for proposals, _ in suite.scenes:
        _, start = adapt_episode(proposals, suite.world.pool, ecfg)
        phi, delta = start.pre.phi, start.pre.delta
        resets += (
            phi.w_down.tobytes() == snapshot["w_down"]
            and phi.b_down.tobytes() == snapshot["b_down"]
            and phi.w_up.tobytes() == snapshot["w_up"]
            and phi.b_up.tobytes() == snapshot["b_up"]
            and delta.tobytes() == snapshot["delta"]
        )

    # lr = 0 is a bit-for-bit no-op on the scores
    proposals = suite.scenes[0][0]
    dets_a, frozen = adapt_episode(proposals, suite.world.pool, replace(ecfg, lr=0.0))
    dets_b, _ = adapt_episode(proposals, suite.world.pool, replace(ecfg, lr=0.0))
    lr_ok = (
        frozen.pre.fused.tobytes() == frozen.post.fused.tobytes()
        and dets_a == dets_b
    )

    # identical configs produce byte-identical benchmark CSVs
    doc = json.dumps(
        {
            "shift": {"magnitude": SHIFT},
            "seeds": 2,
            "n_scenes": 2,
            "methods": ["zs", "entropy", "pa", "vlodtta"],
        }
    )
    (tmp_path / "a.json").write_text(doc)
    (tmp_path / "b.json").write_text(doc)
    assert cmd_bench(str(tmp_path / "a.json"), str(tmp_path / "a.csv")) == 0
    assert cmd_bench(str(tmp_path / "b.json"), str(tmp_path / "b.csv")) == 0
    csv_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    ok = resets == N_SCENES and lr_ok and csv_ok
    _line(6, ok, f"resets {resets}/{N_SCENES}, lr=0 no-op {lr_ok}, byte-identical CSVs {csv_ok}")
    assert resets == N_SCENES
    assert lr_ok and csv_ok


def test_criterion_07_beats_zero_shot_under_shift(bench):
    maps, _, _ = bench
    ours, zs = np.array(maps["vlodtta"]), np.array(maps["zero_shot"])
    wins = int(np.sum(ours > zs))
    decided = int(np.sum(ours != zs))
    p_value = binomtest(wins, decided, alternative="greater").pvalue if decided else 1.0
    entropy_mean = float(np.mean(maps["entropy_adapter"]))
    ok = (
        float(ours.mean()) > float(zs.mean())
        and p_value < 0.05
        and float(ours.mean()) >= entropy_mean
    )
    _line(
        7,
        ok,
        f"mAP {ours.mean():.4f} vs zero-shot {zs.mean():.4f}"
        f" ({wins}/{decided} seed wins, sign test p {p_value:.4f});"
        f" entropy-only {entropy_mean:.4f}",
    )
    assert float(ours.mean()) > float(zs.mean())
    assert p_value < 0.05
    assert float(ours.mean()) >= entropy_mean


def test_criterion_08_ap50_not_below_prompt_average(bench):
    _, ap50s, _ = bench
    ours = float(np.mean(ap50s["vlodtta"]))
    pa = float(np.mean(ap50s["prompt_average"]))
    ok = ours >= pa
    _line(8, ok, f"AP50 {ours:.4f} vs prompt-average {pa:.4f}")
    assert ours >= pa


def test_criterion_09_weighting_and_clustering_pull_weight(sweeps):
    gamma, theta, _ = sweeps
    best_gamma = max(gamma[v] for v in GAMMA_GRID)
    best_theta = max(theta[v] for v in THETA_GRID)
    ok = gamma[0.0] <= best_gamma and theta[0.0] <= best_theta
    _line(
        9,
        ok,
        f"gamma=0 mAP {gamma[0.0]:.4f} vs best {best_gamma:.4f};"
        f" theta=0 mAP {theta[0.0]:.4f} vs best {best_theta:.4f}",
    )
    assert gamma[0.0] <= best_gamma
    assert theta[0.0] <= best_theta


def test_criterion_10_runtime_budgets(bench, sweeps):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "vlodtta", "check"],
        capture_output=True, text=True, env=_cli_env(), timeout=60.0,
    )
    check_elapsed = time.perf_counter() - start
    bench_elapsed, sweep_elapsed = bench[2], sweeps[2]
    ok = (
        result.returncode == 0
        and check_elapsed < 60.0
        and bench_elapsed + sweep_elapsed < 600.0
    )
    _line(
        10,
        ok,
        f"check {check_elapsed:.1f}s (exit {result.returncode});"
        f" bench {bench_elapsed:.1f}s + sweeps {sweep_elapsed:.1f}s",
    )
    assert result.returncode == 0, result.stderr
    assert check_elapsed < 60.0
    assert bench_elapsed + sweep_elapsed < 600.0
