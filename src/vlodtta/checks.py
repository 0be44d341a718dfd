"""Self-contained oracle suite: slow reference implementations checked
against the fast paths. Each reference is written independently of the
code it verifies."""

from __future__ import annotations

import math

import numpy as np

from . import cluster, geometry, scoring
from .adapt import AdapterParams, AdaptState
from .data import GroundTruth, PromptPool, ProposalSet
from .evaluation import RECALL_GRID, average_precision, match_detections
from .geometry import Box, Detection
from .grad import ObjectiveConstants, fd_check

__all__ = [
    "reference_nms",
    "reference_components",
    "reference_average_precision",
    "nms_detections",
    "random_objective_instance",
    "run_all",
]


# -- reference implementations ----------------------------------------- #

def _ref_iou(a: Box, b: Box) -> float:
    left, right = max(a.x1, b.x1), min(a.x2, b.x2)
    top, bottom = max(a.y1, b.y1), min(a.y2, b.y2)
    if right <= left or bottom <= top:
        return 0.0
    inter = (right - left) * (bottom - top)
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def reference_nms(dets: list[Detection], iou_thresh: float, class_wise: bool = True) -> list[Detection]:
    """Quadratic greedy suppression, written without any shared helpers."""
    indexed = sorted(enumerate(dets), key=lambda pair: (-pair[1].score, pair[0]))
    kept: list[Detection] = []
    for _, det in indexed:
        ok = True
        for winner in kept:
            if class_wise and winner.class_id != det.class_id:
                continue
            if _ref_iou(winner.box, det.box) >= iou_thresh:
                ok = False
                break
        if ok:
            kept.append(det)
    return kept


def reference_components(
    boxes: list[Box], classes: np.ndarray, theta: float
) -> list[frozenset[int]]:
    """Connected components by explicit depth-first search over the IoU graph."""
    n = len(boxes)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if classes[i] == classes[j] and _ref_iou(boxes[i], boxes[j]) >= theta:
                adj[i].append(j)
                adj[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            members.append(node)
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        comps.append(frozenset(members))
    return comps


def reference_average_precision(flags: list[bool], n_gt: int) -> float:
    """101-point AP via plain loops over the recall grid."""
    if n_gt <= 0 or not flags:
        return 0.0
    tps = 0
    fps = 0
    points = []  # (recall, precision)
    for flag in flags:
        if flag:
            tps += 1
        else:
            fps += 1
        points.append((tps / n_gt, tps / (tps + fps)))
    total = 0.0
    for r in RECALL_GRID:
        best = 0.0
        for recall, precision in points:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / len(RECALL_GRID)


def random_objective_instance(seed: int, max_n: int = 50):
    """A random small (proposals, pool, state, constants) tuple for gradient checks."""
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xF0))))
    n = int(g.integers(4, max_n + 1))
    num_classes = int(g.integers(2, 6))
    pool_size = int(g.integers(2, 9))
    # keep the adapter bottleneck at four or fewer units so dense
    # finite-difference sweeps stay cheap
    d, reduction = [(8, 2), (8, 4), (12, 3), (12, 4), (16, 4)][int(g.integers(0, 5))]
    features = scoring.normalize_rows(g.standard_normal((n, d)))
    boxes = np.tile(np.array([0.0, 0.0, 10.0, 10.0]), (n, 1)) + np.arange(n)[:, None] * 12.0
    proposals = ProposalSet(
        boxes=boxes,
        features=features,
        class_embeddings=scoring.normalize_rows(g.standard_normal((num_classes, d))),
    )
    pool = PromptPool(embeddings=scoring.normalize_rows(g.standard_normal((num_classes, pool_size, d))))
    hidden = d // reduction
    # nonzero parameters so every gradient path is exercised
    phi = AdapterParams(
        w_down=0.3 * g.standard_normal((d, hidden)),
        b_down=0.1 * g.standard_normal((hidden,)),
        w_up=0.3 * g.standard_normal((hidden, d)),
        b_up=0.1 * g.standard_normal((d,)),
    )
    state = AdaptState(phi=phi, delta=0.1 * g.standard_normal(d))
    n_kept = int(g.integers(2, n + 1))
    kept = np.sort(g.choice(n, size=n_kept, replace=False))
    n_sel = int(g.integers(1, pool_size + 1))
    selections = np.stack([
        np.sort(g.choice(pool_size, size=n_sel, replace=False)) for _ in range(num_classes)
    ])
    constants = ObjectiveConstants(
        weights=g.uniform(0.5, 4.0, size=n_kept),
        selections=selections,
        kept=kept,
        lam=float(g.uniform(0.1, 0.9)),
        kappa=float(g.uniform(5.0, 30.0)),
    )
    return proposals, pool, state, constants


def nms_detections(dets: list[Detection], iou_thresh: float, classes=None) -> list[Detection]:
    """geometry.nms on a Detection list; classes default to each class_id."""
    boxes = np.array([[d.box.x1, d.box.y1, d.box.x2, d.box.y2] for d in dets]).reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=float)
    if classes is None:
        classes = np.array([d.class_id for d in dets], dtype=int)
    return [dets[i] for i in geometry.nms(boxes, scores, classes, iou_thresh)]


# -- the suite ---------------------------------------------------------- #

def check_gradients(instances: int = 10, eps: float = 1e-5, tol: float = 1e-4) -> tuple[bool, str]:
    worst = 0.0
    for seed in range(instances):
        args = random_objective_instance(seed, max_n=24)
        worst = max(worst, fd_check(*args, eps=eps))
    return worst <= tol, f"max relative gradient error {worst:.3e} over {instances} instances"


def check_components(instances: int = 40) -> tuple[bool, str]:
    for seed in range(instances):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC0))))
        n = int(g.integers(2, 40))
        theta = float(g.choice(np.array([0.0, 0.3, 0.5, 0.7])))
        centers = g.uniform(0.0, 40.0, size=(n, 2))
        sizes = g.uniform(4.0, 14.0, size=(n, 2))
        boxes = [
            Box(c[0], c[1], c[0] + s[0], c[1] + s[1]) for c, s in zip(centers, sizes)
        ]
        classes = g.integers(0, 3, size=n)
        arr = np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes])
        got = cluster.build_class_graphs(arr, classes, theta)
        want = set(reference_components(boxes, classes, theta))
        have = {
            frozenset(np.flatnonzero(got.component_id == c).tolist())
            for c in np.unique(got.component_id)
        }
        if have != want:
            return False, f"component mismatch at seed {seed}"
        for comp in want:
            members = sorted(comp)
            if any(got.component_id[m] != members[0] for m in members):
                return False, f"component id not the smallest member at seed {seed}"
            if any(got.component_size[m] != len(members) for m in members):
                return False, f"component size wrong at seed {seed}"
    return True, f"{instances} random instances match the DFS reference"


def check_nms(instances: int = 40) -> tuple[bool, str]:
    for seed in range(instances):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB0))))
        n = int(g.integers(1, 64))
        dets = []
        for _ in range(n):
            x, y = g.uniform(0.0, 30.0, size=2)
            w, h = g.uniform(2.0, 12.0, size=2)
            dets.append(
                Detection(
                    box=Box(x, y, x + w, y + h),
                    class_id=int(g.integers(0, 3)),
                    score=float(g.random()),
                )
            )
        thresh = float(g.choice(np.array([0.1, 0.3, 0.5, 0.7])))
        class_wise = bool(g.integers(0, 2))
        classes = None if class_wise else np.zeros(n, int)
        if nms_detections(dets, thresh, classes) != reference_nms(dets, thresh, class_wise):
            return False, f"nms mismatch at seed {seed}"
    return True, f"{instances} random instances match the brute-force reference"


def check_ap_fixtures() -> tuple[bool, str]:
    unit = Box(0.0, 0.0, 10.0, 10.0)
    # one TP on one GT
    flags, n_gt = match_detections(
        [Detection(unit, 0, 0.9)], [GroundTruth(unit, 0)], 0.5
    )
    if not (n_gt == 1 and flags.tolist() == [True]):
        return False, "single-TP matching is wrong"
    if abs(average_precision(flags, n_gt) - 1.0) > 1e-9:
        return False, "single-TP AP is not 1.0"
    # an FP outranking a TP with 2 GT: AP = (51 / 101) * 0.5
    far = Box(100.0, 100.0, 110.0, 110.0)
    dets = [Detection(far, 0, 0.9), Detection(unit, 0, 0.8)]
    gts = [GroundTruth(unit, 0), GroundTruth(Box(50.0, 50.0, 60.0, 60.0), 0)]
    flags, n_gt = match_detections(dets, gts, 0.5)
    got = average_precision(flags, n_gt)
    want = (51.0 / 101.0) * 0.5
    if abs(got - want) > 1e-9:
        return False, f"two-GT fixture AP {got} != {want}"
    if abs(got - reference_average_precision(flags.tolist(), n_gt)) > 1e-12:
        return False, "AP disagrees with the loop reference"
    return True, "fixture APs match the references"


def check_cosine_euclidean(instances: int = 200) -> tuple[bool, str]:
    """Mean squared distance of unit vectors equals 2 - 2 * mean cosine."""
    worst = 0.0
    for seed in range(instances):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xE0))))
        n, d = int(g.integers(1, 40)), int(g.integers(2, 24))
        v = scoring.normalize_rows(g.standard_normal((n, d)))
        e = scoring.normalize_rows(g.standard_normal((1, d)))[0]
        mean_sq = float(np.mean(np.sum((v - e) ** 2, axis=1)))
        mean_cos = float(np.mean(v @ e))
        worst = max(worst, abs(mean_sq - (2.0 - 2.0 * mean_cos)))
    return worst <= 1e-10, f"max identity gap {worst:.3e} over {instances} instances"


def check_gamma_reduction(instances: int = 50) -> tuple[bool, str]:
    """gamma = 0 turns the weighted loss into the plain mean entropy."""
    worst = 0.0
    for seed in range(instances):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xA0))))
        n = int(g.integers(1, 60))
        h = g.uniform(0.0, math.log(7.0), size=n)
        sizes = g.integers(1, 9, size=n)
        assignment = cluster.ClusterAssignment(
            classes=np.zeros(n, dtype=int),
            component_id=np.arange(n),
            component_size=sizes,
        )
        w = cluster.cluster_weights(assignment, 0.0)
        worst = max(worst, abs(cluster.iwe_loss(h, w) - float(np.mean(h))))
    return worst <= 1e-12, f"max reduction gap {worst:.3e} over {instances} instances"


def run_all() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows."""
    return [
        ("gradients-vs-finite-differences", *check_gradients()),
        ("components-vs-dfs", *check_components()),
        ("nms-vs-brute-force", *check_nms()),
        ("ap-fixtures", *check_ap_fixtures()),
        ("cosine-euclidean-identity", *check_cosine_euclidean()),
        ("gamma-zero-reduction", *check_gamma_reduction()),
    ]
