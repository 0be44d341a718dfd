"""Adapter parameterization, the episodic single-step adaptation loop, and baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import cluster, geometry, grad, scoring
from .data import PromptPool, ProposalSet
from .geometry import Box, Detection

__all__ = [
    "AdapterParams",
    "AdaptState",
    "EpisodeConfig",
    "EpisodeTrace",
    "FusedScores",
    "apply_adapter",
    "adapter_param_count",
    "fused_scores",
    "adapt_episode",
    "run_baseline",
    "BASELINES",
]

BASELINES = ("zero_shot", "entropy_adapter", "prompt_average")


@dataclass
class AdapterParams:
    """Two-layer bottleneck MLP applied residually to region features."""

    w_down: np.ndarray  # (d, d // reduction)
    b_down: np.ndarray  # (d // reduction,)
    w_up: np.ndarray    # (d // reduction, d)
    b_up: np.ndarray    # (d,)
    reduction: int

    def __post_init__(self) -> None:
        d, hidden = self.w_down.shape
        if self.reduction < 1 or d % self.reduction != 0:
            raise ValueError(f"feature dim {d} must be divisible by reduction {self.reduction}")
        if hidden != d // self.reduction:
            raise ValueError(f"hidden width must be {d // self.reduction}: {hidden}")
        if self.b_down.shape != (hidden,) or self.w_up.shape != (hidden, d) or self.b_up.shape != (d,):
            raise ValueError("adapter tensor shapes are inconsistent")

    @classmethod
    def zero_init(cls, d: int, reduction: int, seed: int = 0) -> "AdapterParams":
        """Identity adapter: zero up-projection, seeded Gaussian down-projection.

        The up-projection starts at zero so the adapter output is exactly
        zero; the down-projection starts at small random values so both
        layers receive gradient on the very first step.
        """
        if reduction < 1 or d % reduction != 0:
            raise ValueError(f"feature dim {d} must be divisible by reduction {reduction}")
        hidden = d // reduction
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, d, reduction))))
        w_down = rng.standard_normal((d, hidden)) / math.sqrt(d)
        return cls(
            w_down=w_down,
            b_down=np.zeros(hidden),
            w_up=np.zeros((hidden, d)),
            b_up=np.zeros(d),
            reduction=reduction,
        )

    def copy(self) -> "AdapterParams":
        return AdapterParams(
            self.w_down.copy(), self.b_down.copy(), self.w_up.copy(), self.b_up.copy(), self.reduction
        )


def apply_adapter(features: np.ndarray, params: AdapterParams) -> np.ndarray:
    """features + GELU(features @ w_down + b_down) @ w_up + b_up, row by row."""
    v = np.asarray(features, dtype=float)
    hidden = grad.gelu(v @ params.w_down + params.b_down)
    return v + (hidden @ params.w_up + params.b_up)


def adapter_param_count(d: int, reduction: int) -> tuple[int, int]:
    """(weight-only, with-bias) parameter counts of the bottleneck adapter."""
    if reduction < 1 or d % reduction != 0:
        raise ValueError(f"feature dim {d} must be divisible by reduction {reduction}")
    weights = 2 * d * d // reduction
    return weights, weights + d // reduction + d


@dataclass
class AdaptState:
    """Live adapter and residual parameters plus their pristine snapshots."""

    phi: AdapterParams
    delta: np.ndarray
    phi0: AdapterParams
    delta0: np.ndarray

    @classmethod
    def zero_init(cls, d: int, reduction: int, seed: int = 0) -> "AdaptState":
        phi = AdapterParams.zero_init(d, reduction, seed)
        return cls(phi=phi, delta=np.zeros(d), phi0=phi.copy(), delta0=np.zeros(d))

    def step(self, grads: grad.Gradients, lr: float) -> None:
        """One plain gradient-descent step on every tensor."""
        self.phi.w_down -= lr * grads.w_down
        self.phi.b_down -= lr * grads.b_down
        self.phi.w_up -= lr * grads.w_up
        self.phi.b_up -= lr * grads.b_up
        self.delta = self.delta - lr * grads.delta

    def reset(self) -> None:
        """Restore the snapshots exactly."""
        self.phi = self.phi0.copy()
        self.delta = self.delta0.copy()


@dataclass(frozen=True)
class EpisodeConfig:
    """Knobs for one adaptation episode."""

    gamma: float = 1.1        # cluster-size exponent for entropy weights
    theta: float = 0.6        # IoU threshold for the overlap graphs
    rho: float = 0.25         # fraction of the prompt pool kept per class
    lam: float = 0.3          # prompt-score share in the fused score
    top_m: int = 600          # proposals kept for the objective
    kappa: float = 20.0       # posterior logit scale
    lr: float = 1e-2          # step size of the single gradient step
    nms_iou: float = 0.5
    score_thresh: float = 0.1
    reduction: int = 16       # adapter bottleneck ratio

    def validate(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0: {self.gamma}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [0, 1]: {self.theta}")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must be in (0, 1]: {self.rho}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must be in [0, 1]: {self.lam}")
        if self.top_m < 1:
            raise ValueError(f"top_m must be >= 1: {self.top_m}")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be finite and positive: {self.kappa}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and >= 0: {self.lr}")
        if not (0.0 <= self.nms_iou <= 1.0):
            raise ValueError(f"nms_iou must be in [0, 1]: {self.nms_iou}")
        if not (0.0 <= self.score_thresh <= 1.0):
            raise ValueError(f"score_thresh must be in [0, 1]: {self.score_thresh}")
        if self.reduction < 1:
            raise ValueError(f"reduction must be >= 1: {self.reduction}")


@dataclass(frozen=True)
class FusedScores:
    """One pass through the fused scoring path."""

    adapted: np.ndarray     # (N, d) features after the adapter
    base: np.ndarray        # (N, K) detector cosine scores
    selections: np.ndarray  # (K, n_sel) selected prompt indices
    pooled: np.ndarray      # (N, K) mean over the selected prompts
    fused: np.ndarray       # (N, K) convex combination
    bank: np.ndarray        # (K, T, d) prompt embeddings the pass scored against
    delta: np.ndarray       # (d,) prompt residual of the pass

    @property
    def prompts(self) -> np.ndarray:
        """(N, K, T) cosines against every prompt; built on demand, for inspection only."""
        return scoring.prompt_scores(self.adapted, self.bank, self.delta)


def fused_scores(
    proposals: ProposalSet,
    pool: PromptPool,
    phi: AdapterParams,
    delta: np.ndarray,
    cfg: EpisodeConfig,
    selections: np.ndarray | None = None,
) -> FusedScores:
    """Adapter, cosine scores, prompt aggregation, and fusion in one pass.

    When selections is None the prompt sets are chosen by image
    compatibility, from the mean unit feature of this pass; passing an
    array reuses a frozen choice. Only the selected prompts are scored:
    the (N, K, T) tensor over the whole bank is never built here.
    """
    adapted = apply_adapter(proposals.features, phi)
    base = scoring.detector_scores(adapted, proposals.class_embeddings)
    if selections is None:
        compat = scoring.prompt_compat(adapted, pool.embeddings, delta)
        selections = scoring.select_prompts(compat, cfg.rho)
    chosen = scoring.selected_prompts(pool.embeddings, selections)
    pooled = scoring.prompt_scores(adapted, chosen, delta).mean(axis=-1)
    fused = scoring.fuse(pooled, base, cfg.lam)
    return FusedScores(
        adapted=adapted, base=base, selections=selections, pooled=pooled, fused=fused,
        bank=pool.embeddings, delta=np.array(delta, dtype=float),
    )


@dataclass(frozen=True)
class EpisodeTrace:
    """What one episode did, in JSON-ready form."""

    loss: float
    grad_norms: dict[str, float]
    selections: tuple[tuple[int, ...], ...]
    cluster_count: int
    cluster_sizes: dict[int, int]               # size -> number of components
    pre_score_range: tuple[float, float]
    post_score_range: tuple[float, float]
    detections: tuple[Detection, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "loss": self.loss,
            "grad_norms": dict(self.grad_norms),
            "selections": [list(s) for s in self.selections],
            "cluster_count": self.cluster_count,
            "cluster_sizes": {str(k): v for k, v in sorted(self.cluster_sizes.items())},
            "pre_score_range": list(self.pre_score_range),
            "post_score_range": list(self.post_score_range),
            "detections": [
                {
                    "box": [d.box.x1, d.box.y1, d.box.x2, d.box.y2],
                    "class_id": d.class_id,
                    "score": d.score,
                }
                for d in self.detections
            ],
        }


def _predict(fused: np.ndarray, boxes: np.ndarray, cfg: EpisodeConfig) -> list[Detection]:
    """Max-class posterior confidence, score threshold, then class-wise NMS."""
    probs = scoring.posterior(fused, cfg.kappa)
    conf = probs.max(axis=-1)
    labels = probs.argmax(axis=-1)
    idx = np.flatnonzero(conf >= cfg.score_thresh)
    kept = idx[geometry.nms(boxes[idx], conf[idx], labels[idx], cfg.nms_iou)]
    return [
        Detection(box=Box(*boxes[i]), class_id=int(labels[i]), score=float(conf[i]))
        for i in kept
    ]


def _empty_trace() -> EpisodeTrace:
    return EpisodeTrace(
        loss=0.0, grad_norms={}, selections=(), cluster_count=0, cluster_sizes={},
        pre_score_range=(0.0, 0.0), post_score_range=(0.0, 0.0), detections=(),
    )


def _component_table(
    assignment: cluster.ClusterAssignment, fused_kept: np.ndarray
) -> list[dict[str, Any]]:
    """One row per component: class, size, max fused score among members."""
    rows = []
    for comp in np.unique(assignment.component_id):
        members = np.flatnonzero(assignment.component_id == comp)
        rows.append(
            {
                "class_id": int(assignment.classes[members[0]]),
                "size": int(assignment.component_size[members[0]]),
                "max_score": float(fused_kept[members].max()),
            }
        )
    rows.sort(key=lambda r: (-r["size"], r["class_id"], -r["max_score"]))
    return rows


def adapt_episode(
    proposals: ProposalSet,
    pool: PromptPool,
    cfg: EpisodeConfig,
    state: AdaptState | None = None,
    details: dict[str, Any] | None = None,
) -> tuple[list[Detection], EpisodeTrace]:
    """Adapt on one image with a single gradient step, predict, then reset.

    Prompt selections, kept-proposal indices, and entropy weights are all
    frozen before the step; only the adapter and the prompt residual move.
    An empty proposal set yields no detections and no update. Passing a
    dict as `details` fills it with the full intermediate arrays.
    """
    cfg.validate()
    if proposals.n == 0:
        return [], _empty_trace()
    if state is None:
        state = AdaptState.zero_init(proposals.d, cfg.reduction)

    pre = fused_scores(proposals, pool, state.phi, state.delta, cfg)
    kept = np.asarray(geometry.top_m_filter(pre.fused, cfg.top_m), dtype=int)
    classes = cluster.predicted_classes(pre.fused[kept])
    assignment = cluster.build_class_graphs(proposals.boxes[kept], classes, cfg.theta)
    weights = cluster.cluster_weights(assignment, cfg.gamma)
    constants = grad.ObjectiveConstants(
        weights=weights, selections=pre.selections, kept=kept, lam=cfg.lam, kappa=cfg.kappa
    )
    loss, saved = grad.forward_objective(proposals, pool, state, constants)
    grads = grad.backward(saved)
    state.step(grads, cfg.lr)

    # a zero-size step leaves phi and delta as they were, so the post pass
    # would recompute pre exactly
    if cfg.lr == 0.0:
        post = pre
    else:
        post = fused_scores(proposals, pool, state.phi, state.delta, cfg, selections=pre.selections)
    detections = _predict(post.fused, proposals.boxes, cfg)

    comp_ids, first = np.unique(assignment.component_id, return_index=True)
    comp_sizes = assignment.component_size[first]
    sizes, counts = np.unique(comp_sizes, return_counts=True)
    trace = EpisodeTrace(
        loss=loss,
        grad_norms=grads.norms(),
        selections=tuple(tuple(int(t) for t in row) for row in pre.selections),
        cluster_count=int(comp_ids.size),
        cluster_sizes=dict(zip(sizes.tolist(), counts.tolist())),
        pre_score_range=(float(pre.fused.min()), float(pre.fused.max())),
        post_score_range=(float(post.fused.min()), float(post.fused.max())),
        detections=tuple(detections),
    )
    if details is not None:
        details.update(
            pre=pre, post=post, kept=kept, assignment=assignment,
            weights=weights, grads=grads,
            components=_component_table(assignment, pre.fused[kept]),
        )
    state.reset()
    return detections, trace


def run_baseline(
    kind: str, proposals: ProposalSet, pool: PromptPool, cfg: EpisodeConfig
) -> list[Detection]:
    """One of the reference pipelines, expressed as a restricted episode.

    zero_shot:       no update and no prompt fusion.
    entropy_adapter: unweighted mean entropy, no prompt fusion, step kept.
    prompt_average:  all prompts averaged, fusion kept, no update.
    """
    if kind == "zero_shot":
        restricted = replace(cfg, lr=0.0, lam=0.0)
    elif kind == "entropy_adapter":
        restricted = replace(cfg, gamma=0.0, lam=0.0)
    elif kind == "prompt_average":
        restricted = replace(cfg, rho=1.0, lr=0.0, gamma=0.0)
    else:
        raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    detections, _ = adapt_episode(proposals, pool, restricted)
    return detections
