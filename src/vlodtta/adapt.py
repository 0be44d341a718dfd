"""Adapter parameterization, the episodic single-step adaptation loop, and baselines."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import cluster, geometry, grad, scoring
from .data import PromptPool, ProposalSet, _check_fields, _check_pool
from .geometry import Detections

__all__ = [
    "AdapterParams",
    "AdaptState",
    "EpisodeConfig",
    "EpisodeTrace",
    "apply_adapter",
    "adapter_param_count",
    "fused_scores",
    "adapt_episode",
    "baseline_config",
    "run_baseline",
    "SceneWork",
    "BASELINES",
]

BASELINES = ("zero_shot", "entropy_adapter", "prompt_average")


@dataclass(frozen=True)
class AdapterParams:
    """Two-layer bottleneck MLP applied residually to region features."""

    w_down: np.ndarray  # (d, hidden)
    b_down: np.ndarray  # (hidden,)
    w_up: np.ndarray    # (hidden, d)
    b_up: np.ndarray    # (d,)

    def __post_init__(self) -> None:
        d, hidden = self.w_down.shape
        if self.b_down.shape != (hidden,) or self.w_up.shape != (hidden, d) or self.b_up.shape != (d,):
            raise ValueError("adapter tensor shapes are inconsistent")

    @classmethod
    def zero_init(cls, d: int, reduction: int) -> "AdapterParams":
        """Identity adapter: zero up-projection, Gaussian down-projection drawn from (d, reduction).

        The up-projection starts at zero so the adapter output is exactly
        zero; the down-projection starts at small random values so both
        layers receive gradient on the very first step.
        """
        if reduction < 1 or d % reduction != 0:
            raise ValueError(f"feature dim {d} must be divisible by reduction {reduction}")
        hidden = d // reduction
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((0, d, reduction))))
        w_down = rng.standard_normal((d, hidden)) / math.sqrt(d)
        return cls(w_down=w_down, b_down=np.zeros(hidden), w_up=np.zeros((hidden, d)), b_up=np.zeros(d))


def apply_adapter(features: np.ndarray, params: AdapterParams) -> np.ndarray:
    """features + GELU(features @ w_down + b_down) @ w_up + b_up, row by row."""
    return grad.adapter(features, params)[2]


def adapter_param_count(d: int, reduction: int) -> tuple[int, int]:
    """(weight-only, with-bias) parameter counts of the bottleneck adapter."""
    if reduction < 1 or d % reduction != 0:
        raise ValueError(f"feature dim {d} must be divisible by reduction {reduction}")
    weights = 2 * d * d // reduction
    return weights, weights + d // reduction + d


@dataclass(frozen=True)
class AdaptState:
    """Adapter and prompt-residual parameters; a step returns a new state."""

    phi: AdapterParams
    delta: np.ndarray

    @classmethod
    def zero_init(cls, d: int, reduction: int) -> "AdaptState":
        return cls(phi=AdapterParams.zero_init(d, reduction), delta=np.zeros(d))

    def stepped(self, grads: grad.Gradients, lr: float) -> "AdaptState":
        """The parameters after one plain gradient-descent step on every tensor."""
        phi = self.phi
        return AdaptState(
            phi=AdapterParams(
                w_down=phi.w_down - lr * grads.w_down,
                b_down=phi.b_down - lr * grads.b_down,
                w_up=phi.w_up - lr * grads.w_up,
                b_up=phi.b_up - lr * grads.b_up,
            ),
            delta=self.delta - lr * grads.delta,
        )


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

    def __post_init__(self) -> None:
        _check_fields(
            vars(self), gamma="float >= 0", theta="float in [0, 1]", rho="float in (0, 1]",
            lam="float in [0, 1]", top_m="int >= 1", kappa="float > 0", lr="float >= 0",
            nms_iou="float in [0, 1]", score_thresh="float in [0, 1]", reduction="int >= 1",
        )


def fused_scores(
    proposals: ProposalSet,
    pool: PromptPool,
    phi: AdapterParams,
    delta: np.ndarray,
    cfg: EpisodeConfig,
    selections: np.ndarray,
    reuse: grad.Forward | None = None,
) -> grad.Forward:
    """One scoring pass of an episode: `grad.forward` at the config's lam."""
    return grad.forward(proposals, pool, phi, delta, cfg.lam, selections, reuse)


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """The one record of an episode; `to_dict` gives it in JSON-ready form.

    Stored: `loss`, the `detections` record, the pre and post
    `grad.Forward` passes, the top-M rows `kept`, their `weights`, the
    step's `grads`, and the image's `boxes`, `overlaps` list and `theta`,
    which the kept rows' overlap graph is built from. At lr = 0, `post is
    pre` and the rest is None; an empty episode has no passes either.
    Derived on first read: `assignment` (the graph; at gamma != 0 the one
    the weights came from) and `components`. Traces compare by `to_dict`.
    """

    loss: float
    detections: Detections
    pre: grad.Forward | None = field(default=None, repr=False)
    post: grad.Forward | None = field(default=None, repr=False)
    kept: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)
    grads: grad.Gradients | None = field(default=None, repr=False)
    boxes: np.ndarray | None = field(default=None, repr=False)
    overlaps: geometry.OverlapList | None = field(default=None, repr=False)
    theta: float | None = None

    @functools.cached_property
    def assignment(self) -> cluster.ClusterAssignment | None:
        return None if self.kept is None else _kept_graph(self.pre, self.kept, self.boxes, self.overlaps, self.theta)

    @functools.cached_property
    def components(self) -> list[dict[str, Any]]:
        """One row per component: class, size, max fused score among members."""
        if self.assignment is None:
            return []
        a, fused = self.assignment, self.pre.fused[self.kept]
        rows = [
            {
                "class_id": int(a.classes[root]),
                "size": int(a.component_size[root]),
                "max_score": float(fused[a.component_id == root].max()),
            }
            for root in np.unique(a.component_id)  # a component's id is its smallest member index
        ]
        rows.sort(key=lambda r: (-r["size"], r["class_id"], -r["max_score"]))
        return rows

    def __eq__(self, other: object) -> bool:
        return self.to_dict() == other.to_dict() if isinstance(other, EpisodeTrace) else NotImplemented

    def to_dict(self) -> dict[str, Any]:
        """The episode as `vlodtta episode` dumps it; what the episode did not compute is [] or {}."""
        dets, pre, post = self.detections, self.pre, self.post
        grads = {} if self.grads is None else vars(self.grads)
        return {
            "loss": self.loss,
            "grad_norms": {name: float(np.linalg.norm(g)) for name, g in grads.items()},
            "selections": [] if pre is None else pre.selections.tolist(),
            "pre_fused": [] if pre is None else pre.fused.tolist(),
            "post_fused": [] if post is None else post.fused.tolist(),
            "clusters": [dict(row) for row in self.components],
            "detections": [
                {"box": box, "class_id": class_id, "score": score}
                for box, class_id, score in zip(
                    dets.boxes.tolist(), dets.classes.tolist(), dets.scores.tolist()
                )
            ],
        }


def _kept_graph(
    pre: grad.Forward, kept: np.ndarray, boxes: np.ndarray, overlaps: geometry.OverlapList, theta: float
) -> cluster.ClusterAssignment:
    """The IoU >= theta graph of the kept rows under their predicted classes."""
    return cluster.build_class_graphs(
        boxes[kept], cluster.predicted_classes(pre.fused[kept]), theta, overlaps=overlaps.take(kept)
    )


def _predict(
    fused: np.ndarray, boxes: np.ndarray, cfg: EpisodeConfig, overlaps: geometry.OverlapList
) -> Detections:
    """Max-class posterior confidence, score threshold, then class-wise NMS along the image's overlap list."""
    probs = scoring.posterior(fused, cfg.kappa)
    conf = probs.max(axis=-1)
    labels = probs.argmax(axis=-1)
    idx = np.flatnonzero(conf >= cfg.score_thresh)
    kept = idx[geometry.nms(boxes[idx], conf[idx], labels[idx], cfg.nms_iou, overlaps=overlaps.take(idx))]
    return Detections(boxes[kept], conf[kept], labels[kept])


@functools.lru_cache(maxsize=16)
def _fresh_state(d: int, reduction: int) -> AdaptState:
    """`AdaptState.zero_init(d, reduction)`, where every episode starts: drawn
    once and read-only, so no episode can change what the next one starts from."""
    state = AdaptState.zero_init(d, reduction)
    for a in (*vars(state.phi).values(), state.delta):
        a.flags.writeable = False
    return state


def adapt_episode(
    proposals: ProposalSet, pool: PromptPool, cfg: EpisodeConfig, *, shared: SceneWork | None = None
) -> tuple[Detections, EpisodeTrace]:
    """Adapt on one image with a single gradient step, then predict.

    Prompt selections, kept-proposal indices, and entropy weights are all
    frozen before the step; only the adapter and the prompt residual move.
    Every episode starts from the same read-only
    `AdaptState.zero_init(d, reduction)`, drawn once per (d, reduction);
    the step returns new parameters that only the post pass reads, so no
    episode depends on the ones before it.
    An empty proposal set yields no detections and no update; a zero-size
    step (lr = 0) predicts from the pre pass and computes no objective. A
    step so large that the post pass overflows raises `scoring.NonFiniteRow`
    naming lr.
    The trace holds what the episode computed and derives the rest on
    read (`EpisodeTrace`), so a caller that drops it pays for none of it;
    the kept rows' overlap graph is built at most once, by the weights at
    gamma != 0 (at gamma = 0 every weight is 1) or else by the trace.

    The pre pass and the overlap list of the image's boxes
    (`geometry.OverlapList`), which clustering and NMS read, come from a
    `SceneWork` of the image: `shared`, which episodes on one image share
    with bit-identical results, or else one built for this episode alone.
    """
    if proposals.n == 0:
        trace = EpisodeTrace(loss=0.0, detections=Detections.empty())
        return trace.detections, trace

    work = shared if shared is not None else SceneWork(proposals, pool)
    pre, overlaps = work.inputs(proposals, pool, cfg)
    if cfg.lr == 0.0:
        # phi and delta stay as they were: the post pass would recompute pre
        detections = _predict(pre.fused, proposals.boxes, cfg, overlaps)
        return detections, EpisodeTrace(0.0, detections, pre, pre)

    kept = geometry.top_m_filter(pre.fused, cfg.top_m)
    # size ** 0.0 is exactly 1.0 for every size, so gamma = 0 needs no graph
    assignment = _kept_graph(pre, kept, proposals.boxes, overlaps, cfg.theta) if cfg.gamma != 0.0 else None
    weights = np.ones(kept.size) if assignment is None else cluster.cluster_weights(assignment, cfg.gamma)
    constants = grad.ObjectiveConstants(
        weights=weights, selections=pre.selections, kept=kept, lam=cfg.lam, kappa=cfg.kappa
    )
    loss, saved = grad.objective(pre, constants)
    grads = grad.backward(saved)
    new = _fresh_state(proposals.d, cfg.reduction).stepped(grads, cfg.lr)
    # the fresh W_up is zero, which passes W_down and b_down exact zero gradients (`grad.backward`),
    # so the step leaves them bit-identical and the post pass takes the pre pass's down-projection
    try:
        post = fused_scores(proposals, pool, new.phi, new.delta, cfg, selections=pre.selections, reuse=pre)
    except scoring.NonFiniteRow as exc:
        raise scoring.NonFiniteRow(f"lr={cfg.lr} overflows the post pass: {exc}") from None
    detections = _predict(post.fused, proposals.boxes, cfg, overlaps)
    trace = EpisodeTrace(loss, detections, pre, post, kept, weights, grads, proposals.boxes, overlaps, cfg.theta)
    if assignment is not None:
        object.__setattr__(trace, "assignment", assignment)  # the cached_property's slot: no second graph
    return detections, trace


def baseline_config(kind: str, cfg: EpisodeConfig) -> EpisodeConfig:
    """The restricted episode config that a reference pipeline runs.

    zero_shot:       no update and no prompt fusion.
    entropy_adapter: unweighted mean entropy, no prompt fusion, step kept.
    prompt_average:  all prompts averaged, fusion kept, no update.
    """
    if kind == "zero_shot":
        return replace(cfg, lr=0.0, lam=0.0)
    if kind == "entropy_adapter":
        return replace(cfg, gamma=0.0, lam=0.0)
    if kind == "prompt_average":
        return replace(cfg, rho=1.0, lr=0.0, gamma=0.0)
    raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINES}")


def run_baseline(kind: str, proposals: ProposalSet, pool: PromptPool, cfg: EpisodeConfig) -> Detections:
    """One of the reference pipelines, expressed as a restricted episode (`baseline_config`)."""
    detections, _ = adapt_episode(proposals, pool, baseline_config(kind, cfg))
    return detections


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


class SceneWork:
    """What the episodes on one image share, for any configs: prompt compatibility, pre passes, overlaps.

    Every episode starts from the fresh state of its reduction, so its pre
    pass depends only on (reduction, rho, lam). Each part is computed by
    the first episode that needs it and read by the later ones: the
    prompts' compatibility with the image (`_compat`), which a new rho
    selects from; a pass at a (reduction, rho) already scored, re-fused at
    the new lam; a pass of the same reduction, whose down-projection and
    class scores a new rho reuses; and the overlap list, listed at its
    episode's min(theta, nms_iou) and again only for a lower one. Every
    episode gets bit-identical results to one run without it. A prompt
    bank of another class count or feature dim is a ValueError here, before
    any pass.
    """

    def __init__(self, proposals: ProposalSet, pool: PromptPool) -> None:
        _check_pool(proposals, pool)
        self.proposals, self.pool = proposals, pool
        self._passes: dict[tuple[int, float, float], grad.Forward] = {}  # (reduction, rho, lam) -> pass
        self._overlaps: geometry.OverlapList | None = None

    def inputs(
        self, proposals: ProposalSet, pool: PromptPool, cfg: EpisodeConfig
    ) -> tuple[grad.Forward, geometry.OverlapList]:
        """The pre pass and the overlap list of an episode on this image.

        Raises ValueError for another image or prompt bank.
        """
        mine = self.proposals
        if not (
            _same(proposals.boxes, mine.boxes) and _same(proposals.features, mine.features)
            and _same(proposals.class_embeddings, mine.class_embeddings)
            and _same(pool.embeddings, self.pool.embeddings)
        ):
            raise ValueError("the shared work is of another image or prompt pool")
        key = (cfg.reduction, cfg.rho, cfg.lam)
        if key not in self._passes:
            self._passes[key] = self._pre_pass(cfg)
        pre = self._passes[key]
        t0 = min(cfg.theta, cfg.nms_iou)
        if self._overlaps is None or t0 < self._overlaps.t0:
            self._overlaps = geometry.overlap_list(mine.boxes, cluster.predicted_classes(pre.fused), t0)
        return pre, self._overlaps

    @functools.cached_property
    def _compat(self) -> np.ndarray:
        """(K, T) mean cosine of each prompt against the image's unit feature rows, which the fresh adapter keeps."""
        v = self.proposals.features
        return scoring.prompt_compat((1.0 / np.sqrt(self.proposals.feature_sq)) @ v / v.shape[0], self.pool.embeddings)

    def _pre_pass(self, cfg: EpisodeConfig) -> grad.Forward:
        for (reduction, rho, _), like in self._passes.items():
            if (reduction, rho) == (cfg.reduction, cfg.rho):
                return replace(like, lam=cfg.lam, fused=scoring.fuse(like.pooled, like.base, cfg.lam))
        # the passes of one reduction share its fresh W_down and b_down, so any can lend its down-projection
        reuse = next((p for (reduction, *_), p in self._passes.items() if reduction == cfg.reduction), None)
        state = _fresh_state(self.proposals.d, cfg.reduction)
        selections = scoring.select_prompts(self._compat, cfg.rho)
        return fused_scores(self.proposals, self.pool, state.phi, state.delta, cfg, selections, reuse)
