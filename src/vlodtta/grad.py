"""Closed-form gradient of the single-step adaptation objective.

The objective is one fixed composition: the bottleneck adapter, row
normalization, cosine scores against class and prompt directions, the
mean over each class's selected prompts, convex fusion, a softmax
entropy, and a weighted mean. `forward_objective` evaluates it and saves
the intermediates; `backward` applies the hand-derived chain rule to
them; `fd_check` verifies the result against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import erf

from . import cluster, scoring

if TYPE_CHECKING:  # pragma: no cover
    from .adapt import AdaptState
    from .data import PromptPool, ProposalSet

__all__ = [
    "gelu",
    "gelu_grad",
    "Gradients",
    "ObjectiveConstants",
    "forward_objective",
    "backward",
    "fd_check",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the erf-based GELU."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _entropy_score_grad(scores: np.ndarray, kappa: float) -> np.ndarray:
    """d entropy_i / d score_ij in closed form: -kappa * p * (log p + H)."""
    p = scoring.posterior(scores, kappa)
    h = scoring.entropy(p)
    logp = np.log(np.where(p > 0.0, p, 1.0))
    return -kappa * p * (logp + h[:, None])


def _unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows scaled to unit norm, their (n, 1) norms)."""
    return scoring.normalize_rows(m), np.linalg.norm(m, axis=-1, keepdims=True)


def _unit_rows_pullback(g: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient through x -> x / |x| given the output gradient g."""
    return (g - (g * unit).sum(axis=-1, keepdims=True) * unit) / norms


@dataclass(frozen=True)
class Gradients:
    """Gradients of the objective for the adapter tensors and the residual."""

    w_down: np.ndarray
    b_down: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    delta: np.ndarray

    def norms(self) -> dict[str, float]:
        return {
            "w_down": float(np.linalg.norm(self.w_down)),
            "b_down": float(np.linalg.norm(self.b_down)),
            "w_up": float(np.linalg.norm(self.w_up)),
            "b_up": float(np.linalg.norm(self.b_up)),
            "delta": float(np.linalg.norm(self.delta)),
        }


@dataclass(frozen=True)
class ObjectiveConstants:
    """Quantities frozen before the step: entropy weights, prompt selections,
    kept-proposal indices, and the fusion/scale scalars."""

    weights: np.ndarray     # (M,) per kept proposal, sum > 0
    selections: np.ndarray  # (K, n_sel) prompt indices
    kept: np.ndarray        # (M,) proposal indices into the full set
    lam: float
    kappa: float


@dataclass(frozen=True)
class _Saved:
    """Forward intermediates the backward pass reads."""

    features: np.ndarray       # (M, d) kept raw features
    pre: np.ndarray            # (M, h) pre-GELU activations
    hidden: np.ndarray         # (M, h)
    w_up: np.ndarray           # (h, d)
    unit_features: np.ndarray  # (M, d)
    feature_norms: np.ndarray  # (M, 1)
    class_dirs: np.ndarray     # (K, d)
    unit_prompts: np.ndarray   # (K * n_sel, d) selected prompts plus delta, normalized
    prompt_norms: np.ndarray   # (K * n_sel, 1)
    fused: np.ndarray          # (M, K)
    coeff: np.ndarray          # (M,) weights / weights.sum()
    n_sel: int
    lam: float
    kappa: float


def forward_objective(
    proposals: "ProposalSet",
    pool: "PromptPool",
    state: "AdaptState",
    constants: ObjectiveConstants,
) -> tuple[float, _Saved]:
    """Evaluate the adaptation objective and return (loss, saved intermediates).

    The loss is the weighted mean entropy of the fused-score posteriors of
    the kept proposals, computed through the adapter and the prompt
    residual. Weights, selections, and kept indices are treated as
    constants, so gradients flow through the entropies only.
    """
    kept = np.asarray(constants.kept, dtype=int)
    if kept.size == 0:
        raise ValueError("no kept proposals; the objective is undefined")
    weights = np.asarray(constants.weights, dtype=float)
    if weights.shape != kept.shape:
        raise ValueError(f"{weights.shape[0]} weights for {kept.shape[0]} kept proposals")
    if weights.sum() <= 0.0:
        raise ValueError("weights must have a positive sum")

    phi = state.phi
    features = proposals.features[kept]
    pre = features @ phi.w_down + phi.b_down
    hidden = gelu(pre)
    adapted = features + (hidden @ phi.w_up + phi.b_up)
    unit_features, feature_norms = _unit_rows(adapted)

    class_dirs = scoring.normalize_rows(proposals.class_embeddings)
    base = unit_features @ class_dirs.T

    emb = pool.embeddings
    sel = np.asarray(constants.selections, dtype=int)
    num_classes, n_sel = sel.shape
    selected = emb[np.arange(num_classes)[:, None], sel].reshape(num_classes * n_sel, emb.shape[-1])
    unit_prompts, prompt_norms = _unit_rows(selected + state.delta)
    sims = unit_features @ unit_prompts.T
    pooled = sims.reshape(kept.size, num_classes, n_sel).mean(axis=-1)

    fused = scoring.fuse(pooled, base, constants.lam)
    entropies = scoring.entropy(scoring.posterior(fused, constants.kappa))
    loss = cluster.iwe_loss(entropies, weights)
    saved = _Saved(
        features=features, pre=pre, hidden=hidden, w_up=phi.w_up,
        unit_features=unit_features, feature_norms=feature_norms, class_dirs=class_dirs,
        unit_prompts=unit_prompts, prompt_norms=prompt_norms, fused=fused,
        coeff=weights / weights.sum(), n_sel=n_sel, lam=constants.lam, kappa=constants.kappa,
    )
    return loss, saved


def backward(saved: _Saved) -> Gradients:
    """Gradients of the loss from `forward_objective` by the hand-derived chain rule."""
    s = saved
    g_fused = s.coeff[:, None] * _entropy_score_grad(s.fused, s.kappa)
    g_sims = np.repeat(s.lam * g_fused / s.n_sel, s.n_sel, axis=1)
    g_base = (1.0 - s.lam) * g_fused

    g_unit = g_sims @ s.unit_prompts + g_base @ s.class_dirs
    g_prompts = _unit_rows_pullback(g_sims.T @ s.unit_features, s.unit_prompts, s.prompt_norms)
    g_adapted = _unit_rows_pullback(g_unit, s.unit_features, s.feature_norms)

    g_pre = (g_adapted @ s.w_up.T) * gelu_grad(s.pre)
    return Gradients(
        w_down=s.features.T @ g_pre,
        b_down=g_pre.sum(axis=0),
        w_up=s.hidden.T @ g_adapted,
        b_up=g_adapted.sum(axis=0),
        delta=g_prompts.sum(axis=0),
    )


def fd_check(
    proposals: "ProposalSet",
    pool: "PromptPool",
    state: "AdaptState",
    constants: ObjectiveConstants,
    eps: float = 1e-5,
) -> float:
    """Max relative error between closed-form gradients and central differences.

    The error for one coordinate is |analytic - numeric| / max(1, |numeric|);
    the maximum over every adapter and residual coordinate comes back.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must be in [1e-7, 1e-3]: {eps}")
    _, saved = forward_objective(proposals, pool, state, constants)
    grads = backward(saved)
    pairs = [
        (state.phi.w_down, grads.w_down),
        (state.phi.b_down, grads.b_down),
        (state.phi.w_up, grads.w_up),
        (state.phi.b_up, grads.b_up),
        (state.delta, grads.delta),
    ]
    worst = 0.0
    for values, analytic in pairs:
        flat = values.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = forward_objective(proposals, pool, state, constants)[0]
            flat[i] = orig - eps
            lo = forward_objective(proposals, pool, state, constants)[0]
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(float(aflat[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
